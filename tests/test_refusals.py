"""Every CapabilityError the library raises names settings that exist."""

import importlib
import re

import pytest

import matchcover.multigraph
from matchcover.cuts import exhaustive_nontrivial_tight_cut, nontrivial_separating_cut
from matchcover.errors import CapabilityError
from matchcover.generators import named_graph
from matchcover.matching import enumerate_pms
from matchcover.multigraph import canonical_form
from matchcover.splicing import splice_variants

SETTING = re.compile(r"\b(matching|cuts|multigraph|splicing)\.(\w+)")


def test_refusals_name_settings_that_exist(monkeypatch):
    monkeypatch.setattr(matchcover.multigraph, "_CANON_WORK_BUDGET", 50)
    refusals = [
        lambda: exhaustive_nontrivial_tight_cut(named_graph("C6"), limit=4),
        lambda: nontrivial_separating_cut(named_graph("petersen"), limit=8),
        lambda: enumerate_pms(named_graph("K4,4"), budget=10),
        lambda: canonical_form(named_graph("K3,3")),
        lambda: splice_variants(named_graph("K10"), 1, named_graph("K10"), 1),
    ]
    for refuse in refusals:
        with pytest.raises(CapabilityError) as info:
            refuse()
        names = SETTING.findall(str(info.value))
        assert names, str(info.value)
        for module, name in names:
            getattr(importlib.import_module(f"matchcover.{module}"), name)
