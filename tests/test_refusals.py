"""Every CapabilityError the library raises names settings that exist."""

import importlib
import re

import pytest

import matchcover.cuts
import matchcover.matching
import matchcover.multigraph
import matchcover.splicing
from matchcover.cuts import exhaustive_nontrivial_tight_cut, nontrivial_separating_cut
from matchcover.errors import CapabilityError
from matchcover.generators import named_graph
from matchcover.matching import enumerate_pms
from matchcover.multigraph import canonical_form
from matchcover.splicing import splice_variants

SETTING = re.compile(r"\b(matching|cuts|multigraph|splicing)\.(\w+)")


def test_refusals_name_settings_that_exist(monkeypatch):
    monkeypatch.setattr(matchcover.multigraph, "_CANON_WORK_BUDGET", 50)
    monkeypatch.setattr(matchcover.cuts, "EXHAUSTIVE_LIMIT", 4)
    monkeypatch.setenv("MATCHCOVER_BUDGET", "10")
    refusals = [
        lambda: exhaustive_nontrivial_tight_cut(named_graph("C6")),
        lambda: nontrivial_separating_cut(named_graph("petersen")),
        lambda: enumerate_pms(named_graph("K4,4")),
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


LIMITS = [
    (matchcover.cuts, "EXHAUSTIVE_LIMIT", 4, 6,
     lambda: exhaustive_nontrivial_tight_cut(named_graph("C6"))),
    (matchcover.matching, "DEFAULT_PM_BUDGET", 10, 24,
     lambda: enumerate_pms(named_graph("K4,4"))),
    (matchcover.multigraph, "_CANON_WORK_BUDGET", 50, matchcover.multigraph._CANON_WORK_BUDGET,
     lambda: canonical_form(named_graph("K3,3"))),
    (matchcover.splicing, "VARIANT_DEGREE_LIMIT", 2, 3,
     lambda: splice_variants(named_graph("K3,3"), 1, named_graph("K3,3"), 1)),
]


@pytest.mark.parametrize("module,setting,low,high,call", LIMITS, ids=[row[1] for row in LIMITS])
def test_the_named_setting_raises_the_limit(monkeypatch, module, setting, low, high, call):
    # Each limit is one module constant, read at call time: set below the
    # instance, the call is refused naming it; set to the instance's size,
    # the same call returns.
    monkeypatch.delenv("MATCHCOVER_BUDGET", raising=False)
    monkeypatch.setattr(module, setting, low)
    with pytest.raises(CapabilityError) as info:
        call()
    assert f"{module.__name__.removeprefix('matchcover.')}.{setting}" in str(info.value)
    monkeypatch.setattr(module, setting, high)
    assert call()
