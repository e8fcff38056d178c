"""Matching covered graphs: multigraphs with stable edge ids, perfect
matching predicates, barriers and the canonical partition, mutual
dependence classes and epsilon, tight and separating cuts with their
decompositions into bricks and braces, splicing, and a construction
pushing connectivity and epsilon arbitrarily high at the same time.
"""

from .errors import (
    CapabilityError,
    DomainError,
    MatchcoverError,
    ParseError,
    VerificationError,
)
from .multigraph import (
    CanonicalForm,
    Cut,
    MultiGraph,
    canonical_form,
    format_graph,
    parse_graph,
)
from .matching import (
    enumerate_pms,
    has_pm_containing,
    is_admissible,
    is_matchable,
    is_matching_covered,
    matchable_minus,
    maximum_matching,
    pm_budget,
)
from .structure import (
    canonical_partition,
    even_2cuts,
    is_barrier,
    is_bicritical,
    vertex_connectivity,
)
from .dependence import (
    EquivalencePartition,
    class_of,
    depends_on,
    epsilon,
    equivalence_partition,
    is_equivalence_class,
    mutually_dependent,
)
from .cuts import (
    DecompositionResult,
    SplitRecord,
    classify,
    contractions,
    exhaustive_nontrivial_tight_cut,
    find_nontrivial_tight_cut,
    is_removable_edge,
    is_separating_cut,
    is_solid_brick,
    is_tight_cut,
    make_chooser,
    nontrivial_separating_cut,
    removable_classes,
    removable_edges,
    separating_cut_decomposition,
    tight_cut_candidates,
    tight_cut_decomposition,
    verify_bounds,
)
from . import dependence as _dependence
from .splicing import (
    ClassRestriction,
    CrossSupport,
    SpliceResult,
    SpliceSpec,
    check_merge,
    cross_support,
    restrict_class,
    splice,
    splice_variants,
)
from .generators import (
    MARKED_CUT_SHORES,
    ConstructionTrace,
    build_high_kappa_epsilon,
    labeled_edge,
    named_graph,
    verify_trace,
)

# Removability is computed beside the tight cut decomposition, in
# ``cuts``, which imports ``dependence``.  The benchmark tracer
# (perfbench/tracer.py) counts its calls under the ``dependence`` layer,
# so the same functions are bound there too, once both modules load.
_dependence.is_removable_edge = is_removable_edge
_dependence.removable_classes = removable_classes
_dependence.removable_edges = removable_edges

__all__ = [
    "CanonicalForm",
    "CapabilityError",
    "ClassRestriction",
    "ConstructionTrace",
    "CrossSupport",
    "Cut",
    "DecompositionResult",
    "DomainError",
    "EquivalencePartition",
    "MARKED_CUT_SHORES",
    "MatchcoverError",
    "MultiGraph",
    "ParseError",
    "SpliceResult",
    "SpliceSpec",
    "SplitRecord",
    "VerificationError",
    "build_high_kappa_epsilon",
    "canonical_form",
    "canonical_partition",
    "check_merge",
    "class_of",
    "classify",
    "contractions",
    "cross_support",
    "depends_on",
    "enumerate_pms",
    "epsilon",
    "equivalence_partition",
    "even_2cuts",
    "exhaustive_nontrivial_tight_cut",
    "find_nontrivial_tight_cut",
    "format_graph",
    "has_pm_containing",
    "is_admissible",
    "is_barrier",
    "is_bicritical",
    "is_equivalence_class",
    "is_matchable",
    "is_matching_covered",
    "is_removable_edge",
    "is_separating_cut",
    "is_solid_brick",
    "is_tight_cut",
    "labeled_edge",
    "make_chooser",
    "matchable_minus",
    "maximum_matching",
    "mutually_dependent",
    "named_graph",
    "nontrivial_separating_cut",
    "parse_graph",
    "pm_budget",
    "removable_classes",
    "removable_edges",
    "restrict_class",
    "separating_cut_decomposition",
    "splice",
    "splice_variants",
    "tight_cut_candidates",
    "tight_cut_decomposition",
    "verify_bounds",
    "verify_trace",
    "vertex_connectivity",
]
