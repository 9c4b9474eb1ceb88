"""Exact zero-divisor graphs of commutative semigroups with zero.

Finite semigroups, rings, ideal semigroups, truncated polynomial content,
finite topologies and their T1 lattices, and spectral posets, with exact graph
invariants and mechanical verification of the structure theorems tying
them together through invariant-preserving (Armendariz) maps.
"""

__version__ = "0.1.0"

from .graphs import (
    COUNTABLY_INFINITE,
    InvariantBundle,
    InvariantSuiteReport,
    SimpleGraph,
    armendariz_invariant_suite,
    armendariz_invariant_suites,
    beck_graph,
    clique_and_chromatic,
    diameter,
    girth,
    invariant_bundle,
    is_connected,
    to_dot,
    zero_divisor_graph,
)
from .semigroups import (
    ArmendarizReport,
    EqQuotient,
    SemigroupMap,
    SemigroupTable,
    annihilator,
    check_armendariz,
    check_homomorphism,
    eq_quotient,
    induced_final_map,
    is_nilpotent_free,
    validate_semigroup,
    zero_divisors,
)
from .topology import prl

__all__ = [
    "__version__",
    "SemigroupTable",
    "SemigroupMap",
    "ArmendarizReport",
    "EqQuotient",
    "SimpleGraph",
    "InvariantBundle",
    "InvariantSuiteReport",
    "COUNTABLY_INFINITE",
    "validate_semigroup",
    "is_nilpotent_free",
    "annihilator",
    "zero_divisors",
    "eq_quotient",
    "check_armendariz",
    "check_homomorphism",
    "induced_final_map",
    "armendariz_invariant_suite",
    "armendariz_invariant_suites",
    "zero_divisor_graph",
    "beck_graph",
    "diameter",
    "girth",
    "clique_and_chromatic",
    "is_connected",
    "invariant_bundle",
    "to_dot",
    "prl",
]
