"""Exact verification toolkit for qutrit Kochen-Specker sets.

Everything except the Majorana sphere coordinates is computed in exact
cyclotomic arithmetic: orthogonality, complete bases, graph symmetry, KS
colorability, and the classical and quantum values of the associated
bipartite games.
"""

from .catalog import builtin, load_set, save_set, serialize
from .colorability import (
    Assignment,
    KSInstance,
    find_ks_assignment,
    verify_assignment,
)
from .cyclotomic import Cyc, omega, sqrt2
from .game import (
    Game,
    build_game,
    classical_value,
    minimal_distribution_search,
    quantum_value_maxent,
)
from .majorana import export_majorana, majorana_points
from .orthograph import (
    OrthoGraph,
    automorphisms,
    build_graph,
    complete_bases,
)
from .rays import (
    Basis,
    Ray,
    inner,
    is_orthogonal,
    parse_ray,
    validate_basis,
)
from .weylheisenberg import apply, generator, is_sic_povm, orbit_closure

__all__ = [
    "Assignment",
    "Basis",
    "Cyc",
    "Game",
    "KSInstance",
    "OrthoGraph",
    "Ray",
    "apply",
    "automorphisms",
    "build_game",
    "build_graph",
    "builtin",
    "classical_value",
    "complete_bases",
    "export_majorana",
    "find_ks_assignment",
    "generator",
    "inner",
    "is_orthogonal",
    "is_sic_povm",
    "load_set",
    "majorana_points",
    "minimal_distribution_search",
    "omega",
    "orbit_closure",
    "parse_ray",
    "quantum_value_maxent",
    "save_set",
    "serialize",
    "sqrt2",
    "validate_basis",
    "verify_assignment",
]

__version__ = "0.1.0"
