"""Kochen-Specker colorability: exact search over 0/1 ray assignments.

An assignment gives each ray 0 or 1 subject to two constraint families:
orthogonal rays cannot both get 1 (every edge of the orthogonality graph,
whether or not it lies in a complete basis), and every complete basis must
contain exactly one ray assigned 1.  The search branches on which member
of each basis carries the 1, with unit propagation on both families, and
is exhaustive, so UNSAT answers are certificates.
"""

from __future__ import annotations

from collections import namedtuple

from .orthograph import bits, build_graph, complete_bases
from .rays import Basis, Ray


class KSInstance:
    """A named ray set with its orthogonality graph and complete bases."""

    __slots__ = ("name", "graph", "bases", "basis_indices", "notes")

    def __init__(self, name: str, rays, notes=()) -> None:
        graph = build_graph(rays)
        basis_indices = tuple(complete_bases(graph))
        bases = [Basis(graph.vertices[i] for i in triple) for triple in basis_indices]
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "basis_indices", basis_indices)
        object.__setattr__(self, "notes", tuple(notes))

    def __setattr__(self, name, value):
        raise AttributeError("KSInstance is immutable")

    def __repr__(self) -> str:
        return (
            f"KSInstance({self.name!r}, {self.graph.n} rays, "
            f"{len(self.bases)} bases)"
        )


class Assignment(namedtuple("Assignment", "values")):
    """Total 0/1 valuation of an instance's rays: `values` maps each Ray to 0 or 1."""

    __slots__ = ()

    def ones(self) -> tuple[Ray, ...]:
        return tuple(r for r, v in sorted(
            self.values.items(), key=lambda kv: kv[0].sort_key()) if v == 1)


class ColoringViolation(namedtuple("ColoringViolation", "kind detail")):
    """One broken constraint; `kind` is "edge" or "basis"."""

    __slots__ = ()


def verify_assignment(inst: KSInstance, f: Assignment) -> list[ColoringViolation]:
    """Empty list iff `f` satisfies both constraint families."""
    g = inst.graph
    vals = []
    for ray in g.vertices:
        if ray not in f.values:
            raise ValueError(f"assignment is not total: missing {ray}")
        v = f.values[ray]
        if v not in (0, 1):
            raise ValueError(f"assignment value for {ray} is {v}, not 0/1")
        vals.append(v)
    out = []
    for i, j in g.edges():
        if vals[i] + vals[j] > 1:
            out.append(ColoringViolation(
                "edge", f"orthogonal rays {g.vertices[i]} and {g.vertices[j]} both assigned 1"))
    for bi, triple in enumerate(inst.basis_indices):
        s = sum(vals[i] for i in triple)
        if s != 1:
            out.append(ColoringViolation(
                "basis", f"basis #{bi} {inst.bases[bi]} has assignment sum {s}, want 1"))
    return out


class SearchResult(namedtuple("SearchResult", "satisfiable assignment nodes")):
    __slots__ = ()


def close(adj, bases, ones: int, zeros: int) -> tuple[int, int] | None:
    """The unit-propagation fixpoint of (ones, zeros), or None on a conflict.

    Bit v of `ones` (`zeros`) gives ray v the value 1 (0); `adj` holds the
    orthogonality rows, `bases` the basis bitmasks.  A 1 puts its row into
    zeros, a basis with one 1 puts its other members into zeros, and a
    basis with one member outside zeros puts that member into ones.  Two
    1s in a basis, a basis of 0s or a ray in both masks is a conflict.
    Rules only add bits, so the order they fire in does not matter.
    """
    while True:
        before = ones, zeros
        for v in bits(ones):
            zeros |= adj[v]
        for basis in bases:
            one, free = basis & ones, basis & ~zeros
            if one & (one - 1) or not free:
                return None
            if one:
                zeros |= basis ^ one
            elif not free & (free - 1):
                ones |= free
        if ones & zeros:
            return None
        if (ones, zeros) == before:
            return before


def _search_tree(adj, bases, ones: int = 0, zeros: int = 0):
    """Yield one item per node of the basis-branching search, in order.

    A node branches on the first basis without a 1, giving each member not
    already 0 the value 1 in turn, one child per try.  A leaf (every basis
    carries a 1) yields its (ones, zeros) pair; every other node, a try
    that conflicts included, yields None.
    """
    open_basis = next((b for b in bases if not b & ones), None)
    if open_basis is None:
        yield ones, zeros
        return
    yield None
    for v in bits(open_basis & ~zeros):
        child = close(adj, bases, ones | 1 << v, zeros)
        if child is None:
            yield None
        else:
            yield from _search_tree(adj, bases, *child)


def _search_data(inst: KSInstance):
    """The orthogonality rows and the basis bitmasks of `inst`."""
    return inst.graph.adj, [sum(1 << t for t in triple) for triple in inst.basis_indices]


def _checked_assignment(inst: KSInstance, ones: int) -> Assignment:
    f = Assignment({ray: ones >> i & 1 for i, ray in enumerate(inst.graph.vertices)})
    problems = verify_assignment(inst, f)
    if problems:
        raise AssertionError(f"search produced an invalid assignment: {problems}")
    return f


def find_ks_assignment(inst: KSInstance) -> SearchResult:
    """First valid assignment in branching order, or exhaustive UNSAT."""
    # item k of the tree is the k-th node tried after the root
    for nodes, leaf in enumerate(_search_tree(*_search_data(inst))):
        if leaf is not None:
            # all bases carry a 1; free rays get 0 (edges stay satisfied)
            return SearchResult(True, _checked_assignment(inst, leaf[0]), nodes)
    return SearchResult(False, None, nodes)


def to_dimacs_cnf(inst: KSInstance) -> str:
    """CNF encoding: variable i+1 true iff ray i is assigned 1.

    Clauses: a negative pair per orthogonal edge, a positive triple per
    complete basis.  Satisfying assignments correspond exactly to valid
    KS assignments extended by 0 on free rays.
    """
    g = inst.graph
    lines = [f"c instance {inst.name}"]
    for i, ray in enumerate(g.vertices):
        lines.append(f"c var {i + 1} = {ray}")
    edges = g.edges()
    lines.append(f"p cnf {g.n} {len(edges) + len(inst.basis_indices)}")
    for i, j in edges:
        lines.append(f"-{i + 1} -{j + 1} 0")
    for triple in inst.basis_indices:
        lines.append(" ".join(str(t + 1) for t in triple) + " 0")
    return "\n".join(lines) + "\n"
