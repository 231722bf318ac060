"""Kochen-Specker colorability: exact search over 0/1 ray assignments.

An assignment gives each ray 0 or 1 subject to two constraint families:
orthogonal rays cannot both get 1 (every edge of the orthogonality graph,
whether or not it lies in a complete basis), and every complete basis must
contain exactly one ray assigned 1.  The search branches on which member
of each basis carries the 1, with unit propagation on both families, and
is exhaustive, so UNSAT answers are certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .orthograph import build_graph, complete_bases
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

    @property
    def rays(self) -> tuple[Ray, ...]:
        return self.graph.vertices

    def ray_set(self) -> frozenset[Ray]:
        return frozenset(self.graph.vertices)

    def __repr__(self) -> str:
        return (
            f"KSInstance({self.name!r}, {self.graph.n} rays, "
            f"{len(self.bases)} bases)"
        )


@dataclass(frozen=True)
class Assignment:
    """Total 0/1 valuation of an instance's rays."""

    values: dict

    def value(self, ray: Ray) -> int:
        return self.values[ray]

    def ones(self) -> tuple[Ray, ...]:
        return tuple(r for r, v in sorted(
            self.values.items(), key=lambda kv: kv[0].sort_key()) if v == 1)

    def __str__(self) -> str:
        parts = [f"{r}={v}" for r, v in sorted(
            self.values.items(), key=lambda kv: kv[0].sort_key())]
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class ColoringViolation:
    kind: str  # "edge" or "basis"
    detail: str


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


@dataclass(frozen=True)
class SearchResult:
    satisfiable: bool
    assignment: Assignment | None
    nodes: int


class _Propagator:
    """Unit-propagation state and the basis-branching search over it."""

    def __init__(self, inst: KSInstance):
        self.adj = inst.graph.adj
        self.n = inst.graph.n
        self.bases = inst.basis_indices
        self.in_bases = [[] for _ in range(self.n)]
        for bi, triple in enumerate(self.bases):
            for v in triple:
                self.in_bases[v].append(bi)
        self.vals: list[int | None] = [None] * self.n
        self.trail: list[int] = []
        self.nodes = 0

    def assign(self, v: int, value: int) -> bool:
        """Set v := value with propagation; False on conflict."""
        queue = [(v, value)]
        while queue:
            u, val = queue.pop()
            cur = self.vals[u]
            if cur is not None:
                if cur != val:
                    return False
                continue
            self.vals[u] = val
            self.trail.append(u)
            if val == 1:
                m = self.adj[u]
                while m:
                    w = (m & -m).bit_length() - 1
                    m &= m - 1
                    queue.append((w, 0))
            for bi in self.in_bases[u]:
                triple = self.bases[bi]
                vals = [self.vals[t] for t in triple]
                ones = sum(1 for x in vals if x == 1)
                zeros = sum(1 for x in vals if x == 0)
                if ones > 1 or (zeros == 3):
                    return False
                if ones == 1:
                    for t in triple:
                        if self.vals[t] is None:
                            queue.append((t, 0))
                elif zeros == 2:
                    for t in triple:
                        if self.vals[t] is None:
                            queue.append((t, 1))
        return True

    def undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            self.vals[self.trail.pop()] = None

    def leaves(self):
        """Yield at every leaf of the basis-branching search, in order.

        Branches on the first basis without a 1, trying each member not
        already 0, one node per try.  At a leaf every basis carries a 1
        and `vals` holds the partial assignment (free rays None).
        """
        open_bases = (i for i, triple in enumerate(self.bases)
                      if not any(self.vals[t] == 1 for t in triple))
        bi = next(open_bases, None)
        if bi is None:
            yield
            return
        for t in self.bases[bi]:
            if self.vals[t] == 0:
                continue
            self.nodes += 1
            mark = len(self.trail)
            if self.assign(t, 1):
                yield from self.leaves()
            self.undo(mark)

    def free_completions(self, pos: int = 0):
        """Yield at every total assignment extending `vals`, free rays 0 before 1."""
        while pos < self.n and self.vals[pos] is not None:
            pos += 1
        if pos == self.n:
            yield
            return
        for value in (0, 1):
            mark = len(self.trail)
            if self.assign(pos, value):
                yield from self.free_completions(pos + 1)
            self.undo(mark)


def _checked_assignment(inst: KSInstance, vals) -> Assignment:
    f = Assignment({ray: vals[i] for i, ray in enumerate(inst.graph.vertices)})
    problems = verify_assignment(inst, f)
    if problems:
        raise AssertionError(f"search produced an invalid assignment: {problems}")
    return f


def find_ks_assignment(inst: KSInstance) -> SearchResult:
    """First valid assignment in branching order, or exhaustive UNSAT."""
    prop = _Propagator(inst)
    for _ in prop.leaves():
        # all bases carry a 1; free rays get 0 (edges stay satisfied)
        vals = [v if v is not None else 0 for v in prop.vals]
        return SearchResult(True, _checked_assignment(inst, vals), prop.nodes)
    return SearchResult(False, None, prop.nodes)


@dataclass(frozen=True)
class EnumerationResult:
    assignments: list[Assignment]
    truncated: bool


def enumerate_ks_assignments(inst: KSInstance, cap: int = 100000) -> EnumerationResult:
    """All valid assignments in deterministic order, up to `cap`."""
    prop = _Propagator(inst)
    found = (
        _checked_assignment(inst, prop.vals)
        for _ in prop.leaves()
        for _ in prop.free_completions()
    )
    out = list(itertools.islice(found, cap + 1))  # one extra detects truncation
    return EnumerationResult(out[:cap], len(out) > cap)


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
