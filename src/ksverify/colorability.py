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

from .orthograph import bits, build_graph, complete_bases, edge_list


class KSInstance:
    """A named ray set with its orthogonality graph and complete bases.

    A basis is a triple of vertex indices: a triangle of `graph.adj`, whose
    edges the exact orthogonality tests of `build_graph` already certify.
    """

    __slots__ = ("name", "graph", "basis_indices", "notes")

    def __init__(self, name: str, rays, notes=()) -> None:
        graph = build_graph(rays)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "basis_indices", tuple(complete_bases(graph)))
        object.__setattr__(self, "notes", tuple(notes))

    def __setattr__(self, name, value):
        raise AttributeError("KSInstance is immutable")

    def __repr__(self) -> str:
        return (
            f"KSInstance({self.name!r}, {self.graph.n} rays, "
            f"{len(self.basis_indices)} bases)"
        )

    def basis_str(self, bi: int) -> str:
        """Basis `bi` as `{r1, r2, r3}`."""
        return "{" + ", ".join(str(self.graph.vertices[v]) for v in self.basis_indices[bi]) + "}"

    def note_lines(self) -> list[str]:
        """The set's notes, the first lines of every report on it."""
        return [f"note: {note}" for note in self.notes]


def verify_assignment(inst: KSInstance, ones: int) -> list[str]:
    """One line per broken constraint of giving 1 to the rays in `ones` (bit i
    is vertex i) and 0 to the rest; empty iff both families hold."""
    g = inst.graph
    out = [f"orthogonal rays {g.vertices[i]} and {g.vertices[j]} both assigned 1"
           for i, j in edge_list(g.adj) if ones >> i & ones >> j & 1]
    for bi, triple in enumerate(inst.basis_indices):
        s = sum(ones >> i & 1 for i in triple)
        if s != 1:
            out.append(f"basis #{bi} {inst.basis_str(bi)} has assignment sum {s}, want 1")
    return out


class SearchResult(namedtuple("SearchResult", "satisfiable ones nodes")):
    """`ones` is the witness's mask of rays assigned 1 (bit i is vertex i), or None."""

    __slots__ = ()


def close(adj, bases, ones: int, zeros: int) -> tuple[int, int] | None:
    """The unit-propagation fixpoint of (ones, zeros), or None on a conflict.

    Bit v of `ones` (`zeros`) gives ray v the value 1 (0); `adj` holds the
    orthogonality rows, `bases` the basis bitmasks, each a triangle of
    `adj`.  A 1 puts its row, basis mates included, into zeros, and a basis
    with one member outside zeros puts that member into ones.  A basis of
    0s or a ray in both masks (two 1s in a basis among them) is a conflict.
    Rules only add bits, so the order they fire in does not matter.
    """
    while True:
        before = ones, zeros
        for v in bits(ones):
            zeros |= adj[v]
        for basis in bases:
            free = basis & ~zeros
            if not free:
                return None
            if not free & (free - 1):
                ones |= free
        if ones & zeros:
            return None
        if (ones, zeros) == before:
            return before


def find_ks_assignment(inst: KSInstance) -> SearchResult:
    """First valid assignment in branching order, or exhaustive UNSAT.

    A node branches on the first basis without a 1, giving each member not
    already 0 the value 1 in turn, one child per try; `nodes` counts the
    tries, those that conflict included.  The depth-first search keeps an
    explicit stack of (ones, zeros, members not yet tried), so the number
    of bases is not bounded by the recursion limit.
    """
    adj = inst.graph.adj
    bases = [sum(1 << t for t in triple) for triple in inst.basis_indices]
    ones = zeros = nodes = 0
    stack = []
    while True:
        open_basis = next((b for b in bases if not b & ones), None)
        if open_basis is None:
            # all bases carry a 1; free rays get 0 (edges stay satisfied)
            problems = verify_assignment(inst, ones)
            if problems:
                raise AssertionError(f"search produced an invalid assignment: {problems}")
            return SearchResult(True, ones, nodes)
        stack.append((ones, zeros, bits(open_basis & ~zeros)))
        child = None
        while child is None:  # the next try that closes without a conflict
            if not stack:
                return SearchResult(False, None, nodes)
            ones, zeros, untried = stack[-1]
            v = next(untried, None)
            if v is None:
                stack.pop()
            else:
                nodes += 1
                child = close(adj, bases, ones | 1 << v, zeros)
        ones, zeros = child


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
    edges = edge_list(g.adj)
    lines.append(f"p cnf {g.n} {len(edges) + len(inst.basis_indices)}")
    for i, j in edges:
        lines.append(f"-{i + 1} -{j + 1} 0")
    for triple in inst.basis_indices:
        lines.append(" ".join(str(t + 1) for t in triple) + " 0")
    return "\n".join(lines) + "\n"


def verify_report(inst: KSInstance, cnf_path: str | None = None) -> tuple[dict, list[str], list]:
    """The `verify` pipeline: the KS search, and the CNF as the file `cnf_path` if given."""
    result = find_ks_assignment(inst)
    verdict = "SAT" if result.satisfiable else "UNSAT"
    lines = inst.note_lines() + [
        f"{inst.name}: {inst.graph.n} rays, {len(inst.basis_indices)} complete bases",
        f"KS assignment search: {verdict} (search nodes: {result.nodes})"]
    if result.satisfiable:
        # vertices are in Ray.sort_key order, so bit order is ray order
        ones = ", ".join(str(inst.graph.vertices[i]) for i in bits(result.ones))
        lines.append(f"witness assignment, rays with value 1: {ones}")
    files = [] if cnf_path is None else [(cnf_path, [to_dimacs_cnf(inst)])]
    if files:
        lines.append(f"constraint system written to {cnf_path} (DIMACS CNF)")
    return {inst.name: {"rays": inst.graph.n, "bases": len(inst.basis_indices),
                        "ks": verdict, "ks_nodes": result.nodes}}, lines, files


def bases_report(inst: KSInstance) -> tuple[dict, list[str], list]:
    """The `bases` pipeline: every complete basis, by index."""
    nb = len(inst.basis_indices)
    lines = inst.note_lines() + [f"{inst.name}: {nb} complete bases"]
    lines += [f"{i}: {inst.basis_str(i)}" for i in range(nb)]
    return {inst.name: {"bases": nb}}, lines, []
