"""Orthogonality graphs and their exact combinatorics.

Vertices are canonical rays in a fixed deterministic order; edges join
orthogonal pairs.  Everything downstream (complete bases, independence
number, every element of the automorphism group) is computed in-process
so results stay certified: no external graph tools are called.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rays import Basis, Ray, is_orthogonal


class OrthoGraph:
    """Immutable orthogonality graph over deduplicated canonical rays."""

    __slots__ = ("vertices", "adj", "n")

    def __init__(self, rays) -> None:
        vertices = tuple(sorted(set(rays), key=Ray.sort_key))
        n = len(vertices)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if is_orthogonal(vertices[i], vertices[j]):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("OrthoGraph is immutable")

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return edge_list(self.adj)


def edge_list(adj) -> list[tuple[int, int]]:
    """Every edge (i, j), i < j, of an adjacency-bitmask graph, in index order."""
    out = []
    for i, row in enumerate(adj):
        m = row >> (i + 1) << (i + 1)
        while m:
            out.append((i, (m & -m).bit_length() - 1))
            m &= m - 1
    return out


def dimacs_edges(adj) -> str:
    """DIMACS-like edge list ('p edge V E', 'e i j'), 1-based vertex numbers."""
    edges = edge_list(adj)
    lines = [f"p edge {len(adj)} {len(edges)}"]
    lines += [f"e {i + 1} {j + 1}" for i, j in edges]
    return "\n".join(lines) + "\n"


def build_graph(rays) -> OrthoGraph:
    rays = list(rays)
    if not rays:
        raise ValueError("cannot build a graph from an empty ray set")
    return OrthoGraph(rays)


def complete_bases(g: OrthoGraph) -> list[Basis]:
    """All triangles of the graph, as orthogonal bases, in index order."""
    out = []
    for i in range(g.n):
        above_i = g.adj[i] >> (i + 1) << (i + 1)
        mi = above_i
        while mi:
            j = (mi & -mi).bit_length() - 1
            mi &= mi - 1
            common = g.adj[i] & g.adj[j]
            common >>= j + 1
            k = j + 1
            while common:
                if common & 1:
                    out.append(Basis((g.vertices[i], g.vertices[j], g.vertices[k])))
                common >>= 1
                k += 1
    return out


# -- maximum independent set -------------------------------------------------


def greedy_clique_cover(adj) -> list[int]:
    """Partition vertices into cliques greedily, in index order; returns masks."""
    classes: list[int] = []
    for v in range(len(adj)):
        bit = 1 << v
        for ci, cmask in enumerate(classes):
            if cmask & ~adj[v] == 0:  # v adjacent to every member
                classes[ci] = cmask | bit
                break
        else:
            classes.append(bit)
    return classes


def max_independent_set(adj) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set via branch and bound.

    The bound is the number of not-yet-processed cover cliques that still
    intersect the allowed set (each clique contributes at most one vertex).
    Branching order is fixed, so the returned witness is deterministic:
    the first optimum reached in that order.
    """
    n = len(adj)
    if n == 0:
        return 0, ()
    classes = greedy_clique_cover(adj)
    k = len(classes)
    # suffix class list for bound computation
    best_size = 0
    best_set: tuple[int, ...] = ()
    chosen: list[int] = []

    def dfs(ci: int, allowed: int) -> None:
        nonlocal best_size, best_set
        size = len(chosen)
        rem = 0
        for j in range(ci, k):
            if classes[j] & allowed:
                rem += 1
        if size + rem <= best_size:
            return
        if ci == k:
            best_size = size
            best_set = tuple(chosen)
            return
        cands = classes[ci] & allowed
        m = cands
        while m:
            lsb = m & -m
            v = lsb.bit_length() - 1
            m ^= lsb
            chosen.append(v)
            dfs(ci + 1, allowed & ~adj[v] & ~lsb)
            chosen.pop()
        dfs(ci + 1, allowed & ~classes[ci])

    dfs(0, (1 << n) - 1)
    return best_size, tuple(sorted(best_set))


def independence_number(g: OrthoGraph) -> tuple[int, tuple[int, ...]]:
    """(alpha, witness vertex indices); the witness is verified independent."""
    alpha, witness = max_independent_set(g.adj)
    for a in witness:
        for b in witness:
            if a != b and g.adj[a] >> b & 1:
                raise AssertionError("witness is not independent")
    return alpha, witness


# -- automorphism group --------------------------------------------------------


@dataclass(frozen=True)
class AutGroupReport:
    elements: tuple[tuple[int, ...], ...]  # every automorphism, sorted
    orbits: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def equitable_colors(adj) -> list[int]:
    """Stable vertex colors under iterated neighbor-color refinement."""
    n = len(adj)
    colors = [adj[v].bit_count() for v in range(n)]
    while True:
        signatures = []
        for v in range(n):
            neigh = []
            m = adj[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                neigh.append(colors[u])
            signatures.append((colors[v], tuple(sorted(neigh))))
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [palette[sig] for sig in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def enumerate_automorphisms(adj) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, in deterministic order.

    Backtracking over vertex images with equitable-partition candidates and
    forward-checking; intended for the catalog-scale graphs (tens of
    vertices, small groups), not for highly symmetric large graphs.
    """
    n = len(adj)
    colors = equitable_colors(adj)
    color_mask: dict[int, int] = {}
    for v, c in enumerate(colors):
        color_mask[c] = color_mask.get(c, 0) | (1 << v)
    base_cand = [color_mask[colors[v]] for v in range(n)]
    found: list[tuple[int, ...]] = []
    image = [-1] * n

    def dfs(cand: list[int], unmapped: list[int]) -> None:
        if not unmapped:
            found.append(tuple(image))
            return
        # most-constrained source vertex, lowest index on ties
        v = min(unmapped, key=lambda u: (cand[u].bit_count(), u))
        rest = [u for u in unmapped if u != v]
        m = cand[v]
        while m:
            tbit = m & -m
            t = tbit.bit_length() - 1
            m ^= tbit
            image[v] = t
            new_cand = list(cand)
            ok = True
            for u in rest:
                if adj[v] >> u & 1:
                    new_cand[u] &= adj[t]
                else:
                    new_cand[u] &= ~adj[t] & ~tbit
                if new_cand[u] == 0:
                    ok = False
                    break
            if ok:
                dfs(new_cand, rest)
            image[v] = -1

    dfs(base_cand, list(range(n)))
    return sorted(found)


def automorphisms(g: OrthoGraph) -> AutGroupReport:
    """Exact automorphism group: every element and the vertex orbits.

    The orbit of v is {p[v] for p in elements}, which is the whole orbit
    because `elements` is the whole group.
    """
    elements = tuple(enumerate_automorphisms(g.adj))
    orbits = {tuple(sorted({p[v] for p in elements})) for v in range(g.n)}
    return AutGroupReport(elements=elements, orbits=tuple(sorted(orbits)))
