"""Orthogonality graphs and their exact combinatorics.

Vertices are canonical rays in a fixed deterministic order; edges join
orthogonal pairs.  Everything downstream (complete bases, independence
number, every element of the automorphism group) is computed in-process
so results stay certified: no external graph tools are called.  The
automorphism group comes from a stabilizer chain over a forward-checked
backtrack: one search per new orbit point, not one leaf per element.
That search keeps an explicit stack, so graph size, not the recursion
limit, bounds it.  `bits` is the one loop over the set bits of a mask,
lowest first, for every bitmask search in the package.
"""

from __future__ import annotations

from collections import namedtuple

from .rays import Ray, is_orthogonal


class OrthoGraph:
    """Immutable orthogonality graph over deduplicated canonical rays."""

    __slots__ = ("vertices", "adj", "n", "_group")

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
        object.__setattr__(self, "_group", None)

    def __setattr__(self, name, value):
        raise AttributeError("OrthoGraph is immutable")

    @property
    def group(self) -> AutGroupReport:
        """The automorphism group, enumerated on first use and then kept;
        one above MAX_AUTOMORPHISMS raises ValueError on every access."""
        if self._group is None:
            object.__setattr__(self, "_group", automorphisms(self))
        return self._group


def bits(mask: int):
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def edge_list(adj) -> list[tuple[int, int]]:
    """Every edge (i, j), i < j, of an adjacency-bitmask graph, in index order."""
    return [(i, j) for i, row in enumerate(adj) for j in bits(row >> (i + 1) << (i + 1))]


def dimacs_edges(adj):
    """A DIMACS-like edge list ('p edge V E', 'e i j'), 1-based vertex numbers,
    yielded as the header line and then one row's edge lines at a time, so
    no edge list is held."""
    yield f"p edge {len(adj)} {sum((row >> (i + 1)).bit_count() for i, row in enumerate(adj))}\n"
    for i, row in enumerate(adj):
        yield "".join(f"e {i + 1} {j + 1}\n" for j in bits(row >> (i + 1) << (i + 1)))


def build_graph(rays) -> OrthoGraph:
    rays = list(rays)
    if not rays:
        raise ValueError("cannot build a graph from an empty ray set")
    return OrthoGraph(rays)


def complete_bases(g: OrthoGraph) -> list[tuple[int, int, int]]:
    """All triangles (i, j, k), i < j < k, of the graph, in index order."""
    adj = g.adj
    return [(i, j, k) for i, j in edge_list(adj)
            for k in bits(adj[i] & adj[j] >> (j + 1) << (j + 1))]


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
    the first optimum reached in that order.  The depth-first search keeps
    an explicit stack, so the number of cliques is not bounded by the
    recursion limit.
    """
    n = len(adj)
    classes = greedy_clique_cover(adj)
    k = len(classes)
    best_size = best = 0
    # (class index, allowed vertices, size, chosen vertices as a bitmask);
    # children are pushed in reverse, so they are visited in branching order
    stack = [(0, (1 << n) - 1, 0, 0)]
    while stack:
        ci, allowed, size, chosen = stack.pop()
        rem = 0
        for j in range(ci, k):
            if classes[j] & allowed:
                rem += 1
        if size + rem <= best_size:
            continue
        if ci == k:
            best_size, best = size, chosen
            continue
        stack.append((ci + 1, allowed & ~classes[ci], size, chosen))
        stack += reversed([(ci + 1, allowed & ~adj[v] & ~(1 << v), size + 1, chosen | 1 << v)
                           for v in bits(classes[ci] & allowed)])
    return best_size, tuple(bits(best))


# -- automorphism group --------------------------------------------------------

# Every element is stored, so a set file of n pairwise non-orthogonal rays
# (the symmetric group, n! elements) must not run the enumeration unbounded.
MAX_AUTOMORPHISMS = 10_000


class AutGroupReport(namedtuple("AutGroupReport", "elements orbits")):
    """`elements` holds every automorphism, sorted; `orbits` the vertex orbits."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)


def _most_constrained(cand: list[int], unmapped: list[int]) -> int:
    """The unmapped vertex with the fewest candidate images, lowest index on ties."""
    return min(unmapped, key=lambda u: (cand[u].bit_count(), u))


def _refine(adj, cand: list[int], rest: list[int], v: int, t: int) -> list[int] | None:
    """Candidate images after mapping v to t, forward-checked; None on a wipe-out."""
    new_cand = list(cand)
    on, off = adj[t], ~adj[t] & ~(1 << t)
    row = adj[v]
    for u in rest:
        new_cand[u] &= on if row >> u & 1 else off
        if not new_cand[u]:
            return None
    return new_cand


def _first_leaf(adj, cand: list[int], unmapped: list[int], image: list[int]):
    """The first automorphism below a backtrack node, lowest images first, or None.

    Depth first over an explicit stack of (v, candidates, rest, images of v
    not yet tried), so the depth is not bounded by the recursion limit.
    """
    stack = []
    while unmapped:
        v = _most_constrained(cand, unmapped)
        unmapped = [u for u in unmapped if u != v]
        stack.append((v, cand, unmapped, bits(cand[v])))
        cand = None
        while cand is None:  # the next viable child of the deepest node
            if not stack:
                return None
            v, parent, unmapped, images = stack[-1]
            t = next(images, None)
            if t is None:
                stack.pop()
            else:
                image[v] = t
                cand = _refine(adj, parent, unmapped, v, t)
    return tuple(image)


def enumerate_automorphisms(adj) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, in sorted order.

    A stabilizer chain over one forward-checked backtrack: each vertex
    starts from the vertices of its degree, the most-constrained vertex is
    mapped first, and each choice is checked against the rest.  Following
    the identity down that backtrack gives the base points b_0, b_1, ...
    Level i is the subgroup fixing b_0 .. b_{i-1}; levels are handled
    deepest first.  For each candidate image t of b_i not yet in b_i's
    orbit under the generators found so far, the first leaf of the
    backtrack below b_i -> t (if any) is a new generator, and the orbit is
    grown by applying every generator, keeping one coset representative
    per orbit point.  The group is every product of one representative
    per level.  The order (the product of the orbit sizes) is checked
    before any element is built: above MAX_AUTOMORPHISMS raises ValueError.
    """
    n = len(adj)
    degrees = [m.bit_count() for m in adj]
    cand = [sum(1 << u for u, du in enumerate(degrees) if du == d) for d in degrees]
    unmapped = list(range(n))
    levels = []  # (b_i, candidate images before b_i is mapped, the rest), along the identity
    while unmapped:
        v = _most_constrained(cand, unmapped)
        rest = [u for u in unmapped if u != v]
        levels.append((v, cand, rest))
        cand, unmapped = _refine(adj, cand, rest, v, v), rest
    identity = tuple(range(n))
    generators: list[tuple[int, ...]] = []
    order = 1
    transversals = []  # coset representatives of each nontrivial level, deepest first
    for v, level_cand, rest in reversed(levels):
        reps = {v: identity}
        orbit = [v]
        for t in bits(level_cand[v] & ~(1 << v)):
            if t in reps:
                continue
            new_cand = _refine(adj, level_cand, rest, v, t)
            if new_cand is None:
                continue
            image = list(identity)
            image[v] = t
            leaf = _first_leaf(adj, new_cand, rest, image)
            if leaf is None:
                continue
            generators.append(leaf)
            for x in orbit:  # grows while it is scanned
                for g in generators:
                    y = g[x]
                    if y not in reps:
                        if (len(orbit) + 1) * order > MAX_AUTOMORPHISMS:
                            raise ValueError(
                                f"automorphism group has more than {MAX_AUTOMORPHISMS} elements")
                        reps[y] = tuple(map(g.__getitem__, reps[x]))
                        orbit.append(y)
        if len(orbit) > 1:
            order *= len(orbit)
            transversals.append(list(reps.values()))
    elements = [identity]
    for reps in transversals:  # g = r_0 r_1 ... r_k, the deepest level applied first
        elements = [tuple(map(r.__getitem__, e)) for r in reps for e in elements]
    return sorted(elements)


def automorphisms(g: OrthoGraph) -> AutGroupReport:
    """Exact automorphism group: every element and the vertex orbits.

    The orbit of v is {p[v] for p in elements}, which is the whole orbit
    because `elements` is the whole group.
    """
    elements = tuple(enumerate_automorphisms(g.adj))
    orbits = {tuple(sorted({p[v] for p in elements})) for v in range(g.n)}
    return AutGroupReport(elements=elements, orbits=tuple(sorted(orbits)))


def symmetry_report(inst) -> tuple[dict, list[str], list]:
    """The `symmetry` pipeline on a KSInstance: the group order and each vertex orbit."""
    report = inst.graph.group
    sizes = sorted(len(o) for o in report.orbits)
    lines = inst.note_lines() + [
        f"{inst.name}: automorphism group order {report.order}",
        f"vertex orbits: {len(report.orbits)} with sizes {sizes}"]
    for oi, orbit in enumerate(report.orbits):
        members = ", ".join(str(inst.graph.vertices[v]) for v in orbit)
        lines.append(f"orbit {oi} (size {len(orbit)}): {members}")
    return {inst.name: {"aut_order": report.order, "orbit_sizes": sizes,
                        "orbit_count": len(report.orbits)}}, lines, []
