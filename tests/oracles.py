"""Independent brute-force oracles.

These deliberately avoid the algorithms used by the package (clique-cover
branch and bound, basis-branching propagation search, exclusivity-graph
independence, the symmetry-reduced split search, the automorphism
backtracking): a memoized include/exclude recursion for independent sets,
raw power-set scans for colorings, a plain DPLL that sees nothing but CNF
clauses, a plain Alice-strategy scan for refutable basis splits, and a
permutation scan, a product closure and a union-find for automorphism
groups.
"""

from __future__ import annotations

from itertools import combinations, permutations, product


def alpha_exhaustive(adj: list[int]) -> int:
    """Maximum independent set size by include/exclude recursion with memo."""
    n = len(adj)
    memo: dict[int, int] = {0: 0}

    def rec(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        without = rec(mask & ~(1 << v))
        with_v = 1 + rec(mask & ~adj[v] & ~(1 << v))
        memo[mask] = best = max(without, with_v)
        return best

    return rec((1 << n) - 1)


def alpha_powerset(adj: list[int]) -> int:
    """Ground-truth scan of every vertex subset (tiny graphs only)."""
    n = len(adj)
    best = 0
    for bits in range(1 << n):
        ok = True
        m = bits
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if adj[v] & bits:
                ok = False
                break
        if ok:
            best = max(best, bits.bit_count())
    return best


def random_graph(n: int, p: float, seed: int) -> list[int]:
    import random

    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def ks_assignments_powerset(inst) -> list[int]:
    """All valid assignments of an instance as bitmasks (<= ~15 rays)."""
    g = inst.graph
    n = g.n
    edges = g.edges()
    out = []
    for bits in range(1 << n):
        ok = all(not (bits >> i & 1 and bits >> j & 1) for i, j in edges)
        if ok:
            for triple in inst.basis_indices:
                if sum(bits >> v & 1 for v in triple) != 1:
                    ok = False
                    break
        if ok:
            out.append(bits)
    return out


def count_orthogonal_pairs(rays) -> int:
    from ksverify.rays import is_orthogonal

    rays = list(rays)
    return sum(
        1
        for i, j in combinations(range(len(rays)), 2)
        if is_orthogonal(rays[i], rays[j])
    )


def triangles_direct(rays) -> int:
    from ksverify.rays import is_orthogonal

    rays = list(rays)
    count = 0
    for i, j, k in combinations(range(len(rays)), 3):
        if (
            is_orthogonal(rays[i], rays[j])
            and is_orthogonal(rays[i], rays[k])
            and is_orthogonal(rays[j], rays[k])
        ):
            count += 1
    return count


def parse_dimacs_edges(text: str) -> list[int]:
    """Adjacency bitmasks from a DIMACS-like edge list ('p edge V E', 'e i j')."""
    adj: list[int] = []
    declared_edges = None
    seen = 0
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"bad DIMACS header: {raw!r}")
            adj = [0] * int(parts[2])
            declared_edges = int(parts[3])
        elif parts[0] == "e":
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            seen += 1
    if declared_edges is not None and seen != declared_edges:
        raise ValueError(f"edge count mismatch: header {declared_edges}, found {seen}")
    return adj


# -- permutation groups -------------------------------------------------------------


def automorphisms_bruteforce(adj: list[int]) -> list[tuple[int, ...]]:
    """Every vertex permutation mapping edges onto edges, in sorted order."""
    n = len(adj)
    edges = [(i, j) for i in range(n) for j in range(n) if adj[i] >> j & 1]
    return [
        p for p in permutations(range(n))
        if all(adj[p[i]] >> p[j] & 1 for i, j in edges)
    ]


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[x] for x in q)


def close_under_products(
    gens, n: int
) -> set[tuple[int, ...]]:
    """The permutation group generated by `gens`, as an explicit element set."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(g, p)
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


def orbits_of_group(elements, n: int) -> tuple[tuple[int, ...], ...]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in elements:
        for v in range(n):
            a, b = find(v), find(p[v])
            if a != b:
                parent[a] = b
    buckets: dict[int, list[int]] = {}
    for v in range(n):
        buckets.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(b)) for b in sorted(buckets.values()))


# -- plain DPLL over DIMACS CNF --------------------------------------------------


def parse_dimacs_cnf(text: str) -> tuple[int, list[list[int]]]:
    nvars = 0
    clauses: list[list[int]] = []
    for raw in text.splitlines():
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("p"):
            parts = s.split()
            assert parts[1] == "cnf"
            nvars = int(parts[2])
            continue
        lits = [int(tok) for tok in s.split() if tok != "0"]
        if lits:
            clauses.append(lits)
    return nvars, clauses


def dpll_satisfiable(nvars: int, clauses: list[list[int]]) -> bool:
    """Textbook DPLL: unit propagation plus first-unassigned branching."""

    def simplify(cls: list[list[int]], lit: int) -> list[list[int]] | None:
        out = []
        for clause in cls:
            if lit in clause:
                continue
            reduced = [l for l in clause if l != -lit]
            if not reduced:
                return None
            out.append(reduced)
        return out

    def solve(cls: list[list[int]]) -> bool:
        while True:
            units = [c[0] for c in cls if len(c) == 1]
            if not units:
                break
            cls2 = cls
            for u in units:
                cls2 = simplify(cls2, u)
                if cls2 is None:
                    return False
            cls = cls2
        if not cls:
            return True
        lit = cls[0][0]
        for choice in (lit, -lit):
            reduced = simplify(cls, choice)
            if reduced is not None and solve(reduced):
                return True
        return False

    return solve(clauses)


def best_strategy_pairs(game) -> int:
    """Max winning contexts over every deterministic strategy pair."""
    from ksverify.game import Strategy, play_out

    best = 0
    for alice in product(range(3), repeat=len(game.alice_bases)):
        for bob in product(range(3), repeat=len(game.bob_bases)):
            best = max(best, play_out(game, Strategy(alice, bob)))
    return best


def pair_is_refutable(inst, x_indices, y_indices) -> bool:
    """True iff no deterministic strategy pair wins every context (x, y).

    Two output rays win unless they are distinct and orthogonal, read
    straight from the graph's adjacency bitmasks.  Every Alice strategy
    is scanned; Bob's best reply is taken per input, since his output
    depends on his basis only.
    """
    adj = inst.graph.adj
    xs = [inst.basis_indices[i] for i in x_indices]
    ys = [inst.basis_indices[j] for j in y_indices]

    def win(u: int, v: int) -> bool:
        return u == v or not adj[u] >> v & 1

    for alice in product(range(3), repeat=len(xs)):
        outs = [triple[a] for triple, a in zip(xs, alice)]
        if all(any(all(win(u, v) for u in outs) for v in ty) for ty in ys):
            return False
    return True
