"""Independent brute-force oracles.

These deliberately avoid the algorithms used by the package (clique-cover
branch and bound, basis-branching propagation search, exclusivity-graph
independence, the symmetry-reduced split search, the stabilizer-chain
automorphism search): a memoized include/exclude recursion for independent
sets, raw power-set scans for colorings, a plain DPLL that sees nothing but
CNF clauses, plain Alice-strategy scans for refutable basis splits and their
unanswerable Bob bases, a sort-every-image rule for orbit minima, a
permutation scan, the full automorphism backtrack (every leaf, no
stabilizer chain), a product closure and a union-find for automorphism
groups, monomial maps applied to the rays themselves for a group found
from the graph, two non-monomial matrices applied to the shipped rays for
verdicts that must not change, and per-coefficient Fraction arithmetic
with per-call Gaussian elimination for cyclotomic numbers and for the
inner products of an orthogonality graph, over its own Phi_n (long
division of x^n - 1) and phi(n) (a count of the units mod n); that graph's
edges and triangles give the oracle's pair and basis counts and KS CNF.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import or_


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
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if g.adj[i] >> j & 1]
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


def scale_ray(r, s):
    """The ray `r` rebuilt from its components times the scalar `s`."""
    from ksverify.rays import Ray

    return Ray(s * c for c in r.components)


def basis_rays(inst) -> list[tuple]:
    """Each complete basis of `inst` as its triple of rays."""
    vertices = inst.graph.vertices
    return [tuple(vertices[v] for v in triple) for triple in inst.basis_indices]


def oracle_triangles(adj: list[int]) -> list[tuple[int, int, int]]:
    """Every triple of pairwise adjacent vertices, in lexicographic order."""
    return [(i, j, k) for i, j, k in combinations(range(len(adj)), 3)
            if adj[i] >> j & 1 and adj[i] >> k & 1 and adj[j] >> k & 1]


def count_orthogonal_pairs(rays) -> int:
    """The edges of `fraction_adjacency(rays)`."""
    return sum(row.bit_count() for row in fraction_adjacency(rays)) // 2


def triangles_direct(rays) -> int:
    """The triangles of `fraction_adjacency(rays)`: the complete bases."""
    return len(oracle_triangles(fraction_adjacency(rays)))


def ks_cnf(rays) -> tuple[int, list[list[int]]]:
    """The KS constraints on `rays` as (variables, clauses), variable i + 1
    true iff ray i gets 1: a negative pair per edge and a positive triple
    per triangle of `fraction_adjacency(rays)`."""
    adj = fraction_adjacency(rays)
    n = len(adj)
    pairs = [[-i - 1, -j - 1] for i, j in combinations(range(n), 2) if adj[i] >> j & 1]
    return n, pairs + [[i + 1, j + 1, k + 1] for i, j, k in oracle_triangles(adj)]


def ks_close_four_rules(adj, bases, ones: int, zeros: int) -> tuple[int, int] | None:
    """Unit propagation of a KS assignment by four rules, or None on a conflict.

    A 1 puts its row into zeros; a basis with one 1 puts its other members
    into zeros; a basis with one member outside zeros puts it into ones;
    two 1s in a basis, a basis of 0s or a ray in both masks is a conflict.
    """
    while True:
        before = ones, zeros
        for v in range(len(adj)):
            if ones >> v & 1:
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


def automorphisms_backtrack(adj: list[int], cap: int = 10_000) -> list[tuple[int, ...]]:
    """Every automorphism as a leaf of the full forward-checked backtrack, sorted.

    The search `orthograph.enumerate_automorphisms` used before its
    stabilizer chain: the same degree classes and most-constrained vertex
    rule, but every leaf is visited.  More than `cap` leaves raises the
    same ValueError as the package.
    """
    n = len(adj)
    degrees = [m.bit_count() for m in adj]
    base_cand = [sum(1 << u for u, du in enumerate(degrees) if du == d) for d in degrees]
    found: list[tuple[int, ...]] = []
    image = [-1] * n

    def dfs(cand: list[int], unmapped: list[int]) -> None:
        if not unmapped:
            if len(found) == cap:
                raise ValueError(f"automorphism group has more than {cap} elements")
            found.append(tuple(image))
            return
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


def monomial_symmetries(inst, phases) -> list[tuple[tuple[int, ...], bool]]:
    """(vertex permutation, unitary) for each monomial map fixing the ray set.

    The maps are v -> D P v and v -> D P conj(v), with P a coordinate
    permutation and D = diag(1, d1, d2) for d1, d2 in `phases`; conj makes
    the map antiunitary.  Each image is rebuilt as a Ray and looked up among
    the vertices, so the graph's adjacency is never read.
    """
    from ksverify.cyclotomic import Cyc
    from ksverify.rays import Ray

    vertices = inst.graph.vertices
    index = {r: i for i, r in enumerate(vertices)}
    out = []
    for perm, (d1, d2), conjugate in product(
            permutations(range(3)), product(phases, repeat=2), (False, True)):
        diagonal = (Cyc.one(), d1, d2)
        image = []
        for r in vertices:
            v = [c.conj() for c in r.components] if conjugate else r.components
            w = Ray(tuple(d * v[j] for d, j in zip(diagonal, perm)))
            if w not in index:
                break
            image.append(index[w])
        else:
            out.append((tuple(image), not conjugate))
    return out


def canonical_subsets_reference(group, nb: int, size: int) -> list[tuple[int, ...]]:
    """Size-subsets of range(nb) that are the least sorted image of themselves."""
    out = []
    for comb in combinations(range(nb), size):
        smallest = min(tuple(sorted(p[i] for i in comb)) for p in group)
        if smallest == comb:
            out.append(comb)
    return out


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


def bad_sets_bruteforce(inst, x_indices) -> set[frozenset[int]] | None:
    """The Bob-basis index sets that some Alice strategy on X leaves unanswerable.

    A Bob basis is answerable when one of its rays wins against every
    Alice output, read from the graph's adjacency bitmasks.  None when
    some strategy answers every basis.
    """
    adj = inst.graph.adj
    xs = [inst.basis_indices[i] for i in x_indices]
    out = set()
    for alice in product(range(3), repeat=len(xs)):
        outs = [triple[a] for triple, a in zip(xs, alice)]
        bad = frozenset(
            j for j, ty in enumerate(inst.basis_indices)
            if not any(all(u == v or not adj[u] >> v & 1 for u in outs) for v in ty)
        )
        if not bad:
            return None
        out.add(bad)
    return out


def minimal_split_unreduced(rays) -> tuple[int | None, list[tuple[int, ...]]]:
    """The least |X|*|Y| of a refutable basis split with |X| <= |Y|, and every
    X that reaches it, with no group, graph or search of the package.

    The bases are the triangles of `fraction_adjacency(rays)`.  Every X
    with |X|^2 up to the best product so far is tried: Alice's strategies
    on it are scanned with `itertools.product` until a perfect one, which
    leaves every basis a ray that no output is orthogonal to.  Otherwise
    each strategy's bad set (bit j for basis j) is collected, and Y is
    every combination of |X| or more bases, smallest first and up to the
    best product, until one meets every bad set.
    """
    adj = fraction_adjacency(rays)
    bases = oracle_triangles(adj)
    masks = [sum(1 << v for v in basis) for basis in bases]
    nb = len(bases)
    best, sides = None, []
    for a in range(1, nb + 1):
        if best is not None and a * a > best:
            break
        for X in combinations(range(nb), a):
            losts = []  # per strategy, the rays orthogonal to some output
            for rows in product(*([adj[v] for v in bases[x]] for x in X)):
                lost = reduce(or_, rows)
                if all(mask & ~lost for mask in masks):
                    break
                losts.append(lost)
            else:
                bads = {sum(1 << j for j, mask in enumerate(masks) if not mask & ~lost)
                        for lost in losts}
                for b in range(a, nb + 1 if best is None else best // a + 1):
                    if any(all(bad & sum(1 << j for j in Y) for bad in bads)
                           for Y in combinations(range(nb), b)):
                        if a * b != best:
                            best, sides = a * b, []
                        sides.append(X)
                        break
    return best, sides


# -- per-coefficient Fraction arithmetic in Q(zeta_n) ------------------------------
#
# A value is a tuple of phi(n) Fractions on the power basis 1, zeta_n, ...
# phi(n) counts the units mod n and Phi_n comes from long division of
# x^n - 1, neither from the package.  Products are schoolbook, reduction
# folds each power past phi(n) by a Fraction power table, and subfield
# coordinates and inverses come from Gaussian elimination over Fractions on
# every call.


@cache
def _fraction_phi(n: int) -> int:
    """phi(n) as the count of units mod n."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@cache
def cyclotomic_polynomial_by_division(n: int) -> tuple[int, ...]:
    """Phi_n as the exact quotient of x^n - 1 by every Phi_d, d | n, d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if not n % d:
            den = cyclotomic_polynomial_by_division(d)
            q = [0] * (len(poly) - len(den) + 1)
            for i in range(len(q) - 1, -1, -1):  # den is monic
                q[i] = poly[i + len(den) - 1]
                for j, c in enumerate(den):
                    poly[i + j] -= q[i] * c
            assert not any(poly), f"Phi_{d} does not divide"
            poly = q
    return tuple(poly)


@cache
def fraction_power_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta_n^j reduced modulo Phi_n as phi(n) Fractions, j = 0 .. n - 1."""
    phi = _fraction_phi(n)
    top = [Fraction(-c) for c in cyclotomic_polynomial_by_division(n)[:phi]]
    table = []
    current = [Fraction(1)] + [Fraction(0)] * (phi - 1)
    for _ in range(n):
        table.append(tuple(current))
        lead = current[phi - 1]
        shifted = [Fraction(0)] + current[: phi - 1]
        current = [shifted[i] + lead * top[i] for i in range(phi)]
    return tuple(table)


def fraction_reduce(n: int, coeffs) -> tuple[Fraction, ...]:
    """Reduce Fraction coefficients on powers of zeta_n modulo Phi_n."""
    phi = _fraction_phi(n)
    table = fraction_power_table(n)
    out = [Fraction(c) for c in coeffs[:phi]] + [Fraction(0)] * max(0, phi - len(coeffs))
    for j in range(phi, len(coeffs)):
        if coeffs[j]:
            row = table[j % n]
            for i in range(phi):
                out[i] += coeffs[j] * row[i]
    return tuple(out)


def fraction_embed(n: int, m: int, coeffs) -> tuple[Fraction, ...]:
    """Conductor-n coefficients re-expressed at a multiple m of n."""
    out = [Fraction(0)] * m
    for j, c in enumerate(coeffs):
        out[j * (m // n)] = c
    return fraction_reduce(m, out)


def fraction_conj(n: int, coeffs) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * n
    for j, c in enumerate(coeffs):
        out[-j % n] = c
    return fraction_reduce(n, out)


def fraction_product(n: int, a, b) -> tuple[Fraction, ...]:
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return fraction_reduce(n, prod)


def fraction_solve(cols, target) -> tuple[Fraction, ...] | None:
    """The x with sum(x[j] * cols[j]) == target, if any (cols independent)."""
    rows, k = len(target), len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(rows)]
    piv_cols: list[int] = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    if any(aug[i][k] for i in range(r, rows)):
        return None  # inconsistent: target is outside the column span
    sol = [Fraction(0)] * k
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][k]
    return tuple(sol)


def fraction_inverse(n: int, a) -> tuple[Fraction, ...]:
    """The x with a * x == 1, solved over the columns a * zeta^j."""
    phi = _fraction_phi(n)
    units = [tuple(Fraction(int(i == j)) for i in range(phi)) for j in range(phi)]
    sol = fraction_solve([fraction_product(n, a, u) for u in units], units[0])
    assert sol is not None, "zero has no inverse"
    return sol


def fraction_minimal_form(n: int, coeffs) -> tuple[int, tuple[Fraction, ...]]:
    """(d, coordinates) at the least d | n, d != 2 mod 4, whose field holds the value."""
    table = fraction_power_table(n)
    for d in range(1, n):
        if n % d or d % 4 == 2:
            continue
        cols = [table[(n // d) * j] for j in range(_fraction_phi(d))]
        sol = fraction_solve(cols, coeffs)
        if sol is not None:
            return d, sol
    return n, tuple(coeffs)


def fraction_unit_form(n: int, coeffs) -> tuple[int, int, Fraction] | None:
    """(d, k, r) with the value r * zeta_d^k, d its minimal conductor, if any.

    Tries k = 1 .. d - 1 in turn, as the display code once did: the value
    is r * zeta_d^k iff its product with zeta_d^(d - k) is the rational r.
    """
    d, c = fraction_minimal_form(n, coeffs)
    if d == 1:
        return 1, 0, c[0]
    table = fraction_power_table(d)
    for k in range(1, d):
        e, p = fraction_minimal_form(d, fraction_product(d, c, table[d - k]))
        if e == 1:
            return d, k, p[0]
    return None


def fraction_coordinates(value) -> tuple[Fraction, ...]:
    """A Cyc's stored power-basis coordinates at its own conductor, as Fractions."""
    return tuple(Fraction(x, value.den) for x in value.num)


def fraction_adjacency(rays) -> list[int]:
    """Adjacency bitmasks of the orthogonality graph on `rays`, in their
    order: an edge where <u|v> = sum conj(u_j) * v_j, taken in Fractions at
    the lcm conductor, has every coordinate 0."""
    rays = list(rays)
    m = lcm(*(c.n for r in rays for c in r.components))
    vectors = [[fraction_embed(c.n, m, fraction_coordinates(c)) for c in r.components]
               for r in rays]
    conjugates = [[fraction_conj(m, x) for x in v] for v in vectors]
    adj = [0] * len(rays)
    for i, j in combinations(range(len(rays)), 2):
        terms = [fraction_product(m, a, b) for a, b in zip(conjugates[i], vectors[j])]
        if not any(map(sum, zip(*terms))):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


@cache
def _cached_minimal_form(n: int, coeffs: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
    return fraction_minimal_form(n, coeffs)


def canonical_rule_holds(ray) -> bool:
    """Whether `ray.canonical` is what dividing the source components by the
    first nonzero one and clearing the integer content gives: a
    positive-integer lead, integer minimal-form coefficients with gcd 1, and
    every 2x2 minor against `ray.components` zero (so the two triples are
    proportional).  Fraction arithmetic at the lcm conductor throughout."""
    canon, source = ray.canonical, ray.components
    m = lcm(*(c.n for c in canon + source))
    a = [fraction_embed(c.n, m, fraction_coordinates(c)) for c in canon]
    b = [fraction_embed(c.n, m, fraction_coordinates(c)) for c in source]
    lead = next((x for x in a if any(x)), None)
    if lead is None or any(lead[1:]) or lead[0].denominator != 1 or lead[0] <= 0:
        return False
    coeffs = [x for c in canon for x in _cached_minimal_form(c.n, fraction_coordinates(c))[1]]
    if any(x.denominator != 1 for x in coeffs) or gcd(*(x.numerator for x in coeffs)) != 1:
        return False
    return all(fraction_product(m, a[i], b[j]) == fraction_product(m, a[j], b[i])
               for i, j in combinations(range(3), 2))


# -- non-monomial images of the shipped sets -------------------------------------
#
# Every ray of new33, and of its monomial set-file copies, has canonical lead
# 1.  Two matrices that preserve orthogonality but not that lead: the Fourier
# matrix [w^(jk)], unitary up to sqrt(3) and a Clifford element (Appleby,
# J. Math. Phys. 46, 052107 (2005)), and [[1,2,2],[2,1,-2],[2,-2,1]],
# orthogonal up to 3.  Each image is followed by seeded monomial phases.

IMAGE_SOURCES = ("new33", "peres33", "conway31")
IMAGE_MATRICES = ("fourier", "rational")
IMAGE_CONDUCTORS = (3, 8, 24)


@cache
def non_monomial_image(name: str, matrix: str, n: int) -> tuple:
    """The rays M v of shipped set `name`, coordinate i then times +-zeta_n^p_i,
    the signs and powers drawn from a generator seeded by the arguments."""
    import random

    from ksverify.catalog import builtin
    from ksverify.cyclotomic import Cyc
    from ksverify.rays import Ray

    rows = {
        "fourier": [[Cyc.root_of_unity(3, j * k) for k in range(3)] for j in range(3)],
        "rational": [[1, 2, 2], [2, 1, -2], [2, -2, 1]],
    }[matrix]
    rng = random.Random(f"{name} {matrix} {n}")
    phases = [rng.choice((1, -1)) * Cyc.root_of_unity(n, rng.randrange(n)) for _ in range(3)]
    return tuple(
        Ray(tuple(p * sum(x * v for x, v in zip(row, r.canonical))
                  for p, row in zip(phases, rows)))
        for r in builtin(name).graph.vertices)
