"""Bipartite basis games: exact classical and quantum values.

Alice receives a basis x from her list, Bob a basis y from his, inputs
uniformly distributed; each outputs one ray of their basis and they win
iff the two output rays are not orthogonal.  The classical value is the
independence number of the winning-event exclusivity graph divided by the
number of contexts; the quantum value uses the maximally entangled pair
of qutrits with Bob measuring the componentwise-conjugated basis, which
makes every event probability proportional to |<a|b>|^2 and therefore
exactly zero on losing events.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from .colorability import KSInstance
from .cyclotomic import Cyc
from .orthograph import automorphisms, dimacs_edges, max_independent_set
from .rays import Basis, Ray, inner, is_orthogonal


@dataclass(frozen=True)
class Context:
    """One (x, y) basis pair with its exact win/lose pattern."""

    x: int
    y: int
    shared_pairs: tuple[tuple[int, int], ...]  # (a, b) with equal rays
    orthogonal_pairs: tuple[tuple[int, int], ...]  # (a, b) with orthogonal rays
    win_mask: int  # bit 3*a+b set iff outputs (a, b) win

    @property
    def kind(self) -> str:
        if self.shared_pairs:
            return "shared-vector"
        if self.orthogonal_pairs:
            return "orthogonal-pair"
        return "free"

    def wins(self) -> int:
        return self.win_mask.bit_count()


@dataclass(frozen=True, slots=True)
class Game:
    alice_bases: tuple[Basis, ...]
    bob_bases: tuple[Basis, ...]
    contexts: tuple[Context, ...]

    def n_contexts(self) -> int:
        return len(self.contexts)

    def context(self, x: int, y: int) -> Context:
        return self.contexts[x * len(self.bob_bases) + y]

    def total_winning_events(self) -> int:
        return sum(c.wins() for c in self.contexts)


def build_game(alice_bases, bob_bases) -> Game:
    """Classify every context and tag each of its 9 events win/lose."""
    alice_bases = tuple(b if isinstance(b, Basis) else Basis(b) for b in alice_bases)
    bob_bases = tuple(b if isinstance(b, Basis) else Basis(b) for b in bob_bases)
    contexts = []
    for x, bx in enumerate(alice_bases):
        for y, by in enumerate(bob_bases):
            shared = []
            orth = []
            win = 0
            for a, ra in enumerate(bx):
                for b, rb in enumerate(by):
                    if ra == rb:
                        shared.append((a, b))
                    if is_orthogonal(ra, rb):
                        orth.append((a, b))
                    else:
                        win |= 1 << (3 * a + b)
            contexts.append(Context(x, y, tuple(shared), tuple(orth), win))
    return Game(alice_bases, bob_bases, tuple(contexts))


def default_split(inst: KSInstance) -> tuple[list[int], list[int]]:
    """Alice = bases inside one orbit or fully non-computational; see below.

    Bases are classified by the automorphism orbit sizes of their rays:
    a basis whose rays all lie in one orbit goes to Alice (the unique
    all-type-I basis and the bases inside the middle orbit), the rest
    (one type-I ray plus two large-orbit rays) go to Bob.
    """
    orbits = automorphisms(inst.graph).orbits
    orbit_of = {v: oi for oi, orbit in enumerate(orbits) for v in orbit}
    alice, bob = [], []
    for bi, triple in enumerate(inst.basis_indices):
        orbit_ids = {orbit_of[v] for v in triple}
        (alice if len(orbit_ids) == 1 else bob).append(bi)
    return alice, bob


# -- exclusivity graph and classical value -------------------------------------


def winning_events(g: Game) -> list[tuple[int, int, int, int]]:
    """(x, y, a, b) for every winning event, in deterministic order."""
    out = []
    for c in g.contexts:
        for a in range(3):
            for b in range(3):
                if c.win_mask >> (3 * a + b) & 1:
                    out.append((c.x, c.y, a, b))
    return out


def exclusivity_adjacency(events) -> list[int]:
    """Two events conflict iff they share a party's input with different output."""
    n = len(events)
    x_mask: dict[int, int] = {}
    xa_mask: dict[tuple[int, int], int] = {}
    y_mask: dict[int, int] = {}
    yb_mask: dict[tuple[int, int], int] = {}
    for i, (x, y, a, b) in enumerate(events):
        bit = 1 << i
        x_mask[x] = x_mask.get(x, 0) | bit
        xa_mask[(x, a)] = xa_mask.get((x, a), 0) | bit
        y_mask[y] = y_mask.get(y, 0) | bit
        yb_mask[(y, b)] = yb_mask.get((y, b), 0) | bit
    adj = []
    for i, (x, y, a, b) in enumerate(events):
        conflict = (x_mask[x] & ~xa_mask[(x, a)]) | (y_mask[y] & ~yb_mask[(y, b)])
        adj.append(conflict & ~(1 << i))
    return adj


@dataclass(frozen=True)
class Strategy:
    """Deterministic strategy: one output per input, for each party."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]


@dataclass(frozen=True)
class GameValue:
    classical: Fraction
    witness: Strategy | None


def play_out(g: Game, s: Strategy) -> int:
    """Number of contexts won by a deterministic strategy."""
    won = 0
    for c in g.contexts:
        if c.win_mask >> (3 * s.alice[c.x] + s.bob[c.y]) & 1:
            won += 1
    return won


def classical_value(g: Game) -> GameValue:
    """alpha(exclusivity graph) / #contexts, with a strategy witness.

    The witness strategy is reconstructed from the independent-set
    certificate and rechecked by direct play-out.
    """
    events = winning_events(g)
    adj = exclusivity_adjacency(events)
    alpha, witness_idx = max_independent_set(adj)
    alice = [0] * len(g.alice_bases)
    bob = [0] * len(g.bob_bases)
    for i in witness_idx:
        x, y, a, b = events[i]
        alice[x] = a
        bob[y] = b
    strategy = Strategy(tuple(alice), tuple(bob))
    achieved = play_out(g, strategy)
    if achieved != alpha:
        raise AssertionError(
            f"witness strategy wins {achieved} contexts, expected {alpha}")
    return GameValue(Fraction(alpha, g.n_contexts()), strategy)


def classical_value_twolevel(g: Game) -> Fraction:
    """Max over Alice strategies; Bob's best reply decomposes per input y."""
    ny = len(g.bob_bases)
    best = 0
    for alice in itertools.product(range(3), repeat=len(g.alice_bases)):
        total = 0
        for y in range(ny):
            best_y = 0
            for b in range(3):
                won = 0
                for x in range(len(g.alice_bases)):
                    c = g.context(x, y)
                    if c.win_mask >> (3 * alice[x] + b) & 1:
                        won += 1
                best_y = max(best_y, won)
            total += best_y
        best = max(best, total)
    return Fraction(best, g.n_contexts())


# -- quantum value ---------------------------------------------------------------


def event_probability(ra: Ray, rb: Ray) -> Cyc:
    """P(a,b|x,y) = |<a|b>|^2 / (3 |a|^2 |b|^2) on the maximally entangled state.

    Bob's physical measurement uses the componentwise-conjugated basis, so
    the amplitude is proportional to the Hermitian inner product <a|b>.
    """
    amp = inner(ra, rb)
    na = inner(ra, ra)
    nb = inner(rb, rb)
    return (amp * amp.conj()) / (na * nb * 3)


def quantum_value_maxent(g: Game):
    """Winning probability under the conjugate-basis perfect-strategy convention.

    Returns an exact Fraction whenever the value is rational (always the
    case for conductor-3 sets), otherwise the exact cyclotomic number.
    """
    total = Cyc.zero()
    for c in g.contexts:
        context_total = Cyc.zero()
        win_total = Cyc.zero()
        for a in range(3):
            for b in range(3):
                p = event_probability(g.alice_bases[c.x][a], g.bob_bases[c.y][b])
                context_total = context_total + p
                if c.win_mask >> (3 * a + b) & 1:
                    win_total = win_total + p
        if not (context_total - 1).is_zero():
            raise AssertionError(
                f"context ({c.x},{c.y}) probabilities sum to {context_total}, not 1")
        total = total + win_total
    value = total / (len(g.alice_bases) * len(g.bob_bases))
    return value.as_fraction() if value.is_rational() else value


# -- DIMACS export -----------------------------------------------------------------


def export_exclusivity_graph(g: Game, path: str, legend_path: str | None = None) -> None:
    """Edge-list export of the winning-event exclusivity graph plus a legend."""
    events = winning_events(g)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dimacs_edges(exclusivity_adjacency(events)))
    if legend_path:
        legend = ["index x y a b"]
        legend += [
            f"{i + 1} {x} {y} {a} {b}" for i, (x, y, a, b) in enumerate(events)
        ]
        with open(legend_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(legend) + "\n")


# -- minimal input-cardinality search ----------------------------------------------


@dataclass(frozen=True)
class MinimalSplitResult:
    product: int | None
    alice_bases: tuple[int, ...] | None  # indices into inst.bases
    bob_bases: tuple[int, ...] | None
    complete: bool
    candidates_checked: int

    def split(self) -> str:
        if self.product is None:
            return "none"
        return f"{len(self.alice_bases)}-{len(self.bob_bases)}"


def _basis_permutation_group(inst: KSInstance, elements) -> list[tuple[int, ...]]:
    """The basis-list permutations induced by every vertex automorphism."""
    key_to_index = {
        frozenset(triple): i for i, triple in enumerate(inst.basis_indices)
    }
    return sorted({
        tuple(key_to_index[frozenset(p[v] for v in triple)]
              for triple in inst.basis_indices)
        for p in elements
    })


def _win_choice_masks(inst: KSInstance) -> list[list[list[int]]]:
    """W[i][a][j]: bitmask over Bob's choices b winning every event of (i, j)."""
    adj = inst.graph.adj
    nb = len(inst.basis_indices)
    W = [[[0] * nb for _ in range(3)] for _ in range(nb)]
    for i, ti in enumerate(inst.basis_indices):
        for a in range(3):
            va = ti[a]
            for j, tj in enumerate(inst.basis_indices):
                mask = 0
                for b in range(3):
                    vb = tj[b]
                    if va != vb and adj[va] >> vb & 1:
                        continue  # orthogonal distinct rays lose
                    mask |= 1 << b
                W[i][a][j] = mask
    return W


def _bad_sets_for(X: tuple[int, ...], W, nb: int) -> list[int] | None:
    """For each Alice strategy on X, the bitmask of unanswerable Bob bases.

    Returns None as soon as some strategy answers every basis (the pair
    (X, anything) then has a perfect classical strategy).
    """
    bads: set[int] = set()

    def dfs(pos: int, masks: tuple[int, ...]) -> bool:
        if pos == len(X):
            bad = 0
            for j in range(nb):
                if masks[j] == 0:
                    bad |= 1 << j
            if bad == 0:
                return False
            bads.add(bad)
            return True
        rows = W[X[pos]]
        for a in range(3):
            row = rows[a]
            new_masks = tuple(m & row[j] for j, m in enumerate(masks))
            if not dfs(pos + 1, new_masks):
                return False
        return True

    if not dfs(0, tuple([7] * nb)):
        return None
    # keep only inclusion-minimal bad sets
    minimal: list[int] = []
    for b in sorted(bads, key=lambda m: (m.bit_count(), m)):
        if not any(b & m == m for m in minimal):
            minimal.append(b)
    return minimal


def _min_hitting_set_size(sets: list[int], cap: int) -> int | None:
    """Exact minimum hitting set size over bitmask sets, or None if > cap."""
    if not sets:
        return 0

    best: int | None = None

    def dfs(remaining: list[int], size: int) -> None:
        nonlocal best
        bound = (best - 1) if best is not None else cap
        if size > bound:
            return
        if not remaining:
            best = size
            return
        if size == bound:
            return  # any hit would exceed the bound
        target = min(remaining, key=lambda m: (m.bit_count(), m))
        m = target
        while m:
            bit = m & -m
            m ^= bit
            dfs([s for s in remaining if not s & bit], size + 1)

    dfs(sets, 0)
    return best


def minimal_distribution_search(
    inst: KSInstance, budget_seconds: float | None = None
) -> MinimalSplitResult:
    """Smallest |X|*|Y| basis split admitting no perfect classical strategy.

    Searches products in ascending order over subset pairs of the complete
    bases, enumerating only the smaller side up to instance symmetry (the
    win predicate is symmetric in the two parties, so the smaller side can
    always be taken as Alice's).  For fixed X the refutable Y of size b
    exist iff b is at least the minimum hitting set of the per-strategy
    unanswerable-basis sets, which turns the inner scan into a tiny exact
    cover problem.
    """
    nb = len(inst.basis_indices)
    if nb == 0:
        return MinimalSplitResult(None, None, None, True, 0)
    group = _basis_permutation_group(inst, automorphisms(inst.graph).elements)
    W = _win_choice_masks(inst)
    start = time.monotonic()
    checked = 0
    # lazily computed per canonical X: minimal bad sets (None = never refutable)
    bad_cache: dict[tuple[int, ...], list[int] | None] = {}

    def canonical_subsets(size: int) -> list[tuple[int, ...]]:
        out = []
        for comb in itertools.combinations(range(nb), size):
            smallest = min(tuple(sorted(p[i] for i in comb)) for p in group)
            if smallest == comb:
                out.append(comb)
        return out

    canon_by_size: dict[int, list[tuple[int, ...]]] = {}

    for product in range(1, nb * nb + 1):
        for a in range(1, nb + 1):
            if product % a:
                continue
            b = product // a
            if a > b or b > nb:
                continue
            if a not in canon_by_size:
                canon_by_size[a] = canonical_subsets(a)
            for X in canon_by_size[a]:
                if budget_seconds is not None and (
                    time.monotonic() - start > budget_seconds
                ):
                    return MinimalSplitResult(None, None, None, False, checked)
                checked += 1
                if X not in bad_cache:
                    bad_cache[X] = _bad_sets_for(X, W, nb)
                bads = bad_cache[X]
                if bads is None:
                    continue
                size = _min_hitting_set_size(bads, cap=b)
                if size is not None and size <= b:
                    for Y in itertools.combinations(range(nb), b):
                        y_mask = 0
                        for j in Y:
                            y_mask |= 1 << j
                        if all(s & y_mask for s in bads):
                            return MinimalSplitResult(
                                product, X, Y, True, checked
                            )
    return MinimalSplitResult(None, None, None, True, checked)
