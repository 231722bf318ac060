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
from collections import defaultdict, namedtuple
from fractions import Fraction

from .colorability import KSInstance
from .cyclotomic import Cyc
from .orthograph import bits, dimacs_edges, max_independent_set
from .rays import Ray, inner, is_orthogonal, validate_basis


class Context(namedtuple("Context", "x y shared win_mask")):
    """One (x, y) basis pair with its exact win/lose pattern.

    `shared` is whether the two bases have a ray in common; bit 3*a+b of
    `win_mask` is set iff outputs (a, b) win, that is iff their rays are
    not orthogonal.
    """

    __slots__ = ()

    @property
    def kind(self) -> str:
        if self.shared:
            return "shared-vector"
        if self.win_mask != 0o777:
            return "orthogonal-pair"
        return "free"

    def wins(self) -> int:
        return self.win_mask.bit_count()


class Game(namedtuple("Game", "alice_bases bob_bases contexts")):
    __slots__ = ()

    def total_winning_events(self) -> int:
        return sum(c.wins() for c in self.contexts)


def _checked_basis(rays) -> tuple[Ray, Ray, Ray]:
    rays = tuple(rays)
    violations = validate_basis(rays)
    if violations:
        detail = "; ".join(str(v) for v in violations)
        raise ValueError(f"not an orthogonal basis: {detail}")
    return rays


def build_game(alice_bases, bob_bases) -> Game:
    """Classify every context and tag each of its 9 events win/lose.

    Each basis is a triple of rays, checked for pairwise orthogonality.
    """
    alice_bases = tuple(_checked_basis(b) for b in alice_bases)
    bob_bases = tuple(_checked_basis(b) for b in bob_bases)
    contexts = []
    for x, bx in enumerate(alice_bases):
        for y, by in enumerate(bob_bases):
            shared = False
            win = 0
            for a, ra in enumerate(bx):
                for b, rb in enumerate(by):
                    shared = shared or ra == rb
                    if not is_orthogonal(ra, rb):
                        win |= 1 << (3 * a + b)
            contexts.append(Context(x, y, shared, win))
    return Game(alice_bases, bob_bases, tuple(contexts))


def default_split(inst: KSInstance) -> tuple[list[int], list[int]]:
    """Alice = bases inside one orbit or fully non-computational; see below.

    Bases are classified by the automorphism orbit sizes of their rays:
    a basis whose rays all lie in one orbit goes to Alice (the unique
    all-type-I basis and the bases inside the middle orbit), the rest
    (one type-I ray plus two large-orbit rays) go to Bob.
    """
    orbits = inst.graph.group.orbits
    orbit_of = {v: oi for oi, orbit in enumerate(orbits) for v in orbit}
    alice, bob = [], []
    for bi, triple in enumerate(inst.basis_indices):
        orbit_ids = {orbit_of[v] for v in triple}
        (alice if len(orbit_ids) == 1 else bob).append(bi)
    return alice, bob


# -- exclusivity graph and classical value -------------------------------------


def winning_events(g: Game) -> list[tuple[int, int, int, int]]:
    """(x, y, a, b) for every winning event, in deterministic order."""
    return [(c.x, c.y, *divmod(k, 3)) for c in g.contexts for k in bits(c.win_mask)]


def exclusivity_adjacency(events) -> list[int]:
    """Two events conflict iff they share a party's input with different output.

    Slot a of `alice[x]` holds the events (x, ., a, .), and `bob[y]` works
    the same way.  An event's row is the other two slots of its Alice input
    and of its Bob input; it lies in its own slots, so it has no self-loop.
    """
    alice, bob = defaultdict(lambda: [0, 0, 0]), defaultdict(lambda: [0, 0, 0])
    for i, (x, y, a, b) in enumerate(events):
        alice[x][a] |= 1 << i
        bob[y][b] |= 1 << i
    # the three slots are disjoint, so their sum less one slot is the other two
    return [(sum(alice[x]) - alice[x][a]) | (sum(bob[y]) - bob[y][b])
            for x, y, a, b in events]


class Strategy(namedtuple("Strategy", "alice bob")):
    """Deterministic strategy: one output per input, for each party."""

    __slots__ = ()


class GameValue(namedtuple("GameValue", "classical witness")):
    __slots__ = ()


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
    return GameValue(Fraction(alpha, len(g.contexts)), strategy)


def classical_value_twolevel(g: Game) -> Fraction:
    """Max over Alice strategies; Bob's best reply decomposes per input y.

    A strategy of Alice is one mask, bit 3x+a set for her answer a to x.
    Answer b to y wins the contexts (x, y) whose Alice bit lies in its mask
    `replies[y][b]`, so it wins popcount(strategy & mask) of them.  The 3^|X|
    strategies are scored as they are generated, never held in a list.
    """
    replies = [[0, 0, 0] for _ in g.bob_bases]
    for c in g.contexts:
        for k in bits(c.win_mask):
            a, b = divmod(k, 3)
            replies[c.y][b] |= 1 << (3 * c.x + a)
    answers = [[1 << (3 * x + a) for a in range(3)] for x in range(len(g.alice_bases))]
    best = max(sum(max((s & w).bit_count() for w in row) for row in replies)
               for s in map(sum, itertools.product(*answers)))
    return Fraction(best, len(g.contexts))


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
    total = Cyc.from_rational(0)
    for c in g.contexts:
        context_total = Cyc.from_rational(0)
        win_total = Cyc.from_rational(0)
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


def export_exclusivity_graph(g: Game, path: str, legend_path: str | None = None) -> list:
    """The (path, lines) pairs of the winning-event exclusivity graph (an edge
    list) and, if `legend_path` is given, of its legend.  The lines are made
    as a writer reads them, so neither file's text is ever held whole."""
    events = winning_events(g)
    files = [(path, dimacs_edges(exclusivity_adjacency(events)))]
    if legend_path is not None:
        rows = (f"{i + 1} {x} {y} {a} {b}\n" for i, (x, y, a, b) in enumerate(events))
        files.append((legend_path, itertools.chain(["index x y a b\n"], rows)))
    return files


def game_report(inst: KSInstance, split=None, graph_path: str | None = None,
                legend_path: str | None = None) -> tuple[dict, list[str], list]:
    """The `game` pipeline on the bases `split` = (Alice's, Bob's) of `inst`,
    default_split's by default: contexts, events, both classical values and
    the quantum value, and the exclusivity graph's export files if
    `graph_path` is given.  Two classical values that disagree raise
    AssertionError.

    An explicit split is keyed apart, so the default-split references skip it.
    """
    ax, bx = split or default_split(inst)
    if not ax or not bx:
        raise ValueError(f"no default basis split for {inst.name}; pass --alice and --bob")
    bases = [[inst.graph.vertices[v] for v in triple] for triple in inst.basis_indices]
    for i in ax + bx:
        if not 0 <= i < len(bases):
            raise ValueError(f"basis index {i} out of range 0..{len(bases) - 1}")
    game = build_game([bases[i] for i in ax], [bases[i] for i in bx])
    lines = inst.note_lines() + [
        f"game on {inst.name}: |X| = {len(game.alice_bases)}, "
        f"|Y| = {len(game.bob_bases)}, contexts = {len(game.contexts)}"]
    for kind in sorted({c.kind for c in game.contexts}):
        of_kind = [c for c in game.contexts if c.kind == kind]
        wins = sorted({c.wins() for c in of_kind})
        lines.append(f"  {len(of_kind)} {kind} contexts, winning events per context: {wins}")
    total = game.total_winning_events()
    value = classical_value(game)
    cross = classical_value_twolevel(game)
    if value.classical != cross:
        raise AssertionError(f"classical value {value.classical} from the exclusivity "
                             f"graph, {cross} from strategy enumeration")
    quantum = quantum_value_maxent(game)
    lines += [
        f"total winning events: {total}",
        f"classical value: {value.classical}",
        f"classical value (strategy enumeration cross-check): {cross}",
        f"quantum value (conjugate-basis maximally entangled strategy): {quantum}",
        "convention: Bob measures the componentwise-conjugated basis, so event "
        "probabilities are |<a|b>|^2/(3|a|^2|b|^2) and vanish exactly on orthogonal pairs"]
    files = [] if graph_path is None else export_exclusivity_graph(game, graph_path, legend_path)
    if files:
        lines.append(f"exclusivity graph written to {graph_path}" + (
            f" with legend {legend_path}" if legend_path is not None else ""))
    key = inst.name
    if split is not None:
        key += f"[{','.join(map(str, ax))}|{','.join(map(str, bx))}]"
    return {key: {"contexts": len(game.contexts), "events": total,
                  "classical": value.classical, "quantum": quantum}}, lines, files


# -- minimal input-cardinality search ----------------------------------------------


class MinimalSplitResult(namedtuple(
        "MinimalSplitResult", "product alice_bases bob_bases complete candidates_checked")):
    """`alice_bases` and `bob_bases` are indices into inst.basis_indices."""

    __slots__ = ()

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


def _win_table(inst: KSInstance) -> list[list[int]]:
    """W[i][a]: bit 3*j+b set iff Bob's answer b on basis j wins against Alice's a on i."""
    adj = inst.graph.adj
    return [
        [sum(1 << (3 * j + b)
             for j, tj in enumerate(inst.basis_indices)
             for b, vb in enumerate(tj)
             if not adj[va] >> vb & 1)  # orthogonal rays lose; adj has no loops
         for va in ti]
        for ti in inst.basis_indices
    ]


def _perfect_state(X: tuple[int, ...], W, low: int) -> int | None:
    """Bob's winning answers left by the first perfect Alice strategy on X, or None.

    `low` has bit 3*j set for every Bob basis j.  A DFS node is one `&`
    with a W row, and it is dropped once some basis has no winning answer
    left, since `&` only clears bits and every leaf below it then loses.
    """
    rows = [W[x] for x in X]
    depth = len(rows)

    def first(pos: int, s: int) -> int | None:
        if ~(s | s >> 1 | s >> 2) & low:
            return None
        if pos == depth:
            return s
        for row in rows[pos]:
            leaf = first(pos + 1, s & row)
            if leaf is not None:
                return leaf
        return None

    return first(0, 7 * low)


def _bad_sets_for(X: tuple[int, ...], W, nb: int) -> list[int]:
    """The inclusion-minimal masks of Bob bases unanswerable by Alice strategies on X, sorted.

    Basis j is bit 3*j, which keeps the order of 1 << j masks.  A node's
    bad set (the bases with no winning answer left) only grows below it,
    so one DFS cuts a branch once a set already found lies inside that
    node's bad set; a leaf that gets through replaces the found sets
    containing it.  [0] when some strategy answers every basis: (X,
    anything) then has a perfect classical strategy.
    """
    low = int("001" * nb, 2)  # bit 3*j for every basis j
    found: list[int] = []

    def collect(pos: int, s: int) -> None:
        bad = ~(s | s >> 1 | s >> 2) & low
        for f in found:
            if not f & ~bad:
                return
        if pos == len(X):
            found[:] = [f for f in found if bad & ~f] + [bad]
            return
        for row in W[X[pos]]:
            collect(pos + 1, s & row)

    collect(0, 7 * low)
    return sorted(found)


def _subset(mask: int, nb: int) -> tuple[int, ...]:
    """The bases of a level mask, ascending; basis i is bit nb-1-i."""
    return tuple(nb - 1 - j for j in bits(mask))[::-1]


def _levels(group, W, nb: int, deadline: float):
    """The canonical subsets of range(nb) of each size 1, 2, ..., one level per size.

    A level lists the lex-least subset of each group orbit, in lex order,
    as (images, state) entries: `images` packs the subset's mask under
    every group permutation into one int, permutation k in lane k of
    nb + 1 bits, and `state` is the Bob-answer state left by a perfect
    Alice strategy on the subset, or None when it has none.  `group` is
    sorted, so the identity is lane 0, the low nb bits: the subset's own
    mask.  Basis i is bit nb-1-i, so among subsets of one size the
    lex-least has the largest mask, and a subset is canonical iff no lane
    exceeds lane 0.  One subtraction tests that: lane 0 copied into every
    lane, with each lane's guard bit (bit nb) set, minus the images keeps
    every guard bit iff it is so, and no lane borrows from the next.
    Removing the largest basis keeps a subset canonical, so each level is
    the previous one's entries extended by a larger basis, in order.  A
    child of a winnable entry tries the entry's state with the new basis's
    3 rows, and runs its own DFS only when all 3 fail; a child of an
    unwinnable entry is unwinnable.  A level is emptied while the next is
    built from it.  The levels stop after any entry that ends at or past
    `deadline`, a `time.monotonic()` reading.
    """
    low = int("001" * nb, 2)
    lane0 = (1 << nb) - 1
    rep = sum(1 << k * (nb + 1) for k in range(len(group)))  # bit 0 of every lane
    guards = rep << nb
    columns = [sum(1 << nb - 1 - p[x] + k * (nb + 1) for k, p in enumerate(group))
               for x in range(nb)]
    level = [(0, 7 * low)]  # the empty subset
    for _ in range(nb):
        out = []
        level.reverse()
        while level:
            images, state = level.pop()
            mask = images & lane0
            for x in range(nb + 1 - (mask & -mask or 1 << nb).bit_length(), nb):
                child = images | columns[x]
                if ((child & lane0) * rep | guards) - child & guards != guards:
                    continue
                s = None
                if state is not None:
                    for row in W[x]:
                        s = state & row
                        if not ~(s | s >> 1 | s >> 2) & low:
                            break
                    else:
                        s = _perfect_state(_subset(child & lane0, nb), W, low)
                out.append((child, s))
            if time.monotonic() >= deadline:
                return
        yield out
        level = out


def _hits(sets: list[int], k: int) -> bool:
    """Whether k or fewer bases meet every bitmask set; branches on the smallest set."""
    if not sets:
        return True
    if k == 0:
        return False
    m = min(sets, key=lambda s: (s.bit_count(), s))
    return any(_hits([s for s in sets if not s >> j & 1], k - 1) for j in bits(m))


def _first_hitting(sets: list[int], need: int) -> tuple[int, ...] | None:
    """The lex-first `need` bases meeting every set (basis j is bit 3*j), or None.

    Once `_hits` says some exist, the bases are picked in ascending order,
    each the smallest j after the last pick from which `_hits` still
    finishes, on the sets j misses with one pick fewer.  That finish needs
    no bases below j: with one, the picks, j and the finish would make a
    Y that comes before the lex-first one.  Once nothing is left to hit,
    the remaining picks are the bases right after the last.
    """
    if not _hits(sets, need):
        return None
    Y = []
    j = 0
    for left in range(need - 1, -1, -1):  # picks left after this one
        while True:
            rest = [s for s in sets if not s >> 3 * j & 1]
            if _hits(rest, left):
                break
            j += 1
        Y.append(j)
        sets = rest
        j += 1
    return tuple(Y)


def check_budget(budget_seconds: float) -> None:
    """ValueError unless the budget is a nonnegative number (inf included)."""
    if not budget_seconds >= 0:
        raise ValueError(f"budget {budget_seconds} is not a nonnegative number of seconds")


def minimal_distribution_search(
    inst: KSInstance, budget_seconds: float = float("inf")
) -> MinimalSplitResult:
    """Smallest |X|*|Y| basis split admitting no perfect classical strategy.

    Searches products in ascending order over subset pairs of the complete
    bases.  Only the smaller side X is enumerated (the win predicate is
    symmetric in the two parties), one subset per orbit of the basis
    group.  Size a is first needed at product a*a, so the sizes arrive in
    order, and each is built once from the last (`_levels`): every
    canonical X is grown from its canonical prefix and decided once, from
    the prefix's perfect strategy.  Only the X with no perfect strategy
    are kept, with their inclusion-minimal unanswerable-basis sets (a Y
    meets every strategy's set iff it meets the minimal ones).  A
    refutable Y of size b is b bases that meet every such set, and
    `_first_hitting` picks the lex-first one base by base; a size class
    with no hit adds its count of canonical X to `candidates_checked`.
    The budget is a `time.monotonic()` deadline, checked once per
    (product, size) and after each prefix while a level is built, so a
    budget of 0 stops at the first check.  A NaN or negative budget
    raises ValueError.
    """
    check_budget(budget_seconds)
    nb = len(inst.basis_indices)
    if nb == 0:
        return MinimalSplitResult(None, None, None, True, 0)
    group = _basis_permutation_group(inst, inst.graph.group.elements)
    W = _win_table(inst)
    deadline = time.monotonic() + budget_seconds
    levels = _levels(group, W, nb, deadline)
    classes = []  # per size: (canonical X count, [(index, X, bad sets)] with no perfect strategy)
    checked = 0
    # every split a <= b <= nb, by product and then by Alice's size a
    splits = sorted((a * b, a, b) for b in range(1, nb + 1) for a in range(1, b + 1))
    for product, a, b in splits:
        if time.monotonic() >= deadline:
            return MinimalSplitResult(None, None, None, False, checked)
        if a > len(classes):  # a == b: the first product that needs size a
            level = next(levels, None)
            if level is None:
                return MinimalSplitResult(None, None, None, False, checked)
            unwinnable = []
            for index, (images, state) in enumerate(level):
                if state is None:
                    if time.monotonic() >= deadline:
                        return MinimalSplitResult(None, None, None, False, checked)
                    X = _subset(images & (1 << nb) - 1, nb)
                    unwinnable.append((index, X, _bad_sets_for(X, W, nb)))
            classes.append((len(level), unwinnable))
        count, unwinnable = classes[a - 1]
        for index, X, bads in unwinnable:
            Y = _first_hitting(bads, b)
            if Y is not None:
                return MinimalSplitResult(product, X, Y, True, checked + index + 1)
        checked += count
    return MinimalSplitResult(None, None, None, True, checked)


def minimal_report(inst: KSInstance, budget_seconds: float) -> tuple[dict | None, list[str], list]:
    """The `minimal` pipeline: the least refutable split, or None facts if the
    search ran out of budget."""
    result = minimal_distribution_search(inst, budget_seconds=budget_seconds)
    lines = inst.note_lines()
    if not result.complete:
        lines.append(f"{inst.name}: search incomplete within budget "
                     f"({budget_seconds}s); no refutable pair found so far")
        return None, lines, []
    if result.product is None:
        lines.append(f"{inst.name}: no basis split refutes all classical strategies")
    else:
        lines += [
            f"{inst.name}: minimal refutable split {result.split()} (product {result.product})",
            f"Alice basis indices: {list(result.alice_bases)}",
            f"Bob basis indices: {list(result.bob_bases)}",
            "note: minimality criterion is the absence of a perfect classical strategy, "
            "searched exhaustively over basis subsets up to instance symmetry"]
    return {inst.name: {"minimal_product": result.product,
                        "minimal_split": result.split()}}, lines, []
