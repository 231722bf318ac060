"""Game construction, exact values, exports, minimality search."""

import functools
import itertools
import operator
import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, strategies as st

from ksverify.catalog import builtin
from ksverify.cli import write_files
from ksverify.cyclotomic import omega
from ksverify.game import (
    _bad_sets_for,
    _basis_permutation_group,
    _first_hitting,
    _hits,
    _levels,
    _subset,
    _win_table,
    build_game,
    classical_value,
    classical_value_twolevel,
    default_split,
    event_probability,
    exclusivity_adjacency,
    export_exclusivity_graph,
    minimal_distribution_search,
    quantum_value_maxent,
    winning_events,
)
from ksverify.orthograph import automorphisms, max_independent_set
from ksverify.rays import Ray

from oracles import (
    bad_sets_bruteforce,
    basis_rays,
    best_strategy_pairs,
    canonical_subsets_reference,
    close_under_products,
    fraction_adjacency,
    fraction_conj,
    fraction_coordinates,
    fraction_embed,
    fraction_product,
    pair_is_refutable,
    parse_dimacs_edges,
    scale_ray,
)

W = omega()
W2 = W * W


def ray(*components):
    return Ray(components)


def paper_game():
    inst = builtin("new33")
    alice_idx, bob_idx = default_split(inst)
    assert len(alice_idx) == 5 and len(bob_idx) == 9
    bases = basis_rays(inst)
    return build_game([bases[i] for i in alice_idx], [bases[j] for j in bob_idx])


@pytest.fixture(scope="module")
def game45():
    return paper_game()


def test_context_classification(game45):
    kinds = {}
    for c in game45.contexts:
        kinds.setdefault(c.kind, []).append(c)
    assert len(game45.contexts) == 45
    assert [(c.x, c.y) for c in game45.contexts] == list(itertools.product(range(5), range(9)))
    assert len(kinds["shared-vector"]) == 9
    assert len(kinds["orthogonal-pair"]) == 36

    def common(c):
        return set(game45.alice_bases[c.x]) & set(game45.bob_bases[c.y])

    for c in kinds["shared-vector"]:
        assert len(common(c)) == 1
        assert c.wins() == 5
    for c in kinds["orthogonal-pair"]:
        assert not common(c)
        assert 9 - c.wins() == 1  # one orthogonal pair of outputs


def test_total_winning_events(game45):
    assert game45.total_winning_events() == 333
    assert len(winning_events(game45)) == 333


def test_contexts_and_events_recounted_from_fraction_inner_products():
    """The paper's 45 contexts and 333 winning events of the default split,
    counted from Fraction inner products with no game code: an event wins on
    the same vertex or a non-adjacent pair (no vertex is its own neighbour)."""
    inst = builtin("new33")
    adj = fraction_adjacency(inst.graph.vertices)
    alice, bob = default_split(inst)
    contexts = [(inst.basis_indices[x], inst.basis_indices[y]) for x in alice for y in bob]
    events = sum(1 for bx, by in contexts for a in bx for b in by if not adj[a] >> b & 1)
    assert (len(contexts), events) == (45, 333)


def test_quantum_value_rechecked_from_fraction_inner_products():
    """W_Q = 1 of the default split, in Fraction arithmetic with no Cyc: every
    event probability |<a|b>|^2 / (3 |a|^2 |b|^2), each coordinate tuple at
    the lcm conductor, sums to 1 over each of the 45 contexts and is 0 on
    every losing event (an orthogonal pair of the oracle graph)."""
    inst = builtin("new33")
    rays = inst.graph.vertices
    adj = fraction_adjacency(rays)
    m = lcm(*(c.n for r in rays for c in r.components))
    vectors = [[fraction_embed(c.n, m, fraction_coordinates(c)) for c in r.components]
               for r in rays]

    def inner(u, v):  # <u|v> = sum conj(u_j) * v_j
        terms = [fraction_product(m, fraction_conj(m, a), b)
                 for a, b in zip(vectors[u], vectors[v])]
        return tuple(map(sum, zip(*terms)))

    def squared_norm(u):  # |u|^2, a rational for conductor-3 rays
        norm = inner(u, u)
        assert not any(norm[1:])
        return norm[0]

    def probability(a, b):
        amp = inner(a, b)
        square = fraction_product(m, amp, fraction_conj(m, amp))
        return tuple(x / (3 * squared_norm(a) * squared_norm(b)) for x in square)

    one = fraction_embed(1, m, [Fraction(1)])
    alice, bob = default_split(inst)
    contexts = [(inst.basis_indices[x], inst.basis_indices[y]) for x in alice for y in bob]
    assert len(contexts) == 45
    won = []
    for bx, by in contexts:
        probs = {(a, b): probability(a, b) for a in bx for b in by}
        assert tuple(map(sum, zip(*probs.values()))) == one
        assert all(not any(p) for (a, b), p in probs.items() if adj[a] >> b & 1)
        won += [p for (a, b), p in probs.items() if not adj[a] >> b & 1]
    assert tuple(x / len(contexts) for x in map(sum, zip(*won))) == one  # W_Q = 1


def test_classical_value_is_44_45(game45):
    value = classical_value(game45)
    assert value.classical == Fraction(44, 45)
    assert classical_value_twolevel(game45) == Fraction(44, 45)


def test_quantum_value_is_exactly_one(game45):
    assert quantum_value_maxent(game45) == Fraction(1)


def test_losing_events_have_probability_zero(game45):
    for c in game45.contexts:
        for a in range(3):
            for b in range(3):
                if not (c.win_mask >> (3 * a + b) & 1):
                    p = event_probability(
                        game45.alice_bases[c.x][a], game45.bob_bases[c.y][b]
                    )
                    assert p.is_zero()


def test_winning_context_probability_adds_to_input_weight(game45):
    # in the perfect game every context's winning events carry all the weight
    for c in game45.contexts:
        total = sum(
            (
                event_probability(
                    game45.alice_bases[c.x][a], game45.bob_bases[c.y][b]
                ).as_fraction()
                for a in range(3)
                for b in range(3)
                if c.win_mask >> (3 * a + b) & 1
            ),
            Fraction(0),
        )
        assert total == 1


def test_win_tags_invariant_under_rescaling(game45):
    scaled_alice = [[scale_ray(r, -2 * W) for r in basis] for basis in game45.alice_bases]
    scaled_bob = [[scale_ray(r, W2) for r in basis] for basis in game45.bob_bases]
    rebuilt = build_game(scaled_alice, scaled_bob)
    for c1, c2 in zip(game45.contexts, rebuilt.contexts):
        assert c1.win_mask == c2.win_mask


def test_identical_single_basis_game():
    basis = basis_rays(builtin("new33"))[0]
    g = build_game([basis], [basis])
    assert g.contexts[0].kind == "shared-vector"
    assert classical_value(g).classical == 1
    assert quantum_value_maxent(g) == 1


def test_two_disjoint_nonorthogonal_bases():
    b1 = (ray(1, 1, 1), ray(1, W, W2), ray(W2, W, 1))
    b2 = (ray(1, 1, -1), ray(1, W, -W2), ray(W2, W, -1))
    g = build_game([b1], [b2])
    c = g.contexts[0]
    assert c.kind == "free"
    assert c.wins() == 9
    assert classical_value(g).classical == 1


def test_build_game_rejects_a_non_orthogonal_basis():
    build_game([(ray(1, W, W2), ray(1, 1, 1), ray(W2, W, 1))], [])
    # the x=3 basis as commonly printed: its third ray fails against both others
    printed = (ray(1, -W, W2), ray(1, -1, 1), ray(W2, W, 1))
    with pytest.raises(ValueError, match="^not an orthogonal basis: pair \\(0,2\\)"):
        build_game([printed], [])
    with pytest.raises(ValueError, match="^not an orthogonal basis"):
        build_game([], [printed])


def test_exclusivity_alpha_matches_bruteforce_on_small_games():
    inst = builtin("new33")
    cases = [
        ([0, 1], [5, 6]),
        ([0, 10], [1, 2, 3]),
        ([2, 3, 4], [0, 1, 11]),
        ([0, 1, 2, 3], [10, 11, 12, 13]),
    ]
    for ax, bx in cases:
        bases = basis_rays(inst)
        g = build_game([bases[i] for i in ax], [bases[j] for j in bx])
        via_alpha = classical_value(g).classical
        best = best_strategy_pairs(g)
        assert via_alpha == Fraction(best, len(g.contexts))
        assert classical_value_twolevel(g) == via_alpha


def test_twolevel_value_scores_strategies_as_generated():
    """3^9 Alice strategies held in a list take about 1 MB; scored one at a
    time they take a few kB."""
    import tracemalloc

    bases = basis_rays(builtin("new33"))
    g = build_game(bases[:9], [bases[13]])
    tracemalloc.start()
    try:
        value = classical_value_twolevel(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert value == Fraction(best_strategy_pairs(g), len(g.contexts))


def test_exclusivity_graph_export_roundtrip(tmp_path, game45):
    path = tmp_path / "excl.dimacs"
    legend = tmp_path / "excl.legend"
    write_files(export_exclusivity_graph(game45, str(path), str(legend)))
    text = path.read_text()
    assert text.startswith("p edge 333 ")
    adj = parse_dimacs_edges(text)
    alpha, _ = max_independent_set(adj)
    assert alpha == 44
    legend_lines = legend.read_text().splitlines()
    assert legend_lines[0] == "index x y a b"
    assert len(legend_lines) == 334


def test_exclusivity_graph_export_streams_its_lines(tmp_path, game45):
    """The files are written as their lines are made, so the export's peak
    allocation stays below the graph file's size (the new33 graph file is
    about 105 kB; building its edge list and text first took about 1.7 MB)."""
    import tracemalloc

    path = tmp_path / "excl.dimacs"
    tracemalloc.start()
    try:
        write_files(export_exclusivity_graph(game45, str(path), str(tmp_path / "excl.legend")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_exclusivity_edges_are_strategy_conflicts(game45):
    """Every ordered pair of events, a row against itself included, on new33's
    default game and a 7-9 split of peres33: an edge iff one party's input
    gets two different answers."""
    bases = basis_rays(builtin("peres33"))
    peres_game = build_game(bases[:7], bases[7:16])
    for g in (game45, peres_game):
        events = winning_events(g)
        adj = exclusivity_adjacency(events)
        assert len(adj) == len(events)
        for i, (xi, yi, ai, bi) in enumerate(events):
            assert adj[i] >> len(events) == 0
            assert not adj[i] >> i & 1  # no self-loop
            for j, (xj, yj, aj, bj) in enumerate(events):
                conflict = (xi == xj and ai != aj) or (yi == yj and bi != bj)
                assert bool(adj[i] >> j & 1) == conflict, (i, j)


def test_minimal_distribution_for_new33():
    inst = builtin("new33")
    result = minimal_distribution_search(inst)
    assert result.complete
    assert result.product == 45
    assert result.split() == "5-9"
    assert pair_is_refutable(inst, result.alice_bases, result.bob_bases)


def test_minimal_search_deterministic():
    inst = builtin("new33")
    a = minimal_distribution_search(inst)
    b = minimal_distribution_search(inst)
    assert (a.product, a.alice_bases, a.bob_bases) == (
        b.product, b.alice_bases, b.bob_bases)


def test_no_smaller_product_is_refutable():
    """Spot-check monotonicity and the 45 floor on a few subset pairs."""
    inst = builtin("new33")
    # the paper split minus any single Bob basis becomes winnable
    result = minimal_distribution_search(inst)
    X = list(result.alice_bases)
    Y = list(result.bob_bases)
    for drop in range(3):
        assert not pair_is_refutable(inst, X, Y[:drop] + Y[drop + 1:])
    for drop in range(3):
        assert not pair_is_refutable(inst, X[:drop] + X[drop + 1:], Y)
    # supersets stay refutable
    extra = [i for i in range(14) if i not in Y][0]
    assert pair_is_refutable(inst, X, Y + [extra])


def test_new33_five_nine_split_is_unique():
    """One 5-9 split refutes, and all 144 symmetries fix both of its sides.

    Basis permutations come straight from the vertex permutations, the
    canonical X from the sorted-image rule, the bad sets from a scan of
    every Alice strategy, and each Y from a scan of all 9-subsets.
    """
    inst = builtin("new33")
    bases = inst.basis_indices
    index = {frozenset(t): k for k, t in enumerate(bases)}
    group = {tuple(index[frozenset(p[v] for v in t)] for t in bases)
             for p in inst.graph.group.elements}
    assert len(group) == 144
    reps = canonical_subsets_reference(group, 14, 5)
    assert len(reps) == 51
    refutable = []
    for X in reps:
        bads = bad_sets_bruteforce(inst, X)
        if bads is None:
            continue
        refutable += [(X, Y) for Y in itertools.combinations(range(14), 9)
                      if all(bad.intersection(Y) for bad in bads)]
    X, Y = (0, 10, 11, 12, 13), tuple(range(1, 10))
    assert refutable == [(X, Y)]
    for p in group:
        assert sorted(p[i] for i in X) == list(X)
        assert sorted(p[j] for j in Y) == list(Y)


def test_single_basis_has_no_refutable_split():
    from ksverify.colorability import KSInstance

    inst = KSInstance("single", [ray(0, 0, 1), ray(0, 1, 0), ray(1, 0, 0)])
    result = minimal_distribution_search(inst)
    assert result.complete
    assert result.product is None


def test_budget_flag_reports_incomplete():
    inst = builtin("new33")
    result = minimal_distribution_search(inst, budget_seconds=0.0)
    assert not result.complete
    assert result.candidates_checked == 0  # the deadline has passed at the first check


@st.composite
def basis_families(draw):
    nb = draw(st.integers(1, 10))
    sets = draw(st.lists(st.integers(1, (1 << nb) - 1), max_size=12))
    return nb, sets, draw(st.integers(0, nb))


@given(basis_families())
def test_hits_matches_combination_scan(family):
    nb, sets, k = family
    scan = any(all(s & sum(1 << j for j in Y) for s in sets)
               for Y in itertools.combinations(range(nb), k))
    assert _hits(sets, k) == scan


@given(basis_families())
@example((3, [], 2))  # no sets: any 2 bases, so the first two
@example((3, [0b011, 0], 1))  # a set no Y can hit
@example((5, [0b10000], 3))  # one basis hits, two smaller ones pad
@example((4, [0b0011, 0b1100], 4))  # b = nb
def test_first_hitting_matches_lex_first_combination(family):
    nb, sets, b = family
    spread = [sum(1 << 3 * j for j in range(nb) if s >> j & 1) for s in sets]
    scan = next((Y for Y in itertools.combinations(range(nb), b)
                 if all(s & sum(1 << j for j in Y) for s in sets)), None)
    assert _first_hitting(spread, b) == scan


# Alice's side of each set's minimal split, an X with bad sets (not None)
SPLIT_ALICE = {
    "new33": (0, 10, 11, 12, 13),
    "peres33": (0, 8, 9, 12, 13, 14, 15),
    "conway31": (1, 2, 3, 4, 5, 6, 9, 10),
}


# every canonical X of the conway31 search with no perfect Alice strategy
CONWAY31_UNWINNABLE = [
    (1, 2, 3, 4, 5, 6, 9, 10),
    (2, 4, 5, 7, 9, 11, 14, 15),
    (2, 4, 5, 9, 11, 13, 14, 15),
    (2, 4, 8, 9, 11, 13, 14, 15),
]


# inclusion-minimal bad sets of SPLIT_ALICE, or of CONWAY31_UNWINNABLE for conway31
MINIMAL_BAD_SET_COUNTS = {"new33": [9], "peres33": [9], "conway31": [9, 14, 14, 13]}


@pytest.mark.parametrize("name", sorted(SPLIT_ALICE))
def test_bad_sets_match_strategy_scan(name):
    inst = builtin(name)
    nb = len(inst.basis_indices)
    table = _win_table(inst)
    rng = random.Random(name)
    xs = [X for size in (1, 2, 3) for X in itertools.combinations(range(nb), size)]
    xs += [tuple(sorted(rng.sample(range(nb), rng.randint(4, 6)))) for _ in range(30)]
    # sizes 7-9, where the cut on found sets drops the most subtrees
    xs += [tuple(sorted(rng.sample(range(nb), rng.randint(7, 9)))) for _ in range(20)]
    if name == "conway31":
        xs += CONWAY31_UNWINNABLE
    assert bad_sets_bruteforce(inst, SPLIT_ALICE[name]) is not None
    for X in xs + [SPLIT_ALICE[name]]:
        bads = _bad_sets_for(X, table, nb)
        expected = bad_sets_bruteforce(inst, X)
        if expected is None:
            assert bads == [0] and X not in CONWAY31_UNWINNABLE, X
            continue
        assert bads == sorted(bads) and len(set(bads)) == len(bads), X
        minimal = {s for s in expected if not any(t < s for t in expected)}
        assert {frozenset(j for j in range(nb) if m >> 3 * j & 1) for m in bads} == minimal, X
    sides = CONWAY31_UNWINNABLE if name == "conway31" else [SPLIT_ALICE[name]]
    assert [len(_bad_sets_for(X, table, nb)) for X in sides] == MINIMAL_BAD_SET_COUNTS[name]


@st.composite
def win_tables(draw):
    """Random W rows over nb <= 6 bases; up to 5 Alice bases with 3 answers each.

    An answer loses on the bits of k random masks combined by `&` (sparse,
    each bit lost with probability 1/2**k) or by `|` (dense, 1 - 1/2**k).
    """
    nb = draw(st.integers(1, 6))
    full = (1 << 3 * nb) - 1
    k = draw(st.integers(1, 3))
    combine = draw(st.sampled_from([operator.and_, operator.or_]))
    answer = st.builds(
        lambda kills: full & ~functools.reduce(combine, kills),
        st.lists(st.integers(0, full), min_size=k, max_size=k))
    rows = draw(st.lists(st.lists(answer, min_size=3, max_size=3), min_size=1, max_size=5))
    return nb, rows


@given(win_tables())
@example((1, [[0b100, 0, 0]]))  # only Bob's answer 2 wins: a perfect strategy
def test_bad_sets_match_leaf_scan_on_synthetic_tables(table):
    nb, rows = table
    low = int("001" * nb, 2)
    leaves = set()
    for choice in itertools.product(*rows):
        s = functools.reduce(operator.and_, choice, 7 * low)
        leaves.add(~(s | s >> 1 | s >> 2) & low)
    expected = sorted(b for b in leaves if not any(c != b and not c & ~b for c in leaves))
    assert _bad_sets_for(tuple(range(len(rows))), rows, nb) == expected


def _level_subsets(group, table, nb: int):
    """Each level of the split search as [(X, state)], read before the next is built."""
    for level in _levels(group, table, nb, float("inf")):
        yield [(_subset(images & ((1 << nb) - 1), nb), state) for images, state in level]


@pytest.mark.parametrize("name", sorted(SPLIT_ALICE))
def test_levels_match_sorted_image_rule(name):
    inst = builtin(name)
    nb = len(inst.basis_indices)
    group = _basis_permutation_group(inst, automorphisms(inst.graph).elements)
    sizes = 0
    for size, level in enumerate(_level_subsets(group, _win_table(inst), nb), 1):
        assert [X for X, _ in level] == canonical_subsets_reference(group, nb, size), size
        sizes += 1
    assert sizes == nb


@st.composite
def permutation_groups(draw):
    """A sorted permutation group on range(n), n <= 6, closed from up to 3 generators."""
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    return n, sorted(close_under_products([tuple(g) for g in gens], n))


@given(permutation_groups())
@example((6, sorted(itertools.permutations(range(6)))))  # 720 lanes
def test_levels_match_sorted_image_rule_on_random_groups(case):
    nb, group = case
    table = [[7 * int("001" * nb, 2)] * 3] * nb  # every answer wins
    for size, level in enumerate(_level_subsets(group, table, nb), 1):
        assert [X for X, _ in level] == canonical_subsets_reference(group, nb, size), size


# canonical X up to the split size with no perfect Alice strategy
UNWINNABLE_COUNTS = {"new33": 1, "peres33": 1, "conway31": 4}


@pytest.mark.parametrize("name", sorted(SPLIT_ALICE))
def test_prefix_states_decide_every_canonical_x(name):
    """A state from the prefix's strategy, or a DFS, is None iff X's bad sets are not [0]."""
    inst = builtin(name)
    nb = len(inst.basis_indices)
    low = int("001" * nb, 2)
    table = _win_table(inst)
    group = _basis_permutation_group(inst, inst.graph.group.elements)
    unwinnable = []
    for size, level in enumerate(_level_subsets(group, table, nb), 1):
        if size > len(SPLIT_ALICE[name]):
            break
        for X, state in level:
            assert (state is None) == (_bad_sets_for(X, table, nb) != [0]), X
            if state is None:
                unwinnable.append(X)
            else:  # every Bob basis keeps a winning answer
                assert not ~(state | state >> 1 | state >> 2) & low, X
    assert len(unwinnable) == UNWINNABLE_COUNTS[name]
    assert SPLIT_ALICE[name] in unwinnable
    if name == "conway31":
        assert unwinnable == CONWAY31_UNWINNABLE


def test_budget_stops_the_search_midway():
    inst = builtin("conway31")
    inst.graph.group  # enumerated before the budget starts
    start = time.monotonic()
    result = minimal_distribution_search(inst, budget_seconds=0.02)
    assert time.monotonic() - start < 2.0
    assert not result.complete
    assert result.candidates_checked > 0  # stopped after some sizes were counted
