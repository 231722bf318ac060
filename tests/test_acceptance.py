"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one PASS line so a `pytest -s tests/test_acceptance.py`
run reads as a checklist.  Everything is exact except the Majorana sphere
coordinates, whose tolerances are stated inline.  The legacy-set rows
include the Peres-33 7-9 and Conway-Kochen-31 8-9 minimal splits; both
sets are built in code, so only the Schuette-33 row, a slot that runs
when its data file is present, can skip.
"""

import time
from fractions import Fraction

import pytest

from ksverify.catalog import MissingDataError, builtin
from ksverify.colorability import (
    KSInstance,
    find_ks_assignment,
    verify_assignment,
)
from ksverify.game import (
    Strategy,
    build_game,
    classical_value,
    classical_value_twolevel,
    default_split,
    minimal_distribution_search,
    play_out,
    quantum_value_maxent,
)
from ksverify.majorana import majorana_points
from ksverify.orthograph import automorphisms, max_independent_set
from ksverify.rays import Ray
from ksverify.weylheisenberg import is_sic_povm, orbit_closure

from oracles import (
    alpha_exhaustive,
    basis_rays,
    best_strategy_pairs,
    dpll_satisfiable,
    ks_assignments_powerset,
    ks_cnf,
    pair_is_refutable,
    random_graph,
    scale_ray,
)


def ok(line: str) -> None:
    print(f"PASS  {line}")


@pytest.fixture(scope="module")
def new33():
    return builtin("new33")


@pytest.fixture(scope="module")
def game45(new33):
    ax, bx = default_split(new33)
    bases = basis_rays(new33)
    return build_game([bases[i] for i in ax], [bases[j] for j in bx])


def test_criterion_01_ks_verdict(new33):
    start = time.monotonic()
    result = find_ks_assignment(new33)
    elapsed = time.monotonic() - start
    assert not result.satisfiable
    assert elapsed < 10.0
    # the oracle's CNF comes from Fraction inner products, not from src's graph
    for name, satisfiable in (("new33", False), ("peres33", False),
                              ("conway31", False), ("yuoh13", True)):
        assert dpll_satisfiable(*ks_cnf(builtin(name).graph.vertices)) == satisfiable
    ok(f"criterion 1: new33 UNSAT by exhaustive search in {elapsed:.2f}s "
       f"({result.nodes} nodes); the oracle CNFs of new33, peres33 and conway31 "
       f"UNSAT and of yuoh13 SAT under independent DPLL")


def test_criterion_02_basis_count(new33):
    assert len(new33.basis_indices) == 14
    report = automorphisms(new33.graph)
    orbit_of = {}
    for oi, orbit in enumerate(report.orbits):
        for v in orbit:
            orbit_of[v] = oi
    size_of = {oi: len(o) for oi, o in enumerate(report.orbits)}
    profile = {"type1": 0, "colored": 0, "triangle": 0}
    for triple in new33.basis_indices:
        sizes = sorted(size_of[orbit_of[v]] for v in triple)
        if sizes == [3, 3, 3]:
            profile["type1"] += 1
        elif sizes == [12, 12, 12]:
            profile["colored"] += 1
        elif sizes == [3, 18, 18]:
            profile["triangle"] += 1
    assert profile == {"type1": 1, "colored": 4, "triangle": 9}
    ok("criterion 2: 14 complete bases partitioned 1 + 4 + 9 by vertex type")


def test_criterion_03_symmetry(new33):
    start = time.monotonic()
    report = automorphisms(new33.graph)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert report.order == 144
    assert sorted(len(o) for o in report.orbits) == [3, 12, 18]
    ok(f"criterion 3: automorphism order 144, orbit sizes 3/12/18 in {elapsed:.2f}s")


def test_criterion_04_game_structure(game45):
    assert len(game45.contexts) == 45
    shared = [c for c in game45.contexts if c.kind == "shared-vector"]
    orth = [c for c in game45.contexts if c.kind == "orthogonal-pair"]
    assert len(shared) == 9 and all(c.wins() == 5 for c in shared)
    assert len(orth) == 36
    for c in shared + orth:
        common = set(game45.alice_bases[c.x]) & set(game45.bob_bases[c.y])
        assert len(common) == (c in shared)
    assert all(9 - c.wins() == 1 for c in orth)  # one orthogonal pair of outputs
    assert game45.total_winning_events() == 333
    ok("criterion 4: 45 contexts = 9 shared (5 winners) + 36 single-orthogonal-pair "
       "(8 winners); 333 winning events")


def test_criterion_05_classical_value(game45):
    start = time.monotonic()
    value = classical_value(game45)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert value.classical == Fraction(44, 45)
    achieved = play_out(game45, value.witness)
    assert achieved == 44
    assert classical_value_twolevel(game45) == Fraction(44, 45)
    ok(f"criterion 5: alpha(333-event exclusivity graph) = 44, W_C = 44/45, "
       f"witness plays out to 44/45, in {elapsed:.2f}s")


def test_criterion_06_quantum_value(game45):
    value = quantum_value_maxent(game45)  # internally checks per-context sums = 1
    assert value == Fraction(1)
    from ksverify.game import event_probability

    for c in game45.contexts:
        for a in range(3):
            for b in range(3):
                if not (c.win_mask >> (3 * a + b) & 1):
                    assert event_probability(
                        game45.alice_bases[c.x][a], game45.bob_bases[c.y][b]
                    ).is_zero()
    ok("criterion 6: W_Q = 1 exactly; every losing event has probability 0; "
       "per-context probabilities sum to 1")


def test_criterion_07_minimality(new33):
    start = time.monotonic()
    result = minimal_distribution_search(new33, budget_seconds=3600.0)
    elapsed = time.monotonic() - start
    assert result.complete
    assert result.product == 45
    assert result.split() == "5-9"
    assert tuple(result) == MINIMAL_SPLITS["new33"]
    ok(f"criterion 7: minimal refutable split 5-9 (product 45) in {elapsed:.1f}s")


# (product, alice_bases, bob_bases, complete, candidates_checked) of each search
MINIMAL_SPLITS = {
    "new33": (45, (0, 10, 11, 12, 13), (1, 2, 3, 4, 5, 6, 7, 8, 9), True, 962),
    "peres33": (63, (0, 8, 9, 12, 13, 14, 15), (1, 2, 3, 4, 5, 6, 7, 10, 11), True, 6426),
    "conway31": (72, (1, 2, 3, 4, 5, 6, 9, 10), (0, 7, 8, 11, 12, 13, 14, 15, 16),
                 True, 78843),
}


@pytest.mark.parametrize("name, split", [("peres33", "7-9"), ("conway31", "8-9")])
def test_criterion_07_legacy_split(name, split):
    inst = builtin(name)
    result = minimal_distribution_search(inst, budget_seconds=3600.0)
    assert result.complete and result.split() == split
    assert tuple(result) == MINIMAL_SPLITS[name]
    X, Y = list(result.alice_bases), list(result.bob_bases)
    assert pair_is_refutable(inst, X, Y)
    for drop in range(len(Y)):
        assert not pair_is_refutable(inst, X, Y[:drop] + Y[drop + 1:])
    ok(f"criterion 7 (legacy): {name} minimal split {split}, refuted by brute force")


def test_criterion_08_generation(new33):
    yuoh = builtin("yuoh13")
    under_x = orbit_closure(yuoh.graph.vertices, ["X"])
    assert set(under_x) == frozenset(yuoh.graph.vertices)
    under_z = orbit_closure(yuoh.graph.vertices, ["Z"])
    assert set(under_z) == frozenset(new33.graph.vertices)
    ok("criterion 8: X-closure of yuoh13 = yuoh13; Z-closure = new33, exactly")


def test_criterion_09_sic_povms(new33):
    gens = ["X", "Z"]
    plus = is_sic_povm(orbit_closure([Ray((1, 1, 0))], gens))
    minus = is_sic_povm(orbit_closure([Ray((1, -1, 0))], gens))
    assert plus.is_sic and len(plus.rays) == 9
    assert minus.is_sic and len(minus.rays) == 9
    assert set(plus.rays) != set(minus.rays)
    assert set(plus.rays) <= frozenset(new33.graph.vertices)
    assert set(minus.rays) <= frozenset(new33.graph.vertices)
    ok("criterion 9: both {X,Z} orbits are 9-ray SIC-POVMs and are distinct ray sets")


LEGACY_EXPECTED = {
    "peres33": (33, 16, 4, 48),
    "conway31": (31, 17, 10, 4),
    "schuette33": (33, 20, 9, 8),
}


@pytest.mark.parametrize("name", sorted(LEGACY_EXPECTED))
def test_criterion_10_legacy_rows(name):
    try:
        inst = builtin(name)
    except MissingDataError:
        assert name == "schuette33"  # the one slot here; the others are built in code
        pytest.skip(f"{name} data file not present")
    rays, bases, orbit_count, order = LEGACY_EXPECTED[name]
    assert inst.graph.n == rays
    assert len(inst.basis_indices) == bases
    report = automorphisms(inst.graph)
    assert report.order == order
    assert len(report.orbits) == orbit_count
    assert not find_ks_assignment(inst).satisfiable
    ok(f"criterion 10: {name}: {bases} bases, {orbit_count} orbits, "
       f"order {order}, UNSAT")


def test_criterion_11_yuoh_assignments():
    inst = builtin("yuoh13")
    masks = ks_assignments_powerset(inst)
    assert len(masks) == 24
    in_bases = set().union(*inst.basis_indices)
    hs = [v for v in range(inst.graph.n) if v not in in_bases]  # the four h-rays
    assert len(hs) == 4
    assert all(sum(mask >> h & 1 for h in hs) <= 1 for mask in masks)
    for mask in masks:
        assert verify_assignment(inst, mask) == []
    ok(f"criterion 11: yuoh13 admits {len(masks)} assignments, "
       "each with at most one 1 among the four h-rays")


def test_criterion_12_majorana(new33):
    north, south = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)

    def close(p, q, tol):
        return all(abs(a - b) <= tol for a, b in zip(p, q))

    anchors = {
        Ray((1, 0, 0)): (north, north),
        Ray((0, 1, 0)): (south, north),
        Ray((0, 0, 1)): (south, south),
    }
    for ray, (p1, p2) in anchors.items():
        got = majorana_points(ray)
        assert close(got[0], p1, 1e-12) and close(got[1], p2, 1e-12)
    pairs = [majorana_points(r) for r in new33.graph.vertices]
    assert len(pairs) == 33  # 66 exported points
    for i in range(33):
        for j in range(i + 1, 33):
            identical = close(pairs[i][0], pairs[j][0], 1e-6) and close(
                pairs[i][1], pairs[j][1], 1e-6)
            assert not identical
    from ksverify.cyclotomic import omega

    w = omega()
    for r in new33.graph.vertices[:8]:
        base = majorana_points(r)
        for scalar in (w, -2):
            scaled = majorana_points(scale_ray(r, scalar))
            assert close(base[0], scaled[0], 1e-9) and close(base[1], scaled[1], 1e-9)
    ok("criterion 12: 66 points; pole anchors exact to 1e-12; 33 distinct pairs "
       "(1e-6); phase invariance (1e-9)")


def test_criterion_13a_independence_oracle():
    import random as _random

    rng = _random.Random(20250810)
    for seed in range(100):
        n = rng.randint(4, 20)
        p = rng.uniform(0.25, 0.85)
        adj = random_graph(n, p, seed=seed)
        fast, witness = max_independent_set(adj)
        assert fast == alpha_exhaustive(adj), (seed, n, p)
        assert len(witness) == fast
    ok("criterion 13a: branch-and-bound alpha matches exhaustive recursion "
       "on 100 random graphs with <= 20 vertices")


def test_criterion_13b_colorability_oracle():
    import random as _random

    pool = list(builtin("new33").graph.vertices) + list(
        builtin("yuoh13").graph.vertices)
    rng = _random.Random(7)
    for trial in range(12):
        size = rng.randint(6, 15)
        rays = rng.sample(pool, size)
        inst = KSInstance(f"oracle{trial}", rays)
        expected_masks = set(ks_assignments_powerset(inst))
        result = find_ks_assignment(inst)
        assert result.satisfiable == bool(expected_masks)
        if result.satisfiable:
            assert result.ones in expected_masks
    ok("criterion 13b: colorability search matches 2^|V| brute force on "
       "12 instances with <= 15 rays")


def test_criterion_13c_classical_value_oracle(new33, game45):
    import random as _random

    rng = _random.Random(3)
    for _ in range(4):
        nx = rng.randint(1, 4)
        ny = rng.randint(1, 4)
        ax = rng.sample(range(14), nx)
        bx = rng.sample(range(14), ny)
        bases = basis_rays(new33)
        g = build_game([bases[i] for i in ax], [bases[j] for j in bx])
        via_alpha = classical_value(g).classical
        direct = Fraction(best_strategy_pairs(g), len(g.contexts))
        assert via_alpha == direct
    assert classical_value(game45).classical == classical_value_twolevel(game45)
    ok("criterion 13c: alpha-based classical value matches 3^|X|*3^|Y| "
       "enumeration for |X|,|Y| <= 4 and two-level enumeration on the 5x9 game")


def test_witness_strategy_reconstruction(game45):
    value = classical_value(game45)
    s = value.witness
    assert isinstance(s, Strategy)
    assert len(s.alice) == 5 and len(s.bob) == 9
    assert play_out(game45, s) == 44
