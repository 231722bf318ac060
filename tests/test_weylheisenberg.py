"""Weyl-Heisenberg actions, orbit closures, SIC-POVM checks."""

import itertools
from fractions import Fraction

import pytest

from ksverify.catalog import builtin, builtin_rays
from ksverify.cyclotomic import omega
from ksverify.rays import Ray, inner, is_orthogonal
from ksverify.weylheisenberg import apply, is_sic_povm, orbit_closure

from oracles import (
    fraction_conj,
    fraction_coordinates,
    fraction_embed,
    fraction_power_table,
    fraction_product,
    fraction_proportional,
    ray,
    scale_ray,
)

W = omega()


X, Z = "X", "Z"


def test_generators_keep_orthogonality_of_new33_pairs():
    """X and Z are unitary: each keeps every pair of new33 vertices
    orthogonal or non-orthogonal, as it was."""
    rays = builtin("new33").graph.vertices
    for g in (X, Z):
        images = [apply(g, r) for r in rays]
        for i, j in itertools.combinations(range(len(rays)), 2):
            assert is_orthogonal(images[i], images[j]) == is_orthogonal(rays[i], rays[j])


def test_unknown_generator():
    with pytest.raises(ValueError, match="unknown generator 'Y'"):
        orbit_closure([ray(1, 0, 0)], [X, "Y"])


def test_apply_examples():
    assert apply(Z, ray(1, 1, 1)) == ray(1, W, W * W)
    assert apply(X, ray(0, 0, 1)) == ray(1, 0, 0)
    assert apply(Z, ray(1, 1, 0)) == ray(1, W, 0)


def test_generators_have_projective_order_three():
    for v in (ray(1, 1, 1), ray(1, W, 0), ray(0, 1, -W)):
        assert apply(X, apply(X, apply(X, v))) == v
        assert apply(Z, apply(Z, apply(Z, v))) == v


def test_orbit_of_basis_vector_under_shift():
    orbit = orbit_closure([ray(0, 0, 1)], [X])
    assert set(orbit) == {ray(0, 0, 1), ray(1, 0, 0), ray(0, 1, 0)}


def test_yuoh_closed_under_x():
    yuoh = frozenset(builtin("yuoh13").graph.vertices)
    assert set(orbit_closure(yuoh, [X])) == set(yuoh)


def test_z_closure_of_yuoh_is_new33():
    yuoh = list(builtin("yuoh13").graph.vertices)
    closure = orbit_closure(yuoh, [Z])
    assert set(closure) == frozenset(builtin("new33").graph.vertices)
    # single and double applications alone do not reproduce the set:
    # the claim holds as closure, i.e. the union of all Z powers
    z1 = {apply(Z, v) for v in yuoh}
    z2 = {apply(Z, apply(Z, v)) for v in yuoh}
    assert set(yuoh) | z1 | z2 == frozenset(builtin("new33").graph.vertices)
    assert z2 != frozenset(builtin("new33").graph.vertices)


def test_closure_is_monotone_and_idempotent():
    small = orbit_closure([ray(1, 1, 0)], [X])
    big = orbit_closure([ray(1, 1, 0), ray(0, 0, 1)], [X])
    assert set(small) <= set(big)
    again = orbit_closure(small, [X])
    assert set(again) == set(small)


def test_sic_orbits():
    plus = orbit_closure([ray(1, 1, 0)], [X, Z])
    minus = orbit_closure([ray(1, -1, 0)], [X, Z])
    rep_plus = is_sic_povm(plus)
    rep_minus = is_sic_povm(minus)
    assert rep_plus.is_sic and len(rep_plus.rays) == 9
    assert rep_minus.is_sic and len(rep_minus.rays) == 9
    assert set(rep_plus.rays) != set(rep_minus.rays)
    new33 = frozenset(builtin("new33").graph.vertices)
    assert set(rep_plus.rays) <= new33
    assert set(rep_minus.rays) <= new33
    for rep in (rep_plus, rep_minus):
        for i, row in enumerate(rep.overlaps):
            for j, value in enumerate(row):
                assert value == (1 if i == j else 0.25)


def test_sic_condition_is_scale_invariant():
    plus = orbit_closure([ray(1, 1, 0)], [X, Z])
    rescaled = [scale_ray(r, -2 * W) for r in plus]
    assert is_sic_povm(rescaled).is_sic


def test_computational_basis_is_not_sic():
    rep = is_sic_povm([ray(1, 0, 0), ray(0, 1, 0), ray(0, 0, 1)])
    assert not rep.is_sic
    assert any("9 distinct rays" in f for f in rep.failures)


def test_exact_overlap_identity_on_sic():
    plus = is_sic_povm(orbit_closure([ray(1, 1, 0)], [X, Z])).rays
    for i, u in enumerate(plus):
        for j, v in enumerate(plus):
            if i < j:
                amp = inner(u, v)
                lhs = 4 * (amp * amp.conj())
                rhs = inner(u, u) * inner(v, v)
                assert lhs == rhs


POWERS = fraction_power_table(3)  # w^0, w^1, w^2 as coordinate pairs


def fraction_vectors(rays):
    """Each ray's source components as coordinate pairs at conductor 3."""
    return [tuple(fraction_embed(c.n, 3, fraction_coordinates(c)) for c in r.components)
            for r in rays]


def fraction_orbit(seeds, gens):
    """The vectors reached from `seeds` (distinct rays, as coordinate pairs at
    conductor 3) under X, the cyclic shift, and Z, the phases 1, w, w^2, as
    `gens` labels them; an image proportional to a vector already reached is
    dropped."""
    rays, frontier = list(seeds), list(seeds)
    while frontier:
        nxt = []
        for a, b, c in frontier:
            images = {X: (c, a, b), Z: tuple(fraction_product(3, x, POWERS[k])
                                             for k, x in enumerate((a, b, c)))}
            for image in (images[g] for g in gens):
                if not any(fraction_proportional(3, image, r) for r in rays):
                    rays.append(image)
                    nxt.append(image)
        frontier = nxt
    return rays


def test_sic_povms_rechecked_in_fraction_arithmetic():
    """The paper's two SIC-POVMs in Fraction arithmetic at conductor 3, with
    no Cyc operation: the {X, Z} orbits of (1,1,0) and (1,-1,0) each hold 9
    rays (two vectors are one ray when every 2x2 minor is 0) with
    4 |<u|v>|^2 = |u|^2 |v|^2 for every pair, share no ray, and equal
    orbit_closure's rays up to scalars."""

    def inner3(u, v):  # <u|v> = sum conj(u_j) * v_j
        terms = [fraction_product(3, fraction_conj(3, a), b) for a, b in zip(u, v)]
        return tuple(map(sum, zip(*terms)))

    orbits = []
    for seed in ((1, 1, 0), (1, -1, 0)):
        rays = fraction_orbit([tuple((Fraction(k), Fraction(0)) for k in seed)], [X, Z])
        assert len(rays) == 9
        for u, v in itertools.combinations(rays, 2):
            amp = inner3(u, v)
            lhs = fraction_product(3, amp, fraction_conj(3, amp))
            rhs = fraction_product(3, inner3(u, u), inner3(v, v))
            assert tuple(4 * x for x in lhs) == rhs
        closure = orbit_closure([Ray(seed)], [X, Z])
        assert len(closure) == 9
        for r in closure:
            assert all(3 % c.n == 0 for c in r.components)
        for vector in fraction_vectors(closure):
            assert sum(fraction_proportional(3, vector, u) for u in rays) == 1
        orbits.append(rays)
    plus, minus = orbits
    assert not any(fraction_proportional(3, u, v) for u in plus for v in minus)


def test_yuoh13_closures_rechecked_in_fraction_arithmetic():
    """The paper's generation facts in Fraction arithmetic at conductor 3,
    with no Cyc operation: X maps the 13 Yu-Oh rays onto themselves, and
    their Z-closure is the new33 ray set, each matched ray for ray up to
    scalars."""

    def same_rays(us, vs):
        return len(us) == len(vs) and all(
            sum(fraction_proportional(3, u, v) for v in vs) == 1 for u in us)

    yuoh = fraction_vectors(builtin_rays("yuoh13"))
    assert same_rays(fraction_orbit(yuoh, [X]), yuoh)
    assert same_rays(fraction_orbit(yuoh, [Z]), fraction_vectors(builtin("new33").graph.vertices))
