"""Weyl-Heisenberg actions, orbit closures, SIC-POVM checks."""

import itertools

import pytest

from ksverify.catalog import builtin
from ksverify.cyclotomic import omega
from ksverify.rays import Ray, inner, is_orthogonal
from ksverify.weylheisenberg import apply, is_sic_povm, orbit_closure

from oracles import scale_ray

W = omega()


def ray(*components):
    return Ray(components)


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
