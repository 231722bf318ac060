"""Rays: canonical forms, inner products, basis completion and validation."""

import contextlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ksverify.catalog import BUILTIN_NAMES, MissingDataError, builtin
from ksverify.cyclotomic import Cyc, omega
from ksverify.rays import (
    BasisViolation,
    Ray,
    clip,
    inner,
    is_orthogonal,
    _parse_component,
    parse_ray,
    validate_basis,
)

from oracles import (
    IMAGE_CONDUCTORS,
    IMAGE_MATRICES,
    IMAGE_SOURCES,
    canonical_rule_holds,
    non_monomial_image,
    scale_ray,
)

W = omega()
W2 = W * W


def ray(*components):
    return Ray(components)


def test_inner_product_examples():
    assert inner(ray(0, 0, 1), ray(0, 1, 0)).is_zero()
    assert inner(ray(1, W, W2), ray(1, 1, 1)).is_zero()
    # direct expansion: w - w^2 * w^2 = w - w = 0
    assert inner(ray(0, 1, -W), ray(1, W, W2)).is_zero()


def test_inner_is_sesquilinear():
    u, v = ray(1, W, -1), ray(1, 1, W)
    assert inner(u, v) == inner(v, u).conj()


def test_orthogonality_examples():
    assert is_orthogonal(ray(0, 0, 1), ray(1, 0, 0))
    assert not is_orthogonal(ray(1, 1, 1), ray(1, 1, -1))
    # the misprint detector: inner product is -2w, not zero
    assert inner(ray(1, -1, 1), ray(W2, W, 1)) == -2 * W
    assert not is_orthogonal(ray(1, -1, 1), ray(W2, W, 1))


def test_canonicalization_collapses_scalar_multiples():
    assert ray(W, W, 0) == ray(1, 1, 0) == ray(-2, -2, 0)
    r = ray(W2, W, 1)
    assert scale_ray(r, W) == r
    assert scale_ray(r, -3) == r
    assert ray(1, W2, W) == r  # unit multiple collapses


def test_canonicalize_is_idempotent():
    r = Ray((2 * W, -4 * W, 0))
    again = Ray(r.canonical)
    assert r == again
    assert r.canonical == again.canonical


def test_all_zero_rejected():
    with pytest.raises(ValueError):
        Ray((Cyc.zero(), Cyc.zero(), Cyc.zero()))


def test_every_ray_bounds_its_canonical_coefficients():
    """str(int) refuses more than 4,300 digits, so no Ray is built with a
    longer canonical coefficient, however it is made."""
    assert str(Ray((10**4300 - 1, 1, 0))) == f"({10**4300 - 1},1,0)"
    for components in [(10**4300, 1, 0), (1, Fraction(1, 10**4300), 0)]:
        with pytest.raises(ValueError, match="more than 4300 digits"):
            Ray(components)


def test_clip_quotes_any_value_in_one_short_line():
    assert clip(Fraction(1, 4)) == "1/4"
    assert clip("x" * 100) == "x" * 76 + " ..."
    assert clip(10**4300) == "<more than 4300 digits>"
    assert clip(Cyc.from_rational(Fraction(10**5000 + 1, 3))) == "<more than 4300 digits>"
    big = Cyc.from_rational(10**4400)
    assert str(BasisViolation(0, 1, big)) == "pair (0,1) has inner product <more than 4300 digits>"


def test_completion_examples():
    # x=1 is completed by (w^2,w,1); x=3 by the corrected (w^2,-w,1), not by (w^2,w,1)
    for pair, third in (((ray(1, W, W2), ray(1, 1, 1)), ray(W2, W, 1)),
                        ((ray(1, -W, W2), ray(1, -1, 1)), ray(W2, -W, 1))):
        assert is_orthogonal(*pair)
        assert all(is_orthogonal(third, u) for u in pair)
    printed = ray(W2, W, 1)
    assert not any(is_orthogonal(printed, u) for u in (ray(1, -W, W2), ray(1, -1, 1)))


def test_validate_basis_reports_pairs():
    ok = validate_basis([ray(0, 0, 1), ray(0, 1, 0), ray(1, 0, 0)])
    assert ok == []
    bad = validate_basis([ray(1, 1, 0), ray(1, -1, 0), ray(1, 0, 0)])
    assert {(v.index_a, v.index_b) for v in bad} == {(0, 2), (1, 2)}
    assert all(v.product == Cyc.one() for v in bad)


def test_validate_printed_x3_basis():
    # as commonly printed, the third member fails against both others
    printed = [ray(1, -W, W2), ray(1, -1, 1), ray(W2, W, 1)]
    violations = validate_basis(printed)
    products = {str(v.product) for v in violations}
    assert products == {"-2", "-2*w"}
    assert {(v.index_a, v.index_b) for v in violations} == {(0, 2), (1, 2)}


scalars = st.sampled_from(
    [Cyc.from_rational(2), -Cyc.one(), omega(), W2,
     Cyc.from_rational(-3), omega() * Cyc.from_rational(5)]
)
components = st.sampled_from(
    [0, 1, -1, 2, omega(), -omega(), W2, 1 + omega()]
)


@given(st.tuples(components, components, components), scalars, scalars)
def test_orthogonality_invariant_under_rescaling(comps, s1, s2):
    if all(Cyc._as_cyc(c).is_zero() for c in comps):
        return
    u = Ray(comps)
    v = ray(1, W, W2)
    scaled_u = Ray(tuple(s1 * Cyc._as_cyc(c) for c in comps))
    assert is_orthogonal(u, v) == is_orthogonal(scaled_u, scale_ray(v, s2))
    assert u == scaled_u


def test_parse_ray_literals():
    assert parse_ray("(1,-w,w^2)") == ray(1, -W, W2)
    assert parse_ray("(0, 1, -w)") == ray(0, 1, -W)
    assert parse_ray("(1,1,0)") == ray(1, 1, 0)
    assert parse_ray("(1+w,1,0)") == ray(1 + W, 1, 0)
    with pytest.raises(ValueError):
        parse_ray("(1,2)")


# a `*` with nothing on one side is not read as if it were absent
@pytest.mark.parametrize("text", ["--1", "+-w", "1--w", "1/0", "w+0/0", "1+", "2*", "*w", "1+*w"])
def test_malformed_component_is_rejected(text):
    with pytest.raises(ValueError):
        _parse_component(text)


signed_terms = st.builds(
    lambda sign, coef, sym, power: sign + coef + sym + (power if sym else ""),
    st.sampled_from(["+", "-"]),
    st.sampled_from(["", "0", "2*", "3/4", "1/0"]),
    st.sampled_from(["", "w", "z1", "z4", "z8", "z0", "z361"]),
    st.sampled_from(["", "^2", "^7"]),
)
ray_literals = st.lists(
    st.lists(signed_terms, min_size=1, max_size=3).map("".join), min_size=3, max_size=3,
).map(lambda parts: "(" + ",".join(parts) + ")")


@settings(deadline=None)
@given(st.text(max_size=20) | ray_literals)
def test_parse_ray_gives_a_ray_or_value_error(text):
    with contextlib.suppress(ValueError):
        parse_ray(text)


def test_str_shows_canonical_form():
    assert str(ray(W, W, 0)) == "(1,1,0)"
    assert str(ray(2, 2, 0)) == "(1,1,0)"


def test_canonical_form_is_the_source_over_its_lead_with_content_cleared():
    """Positive-integer lead, integer coefficients with gcd 1, proportional
    to the source: the shipped sets, their non-monomial images, and random
    rays of zeros and rational multiples of roots of unity."""
    rays = []
    for name in BUILTIN_NAMES:
        with contextlib.suppress(MissingDataError):
            rays += builtin(name).graph.vertices
    for key in itertools.product(IMAGE_SOURCES, IMAGE_MATRICES, IMAGE_CONDUCTORS):
        rays += non_monomial_image(*key)
    rng = random.Random(26)
    while len(rays) < 1000:
        n = rng.choice([1, 3, 4, 6, 8, 12, 24])
        components = [0 if rng.random() < 0.3 else
                      Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
                      * Cyc.root_of_unity(n, rng.randrange(n)) for _ in range(3)]
        if any(c != 0 for c in components):
            rays.append(Ray(components))
    for r in rays:
        assert canonical_rule_holds(r), r
