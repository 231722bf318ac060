"""Exact cyclotomic arithmetic: ring axioms, conjugation, coercion."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ksverify.cyclotomic import (
    MAX_CONDUCTOR,
    Cyc,
    cyclotomic_polynomial,
    omega,
    sqrt2,
)

W = omega()
ONE = Cyc.one()


def test_phi3_relation():
    assert (ONE + W + W * W).is_zero()


def test_conjugation_on_roots():
    assert W.conj() == W**2
    assert ONE.conj() == ONE
    assert (W**2).conj() == W
    assert (-W).conj() == -(W**2)


def test_product_of_unit_shifts():
    # oracle: |1 + w|^2 evaluated numerically equals 1
    numeric = (1 + W.evaluate()) * (1 + (W**2).evaluate())
    assert abs(numeric - 1) < 1e-12
    assert (ONE + W) * (ONE + W * W) == ONE


def test_is_zero_examples():
    assert (ONE + W + W**2).is_zero()
    assert not (W - W**2).is_zero()
    assert (W**3 - ONE).is_zero()


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)


def test_sqrt2_square():
    s2 = sqrt2()
    assert s2 * s2 == 2
    assert abs(s2.evaluate() - 2**0.5) < 1e-12


def test_mixed_conductor_arithmetic():
    s2 = sqrt2()
    assert (W + s2) - s2 == W
    prod = W * s2
    assert prod * prod == 2 * W**2
    assert prod.minimal_form()[0] == 24


def test_even_conductor_normalizes_to_odd_half():
    zeta6 = Cyc.root_of_unity(6, 1)
    assert zeta6 == -(W**2)
    assert zeta6.minimal_form()[0] == 3
    assert Cyc.root_of_unity(2, 1) == -1


def test_conductor_bound():
    assert MAX_CONDUCTOR == 360
    assert Cyc.root_of_unity(360, 7) ** 360 == ONE
    for n in (-3, 0, 361):
        for make in (lambda: Cyc(n, [1]), lambda: Cyc.root_of_unity(n),
                     lambda: Cyc.from_triples(n, [[1, 1, 1]])):
            with pytest.raises(ValueError, match="outside 1..360"):
                make()
    with pytest.raises(ValueError, match="conductor 4199 is outside"):
        Cyc.root_of_unity(13) * Cyc.root_of_unity(17) * Cyc.root_of_unity(19)


def test_inverse_and_division():
    assert W.inverse() * W == ONE
    assert (ONE / (ONE + W)) * (ONE + W) == ONE
    with pytest.raises(ZeroDivisionError):
        Cyc.zero().inverse()


def test_triples_roundtrip():
    assert Cyc.from_triples(3, [[2, 1, 1]]) == W**2
    for value in (W**2, -2 * W, Cyc.from_rational(Fraction(3, 7)), sqrt2()):
        n, _ = value.minimal_form()
        assert Cyc.from_triples(n, value.to_triples()) == value


def test_triples_at_declared_conductor():
    triples = W.to_triples_at(24)
    assert Cyc.from_triples(24, triples) == W


def test_rational_detection():
    assert (W + W**2).is_rational()
    assert (W + W**2).as_fraction() == -1
    assert not W.is_rational()
    with pytest.raises(ValueError):
        W.as_fraction()


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
conductors = st.sampled_from([1, 3, 4, 5, 8, 9, 12, 24])


@st.composite
def cyc_numbers(draw):
    n = draw(conductors)
    coeffs = draw(
        st.lists(small_fraction, min_size=1, max_size=min(n, 6))
    )
    return Cyc(n, coeffs)


@given(cyc_numbers(), cyc_numbers())
def test_product_matches_numeric_evaluation(a, b):
    exact = (a * b).evaluate()
    numeric = a.evaluate() * b.evaluate()
    assert abs(exact - numeric) < 1e-9


@given(cyc_numbers())
def test_norm_is_nonnegative_real(a):
    norm = a * a.conj()
    assert norm == norm.conj()  # real
    value = norm.evaluate()
    assert abs(value.imag) < 1e-9
    assert value.real >= -1e-9


@given(cyc_numbers(), cyc_numbers())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


@given(cyc_numbers(), st.sampled_from([1, 2, 3]))
def test_coercion_roundtrip(a, factor):
    n = a.minimal_form()[0]
    m = n * factor
    if m % 4 == 2:
        m *= 2
    up = a.to_conductor(m)
    assert up == a
    assert up.minimal_form() == a.minimal_form()


@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_evaluate_at_primitive_root():
    assert abs(W.evaluate() - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_str_forms():
    assert str(W**2) == "w^2"
    assert str(-2 * W) == "-2*w"
    assert str(Cyc.zero()) == "0"
    assert str(Cyc.from_rational(Fraction(1, 2))) == "1/2"
