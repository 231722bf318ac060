"""Exact cyclotomic arithmetic: ring axioms, conjugation, coercion, and the
integer representation against per-coefficient Fraction arithmetic."""

import ast
import cmath
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import oracles
import pytest
from hypothesis import example, given, strategies as st

from ksverify import cyclotomic
from ksverify.cyclotomic import (
    MAX_COEFFICIENT_DIGITS,
    MAX_CONDUCTOR,
    Cyc,
    _phi,
    _power_table,
    cyclotomic_polynomial,
    omega,
    sqrt2,
)

W = omega()
W2 = W * W
ONE = Cyc.from_rational(1)


def zero_at(n: int) -> Cyc:
    """0 stored at conductor n."""
    return Cyc(n, [0] * _phi(n))


def cyc(n: int, coeffs, den: int = 1) -> Cyc:
    """sum(coeffs[j] * zeta_n^j) / den stored at conductor n, for int or
    Fraction coefficients, any number of them, and a nonzero int `den`."""
    triples = [[j, c.numerator, c.denominator * den]
               for j, c in enumerate(map(Fraction, coeffs)) if c]
    return Cyc.from_triples(n, triples) + zero_at(n)


def test_phi3_relation():
    assert (ONE + W + W * W).is_zero()


def test_conjugation_on_roots():
    assert W.conj() == W2
    assert ONE.conj() == ONE
    assert W2.conj() == W
    assert (-W).conj() == -W2


def test_product_of_unit_shifts():
    # oracle: |1 + w|^2 evaluated numerically equals 1
    numeric = (1 + W.evaluate()) * (1 + W2.evaluate())
    assert abs(numeric - 1) < 1e-12
    assert (ONE + W) * (ONE + W * W) == ONE


def test_is_zero_examples():
    assert (ONE + W + W2).is_zero()
    assert not (W - W2).is_zero()
    assert (W2 * W - ONE).is_zero()


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)


def test_cyclotomic_polynomials_and_phi_match_the_oracle():
    """The Moebius product against long division of x^n - 1, and phi(n)
    against the count of units mod n, at every conductor."""
    for n in range(1, MAX_CONDUCTOR + 1):
        assert cyclotomic_polynomial(n) == oracles.cyclotomic_polynomial_by_division(n)
        assert _phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
    for _ in range(2):  # a bad conductor is an error each time, never a cached value
        with pytest.raises(ValueError, match="conductor 361 is outside"):
            _phi(MAX_CONDUCTOR + 1)


def test_sqrt2_square():
    s2 = sqrt2()
    assert s2 * s2 == 2
    assert abs(s2.evaluate() - 2**0.5) < 1e-12


def test_mixed_conductor_arithmetic():
    s2 = sqrt2()
    assert (W + s2) - s2 == W
    prod = W * s2
    assert prod * prod == 2 * W2
    assert prod.minimal_form()[0] == 24


def test_even_conductor_normalizes_to_odd_half():
    zeta6 = Cyc.root_of_unity(6, 1)
    assert zeta6 == -W2
    assert zeta6.minimal_form()[0] == 3
    assert Cyc.root_of_unity(2, 1) == -1
    # a value built at 2m keeps it; minimal_form gives the odd-half form
    built = Cyc(6, [0, 1])
    assert built.n == 6 and built == zeta6
    assert str(built) == "-w^2" and hash(built) == hash(-W2)
    # input triples at 2m are read at m
    for n in (2, 6, 10, 14, 30, 90):
        for p in range(-2, n + 2):
            z = Cyc.root_of_unity(n, p)
            assert z.n == n // 2
            assert abs(z.evaluate() - cmath.exp(2j * cmath.pi * p / n)) < 1e-9
    # so mixing with an odd conductor stays below MAX_CONDUCTOR: lcm(7, 27) = 189
    z = Cyc.root_of_unity(14) * Cyc.root_of_unity(27)
    assert z.n == 189
    assert abs(z.evaluate() - cmath.exp(2j * cmath.pi * 41 / 378)) < 1e-9


def test_conductor_bound():
    assert MAX_CONDUCTOR == 360
    z, power = Cyc.root_of_unity(360, 7), ONE
    for _ in range(360):
        power *= z
    assert power == ONE
    for n in (-3, 0, 361):
        for make in (lambda: Cyc.root_of_unity(n), lambda: Cyc.from_triples(n, [[1, 1, 1]])):
            with pytest.raises(ValueError, match="outside 1..360"):
                make()
    with pytest.raises(ValueError, match="conductor 4199 is outside"):
        Cyc.root_of_unity(13) * Cyc.root_of_unity(17) * Cyc.root_of_unity(19)


def test_long_coefficient_lists_wrap_around():
    assert Cyc.from_triples(1, [[j, 1, 1] for j in range(3)]) == 3
    # 1 + w + w^2 + w^3 + w^4 = 1 + w
    assert Cyc.from_triples(3, [[j, 1, 1] for j in range(5)]) == -W2


def test_inverse_and_division():
    assert W.inverse() * W == ONE
    assert (ONE / (ONE + W)) * (ONE + W) == ONE
    with pytest.raises(ZeroDivisionError):
        Cyc.from_rational(0).inverse()


def test_triples_roundtrip():
    assert Cyc.from_triples(3, [[2, 1, 1]]) == W2
    for value in (W2, -2 * W, Cyc.from_rational(Fraction(3, 7)), sqrt2()):
        n, _ = value.minimal_form()
        assert Cyc.from_triples(n, value.to_triples_at(n)) == value


def test_triples_at_declared_conductor():
    triples = W.to_triples_at(24)
    assert Cyc.from_triples(24, triples) == W


def test_rational_detection():
    assert (W + W2).is_rational()
    assert (W + W2).as_fraction() == -1
    assert not W.is_rational()
    with pytest.raises(ValueError):
        W.as_fraction()


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)
CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 24]
conductors = st.sampled_from(CONDUCTORS)


@pytest.fixture(scope="module", autouse=True)
def warm_power_tables():
    """Build the power tables of every conductor that cyc_numbers reach.

    Sums and products coerce to lcms of CONDUCTORS (up to 360); building
    such a table on first use inside an example can exceed the hypothesis
    deadline on a slow host.
    """
    reachable = {1}
    for n in CONDUCTORS:
        reachable |= {lcm(m, n) for m in reachable}
    for n in reachable:
        _power_table(n)


@st.composite
def cyc_numbers(draw):
    n = draw(conductors)
    coeffs = draw(
        st.lists(small_fraction, min_size=1, max_size=min(n, 6))
    )
    return cyc(n, coeffs)


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


@given(cyc_numbers())
def test_conjugation_matches_numeric_evaluation(a):
    assert abs(a.conj().evaluate() - a.evaluate().conjugate()) < 1e-9


@given(cyc_numbers(), st.sampled_from([1, 2, 3]))
def test_coercion_roundtrip(a, factor):
    n = a.minimal_form()[0]
    m = n * factor
    up = cyc(*a.minimal_form()) + zero_at(m)
    assert up.n == m
    assert up == a and hash(up) == hash(a)
    assert up.minimal_form() == a.minimal_form()
    if a.is_rational():
        assert a == a.as_fraction() and hash(a) == hash(a.as_fraction())


@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
@example(cyc(5, [0, -4]), cyc(4, [0, 4]), cyc(9, [2, 2]))  # common conductor 180
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_rational_values_hash_as_their_fraction():
    assert {3: "x"}.get(Cyc.from_rational(3)) == "x"
    assert hash(W + W2) == hash(-1)
    assert {Fraction(-1, 3): "y"}[(W + W2) / 3] == "y"
    assert hash(sqrt2() * sqrt2() / 5) == hash(Fraction(2, 5))


def test_coefficients_must_be_exact():
    with pytest.raises(TypeError):
        W * 0.5
    with pytest.raises(ZeroDivisionError):
        Cyc.from_triples(3, [[0, 1, 0]])
    mixed = Cyc.from_triples(3, [[1, 1, 2], [1, 1, 3], [0, 1, -4]])
    assert mixed == W * Fraction(5, 6) - Fraction(1, 4)


def test_triples_bound_the_lcm_of_their_denominators():
    """The denominators' lcm may have MAX_COEFFICIENT_DIGITS digits, not one
    more; a 0 denominator still divides by zero."""
    assert MAX_COEFFICIENT_DIGITS == 4300
    top = 10**MAX_COEFFICIENT_DIGITS
    assert Cyc.from_triples(1, [[0, 1, top - 1], [0, 1, top - 1]]) == Fraction(2, top - 1)
    repunit = (top - 1) // 9  # 4,300 ones, prime to 9: lcm(9, repunit) = top - 1
    assert Cyc.from_triples(1, [[0, 1, 9], [0, 1, repunit]]) == Fraction(repunit + 9, top - 1)
    for triples in ([[0, 1, top]], [[0, 1, 2], [0, 1, top // 2 + 1]],
                    [[0, 1, 10**2499 + 1], [1, 1, 10**2499 + 3], [0, 1, 0]]):
        with pytest.raises(ValueError, match="denominators' lcm has more than 4300 digits"):
            Cyc.from_triples(3, triples)
    with pytest.raises(ZeroDivisionError):
        Cyc.from_triples(3, [[0, 1, 10**2499 + 1], [0, 1, 0]])


@given(cyc_numbers(), cyc_numbers())
def test_ring_operations_match_fraction_reference(a, b):
    m = lcm(a.n, b.n)
    ra = oracles.fraction_embed(a.n, m, oracles.fraction_coordinates(a))
    rb = oracles.fraction_embed(b.n, m, oracles.fraction_coordinates(b))
    for value, expected in (
        (a + b, tuple(x + y for x, y in zip(ra, rb))),
        (a - b, tuple(x - y for x, y in zip(ra, rb))),
        (a * b, oracles.fraction_product(m, ra, rb)),
    ):
        assert value.n == m
        assert oracles.fraction_coordinates(value) == expected


@given(cyc_numbers(), st.sampled_from([1, 2, 3]))
def test_conj_inverse_minimal_form_match_fraction_reference(a, factor):
    ra = oracles.fraction_coordinates(a)
    assert oracles.fraction_coordinates(a.conj()) == oracles.fraction_conj(a.n, ra)
    assert a.minimal_form() == oracles.fraction_minimal_form(a.n, ra)
    norm = a * a.conj()
    assert norm.minimal_form() == oracles.fraction_minimal_form(
        a.n, oracles.fraction_coordinates(norm))
    up = a + zero_at(a.n * factor)
    assert up.minimal_form() == oracles.fraction_minimal_form(
        up.n, oracles.fraction_coordinates(up))
    if not a.is_zero():
        assert oracles.fraction_coordinates(a.inverse()) == oracles.fraction_inverse(a.n, ra)


@pytest.mark.parametrize("n, d", [(360, 45), (189, 27), (120, 15), (90, 9)])
def test_minimal_form_matches_fraction_reference_at_high_conductors(n, d):
    # beyond the conductors cyc_numbers reach: a value of Q(zeta_d) embedded
    # at n, and one that needs all of Q(zeta_n) (Q(zeta_45) at n = 90)
    rng = random.Random(n)
    sub = Cyc(d, [rng.randint(-3, 3) for _ in range(_phi(d))], 4) + zero_at(n)
    full = Cyc(n, [rng.randint(-3, 3) for _ in range(_phi(n))], 6)
    for value, conductor in ((sub, d), (full, n // 2 if n % 4 == 2 else n)):
        assert value.n == n
        assert value.minimal_form() == oracles.fraction_minimal_form(
            n, oracles.fraction_coordinates(value))
        assert value.minimal_form()[0] == conductor


@given(cyc_numbers(), cyc_numbers())
def test_representation_is_unique_and_in_lowest_terms(a, b):
    values = [a, b, a + b, a - b, a * b, -a, a.conj()]
    if not a.is_zero():
        values.append(a.inverse())
    for value in values:
        assert value.den > 0
        assert gcd(value.den, *value.num) == 1
        assert len(value.num) == len(cyclotomic_polynomial(value.n)) - 1
    m = lcm(a.n, b.n)
    x, y = (a + b) - b, a + zero_at(m)  # one value, two ways, at conductor m
    assert x.n == y.n == m
    assert (x.num, x.den) == (y.num, y.den)
    ab, ba = a * b, b * a
    assert (ab.num, ab.den) == (ba.num, ba.den)


def test_monomial_inverse_at_every_conductor():
    # The Fraction oracle solves a phi(n) x phi(n) system, so it runs where
    # phi(n) <= 16; x * x^-1 == 1, which fixes x^-1, is checked everywhere.
    rng = random.Random(25)
    for n in range(1, MAX_CONDUCTOR + 1):
        den = rng.randint(2, 9)
        r = Fraction(-rng.choice([k for k in range(1, 12) if gcd(k, den) == 1]), den)
        j = rng.randrange(n)
        x = cyc(n, [0] * j + [r])  # r * zeta_n^j
        inv = x.inverse()
        assert inv.n == n and x * inv == 1
        if _phi(n) <= 16:
            assert oracles.fraction_coordinates(inv) == oracles.fraction_inverse(
                n, oracles.fraction_coordinates(x))


def test_only_a_non_monomial_inverse_runs_euclid(monkeypatch):
    """A unit r * zeta_n^k inverts from one power-table row at every
    conductor, k >= phi(n) (a whole reduced row) included; Euclid, the one
    reader of Phi_n once the tables are built, runs only for a non-unit."""
    import ksverify.cyclotomic as cyclotomic

    calls = []
    polynomial = cyclotomic.cyclotomic_polynomial
    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial",
                        lambda n: calls.append(n) or polynomial(n))
    rng = random.Random(26)
    for n in range(1, MAX_CONDUCTOR + 1):
        _power_table(n)  # built, so only Euclid reads Phi_n from here on
        calls.clear()
        for k in (0, rng.randrange(n), n - 1):  # n - 1 >= phi(n) for n > 1
            r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            value = cyc(n, [0] * k + [r])
            assert value * value.inverse() == 1
        assert calls == []
    for n in (3, 8, 24):
        calls.clear()
        value = cyc(n, [1, 0, 2])
        assert value * value.inverse() == 1 and calls == [n]


def test_evaluate_at_primitive_root():
    assert abs(W.evaluate() - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_str_forms():
    assert str(W2) == "w^2"
    assert str(-2 * W) == "-2*w"
    assert str(Cyc.from_rational(0)) == "0"
    assert str(Cyc.from_rational(Fraction(1, 2))) == "1/2"
    # zeta_4^3 = -zeta_4: the first power in row order wins
    assert str(Cyc.root_of_unity(4, 3)) == "-z4"
    assert str(Cyc.root_of_unity(5, 4) / 2) == "1/2*z5^4"
    assert str(Fraction(-3, 2) * W2) == "-3/2*w^2"
    assert str(sqrt2()) == "z8-z8^3"
    assert str(W - 1) == "-1+w"


def display_reference(value: Cyc) -> str:
    """The display string from the oracle's unit form, else the power-basis terms."""
    n, ref = value.n, tuple(Fraction(x, value.den) for x in value.num)
    d, coeffs = oracles.fraction_minimal_form(n, ref)
    sym = "w" if d == 3 else f"z{d}"

    def term(r, k):
        if k == 0:
            return str(r)
        power = sym if k == 1 else f"{sym}^{k}"
        return {1: power, -1: "-" + power}.get(r, f"{r}*{power}")

    unit = oracles.fraction_unit_form(n, ref)
    if unit is not None:
        return term(unit[2], unit[1])
    terms = [term(c, k) for k, c in enumerate(coeffs) if c]
    return terms[0] + "".join(t if t[0] == "-" else "+" + t for t in terms[1:])


@st.composite
def display_values(draw):
    """Unit multiples r*zeta_n^k, sums of two signed roots, or random vectors."""
    n = draw(st.sampled_from([3, 4, 5, 8, 9, 12, 15, 24]))
    coeffs = [0] * n
    kind = draw(st.sampled_from(["unit", "two roots", "vector"]))
    if kind == "unit":
        coeffs[draw(st.integers(0, n - 1))] = draw(small_fraction.filter(bool))
    elif kind == "two roots":
        for _ in range(2):
            coeffs[draw(st.integers(0, n - 1))] += draw(st.sampled_from([1, -1]))
    else:
        coeffs = draw(st.lists(small_fraction, min_size=1, max_size=n))
    return cyc(n, coeffs)


@given(display_values())
@example(Cyc.root_of_unity(4, 3))
@example(Cyc.root_of_unity(24, 21) * 3)
@example(Cyc(8, [0, 1, 0, -1]))
def test_str_matches_unit_form_reference(value):
    assert str(value) == display_reference(value)


# `bench/test_counters.py` pins how many Cyc values a `game new33` run
# builds (cyclotomic.Cyc.calls).  These invariants keep that count: each
# operation builds its result once, already reduced, and the canonical-data
# queries build nothing.


@pytest.fixture
def built(monkeypatch):
    """The conductor of every Cyc built from here on, in order."""
    conductors = []
    init = Cyc.__init__

    def counting(self, n, *args, **kwargs):
        conductors.append(n)
        init(self, n, *args, **kwargs)

    monkeypatch.setattr(Cyc, "__init__", counting)
    return conductors


def samples(n: int) -> list[Cyc]:
    """A sparse, a dense, a rational and a non-integral value at conductor n."""
    return [cyc(n, [1, 2]), cyc(n, list(range(1, n + 1))), cyc(n, [Fraction(3, 4)]),
            cyc(n, [2, 0, -1], 3)]


@pytest.mark.parametrize("n", CONDUCTORS)
def test_each_operation_builds_one_value(n, built):
    a, b, _, c = samples(n)
    ops = {"+": lambda: a + b, "-": lambda: a - c, "*": lambda: b * c,
           "conj": a.conj, "inverse": c.inverse}
    for name, op in ops.items():
        built.clear()
        op()
        assert built == [n], name


@pytest.mark.parametrize("n", CONDUCTORS)
def test_canonical_queries_build_no_value(n, built):
    values = samples(n) + samples(lcm(n, 3))
    built.clear()
    for v in values:  # the minimal forms are not cached yet
        v.minimal_form()
        v.sort_key()
        hash(v)
    for u in values:
        for v in values:
            assert (u == v) == (u.minimal_form() == v.minimal_form())
    assert built == []


@pytest.mark.parametrize("n", CONDUCTORS)
def test_str_builds_no_value(n, built):
    values = samples(n) + samples(lcm(n, 3)) + [Cyc.root_of_unity(n, k) for k in range(n)]
    built.clear()
    for v in values:  # the minimal forms are not cached yet
        str(v)
    assert built == []


@pytest.mark.parametrize("n", CONDUCTORS)
def test_rational_minimal_form_is_its_constant_term(n):
    for r in (Fraction(0), Fraction(1), Fraction(-7, 3)):
        assert cyc(n, [r]).minimal_form() == (1, (r,))
    if n % 3 == 0:
        w, w2 = cyc(n, [0] * (n // 3) + [1]), cyc(n, [0] * (2 * n // 3) + [1])
        assert w.n == w2.n == n and not w.is_rational()
        assert (w * w2).minimal_form() == (1, (Fraction(1),))


def is_reduced(value: Cyc) -> bool:
    """phi(n) int numerators over a positive int, gcd 1."""
    return (len(value.num) == _phi(value.n) and all(type(c) is int for c in value.num)
            and type(value.den) is int and value.den > 0 and gcd(value.den, *value.num) == 1)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 9, 10, 24, 30, 90])
def test_from_triples_builds_one_reduced_value(n, built):
    """Powers past phi(m) and negative, negative triple denominators, and a
    conductor 2m (m odd), read at m, against the Fraction reference."""
    rng = random.Random(n)
    m = n // 2 if n % 4 == 2 else n
    for _ in range(25):
        triples = [[rng.randrange(-n, 3 * n), rng.randint(-9, 9),
                    rng.choice([-12, -5, -2, -1, 1, 3, 4])] for _ in range(rng.randint(0, 6))]
        coeffs = [Fraction(0)] * n
        for p, num, den in triples:
            coeffs[p % n] += Fraction(num, den)
        built.clear()
        value = Cyc.from_triples(n, triples)
        assert built == [m] and value.n == m and is_reduced(value)
        assert value.minimal_form() == oracles.fraction_minimal_form(
            n, oracles.fraction_reduce(n, coeffs))


def test_from_rational_builds_one_reduced_value(built):
    for r in (0, 1, -7, Fraction(-6, 4), Fraction(5), Fraction(0, 3)):
        built.clear()
        value = Cyc.from_rational(r)
        assert built == [1] and is_reduced(value)
        assert (value.num, value.den) == ((Fraction(r).numerator,), Fraction(r).denominator)
        assert value == r and hash(value) == hash(r)


def test_only_cyclotomic_calls_the_constructor():
    """Every other module builds values through the `from_*` helpers,
    `root_of_unity` and the ring operations."""
    callers = []
    for path in sorted(Path(cyclotomic.__file__).parent.glob("*.py")):
        if path.name == "cyclotomic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "Cyc"
                    or getattr(node.func, "attr", None) == "Cyc"):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []
