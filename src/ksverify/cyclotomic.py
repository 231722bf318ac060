"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is a Q-linear combination of powers of the primitive n-th root of
unity zeta_n, stored as integer numerators on the power basis
1, zeta, ..., zeta^(phi(n)-1) over one positive denominator, in lowest
terms, after reduction modulo the n-th cyclotomic polynomial.  Phi_n is
monic, so reduction, sums, products and conjugation stay in integers.  That
representation is unique, so equality at one conductor is structural.
`Cyc(n, num, den)`, the one constructor, takes that form as given and only
divides out the gcd; values come from `Cyc.from_rational`,
`Cyc.from_triples`, `Cyc.root_of_unity` and the ring operations.  A value
keeps the conductor it is built at, but `from_triples` (all parsed and
set-file input) reads conductor 2m, m odd, at m; equality across conductors
and hashing go through the lazily computed `minimal_form`, whose
coefficients are Fractions.

No floating point is used anywhere except the explicit `evaluate` helper,
which exists for numeric cross-checks and plotting.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm


@functools.cache
def _primes(n: int) -> tuple[int, ...]:
    """The primes dividing n, ascending, by trial division."""
    return tuple(p for p in range(2, n + 1) if not n % p and all(p % q for q in range(2, p)))


@functools.cache
def _phi(n: int) -> int:
    """phi(n) = n * prod(1 - 1/p) of a conductor; ValueError, not cached, for a bad one."""
    phi = check_conductor(n)
    for p in _primes(n):
        phi -= phi // p
    return phi


@functools.cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending powers, monic, degree phi(n).

    For n > 1, Phi_n(x) = prod over squarefree d | n of (1 - x^(n/d))^mu(d),
    taken mod x^(phi(n)+1): multiplying by 1 - x^k is a running difference
    with stride k, dividing by it a running sum.
    """
    if n == 1:
        return (-1, 1)
    poly = [1] + [0] * _phi(n)
    strides = [(n, 1)]  # (n/d, mu(d)) for the squarefree divisors d of n
    for p in _primes(n):
        strides += [(k // p, -mu) for k, mu in strides]
    for k, mu in strides:
        if mu > 0:  # times 1 - x^k, high powers first
            for i in range(len(poly) - 1, k - 1, -1):
                poly[i] -= poly[i - k]
        else:  # over 1 - x^k, low powers first
            for i in range(k, len(poly)):
                poly[i] += poly[i - k]
    return tuple(poly)


@functools.cache
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta_n^j reduced modulo Phi_n, for j = 0 .. n - 1.

    Row j lists the (i, c) with c != 0 the coefficient of zeta^i.  Phi_n is
    monic, so every c is an integer.
    """
    phi = _phi(n)
    top = [-c for c in cyclotomic_polynomial(n)[:phi]]  # zeta^phi in lower powers
    table = []
    current = [1] + [0] * (phi - 1)
    for _ in range(n):
        table.append(tuple((i, c) for i, c in enumerate(current) if c))
        lead = current[-1]
        current = [s + lead * t for s, t in zip([0] + current[:-1], top)]
    return tuple(table)


def _unit(n: int, coeffs) -> tuple[Fraction, int] | None:
    """(r, k) if the value with power-basis coefficients `coeffs` (ints or
    Fractions) is r * zeta_n^k, that is, r times power-table row k; the first
    such k, since at even n -zeta^k is also zeta^(k+n/2).  Else None."""
    support = len(coeffs) - coeffs.count(0)
    for k, row in enumerate(_power_table(n)):
        if len(row) == support:
            i, t = row[0]
            c = coeffs[i]
            if c and all(coeffs[j] * t == c * s for j, s in row):
                return Fraction(c, t), k
    return None


def _reduce(n: int, coeffs: list[int]) -> list[int]:
    """Reduce integer coefficients on powers of zeta_n, at least phi(n) of
    them, modulo Phi_n."""
    phi = _phi(n)
    table = _power_table(n)
    out = coeffs[:phi]
    for j in range(phi, len(coeffs)):
        c = coeffs[j]
        if c:
            for i, t in table[j % n]:  # zeta^n = 1
                out[i] += c * t
    return out


# The largest conductor the tests build, lcm(5, 8, 9).  Tables for conductor
# n hold O(n * phi(n)) integers, so an untrusted n is checked before them.
MAX_CONDUCTOR = 360

# The most decimal digits of a canonical ray's coefficient, checked by every
# `rays.Ray` so that every Ray prints (str(int) refuses longer ints,
# sys.int_info.default_max_str_digits), and of the denominator that
# `from_triples` builds a value over, so parsing a set file stays cheap.
MAX_COEFFICIENT_DIGITS = 4300
COEFFICIENT_BOUND = 10**MAX_COEFFICIENT_DIGITS


def check_conductor(n: int) -> int:
    """n, if 1 <= n <= MAX_CONDUCTOR; otherwise ValueError."""
    if not 1 <= n <= MAX_CONDUCTOR:
        raise ValueError(f"conductor {n} is outside 1..{MAX_CONDUCTOR}")
    return n


class Cyc:
    """An exact element of a cyclotomic field.

    Immutable and hashable; arithmetic between different conductors coerces
    to the lcm conductor.  `is_zero` and equality are exact.  The value is
    sum(num[j] * zeta_n^j) / den with integer `num` of length phi(n), `den`
    positive and gcd(den, *num) == 1.  Build one with a `from_*` helper,
    `root_of_unity` or a ring operation, not with the constructor.
    """

    __slots__ = ("n", "num", "den", "_minimal")

    def __init__(self, n: int, num: list[int], den: int = 1) -> None:
        """The value sum(num[j] * zeta_n^j) / den.

        `num` is phi(n) ints, already reduced modulo Phi_n, and `den` a
        positive int; only their gcd is taken out, and nothing is checked.
        """
        if den != 1 and (g := gcd(den, *num)) != 1:
            num = [c // g for c in num]
            den //= g
        _set_n(self, n)
        _set_num(self, tuple(num))
        _set_den(self, den)
        _set_minimal(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc values are immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(value) -> "Cyc":
        """An int or Fraction as a conductor-1 value."""
        return Cyc(1, [value.numerator], value.denominator)

    @staticmethod
    def root_of_unity(n: int, power: int = 1) -> "Cyc":
        """zeta_n^power."""
        return Cyc.from_triples(n, [(power, 1, 1)])

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _as_cyc(value) -> "Cyc":
        if isinstance(value, Cyc):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyc.from_rational(value)
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")

    def _common(self, other) -> tuple[int, "Cyc", "Cyc"]:
        """The lcm conductor m, and self and `other` (a Cyc, int or Fraction) at m."""
        if type(other) is not Cyc:
            other = Cyc._as_cyc(other)
        if self.n == other.n:
            return self.n, self, other
        m = lcm(self.n, other.n)
        a = self if self.n == m else self._power_map(m, m // self.n)
        b = other if other.n == m else other._power_map(m, m // other.n)
        return m, a, b

    def _power_map(self, m: int, k: int) -> "Cyc":
        """zeta_n^j -> zeta_m^(k*j), written on the phi(m) powers of zeta_m."""
        out = [0] * _phi(m)
        table = _power_table(m)
        for j, c in enumerate(self.num):
            if c:
                for i, t in table[k * j % m]:
                    out[i] += c * t
        return Cyc(m, out, self.den)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other, sign: int = 1) -> "Cyc":
        n, a, b = self._common(other)
        if a.den == b.den:
            return Cyc(n, [x + sign * y for x, y in zip(a.num, b.num)], a.den)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        return Cyc(n, [fa * x + fb * y for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __sub__(self, other) -> "Cyc":
        return self.__add__(other, -1)

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, [-c for c in self.num], self.den)

    def __mul__(self, other) -> "Cyc":
        n, a, b = self._common(other)
        table = _power_table(n)
        bs = [(j, y) for j, y in enumerate(b.num) if y]
        out = [0] * len(a.num)
        for i, x in enumerate(a.num):
            if x:
                for j, y in bs:
                    xy = x * y
                    for k, t in table[(i + j) % n]:  # zeta^(i+j) on the phi(n) powers
                        out[k] += xy * t
        return Cyc(n, out, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Multiplicative inverse; a unit from one power-table row, else Euclid.

        A unit (r / den) * zeta^k (see `_unit`) is inverted as (den / r) *
        zeta^(-k).  Otherwise fraction-free extended Euclid against Phi_n
        keeps s_i * num == r_i (mod Phi_n) with integer polynomials, trailing
        zeros trimmed, each pair (r_i, s_i) divided by its content.  When r_1
        is a constant c, 1 / (num / den) = den * s_1 / c, of degree < phi(n).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n, phi = self.n, len(self.num)
        if (unit := _unit(n, self.num)) is not None:
            r, k = unit
            p, q = r.as_integer_ratio()
            scale = self.den * q if p > 0 else -self.den * q
            out = [0] * phi
            for i, t in _power_table(n)[-k % n]:
                out[i] = scale * t
            return Cyc(n, out, abs(p))

        def trim(p):
            while len(p) > 1 and not p[-1]:
                p.pop()
            return p

        r0, r1 = list(cyclotomic_polynomial(n)), trim(list(self.num))
        s0, s1 = [0], [1]
        while len(r1) > 1:
            while len(r0) >= len(r1):
                shift = len(r0) - len(r1)
                lead, f = r1[-1], r0[-1]
                s0 += [0] * (shift + len(s1) - len(s0))
                r0 = [lead * x for x in r0]
                s0 = [lead * x for x in s0]
                for i, y in enumerate(r1):
                    r0[shift + i] -= f * y
                for i, y in enumerate(s1):
                    s0[shift + i] -= f * y
                g = gcd(*r0, *s0)
                r0 = trim([x // g for x in r0])
                s0 = [x // g for x in s0]
            r0, r1, s0, s1 = r1, r0, s1, s0
        scale = self.den if r1[0] > 0 else -self.den
        out = [scale * x for x in trim(s1)]
        out += [0] * (phi - len(out))
        return Cyc(n, out, abs(r1[0]))

    def __truediv__(self, other) -> "Cyc":
        return self * Cyc._as_cyc(other).inverse()

    def conj(self) -> "Cyc":
        """Complex conjugation: zeta_n -> zeta_n^(-1), extended linearly."""
        return self._power_map(self.n, -1)

    # -- predicates and canonical data ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def minimal_form(self) -> tuple[int, tuple[Fraction, ...]]:
        """(conductor, coeffs) over the smallest cyclotomic field containing the value.

        One pass over the primes p of n, each descending to m = n/p while the
        value lies in Q(zeta_m).  A prime that fails at n fails at every
        divisor of n, and Q(zeta_a) meets Q(zeta_b) in Q(zeta_gcd(a,b)), so the
        pass ends at the least conductor.  Integers only, same denominator.
        """
        cached = self._minimal
        if cached is not None:
            return cached
        n, num, den = self.n, self.num, self.den
        if not any(num[1:]):  # the power basis starts with 1: a rational value
            n, num = 1, num[:1]
        for p in _primes(n):
            while n % p == 0 and n != p:  # at n = p only a rational lies in Q
                m = n // p
                if m % p == 0:  # Phi_n(x) = Phi_m(x^p): basis zeta_n^i * zeta_m^k, i < p
                    if any(any(num[i::p]) for i in range(1, p)):
                        break
                    num = num[::p]
                else:  # zeta_n^j = zeta_m^(j*u) * zeta_p^(j*w), gcd(m, p) = 1
                    u, w = pow(p, -1, m), pow(m, -1, p)
                    parts = [[0] * m for _ in range(p)]
                    for j, c in enumerate(num):
                        if c:
                            parts[j * w % p][j * u % m] += c
                    # the value is sum(A_k * zeta_p^k), A_k in Q(zeta_m), and
                    # 1 + zeta_p + ... + zeta_p^(p-1) = 0 is the only relation
                    a1 = _reduce(m, parts[1])
                    if any(_reduce(m, a) != a1 for a in parts[2:]):
                        break
                    num = [x - y for x, y in zip(_reduce(m, parts[0]), a1)]
                n = m
        result = (n, tuple(Fraction(x, den) for x in num))
        _set_minimal(self, result)
        return result

    def is_rational(self) -> bool:
        return self.minimal_form()[0] == 1

    def as_fraction(self) -> Fraction:
        d, coeffs = self.minimal_form()
        if d != 1:
            raise ValueError(f"{self} is not rational")
        return coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.n == other.n:  # the reduced form at one conductor is unique
            return self.num == other.num and self.den == other.den
        return self.minimal_form() == other.minimal_form()

    def __hash__(self) -> int:
        """A rational value hashes as its Fraction, since it compares equal to it."""
        d, coeffs = self.minimal_form()
        return hash(coeffs[0]) if d == 1 else hash((d, coeffs))

    def sort_key(self):
        """Deterministic total-order key across all values.

        Conductor first, then the coefficients, each ordered 0, 1, -1, 2,
        -2, ... and then proper fractions.
        """
        d, coeffs = self.minimal_form()
        return (d, tuple(
            (c.denominator, abs(c.numerator), c.numerator < 0) for c in coeffs))

    # -- I/O -----------------------------------------------------------------

    def to_triples_at(self, n: int) -> list[list[int]]:
        """Triples with powers re-expressed for a declared conductor n."""
        d, coeffs = self.minimal_form()
        if n % d:
            raise ValueError(f"{self} does not lie in Q(zeta_{n})")
        step = n // d
        return [
            [j * step, c.numerator, c.denominator]
            for j, c in enumerate(coeffs)
            if c != 0
        ]

    @staticmethod
    def from_triples(n: int, triples) -> "Cyc":
        """sum(num / den * zeta_n^power) over int triples (power, num, den), den != 0;
        ValueError, before any coefficient is built, when the denominators' lcm
        has more than MAX_COEFFICIENT_DIGITS digits."""
        # n = 2m, m odd, is read at m: zeta_2m^p = (-1)^p * zeta_m^(p * (n // 4 + 1))
        m, k, s = (n // 2, n // 4 + 1, -1) if check_conductor(n) % 4 == 2 else (n, 1, 1)
        terms = [(p * k % m, s ** (p % 2) * num, den) for p, num, den in triples]
        den = 1
        for t in terms:
            den = lcm(den, t[2])
            if den >= COEFFICIENT_BOUND:
                raise ValueError(f"the denominators' lcm has more than "
                                 f"{MAX_COEFFICIENT_DIGITS} digits")
        if not den:
            raise ZeroDivisionError("a triple has denominator 0")
        coeffs = [0] * m
        for j, num, d in terms:
            coeffs[j] += num * (den // d)
        return Cyc(m, _reduce(m, coeffs), den)

    def evaluate(self) -> complex:
        """Floating-point value at zeta_d = exp(2*pi*i/d), d the minimal conductor.

        The minimal form depends on the value alone, so equal values give
        equal floats whatever conductor they are stored at.
        """
        import cmath

        d, coeffs = self.minimal_form()
        zeta = cmath.exp(2j * cmath.pi / d)
        return sum(float(c) * zeta**j for j, c in enumerate(coeffs))

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        """The value as r*zeta_d^k if it is one (see `_unit`), else as its
        power-basis terms; d is the minimal conductor."""
        d, coeffs = self.minimal_form()
        if d == 1:
            return str(coeffs[0])
        sym = "w" if d == 3 else f"z{d}"

        def term(r: Fraction, k: int) -> str:
            if k == 0:
                return str(r)
            power = sym if k == 1 else f"{sym}^{k}"
            return power if r == 1 else f"-{power}" if r == -1 else f"{r}*{power}"

        if (unit := _unit(d, coeffs)) is not None:
            return term(*unit)
        out = ""
        for j, c in enumerate(coeffs):
            if c:
                t = term(c, j)
                out += t if not out or t.startswith("-") else "+" + t
        return out

    def __repr__(self) -> str:
        return f"Cyc({self})"


# The slot setters, which bypass the immutability guard of Cyc.__setattr__.
_set_n, _set_num, _set_den, _set_minimal = (Cyc.__dict__[s].__set__ for s in Cyc.__slots__)


def omega() -> Cyc:
    """The primitive cube root of unity."""
    return Cyc.root_of_unity(3, 1)


def sqrt2() -> Cyc:
    """sqrt(2) = zeta_8 + zeta_8^7, exact."""
    return Cyc.root_of_unity(8, 1) + Cyc.root_of_unity(8, 7)
