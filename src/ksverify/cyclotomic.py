"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is a Q-linear combination of powers of the primitive n-th root of
unity zeta_n, stored as a tuple of Fractions on the power basis
1, zeta, ..., zeta^(phi(n)-1) after reduction modulo the n-th cyclotomic
polynomial.  That representation is unique, so equality and hashing are
structural.  A value keeps the conductor it is built at, but `from_triples`
(all parsed and set-file input) reads conductor 2m, m odd, at m; equality
across conductors goes through the lazily computed `minimal_form`.

No floating point is used anywhere except the explicit `evaluate` helper,
which exists for numeric cross-checks and plotting.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (remainder must be zero)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q[i] = c // den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    assert all(c == 0 for c in num)
    return q


@functools.cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending powers, monic, degree phi(n)."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@functools.cache
def _power_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta_n^j reduced modulo Phi_n: n rows, j = 0 .. n - 1."""
    phi = _phi(n)
    cyclo = cyclotomic_polynomial(n)
    top = [Fraction(-c) for c in cyclo[:phi]]  # zeta^phi in lower powers
    table = []
    current = [Fraction(0)] * phi
    current[0] = Fraction(1)
    for _ in range(n):
        table.append(tuple(current))
        lead = current[phi - 1]
        shifted = [Fraction(0)] + current[: phi - 1]
        if lead:
            current = [shifted[i] + lead * top[i] for i in range(phi)]
        else:
            current = shifted
    return tuple(table)


def _reduce(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce a coefficient list on powers of zeta_n modulo Phi_n."""
    phi = _phi(n)
    table = _power_table(n)
    out = list(coeffs[:phi]) + [Fraction(0)] * (phi - min(phi, len(coeffs)))
    for j in range(phi, len(coeffs)):
        c = coeffs[j]
        if c:
            row = table[j % n]  # zeta^n = 1
            for i in range(phi):
                out[i] += c * row[i]
    return tuple(out)


@functools.cache
def _subfield_basis(n: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Columns: zeta_d^j (j < phi(d)) embedded into the conductor-n basis."""
    step = n // d
    table = _power_table(n)
    return tuple(table[step * j] for j in range(_phi(d)))


def _solve_in_subfield(
    n: int, d: int, target: tuple[Fraction, ...]
) -> tuple[Fraction, ...] | None:
    """Express `target` (conductor-n coeffs) over the conductor-d basis, if possible."""
    cols = _subfield_basis(n, d)
    rows, k = _phi(n), _phi(d)
    # Gaussian elimination on the augmented system [cols | target].
    aug = [[cols[j][i] for j in range(k)] + [target[i]] for i in range(rows)]
    piv_cols: list[int] = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][k]:
            return None  # inconsistent: target not in the subfield
    sol = [Fraction(0)] * k
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][k]
    return tuple(sol)


# The largest conductor the tests build, lcm(5, 8, 9).  Tables for conductor
# n hold O(n * phi(n)) Fractions, so an untrusted n is checked before them.
MAX_CONDUCTOR = 360


def check_conductor(n: int) -> int:
    """n, if 1 <= n <= MAX_CONDUCTOR; otherwise ValueError."""
    if not 1 <= n <= MAX_CONDUCTOR:
        raise ValueError(f"conductor {n} is outside 1..{MAX_CONDUCTOR}")
    return n


class Cyc:
    """An exact element of a cyclotomic field.

    Immutable and hashable; arithmetic between different conductors coerces
    to the lcm conductor.  `is_zero` and equality are exact.
    """

    __slots__ = ("n", "coeffs", "_minimal")

    def __init__(self, n: int, coeffs) -> None:
        check_conductor(n)
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", _reduce(n, coeffs))
        object.__setattr__(self, "_minimal", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc values are immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(value) -> "Cyc":
        return Cyc(1, [Fraction(value)])

    @staticmethod
    def root_of_unity(n: int, power: int = 1) -> "Cyc":
        """zeta_n^power."""
        return Cyc.from_triples(n, [(power, 1, 1)])

    @staticmethod
    def zero() -> "Cyc":
        return Cyc(1, [Fraction(0)])

    @staticmethod
    def one() -> "Cyc":
        return Cyc(1, [Fraction(1)])

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _as_cyc(value) -> "Cyc":
        if isinstance(value, Cyc):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyc.from_rational(value)
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")

    @staticmethod
    def _common(a: "Cyc", b: "Cyc") -> tuple[int, tuple, tuple]:
        if a.n == b.n:
            return a.n, a.coeffs, b.coeffs
        m = lcm(a.n, b.n)
        ac = a if a.n == m else a._embed(m)
        bc = b if b.n == m else b._embed(m)
        return m, ac.coeffs, bc.coeffs

    def _power_map(self, m: int, k: int) -> "Cyc":
        """zeta_n^j -> zeta_m^(k*j); both callers keep k*j distinct mod m."""
        out = [Fraction(0)] * check_conductor(m)
        for j, c in enumerate(self.coeffs):
            out[(k * j) % m] = c
        return Cyc(m, out)

    def _embed(self, m: int) -> "Cyc":
        return self._power_map(m, m // self.n)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Cyc":
        other = Cyc._as_cyc(other)
        n, a, b = Cyc._common(self, other)
        return Cyc(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other) -> "Cyc":
        other = Cyc._as_cyc(other)
        n, a, b = Cyc._common(self, other)
        return Cyc(n, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other) -> "Cyc":
        return Cyc._as_cyc(other) - self

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, [-c for c in self.coeffs])

    def __mul__(self, other) -> "Cyc":
        other = Cyc._as_cyc(other)
        n, a, b = Cyc._common(self, other)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyc(n, prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Cyc":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyc.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "Cyc":
        """Multiplicative inverse via extended Euclid against Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.n
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(n)]
        a = list(self.coeffs)

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        # extended gcd: s*a + t*Phi = r (constant), inverse = s / r
        r0, r1 = phi_poly, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while deg(r1) > 0:
            d0, d1 = deg(r0), deg(r1)
            while d0 >= d1:
                f = r0[d0] / r1[d1]
                for i in range(d1 + 1):
                    r0[d0 - d1 + i] -= f * r1[i]
                ln = d0 - d1 + len(s1)
                if len(s0) < ln:
                    s0 = s0 + [Fraction(0)] * (ln - len(s0))
                for i in range(len(s1)):
                    s0[d0 - d1 + i] -= f * s1[i]
                d0 = deg(r0)
            r0, r1 = r1, r0
            s0, s1 = s1, s0
        const = r1[0]
        if not const:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        inv = [c / const for c in s1]
        return Cyc(n, inv)

    def __truediv__(self, other) -> "Cyc":
        return self * Cyc._as_cyc(other).inverse()

    def __rtruediv__(self, other) -> "Cyc":
        return Cyc._as_cyc(other) * self.inverse()

    def conj(self) -> "Cyc":
        """Complex conjugation: zeta_n -> zeta_n^(-1), extended linearly."""
        return self._power_map(self.n, -1)

    # -- predicates and canonical data ----------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def minimal_form(self) -> tuple[int, tuple[Fraction, ...]]:
        """(conductor, coeffs) over the smallest cyclotomic field containing the value."""
        cached = self._minimal
        if cached is not None:
            return cached
        n = self.n
        result = (n, self.coeffs)
        if n > 1:
            for d in _divisors(n):
                if d == n or d % 4 == 2:
                    continue
                sol = _solve_in_subfield(n, d, self.coeffs)
                if sol is not None:
                    result = (d, sol)
                    break
        object.__setattr__(self, "_minimal", result)
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
            return self.coeffs == other.coeffs
        return self.minimal_form() == other.minimal_form()

    def __hash__(self) -> int:
        return hash(self.minimal_form())

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
        # n = 2m, m odd, is read at m: zeta_2m^p = (-1)^p * zeta_m^(p * (n // 4 + 1))
        m, k, s = (n // 2, n // 4 + 1, -1) if check_conductor(n) % 4 == 2 else (n, 1, 1)
        coeffs = [Fraction(0)] * m
        for power, num, den in triples:
            coeffs[power * k % m] += Fraction(s ** (power % 2) * num, den)
        return Cyc(m, coeffs)

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

    def _unit_rational_split(self) -> tuple[int, Fraction] | None:
        """(k, r) with self = r * zeta^k, if such a form exists."""
        d, _ = self.minimal_form()
        if d == 1:
            return (0, self.as_fraction())
        for k in range(1, d):
            cand = self * Cyc.root_of_unity(d, d - k)
            if cand.is_rational():
                return (k, cand.as_fraction())
        return None

    def __str__(self) -> str:
        d, coeffs = self.minimal_form()
        sym = "w" if d == 3 else f"z{d}"
        split = self._unit_rational_split()
        if split is not None:
            k, r = split
            if k == 0:
                return str(r)
            power = sym if k == 1 else f"{sym}^{k}"
            if r == 1:
                return power
            if r == -1:
                return f"-{power}"
            return f"{r}*{power}"
        terms = []
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
                continue
            power = sym if j == 1 else f"{sym}^{j}"
            if c == 1:
                terms.append(power)
            elif c == -1:
                terms.append(f"-{power}")
            else:
                terms.append(f"{c}*{power}")
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    def __repr__(self) -> str:
        return f"Cyc({self})"


def omega() -> Cyc:
    """The primitive cube root of unity."""
    return Cyc.root_of_unity(3, 1)


def sqrt2() -> Cyc:
    """sqrt(2) = zeta_8 + zeta_8^7, exact."""
    return Cyc.root_of_unity(8, 1) + Cyc.root_of_unity(8, 7)
