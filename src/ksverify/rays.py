"""Projective rays in C^3 with exact canonical forms.

A Ray keeps the component triple it was built from (so certificates can
quote the source coordinates) together with a canonical representative
used for equality, hashing and ordering: the source divided by its first
nonzero component, times the least positive rational that makes every
minimal-form coefficient an integer.  So its lead is a positive integer,
its coefficients are integers with gcd 1, and any two scalar multiples of
one vector collapse to one Ray.  The unit search after that keeps this
triple, since only the unit 1 leaves the lead rational.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import lcm

from .cyclotomic import COEFFICIENT_BOUND, MAX_COEFFICIENT_DIGITS, Cyc


def _canonical_triple(components: tuple[Cyc, Cyc, Cyc]) -> tuple[Cyc, Cyc, Cyc]:
    first = next((c for c in components if not c.is_zero()), None)
    if first is None:
        raise ValueError("ray components must not all be zero")
    scaled = tuple(c / first for c in components)
    # clear denominators jointly; the lead is now 1, so the integer content is 1
    fracs = [x for c in scaled for x in c.minimal_form()[1]]
    factor = Fraction(lcm(*(f.denominator for f in fracs)))
    integral = tuple(c * factor for c in scaled)
    conductor = lcm(*(c.minimal_form()[0] for c in integral))
    one = Cyc.one()
    units = [Cyc.root_of_unity(conductor, k) for k in range(conductor)]
    if conductor % 2:  # at even m, -zeta_m^k is zeta_m^(k + m/2) already
        units += [-u for u in units]

    def candidate_key(triple):
        lead = next(c for c in triple if not c.is_zero())
        return (0 if lead == one else 1, tuple(c.sort_key() for c in triple))

    return min(
        (tuple(u * c for c in integral) for u in units), key=candidate_key
    )


class Ray:
    """A vector in C^3 up to a nonzero scalar, its canonical coefficients bounded."""

    __slots__ = ("components", "canonical", "_hash")

    def __init__(self, components) -> None:
        comps = tuple(Cyc._as_cyc(c) for c in components)
        if len(comps) != 3:
            raise ValueError("a ray has exactly 3 components")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "canonical", _canonical_triple(comps))
        if max(abs(x.numerator) for c in self.canonical
               for x in c.minimal_form()[1]) >= COEFFICIENT_BOUND:
            raise ValueError(f"a canonical ray coefficient has more than "
                             f"{MAX_COEFFICIENT_DIGITS} digits")
        object.__setattr__(self, "_hash", hash(self.canonical))

    def __setattr__(self, name, value):
        raise AttributeError("Ray values are immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ray):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return tuple(c.sort_key() for c in self.canonical)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.canonical) + ")"

    def __repr__(self) -> str:
        return f"Ray{self}"


def clip(value) -> str:
    """str(`value`) cut to about 80 characters, for an error or failure line
    that quotes it; a placeholder where str() refuses an int in it."""
    try:
        text = str(value)
    except ValueError:
        text = f"<more than {MAX_COEFFICIENT_DIGITS} digits>"
    return text if len(text) <= 80 else text[:76] + " ..."


def inner(v: Ray, u: Ray) -> Cyc:
    """Hermitian inner product <v|u> = sum conj(v_j) u_j on stored components."""
    total = Cyc.zero()
    for a, b in zip(v.components, u.components):
        total = total + a.conj() * b
    return total


def is_orthogonal(u: Ray, v: Ray) -> bool:
    return inner(u, v).is_zero()


class BasisViolation(namedtuple("BasisViolation", "index_a index_b product")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"pair ({self.index_a},{self.index_b}) has inner product {clip(self.product)}"


def validate_basis(rays) -> list[BasisViolation]:
    """Empty list iff the three rays are pairwise orthogonal."""
    rays = list(rays)
    if len(rays) != 3:
        raise ValueError("a basis must have exactly 3 rays")
    violations = []
    for i in range(3):
        for j in range(i + 1, 3):
            p = inner(rays[i], rays[j])
            if not p.is_zero():
                violations.append(BasisViolation(i, j, p))
    return violations


# a `*` only joins a coefficient to a root: '2*w', but not '2*', '*w' or '-*w'
_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?\d+(?:/\d+)?|[+-])?(?:(?<=\d)\*(?=[wz]))?"
    r"(?:(?P<sym>w|z(?P<n>\d+))(?:\^(?P<k>\d+))?)?$"
)


def _parse_component(text: str) -> Cyc:
    """Parse '1', '-2/3', 'w', '-w^2', '2*z8^3', '1+w' into a Cyc."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty component")
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"cannot parse component {text!r}")
    total = Cyc.zero()
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("sym") is None):
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        coef_text = m.group("coef")
        if coef_text in (None, "+", "-"):
            coef = Fraction(-1 if coef_text == "-" else 1)
        else:
            try:
                coef = Fraction(coef_text)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
        value = Cyc.from_rational(coef)
        if m.group("sym"):
            n = 3 if m.group("sym") == "w" else int(m.group("n"))
            k = int(m.group("k") or 1)
            value = value * Cyc.root_of_unity(n, k)
        total = total + value
    return total


def parse_ray(text: str) -> Ray:
    """Parse a ray literal like '(1,-w,w^2)'."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    parts = s.split(",")
    if len(parts) != 3:
        raise ValueError(f"a ray literal needs 3 components: {text!r}")
    return Ray(tuple(_parse_component(p) for p in parts))
