"""Majorana (stellar) representation: each ray becomes two sphere points.

A spin-1 state with components (c0, c1, c2) maps to the roots of the
quadratic c0*t^2 - sqrt(2)*c1*t + c2; each root goes to the sphere by
inverse stereographic projection with t = 0 at the north pole and the
point at infinity (from degree drop) at the south pole.  The three pole
anchors (1,0,0) -> north/north, (0,1,0) -> north/south, (0,0,1) ->
south/south pin the convention.

This is the only module that uses floating point; degree drops and
double roots are still decided by exact zero tests on the components.
"""

from __future__ import annotations

import math

from .colorability import KSInstance
from .rays import Ray, clip

CONVENTION = (
    "quadratic c0*t^2 - sqrt(2)*c1*t + c2; roots to sphere by inverse "
    "stereographic projection, t=0 -> north pole (0,0,1), infinity -> south pole"
)

_SOUTH = (0.0, 0.0, -1.0)


def _to_sphere(t: complex) -> tuple[float, float, float]:
    try:
        s = abs(t) ** 2
    except OverflowError:  # a huge root: the same point through u = 1/t
        u = 1 / t
        s = abs(u) ** 2
        return (2.0 * u.real / (1.0 + s), -2.0 * u.imag / (1.0 + s), (s - 1.0) / (1.0 + s))
    return (2.0 * t.real / (1.0 + s), 2.0 * t.imag / (1.0 + s), (1.0 - s) / (1.0 + s))


def double_star(r: Ray) -> bool:
    """Whether the two points of `r` coincide, decided exactly: the
    discriminant 2*(c1^2 - 2*c0*c2) is zero (with c0 = c1 = 0 both roots
    are at infinity)."""
    c0, c1, c2 = r.canonical
    return (c1 * c1 - 2 * c0 * c2).is_zero()


def majorana_points(
    r: Ray,
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """The unordered point pair, returned in lexicographic coordinate order;
    a double star is one point, returned twice."""
    import cmath

    c0, c1, c2 = r.canonical
    v0, v1, v2 = c0.evaluate(), c1.evaluate(), c2.evaluate()
    scale = max(abs(v0), abs(v1), abs(v2))
    a, b, c = v0 / scale, -math.sqrt(2.0) * v1 / scale, v2 / scale
    if double_star(r):
        # the root -b/(2a), as v1/(sqrt(2)*v0): no sign flip, so a zero root is +0
        point = _SOUTH if c0.is_zero() else _to_sphere(v1 / (math.sqrt(2.0) * v0))
        points = [point, point]
    elif c0.is_zero():
        points = [_to_sphere(-c / b), _SOUTH]
    else:
        disc = cmath.sqrt(b * b - 4.0 * a * c)
        points = [_to_sphere((-b + disc) / (2.0 * a)),
                  _to_sphere((-b - disc) / (2.0 * a))]
    points.sort()
    return (points[0], points[1])


def export_majorana(inst: KSInstance, path: str) -> list:
    """The (path, lines) pair of the CSV: a convention line, a header, then one
    row per (ray, point) as the csv module writes it (CRLF-ended; the ray,
    with commas and never a quote, quoted).  Every line is built before any
    file opens, so a ray beyond float range raises ValueError and no file is written."""
    lines = [f"# {CONVENTION}\n", "ray_index,ray,point_index,x,y,z\r\n"]
    for i, ray in enumerate(inst.graph.vertices):
        try:
            points = majorana_points(ray)
        except OverflowError:
            raise ValueError(f"{inst.name}: ray {clip(ray)} is beyond "
                             "floating-point range") from None
        lines += (f'{i},"{ray}",{k},{x:.15g},{y:.15g},{z:.15g}\r\n'
                  for k, (x, y, z) in enumerate(points, start=1))
    return [(path, lines)]


def majorana_report(inst: KSInstance, path: str) -> tuple[dict, list[str], list]:
    """The `majorana` pipeline: the CSV of `export_majorana`, as the file `path`."""
    n = inst.graph.n
    lines = inst.note_lines() + [f"{inst.name}: wrote {2 * n} sphere points ({n} rays) to {path}"]
    return {inst.name: {"sphere_points": 2 * n}}, lines, export_majorana(inst, path)
