"""Qutrit Weyl-Heisenberg generators acting on rays.

X is the cyclic shift, Z the phase matrix diag(1, w, w^2) with w the
primitive cube root of unity.  Actions are computed on canonical ray
components and re-canonicalized, so orbits live entirely in Q(zeta_3)
with no normalization factors.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .catalog import BUILTIN_NAMES, builtin_rays
from .cyclotomic import omega
from .rays import Ray, clip, inner, parse_ray


def apply(label: str, r: Ray) -> Ray:
    """The ray of generator `label` applied to the canonical components of `r`:
    X maps (a,b,c) to (c,a,b), Z maps it to (a,w*b,w^2*c)."""
    a, b, c = r.canonical
    if label == "X":
        return Ray((c, a, b))
    w = omega()
    return Ray((a, w * b, w * w * c))


def orbit_closure(seed, gens) -> tuple[Ray, ...]:
    """Least set of rays containing `seed` and closed under the generators
    labelled in `gens`, each "X" or "Z"; ValueError for any other label."""
    for label in gens:
        if label not in ("X", "Z"):
            raise ValueError(f"unknown generator {label!r}; expected 'X' or 'Z'")
    closed = set(seed)
    frontier = list(closed)
    while frontier:
        nxt = []
        for ray in frontier:
            for g in gens:
                image = apply(g, ray)
                if image not in closed:
                    closed.add(image)
                    nxt.append(image)
        frontier = nxt
    return tuple(sorted(closed, key=Ray.sort_key))


class SicReport(namedtuple("SicReport", "is_sic rays overlaps failures")):
    """`overlaps` is the table of normalized |<u|v>|^2."""

    __slots__ = ()


def is_sic_povm(rays) -> SicReport:
    """Check the d=3 SIC condition: nine rays, all cross overlaps 1/4.

    Exact test on unnormalized rays: 4 |<u|v>|^2 = |u|^2 |v|^2 for all
    distinct pairs (the normalized overlap-squared then equals 1/(d+1)).
    """
    rays = tuple(sorted(set(rays), key=Ray.sort_key))
    failures = []
    if len(rays) != 9:
        failures.append(f"expected 9 distinct rays, got {len(rays)}")
    norms = [inner(r, r) for r in rays]
    # |<u|v>|^2 is symmetric: each unordered pair's overlap fills both cells
    table = [[None] * len(rays) for _ in rays]
    for i, u in enumerate(rays):
        for j in range(i, len(rays)):
            amp = inner(u, rays[j])
            overlap = (amp * amp.conj()) / (norms[i] * norms[j])
            table[i][j] = table[j][i] = overlap.as_fraction() if overlap.is_rational() else None
    for i, u in enumerate(rays):
        for j, v in enumerate(rays):
            if table[i][j] is None:
                failures.append(f"overlap of {clip(u)} and {clip(v)} is irrational")
                table[i][j] = Fraction(0)
            elif i != j and table[i][j] != Fraction(1, 4):
                failures.append(f"normalized overlap^2 of {clip(u)} and {clip(v)} "
                                f"is {clip(table[i][j])}, want 1/4")
    return SicReport(not failures, rays, tuple(map(tuple, table)), tuple(failures))


def generate_report(seed: str, gens: str, print_rays: bool = False) -> tuple[dict, list[str], list]:
    """The `generate` pipeline: the closure of `seed` (a shipped set name or a
    ray literal) under the generators in `gens` (e.g. "X,Z"), compared with
    the seed and with the new33 ray set; the closure rays too if `print_rays`."""
    labels = [t for t in gens.replace(",", "") if t.strip()]
    if not labels:
        raise ValueError(f"--gens {gens!r} names no generator; expected e.g. Z or X,Z")
    if len(set(labels)) < len(labels):
        raise ValueError(f"--gens repeats generator {max(labels, key=labels.count)}")
    if seed in BUILTIN_NAMES:
        rays, seed_name = builtin_rays(seed), seed
    else:
        rays = [parse_ray(seed)]
        seed_name = str(rays[0])
    closure = orbit_closure(rays, labels)
    same_as_seed = set(closure) == set(rays)
    equal = set(closure) == set(builtin_rays("new33"))
    lines = [f"orbit closure of {seed_name} under {{{', '.join(labels)}}}: {len(closure)} rays",
             f"closure equals seed set: {same_as_seed}",
             f"closure equals new33 ray set: {equal}"]
    if print_rays:
        lines += [f"  {r}" for r in closure]
    key = "".join(labels) + "_closure"
    return {seed_name: {key + "_rays": len(closure), key + "_is_seed": same_as_seed,
                        key + "_is_new33": equal}}, lines, []


def sic_report(seed: str) -> tuple[dict, list[str], list]:
    """The `sic` pipeline: the SIC-POVM check of the {X, Z} orbit of a ray literal."""
    ray = parse_ray(seed)
    orbit = orbit_closure([ray], ["X", "Z"])
    report = is_sic_povm(orbit)
    lines = [f"orbit of {ray} under {{X, Z}}: {len(orbit)} rays"]
    lines += [f"  {r}" for r in report.rays]
    lines.append(f"SIC-POVM: {report.is_sic}")
    if report.failures:
        lines += [f"  failure: {f}" for f in report.failures]
    else:
        lines.append("normalized squared overlaps (diagonal 1, off-diagonal 1/4):")
        lines += ["  " + " ".join(str(v) for v in row) for row in report.overlaps]
    facts = {"seed": str(ray), "rays": len(orbit), "sic_povm": report.is_sic}
    return {"xz_orbit": facts}, lines, []
