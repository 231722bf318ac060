#!/usr/bin/env python3
"""Regenerate the legacy vector-set data files under src/ksverify/data/.

Each set is constructed from its literature description, re-verified
against the published aggregate invariants (ray count, complete bases,
automorphism order, vertex orbits, KS colorability), and only then
serialized.  Run from the repository root:

    python3 tools/make_legacy_data.py
"""

import sys
from itertools import permutations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ksverify.catalog import save_set
from ksverify.cli import EXPECTED
from ksverify.colorability import KSInstance, find_ks_assignment
from ksverify.cyclotomic import sqrt2
from ksverify.rays import Ray

DATA = Path(__file__).resolve().parent.parent / "src" / "ksverify" / "data"


def signed_perms(base) -> list[Ray]:
    out = set()
    for perm in permutations(base):
        for signs in product([1, -1], repeat=3):
            out.add(Ray(tuple(s * c for s, c in zip(signs, perm))))
    return sorted(out, key=Ray.sort_key)


def rays_from_texts(texts) -> list[Ray]:
    from ksverify.rays import parse_ray

    return [parse_ray(t) for t in texts]


def verify(name, rays):
    """The instance, once its invariants match the published ones in cli.EXPECTED."""
    inst = KSInstance(name, rays)
    group = inst.graph.group
    res = find_ks_assignment(inst)
    actual = (inst.graph.n, len(inst.basis_indices), group.order, len(group.orbits),
              not res.satisfiable)
    ref = EXPECTED[name]
    expected = (len(rays), ref["bases"], ref["aut_order"], ref["orbit_count"], True)
    if actual != expected:
        raise SystemExit(f"{name}: invariants {actual} != expected {expected}")
    print(f"{name}: {actual[0]} rays, {actual[1]} bases, |Aut|={actual[2]}, "
          f"{actual[3]} orbits, UNSAT  -- ok")
    return inst


def make_peres33():
    s2 = sqrt2()
    rays = []
    rays += signed_perms((0, 0, 1))
    rays += signed_perms((0, 1, 1))
    rays += signed_perms((0, 1, s2))
    rays += signed_perms((1, 1, s2))
    inst = verify("peres33", rays)
    save_set(
        inst,
        DATA / "peres33.json",
        provenance=(
            "A. Peres, J. Phys. A 24, L175 (1991): the 33 rays whose squared "
            "direction cosines are permutations of (0,0,1), (0,1/2,1/2), "
            "(0,1/3,2/3), (1/4,1/4,1/2); stored unnormalized with "
            "sqrt(2) = z24^3 + z24^21"
        ),
    )


CONWAY31 = [
    "(0,0,1)", "(0,1,0)", "(1,0,0)",
    "(0,1,-1)", "(0,1,1)", "(1,0,-1)", "(1,0,1)", "(1,-1,0)", "(1,1,0)",
    "(1,-1,-1)", "(1,-1,1)", "(1,1,-1)", "(1,1,1)",
    "(0,1,-2)", "(0,1,2)", "(0,2,-1)", "(0,2,1)",
    "(1,-2,0)", "(1,0,-2)", "(1,0,2)", "(2,0,-1)", "(2,0,1)", "(2,1,0)",
    "(1,-1,-2)", "(1,-1,2)", "(1,-2,-1)", "(1,-2,1)",
    "(1,1,-2)", "(1,1,2)", "(2,1,-1)", "(2,1,1)",
]

def make_conway31():
    inst = verify("conway31", rays_from_texts(CONWAY31))
    save_set(
        inst,
        DATA / "conway31.json",
        provenance=(
            "J. H. Conway and S. Kochen, as presented in A. Peres, Quantum "
            "Theory: Concepts and Methods (Kluwer, 1993), p. 114: 31 rays "
            "with components in {0,+-1,+-2}. Coordinates fixed (up to a "
            "signed permutation of axes) as the unique such set containing "
            "the 13-ray minimal SI-C set and matching the published "
            "invariants: 17 complete bases, automorphism group of order 4, "
            "10 vertex orbits, no KS assignment"
        ),
    )


# No schuette33.json is generated: the unique {0,+-1,+-2}-component ray set
# matching its static invariants (20 bases, automorphism order 8, 9 orbits,
# uncolorable) has minimal refutable split 7-13, contradicting the published
# 8-9, so it cannot be the literature set; the slot stays data-less until
# verbatim coordinates are sourced.


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    make_peres33()
    make_conway31()
    print("data files written to", DATA)
