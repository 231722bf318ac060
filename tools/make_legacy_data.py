#!/usr/bin/env python3
"""Regenerate the legacy vector-set data files under src/ksverify/data/.

Each set is constructed from its literature description and written to
<name>.json.new.  That file is then checked as a shipped set is, by
`ksverify --expect-paper table1 --sets <file> --minimal all`: ray count,
complete bases, automorphism order, vertex orbits, KS colorability and
minimal split must all match catalog.EXPECTED.  Only then does the file
replace <name>.json; otherwise it is deleted and the tool exits nonzero.
Run from the repository root:

    python3 tools/make_legacy_data.py
"""

import sys
from itertools import permutations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ksverify.catalog import save_set
from ksverify.cli import main
from ksverify.colorability import KSInstance
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


def publish(inst, provenance):
    """Write data/<name>.json, once the written file passes `--expect-paper table1`."""
    path = DATA / f"{inst.name}.json"
    new = path.with_name(path.name + ".new")
    save_set(inst, new, provenance=provenance)
    try:
        if main(["--expect-paper", "table1", "--sets", str(new), "--minimal", "all"]) != 0:
            raise SystemExit(f"{new} does not match the published invariants; "
                             f"{path.name} is left as it was")
        new.replace(path)
    finally:
        new.unlink(missing_ok=True)


def make_peres33():
    s2 = sqrt2()
    rays = []
    rays += signed_perms((0, 0, 1))
    rays += signed_perms((0, 1, 1))
    rays += signed_perms((0, 1, s2))
    rays += signed_perms((1, 1, s2))
    publish(
        KSInstance("peres33", rays),
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
    publish(
        KSInstance("conway31", rays_from_texts(CONWAY31)),
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
