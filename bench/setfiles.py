"""Seeded set files for the `set-files` workload.

Each shipped set is rewritten under a random monomial unitary: a
permutation of the three coordinates and one unit phase per coordinate,
taken from the set's own field (a signed power of zeta_n, n the file's
conductor).  The ray order is shuffled too, with `declared_bases`
remapped.  A monomial unitary preserves every inner product up to a unit,
so every verdict on a transformed file equals the source set's verdict.

The transform works on the JSON document only; it never calls ksverify.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

SOURCES = ("new33", "peres33", "conway31")


def transform(doc: dict, rng: random.Random) -> dict:
    """A transformed copy of a set-file document."""
    n = int(doc.get("conductor", 1))
    perm = list(range(3))
    rng.shuffle(perm)
    # coordinate j is multiplied by sign[j] * zeta_n^power[j]
    power = [rng.randrange(n) for _ in range(3)]
    sign = [rng.choice((1, -1)) for _ in range(3)]

    def component(comp, j):
        return [[(p + power[j]) % n, sign[j] * num, den] for p, num, den in comp]

    rays = [[component(ray[perm[j]], j) for j in range(3)] for ray in doc["rays"]]
    order = list(range(len(rays)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    out = dict(doc)
    out["rays"] = [rays[old] for old in order]
    if "declared_bases" in doc:
        out["declared_bases"] = [
            [new_index[i] for i in triple] for triple in doc["declared_bases"]
        ]
    return out


def source_documents(src_dir: Path) -> dict[str, dict]:
    """The source documents; new33 has no shipped file, so it is serialized."""
    if str(src_dir) not in sys.path:
        sys.path.insert(0, str(src_dir))
    from ksverify.catalog import builtin, serialize

    docs = {"new33": serialize(builtin("new33"))}
    for name in SOURCES[1:]:
        with open(src_dir / "ksverify" / "data" / f"{name}.json", encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs


def write_set_files(docs: dict[str, dict], out_dir: Path, seed: int) -> dict[str, Path]:
    """Write one transformed copy per source set; same seed, same files."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in SOURCES:
        path = out_dir / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(transform(docs[name], rng), fh, indent=1)
            fh.write("\n")
        paths[name] = path
    return paths
