"""Shipped vector sets and the set-file format.

The 33-ray record set and its Yu-Oh subset are constructed in code from
their 14 and 4 bases.  Legacy comparison sets (Peres-33, Conway-Kochen-31,
Schuette-33) are transcriptions stored as JSON data files with provenance
strings; each loads only if present, so a missing file degrades politely.

File format (UTF-8 JSON):

    {
      "name": "...",
      "conductor": n,
      "provenance": "citation / construction note",
      "rays": [[component, component, component], ...],
      "declared_bases": [[i, j, k], ...],   # optional, 0-based ray indices
      "notes": ["..."]                       # optional
    }

where a component is a list of [power, numerator, denominator] triples
meaning sum (num/den) * zeta_n^power; [] is zero.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .colorability import KSInstance, find_ks_assignment
from .cyclotomic import Cyc, check_conductor, omega
from .orthograph import automorphisms
from .rays import Ray, validate_basis

DATA_DIR_ENV = "KSVERIFY_DATA_DIR"

X3_CORRECTION_NOTE = (
    "basis x=3: third vector corrected to the unique orthogonal completion "
    "(1,-w^2,w) of (1,-w,w^2) and (1,-1,1); the commonly printed third "
    "vector (w^2,w,1) is not orthogonal to them (inner products -2 and -2w)"
)


class MissingDataError(FileNotFoundError):
    """A builtin set whose coordinate file is not available."""


class InvalidSetError(ValueError):
    """A set file that parses but fails validation."""


def _ray(*components) -> Ray:
    return Ray(components)


def new33_bases() -> list[list[Ray]]:
    """The 14 bases of the 33-ray set: 1 computational + 4 colored + 9 triangles."""
    w = omega()
    w2 = w * w
    e1, e2, e3 = _ray(1, 0, 0), _ray(0, 1, 0), _ray(0, 0, 1)
    bases = [
        [e3, e2, e1],                                          # x=0
        [_ray(1, w, w2), _ray(1, 1, 1), _ray(w2, w, 1)],       # x=1
        [_ray(1, w, -w2), _ray(1, 1, -1), _ray(w2, w, -1)],    # x=2
        [_ray(1, -w, w2), _ray(1, -1, 1), _ray(w2, -w, 1)],    # x=3 (corrected)
        [_ray(-1, w, w2), _ray(-1, 1, 1), _ray(-w2, w, 1)],    # x=4
        [e3, _ray(1, 1, 0), _ray(1, -1, 0)],                   # y=0
        [e3, _ray(1, w, 0), _ray(1, -w, 0)],                   # y=1
        [e3, _ray(w, 1, 0), _ray(w, -1, 0)],                   # y=2
        [e2, _ray(1, 0, 1), _ray(1, 0, -1)],                   # y=3
        [e2, _ray(1, 0, w), _ray(1, 0, -w)],                   # y=4
        [e2, _ray(w, 0, 1), _ray(w, 0, -1)],                   # y=5
        [e1, _ray(0, 1, 1), _ray(0, 1, -1)],                   # y=6
        [e1, _ray(0, 1, w), _ray(0, 1, -w)],                   # y=7
        [e1, _ray(0, w, 1), _ray(0, w, -1)],                   # y=8
    ]
    return bases


def yuoh13_rays() -> list[Ray]:
    """The 13-ray minimal state-independent-contextuality set."""
    return [
        _ray(1, 0, 0), _ray(0, 1, 0), _ray(0, 0, 1),
        _ray(0, 1, 1), _ray(0, 1, -1),
        _ray(1, 0, 1), _ray(1, 0, -1),
        _ray(1, 1, 0), _ray(1, -1, 0),
        _ray(1, 1, 1), _ray(1, 1, -1), _ray(1, -1, 1), _ray(-1, 1, 1),
    ]


def yuoh_h_rays() -> list[Ray]:
    """The four rays in no complete basis of the 13-ray set."""
    return [_ray(1, 1, 1), _ray(1, 1, -1), _ray(1, -1, 1), _ray(-1, 1, 1)]


def data_dir() -> Path:
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


BUILTIN_NAMES = ("new33", "yuoh13", "peres33", "conway31", "schuette33", "penrose33")

_FILE_BACKED = {
    "peres33": "peres33.json",
    "conway31": "conway31.json",
    "schuette33": "schuette33.json",
    "penrose33": "penrose33.json",
}

_CACHE: dict[str, KSInstance] = {}


def builtin(name: str) -> KSInstance:
    """A named shipped instance; file-backed names need their data file."""
    if name in _CACHE:
        return _CACHE[name]
    if name == "new33":
        rays = [r for basis in new33_bases() for r in basis]
        inst = KSInstance("new33", rays, notes=(X3_CORRECTION_NOTE,))
    elif name == "yuoh13":
        inst = KSInstance("yuoh13", yuoh13_rays())
    elif name in _FILE_BACKED:
        path = data_dir() / _FILE_BACKED[name]
        if not path.exists():
            raise MissingDataError(
                f"no coordinate data for {name!r}: expected {path}; "
                f"this optional set runs only when its data file is present"
            )
        inst = load_set(path)
    else:
        raise ValueError(f"unknown set {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    _CACHE[name] = inst
    return inst


def load_set(path, *, strict: bool = True) -> KSInstance:
    """Parse, canonicalize and validate a set file.

    With strict=True a declared basis failing orthogonality (or a duplicate
    ray) raises InvalidSetError naming the offending pair; with
    strict=False the violations are attached to the instance notes instead.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvalidSetError(f"{path}: not a JSON object")
    name = doc.get("name", path.stem)
    try:
        conductor = check_conductor(int(doc.get("conductor", 1)))
    except (TypeError, ValueError) as exc:
        raise InvalidSetError(f"{path}: {exc}") from None
    ray_specs = doc.get("rays", [])
    if not isinstance(ray_specs, list) or not ray_specs:
        raise InvalidSetError(f"{path}: no rays")
    rays = []
    for i, spec in enumerate(ray_specs):
        if not isinstance(spec, list) or len(spec) != 3:
            raise InvalidSetError(f"{path}: ray {i} {spec!r} does not have 3 components")
        try:
            rays.append(Ray(tuple(Cyc.from_triples(conductor, comp) for comp in spec)))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidSetError(f"{path}: ray {i} {spec!r}: {exc}") from None
    notes = list(doc.get("notes", []))
    if doc.get("provenance"):
        notes.insert(0, f"provenance: {doc['provenance']}")
    problems = []
    seen: dict[Ray, int] = {}
    for i, ray in enumerate(rays):
        if ray in seen:
            problems.append(
                f"rays {seen[ray]} and {i} are the same projective ray {ray}")
        else:
            seen[ray] = i
    for bi, triple in enumerate(doc.get("declared_bases", [])):
        if not (isinstance(triple, list) and len(triple) == 3
                and all(type(i) is int and 0 <= i < len(rays) for i in triple)):
            raise InvalidSetError(f"{path}: declared basis {bi} {triple!r} is "
                                  f"not 3 ray indices in 0..{len(rays) - 1}")
        chosen = [rays[i] for i in triple]
        for v in validate_basis(chosen):
            problems.append(
                f"declared basis {bi} {tuple(triple)}: rays {triple[v.index_a]} "
                f"and {triple[v.index_b]} have inner product {v.product}"
            )
    if problems:
        if strict:
            raise InvalidSetError(f"{path}: " + "; ".join(problems))
        notes.extend(problems)
    return KSInstance(name, rays, notes=tuple(notes))


def serialize(inst: KSInstance, provenance: str = "") -> dict:
    """JSON document for an instance (canonical rays, conductor = lcm)."""
    from math import gcd

    conductor = 1
    for ray in inst.graph.vertices:
        for c in ray.canonical:
            d = c.minimal_form()[0]
            conductor = conductor * d // gcd(conductor, d)
    doc = {
        "name": inst.name,
        "conductor": conductor,
        "provenance": provenance,
        "rays": [
            [c.to_triples_at(conductor) for c in ray.canonical]
            for ray in inst.graph.vertices
        ],
        "declared_bases": [list(triple) for triple in inst.basis_indices],
    }
    if inst.notes:
        doc["notes"] = list(inst.notes)
    return doc


def save_set(inst: KSInstance, path, provenance: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(inst, provenance), fh, indent=1)
        fh.write("\n")


# -- summary report ------------------------------------------------------------


class SetSummary:
    __slots__ = (
        "name", "rays", "bases", "vertex_types", "aut_order",
        "ks_unsat", "search_nodes", "minimal_split", "notes",
    )

    def __init__(self, inst: KSInstance, minimal_split: str | None = None):
        report = automorphisms(inst.graph)
        result = find_ks_assignment(inst)
        self.name = inst.name
        self.rays = inst.graph.n
        self.bases = len(inst.bases)
        self.vertex_types = len(report.orbits)
        self.aut_order = report.order
        self.ks_unsat = not result.satisfiable
        self.search_nodes = result.nodes
        self.minimal_split = minimal_split
        self.notes = inst.notes


def summary_table(summaries) -> str:
    """Fixed-width text table, deterministic."""
    headers = ["set", "rays", "bases", "vertex types", "symmetry", "KS", "minimal"]
    rows = [
        [
            s.name, str(s.rays), str(s.bases), str(s.vertex_types),
            str(s.aut_order), "UNSAT" if s.ks_unsat else "SAT",
            s.minimal_split or "-",
        ]
        for s in summaries
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines) + "\n"
