"""Shipped vector sets, the set-file format, and the sets' published values.

`EXPECTED` holds every reference value that `--expect-paper` checks, and
`table1_report` is the `table1` pipeline: one summary row per set.

The 33-ray record set and its Yu-Oh subset are constructed in code from
their 14 and 4 bases, and Peres-33 and Conway-Kochen-31 from their ray
lists, each with a provenance note.  Schuette-33 and Penrose-33 are slots
with no construction: each loads only if its data file is present, so a
missing file degrades politely.  The slot for Schuette-33 stays empty
because the only ray set with components in {0,+-1,+-2} that matches its
published bases, symmetry, orbits and uncolorability has minimal split
7-13, not the published 8-9.

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

import os
from fractions import Fraction
from math import lcm

from .colorability import KSInstance, verify_report
from .cyclotomic import Cyc, check_conductor, omega, sqrt2
from .game import check_budget, minimal_report
from .orthograph import symmetry_report
from .rays import Ray, clip, validate_basis

X3_CORRECTION_NOTE = (
    "basis x=3: third vector corrected to the unique orthogonal completion "
    "(1,-w^2,w) of (1,-w,w^2) and (1,-1,1); the commonly printed third "
    "vector (w^2,w,1) is not orthogonal to them (inner products -2 and -2w)"
)
PERES33_NOTE = (
    "provenance: A. Peres, J. Phys. A 24, L175 (1991): the 33 rays whose squared "
    "direction cosines are permutations of (0,0,1), (0,1/2,1/2), "
    "(0,1/3,2/3), (1/4,1/4,1/2); stored unnormalized with "
    "sqrt(2) = z24^3 + z24^21"
)
CONWAY31_NOTE = (
    "provenance: J. H. Conway and S. Kochen, as presented in A. Peres, Quantum "
    "Theory: Concepts and Methods (Kluwer, 1993), p. 114: 31 rays "
    "with components in {0,+-1,+-2}. Coordinates fixed (up to a "
    "signed permutation of axes) as the unique such set containing "
    "the 13-ray minimal SI-C set and matching the published "
    "invariants: 17 complete bases, automorphism group of order 4, "
    "10 vertex orbits, no KS assignment"
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


def peres33_rays() -> list[Ray]:
    """Peres's 33 rays: the signed permutations of (0,0,1), (0,1,1), (0,1,s)
    and (1,1,s), s = sqrt(2), one per ray."""
    s = sqrt2()
    return [
        _ray(1, 0, 0), _ray(0, 1, 0), _ray(0, 0, 1),
        _ray(0, 1, 1), _ray(0, 1, -1), _ray(1, 0, 1),
        _ray(1, 0, -1), _ray(1, 1, 0), _ray(1, -1, 0),
        _ray(0, 1, s), _ray(0, 1, -s), _ray(0, s, 1), _ray(0, s, -1),
        _ray(1, 0, s), _ray(1, 0, -s), _ray(s, 0, 1), _ray(s, 0, -1),
        _ray(1, s, 0), _ray(1, -s, 0), _ray(s, 1, 0), _ray(s, -1, 0),
        _ray(1, 1, s), _ray(1, 1, -s), _ray(1, -1, s), _ray(1, -1, -s),
        _ray(1, s, 1), _ray(1, s, -1), _ray(1, -s, 1), _ray(1, -s, -1),
        _ray(s, 1, 1), _ray(s, 1, -1), _ray(s, -1, 1), _ray(s, -1, -1),
    ]


def conway31_rays() -> list[Ray]:
    """The 31 Conway-Kochen rays, components in {0, +-1, +-2}: the 13 Yu-Oh
    rays and 18 more."""
    return yuoh13_rays() + [
        _ray(0, 1, -2), _ray(0, 1, 2), _ray(0, 2, -1), _ray(0, 2, 1),
        _ray(1, -2, 0), _ray(1, 0, -2), _ray(1, 0, 2),
        _ray(2, 0, -1), _ray(2, 0, 1), _ray(2, 1, 0),
        _ray(1, -1, -2), _ray(1, -1, 2), _ray(1, -2, -1), _ray(1, -2, 1),
        _ray(1, 1, -2), _ray(1, 1, 2), _ray(2, 1, -1), _ray(2, 1, 1),
    ]


# Sets built in code: their ray list (new33's basis by basis, so repeated)
# and the notes of their instance.
_CODE_BUILT = {
    "new33": (lambda: [r for basis in new33_bases() for r in basis], (X3_CORRECTION_NOTE,)),
    "yuoh13": (yuoh13_rays, ()),
    "peres33": (peres33_rays, (PERES33_NOTE,)),
    "conway31": (conway31_rays, (CONWAY31_NOTE,)),
}

# The two slots have no construction: each is read from <name>.json in
# $KSVERIFY_DATA_DIR, if set, else in the package's data/.
BUILTIN_NAMES = (*_CODE_BUILT, "schuette33", "penrose33")

# Published reference values checked by --expect-paper, keyed like the facts
# each subcommand returns: {set name: {key: value}}.
EXPECTED = {
    "new33": {
        "rays": 33, "bases": 14, "aut_order": 144, "orbit_sizes": [3, 12, 18],
        "ks": "UNSAT", "contexts": 45, "events": 333,
        "classical": Fraction(44, 45), "quantum": Fraction(1),
        "minimal_product": 45, "minimal_split": "5-9",
    },
    # the Z-closure of the 13 rays is the new33 ray set; X maps them to themselves
    "yuoh13": {"rays": 13, "bases": 4, "ks": "SAT",
               "Z_closure_is_new33": True, "X_closure_is_seed": True},
    "peres33": {"rays": 33, "bases": 16, "aut_order": 48, "orbit_count": 4,
                "ks": "UNSAT", "minimal_split": "7-9"},
    "conway31": {"rays": 31, "bases": 17, "aut_order": 4, "orbit_count": 10,
                 "ks": "UNSAT", "minimal_split": "8-9"},
    "schuette33": {"rays": 33, "bases": 20, "aut_order": 8, "orbit_count": 9,
                   "ks": "UNSAT", "minimal_split": "8-9"},
    "penrose33": {"rays": 33, "bases": 16, "aut_order": 48, "orbit_count": 4,
                  "ks": "UNSAT", "minimal_split": "7-9"},
    # every seed given to `sic` has an {X, Z} orbit that is a SIC-POVM
    "xz_orbit": {"sic_povm": True},
}


def mismatches(facts: dict) -> list[str]:
    """One line per computed fact that differs from its EXPECTED value."""
    return [f"{name}.{key}: computed {value}, expected {EXPECTED[name][key]}"
            for name, values in facts.items() for key, value in values.items()
            if key in EXPECTED.get(name, {}) and value != EXPECTED[name][key]]


def builtin_rays(name: str) -> list[Ray]:
    """The rays of a named shipped set; a code-built set builds no graph for them."""
    if name in _CODE_BUILT:
        return _CODE_BUILT[name][0]()
    return list(builtin(name).graph.vertices)


def builtin(name: str) -> KSInstance:
    """A named shipped instance, built or read afresh on each call.

    Only the two slots, schuette33 and penrose33, read a file: their data
    file, looked up in the directory that KSVERIFY_DATA_DIR names at the
    time of the call.
    """
    if name in _CODE_BUILT:
        rays, notes = _CODE_BUILT[name]
        return KSInstance(name, rays(), notes=notes)
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown set {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    data = os.environ.get("KSVERIFY_DATA_DIR") or os.path.join(os.path.dirname(__file__), "data")
    # the error line names "d/x.json", not "./d//x.json"
    path = os.path.normpath(os.path.join(data, f"{name}.json"))
    if not os.path.exists(path):
        raise MissingDataError(
            f"no coordinate data for {name!r}: expected {path}; "
            f"this optional set runs only when its data file is present"
        )
    return load_set(path)


def check_name(name_or_path: str) -> str:
    """name_or_path, if it names a shipped set or an existing path; else MissingDataError."""
    if name_or_path in BUILTIN_NAMES or os.path.exists(name_or_path):
        return name_or_path
    raise MissingDataError(
        f"{name_or_path!r} is neither a builtin set "
        f"({', '.join(BUILTIN_NAMES)}) nor an existing file")


def instance(name_or_path: str) -> KSInstance:
    """A shipped set by name, else the set file at that path."""
    if check_name(name_or_path) in BUILTIN_NAMES:
        return builtin(name_or_path)
    return load_set(name_or_path)


def load_set(path) -> KSInstance:
    """Parse, canonicalize and validate a set file.

    A duplicate ray or a declared basis failing orthogonality raises one
    InvalidSetError naming every offending pair.
    """
    import json

    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise InvalidSetError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
            raise InvalidSetError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidSetError(f"{path}: not a JSON object")
    name = doc.get("name", os.path.splitext(os.path.basename(path))[0])
    conductor = doc.get("conductor", 1)
    declared = doc.get("declared_bases", [])
    notes = doc.get("notes", [])
    provenance = doc.get("provenance", "")
    ray_specs = doc.get("rays", [])
    for field, value, ok, kind in (
        ("name", name, isinstance(name, str), "a string"),
        ("provenance", provenance, isinstance(provenance, str), "a string"),
        ("conductor", conductor, type(conductor) is int, "an integer"),
        ("rays", ray_specs, isinstance(ray_specs, list), "a list"),
        ("declared_bases", declared, isinstance(declared, list), "a list"),
        ("notes", notes, isinstance(notes, list)
         and all(isinstance(n, str) for n in notes), "a list of strings"),
    ):
        if not ok:
            raise InvalidSetError(f"{path}: {field} {clip(repr(value))} is not {kind}")
    try:
        check_conductor(conductor)
    except ValueError as exc:
        raise InvalidSetError(f"{path}: {exc}") from None
    if not ray_specs:
        raise InvalidSetError(f"{path}: no rays")
    rays = []
    for i, spec in enumerate(ray_specs):
        if not isinstance(spec, list) or len(spec) != 3:
            raise InvalidSetError(
                f"{path}: ray {i} {clip(repr(spec))} does not have 3 components")
        if not all(isinstance(comp, list) and all(
                isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)
                for t in comp) for comp in spec):
            raise InvalidSetError(f"{path}: ray {i} {clip(repr(spec))}: a component "
                                  f"is not a list of triples of three integers")
        try:
            rays.append(Ray(tuple(Cyc.from_triples(conductor, comp) for comp in spec)))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidSetError(f"{path}: ray {i} {clip(repr(spec))}: {exc}") from None
    notes = list(notes)
    if provenance:
        notes.insert(0, f"provenance: {provenance}")
    problems = []
    seen: dict[Ray, int] = {}
    for i, ray in enumerate(rays):
        if ray in seen:
            problems.append(
                f"rays {seen[ray]} and {i} are the same projective ray {clip(ray)}")
        else:
            seen[ray] = i
    for bi, triple in enumerate(declared):
        if not (isinstance(triple, list) and len(triple) == 3
                and all(type(i) is int and 0 <= i < len(rays) for i in triple)):
            raise InvalidSetError(f"{path}: declared basis {bi} {clip(repr(triple))} is "
                                  f"not 3 ray indices in 0..{len(rays) - 1}")
    inst = KSInstance(name, rays, notes=tuple(notes))
    # a declared basis is one of the complete bases, or its error names the
    # inner products; a repeated index or ray is one vertex, never a basis
    vertex = {ray: k for k, ray in enumerate(inst.graph.vertices)}
    bases = set(inst.basis_indices)
    for bi, triple in enumerate(declared):
        if tuple(sorted(vertex[rays[i]] for i in triple)) in bases:
            continue
        for v in validate_basis([rays[i] for i in triple]):
            problems.append(
                f"declared basis {bi} {tuple(triple)}: rays {triple[v.index_a]} "
                f"and {triple[v.index_b]} have inner product {clip(v.product)}"
            )
    if problems:
        if len(problems) > 3:  # keep the line short: name the first few
            problems[3:] = [f"and {len(problems) - 3} more"]
        raise InvalidSetError(f"{path}: " + "; ".join(problems))
    return inst


def serialize(inst: KSInstance, provenance: str = "") -> dict:
    """JSON document for an instance (canonical rays, conductor = lcm)."""
    conductor = lcm(*(c.minimal_form()[0]
                      for ray in inst.graph.vertices for c in ray.canonical))
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
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(inst, provenance), fh, indent=1)
        fh.write("\n")


def summary_table(sets) -> str:
    """Fixed-width text table of (name, facts) pairs as `table1` builds them."""
    rows = [["set", "rays", "bases", "vertex types", "symmetry", "KS", "minimal"]]
    rows += [[name, str(f["rays"]), str(f["bases"]), str(f["orbit_count"]),
              str(f["aut_order"]), f["ks"], f.get("minimal_split", "-")] for name, f in sets]
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, ["-" * w for w in widths])
    return "".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n"
                   for r in rows)


def table1_report(sets: str | None, minimal: str, budget: float) -> tuple[dict, list[str], list]:
    """The `table1` pipeline: one row per set of the comma-separated `sets`
    (default: every shipped set but yuoh13), with the split search run on
    the sets that `minimal` ("new33", "all" or "none") names.

    A row, keyed by set name, is the set's `verify`, `symmetry` and (if
    searched) `minimal` facts: both a line of the table and the facts.
    A name that resolves to nothing fails the table; a shipped set without
    its file gets a `skipped` line.
    """
    check_budget(budget)  # before any set loads, whether or not a search runs
    names = [check_name(name) for name in sets.split(",")] if sets is not None else [
        "schuette33", "conway31", "peres33", "penrose33", "new33"]
    facts, notes, skipped = {}, [], []
    for name in names:
        try:
            inst = instance(name)
        except MissingDataError as exc:
            skipped.append(f"skipped {name}: {exc}")
            continue
        if inst.name in facts:
            raise ValueError(f"--sets gives two sets named {inst.name!r}")
        row = {**verify_report(inst)[0][inst.name], **symmetry_report(inst)[0][inst.name]}
        if minimal == "all" or (minimal == "new33" and inst.name == "new33"):
            found = minimal_report(inst, budget)[0]
            row.update(found[inst.name] if found else {"minimal_split": "incomplete"})
        facts[inst.name] = row
        notes += [f"note ({inst.name}): {note}" for note in inst.notes]
    return facts, summary_table(facts.items()).splitlines() + notes + skipped, []
