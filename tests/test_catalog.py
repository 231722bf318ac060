"""Catalog: builtin sets, file round-trips, validation reports."""

import contextlib
import itertools
import json
import re
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ksverify.catalog import (
    InvalidSetError,
    MissingDataError,
    builtin,
    builtin_rays,
    instance,
    load_set,
    new33_bases,
    save_set,
    serialize,
    yuoh13_rays,
)
from ksverify.colorability import KSInstance, find_ks_assignment
from ksverify.cyclotomic import omega
from ksverify.game import minimal_distribution_search
from ksverify.orthograph import automorphisms
from ksverify.rays import Ray

from oracles import (
    IMAGE_CONDUCTORS,
    IMAGE_MATRICES,
    IMAGE_SOURCES,
    basis_rays,
    non_monomial_image,
    ray,
)

W = omega()
W2 = W * W


def test_new33_shape():
    inst = builtin("new33")
    assert inst.graph.n == 33
    assert len(inst.basis_indices) == 14
    assert any("x=3" in note for note in inst.notes)


def test_new33_contains_corrected_x3_basis():
    inst = builtin("new33")
    corrected = {ray(1, -W, W2), ray(1, -1, 1), ray(W2, -W, 1)}
    assert any(set(b) == corrected for b in basis_rays(inst))
    assert ray(W2, W, 1) in inst.graph.vertices  # still present, via x=1
    # the printed x=3 third vector as a triple is not a basis of the set
    printed = {ray(1, -W, W2), ray(1, -1, 1), ray(W2, W, 1)}
    assert not any(set(b) == printed for b in basis_rays(inst))


def test_yuoh13_subset_of_new33():
    yuoh = builtin("yuoh13")
    new33 = builtin("new33")
    assert yuoh.graph.n == 13
    assert frozenset(yuoh.graph.vertices) <= frozenset(new33.graph.vertices)


def test_orbit_partition_matches_basis_types():
    """3 computational rays, 12 colored-basis rays, 18 small-triangle rays."""
    inst = builtin("new33")
    report = automorphisms(inst.graph)
    by_size = {len(o): set(o) for o in report.orbits}
    assert set(by_size) == {3, 12, 18}
    bases = new33_bases()
    index = {r: i for i, r in enumerate(inst.graph.vertices)}
    type1 = {index[r] for r in bases[0]}
    type2 = {index[r] for b in bases[1:5] for r in b}
    type3 = {index[r] for b in bases[5:] for r in b} - type1
    assert type1 == by_size[3]
    assert type2 == by_size[12]
    assert type3 == by_size[18]


def test_every_shipped_set_is_uncolorable_except_yuoh():
    from ksverify.colorability import find_ks_assignment

    for name in ("new33", "peres33", "conway31", "schuette33", "penrose33"):
        try:
            inst = builtin(name)
        except FileNotFoundError:
            continue
        assert not find_ks_assignment(inst).satisfiable, name
    assert find_ks_assignment(builtin("yuoh13")).satisfiable


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        builtin("nosuchset")


def test_penrose_slot_is_polite(tmp_path, monkeypatch):
    monkeypatch.setenv("KSVERIFY_DATA_DIR", str(tmp_path))
    with pytest.raises(MissingDataError):
        builtin("penrose33")


def test_builtin_reads_the_data_dir_on_each_call(tmp_path, monkeypatch):
    save_set(KSInstance("penrose33", builtin_rays("peres33")), tmp_path / "penrose33.json")
    monkeypatch.setenv("KSVERIFY_DATA_DIR", str(tmp_path))
    assert builtin("penrose33").graph.n == 33
    monkeypatch.setenv("KSVERIFY_DATA_DIR", str(tmp_path / "empty"))
    with pytest.raises(MissingDataError):
        builtin("penrose33")


def test_legacy_sets_are_built_without_a_data_file(tmp_path, monkeypatch):
    import ksverify.catalog as cat

    monkeypatch.setenv("KSVERIFY_DATA_DIR", str(tmp_path))
    monkeypatch.setattr(cat, "load_set", lambda path: pytest.fail(f"read {path}"))
    assert builtin("peres33").graph.n == 33
    assert builtin("conway31").graph.n == 31


@pytest.mark.parametrize("name", ["peres33", "conway31"])
def test_data_files_are_the_code_built_sets(name):
    """bench/setfiles.py reads the two legacy data files, so each must stay
    byte for byte what save_set writes for the set that catalog builds."""
    import ksverify.catalog as cat

    path = Path(cat.__file__).parent / "data" / f"{name}.json"
    built = builtin(name)
    provenance = built.notes[0].removeprefix("provenance: ")
    doc = serialize(KSInstance(name, builtin_rays(name)), provenance)
    assert (json.dumps(doc, indent=1) + "\n").encode() == path.read_bytes()
    loaded = load_set(path)
    assert loaded.graph.vertices == built.graph.vertices
    assert loaded.graph.adj == built.graph.adj
    assert loaded.basis_indices == built.basis_indices
    assert loaded.notes == built.notes


def test_instance_of_a_shipped_name_is_its_builtin():
    for name in ("new33", "peres33"):
        inst, expected = instance(name), builtin(name)
        assert inst.graph.vertices == expected.graph.vertices
        assert inst.basis_indices == expected.basis_indices
        assert inst.notes == expected.notes


def test_instance_of_a_path_is_loaded_by_load_set(tmp_path, monkeypatch):
    import ksverify.catalog as cat

    path = tmp_path / "mine.json"
    save_set(builtin("yuoh13"), path)
    loaded = []
    monkeypatch.setattr(cat, "load_set", lambda p: loaded.append(p) or load_set(p))
    inst = instance(str(path))
    assert loaded == [str(path)]
    assert inst.graph.vertices == builtin("yuoh13").graph.vertices


def test_instance_of_an_unknown_name_is_missing_data():
    with pytest.raises(MissingDataError) as info:
        instance("nosuchset")
    assert str(info.value) == (
        "'nosuchset' is neither a builtin set (new33, yuoh13, peres33, conway31, "
        "schuette33, penrose33) nor an existing file")


def test_instance_of_a_file_backed_name_needs_its_data_file(tmp_path, monkeypatch):
    monkeypatch.setenv("KSVERIFY_DATA_DIR", str(tmp_path))
    with pytest.raises(MissingDataError, match="expected " + re.escape(
            str(tmp_path / "schuette33.json")) + ";"):
        instance("schuette33")


def test_roundtrip_serialization(tmp_path):
    inst = builtin("new33")
    path = tmp_path / "new33.json"
    save_set(inst, path, provenance="roundtrip test")
    loaded = load_set(path)
    assert frozenset(loaded.graph.vertices) == frozenset(inst.graph.vertices)
    assert len(loaded.basis_indices) == len(inst.basis_indices)
    assert loaded.name == "new33"


def test_roundtrip_conductor24(tmp_path):
    inst = builtin("peres33")
    path = tmp_path / "p.json"
    save_set(inst, path)
    assert frozenset(load_set(path).graph.vertices) == frozenset(inst.graph.vertices)


def test_file_redeclaring_new33_equals_builtin(tmp_path):
    bases = new33_bases()
    doc = {
        "name": "mine",
        "conductor": 3,
        "rays": [
            [c.to_triples_at(3) for c in r.components]
            for b in bases
            for r in b
        ],
    }
    # builtin deduplicates; the file must not carry duplicates
    seen = set()
    unique = []
    for b in bases:
        for r in b:
            if r not in seen:
                seen.add(r)
                unique.append([c.to_triples_at(3) for c in r.components])
    doc["rays"] = unique
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(doc))
    inst = load_set(path)
    assert frozenset(inst.graph.vertices) == frozenset(builtin("new33").graph.vertices)


def test_single_basis_file(tmp_path):
    doc = {
        "name": "eq1a",
        "conductor": 1,
        "rays": [
            [[[0, 0, 1]], [[0, 0, 1]], [[0, 1, 1]]],
            [[[0, 0, 1]], [[0, 1, 1]], [[0, 0, 1]]],
            [[[0, 1, 1]], [[0, 0, 1]], [[0, 0, 1]]],
        ],
    }
    path = tmp_path / "eq1a.json"
    path.write_text(json.dumps(doc))
    inst = load_set(path)
    assert inst.graph.n == 3
    assert len(inst.basis_indices) == 1


def test_duplicate_rays_rejected(tmp_path):
    doc = {
        "name": "dup",
        "conductor": 3,
        "rays": [
            [[[0, 1, 1]], [[0, 1, 1]], []],
            [[[1, 1, 1]], [[1, 1, 1]], []],  # w*(1,1,0): same projective ray
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidSetError, match="same projective ray"):
        load_set(path)


@pytest.mark.parametrize("rays,message", [
    (5, "rays 5 is not a list"),
    ({"x": 1}, "rays {'x': 1} is not a list"),
    ([], "no rays"),
    (None, "no rays"),
])
def test_rays_field_errors(tmp_path, rays, message):
    doc = {"name": "bad"} if rays is None else {"name": "bad", "rays": rays}
    path = tmp_path / "rays.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidSetError) as err:
        load_set(path)
    assert str(err.value) == f"{path}: {message}"


def test_printed_x3_file_reports_pairs(tmp_path):
    printed = [
        Ray((1, -W, W2)),
        Ray((1, -1, 1)),
        Ray((W2, W, 1)),
    ]
    doc = {
        "name": "x3-as-printed",
        "conductor": 3,
        "rays": [[c.to_triples_at(3) for c in r.components] for r in printed],
        "declared_bases": [[0, 1, 2]],
    }
    path = tmp_path / "x3.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidSetError) as err:
        load_set(path)
    message = str(err.value)
    assert "-2" in message and "-2*w" in message
    assert message.count("inner product") == 2
    assert message == (
        f"{path}: declared basis 0 (0, 1, 2): rays 0 and 2 have inner product -2; "
        f"declared basis 0 (0, 1, 2): rays 1 and 2 have inner product -2*w")


def set_file(tmp_path, rays, declared):
    doc = {"name": "t", "conductor": 3,
           "rays": [[c.to_triples_at(3) for c in r.components] for r in rays],
           "declared_bases": declared}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    return path


E1, E2, E3 = Ray((1, 0, 0)), Ray((0, 1, 0)), Ray((0, 0, 1))


def test_declared_basis_repeating_an_index_is_named(tmp_path):
    path = set_file(tmp_path, [E1, E2, E3], [[0, 1, 0], [0, 1, 2]])
    with pytest.raises(InvalidSetError) as err:
        load_set(path)
    assert str(err.value) == (
        f"{path}: declared basis 0 (0, 1, 0): rays 0 and 0 have inner product 1")


def test_duplicate_ray_and_bad_basis_make_one_error(tmp_path):
    path = set_file(tmp_path, [E1, E2, E3, Ray((0, W, 0)), Ray((1, 1, 0))],
                    [[0, 1, 2], [0, 3, 4], [2, 2, 4]])
    with pytest.raises(InvalidSetError) as err:
        load_set(path)
    assert str(err.value) == (
        f"{path}: rays 1 and 3 are the same projective ray (0,1,0); "
        f"declared basis 1 (0, 3, 4): rays 0 and 4 have inner product 1; "
        f"declared basis 1 (0, 3, 4): rays 3 and 4 have inner product w^2; and 1 more")


def test_declared_bases_are_read_off_the_graph(monkeypatch):
    # peres33 declares 16 bases: the graph's C(33, 2) exact tests cover them,
    # where checking each again took 3 more inner products apiece (576 in all)
    import ksverify.catalog as cat
    import ksverify.rays as rays

    calls = []
    inner = rays.inner
    monkeypatch.setattr(rays, "inner", lambda v, u: calls.append(1) or inner(v, u))
    inst = load_set(Path(cat.__file__).parent / "data" / "peres33.json")
    assert (inst.graph.n, len(inst.basis_indices)) == (33, 16)
    assert len(calls) == 33 * 32 // 2 == 528


def test_yuoh13_rays_helper_matches_builtin():
    assert frozenset(yuoh13_rays()) == frozenset(builtin("yuoh13").graph.vertices)


@pytest.mark.parametrize("name", ["new33", "yuoh13", "peres33"])
def test_builtin_rays_are_the_instance_rays(name):
    assert set(builtin_rays(name)) == set(builtin(name).graph.vertices)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def components(denominators):
    triples = st.tuples(st.integers(-20, 20), st.integers(-3, 3), denominators)
    return st.lists(triples.map(list), max_size=3)


ray_specs = st.lists(components(st.integers(1, 3)), min_size=3, max_size=3)
junk_ray_specs = st.lists(components(st.integers(-3, 3)) | json_values, max_size=4)
fields = {
    "name": st.text(max_size=6),
    "provenance": st.text(max_size=6),
    "declared_bases": st.lists(st.lists(st.integers(-1, 8), min_size=3, max_size=3),
                               max_size=3),
    "notes": st.lists(st.text(max_size=4), max_size=2),
}
# well-formed documents, then the same with any field missing or replaced by junk
set_documents = st.fixed_dictionaries(
    {"conductor": st.sampled_from([1, 3, 4, 8]),
     "rays": st.lists(ray_specs, min_size=1, max_size=8)},
    optional=fields,
) | st.fixed_dictionaries({}, optional={
    "conductor": st.sampled_from([1, 3, 4, 8]) | st.integers(max_value=0)
    | st.integers(min_value=361) | json_values,
    "rays": st.lists(ray_specs | junk_ray_specs, max_size=8) | json_values,
    **{key: value | json_values for key, value in fields.items()},
})


@settings(deadline=None)
@given(set_documents | json_values)
def test_load_set_gives_an_instance_or_value_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    with contextlib.suppress(ValueError):
        load_set(path)


def set_facts(inst: KSInstance) -> tuple:
    """Bases, KS verdict, |Aut|, orbit sizes and minimal split."""
    group = inst.graph.group
    return (len(inst.basis_indices), find_ks_assignment(inst).satisfiable, group.order,
            sorted(len(o) for o in group.orbits), minimal_distribution_search(inst).split())


@cache
def shipped_facts(name: str) -> tuple:
    return set_facts(builtin(name))


@pytest.mark.parametrize("name, matrix, n", list(itertools.product(
    IMAGE_SOURCES, IMAGE_MATRICES, IMAGE_CONDUCTORS)))
def test_a_non_monomial_image_keeps_every_verdict(name, matrix, n):
    """The Fourier or rational image of a shipped set, with seeded phases,
    has the source's facts, and rays whose canonical lead is not 1."""
    image = non_monomial_image(name, matrix, n)
    assert set_facts(KSInstance(name, image)) == shipped_facts(name)
    assert any(next(c for c in r.canonical if not c.is_zero()) != 1 for r in image)
