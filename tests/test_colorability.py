"""KS colorability search against direct power-set enumeration."""

import random

import pytest

from ksverify.catalog import builtin, yuoh_h_rays
from ksverify.colorability import (
    Assignment,
    KSInstance,
    enumerate_ks_assignments,
    find_ks_assignment,
    to_dimacs_cnf,
    verify_assignment,
)
from ksverify.cyclotomic import omega
from ksverify.rays import Ray

from oracles import dpll_satisfiable, ks_assignments_powerset, parse_dimacs_cnf

W = omega()


def ray(*components):
    return Ray(components)


def triangle_instance():
    return KSInstance("triangle", [ray(0, 0, 1), ray(0, 1, 0), ray(1, 0, 0)])


def assignment_for(inst, ones):
    return Assignment({r: (1 if r in ones else 0) for r in inst.graph.vertices})


def test_verify_assignment_examples():
    inst = triangle_instance()
    e3 = ray(0, 0, 1)
    e2 = ray(0, 1, 0)
    ok = assignment_for(inst, {e3})
    assert verify_assignment(inst, ok) == []
    both = assignment_for(inst, {e3, e2})
    kinds = {v.kind for v in verify_assignment(inst, both)}
    assert "edge" in kinds
    none = assignment_for(inst, set())
    kinds = {v.kind for v in verify_assignment(inst, none)}
    assert kinds == {"basis"}


def test_verify_requires_total_assignment():
    inst = triangle_instance()
    with pytest.raises(ValueError):
        verify_assignment(inst, Assignment({ray(0, 0, 1): 1}))


def test_single_basis_enumeration():
    result = enumerate_ks_assignments(triangle_instance())
    assert len(result.assignments) == 3
    assert not result.truncated


def test_truncation_flag():
    result = enumerate_ks_assignments(builtin("yuoh13"), cap=5)
    assert len(result.assignments) == 5
    assert result.truncated


def test_new33_unsat_and_yuoh_sat():
    res33 = find_ks_assignment(builtin("new33"))
    assert not res33.satisfiable
    assert res33.nodes == 33
    res13 = find_ks_assignment(builtin("yuoh13"))
    assert res13.satisfiable
    assert verify_assignment(builtin("yuoh13"), res13.assignment) == []
    # the branching order: node counts and the first assignments, in order
    assert res13.nodes == 3
    assert find_ks_assignment(builtin("peres33")).nodes == 33
    assert find_ks_assignment(builtin("conway31")).nodes == 13
    inst = builtin("yuoh13")
    first = enumerate_ks_assignments(inst, cap=5).assignments
    assert [sum(f.values[r] << i for i, r in enumerate(inst.graph.vertices))
            for f in first] == [37, 293, 41, 2089, 69]


def test_new33_enumeration_empty():
    result = enumerate_ks_assignments(builtin("new33"))
    assert result.assignments == []
    assert not result.truncated


def test_yuoh_h_ray_property():
    inst = builtin("yuoh13")
    result = enumerate_ks_assignments(inst)
    assert not result.truncated
    assert result.assignments
    hs = yuoh_h_rays()
    for f in result.assignments:
        assert sum(f.values[h] for h in hs) <= 1


def test_unsat_stable_under_input_permutation():
    base = list(builtin("new33").graph.vertices)
    rng = random.Random(11)
    for _ in range(3):
        rng.shuffle(base)
        inst = KSInstance("shuffled", base)
        res = find_ks_assignment(inst)
        assert not res.satisfiable
        assert res.nodes == find_ks_assignment(builtin("new33")).nodes


@pytest.mark.parametrize("size,seed", [(8, 0), (10, 1), (12, 2), (14, 3), (15, 4)])
def test_search_matches_powerset_enumeration(size, seed):
    rng = random.Random(seed)
    pool = list(builtin("new33").graph.vertices) + list(
        builtin("peres33").graph.vertices
    )
    rays = rng.sample(pool, size)
    inst = KSInstance(f"random{seed}", rays)
    expected = ks_assignments_powerset(inst)
    found = enumerate_ks_assignments(inst, cap=1 << 16)
    assert not found.truncated
    masks = set()
    order = {r: i for i, r in enumerate(inst.graph.vertices)}
    for f in found.assignments:
        mask = 0
        for r, v in f.values.items():
            if v:
                mask |= 1 << order[r]
        masks.add(mask)
    assert masks == set(expected)
    assert find_ks_assignment(inst).satisfiable == bool(expected)


def test_cnf_export_cross_checked_by_dpll():
    unsat_cnf = to_dimacs_cnf(builtin("new33"))
    nvars, clauses = parse_dimacs_cnf(unsat_cnf)
    assert nvars == 33
    assert not dpll_satisfiable(nvars, clauses)
    sat_cnf = to_dimacs_cnf(builtin("yuoh13"))
    assert dpll_satisfiable(*parse_dimacs_cnf(sat_cnf))


def test_cnf_clause_counts():
    inst = builtin("yuoh13")
    text = to_dimacs_cnf(inst)
    _, clauses = parse_dimacs_cnf(text)
    assert len(clauses) == inst.graph.edge_count() + len(inst.bases)


@pytest.mark.parametrize("name", ["new33", "peres33", "conway31"])
def test_every_ray_is_critical(name):
    # Deleting a ray drops its edges and every basis through it; a KS subset
    # with fewer bases would be a proper ray subset, so none exists.
    inst = builtin(name)
    rays = inst.graph.vertices
    colorable = []
    for v in range(len(rays)):
        sub = KSInstance(f"{name}-{v}", rays[:v] + rays[v + 1:])
        verdict = find_ks_assignment(sub).satisfiable
        assert dpll_satisfiable(*parse_dimacs_cnf(to_dimacs_cnf(sub))) == verdict
        colorable.append(verdict)
    assert all(colorable)
    for orbit in inst.graph.group.orbits:
        assert len({colorable[v] for v in orbit}) == 1
