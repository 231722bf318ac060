"""KS colorability search against direct power-set enumeration."""

import itertools
import random
from types import SimpleNamespace

import pytest

from ksverify.catalog import builtin
from ksverify.colorability import (
    KSInstance,
    close,
    find_ks_assignment,
    to_dimacs_cnf,
    verify_assignment,
)
from ksverify.cyclotomic import omega
from ksverify.orthograph import edge_list
from ksverify.rays import Ray

from oracles import (
    basis_rays,
    dpll_satisfiable,
    ks_assignments_powerset,
    ks_close_four_rules,
    parse_dimacs_cnf,
)

W = omega()


def ray(*components):
    return Ray(components)


def triangle_instance():
    return KSInstance("triangle", [ray(0, 0, 1), ray(0, 1, 0), ray(1, 0, 0)])


def assignment_for(inst, ones):
    """The mask of the vertices of `inst` in the ray set `ones`."""
    return sum(1 << i for i, r in enumerate(inst.graph.vertices) if r in ones)


def found_mask(inst):
    """The ones mask of the search's assignment, or None when it reports UNSAT."""
    return find_ks_assignment(inst).ones


def test_verify_assignment_examples():
    inst = triangle_instance()
    e3 = ray(0, 0, 1)
    e2 = ray(0, 1, 0)
    ok = assignment_for(inst, {e3})
    assert verify_assignment(inst, ok) == []
    both = assignment_for(inst, {e3, e2})
    assert any(line.endswith("both assigned 1") for line in verify_assignment(inst, both))
    none = assignment_for(inst, set())
    problems = verify_assignment(inst, none)
    assert problems and all("assignment sum" in line for line in problems)


def test_single_basis_enumeration():
    inst = triangle_instance()
    assert ks_assignments_powerset(inst) == [1, 2, 4]
    assert found_mask(inst) == 1


def test_new33_unsat_and_yuoh_sat():
    res33 = find_ks_assignment(builtin("new33"))
    assert not res33.satisfiable
    assert res33.nodes == 33
    res13 = find_ks_assignment(builtin("yuoh13"))
    assert res13.satisfiable
    assert verify_assignment(builtin("yuoh13"), res13.ones) == []
    # the branching order: node counts and the first assignments, in order
    assert res13.nodes == 3
    assert find_ks_assignment(builtin("peres33")).nodes == 33
    assert find_ks_assignment(builtin("conway31")).nodes == 13
    assert found_mask(builtin("yuoh13")) == 37


@pytest.mark.parametrize("name", ["new33", "yuoh13", "peres33", "conway31"])
def test_close_matches_the_four_rule_propagation(name):
    """`close` reads basis mates and two 1s in a basis from the rows; from
    every start of one or two 1s it reaches what the four rules reach."""
    inst = builtin(name)
    adj = inst.graph.adj
    bases = [sum(1 << t for t in triple) for triple in inst.basis_indices]
    starts = itertools.chain(itertools.combinations(range(inst.graph.n), 1),
                             itertools.combinations(range(inst.graph.n), 2))
    for start in starts:
        ones = sum(1 << v for v in start)
        assert close(adj, bases, ones, 0) == ks_close_four_rules(adj, bases, ones, 0)


def test_search_has_no_depth_limit():
    """1,200 disjoint bases, given as masks only, are 1,200 search levels:
    each is decided by its first member, one try per level."""
    n = 1200
    triples = [(3 * k, 3 * k + 1, 3 * k + 2) for k in range(n)]
    adj = [sum(1 << u for u in t) & ~(1 << v) for t in triples for v in t]
    inst = SimpleNamespace(graph=SimpleNamespace(adj=adj), basis_indices=triples)
    assert find_ks_assignment(inst) == (True, sum(1 << 3 * k for k in range(n)), n)


def test_yuoh_h_ray_property():
    # the h-rays are the four rays in no complete basis
    inst = builtin("yuoh13")
    in_bases = set().union(*inst.basis_indices)
    hs = [v for v in range(inst.graph.n) if v not in in_bases]
    assert {inst.graph.vertices[v] for v in hs} == {
        ray(1, 1, 1), ray(1, 1, -1), ray(1, -1, 1), ray(-1, 1, 1)}
    masks = ks_assignments_powerset(inst)
    assert len(masks) == 24
    for mask in masks:
        assert sum(mask >> h & 1 for h in hs) <= 1


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
    mask = found_mask(inst)
    assert (mask is not None) == bool(expected)
    assert mask is None or mask in expected


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
    assert len(clauses) == len(edge_list(inst.graph.adj)) + len(inst.basis_indices)


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


# the bases whose clause an UNSAT CNF can lose and stay UNSAT
REDUNDANT_BASES = {"new33": [0], "peres33": [1, 4, 7], "conway31": []}


@pytest.mark.parametrize("name", sorted(REDUNDANT_BASES))
def test_every_other_constraint_is_critical(name):
    """Dropping any one CNF clause makes DPLL find an assignment, with named exceptions.

    The exceptions are a few basis clauses; every orthogonal pair in no
    basis is needed.  new33 can lose its standard basis.
    """
    inst = builtin(name)
    nvars, clauses = parse_dimacs_cnf(to_dimacs_cnf(inst))
    edges = edge_list(inst.graph.adj)
    in_bases = {pair for t in inst.basis_indices for pair in itertools.combinations(t, 2)}

    def unsat_without(k):
        return not dpll_satisfiable(nvars, clauses[:k] + clauses[k + 1:])

    assert [b for b in range(len(inst.basis_indices)) if unsat_without(len(edges) + b)] == (
        REDUNDANT_BASES[name])
    lone = [k for k, e in enumerate(edges) if e not in in_bases]
    assert len(lone) == {"new33": 36, "peres33": 24, "conway31": 20}[name]
    assert not any(unsat_without(k) for k in lone)
    if name == "new33":
        assert set(basis_rays(inst)[0]) == {ray(1, 0, 0), ray(0, 1, 0), ray(0, 0, 1)}
