"""Orthogonality graphs: bases, independence number, automorphisms."""

import pytest

from ksverify.catalog import builtin
from ksverify.cyclotomic import omega
from ksverify.orthograph import (
    automorphisms,
    build_graph,
    complete_bases,
    dimacs_edges,
    enumerate_automorphisms,
    greedy_clique_cover,
    independence_number,
    max_independent_set,
)
from ksverify.rays import Ray, validate_basis

from oracles import (
    alpha_exhaustive,
    alpha_powerset,
    automorphisms_bruteforce,
    close_under_products,
    count_orthogonal_pairs,
    orbits_of_group,
    parse_dimacs_edges,
    random_graph,
    triangles_direct,
)

W = omega()


def ray(*components):
    return Ray(components)


def triangle_graph():
    return build_graph([ray(0, 0, 1), ray(0, 1, 0), ray(1, 0, 0)])


def test_build_graph_triangle():
    g = triangle_graph()
    assert g.n == 3
    assert g.edge_count() == 3
    assert len(complete_bases(g)) == 1


def test_build_graph_deduplicates():
    g = build_graph([ray(1, 1, 0), ray(W, W, 0), ray(-2, -2, 0), ray(0, 0, 1)])
    assert g.n == 2


def test_yuoh_counts_against_direct_enumeration():
    inst = builtin("yuoh13")
    rays = inst.graph.vertices
    assert inst.graph.n == 13
    assert inst.graph.edge_count() == count_orthogonal_pairs(rays) == 24
    assert len(inst.bases) == triangles_direct(rays) == 4


def test_new33_counts():
    inst = builtin("new33")
    assert inst.graph.n == 33
    assert len(inst.bases) == 14
    assert triangles_direct(inst.graph.vertices) == 14


def test_every_basis_validates():
    for name in ("new33", "yuoh13"):
        inst = builtin(name)
        for basis in inst.bases:
            assert validate_basis(basis.rays) == []
    for name in ("peres33", "conway31", "schuette33", "penrose33"):
        try:
            inst = builtin(name)
        except FileNotFoundError:
            continue
        for basis in inst.bases:
            assert validate_basis(basis.rays) == []


def test_independence_small_graphs():
    assert max_independent_set([0b110, 0b101, 0b011])[0] == 1  # triangle
    c5 = [0b01010, 0b10100, 0b01001, 0b10010, 0b00101]
    alpha, witness = max_independent_set(c5)
    assert alpha == 2
    assert witness == (1, 2)
    assert max_independent_set([0])[0] == 1  # single vertex
    assert max_independent_set([])[0] == 0


def test_clique_cover_is_partition():
    adj = random_graph(12, 0.5, seed=7)
    classes = greedy_clique_cover(adj)
    union = 0
    for c in classes:
        assert union & c == 0
        union |= c
    assert union == (1 << 12) - 1


@pytest.mark.parametrize("seed", range(12))
def test_independence_number_matches_powerset(seed):
    n = 6 + seed % 7
    adj = random_graph(n, 0.25 + 0.05 * seed, seed)
    alpha, witness = max_independent_set(adj)
    assert alpha == alpha_powerset(adj) == alpha_exhaustive(adj)
    for a in witness:
        for b in witness:
            assert a == b or not adj[a] >> b & 1
    assert len(witness) == alpha


def test_automorphisms_triangle():
    rep = automorphisms(triangle_graph())
    assert rep.order == 6
    assert rep.orbits == ((0, 1, 2),)


def test_automorphisms_path():
    # path on 3 vertices: only the end swap
    g = build_graph([ray(0, 0, 1), ray(0, 1, 0), ray(1, 1, 1)])
    # edges: (0,0,1)-(0,1,0); (0,1,0)-? (1,1,1) orthogonal to neither? check:
    # <*(0,0,1)|(1,1,1)> = 1, <(0,1,0)|(1,1,1)> = 1 -> only one edge: K2 + isolated
    rep = automorphisms(g)
    assert rep.order == 2


def test_new33_automorphisms():
    rep = automorphisms(builtin("new33").graph)
    assert rep.order == len(rep.elements) == 144
    assert sorted(len(o) for o in rep.orbits) == [3, 12, 18]
    assert list(rep.elements) == sorted(set(rep.elements))


def test_generator_closure_reproduces_group_and_orbits():
    """The elements are closed, preserve adjacency and give union-find orbits."""
    for name in ("new33", "peres33", "conway31", "yuoh13"):
        g = builtin(name).graph
        rep = automorphisms(g)
        assert tuple(range(g.n)) in rep.elements
        assert close_under_products(rep.elements, g.n) == set(rep.elements)
        for p in rep.elements:
            for u in range(g.n):
                for v in range(g.n):
                    assert (g.adj[u] >> v & 1) == (g.adj[p[u]] >> p[v] & 1)
        assert orbits_of_group(rep.elements, g.n) == rep.orbits


def test_enumerate_automorphisms_matches_permutation_scan():
    for seed in range(40):
        adj = random_graph(4 + seed % 4, 0.2 + 0.15 * (seed % 5), seed)
        assert enumerate_automorphisms(adj) == automorphisms_bruteforce(adj)


def test_legacy_automorphism_orders():
    expected = {"peres33": (48, 4), "conway31": (4, 10), "schuette33": (8, 9)}
    for name, (order, orbit_count) in expected.items():
        try:
            inst = builtin(name)
        except FileNotFoundError:
            continue
        rep = automorphisms(inst.graph)
        assert rep.order == order
        assert len(rep.orbits) == orbit_count


def test_enumerate_automorphisms_is_a_group():
    g = triangle_graph()
    perms = enumerate_automorphisms(g.adj)
    assert len(perms) == 6
    perm_set = set(perms)
    for p in perms:
        for q in perms:
            assert tuple(p[x] for x in q) in perm_set


def test_dimacs_roundtrip():
    inst = builtin("yuoh13")
    text = dimacs_edges(inst.graph.adj)
    assert text.startswith("p edge 13 24\n")
    adj = parse_dimacs_edges(text)
    assert adj == list(inst.graph.adj)


def test_dimacs_header_mismatch_rejected():
    with pytest.raises(ValueError):
        parse_dimacs_edges("p edge 3 2\ne 1 2\n")


def test_independence_number_of_graph_object():
    alpha, witness = independence_number(builtin("yuoh13").graph)
    assert alpha == alpha_exhaustive(list(builtin("yuoh13").graph.adj))
    assert len(witness) == alpha
