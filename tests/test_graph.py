"""Orthogonality graphs: bases, independence number, automorphisms."""

import itertools

import pytest

from ksverify.catalog import EXPECTED, builtin, builtin_rays
from ksverify.cyclotomic import Cyc, omega
from ksverify.orthograph import (
    automorphisms,
    build_graph,
    complete_bases,
    dimacs_edges,
    edge_list,
    enumerate_automorphisms,
    greedy_clique_cover,
    max_independent_set,
    symmetry_report,
)
from ksverify.rays import validate_basis

from oracles import (
    IMAGE_CONDUCTORS,
    IMAGE_MATRICES,
    IMAGE_SOURCES,
    alpha_exhaustive,
    alpha_powerset,
    automorphisms_backtrack,
    automorphisms_bruteforce,
    close_under_products,
    count_orthogonal_pairs,
    fraction_adjacency,
    fraction_ray_count,
    monomial_symmetries,
    non_monomial_image,
    orbits_of_group,
    parse_dimacs_edges,
    random_graph,
    ray,
    triangles_direct,
)

W = omega()


def triangle_graph():
    return build_graph([ray(0, 0, 1), ray(0, 1, 0), ray(1, 0, 0)])


def test_build_graph_triangle():
    g = triangle_graph()
    assert g.n == 3
    assert len(edge_list(g.adj)) == 3
    assert len(complete_bases(g)) == 1


def test_build_graph_deduplicates():
    g = build_graph([ray(1, 1, 0), ray(W, W, 0), ray(-2, -2, 0), ray(0, 0, 1)])
    assert g.n == 2


def test_yuoh_counts_against_direct_enumeration():
    inst = builtin("yuoh13")
    rays = inst.graph.vertices
    assert inst.graph.n == 13
    assert len(edge_list(inst.graph.adj)) == count_orthogonal_pairs(rays) == 24
    assert len(inst.basis_indices) == triangles_direct(rays) == 4


def test_new33_counts():
    inst = builtin("new33")
    assert inst.graph.n == 33
    assert len(inst.basis_indices) == 14
    assert triangles_direct(inst.graph.vertices) == 14


@pytest.mark.parametrize("name", ["new33", "yuoh13", "peres33", "conway31"])
def test_rays_and_bases_rechecked_in_fraction_arithmetic(name):
    """The paper's ray count from the construction's own components (one ray
    where every 2x2 minor is 0) and its basis count from the triangles of the
    Fraction-arithmetic graph: no canonical form and no src graph."""
    inst = builtin(name)
    assert fraction_ray_count(builtin_rays(name)) == EXPECTED[name]["rays"] == inst.graph.n
    assert triangles_direct(inst.graph.vertices) == EXPECTED[name]["bases"]


@pytest.mark.parametrize("name,count", [("new33", 14), ("peres33", 16), ("conway31", 17)])
def test_complete_bases_are_the_adjacency_triangles(name, count):
    inst = builtin(name)
    g = inst.graph
    triangles = [
        (i, j, k) for i, j, k in itertools.combinations(range(g.n), 3)
        if g.adj[i] >> j & 1 and g.adj[i] >> k & 1 and g.adj[j] >> k & 1
    ]
    assert len(triangles) == count
    assert complete_bases(g) == triangles
    assert list(inst.basis_indices) == triangles


@pytest.mark.parametrize("source", [
    *(pytest.param(name, id=name) for name in ("new33", "peres33", "conway31", "yuoh13")),
    *(pytest.param(key, id="-".join(map(str, key))) for key in itertools.product(
        IMAGE_SOURCES, IMAGE_MATRICES, IMAGE_CONDUCTORS)),
])
def test_adjacency_matches_fraction_inner_products(source):
    """Every edge of a shipped set's graph, and of its 18 non-monomial
    images', against inner products in per-coefficient Fractions."""
    g = (builtin(source).graph if isinstance(source, str)
         else build_graph(non_monomial_image(*source)))
    assert fraction_adjacency(g.vertices) == list(g.adj)


def test_every_basis_validates():
    """Each basis triangle of the graph passes the exact orthogonality check."""
    for name in ("new33", "yuoh13", "peres33", "conway31", "schuette33", "penrose33"):
        try:
            inst = builtin(name)
        except FileNotFoundError:
            continue
        for triple in inst.basis_indices:
            assert validate_basis([inst.graph.vertices[v] for v in triple]) == []


def test_independence_small_graphs():
    assert max_independent_set([0b110, 0b101, 0b011])[0] == 1  # triangle
    c5 = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]  # vertex i meets i +- 1 mod 5
    assert all((c5[i] >> j & 1) == (c5[j] >> i & 1) for i in range(5) for j in range(5))
    assert max_independent_set(c5) == (2, (0, 2))
    assert max_independent_set([0])[0] == 1  # single vertex
    assert max_independent_set([])[0] == 0


def test_max_independent_set_has_no_depth_limit():
    """1,100 isolated vertices are 1,100 clique classes, one search level each."""
    assert max_independent_set([0] * 1100) == (1100, tuple(range(1100)))


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


def test_new33_group_is_its_monomial_symmetries():
    """|Aut| = 144 from the rays alone: the 432 maps D P v and D P conj(v)
    with D = diag(1, +-w^j, +-w^k) induce exactly the graph's group."""
    inst = builtin("new33")
    phases = [s * u for s in (1, -1) for u in (Cyc.from_rational(1), W, W * W)]
    maps = monomial_symmetries(inst, phases)
    assert sorted(p for p, _ in maps) == list(inst.graph.group.elements)
    assert len(maps) == 144
    assert sum(unitary for _, unitary in maps) == 72


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


def test_enumerate_automorphisms_is_bounded():
    assert len(enumerate_automorphisms([0] * 7)) == 5040
    for n in (8, 33):
        with pytest.raises(ValueError, match="more than 10000"):
            enumerate_automorphisms([0] * n)


def _graph(n, edges):
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _cycle(n):
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_enumerate_automorphisms_has_no_depth_limit():
    """The first-leaf search maps one vertex per level, 1,100 levels deep here."""
    n = 1100
    path = _graph(n, [(i, i + 1) for i in range(n - 1)])
    assert enumerate_automorphisms(path) == [tuple(range(n)), tuple(range(n - 1, -1, -1))]


NAMED_GRAPHS = {
    "C12": (_cycle(12), 24),
    "C30": (_cycle(30), 60),
    "Petersen": (_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                        + [(i, i + 5) for i in range(5)]
                        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]), 120),
    "K3,3": (_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]), 72),
    "3K3": (_graph(9, [(3 * k + i, 3 * k + j) for k in range(3)
                       for i, j in ((0, 1), (0, 2), (1, 2))]), 1296),
}


@pytest.mark.parametrize("name", NAMED_GRAPHS)
def test_stabilizer_chain_matches_backtrack_on_named_graphs(name):
    adj, order = NAMED_GRAPHS[name]
    elements = enumerate_automorphisms(adj)
    assert len(elements) == order
    assert elements == automorphisms_backtrack(adj)


@pytest.mark.parametrize("name", ["new33", "peres33", "conway31"])
def test_group_facts_rechecked_on_the_oracle_graph(name):
    """|Aut| and the orbits from the full backtrack on the Fraction-arithmetic
    graph, with no src graph or group: the `symmetry` facts and the paper's."""
    inst = builtin(name)
    elements = automorphisms_backtrack(fraction_adjacency(inst.graph.vertices))
    sizes = sorted(map(len, orbits_of_group(elements, inst.graph.n)))
    oracle = {"aut_order": len(elements), "orbit_sizes": sizes, "orbit_count": len(sizes)}
    assert symmetry_report(inst)[0][name] == oracle
    expected = {key: value for key, value in EXPECTED[name].items() if key in oracle}
    assert "aut_order" in expected and len(expected) == 2
    assert {key: oracle[key] for key in expected} == expected


def test_stabilizer_chain_matches_backtrack_on_catalog_sets():
    for name in ("new33", "peres33", "conway31", "yuoh13", "schuette33"):
        try:
            adj = list(builtin(name).graph.adj)
        except FileNotFoundError:
            continue
        assert enumerate_automorphisms(adj) == automorphisms_backtrack(adj)


def _group_or_cap(enumerate_, adj):
    try:
        return enumerate_(adj)
    except ValueError as exc:
        assert str(exc) == "automorphism group has more than 10000 elements"
        return None


def test_stabilizer_chain_matches_backtrack_on_random_graphs():
    capped = 0
    for seed in range(320):
        n = 4 + seed % 9
        adj = random_graph(n, 0.05 + 0.9 * (seed * 7 % 19) / 18, seed)
        expected = _group_or_cap(automorphisms_backtrack, adj)
        assert _group_or_cap(enumerate_automorphisms, adj) == expected
        capped += expected is None
    assert 0 < capped < 320


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
    text = "".join(dimacs_edges(inst.graph.adj))
    assert text.startswith("p edge 13 24\n")
    adj = parse_dimacs_edges(text)
    assert adj == list(inst.graph.adj)


def test_dimacs_header_mismatch_rejected():
    with pytest.raises(ValueError):
        parse_dimacs_edges("p edge 3 2\ne 1 2\n")


def test_independence_number_of_graph_object():
    adj = builtin("yuoh13").graph.adj
    alpha, witness = max_independent_set(adj)
    assert alpha == alpha_exhaustive(list(adj))
    assert len(witness) == alpha
    assert not any(adj[a] >> b & 1 for a in witness for b in witness)
