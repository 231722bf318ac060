"""Majorana two-point representation: anchors, uniqueness, phase invariance."""

import csv
import math

import pytest

from ksverify.catalog import builtin
from ksverify.cli import write_files
from ksverify.cyclotomic import omega, sqrt2
from ksverify.majorana import double_star, export_majorana, majorana_points

from oracles import ray, scale_ray

W = omega()
W2 = W * W

NORTH = (0.0, 0.0, 1.0)
SOUTH = (0.0, 0.0, -1.0)


def close(p, q, tol):
    return all(abs(a - b) <= tol for a, b in zip(p, q))


def pairs_equal(P, Q, tol):
    return close(P[0], Q[0], tol) and close(P[1], Q[1], tol)


def test_pole_anchors_exact():
    both_north = majorana_points(ray(1, 0, 0))
    assert close(both_north[0], NORTH, 1e-12) and close(both_north[1], NORTH, 1e-12)
    split = majorana_points(ray(0, 1, 0))
    assert close(split[0], SOUTH, 1e-12) and close(split[1], NORTH, 1e-12)
    both_south = majorana_points(ray(0, 0, 1))
    assert close(both_south[0], SOUTH, 1e-12) and close(both_south[1], SOUTH, 1e-12)


def test_points_lie_on_unit_sphere():
    for r in builtin("new33").graph.vertices:
        for p in majorana_points(r):
            assert abs(math.sqrt(sum(c * c for c in p)) - 1.0) < 1e-9


def test_phase_invariance():
    for r in (ray(1, W, W2), ray(1, 1, -1), ray(0, 1, W), ray(1, -1, 0)):
        base = majorana_points(r)
        for scalar in (W, W2, -1, 2, -3 * W):
            scaled = majorana_points(scale_ray(r, scalar))
            assert pairs_equal(base, scaled, 1e-9)


def test_pairs_distinct_across_new33():
    rays = builtin("new33").graph.vertices
    pairs = [majorana_points(r) for r in rays]
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            assert not pairs_equal(pairs[i], pairs[j], 1e-6)


def test_some_points_shared_between_rays():
    rays = builtin("new33").graph.vertices
    pairs = [majorana_points(r) for r in rays]
    shared = 0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            for p in pairs[i]:
                for q in pairs[j]:
                    if close(p, q, 1e-9):
                        shared += 1
    assert shared > 0


def test_export_csv(tmp_path):
    path = tmp_path / "maj.csv"
    write_files(export_majorana(builtin("new33"), str(path)))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")  # convention note
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 66
    assert set(rows[0].keys()) == {"ray_index", "ray", "point_index", "x", "y", "z"}
    indices = {(int(r["ray_index"]), int(r["point_index"])) for r in rows}
    assert len(indices) == 66
    for r in rows[:6]:
        vec = (float(r["x"]), float(r["y"]), float(r["z"]))
        assert abs(math.sqrt(sum(c * c for c in vec)) - 1.0) < 1e-9


def test_double_stars_are_decided_exactly():
    """c1^2 = 2*c0*c2 in the rays' own field: the poles (1,0,0) and (0,0,1)
    in every set, and Peres's (1,+-sqrt(2),1), whose quadratic is (t -+ 1)^2."""
    poles = {ray(1, 0, 0), ray(0, 0, 1)}
    s = sqrt2()
    expected = {"new33": poles, "peres33": poles | {ray(1, s, 1), ray(1, -s, 1)},
                "conway31": poles}
    for name, doubles in expected.items():
        assert {r for r in builtin(name).graph.vertices if double_star(r)} == doubles


@pytest.mark.parametrize("name, count", [("new33", 2), ("peres33", 4), ("conway31", 2)])
def test_a_double_star_prints_one_point_twice(tmp_path, name, count):
    inst = builtin(name)
    path = tmp_path / "maj.csv"
    write_files(export_majorana(inst, str(path)))
    rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
    doubles = [str(i) for i, r in enumerate(inst.graph.vertices) if double_star(r)]
    assert len(doubles) == count
    for index in doubles:
        first, second = ([row[k] for k in "xyz"] for row in rows if row["ray_index"] == index)
        assert first == second and "-0" not in first
