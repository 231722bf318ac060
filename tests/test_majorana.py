"""Majorana two-point representation: anchors, uniqueness, phase invariance."""

import csv
import math

from ksverify.catalog import builtin
from ksverify.cli import write_files
from ksverify.cyclotomic import omega
from ksverify.majorana import export_majorana, majorana_points
from ksverify.rays import Ray

from oracles import scale_ray

W = omega()
W2 = W * W

NORTH = (0.0, 0.0, 1.0)
SOUTH = (0.0, 0.0, -1.0)


def ray(*components):
    return Ray(components)


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
