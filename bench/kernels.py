"""Cyclotomic kernel timings on fixed operands, in ns per operation.

Usage (with the repository's `src` on PYTHONPATH):

    python3 bench/kernels.py

Operands are Hermitian inner products of ray pairs of the shipped sets,
one set per conductor: conway31 (1), new33 (3) and peres33 (8).  Each
kernel runs over its operand list until a repeat takes at least
REPEAT_SECONDS; the median of REPEATS repeats is reported, scaled to the
reference machine speed of run.py.  Prints one
JSON object of `<module>.<kernel>.c<conductor>_ns` metrics.
"""

from __future__ import annotations

import json
import statistics
import time

from ksverify.catalog import builtin
from ksverify.cyclotomic import Cyc
from ksverify.rays import Ray, inner
from run import CAL_REF_S, calibrate

SETS = {1: "conway31", 3: "new33", 8: "peres33"}
PAIR_RAYS = 12  # inner products of all pairs among the first 12 rays
REPEATS = 5
REPEAT_SECONDS = 0.02


def operands(name: str) -> tuple[list[Cyc], list[Ray]]:
    rays = builtin(name).graph.vertices
    head = rays[:PAIR_RAYS]
    products = [inner(a, b) for i, a in enumerate(head) for b in head[i + 1:]]
    return products, list(rays)


def ns_per_op(kernel, items) -> float:
    """Median over repeats of ns per call of `kernel` on each item, scaled
    to the reference speed by calibrations just before and after."""
    before = calibrate()
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            for item in items:
                kernel(item)
        if time.perf_counter() - start >= REPEAT_SECONDS:
            break
        loops *= 2
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            for item in items:
                kernel(item)
        samples.append((time.perf_counter() - start) / (loops * len(items)))
    scale = CAL_REF_S / ((before + calibrate()) / 2)
    return statistics.median(samples) * 1e9 * scale


def main() -> None:
    metrics = {}
    for conductor, name in SETS.items():
        products, rays = operands(name)
        nonzero = [c for c in products if not c.is_zero()]
        pairs = list(zip(nonzero, nonzero[1:] + nonzero[:1]))
        components = [r.components for r in rays]
        tag = f"c{conductor}_ns"
        metrics[f"cyclotomic.mul.{tag}"] = ns_per_op(lambda p: p[0] * p[1], pairs)
        metrics[f"cyclotomic.conj.{tag}"] = ns_per_op(Cyc.conj, nonzero)
        metrics[f"cyclotomic.inverse.{tag}"] = ns_per_op(Cyc.inverse, nonzero)
        metrics[f"cyclotomic.is_zero.{tag}"] = ns_per_op(Cyc.is_zero, products)
        metrics[f"rays.Ray.{tag}"] = ns_per_op(Ray, components)
    print(json.dumps(metrics))


if __name__ == "__main__":
    main()
