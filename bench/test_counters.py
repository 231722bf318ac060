"""Exact counters of the traced run repeat exactly and hold their known values.

Run with `python3 -m pytest bench` from the repository root.  The
conway31 case runs its 30-40 s search once and is compared with the
known value only.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

import run

# (ksverify arguments, counters that must take these values)
KNOWN = [
    (["verify", "new33"], {"colorability.find_ks_assignment.nodes": 33}),
    (["game", "new33"], {"cyclotomic.Cyc.calls": 31723,
                         "orthograph.automorphisms.order": 144}),
    (["minimal", "new33"], {"game.minimal_distribution_search.candidates": 962,
                            "orthograph.automorphisms.order": 144}),
    (["minimal", "peres33"], {"game.minimal_distribution_search.candidates": 6426,
                              "orthograph.automorphisms.order": 48}),
]
SLOW = (["minimal", "conway31"], {"game.minimal_distribution_search.candidates": 78843,
                                  "orthograph.automorphisms.order": 4})


def traced(argv, tmp_path, tag) -> dict:
    job = run.Job(f"{argv[0]}-{argv[1]}-{tag}", argv)
    out = tmp_path / f"{job.name}.json"
    result = run.run_job(job, tmp_path, trace_out=out)
    assert result.error is None, result.error
    doc = json.loads(out.read_text(encoding="utf-8"))
    calls = Counter(name for _, _, name, _, _, _ in doc["spans"])
    return {"counts": doc["counts"], "calls": dict(calls)}


@pytest.mark.parametrize("argv,known", KNOWN, ids=lambda v: "-".join(v) if isinstance(v, list) else "")
def test_counters_repeat_and_match(argv, known, tmp_path):
    first = traced(argv, tmp_path, "a")
    second = traced(argv, tmp_path, "b")
    assert first == second
    for key, value in known.items():
        assert first["counts"][key] == value, key


def test_conway31_candidates(tmp_path):
    argv, known = SLOW
    counts = traced(argv, tmp_path, "a")["counts"]
    for key, value in known.items():
        assert counts[key] == value, key


def test_spans_nest_and_self_times_add_up(tmp_path):
    job = run.Job("game-new33", ["game", "new33"])
    out = tmp_path / "trace.json"
    assert run.run_job(job, tmp_path, trace_out=out).error is None
    spans = json.loads(out.read_text(encoding="utf-8"))["spans"]
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[1] == -1]
    assert [s[2] for s in roots] == ["cli.main"]
    for sid, parent, _, start, end, self_s in spans:
        assert start <= end and self_s >= -1e-9
        if parent != -1:
            p = by_id[parent]
            assert p[3] <= start and end <= p[4]
    main = roots[0]
    total_self = sum(s[5] for s in spans)
    assert abs(total_self - (main[4] - main[3])) < 1e-6


def test_layer_metrics_cover_every_traced_function(tmp_path):
    job = run.Job("verify-new33", ["verify", "new33"])
    out = tmp_path / "trace.json"
    assert run.run_job(job, tmp_path, trace_out=out).error is None
    metrics = run.layer_metrics([json.loads(out.read_text(encoding="utf-8"))])
    assert metrics["colorability.find_ks_assignment.nodes"] == 33
    assert metrics["rays.Ray.calls"] == 33
    assert metrics["rays.is_orthogonal.calls"] == 528
    assert metrics["game.minimal_distribution_search.self_s"] == 0.0
    assert metrics["cli.main.self_s"] > 0
