"""The harness's timing: probe pauses are not job time.

Run with `python3 -m pytest bench` from the repository root.
"""

from __future__ import annotations

import sys

import run

BUSY = "import time\nt = time.process_time()\nwhile time.process_time() - t < 2.5:\n    pass\n"


def test_probe_samples_long_jobs_and_pauses_are_not_wall_time(tmp_path):
    wall, code, usage, samples = run.spawn([sys.executable, "-c", BUSY], tmp_path / "busy.out")
    cpu = usage.ru_utime + usage.ru_stime
    assert code == 0
    assert len(samples) >= 1
    assert all(s > 0 for s in samples)
    # the job is stopped while the loop is timed, and that time is taken off
    assert abs(wall - cpu) < 0.25, (wall, cpu)


def test_short_jobs_are_not_probed(tmp_path):
    _, code, _, samples = run.spawn([sys.executable, "-c", "pass"], tmp_path / "short.out")
    assert code == 0 and samples == []
