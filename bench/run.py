"""ksverify benchmark: real CLI jobs, one fresh process per job.

Usage, from the repository root:

    python3 bench/run.py --workload paper-repro --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --record                # re-record expected outputs

A workload is a list of `ksverify --expect-paper ...` jobs.  One pass runs
the list once, job after job, from this single harness process; passes repeat
until `--seconds` have gone by (at least one pass).  Every job must exit 0
and pass its output check, or it counts as failed.

With `--trace 0` the last stdout line reports the end-to-end metrics: the
wall time and CPU time of the job list (each job's median over the passes,
summed), the largest job resident set, and the median start-up time of a
fresh interpreter that imports `ksverify.cli`.  Times are scaled to a
reference machine speed measured next to every job (see calibrate() and
SpeedProbe); the times as measured go to stderr.  With `--trace 1` untraced and traced passes
alternate (see tracer.py); it reports per-function self times and exact
counters from the traced passes, the tracing overhead, and the
cyclotomic kernel timings of kernels.py.  Human-readable figures go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected"
DATA_DIR = SRC / "ksverify" / "data"
DATA_PLACEHOLDER = "<DATA_DIR>"

JOB_TIMEOUT_S = 120
# Reference machine speed: timings are scaled to a machine on which the
# calibration loop (CAL_TERMS iterations) takes CAL_REF_S.
CAL_TERMS = 2500
CAL_REF_S = 0.010
PROBE_INTERVAL_S = 2.0
SETUP_STARTS = 4  # fresh interpreters timed for setup_s before each pass and at the end

WORKLOADS = ("paper-repro", "legacy-minimal", "set-files")

# Facts of the source sets that every transformed set file must reproduce.
SOURCE_FACTS = {
    "new33": {"rays": 33, "bases": 14, "ks": "UNSAT", "aut_order": 144},
    "peres33": {"rays": 33, "bases": 16, "ks": "UNSAT", "aut_order": 48},
    "conway31": {"rays": 31, "bases": 17, "ks": "UNSAT", "aut_order": 4},
}

TRACED_FUNCTIONS = (
    "game.minimal_distribution_search", "game.build_game", "game.classical_value",
    "game.classical_value_twolevel", "game.quantum_value_maxent",
    "game.export_exclusivity_graph", "rays.Ray", "rays.is_orthogonal",
    "orthograph.build_graph", "orthograph.complete_bases", "orthograph.automorphisms",
    "orthograph.max_independent_set", "colorability.KSInstance",
    "colorability.to_dimacs_cnf", "colorability.find_ks_assignment",
    "catalog.load_set", "catalog.builtin", "weylheisenberg.orbit_closure",
    "weylheisenberg.is_sic_povm", "majorana.export_majorana", "cli.main",
)
CALL_METRICS = ("rays.Ray", "rays.is_orthogonal", "catalog.load_set")
COUNTERS = (
    "game.minimal_distribution_search.candidates", "rays.inner.calls",
    "cyclotomic.Cyc.calls", "colorability.find_ks_assignment.nodes",
)


@dataclass
class Job:
    name: str                  # unique in its workload; names the expected output
    argv: list[str]            # ksverify arguments after --expect-paper
    check: object = None       # check(stdout) -> error text or None


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None
    calibrations: list[float]  # calibration loop times taken while the job ran
    scale: float = 1.0  # CAL_REF_S / mean calibration time around and during the job


# -- output checks -------------------------------------------------------------


def expected_output(name: str):
    path = EXPECTED / f"{name}.txt"

    def check(stdout: str) -> str | None:
        if not path.exists():
            return f"no recorded output {path.name}"
        if stdout.replace(str(DATA_DIR), DATA_PLACEHOLDER) != path.read_text(encoding="utf-8"):
            return "stdout differs from the recorded output"
        return None

    return check


def require_lines(*wanted: str):
    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        for w in wanted:
            if not any(line.startswith(w) for line in lines):
                return f"missing output line {w!r}"
        return None

    return check


def counted_file(path: Path, header: str) -> str | None:
    """A DIMACS-style file whose header counts its data lines."""
    text = path.read_text(encoding="utf-8").splitlines()
    heads = [line for line in text if line.startswith(header)]
    if len(heads) != 1:
        return f"{path.name}: no '{header}' header"
    count = int(heads[0].split()[-1])
    data = [line for line in text if line and line[0] in "-0123456789e"]
    if len(data) != count:
        return f"{path.name}: header counts {count}, file has {len(data)}"
    return None


def set_file_check(kind: str, name: str, files: dict):
    facts = SOURCE_FACTS[name]
    rays, bases = facts["rays"], facts["bases"]
    lines = {
        "verify": (f"{name}: {rays} rays, {bases} complete bases",
                   f"KS assignment search: {facts['ks']} "),
        "bases": (f"{name}: {bases} complete bases", f"{bases - 1}: "),
        "symmetry": (f"{name}: automorphism group order {facts['aut_order']}",),
        "majorana": (f"{name}: wrote {2 * rays} sphere points ({rays} rays)",),
        "game": ("total winning events: 333", "classical value: 44/45",
                 "quantum value (conjugate-basis maximally entangled strategy): 1"),
    }[kind]
    base_check = require_lines(*lines)

    def check(stdout: str) -> str | None:
        err = base_check(stdout)
        if err:
            return err
        if kind == "verify":
            return counted_file(files["cnf"], f"p cnf {rays} ")
        if kind == "majorana":
            rows = files["csv"].read_text(encoding="utf-8").splitlines()
            if len(rows) != 2 + 2 * rays:
                return f"{files['csv'].name}: {len(rows) - 2} points, expected {2 * rays}"
        if kind == "game":
            err = counted_file(files["graph"], "p edge 333 ")
            if err:
                return err
            legend = files["legend"].read_text(encoding="utf-8").splitlines()
            if len(legend) != 334:
                return f"{files['legend'].name}: {len(legend) - 1} events, expected 333"
        return None

    return check


# -- workloads -----------------------------------------------------------------


def fixed_jobs(workload: str) -> list[Job]:
    if workload == "paper-repro":
        runs = [
            ("verify-new33", ["verify", "new33"]),
            ("verify-yuoh13", ["verify", "yuoh13"]),
            ("bases-new33", ["bases", "new33"]),
            ("symmetry-new33", ["symmetry", "new33"]),
            ("game-new33", ["game", "new33"]),
            ("generate-yuoh13-Z", ["generate", "--seed", "yuoh13", "--gens", "Z"]),
            ("generate-yuoh13-X", ["generate", "--seed", "yuoh13", "--gens", "X"]),
            ("sic-110", ["sic", "--seed", "(1,1,0)"]),
            ("sic-1m10", ["sic", "--seed", "(1,-1,0)"]),
            ("table1", ["table1"]),
        ]
    else:
        runs = [
            ("minimal-peres33", ["minimal", "peres33"]),
            ("minimal-conway31", ["minimal", "conway31"]),
        ]
    return [Job(name, argv, expected_output(name)) for name, argv in runs]


def set_file_jobs(work: Path, seed: int) -> list[Job]:
    from setfiles import SOURCES, source_documents, write_set_files

    paths = write_set_files(source_documents(SRC), work / "sets", seed)
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name in SOURCES:
        path = str(paths[name])
        cnf, csv = out / f"{name}.cnf", out / f"{name}.csv"
        jobs += [
            Job(f"verify-{name}", ["verify", path, "--export-cnf", str(cnf)],
                set_file_check("verify", name, {"cnf": cnf})),
            Job(f"bases-{name}", ["bases", path], set_file_check("bases", name, {})),
            Job(f"symmetry-{name}", ["symmetry", path],
                set_file_check("symmetry", name, {})),
            Job(f"majorana-{name}", ["majorana", path, "--out", str(csv)],
                set_file_check("majorana", name, {"csv": csv})),
        ]
    graph, legend = out / "new33.graph", out / "new33.legend"
    jobs.append(Job("game-new33", ["game", str(paths["new33"]), "--export-graph",
                                   str(graph), "--export-legend", str(legend)],
                    set_file_check("game", "new33", {"graph": graph, "legend": legend})))
    return jobs


# -- running jobs --------------------------------------------------------------


def child_env() -> dict:
    """The caller's environment without settings that change what a job does.

    PYTHON* variables (PYTHONDONTWRITEBYTECODE, PYTHONUNBUFFERED, ...) and
    KSVERIFY_DATA_DIR are dropped, so the bytecode cache is used as an
    installed package would use it and the shipped data directory is read.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "KSVERIFY_DATA_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class SpeedProbe(threading.Thread):
    """Times the calibration loop while a job runs, with the job stopped.

    Every PROBE_INTERVAL_S the job gets SIGSTOP, the loop is timed and the
    job gets SIGCONT, so a long job is scaled by the speed the machine had
    while it ran.  The paused time is not counted as the job's.
    """

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pidfd = os.pidfd_open(pid)
        self.done = threading.Event()
        self.samples: list[float] = []
        self.paused_s = 0.0

    def run(self) -> None:
        while not self.done.wait(PROBE_INTERVAL_S):
            start = time.perf_counter()
            try:
                signal.pidfd_send_signal(self.pidfd, signal.SIGSTOP)
                self.samples.append(calibrate())
                signal.pidfd_send_signal(self.pidfd, signal.SIGCONT)
            except ProcessLookupError:  # the job has ended
                return
            self.paused_s += time.perf_counter() - start


def spawn(cmd: list[str], stdout_path: Path) -> tuple[float, int, object, list[float]]:
    """Run cmd to completion: wall seconds, exit code, rusage, calibration samples."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        probe = SpeedProbe(proc.pid)
        probe.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no job running or stopped
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            probe.done.set()
            probe.join()
            os.close(probe.pidfd)
        wall = time.perf_counter() - start - probe.paused_s
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage, probe.samples


def run_job(job: Job, work: Path, trace_out: Path | None = None) -> JobResult:
    stdout_path = work / f"{job.name}.stdout"
    if trace_out is None:
        cmd = [sys.executable, "-m", "ksverify.cli", "--expect-paper", *job.argv]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_out),
               "--expect-paper", *job.argv]
    wall, code, usage, samples = spawn(cmd, stdout_path)
    stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
    if code != 0:
        error = f"exit code {code}"
    else:
        error = job.check(stdout) if job.check else None
    if error:
        print(f"FAILED {job.name}: {error}", file=sys.stderr)
    return JobResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, error,
                     samples)


@dataclass
class Pass:
    results: list[JobResult]
    traces: list

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.results)


def calibrate() -> float:
    """Fastest of three timings of a fixed pure-Python loop: the machine's speed now.

    Other tenants of the host change the speed of this machine by up to 2x
    for minutes at a time.  Timing this loop next to every job lets the
    end-to-end figures be scaled to one reference speed.  The loop mixes
    what ksverify spends its time on: Fraction arithmetic (the cyclotomic
    layer) and rebuilding tuples of bitmasks (the split search).
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = Fraction(0)
        masks = tuple(range(1, 17))
        for i in range(1, CAL_TERMS):
            total += Fraction(i % 7, i % 5 + 1)
            masks = tuple(m ^ (i & 7) for m in masks)
        best = min(best, time.perf_counter() - start)
    return best


def run_pass(jobs: list[Job], work: Path, traced: bool = False) -> Pass:
    results, traces = [], []
    before = calibrate()
    for i, job in enumerate(jobs):
        trace_out = work / f"trace-{i}.json" if traced else None
        result = run_job(job, work, trace_out)
        after = calibrate()
        around = [before, *result.calibrations, after]
        result.scale = CAL_REF_S / statistics.mean(around)
        before = after
        results.append(result)
        if traced and result.error is None:
            doc = json.loads(trace_out.read_text(encoding="utf-8"))
            doc["scale"] = result.scale
            traces.append(doc)
    return Pass(results, traces)


def per_job_medians(passes: list[Pass], scaled: bool = True) -> dict[str, float]:
    """Each job's median over the passes, combined over the job list.

    wall_s and cpu_s sum the per-job medians of the job's times, scaled to
    the reference speed unless `scaled` is false; peak_rss_mb is the
    largest per-job median.  Taking the median per job first keeps a burst
    of load, which usually hits one job of one pass, out of the result.
    """
    jobs = list(zip(*(p.results for p in passes)))
    med = statistics.median

    def k(r):
        return r.scale if scaled else 1.0

    return {
        "wall_s": sum(med(r.wall_s * k(r) for r in runs) for runs in jobs),
        "cpu_s": sum(med(r.cpu_s * k(r) for r in runs) for runs in jobs),
        "peak_rss_mb": max(med(r.rss_mb for r in runs) for runs in jobs),
    }


def setup_times(work: Path, starts: int) -> list[tuple[float, float]]:
    """(as timed, scaled) wall times of fresh interpreters that import ksverify.cli."""
    cmd = [sys.executable, "-c", "import ksverify.cli"]
    before = calibrate()
    times = []
    for _ in range(starts):
        wall, code, _, _ = spawn(cmd, work / "setup.stdout")
        if code != 0:
            raise RuntimeError("importing ksverify.cli failed; see setup.err")
        after = calibrate()
        times.append((wall, wall * CAL_REF_S / ((before + after) / 2)))
        before = after
    return times


# -- metrics -------------------------------------------------------------------


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-function self time (at the reference speed) and call counts,
    summed over one pass's jobs."""
    out = {f"{name}.self_s": 0.0 for name in TRACED_FUNCTIONS}
    out.update({f"{name}.calls": 0 for name in CALL_METRICS})
    out.update({name: 0 for name in COUNTERS})
    for doc in traces:
        for _, _, name, _, _, self_s in doc["spans"]:
            out[f"{name}.self_s"] += self_s * doc.get("scale", 1.0)
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
        for key, value in doc["counts"].items():
            if key in out:
                out[key] += value
    return out


# -- harness -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # the calibration in this process and the jobs it starts share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload == "set-files":
        jobs = set_file_jobs(work, seed)
    else:
        jobs = fixed_jobs(workload)

    if trace:
        return run_traced(workload, jobs, work, seconds)

    setup_times(work, 1)  # fills the bytecode cache, as an installed package has it
    setup, passes = [], []
    first_outputs = None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        # start-up samples are spread over the run, so they see the same load
        setup += setup_times(work, SETUP_STARTS)
        p = run_pass(jobs, work)
        outputs = [(work / f"{j.name}.stdout").read_bytes() for j in jobs]
        if first_outputs is None:
            first_outputs = outputs
        for job, result, a, b in zip(jobs, p.results, first_outputs, outputs):
            if a != b and result.error is None:
                # same inputs must give the same report on every pass
                result.error = "output changed between passes"
                print(f"FAILED {job.name}: {result.error}", file=sys.stderr)
        passes.append(p)
    setup += setup_times(work, SETUP_STARTS)
    attempted = len(jobs) * len(passes)
    failed = sum(p.failed for p in passes)
    metrics = per_job_medians(passes)
    metrics["setup_s"] = statistics.median(t for _, t in setup)
    raw = per_job_medians(passes, scaled=False)
    raw["setup_s"] = statistics.median(t for t, _ in setup)
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    cal_ms = [CAL_REF_S / r.scale * 1000 for p in passes for r in p.results]
    print(f"{workload} (seed {seed}): {len(jobs)} jobs per pass, {len(passes)} passes, "
          f"{len(setup)} start-ups; calibration loop median {statistics.median(cal_ms):.2f} ms "
          f"(range {min(cal_ms):.2f}..{max(cal_ms):.2f}, reference {CAL_REF_S * 1000:g} ms)",
          file=sys.stderr)
    print(f"  {'metric':<14} {'reported':>12} {'as timed':>12}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<14} {value:12.6g} {raw[name]:12.6g} {units[name]}", file=sys.stderr)
    print("  pass wall_s as timed: " + " ".join(f"{p.wall_s:.3f}" for p in passes),
          file=sys.stderr)
    print(f"  fail_frac      {failed / attempted:12.6g}    {failed} of {attempted} jobs",
          file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_traced(workload: str, jobs: list[Job], work: Path, seconds: float) -> dict:
    kernels = subprocess.run(
        [sys.executable, str(BENCH / "kernels.py")], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=True)
    kernel_ns = json.loads(kernels.stdout)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run_pass(jobs, work))
        traced.append(run_pass(jobs, work, traced=True))
    attempted = len(jobs) * len(plain + traced)
    failed = sum(p.failed for p in plain + traced)
    per_pass = [layer_metrics(p.traces) for p in traced]
    layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    overhead = per_job_medians(traced)["wall_s"] - per_job_medians(plain)["wall_s"]
    metrics = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": value, "unit": unit}
    for name, value in kernel_ns.items():
        metrics[name] = {"value": value, "unit": "ns"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"{workload} traced: {len(traced)} traced and {len(plain)} untraced passes, "
          f"tracing overhead {overhead:.4f} s", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record() -> None:
    """Write the expected stdout of every fixed-input job from a fresh run."""
    work = WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    EXPECTED.mkdir(exist_ok=True)
    for workload in ("paper-repro", "legacy-minimal"):
        for job in fixed_jobs(workload):
            job.check = None
            result = run_job(job, work)
            if result.error:
                raise SystemExit(f"{job.name}: {result.error}; nothing recorded")
            stdout = (work / f"{job.name}.stdout").read_text(encoding="utf-8")
            (EXPECTED / f"{job.name}.txt").write_text(
                stdout.replace(str(DATA_DIR), DATA_PLACEHOLDER), encoding="utf-8")
            print(f"recorded {job.name}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record the expected outputs of the fixed-input jobs")
    args = parser.parse_args()
    if not (SRC / "ksverify" / "cli.py").is_file():
        print(f"no ksverify sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    rows = []
    for workload in WORKLOADS:
        result = run(workload, args.seed, args.seconds, bool(args.trace))
        fail_frac = result["failed"] / result["attempted"]
        rows += [f"{workload:<15} {name:<48} {m['value']:14.6g} {m['unit']}"
                 for name, m in result["metrics"].items()]
        rows.append(f"{workload:<15} {'fail_frac':<48} {fail_frac:14.6g} 1")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
