"""Run one ksverify CLI job with spans around the package's public functions.

Usage (with the repository's `src` on PYTHONPATH):

    python3 bench/tracer.py OUT.json [ksverify arguments ...]

The job's own output goes to stdout exactly as `python -m ksverify.cli`
prints it, and the exit code is the CLI's.  Spans (id, parent id, name,
start, end, self time) and counters are kept in memory and written to
OUT.json when the job ends.  A span's self time is its duration minus
the time covered by its child spans.  Span times are the process's CPU
time: ksverify is single-threaded and CPU-bound, so this is its busy time,
and time the process spends stopped by the benchmark's speed probe does
not count.

Each function is replaced in its defining module and at every
`from ... import` binding in the package, so calls between modules and
calls inside one module both pass through the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, kind): "span" records a span per call, "count" only
# counts calls.  A method is named by its class in the metric name, so
# `Ray.__init__` reports as `rays.Ray`.
TARGETS = (
    ("cli", "main", "span"),
    ("catalog", "builtin", "span"),
    ("catalog", "load_set", "span"),
    ("colorability", "KSInstance.__init__", "span"),
    ("colorability", "find_ks_assignment", "span"),
    ("colorability", "to_dimacs_cnf", "span"),
    ("orthograph", "build_graph", "span"),
    ("orthograph", "complete_bases", "span"),
    ("orthograph", "automorphisms", "span"),
    ("orthograph", "max_independent_set", "span"),
    ("rays", "Ray.__init__", "span"),
    ("rays", "is_orthogonal", "span"),
    ("rays", "inner", "count"),
    ("cyclotomic", "Cyc.__init__", "count"),
    ("game", "build_game", "span"),
    ("game", "classical_value", "span"),
    ("game", "classical_value_twolevel", "span"),
    ("game", "quantum_value_maxent", "span"),
    ("game", "export_exclusivity_graph", "span"),
    ("game", "minimal_distribution_search", "span"),
    ("weylheisenberg", "orbit_closure", "span"),
    ("weylheisenberg", "is_sic_povm", "span"),
    ("majorana", "export_majorana", "span"),
)

# Exact counters read from public return values: span name -> (stat, attribute).
RESULT_COUNTERS = {
    "colorability.find_ks_assignment": ("nodes", "nodes"),
    "game.minimal_distribution_search": ("candidates", "candidates_checked"),
    "orthograph.automorphisms": ("order", "order"),
}


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, time covered by children]

    def spanned(self, name: str, fn):
        result_counter = RESULT_COUNTERS.get(name)
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[frame[0]] = [
                    frame[0], parent, name, start, end, duration - frame[1]]
            if result_counter is not None:
                stat, attr = result_counter
                key = f"{name}.{stat}"
                self.counts[key] = self.counts.get(key, 0) + getattr(result, attr)
            return result

        return wrapper

    def counted(self, name: str, fn):
        key = f"{name}.calls"
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str, argv: list[str]) -> None:
        doc = {"argv": argv, "spans": self.spans, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(rec: Recorder) -> None:
    """Wrap every target in its defining module and at each import binding."""
    modules = [m for name, m in sys.modules.items()
               if name == "ksverify" or name.startswith("ksverify.")]
    for module_name, attr, kind in TARGETS:
        module = importlib.import_module(f"ksverify.{module_name}")
        owner_name, _, method = attr.partition(".")
        label = f"{module_name}.{owner_name}"
        make = rec.spanned if kind == "span" else rec.counted
        if method:
            cls = getattr(module, owner_name)
            setattr(cls, method, make(label, cls.__dict__[method]))
            continue
        original = getattr(module, attr)
        wrapper = make(label, original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapper)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import ksverify.cli

    rec = Recorder()
    install(rec)
    try:
        return ksverify.cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.write(out_path, argv)


if __name__ == "__main__":
    sys.exit(main())
