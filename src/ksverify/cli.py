"""Command-line interface: one subcommand per verification pipeline.

Each pipeline lives beside the computation it reports on and returns its
facts, report lines and export files; this module parses the arguments,
writes the files, prints the lines and, under `--expect-paper`, compares
the facts with the published reference values (`catalog.EXPECTED`).  All
numeric output is exact (integers and p/q rationals); reports are
byte-identical across runs on the same inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import catalog, colorability, game, majorana, orthograph, weylheisenberg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_DATA = 3
EXIT_MISMATCH = 4
EXIT_INCOMPLETE = 5


def _indices(flag: str, text: str) -> list[int]:
    """The comma-separated basis indices given to `flag`."""
    out = []
    for entry in text.split(","):
        try:
            index = int(entry)
        except ValueError:
            raise ValueError(f"{flag} entry {entry!r} is not a basis index") from None
        if index in out:
            raise ValueError(f"{flag} repeats basis index {index}")
        out.append(index)
    return out


def _split_from_args(args) -> tuple[list[int], list[int]] | None:
    """The --alice and --bob basis indices, or None if neither is given."""
    if (args.alice is None) != (args.bob is None):
        raise ValueError("--alice and --bob must be given together")
    if args.alice is None:
        return None
    return _indices("--alice", args.alice), _indices("--bob", args.bob)


def cmd_game(args):
    """The `game` pipeline, its flags checked before the set loads."""
    graph, legend = args.export_graph, args.export_legend
    if legend is not None:
        if graph is None:
            raise ValueError("--export-legend needs --export-graph")
        if os.path.realpath(graph) == os.path.realpath(legend):
            raise ValueError(f"--export-graph and --export-legend name one file: {legend}")
    split = _split_from_args(args)
    return game.game_report(catalog.instance(args.set), split, graph, legend)


def write_files(files) -> None:
    """Stream each (path, lines) pair of `files` to its file, in order.  On an
    OSError, at open or mid-write, remove each file this call created (not a
    path that existed before) and raise the error again, named by its path."""
    created = []
    for path, lines in files:
        try:
            fresh = not os.path.lexists(path)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                if fresh:
                    created.append(path)
                fh.writelines(lines)
        except OSError as exc:
            for name in created:
                os.remove(name)
            exc.filename = exc.filename or path  # a failed write names no file
            raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksverify",
        description="Exact verification toolkit for qutrit Kochen-Specker "
                    "sets and their nonlocal games",
    )
    parser.add_argument("--expect-paper", action="store_true",
                        help="check results against published reference "
                             "values; nonzero exit on mismatch")
    parser.add_argument("--timing", action="store_true",
                        help="print wall-clock time to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="KS colorability verdict")
    p.add_argument("set")
    p.add_argument("--export-cnf", help="write the constraint system as DIMACS CNF")
    p.set_defaults(func=lambda a: colorability.verify_report(
        catalog.instance(a.set), a.export_cnf))

    p = sub.add_parser("bases", help="complete orthogonal bases")
    p.add_argument("set")
    p.set_defaults(func=lambda a: colorability.bases_report(catalog.instance(a.set)))

    p = sub.add_parser("symmetry", help="automorphism group and orbits")
    p.add_argument("set")
    p.set_defaults(func=lambda a: orthograph.symmetry_report(catalog.instance(a.set)))

    p = sub.add_parser("game", help="bipartite game values")
    p.add_argument("set")
    p.add_argument("--alice", help="comma-separated basis indices for Alice")
    p.add_argument("--bob", help="comma-separated basis indices for Bob")
    p.add_argument("--export-graph", help="write exclusivity graph (DIMACS)")
    p.add_argument("--export-legend", help="write event legend next to the graph")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("minimal", help="minimal refutable basis split")
    p.add_argument("set")
    p.add_argument("--budget", type=float, default=3600.0,
                   help="time budget in seconds (default 3600)")
    p.set_defaults(func=lambda a: game.minimal_report(catalog.instance(a.set), a.budget))

    p = sub.add_parser("generate", help="orbit closure under X/Z generators")
    p.add_argument("--seed", required=True,
                   help="builtin set name or a ray literal like '(1,1,0)'")
    p.add_argument("--gens", required=True, help="generators, e.g. Z or X,Z")
    p.add_argument("--print-rays", action="store_true")
    p.set_defaults(func=lambda a: weylheisenberg.generate_report(a.seed, a.gens, a.print_rays))

    p = sub.add_parser("sic", help="SIC-POVM check of an {X,Z} orbit")
    p.add_argument("--seed", required=True, help="ray literal like '(1,1,0)'")
    p.set_defaults(func=lambda a: weylheisenberg.sic_report(a.seed))

    p = sub.add_parser("majorana", help="export the two-point sphere representation")
    p.add_argument("set")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=lambda a: majorana.majorana_report(catalog.instance(a.set), a.out))

    p = sub.add_parser("table1", help="summary table across shipped sets")
    p.add_argument("--sets", help="comma-separated set names (default: all)")
    p.add_argument("--minimal", choices=["new33", "all", "none"], default="new33",
                   help="which sets get the minimal-split search (default new33)")
    p.add_argument("--budget", type=float, default=3600.0)
    p.set_defaults(func=lambda a: catalog.table1_report(a.sets, a.minimal, a.budget))

    return parser


def main(argv=None) -> int:
    """Run the subcommand's pipeline, write its files, then print its lines.
    An error prints one stderr line and nothing on stdout; facts of None
    (`minimal` out of budget) exit EXIT_INCOMPLETE, unchecked."""
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        facts, lines, files = args.func(args)
        write_files(files)
    except BrokenPipeError:  # an export to a closed stdout: run() ends the process
        raise
    except catalog.MissingDataError as exc:  # before OSError: it is a FileNotFoundError
        print(f"missing data: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for line in lines:
        print(line)
    if args.timing:
        print(f"elapsed: {time.monotonic() - start:.2f}s", file=sys.stderr)
    if facts is None:
        return EXIT_INCOMPLETE
    if args.expect_paper and (lines := catalog.mismatches(facts)):
        for line in lines:
            print(f"EXPECT-PAPER MISMATCH: {line}")
        return EXIT_MISMATCH
    return EXIT_OK


def run() -> None:
    """The entry point of a `ksverify` process: main(), then exit.

    gc.freeze() puts every live object out of the collector's reach, so the
    shutdown collections skip the modules, classes and caches that the OS
    takes back anyway; objects still alive at exit are not finalized. That
    is safe: write_files closes every file it opens, stdout and stderr are
    flushed at exit either way, and nothing in the package defines __del__.
    main() never freezes, so in-process callers keep a normal heap.

    A closed stdout (`ksverify ... | head`) exits 1 with nothing on stderr,
    stdout pointed at os.devnull so that the exit flush cannot fail again.
    """
    import gc

    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
