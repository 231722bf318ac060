"""Command-line interface: one subcommand per verification pipeline.

All numeric output is exact (integers and p/q rationals); reports are
byte-identical across runs on the same inputs.  `--expect-paper` turns any
subcommand into a reproducibility check that exits nonzero unless every
computed quantity matches the published reference values.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import catalog
from .catalog import MissingDataError, builtin_rays, check_name, instance
from .colorability import KSInstance, find_ks_assignment
from .game import (
    Game,
    build_game,
    check_budget,
    classical_value,
    classical_value_twolevel,
    default_split,
    export_exclusivity_graph,
    minimal_distribution_search,
    quantum_value_maxent,
)
from .majorana import export_majorana
from .orthograph import bits
from .rays import parse_ray
from .weylheisenberg import is_sic_povm, orbit_closure

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_DATA = 3
EXIT_MISMATCH = 4
EXIT_INCOMPLETE = 5

# Published reference values checked by --expect-paper, keyed like the facts
# each subcommand returns: {set name: {key: value}}.
EXPECTED = {
    "new33": {
        "rays": 33, "bases": 14, "aut_order": 144, "orbit_sizes": [3, 12, 18],
        "ks": "UNSAT", "contexts": 45, "events": 333,
        "classical": Fraction(44, 45), "quantum": Fraction(1),
        "minimal_product": 45, "minimal_split": "5-9",
    },
    # the Z-closure of the 13 rays is the new33 ray set; X maps them to themselves
    "yuoh13": {"rays": 13, "bases": 4, "ks": "SAT",
               "Z_closure_is_new33": True, "X_closure_is_seed": True},
    "peres33": {"rays": 33, "bases": 16, "aut_order": 48, "orbit_count": 4,
                "ks": "UNSAT", "minimal_split": "7-9"},
    "conway31": {"rays": 31, "bases": 17, "aut_order": 4, "orbit_count": 10,
                 "ks": "UNSAT", "minimal_split": "8-9"},
    "schuette33": {"rays": 33, "bases": 20, "aut_order": 8, "orbit_count": 9,
                   "ks": "UNSAT", "minimal_split": "8-9"},
    "penrose33": {"rays": 33, "bases": 16, "aut_order": 48, "orbit_count": 4,
                  "ks": "UNSAT", "minimal_split": "7-9"},
    # every seed given to `sic` has an {X, Z} orbit that is a SIC-POVM
    "xz_orbit": {"sic_povm": True},
}


def mismatches(facts: dict) -> list[str]:
    """One line per computed fact that differs from its EXPECTED value."""
    return [f"{name}.{key}: computed {value}, expected {EXPECTED[name][key]}"
            for name, values in facts.items() for key, value in values.items()
            if key in EXPECTED.get(name, {}) and value != EXPECTED[name][key]]


def _load(name_or_path: str) -> KSInstance:
    """A builtin set or set file, after printing its notes."""
    inst = instance(name_or_path)
    for note in inst.notes:
        print(f"note: {note}")
    return inst


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


def _game_from_split(inst: KSInstance, split) -> Game:
    ax, bx = split or default_split(inst)
    if not ax or not bx:
        raise ValueError(f"no default basis split for {inst.name}; pass --alice and --bob")
    bases = [[inst.graph.vertices[v] for v in triple] for triple in inst.basis_indices]
    for i in ax + bx:
        if not 0 <= i < len(bases):
            raise ValueError(f"basis index {i} out of range 0..{len(bases) - 1}")
    return build_game([bases[i] for i in ax], [bases[i] for i in bx])


# -- subcommand handlers ---------------------------------------------------------
# Each returns the facts it printed as {set name: {key: value}}, or an early exit code.


def cmd_verify(args) -> dict:
    inst = _load(args.set)
    result = find_ks_assignment(inst)
    verdict = "SAT" if result.satisfiable else "UNSAT"
    print(f"{inst.name}: {inst.graph.n} rays, {len(inst.basis_indices)} complete bases")
    print(f"KS assignment search: {verdict} (search nodes: {result.nodes})")
    if result.satisfiable:
        # vertices are in Ray.sort_key order, so bit order is ray order
        ones = ", ".join(str(inst.graph.vertices[i]) for i in bits(result.ones))
        print(f"witness assignment, rays with value 1: {ones}")
    if args.export_cnf is not None:
        from .colorability import to_dimacs_cnf

        with open(args.export_cnf, "w", encoding="utf-8") as fh:
            fh.write(to_dimacs_cnf(inst))
        print(f"constraint system written to {args.export_cnf} (DIMACS CNF)")
    return {inst.name: {"rays": inst.graph.n, "bases": len(inst.basis_indices),
                        "ks": verdict, "ks_nodes": result.nodes}}


def cmd_bases(args) -> dict:
    inst = _load(args.set)
    nb = len(inst.basis_indices)
    print(f"{inst.name}: {nb} complete bases")
    for i in range(nb):
        print(f"{i}: {inst.basis_str(i)}")
    return {inst.name: {"bases": nb}}


def cmd_symmetry(args) -> dict:
    inst = _load(args.set)
    report = inst.graph.group
    sizes = sorted(len(o) for o in report.orbits)
    print(f"{inst.name}: automorphism group order {report.order}")
    print(f"vertex orbits: {len(report.orbits)} with sizes {sizes}")
    for oi, orbit in enumerate(report.orbits):
        members = ", ".join(str(inst.graph.vertices[v]) for v in orbit)
        print(f"orbit {oi} (size {len(orbit)}): {members}")
    return {inst.name: {"aut_order": report.order, "orbit_sizes": sizes,
                        "orbit_count": len(report.orbits)}}


def cmd_game(args) -> dict | int:
    if args.export_legend is not None and args.export_graph is None:
        raise ValueError("--export-legend needs --export-graph")
    split = _split_from_args(args)  # before the set loads and prints its notes
    inst = _load(args.set)
    game = _game_from_split(inst, split)
    print(f"game on {inst.name}: |X| = {len(game.alice_bases)}, "
          f"|Y| = {len(game.bob_bases)}, contexts = {len(game.contexts)}")
    for kind in sorted({c.kind for c in game.contexts}):
        of_kind = [c for c in game.contexts if c.kind == kind]
        wins = sorted({c.wins() for c in of_kind})
        print(f"  {len(of_kind)} {kind} contexts, winning events per context: {wins}")
    total = game.total_winning_events()
    print(f"total winning events: {total}")
    value = classical_value(game)
    print(f"classical value: {value.classical}")
    cross = classical_value_twolevel(game)
    print(f"classical value (strategy enumeration cross-check): {cross}")
    quantum = quantum_value_maxent(game)
    print(f"quantum value (conjugate-basis maximally entangled strategy): {quantum}")
    print("convention: Bob measures the componentwise-conjugated basis, so "
          "event probabilities are |<a|b>|^2/(3|a|^2|b|^2) and vanish "
          "exactly on orthogonal pairs")
    if args.export_graph is not None:
        export_exclusivity_graph(game, args.export_graph, args.export_legend)
        print(f"exclusivity graph written to {args.export_graph}"
              + (f" with legend {args.export_legend}" if args.export_legend is not None else ""))
    if value.classical != cross:
        print("INTERNAL MISMATCH: exclusivity-graph and strategy enumeration disagree")
        return EXIT_MISMATCH
    # an explicit split is keyed apart, so the default-split references skip it
    key = f"{inst.name}[{args.alice}|{args.bob}]" if split is not None else inst.name
    return {key: {"contexts": len(game.contexts), "events": total,
                  "classical": value.classical, "quantum": quantum}}


def cmd_minimal(args) -> dict | int:
    inst = _load(args.set)
    result = minimal_distribution_search(inst, budget_seconds=args.budget)
    if not result.complete:
        print(f"{inst.name}: search incomplete within budget "
              f"({args.budget}s); no refutable pair found so far")
        return EXIT_INCOMPLETE
    if result.product is None:
        print(f"{inst.name}: no basis split refutes all classical strategies")
    else:
        print(f"{inst.name}: minimal refutable split {result.split()} "
              f"(product {result.product})")
        print(f"Alice basis indices: {list(result.alice_bases)}")
        print(f"Bob basis indices: {list(result.bob_bases)}")
        print("note: minimality criterion is the absence of a perfect classical "
              "strategy, searched exhaustively over basis subsets up to "
              "instance symmetry")
    return {inst.name: {"minimal_product": result.product,
                        "minimal_split": result.split()}}


def cmd_generate(args) -> dict:
    if args.seed in catalog.BUILTIN_NAMES:
        seed = builtin_rays(args.seed)
        seed_name = args.seed
    else:
        seed = [parse_ray(args.seed)]
        seed_name = str(seed[0])
    labels = [t for t in args.gens.replace(",", "") if t.strip()]
    closure = orbit_closure(seed, labels)
    print(f"orbit closure of {seed_name} under {{{', '.join(labels)}}}: "
          f"{len(closure)} rays")
    same_as_seed = set(closure) == set(seed)
    print(f"closure equals seed set: {same_as_seed}")
    equal = set(closure) == set(builtin_rays("new33"))
    print(f"closure equals new33 ray set: {equal}")
    if args.print_rays:
        for r in closure:
            print(f"  {r}")
    key = "".join(labels) + "_closure"
    return {seed_name: {key + "_rays": len(closure), key + "_is_seed": same_as_seed,
                        key + "_is_new33": equal}}


def cmd_sic(args) -> dict:
    seed = parse_ray(args.seed)
    orbit = orbit_closure([seed], ["X", "Z"])
    report = is_sic_povm(orbit)
    print(f"orbit of {seed} under {{X, Z}}: {len(orbit)} rays")
    for r in report.rays:
        print(f"  {r}")
    print(f"SIC-POVM: {report.is_sic}")
    if report.failures:
        for f in report.failures:
            print(f"  failure: {f}")
    else:
        print("normalized squared overlaps (diagonal 1, off-diagonal 1/4):")
        for row in report.overlaps:
            print("  " + " ".join(str(v) for v in row))
    return {"xz_orbit": {"seed": str(seed), "rays": len(orbit), "sic_povm": report.is_sic}}


def cmd_majorana(args) -> dict:
    inst = _load(args.set)
    export_majorana(inst, args.out)
    print(f"{inst.name}: wrote {2 * inst.graph.n} sphere points "
          f"({inst.graph.n} rays) to {args.out}")
    return {inst.name: {"sphere_points": 2 * inst.graph.n}}


def summary_table(sets) -> str:
    """Fixed-width text table of (name, facts) pairs as `table1` builds them."""
    headers = ["set", "rays", "bases", "vertex types", "symmetry", "KS", "minimal"]
    rows = [
        [
            name, str(f["rays"]), str(f["bases"]), str(f["orbit_count"]),
            str(f["aut_order"]), f["ks"], f.get("minimal_split", "-"),
        ]
        for name, f in sets
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines) + "\n"


def cmd_table1(args) -> dict:
    check_budget(args.budget)  # before any set loads, whether or not a search runs
    # a name that resolves to nothing fails the table; a shipped set without its file is skipped
    names = [check_name(name) for name in args.sets.split(",")] if args.sets is not None else [
        "schuette33", "conway31", "peres33", "penrose33", "new33"]
    # the rows, keyed by set name, are both the printed table and the facts
    facts, notes, skipped = {}, [], []
    for name in names:
        try:
            inst = instance(name)
        except MissingDataError as exc:
            skipped.append((name, str(exc)))
            continue
        if inst.name in facts:
            raise ValueError(f"--sets gives two sets named {inst.name!r}")
        report = inst.graph.group
        satisfiable = find_ks_assignment(inst).satisfiable
        row = facts[inst.name] = {
            "rays": inst.graph.n, "bases": len(inst.basis_indices),
            "orbit_count": len(report.orbits), "aut_order": report.order,
            "ks": "SAT" if satisfiable else "UNSAT"}
        if args.minimal == "all" or (args.minimal == "new33" and inst.name == "new33"):
            res = minimal_distribution_search(inst, budget_seconds=args.budget)
            row["minimal_split"] = res.split() if res.complete else "incomplete"
        notes += [f"note ({inst.name}): {note}" for note in inst.notes]
    print(summary_table(facts.items()), end="")
    for line in notes:
        print(line)
    for name, why in skipped:
        print(f"skipped {name}: {why}")
    return facts


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
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bases", help="complete orthogonal bases")
    p.add_argument("set")
    p.set_defaults(func=cmd_bases)

    p = sub.add_parser("symmetry", help="automorphism group and orbits")
    p.add_argument("set")
    p.set_defaults(func=cmd_symmetry)

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
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("generate", help="orbit closure under X/Z generators")
    p.add_argument("--seed", required=True,
                   help="builtin set name or a ray literal like '(1,1,0)'")
    p.add_argument("--gens", required=True, help="generators, e.g. Z or X,Z")
    p.add_argument("--print-rays", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sic", help="SIC-POVM check of an {X,Z} orbit")
    p.add_argument("--seed", required=True, help="ray literal like '(1,1,0)'")
    p.set_defaults(func=cmd_sic)

    p = sub.add_parser("majorana", help="export the two-point sphere representation")
    p.add_argument("set")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_majorana)

    p = sub.add_parser("table1", help="summary table across shipped sets")
    p.add_argument("--sets", help="comma-separated set names (default: all)")
    p.add_argument("--minimal", choices=["new33", "all", "none"], default="new33",
                   help="which sets get the minimal-split search (default new33)")
    p.add_argument("--budget", type=float, default=3600.0)
    p.set_defaults(func=cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        facts = args.func(args)
    except BrokenPipeError:  # a closed stdout is not bad input: run() ends the process
        raise
    except MissingDataError as exc:  # before OSError: it is a FileNotFoundError
        print(f"missing data: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.timing:
        print(f"elapsed: {time.monotonic() - start:.2f}s", file=sys.stderr)
    if isinstance(facts, int):  # an early exit skips the --expect-paper comparison
        return facts
    if args.expect_paper and (lines := mismatches(facts)):
        for line in lines:
            print(f"EXPECT-PAPER MISMATCH: {line}")
        return EXIT_MISMATCH
    return EXIT_OK


def run() -> None:
    """The entry point of a `ksverify` process: main(), then exit.

    gc.freeze() puts every live object out of the collector's reach, so the
    shutdown collections skip the modules, classes and caches that the OS
    takes back anyway; objects still alive at exit are not finalized. That
    is safe because every file the CLI writes is closed before main()
    returns, stdout and stderr are flushed at exit either way, and nothing
    in the package defines __del__. main() never freezes, so in-process
    callers keep a normal heap.

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
