"""CLI subcommands: reports, exit codes, determinism, expectation mode."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ksverify import catalog, colorability, orthograph
from ksverify.catalog import builtin, save_set, serialize, summary_table
from ksverify.cli import (
    EXIT_INCOMPLETE,
    EXIT_MISMATCH,
    EXIT_MISSING_DATA,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)


SRC = str(Path(catalog.__file__).parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def cli_process(*argv, script=None):
    """`python -m ksverify.cli *argv` (or `python -c script`) in a fresh
    process: (exit code, stdout, stderr)."""
    cmd = ["-c", script] if script else ["-m", "ksverify.cli", *argv]
    proc = subprocess.run([sys.executable, *cmd], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(params=["main", "process"])
def run_cli(request, capsys):
    """The CLI as (exit code, stdout): in process through main(), or in a
    fresh process that exits through cli.run()."""
    if request.param == "main":
        return lambda *argv: run(capsys, *argv)
    return lambda *argv: cli_process(*argv)[:2]


def test_verify_new33(capsys):
    code, out = run(capsys, "--expect-paper", "verify", "new33")
    assert code == EXIT_OK
    assert "UNSAT" in out
    assert "x=3" in out  # correction note surfaces


def test_verify_yuoh_prints_witness(capsys):
    code, out = run(capsys, "verify", "yuoh13")
    assert code == EXIT_OK
    assert "SAT" in out
    assert "value 1" in out


def test_bases_listing(capsys):
    code, out = run(capsys, "--expect-paper", "bases", "new33")
    assert code == EXIT_OK
    assert "14 complete bases" in out


def test_symmetry(capsys):
    code, out = run(capsys, "--expect-paper", "symmetry", "new33")
    assert code == EXIT_OK
    assert "order 144" in out
    assert "[3, 12, 18]" in out


def test_game_report(capsys):
    code, out = run(capsys, "--expect-paper", "game", "new33")
    assert code == EXIT_OK
    assert "contexts = 45" in out
    assert "total winning events: 333" in out
    assert "classical value: 44/45" in out
    assert "quantum value" in out and ": 1" in out


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_game_exports(tmp_path, run_cli):
    """The new33 event and edge order, byte for byte."""
    graph = tmp_path / "g.dimacs"
    legend = tmp_path / "g.legend"
    code, out = run_cli(
        "game", "new33",
        "--export-graph", str(graph), "--export-legend", str(legend),
    )
    assert code == EXIT_OK
    assert graph.read_text().startswith("p edge 333 ")
    assert sha256(graph) == "58aa6b1857be1554286701f7eacf8f5c271f97d708b67f23ae386d3e908749b1"
    assert sha256(legend) == "71802ac5a6ac753af309835f988de0a0b80ba3f2725793e9680239a0cb08ccf8"


def test_verify_cnf_export(tmp_path, run_cli):
    """The new33 variable and clause order, byte for byte."""
    cnf = tmp_path / "new33.cnf"
    assert run_cli("verify", "new33", "--export-cnf", str(cnf))[0] == EXIT_OK
    assert sha256(cnf) == "d459757f066c2cc956013c4c681691fe10fe29069330d07962e2b40cc0c938d4"


@pytest.mark.parametrize("argv,expected", [
    (["--expect-paper", "verify", "new33"], EXIT_OK),
    # built in code, so no data file is needed
    (["--expect-paper", "verify", "peres33"], EXIT_OK),
    (["--expect-paper", "verify", "conway31"], EXIT_OK),
    # an infinite budget sets no deadline
    (["--expect-paper", "minimal", "new33", "--budget", "inf"], EXIT_OK),
    (["sic", "--seed", "(1,1/0,0)"], EXIT_USAGE),
    (["verify", "schuette33"], EXIT_MISSING_DATA),
    # peres33's rays under the name new33
    (["--expect-paper", "verify", "new33.json"], EXIT_MISMATCH),
    (["minimal", "new33", "--budget", "0"], EXIT_INCOMPLETE),
    # an empty value is a name like any other, not the default set list
    (["--expect-paper", "table1", "--sets", ""], EXIT_MISSING_DATA),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_process_exits_like_main(argv, expected, tmp_path, monkeypatch, capsys):
    """Each documented exit code, and the same output, through cli.run()."""
    save_set(colorability.KSInstance("new33", builtin("peres33").graph.vertices),
             tmp_path / "new33.json")
    (tmp_path / "data").mkdir()
    monkeypatch.setenv("KSVERIFY_DATA_DIR", str(tmp_path / "data"))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expected
    assert cli_process(*argv) == (code, captured.out, captured.err)


def test_main_leaves_the_heap_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    assert main(["verify", "new33"]) == EXIT_OK
    assert gc.get_freeze_count() == frozen


def test_run_freezes_the_heap_before_exit():
    script = ("import atexit, gc, sys\n"
            "from ksverify import cli\n"
            "frozen = gc.get_freeze_count()\n"
            "atexit.register(lambda: print('froze:', gc.get_freeze_count() > frozen))\n"
            "sys.argv[1:] = ['verify', 'new33']\n"
            "cli.run()\n")
    code, out, err = cli_process(script=script)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1] == "froze: True"


@pytest.mark.parametrize("argv", [
    ["verify", "new33"],
    ["sic", "--seed", "(1,z18,z10^3)"],
    ["--expect-paper", "table1", "--minimal", "none"],
], ids=" ".join)
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["at-exit-flush", "in-main"])
def test_closed_stdout_exits_1_without_an_error_line(argv, unbuffered):
    """A reader that stops early is not bad input: stdout is a pipe whose
    read end is closed before the process starts, so every write fails,
    buffered at the flush in cli.run() or unbuffered at the first print."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ksverify.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": SRC,
                                   "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_console_script_exits_through_run():
    # read as text: Python 3.10 has no tomllib
    text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'ksverify = "ksverify.cli:run"' in text.splitlines()


def test_timing_adds_one_stderr_line(capsys):
    assert main(["verify", "new33"]) == EXIT_OK
    plain = capsys.readouterr()
    assert main(["--timing", "verify", "new33"]) == EXIT_OK
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert plain.err == ""
    assert re.fullmatch(r"elapsed: \d+\.\d\ds\n", timed.err)


def test_game_with_explicit_split(capsys):
    argv = ["game", "new33", "--alice", "0,1", "--bob", "2,3"]
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert "contexts = 4" in out
    # the default-split references do not describe an explicit split
    assert run(capsys, "--expect-paper", *argv) == (EXIT_OK, out)


def test_minimal(capsys):
    code, out = run(capsys, "--expect-paper", "minimal", "new33")
    assert code == EXIT_OK
    assert "5-9" in out


def test_minimal_without_refutable_split_is_compared(tmp_path, capsys):
    doc = serialize(builtin("yuoh13"))
    doc["name"] = "new33"
    path = tmp_path / "new33.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "--expect-paper", "minimal", str(path))
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-2:] == [
        "EXPECT-PAPER MISMATCH: new33.minimal_product: computed None, expected 45",
        "EXPECT-PAPER MISMATCH: new33.minimal_split: computed none, expected 5-9",
    ]
    assert run(capsys, "--expect-paper", "minimal", "yuoh13")[0] == EXIT_OK


def test_minimal_budget_zero_incomplete(capsys):
    code, out = run(capsys, "minimal", "new33", "--budget", "0")
    assert code == EXIT_INCOMPLETE


def test_generate(capsys):
    code, out = run(capsys, "--expect-paper", "generate",
                    "--seed", "yuoh13", "--gens", "Z")
    assert code == EXIT_OK
    assert "closure equals new33 ray set: True" in out


def test_generate_prints_the_closure_rays(capsys):
    code, out = run(capsys, "--expect-paper", "generate", "--seed", "yuoh13",
                    "--gens", "Z", "--print-rays")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].endswith(": 33 rays")
    assert lines[3:] == [f"  {r}" for r in builtin("new33").graph.vertices]


def test_generate_from_new33_is_closed(capsys):
    code, out = run(capsys, "generate", "--seed", "new33", "--gens", "X,Z")
    assert code == EXIT_OK
    assert "closure equals seed set: True" in out
    assert "closure equals new33 ray set: True" in out


def test_generate_single_ray(capsys):
    code, out = run(capsys, "generate", "--seed", "(0,0,1)", "--gens", "X")
    assert code == EXIT_OK
    assert "3 rays" in out


def test_sic(capsys):
    code, out = run(capsys, "--expect-paper", "sic", "--seed", "(1,1,0)")
    assert code == EXIT_OK
    assert "SIC-POVM: True" in out
    code, out = run(capsys, "--expect-paper", "sic", "--seed", "(1,-1,0)")
    assert code == EXIT_OK


def test_sic_negative(capsys):
    code, out = run(capsys, "sic", "--seed", "(1,0,0)")
    assert code == EXIT_OK
    assert "SIC-POVM: False" in out


def test_sic_output_across_conductors_is_pinned(capsys):
    # it prints values at conductors 5, 9, 15 and 45
    code, out = run(capsys, "sic", "--seed", "(1,z18,z10^3)")
    assert code == EXIT_OK
    assert "(1,-z15^8,z45^19)" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "abf300529a6d7703b4da156745a05152c29927bb7de2e02d0d905ff15393c9d3")


def test_majorana(tmp_path, capsys):
    out_csv = tmp_path / "m.csv"
    code, out = run(capsys, "majorana", "new33", "--out", str(out_csv))
    assert code == EXIT_OK
    assert "66 sphere points" in out


def test_majorana_reads_conductor_2_mod_4_at_the_odd_half(tmp_path, capsys):
    doc = serialize(builtin("new33"))
    assert doc["conductor"] == 3
    docs = {"c3": doc}
    # the same rays at conductor 6: w^p = zeta_6^(2p) and -1 = zeta_6^3
    docs["c6"] = dict(doc, conductor=6, rays=[
        [[[2 * p + 3, -num, den] for p, num, den in comp] for comp in ray]
        for ray in doc["rays"]])
    # and at 9 and 18 (read at 9): w^p = zeta_n^(n/3 * p); components are
    # evaluated at their minimal conductor, so the CSV is that of conductor 3
    for n in (9, 18):
        docs[f"c{n}"] = dict(doc, conductor=n, rays=[
            [[[n // 3 * p, num, den] for p, num, den in comp] for comp in ray]
            for ray in doc["rays"]])
    csvs = {}
    for name, d in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
        out_csv = tmp_path / f"{name}.csv"
        code, _ = run(capsys, "majorana", str(tmp_path / f"{name}.json"), "--out", str(out_csv))
        assert code == EXIT_OK
        csvs[name] = out_csv.read_text()
    for name in docs:
        assert csvs[name] == csvs["c3"], name


def test_majorana_exports_a_root_beyond_the_square_range(tmp_path, capsys):
    # the ray (1, 10^300, 0) has a root near sqrt(2) * 10^300, whose |t|^2
    # overflows; its sphere point, next to the south pole, does not
    path = tmp_path / "big.json"
    path.write_text(set_file(rays=E123 + [[[[0, 1, 1]], [[0, 10**300, 1]], []]]))
    out_csv = tmp_path / "big.csv"
    code, out = run(capsys, "majorana", str(path), "--out", str(out_csv))
    assert code == EXIT_OK
    assert "wrote 8 sphere points" in out
    big = '3,"(1,1' + "0" * 300 + ',0)"'
    assert out_csv.read_text().splitlines()[-2:] == [
        f"{big},1,0,0,1", f"{big},2,1.41421356237309e-300,-0,-1"]


def test_table1(capsys):
    code, out = run(capsys, "--expect-paper", "table1")
    assert code == EXIT_OK
    assert "new33" in out and "5-9" in out
    assert "peres33" in out and "48" in out
    assert "skipped penrose33" in out


def test_table1_minimal_all(capsys):
    code, out = run(capsys, "--expect-paper", "table1", "--minimal", "all")
    assert code == EXIT_OK
    rows = {f[0]: f[-1] for f in map(str.split, out.splitlines())
            if f and f[0] in ("conway31", "peres33", "new33")}
    assert rows == {"conway31": "8-9", "peres33": "7-9", "new33": "5-9"}


def test_table1_keys_rows_by_set_name(tmp_path, capsys):
    from ksverify.catalog import builtin, save_set
    from ksverify.colorability import KSInstance

    peres = builtin("peres33")
    path = tmp_path / "renamed.json"
    save_set(KSInstance("new33", peres.graph.vertices), path)
    code, out = run(capsys, "--expect-paper", "table1", "--sets", str(path),
                    "--minimal", "none")
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-3:] == [
        "EXPECT-PAPER MISMATCH: new33.bases: computed 16, expected 14",
        "EXPECT-PAPER MISMATCH: new33.aut_order: computed 48, expected 144",
        "EXPECT-PAPER MISMATCH: new33.orbit_sizes: computed [3, 6, 12, 12], expected [3, 12, 18]",
    ]


def test_table1_rows_are_the_pipelines_facts():
    """A row is the set's verify, symmetry and minimal facts, merged."""
    from ksverify.game import minimal_report

    facts, _, _ = catalog.table1_report("new33,peres33,conway31", "all", float("inf"))
    assert list(facts) == ["new33", "peres33", "conway31"]
    for name, row in facts.items():
        inst = builtin(name)
        assert row == {**colorability.verify_report(inst)[0][name],
                       **orthograph.symmetry_report(inst)[0][name],
                       **minimal_report(inst, float("inf"))[0][name]}


def test_table1_searches_the_set_named_new33(tmp_path, capsys):
    """The default `--minimal new33` follows the name inside the set, so a
    set file of new33's rays gets its 5-9 split checked."""
    path = tmp_path / "n33.json"
    save_set(builtin("new33"), path)
    code, out = run(capsys, "--expect-paper", "table1", "--sets", str(path))
    assert code == EXIT_OK
    row = out.splitlines()[2].split()
    assert (row[0], row[-1]) == ("new33", "5-9")


def test_table1_skips_missing_politely(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSVERIFY_DATA_DIR", str(tmp_path))
    code, out = run(capsys, "table1", "--sets", "new33,penrose33")
    assert code == EXIT_OK
    assert "skipped penrose33" in out
    assert "new33" in out


def test_table1_rejects_an_unknown_name(capsys):
    """A typo in --sets fails the check with the error of `verify <name>`,
    before any row is computed, instead of becoming a skipped row."""
    assert main(["verify", "nosuch"]) == EXIT_MISSING_DATA
    expected = capsys.readouterr()
    code = main(["--expect-paper", "table1", "--sets", "new33,nosuch", "--minimal", "none"])
    assert code == EXIT_MISSING_DATA
    assert capsys.readouterr() == ("", expected.err)
    assert expected.err.startswith("missing data: 'nosuch' is neither a builtin set")


def test_table1_out_of_budget_is_a_mismatch(capsys):
    """An unfinished search shows `incomplete` in the table; under
    --expect-paper it is a mismatch line, not a pass."""
    code, table = run(capsys, "table1", "--budget", "0")
    assert code == EXIT_OK
    row = table.splitlines()[4].split()
    assert (row[0], row[-1]) == ("new33", "incomplete")
    code, out = run(capsys, "--expect-paper", "table1", "--budget", "0")
    assert code == EXIT_MISMATCH
    assert out == table + ("EXPECT-PAPER MISMATCH: new33.minimal_split: "
                           "computed incomplete, expected 5-9\n")


@pytest.mark.parametrize("sets", ["renamed,new33", "new33,renamed", "new33,new33"])
def test_table1_rejects_two_sets_of_one_name(sets, tmp_path, capsys):
    """A row per set name: a second set of that name is bad input, not a
    second row or a row that replaces the first."""
    path = tmp_path / "renamed.json"
    save_set(colorability.KSInstance("new33", builtin("peres33").graph.vertices), path)
    argv = ["table1", "--sets", sets.replace("renamed", str(path)), "--minimal", "none"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --sets gives two sets named 'new33'\n")


def test_summary_table_renders_deterministically():
    def facts():
        inst = builtin("yuoh13")
        report = orthograph.automorphisms(inst.graph)
        return {"rays": inst.graph.n, "bases": len(inst.basis_indices),
                "orbit_count": len(report.orbits), "aut_order": report.order,
                "ks": "SAT"}

    a = summary_table([("yuoh13", facts())])
    b = summary_table([("yuoh13", facts())])
    assert a == b
    assert a.splitlines()[2].split() == ["yuoh13", "13", "4", "3", "24", "SAT", "-"]
    c = summary_table([("yuoh13", {**facts(), "minimal_split": "incomplete"})])
    assert c.splitlines()[2].split()[-1] == "incomplete"


def test_missing_data_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSVERIFY_DATA_DIR", str(tmp_path))
    code = main(["verify", "schuette33"])
    assert code == EXIT_MISSING_DATA
    assert f"expected {tmp_path / 'schuette33.json'};" in capsys.readouterr().err


def test_unknown_set_is_missing_data(capsys):
    code = main(["verify", "nosuchset"])
    assert code == EXIT_MISSING_DATA


def test_expectation_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(catalog.EXPECTED["yuoh13"], "bases", 5)
    code, out = run(capsys, "--expect-paper", "verify", "yuoh13")
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out


def test_game_cross_check_disagreement_raises(capsys, monkeypatch):
    """Two classical values that disagree are a bug: an AssertionError that
    names both, with nothing printed."""
    from ksverify import game

    monkeypatch.setattr(game, "classical_value_twolevel", lambda game: Fraction(1))
    with pytest.raises(AssertionError, match="classical value 44/45 .*, 1 from"):
        main(["--expect-paper", "game", "new33"])
    assert capsys.readouterr().out == ""


def test_sic_expectation_mismatch(capsys):
    code, out = run(capsys, "--expect-paper", "sic", "--seed", "(1,0,0)")
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-1] == (
        "EXPECT-PAPER MISMATCH: xz_orbit.sic_povm: computed False, expected True")


def test_generate_expectation_mismatch(capsys, monkeypatch):
    monkeypatch.setitem(catalog.EXPECTED["yuoh13"], "Z_closure_is_new33", False)
    code, out = run(capsys, "--expect-paper", "generate",
                    "--seed", "yuoh13", "--gens", "Z")
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-1] == ("EXPECT-PAPER MISMATCH: "
                                    "yuoh13.Z_closure_is_new33: computed True, expected False")


def test_reports_are_byte_identical(capsys):
    _, first = run(capsys, "game", "new33")
    _, second = run(capsys, "game", "new33")
    assert first == second
    _, t1 = run(capsys, "table1", "--minimal", "none")
    _, t2 = run(capsys, "table1", "--minimal", "none")
    assert t1 == t2


@pytest.mark.parametrize("argv,enumerations", [
    (["table1"], 3),  # conway31, peres33, new33; minimal new33 reuses its group
    (["game", "new33"], 1),
    (["minimal", "new33"], 1),
    (["symmetry", "new33"], 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_each_graph_enumerates_its_group_once(argv, enumerations, monkeypatch, capsys):
    calls = []
    enumerate_automorphisms = orthograph.enumerate_automorphisms
    monkeypatch.setattr(orthograph, "enumerate_automorphisms",
                        lambda adj: calls.append(adj) or enumerate_automorphisms(adj))
    assert main(argv) == EXIT_OK
    assert len(calls) == enumerations
    g = builtin("new33").graph
    assert g.group is g.group
    assert len(calls) == enumerations + 1


@pytest.mark.parametrize("gens,fact", [("Z", "Z_closure_is_new33"),
                                       ("X", "X_closure_is_seed")])
def test_generate_builds_no_graph(gens, fact, monkeypatch, capsys):
    """Comparing ray sets needs the rays only: no instance, graph or basis."""
    calls = []
    init = colorability.KSInstance.__init__
    monkeypatch.setattr(colorability.KSInstance, "__init__",
                        lambda self, *a, **k: calls.append("KSInstance") or init(self, *a, **k))
    build_graph = orthograph.build_graph
    for module in (orthograph, colorability):
        monkeypatch.setattr(module, "build_graph",
                            lambda rays: calls.append("build_graph") or build_graph(rays))
    args = build_parser().parse_args(["generate", "--seed", "yuoh13", "--gens", gens])
    facts, _, _ = args.func(args)
    assert facts["yuoh13"][fact] is True
    assert calls == []


E123 = [[[[0, 1, 1]], [], []], [[], [[0, 1, 1]], []], [[], [], [[0, 1, 1]]]]


def set_file(**fields):
    return json.dumps({"name": "bad", "conductor": 1, "rays": E123, **fields})


BAD_FILES = {
    "bad.json": "{bad",
    "latin1.json": b"\xff{}",
    "list.json": "[]",
    "dup.json": json.dumps({
        "name": "dup", "conductor": 1,
        "rays": [[[[0, 1, 1]], [], []], [[[0, 2, 1]], [], []]],
    }),
    "basis7.json": set_file(declared_bases=[[0, 1, 7]]),
    "basisneg.json": set_file(declared_bases=[[0, 1, -1]]),
    "cond0.json": set_file(conductor=0),
    "condneg.json": set_file(conductor=-3),
    "cond361.json": set_file(conductor=361),
    "rayint.json": set_file(rays=[5]),
    "den0.json": set_file(rays=[[[[0, 1, 0]], [], []]]),
    "basesint.json": set_file(declared_bases=5),
    "notesint.json": set_file(notes=5),
    "notesstr.json": set_file(notes="ab"),
    "condfloat.json": set_file(conductor=1.5),
    "namelist.json": set_file(name=["bad"]),
    "tripbool.json": set_file(rays=[[[[True, 1, 1]], [], []]]),
    "tripbool2.json": set_file(rays=[[[[0, True, 1]], [], []]]),
    "tripshort.json": set_file(rays=[[[[0, 1]], [], []]]),
    "provint.json": set_file(provenance=5),
    "provlist.json": set_file(provenance=["a"]),
    "deep.json": '{"rays": ' + "[" * 100_000,
    "raysint.json": set_file(rays=5),
    "raysdict.json": set_file(rays={"x": 1}),
    "raysempty.json": set_file(rays=[]),
    # beyond the int digit limit of json.load; without that limit, ray 0
    # and ray 1 are both (1,0,0)
    "bigint.json": set_file(rays=E123).replace(
        '"rays": [', '"rays": [[[[0, 1' + "0" * 5000 + ', 1]], [], []], ', 1),
    # one basis and 8 pairwise non-orthogonal rays (1,k,1): 3! * 8! automorphisms
    "sym8.json": set_file(rays=E123 + [[[[0, 1, 1]], [[0, k, 1]], [[0, 1, 1]]]
                                       for k in range(1, 9)]),
    # the ray (10^400, 1, 0) is exact, but beyond float range for majorana
    "bigfloat.json": set_file(rays=E123 + [[[[0, 10**400, 1]], [[0, 1, 1]], []]]),
}


@pytest.mark.parametrize("argv", [
    ["verify", "bad.json"],
    ["verify", "latin1.json"],
    ["verify", "list.json"],
    ["verify", "dup.json"],
    ["verify", "basis7.json"],
    ["verify", "basisneg.json"],
    ["verify", "cond0.json"],
    ["verify", "condneg.json"],
    ["verify", "cond361.json"],
    ["verify", "rayint.json"],
    ["verify", "den0.json"],
    ["verify", "basesint.json"],
    ["verify", "notesint.json"],
    ["verify", "notesstr.json"],
    ["verify", "condfloat.json"],
    ["verify", "namelist.json"],
    ["verify", "tripbool.json"],
    ["verify", "tripbool2.json"],
    ["verify", "tripshort.json"],
    ["verify", "provint.json"],
    ["verify", "provlist.json"],
    ["verify", "deep.json"],
    ["verify", "raysint.json"],
    ["verify", "raysdict.json"],
    ["verify", "raysempty.json"],
    ["verify", "bigint.json"],
    ["sic", "--seed", "(1,z361,0)"],
    ["sic", "--seed", "(1,1/0,0)"],
    ["sic", "--seed", "(1,1)"],
    ["sic", "--seed", "(1,2*,0)"],
    ["generate", "--seed", "(1,0,0)", "--gens", "Q"],
    ["generate", "--seed", "yuoh13", "--gens", ""],
    ["generate", "--seed", "yuoh13", "--gens", ","],
    # a repeated generator label adds nothing, and no fact would be checked
    ["generate", "--seed", "yuoh13", "--gens", "Z,Z"],
    ["generate", "--seed", "yuoh13", "--gens", "ZZ"],
    ["game", "new33", "--alice", "a", "--bob", "1"],
    ["game", "new33", "--alice", "0", "--bob", "1,x"],
    ["game", "new33", "--alice", ",", "--bob", "1"],
    ["game", "new33", "--alice", "99", "--bob", "1"],
    ["game", "new33", "--alice", "0"],
    # a repeated basis index adds nothing but run time
    ["game", "new33", "--alice", "0,0", "--bob", "1"],
    ["game", "new33", "--alice", "0", "--bob", "1,1"],
    ["game", "conway31"],
    ["verify", "."],
    ["majorana", "new33", "--out", "nodir/x.csv"],
    ["majorana", "bigfloat.json", "--out", "x.csv"],
    ["verify", "new33", "--export-cnf", "nodir/x.cnf"],
    ["game", "new33", "--export-graph", "nodir/g.txt"],
    ["game", "new33", "--export-legend", "nodir/l.txt"],
    # a legend that cannot be written leaves no graph file either
    ["game", "new33", "--export-graph", "x.csv", "--export-legend", "nodir/l.txt"],
    ["symmetry", "sym8.json"],
    ["game", "sym8.json"],
    ["minimal", "sym8.json"],
    ["table1", "--sets", "sym8.json"],
    ["minimal", "new33", "--budget", "nan"],
    ["minimal", "new33", "--budget", "-1"],
    ["table1", "--sets", "new33", "--budget", "nan"],
    ["table1", "--sets", "new33", "--budget", "-1"],
    ["table1", "--sets", "yuoh13", "--budget", "-1"],
    ["table1", "--minimal", "none", "--budget", "nan"],
    # an empty option value is given, not absent
    ["--expect-paper", "game", "new33", "--alice", "", "--bob", ""],
    ["game", "new33", "--alice", "", "--bob", "1"],
    ["verify", "new33", "--export-cnf", ""],
    ["game", "new33", "--export-graph", ""],
    ["game", "new33", "--export-legend", ""],
    ["majorana", "new33", "--out", ""],
], ids=" ".join)
def test_bad_input_exits_usage_with_one_line(argv, tmp_path, capsys):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    # an error in a set file starts with the file's path
    is_set_file = argv[0] == "verify" and argv[1] in BAD_FILES
    prefix = f"error: {tmp_path / argv[1]}: " if is_set_file else "error: "
    # "." is the temporary directory itself; nodir/ does not exist in it;
    # x.csv is an export that must not be written
    argv = [str(tmp_path / a) if a in BAD_FILES or a in (".", "x.csv")
            or a.startswith("nodir/") else a for a in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out == ""  # nothing prints before the pipeline has finished
    assert not (tmp_path / "x.csv").exists()  # a failed export writes no file
    assert len(err.splitlines()) == 1
    assert err.startswith(prefix)
    assert "Traceback" not in err


def test_a_failed_export_keeps_a_path_that_existed(tmp_path, capsys):
    """Only files that the run created are removed when a later export
    fails: a symlink given as the graph path stays, and so does its target."""
    target = tmp_path / "target.txt"
    target.write_text("kept\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    legend = tmp_path / "nodir" / "l.txt"
    assert main(["game", "new33", "--export-graph", str(link), "--export-legend", str(legend)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    assert link.is_symlink() and target.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "new33", "--export-cnf", "x.cnf"],
    ["majorana", "new33", "--out", "x.csv"],
    ["game", "new33", "--export-graph", "g.txt", "--export-legend", "l.txt"],
], ids=lambda argv: argv[0])
def test_a_failed_write_leaves_no_file_the_run_created(argv, tmp_path):
    """Under a 1 KB file-size limit every export fails mid-write with EFBIG
    (Python ignores SIGXFSZ): the run exits 2, prints nothing on stdout and
    one line that names the file, and leaves no file behind."""
    resource = pytest.importorskip("resource")
    proc = subprocess.run(
        [sys.executable, "-m", "ksverify.cli", *argv], cwd=tmp_path,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024)))
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.endswith(f": {argv[3]!r}\n")  # the first export is too large
    assert list(tmp_path.iterdir()) == []


def test_game_rejects_one_file_as_graph_and_legend(tmp_path, capsys):
    """The legend would overwrite the graph, so the same file, however it is
    spelled, is bad input, and no file is written."""
    graph = tmp_path / "g.txt"
    legend = f"{tmp_path}/./g.txt"
    assert main(["game", "new33", "--export-graph", str(graph), "--export-legend", legend]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", f"error: --export-graph and --export-legend name one file: {legend}\n")
    assert not graph.exists()


# b = BIG + 7 and d = BIG + 9 are coprime, so the canonical form of the ray
# (1, 1/b, 1/d) is (bd, d, b), whose first coefficient has 7,999 digits
BIG = 10**3999


@pytest.mark.parametrize("argv", [
    ["verify", "big.json"],
    ["symmetry", "big.json"],
    ["majorana", "big.json", "--out", "x.csv"],
    ["sic", "--seed", f"(1,1/{BIG + 7},1/{BIG + 9})"],
], ids=["verify", "symmetry", "majorana", "sic"])
def test_a_canonical_coefficient_beyond_the_print_limit_is_bad_input(argv, tmp_path, capsys):
    """str(int) refuses more than 4,300 digits, so such a ray could not be
    printed: it is rejected where it is read, a set file's by its index."""
    path = tmp_path / "big.json"
    path.write_text(set_file(rays=E123[:2] + [[[[0, 1, 1]], [[0, 1, BIG + 7]], [[0, 1, BIG + 9]]]]))
    argv = [str(tmp_path / a) if a in ("big.json", "x.csv") else a for a in argv]
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert not (tmp_path / "x.csv").exists()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: " if argv[0] == "sic" else f"error: {path}: ray 2 ")
    assert err.endswith("a canonical ray coefficient has more than 4300 digits\n")


def test_a_component_whose_denominators_have_a_long_lcm_is_bad_input(tmp_path, capsys):
    """The lcm of 10^2499 + 1 and 10^2499 + 3 has 4,999 digits: the ray is
    rejected, by its index, before any coefficient is built over it."""
    d = 10**2499
    path = tmp_path / "lcm.json"
    path.write_text(set_file(rays=E123[:2] + [[[[0, 1, d + 1], [0, 1, d + 3]], [[0, 1, 1]], []]]))
    assert main(["verify", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ray 2 ")
    assert err.endswith("the denominators' lcm has more than 4300 digits\n")


def test_a_canonical_coefficient_at_the_print_limit_prints(tmp_path, capsys):
    # the canonical form of (N, 1, 0) is (N, 1, 0): N has 4,300 digits
    n = 10**4300 - 1
    path = tmp_path / "edge.json"
    path.write_text(set_file(rays=E123 + [[[[0, n, 1]], [[0, 1, 1]], []]]))
    code, out = run(capsys, "symmetry", str(path))
    assert code == EXIT_OK
    assert f"({n},1,0)" in out


def test_a_declared_basis_whose_inner_product_is_beyond_the_print_limit(tmp_path, capsys):
    """Rays 0 and 1 print, but their inner product 1 + (b+1)(b+3) has 6,001
    digits: the error line still names the file and the basis."""
    b = 10**3000
    path = tmp_path / "wide.json"
    path.write_text(set_file(rays=[[[[0, 1, 1]], [[0, b + 1, 1]], []],
                                   [[[0, 1, 1]], [[0, b + 3, 1]], []], E123[2]],
                             declared_bases=[[0, 1, 2]]))
    assert main(["verify", str(path)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", (
        f"error: {path}: declared basis 0 (0, 1, 2): rays 0 and 1 have inner "
        f"product <more than 4300 digits>\n"))


def test_sic_failure_lines_quote_overlaps_beyond_the_print_limit(capsys):
    """A seed within the coefficient bound whose overlaps are not: the
    report prints, each failure line short."""
    assert main(["sic", "--seed", f"(1,{10**2500 + 1},0)"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert "SIC-POVM: False" in out
    failures = [line for line in out.splitlines() if line.startswith("  failure: ")]
    assert len(failures) == 72
    assert all(line.endswith(" is <more than 4300 digits>, want 1/4") and len(line) < 250
               for line in failures)
    assert "Exceeds the limit" not in out


def test_bad_basis_index_names_flag_and_entry(capsys):
    # the split flags are read before the set loads, so the error costs no load
    assert main(["game", "new33", "--alice", "0,1", "--bob", "1,x"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --bob entry 'x' is not a basis index\n")
    assert main(["game", "new33", "--alice", "0"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --alice and --bob must be given together\n")
    assert main(["game", "new33", "--alice", "0,1", "--bob", "2,3,2"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --bob repeats basis index 2\n")


@pytest.mark.parametrize("text", [
    # ray 0: a first component of 100,000 triples, the last one short
    set_file(rays=[[[[0, 1, 1]] * 100_000 + [[0, 1]], [], []]] + E123),
    # ray 0: a list nested 980 deep, which the JSON parser still accepts
    '{"name": "deep", "rays": [' + "[" * 980 + "]" * 980 + "]}",
], ids=["long", "deep"])
def test_bad_ray_error_line_is_short(text, tmp_path):
    # a fresh process: a deep set file parses only near the bottom of the stack
    path = tmp_path / "ray0.json"
    path.write_text(text)
    code, _, err = cli_process("verify", str(path))
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "ray 0" in err
    assert len(err.encode()) < 300


def test_many_problems_error_line_is_short(tmp_path, capsys):
    # 2,000 copies of the ray (1,0,0): 1,999 duplicate pairs, of which 3 are named
    path = tmp_path / "dups.json"
    path.write_text(set_file(rays=E123[:1] * 2000))
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "rays 0 and 3 are the same projective ray" in err
    assert "rays 0 and 4 " not in err
    assert err.rstrip().endswith("; and 1996 more")
    assert len(err.encode()) < 1024
