"""CLI subcommands: reports, exit codes, determinism, expectation mode."""

import json

import pytest

from ksverify.cli import (
    EXIT_INCOMPLETE,
    EXIT_MISMATCH,
    EXIT_MISSING_DATA,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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


def test_game_exports(tmp_path, capsys):
    graph = tmp_path / "g.dimacs"
    legend = tmp_path / "g.legend"
    code, out = run(
        capsys, "game", "new33",
        "--export-graph", str(graph), "--export-legend", str(legend),
    )
    assert code == EXIT_OK
    assert graph.read_text().startswith("p edge 333 ")
    assert legend.exists()


def test_game_with_explicit_split(capsys):
    code, out = run(capsys, "game", "new33", "--alice", "0,1", "--bob", "2,3")
    assert code == EXIT_OK
    assert "contexts = 4" in out


def test_minimal(capsys):
    code, out = run(capsys, "--expect-paper", "minimal", "new33")
    assert code == EXIT_OK
    assert "5-9" in out


def test_minimal_budget_zero_incomplete(capsys):
    code, out = run(capsys, "minimal", "new33", "--budget", "0")
    assert code == EXIT_INCOMPLETE


def test_generate(capsys):
    code, out = run(capsys, "--expect-paper", "generate",
                    "--seed", "yuoh13", "--gens", "Z")
    assert code == EXIT_OK
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


def test_majorana(tmp_path, capsys):
    out_csv = tmp_path / "m.csv"
    code, out = run(capsys, "majorana", "new33", "--out", str(out_csv))
    assert code == EXIT_OK
    assert "66 sphere points" in out


def test_table1(capsys):
    code, out = run(capsys, "--expect-paper", "table1")
    assert code == EXIT_OK
    assert "new33" in out and "5-9" in out
    assert "peres33" in out and "48" in out
    assert "skipped penrose33" in out


def test_table1_skips_missing_politely(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSVERIFY_DATA_DIR", str(tmp_path))
    import ksverify.catalog as cat

    cat._CACHE.clear()
    try:
        code, out = run(capsys, "table1", "--sets", "new33,peres33")
        assert code == EXIT_OK
        assert "skipped peres33" in out
        assert "new33" in out
    finally:
        cat._CACHE.clear()


def test_missing_data_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSVERIFY_DATA_DIR", str(tmp_path))
    import ksverify.catalog as cat

    cat._CACHE.clear()
    try:
        code = main(["verify", "peres33"])
        assert code == EXIT_MISSING_DATA
    finally:
        cat._CACHE.clear()


def test_unknown_set_is_missing_data(capsys):
    code = main(["verify", "nosuchset"])
    assert code == EXIT_MISSING_DATA


def test_expectation_mismatch_exit_code(capsys, monkeypatch):
    from ksverify import cli

    monkeypatch.setitem(cli.EXPECTED["yuoh13"], "bases", 5)
    code, out = run(capsys, "--expect-paper", "verify", "yuoh13")
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out


def test_reports_are_byte_identical(capsys):
    _, first = run(capsys, "game", "new33")
    _, second = run(capsys, "game", "new33")
    assert first == second
    _, t1 = run(capsys, "table1", "--minimal", "none")
    _, t2 = run(capsys, "table1", "--minimal", "none")
    assert t1 == t2


E123 = [[[[0, 1, 1]], [], []], [[], [[0, 1, 1]], []], [[], [], [[0, 1, 1]]]]


def set_file(**fields):
    return json.dumps({"name": "bad", "conductor": 1, "rays": E123, **fields})


BAD_FILES = {
    "bad.json": "{bad",
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
}


@pytest.mark.parametrize("argv", [
    ["verify", "bad.json"],
    ["verify", "list.json"],
    ["verify", "dup.json"],
    ["verify", "basis7.json"],
    ["verify", "basisneg.json"],
    ["verify", "cond0.json"],
    ["verify", "condneg.json"],
    ["verify", "cond361.json"],
    ["verify", "rayint.json"],
    ["verify", "den0.json"],
    ["sic", "--seed", "(1,z361,0)"],
    ["sic", "--seed", "(1,1)"],
    ["generate", "--seed", "(1,0,0)", "--gens", "Q"],
    ["game", "new33", "--alice", "a", "--bob", "1"],
    ["game", "new33", "--alice", "99", "--bob", "1"],
    ["game", "new33", "--alice", "0"],
    ["game", "conway31"],
], ids=" ".join)
def test_bad_input_exits_usage_with_one_line(argv, tmp_path, capsys):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in BAD_FILES else a for a in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
