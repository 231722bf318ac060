"""Result records: immutable named fields, and a CLI import that stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ksverify
from ksverify.colorability import SearchResult
from ksverify.game import Context, Game, GameValue, MinimalSplitResult, Strategy
from ksverify.orthograph import AutGroupReport
from ksverify.rays import BasisViolation
from ksverify.weylheisenberg import SicReport

# every record with its fields, in constructor order
RECORDS = {
    BasisViolation: "index_a index_b product",
    AutGroupReport: "elements orbits",
    SearchResult: "satisfiable ones nodes",
    Context: "x y shared win_mask",
    Game: "alice_bases bob_bases contexts",
    Strategy: "alice bob",
    GameValue: "classical witness",
    MinimalSplitResult: "product alice_bases bob_bases complete candidates_checked",
    SicReport: "is_sic rays overlaps failures",
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_fields_are_named_and_immutable(cls):
    fields = RECORDS[cls].split()
    values = {f: f"value of {f}" for f in fields}
    record = cls(**values)
    assert record == cls(*values.values())
    for field, value in values.items():
        assert getattr(record, field) == value
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_cli_import_skips_dataclasses_and_inspect():
    code = ("import sys; before = set(sys.modules); import ksverify.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    src = str(Path(ksverify.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_cli_import_defers_json_csv_cmath_but_loads_every_module():
    """`import ksverify.cli` leaves json, csv and cmath to the calls that use
    them, loads no pathlib, and still loads every package module.

    The second check matters to the benchmark tracer (`bench/tracer.py`): it
    rewraps a function at its `from ... import` bindings only in the modules
    already loaded when it installs, so a module that the CLI loaded later
    would keep unwrapped bindings and its calls would silently lose their
    spans.  `-S` keeps the host's `site` hooks from loading modules first.
    """
    code = "import sys, ksverify.cli; print(' '.join(sorted(sys.modules)))"
    src = str(Path(ksverify.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    loaded = set(out.split())
    assert not {"json", "csv", "cmath", "pathlib"} & loaded
    traced = {"catalog", "colorability", "cyclotomic", "game", "majorana", "orthograph",
              "rays", "weylheisenberg"}
    assert {f"ksverify.{name}" for name in traced} <= loaded
