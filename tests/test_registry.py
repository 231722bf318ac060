"""The headline registry: every published value that `--expect-paper`
checks (`catalog.EXPECTED`) is rechecked by a named Tier-1 test through
`tests/oracles.py`, with no algorithm shared with the code it checks, or is
listed in GAPS with the reason it has no such test yet."""

import subprocess
import sys
from pathlib import Path

import pytest

from ksverify import catalog

ROOT = Path(__file__).resolve().parent.parent
SLOT_KEYS = ("rays", "bases", "aut_order", "orbit_count", "ks", "minimal_split")


def _counts(name):
    return f"tests/test_graph.py::test_rays_and_bases_rechecked_in_fraction_arithmetic[{name}]"


def _group(name):
    return f"tests/test_graph.py::test_group_facts_rechecked_on_the_oracle_graph[{name}]"


KS = "tests/test_acceptance.py::test_criterion_01_ks_verdict"
CONTEXTS = "tests/test_game.py::test_contexts_and_events_recounted_from_fraction_inner_products"
UNREDUCED = "tests/test_game.py::test_minimal_split_rechecked_with_no_symmetry"
CLOSURES = "tests/test_weylheisenberg.py::test_yuoh13_closures_rechecked_in_fraction_arithmetic"

# (set, key) -> the test, as the suite prints it
RECHECKS = {
    ("new33", "rays"): _counts("new33"),
    ("new33", "bases"): _counts("new33"),
    ("new33", "aut_order"): _group("new33"),
    ("new33", "orbit_sizes"): _group("new33"),
    ("new33", "ks"): KS,
    ("new33", "contexts"): CONTEXTS,
    ("new33", "events"): CONTEXTS,
    ("new33", "quantum"):
        "tests/test_game.py::test_quantum_value_rechecked_from_fraction_inner_products",
    ("new33", "minimal_product"): f"{UNREDUCED}[new33-45]",
    ("new33", "minimal_split"): f"{UNREDUCED}[new33-45]",
    ("yuoh13", "rays"): _counts("yuoh13"),
    ("yuoh13", "bases"): _counts("yuoh13"),
    ("yuoh13", "ks"): KS,
    ("yuoh13", "Z_closure_is_new33"): CLOSURES,
    ("yuoh13", "X_closure_is_seed"): CLOSURES,
    ("peres33", "rays"): _counts("peres33"),
    ("peres33", "bases"): _counts("peres33"),
    ("peres33", "aut_order"): _group("peres33"),
    ("peres33", "orbit_count"): _group("peres33"),
    ("peres33", "ks"): KS,
    ("peres33", "minimal_split"): f"{UNREDUCED}[peres33-63]",
    ("conway31", "rays"): _counts("conway31"),
    ("conway31", "bases"): _counts("conway31"),
    ("conway31", "aut_order"): _group("conway31"),
    ("conway31", "orbit_count"): _group("conway31"),
    ("conway31", "ks"): KS,
    ("xz_orbit", "sic_povm"):
        "tests/test_weylheisenberg.py::test_sic_povms_rechecked_in_fraction_arithmetic",
}

# (set, key) -> why no test rechecks it yet
GAPS = {
    ("new33", "classical"): (
        "the only oracle is strategy enumeration, the algorithm of src's "
        "classical_value_twolevel; an independent recheck waits for the "
        "branch and bound to replace it (ROADMAP item 16)"),
    ("conway31", "minimal_split"): (
        "oracles.minimal_split_unreduced takes about 14 s on conway31, too "
        "long for Tier-1; it belongs in python3 -m pytest bench (ROADMAP item 19)"),
    **{(name, key): "no data file: the slot has no construction, so nothing computes it"
       for name in ("schuette33", "penrose33") for key in SLOT_KEYS},
}


def registry_problems(expected, collected) -> list[str]:
    """One line per (set, key) of `expected` with neither a recheck nor a
    gap, per listed entry that `expected` lacks, and per recheck whose test
    is not among the `collected` test ids."""
    keys = {(name, key) for name, values in expected.items() for key in values}
    listed = RECHECKS.keys() | GAPS.keys()
    return ([f"{n}.{k}: no recheck and no gap" for n, k in sorted(keys - listed)]
            + [f"{n}.{k}: not in EXPECTED" for n, k in sorted(listed - keys)]
            + [f"{n}.{k}: no test {test}" for (n, k), test in sorted(RECHECKS.items())
               if test not in collected])


@pytest.fixture(scope="module")
def collected():
    """The ids of the tests in the modules RECHECKS names, as collected by a
    fresh pytest process."""
    modules = sorted({test.split("::")[0] for test in RECHECKS.values()})
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *modules], cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return {line for line in out.splitlines() if "::" in line}


def test_every_expected_value_has_a_recheck_or_a_gap(collected):
    assert registry_problems(catalog.EXPECTED, collected) == []


def test_the_registry_fails_on_an_unlisted_key_or_a_missing_test(collected, monkeypatch):
    monkeypatch.setitem(catalog.EXPECTED["new33"], "made_up", 1)
    monkeypatch.setitem(RECHECKS, ("new33", "ks"), "tests/test_acceptance.py::test_gone")
    assert registry_problems(catalog.EXPECTED, collected) == [
        "new33.made_up: no recheck and no gap",
        "new33.ks: no test tests/test_acceptance.py::test_gone",
    ]
