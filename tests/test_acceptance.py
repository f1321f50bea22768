"""Acceptance gate: every exit criterion at its full trial count.

`verify --suite all` runs once per module (`verify_all`); each criterion
test then reports the results of its own suite, one PASS/FAIL line per
check (run with -s to see them).  The suites run at their default trial
counts, which `test_suite_defaults_are_the_criterion_counts` pins to the
counts the criteria name.  All randomness is seeded and all numeric
comparisons are exact rational arithmetic.
"""

import inspect
import io
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from tubtilt import cli, verify
from tubtilt.verify import (
    suite_abcd,
    suite_canonical,
    suite_charts,
    suite_cli,
    suite_complements,
    suite_connect,
    suite_mutation,
    suite_purge,
    suite_slopes,
    suite_structure,
    suite_wings,
)

# The trial count each criterion names; the other three suites take none.
CRITERION_TRIALS = {
    "structure": 10_000,
    "mutation": 500,
    "slopes": 1000,
    "wings": 500,
    "purge": 100,
    "abcd": 100,
    "connect": 50,
    "cli": 1000,
}


@pytest.fixture(scope="module")
def verify_all():
    """`verify --suite all`, run once: its exit code, its stdout and the
    CheckResults of each suite, recorded by wrapping the entries of
    `verify.SUITES` for the run."""
    saved = dict(verify.SUITES)
    results = {}

    def recording(name, fn):
        def run(**kwargs):
            results[name] = fn(**kwargs)
            return results[name]

        return run

    for name, fn in saved.items():
        verify.SUITES[name] = recording(name, fn)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.run(["verify", "--suite", "all"])
    finally:
        verify.SUITES.update(saved)
    return SimpleNamespace(code=code, out=buf.getvalue(), results=results)


def _report(criterion: str, results) -> None:
    ok = all(r.ok for r in results)
    for r in results:
        print("  " + r.line())
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    failed = [r.name for r in results if not r.ok]
    assert ok, f"criterion {criterion} failed: {failed}"


def test_criterion_01_structure(verify_all):
    # genus exactly 1, n in {6,8,9,10}, unimodular Euler matrix, averaged
    # form identity on 10^4 random pairs per type, under 5 seconds
    _report("1 (structure)", verify_all.results["structure"])


def test_criterion_02_chart_census(verify_all):
    _report("2 (chart census)", verify_all.results["charts"])


def test_criterion_03_canonical_tilting(verify_all):
    _report("3 (canonical tilting)", verify_all.results["canonical"])


def test_criterion_04_mutation_engine(verify_all):
    # 500 events per type: involution, unique complement, additivity, < 60s
    _report("4 (mutation engine)", verify_all.results["mutation"])


def test_criterion_05_slope_bounds(verify_all):
    # 1000 events per type with exact rational comparisons
    _report("5 (slope bounds)", verify_all.results["slopes"])


def test_criterion_06_wing_persistence(verify_all):
    _report("6 (wing persistence)", verify_all.results["wings"])


def test_criterion_07_purge_torsion(verify_all):
    _report("7 (torsion purge)", verify_all.results["purge"])


def test_criterion_08_farey_steps(verify_all):
    _report("8 (Farey steps)", verify_all.results["abcd"])


def test_criterion_09_connect_to_canonical(verify_all):
    # 50 seeded random tilting bundles per type, each within 8 random
    # bundle-mutations of the canonical one; every path verified both ways
    # and produced in under 60 seconds
    _report("9 (connectivity)", verify_all.results["connect"])


def test_criterion_10_frozen_complements(verify_all):
    _report("10 (frozen complements)", verify_all.results["complements"])


def test_criterion_11_cli(verify_all):
    _report("11 (cli round-trip and determinism)", verify_all.results["cli"])


def test_criterion_11_verify_all_exits_zero(verify_all):
    assert "FAIL" not in verify_all.out
    assert verify_all.code == 0
    assert list(verify_all.results) == verify.SUITE_ORDER
    print("ACCEPTANCE 11 (verify --suite all): PASS")


def test_suite_defaults_are_the_criterion_counts():
    # the criterion tests read their suites' results off one
    # `verify --suite all`, which runs every suite at its default count
    for name, fn in verify.SUITES.items():
        trials = inspect.signature(fn).parameters["trials"].default
        assert trials == CRITERION_TRIALS.get(name, 0), name


def test_verify_runs_exactly_the_eleven_criteria():
    assert list(verify.SUITES.values()) == [
        suite_structure,
        suite_charts,
        suite_canonical,
        suite_mutation,
        suite_slopes,
        suite_wings,
        suite_purge,
        suite_abcd,
        suite_connect,
        suite_complements,
        suite_cli,
    ]
