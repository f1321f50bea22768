"""Acceptance gate: every exit criterion at its full trial count.

Each test prints one PASS/FAIL line per criterion (run with -s to see
them live); all randomness is seeded and all numeric comparisons are
exact rational arithmetic.
"""

import io
from contextlib import redirect_stdout

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


def _report(criterion: str, results) -> None:
    ok = all(r.ok for r in results)
    for r in results:
        print("  " + r.line())
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    failed = [r.name for r in results if not r.ok]
    assert ok, f"criterion {criterion} failed: {failed}"


def test_criterion_01_structure():
    # genus exactly 1, n in {6,8,9,10}, unimodular Euler matrix, averaged
    # form identity on 10^4 random pairs per type, under 5 seconds
    _report("1 (structure)", suite_structure(trials=10_000))


def test_criterion_02_chart_census():
    _report("2 (chart census)", suite_charts())


def test_criterion_03_canonical_tilting():
    _report("3 (canonical tilting)", suite_canonical())


def test_criterion_04_mutation_engine():
    # 500 events per type: involution, unique complement, additivity, < 60s
    _report("4 (mutation engine)", suite_mutation(trials=500))


def test_criterion_05_slope_bounds():
    # 1000 events per type with exact rational comparisons
    _report("5 (slope bounds)", suite_slopes(trials=1000))


def test_criterion_06_wing_persistence():
    _report("6 (wing persistence)", suite_wings(trials=500))


def test_criterion_07_purge_torsion():
    _report("7 (torsion purge)", suite_purge(trials=100))


def test_criterion_08_farey_steps():
    _report("8 (Farey steps)", suite_abcd(trials=100))


def test_criterion_09_connect_to_canonical():
    # 50 seeded random tilting bundles per type, each within 8 random
    # bundle-mutations of the canonical one; every path verified both ways
    # and produced in under 60 seconds
    _report("9 (connectivity)", suite_connect(trials=50))


def test_criterion_10_frozen_complements():
    _report("10 (frozen complements)", suite_complements())


def test_criterion_11_cli():
    _report("11 (cli round-trip and determinism)", suite_cli(trials=1000))


def test_criterion_11_verify_all_exits_zero():
    from tubtilt import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(["verify", "--suite", "all"])
    out = buf.getvalue()
    assert "FAIL" not in out
    assert code == 0
    print("ACCEPTANCE 11 (verify --suite all): PASS")


def test_verify_runs_exactly_the_eleven_criteria():
    from tubtilt import verify

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
