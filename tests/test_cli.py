import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tubtilt import cli, connect, serialize, verify
from tubtilt.errors import ExprSyntaxError, InternalConsistencyError
from tubtilt.exprs import parse_expr
from tubtilt.tilting import make_tilting, mutate, t_can
from tubtilt.tubes import line_bundle_obj
from tubtilt.verify import context_for
from tubtilt.weights import c_gen, omega, x_gen


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def test_suite_names_match_verify():
    # cli keeps its own tuple so that only the verify command imports verify
    assert cli.SUITE_NAMES == tuple(verify.SUITE_ORDER)


def test_cli_import_leaves_verify_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, tubtilt.cli; print('tubtilt.verify' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_process_never_loads_dataclasses(tmp_path):
    # the value types are hand-written records (tubtilt.records), and
    # logging is imported only when verify_path warns, which no successful
    # command does; pytest itself loads both, so only a fresh process can tell
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = """if True:
        import contextlib, io, sys
        from tubtilt import cli
        seen = ["dataclasses" in sys.modules, "logging" in sys.modules]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["info"],
                ["chart", "--slope", "1/2"],
                ["mutate", "Tcan", "--at", "L(0)"],
                ["purge", "mu(Tcan, 5)"],
                ["connect", "mu(Tcan, 0)"],
                ["check", "Tcan"],
                ["walk", "--steps", "4", "--seed", "1"],
                ["graph", "--slope-window", "0..2", "--max-nodes", "5", "--dot", sys.argv[1]],
            ):
                assert cli.run(["--weights", "2,2,2,2", *argv]) == 0, argv
        seen += ["dataclasses" in sys.modules, "logging" in sys.modules]
        import tubtilt.serialize, tubtilt.verify
        seen += ["dataclasses" in sys.modules, "logging" in sys.modules]
        print(seen)
    """
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "g.dot")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([False] * 6)


# the library modules each command must leave unloaded; no command loads
# the root oracle (tubtilt.roots), verify or fractions
_UNLOADED = {
    "info": {"connect", "tilting", "tubes", "serialize"},
    "check": {"connect"},
    "chart": {"connect", "tilting"},
    "walk": set(),
    "graph": set(),
}


@pytest.mark.parametrize("command", sorted(_UNLOADED))
def test_a_command_loads_only_its_modules(tmp_path, command):
    argv = {
        "info": ["info"],
        "check": ["check", "mu(Tcan, 3)"],
        "chart": ["chart", "--slope", "19/43"],
        "walk": ["walk", "--steps", "3", "--seed", "3", "--bundle-only"],
        "graph": ["graph", "--slope-window", "0..2", "--max-nodes", "4", "--dot", "g.dot"],
    }[command]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = """if True:
        import contextlib, io, json, sys
        from tubtilt import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["--weights", "2,3,6", *sys.argv[1:]])
        loaded = [m for m in sys.modules if m.startswith("tubtilt.") or m == "fractions"]
        print(json.dumps([code, sorted(loaded)]))
    """
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    modules = {m.split(".", 1)[1] for m in loaded if m.startswith("tubtilt.")}
    assert {"cli", "exprs", "k0", "weights"} <= modules
    assert not modules & (_UNLOADED[command] | {"roots", "verify"}), sorted(modules)
    assert "fractions" not in loaded


def test_connect_budget_defaults_to_search_budget(monkeypatch):
    budgets = []
    pair = connect.connect_pair

    def recording(ctx, t, t2, budget):
        budgets.append(budget)
        return pair(ctx, t, t2, budget)

    monkeypatch.setattr(connect, "connect_pair", recording)
    for extra in ([], ["--max-nodes", "5000"]):
        code, _, _ = run_cli(["--weights", "2,2,2,2", "connect", "mu(Tcan, 0)", *extra])
        assert code == 0
    assert budgets[0] == connect.SearchBudget()
    assert budgets[0].max_nodes == connect.SearchBudget().max_nodes
    assert budgets[1] == connect.SearchBudget(max_nodes=5000)


def test_info():
    code, out, _ = run_cli(["--weights", "2,2,2,2", "info"])
    assert code == 0
    assert "n: 6" in out and "p: 2" in out
    assert "O S1,1 S2,1 S3,1 S4,1 f" in out


def test_info_prints_an_integer_genus():
    for ws in ("2,2,2,2", "2,3,6", "2,4,4", "3,3,3"):
        code, out, _ = run_cli(["--weights", ws, "info"])
        assert code == 0
        assert "genus: 1" in out.splitlines(), ws


def test_info_rejects_non_tubular():
    code, out, err = run_cli(["--weights", "2,3,5", "info"])
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "NonTubularWeights"


def test_usage_error_exit_code(tmp_path):
    for argv in (
        ["frobnicate"],
        ["--weights", "2,2,a", "info"],
        ["--weights", "2,2,2,2", "chart", "--slope", "1/0"],
        ["--weights", "2,2,2,2", "connect", "Tcan", "--max-nodes", "0"],
        ["--weights", "2,2,2,2", "walk", "--steps", "-3"],
        ["--weights", "2,2,2,2", "graph", "--slope-window", "0..1", "--max-nodes", "0",
         "--dot", str(tmp_path / "g.dot")],
        ["--weights", "2,2,2,2", "graph", "--slope-window", "0..1", "--max-nodes", "-4",
         "--dot", str(tmp_path / "g.dot")],
        ["--weights", "2,2,2,2", "graph", "--slope-window", "2..0", "--max-nodes", "3",
         "--dot", str(tmp_path / "g.dot")],
        ["verify", "--suite", "connect", "--trials", "0"],
        ["verify", "--suite", "connect", "--trials", "-1"],
        ["verify", "--suite", "bogus"],
        # their checks live in the unit tests; verify runs the acceptance criteria
        *(["verify", "--suite", suite] for suite in ("weights", "k0", "excalc", "dichotomy")),
        ["--no-cache", "--weights", "2,2,2,2", "info"],
    ):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1, argv
        assert json.loads(err)["error"] == "UsageError"
    ctx = context_for((2, 2, 2, 2))
    data = serialize.tilting_to_dict(ctx, t_can(ctx))
    for weights in ([2, 2, 2, 2.5], [2, 2, 2, "a"], None):
        f = tmp_path / "w.json"
        f.write_text(json.dumps(dict(data, weights=weights)))
        code, out, err = run_cli(["check", str(f)])
        assert code == 2, weights
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NonTubularWeights"


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["--weights", "\u0662,\u0662,\u0662,\u0662", "info"], 2, "UsageError"),
        (["--weights", "2,2,2,2", "chart", "--slope", "\u0661/\u0662"], 2, "UsageError"),
        (["--weights", "2,2,2,2", "chart", "--slope", "\u0663"], 2, "UsageError"),
        (["--weights", "2,2,2,2", "walk", "--steps", "\u0663"], 2, "UsageError"),
        (["--weights", "2,2,2,2", "walk", "--steps", "1", "--seed", "\u0663"], 2, "UsageError"),
        (["--weights", "2,2,2,2", "connect", "Tcan", "--max-nodes", "\u0665"], 2, "UsageError"),
        (["verify", "--suite", "abcd", "--trials", "\u0661"], 2, "UsageError"),
        # not an index, so an expression, which rejects it as --at x3 is rejected
        (["--weights", "2,2,2,2", "mutate", "Tcan", "--at", "\u0663"], 1, "ExprSyntaxError"),
    ],
    ids=["weights", "slope", "integer-slope", "steps", "seed", "max-nodes", "trials", "at"],
)
def test_numbers_take_ascii_digits_only(argv, code, error):
    # int() reads the Arabic-Indic digits \u0660-\u0669 as 0-9; the CLI must not
    got, out, err = run_cli(argv)
    assert (got, out) == (code, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "argv",
    [
        ["--weights", "2,2,2,2", "chart", "--slope", "0"],
        ["--weights", "2,2,2,2", "mutate", "Tcan", "--at", "0"],
    ],
    ids=["chart", "mutate"],
)
def test_closed_stdout_is_one_diagnostic(argv):
    # the pipe's read end is closed before the console script writes, as
    # when `tubtilt ... | head -c 80` has read enough
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-c", "from tubtilt.cli import main; main()", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "BrokenPipeError"


def test_check_expression():
    code, out, _ = run_cli(["--weights", "2,2,2,2", "check", "Tcan"])
    assert code == 0
    assert json.loads(out)["tilting"] is True


def test_check_file(tmp_path):
    ctx = context_for((2, 3, 6))
    f = tmp_path / "t.json"
    f.write_text(serialize.dumps(serialize.tilting_to_dict(ctx, t_can(ctx))))
    code, out, _ = run_cli(["check", str(f)])
    assert code == 0
    assert json.loads(out)["summands"] == 10


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"weights": [2, 2, 2, 2], "summands": 3}',
        '{"weights": [2, 2, 2, 2], "summands": [3]}',
        '{"weights": [2, 2, 2, 2], "summands": {"class": [1, 0, 0, 0, 0, 0]}}',
        "[]",
        "",
        pytest.param("[" * 200_000 + "]" * 200_000, id="nested-200000-deep"),
    ],
)
def test_malformed_json_file_is_one_diagnostic(tmp_path, text):
    f = tmp_path / "malformed.json"
    f.write_text(text)
    for argv in (["check", str(f)], ["connect", str(f)]):
        code, out, err = run_cli(argv)
        assert code == 1, argv
        assert out == ""
        assert len(err.splitlines()) == 1
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert str(f) in diag["message"]


@pytest.mark.parametrize(
    "summands, error",
    [
        ([[0, 0, 0, 0, 0, 0]], "NotSheafLike"),
        ([[1, 0, 0, 0, 0, 0]], "WrongSummandCount"),
        ([[1, 0, 0, 0, 0, 0]] * 6, "DuplicateSummands"),
    ],
)
def test_file_decoding_errors_name_the_file(tmp_path, summands, error):
    # the error keeps its class; only its message gains the file name
    f = tmp_path / "bad.json"
    record = {"weights": [2, 2, 2, 2], "summands": [{"class": c} for c in summands]}
    f.write_text(json.dumps(record))
    for argv in (["check", str(f)], ["connect", str(f)]):
        code, out, err = run_cli(argv)
        assert code == 1, argv
        assert out == ""
        assert len(err.splitlines()) == 1
        diag = json.loads(err)
        assert diag["error"] == error
        assert diag["message"].startswith(f"{f}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--weights", "2,3,6", "connect", "{missing}"],
        ["check", "{missing}"],
        ["--weights", "2,3,6", "check", "{missing}"],
        ["--weights", "2,3,6", "connect", "Tcan", "--to", "{missing}"],
    ],
    ids=["connect", "check", "check-with-weights", "connect-to"],
)
def test_a_missing_file_is_named(tmp_path, argv):
    # an argument that names no file and does not parse as an expression
    # is still an ExprSyntaxError, and its message names the argument and
    # the missing file in front of the parser's own message
    missing = str(tmp_path / "walk.json")
    with pytest.raises(ExprSyntaxError) as parsed:
        parse_expr(missing)
    code, out, err = run_cli([a.format(missing=missing) for a in argv])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {
        "error": "ExprSyntaxError",
        "message": f"{missing}: no such file, and not an expression: {parsed.value}",
    }


def test_graph_unwritable_dot_path(tmp_path):
    for dot in (tmp_path / "missing" / "g.dot", tmp_path):
        code, out, err = run_cli(
            ["--weights", "2,2,2,2", "graph", "--slope-window", "0..2", "--max-nodes", "3",
             "--dot", str(dot)]
        )
        assert code == 2, dot
        assert out == ""
        assert len(err.splitlines()) == 1
        diag = json.loads(err)
        assert diag["error"] == "UsageError"
        assert str(dot) in diag["message"]
    assert list(tmp_path.iterdir()) == []


def test_check_rejects_corrupt_file(tmp_path):
    ctx = context_for((2, 2, 2, 2))
    data = serialize.tilting_to_dict(ctx, t_can(ctx))
    data["summands"][0] = data["summands"][1]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code, _, err = run_cli(["check", str(f)])
    assert code == 1
    assert json.loads(err)["error"] == "DuplicateSummands"


def test_check_rejects_tampered_coordinates(tmp_path):
    ctx = context_for((2, 2, 2, 2))
    data = serialize.tilting_to_dict(ctx, t_can(ctx))
    data["summands"][0]["class"] = data["summands"][1]["class"]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code, _, err = run_cli(["check", str(f)])
    assert code == 1
    assert json.loads(err)["error"] == "ValidationError"


def test_non_tilting_file_rejected(tmp_path):
    # T_can of (2,2,2,2) with O(c) replaced by O(omega): Ext^1(O(omega), O) != 0
    ctx = context_for((2, 2, 2, 2))
    w = ctx.weights
    oc = line_bundle_obj(ctx, c_gen(w))
    summands = [
        line_bundle_obj(ctx, omega(w)) if s == oc else s for s in t_can(ctx).summands
    ]
    f = tmp_path / "bad.json"
    f.write_text(serialize.dumps(serialize.tilting_to_dict(ctx, make_tilting(ctx, summands))))
    code, out, _ = run_cli(["check", str(f)])
    assert code == 1
    assert json.loads(out)["tilting"] is False
    dot = str(tmp_path / "g.dot")
    for argv in (
        ["mutate", str(f), "--at", "0"],
        ["connect", str(f)],
        ["purge", str(f)],
        ["--weights", "2,2,2,2", "connect", "Tcan", "--to", str(f)],
        ["graph", "--from", str(f), "--slope-window", "0..1", "--max-nodes", "3",
         "--dot", dot],
    ):
        code, out, err = run_cli(argv)
        assert code == 1, argv
        assert out == ""
        assert len(err.splitlines()) == 1
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert "not a tilting object" in diag["message"]
    assert not (tmp_path / "g.dot").exists()


def test_mutate_frozen_value():
    code, out, _ = run_cli(["--weights", "2,2,2,2", "mutate", "Tcan", "--at", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["event"]["removed"] == [1, 0, 0, 0, 0, 0]
    assert data["event"]["added"] == [3, 1, 1, 1, 1, 0]
    assert data["event"]["dir"] == "L"


def test_mutate_at_expression():
    code, out, _ = run_cli(
        ["--weights", "2,2,2,2", "mutate", "Tcan", "--at", "L(c)"]
    )
    assert code == 0
    assert json.loads(out)["event"]["added"] == [3, 1, 1, 1, 1, -1]


def test_mutate_at_an_object_that_is_not_a_summand():
    at = "E(inf; t=0; s=0; l=1)"
    code, out, err = run_cli(["--weights", "2,2,2,2", "mutate", "Tcan", "--at", at])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag["error"] == "ValidationError"
    assert at in diag["message"] and "not a summand" in diag["message"]


def test_walk_and_connect(tmp_path):
    code, out, _ = run_cli(
        ["--weights", "2,2,2,2", "walk", "--steps", "4", "--seed", "11", "--bundle-only"]
    )
    assert code == 0
    walk = json.loads(out)
    assert walk["bundleOnly"] is True
    assert len(walk["nodes"]) == 5
    f = tmp_path / "end.json"
    f.write_text(json.dumps(walk["nodes"][-1]))
    code, out, _ = run_cli(["connect", str(f), "--to", "canonical"])
    assert code == 0
    path = json.loads(out)
    assert path["bundleOnly"] is True
    assert path["nodes"][-1] == serialize.tilting_to_dict(
        context_for((2, 2, 2, 2)), t_can(context_for((2, 2, 2, 2)))
    )


def _walk_end_file(tmp_path, weights, name="end.json"):
    code, out, _ = run_cli(
        ["--weights", weights, "walk", "--steps", "4", "--seed", "11", "--bundle-only"]
    )
    assert code == 0
    f = tmp_path / name
    f.write_text(json.dumps(json.loads(out)["nodes"][-1]))
    return f


def test_connect_file_to_expression_without_weights(tmp_path):
    # the weights come from the file; --to is read in the same context
    f = _walk_end_file(tmp_path, "2,2,2,2")
    code, out, err = run_cli(["connect", str(f), "--to", "Tcan(x1)"])
    assert (code, err) == (0, "")
    ctx = context_for((2, 2, 2, 2))
    path = serialize.path_from_dict(ctx, json.loads(out))
    assert path.bundle_only
    assert serialize.tilting_to_dict(ctx, path.nodes[0]) == json.loads(f.read_text())
    assert path.end == t_can(ctx, x_gen(ctx.weights, 0))
    assert run_cli(["--weights", "2,2,2,2", "connect", str(f), "--to", "Tcan(x1)"])[1] == out


def test_connect_to_file_shares_the_first_context(tmp_path, monkeypatch):
    a = _walk_end_file(tmp_path, "2,2,2,2", "a.json")
    b = tmp_path / "b.json"
    ctx = context_for((2, 2, 2, 2))
    b.write_text(serialize.dumps(serialize.tilting_to_dict(ctx, t_can(ctx))))
    built = []

    def counting(build):
        def wrapped(w):
            built.append(w.weights)
            return build(w)

        return wrapped

    monkeypatch.setattr(cli, "build_context", counting(cli.build_context))
    monkeypatch.setattr(serialize, "build_context", counting(serialize.build_context))
    code, out, _ = run_cli(["connect", str(a), "--to", str(b)])
    assert code == 0
    assert built == [(2, 2, 2, 2)]
    assert json.loads(out)["nodes"][-1] == json.loads(b.read_text())
    # a --to file with other weights is rejected, with or without --weights
    other = context_for((3, 3, 3))
    c = tmp_path / "c.json"
    c.write_text(serialize.dumps(serialize.tilting_to_dict(other, t_can(other))))
    for argv in (
        ["connect", str(a), "--to", str(c)],
        ["--weights", "2,2,2,2", "connect", "Tcan", "--to", str(c)],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, ""), argv
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert "both tiltings must share the weight sequence" in diag["message"]


def test_connect_to_expression_target():
    code, out, _ = run_cli(
        ["--weights", "2,2,2,2", "connect", "mu(Tcan, 0)", "--to", "Tcan(x4)"]
    )
    assert code == 0
    assert json.loads(out)["bundleOnly"] is True


def test_connect_pair_output_is_a_verified_path(monkeypatch):
    ctx = context_for((2, 2, 2, 2))
    argv = ["--weights", "2,2,2,2", "connect", "mu(Tcan, 0)", "--to", "Tcan(x1)"]
    code, out, _ = run_cli(argv)
    assert code == 0
    path = serialize.path_from_dict(ctx, json.loads(out))
    assert path.bundle_only
    assert path.nodes[0] == mutate(ctx, t_can(ctx), 0)[0]
    assert path.end == t_can(ctx, x_gen(ctx.weights, 0))
    # the library verifies the path; its failure still exits 1 with a diagnostic
    def broken(*args):
        raise InternalConsistencyError("constructed path failed verification")

    # cli imports connect_pair when the command runs, so patch it at its home
    monkeypatch.setattr(connect, "connect_pair", broken)
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "InternalConsistencyError"


def test_purge():
    # mutate T_can at a slope-1 line bundle: the complement is torsion
    code, out, _ = run_cli(["--weights", "2,2,2,2", "purge", "mu(Tcan, 1)"])
    assert code == 0
    data = json.loads(out)
    assert len(data["events"]) == 1
    assert all(
        s["slope"] != "inf" for s in data["tilting"]["summands"]
    )


def test_chart_subcommand():
    code, out, _ = run_cli(["--weights", "2,4,4", "chart", "--slope", "inf"])
    assert code == 0
    data = json.loads(out)
    assert sorted(len(o) for o in data["orbits"]) == [2, 4, 4]


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["--weights", "2,4,4", "chart"], "--slope", "-1/2"),
        (["--weights", "3,3,3", "chart"], "--slope", "-7/3"),
        (["--weights", "2,2,2,2", "chart"], "--slope", "-3"),
        (["--weights", "2,4,4", "graph", "--max-nodes", "5"], "--slope-window", "-1..1"),
        (["--weights", "2,2,2,2", "graph", "--max-nodes", "4"], "--slope-window", "-2..-1"),
    ],
)
def test_negative_slope_as_a_separate_argument(tmp_path, argv, option, value):
    if "graph" in argv:
        argv = argv + ["--dot", str(tmp_path / "g.dot")]
    joined = run_cli(argv + [f"{option}={value}"])
    assert joined[0] == 0, joined
    if "graph" in argv:
        dot = (tmp_path / "g.dot").read_text()
    assert run_cli(argv + [option, value]) == joined
    if "graph" in argv:
        assert (tmp_path / "g.dot").read_text() == dot


@pytest.mark.parametrize(
    "argv",
    [
        ["--weights", "2,4,4", "chart", "--slope"],
        ["--weights", "2,4,4", "chart", "--slope", "--", "-1/2"],
        ["--weights", "2,4,4", "graph", "--max-nodes", "5", "--dot", "g.dot", "--slope-window"],
        ["--weights", "2,4,4", "graph", "--slope-window", "--max-nodes", "5", "--dot", "g.dot"],
        ["--weights", "2,4,4", "chart", "--slope", "-x/2"],
    ],
    ids=["chart-last", "chart-before-dashes", "graph-last", "graph-before-option", "not-a-slope"],
)
def test_missing_slope_value_is_a_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_graph_dot_export(tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = run_cli(
        [
            "--weights",
            "2,2,2,2",
            "graph",
            "--slope-window",
            "0..inf",
            "--max-nodes",
            "7",
            "--dot",
            str(dot),
        ]
    )
    assert code == 0
    stats = json.loads(out)
    assert (stats["nodes"], stats["edges"]) == (7, 6)
    text = dot.read_text()
    assert text.startswith("graph tilting {")
    assert text.count(" -- ") == 6
    assert 'label="0,1,1,1,1,2"' in text


def test_graph_deterministic(tmp_path):
    argv = [
        "--weights",
        "3,3,3",
        "graph",
        "--slope-window",
        "0..3",
        "--max-nodes",
        "5",
        "--dot",
    ]
    d1, d2 = tmp_path / "a.dot", tmp_path / "b.dot"
    assert run_cli(argv + [str(d1)])[0] == 0
    assert run_cli(argv + [str(d2)])[0] == 0
    assert d1.read_text() == d2.read_text()


def test_cli_determinism():
    for argv in (
        ["--weights", "2,2,2,2", "info"],
        ["--weights", "2,2,2,2", "chart", "--slope", "1/2"],
        ["--weights", "2,3,6", "walk", "--steps", "3", "--seed", "7"],
    ):
        c1, o1, _ = run_cli(argv)
        c2, o2, _ = run_cli(argv)
        assert (c1, o1) == (c2, o2)
        assert c1 == 0


def test_verify_subcommand_small():
    code, out, _ = run_cli(["verify", "--suite", "abcd", "--trials", "30"])
    assert code == 0
    assert "PASS" in out


def test_chart_ignores_tubtilt_cache(tmp_path, monkeypatch):
    # charts are memoized per context only: the variable writes and reads nothing
    code, out, _ = run_cli(["--weights", "2,2,2,2", "chart", "--slope", "1/2"])
    assert code == 0
    monkeypatch.setenv("TUBTILT_CACHE", str(tmp_path))
    c2, out2, _ = run_cli(["--weights", "2,2,2,2", "chart", "--slope", "1/2"])
    assert c2 == 0
    assert out2 == out
    assert list(tmp_path.iterdir()) == []


# -- the exit contract under fuzzed command lines -----------------------------


@dataclass(frozen=True)
class _File:
    """A file argument, written under a scratch directory when the example runs."""

    text: str


@dataclass(frozen=True)
class _Dot:
    """A --dot path relative to the scratch directory."""

    name: str


def _records():
    """Tilting records of every type, a mutated one and one that is not tilting."""
    out = []
    for ws in ((2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3)):
        ctx = context_for(ws)
        out.append(serialize.tilting_to_dict(ctx, t_can(ctx)))
    ctx = context_for((2, 2, 2, 2))
    out.append(serialize.tilting_to_dict(ctx, mutate(ctx, t_can(ctx), 1)[0]))
    w = ctx.weights
    oc = line_bundle_obj(ctx, c_gen(w))
    summands = [line_bundle_obj(ctx, omega(w)) if s == oc else s for s in t_can(ctx).summands]
    out.append(serialize.tilting_to_dict(ctx, make_tilting(ctx, summands)))
    return out


_RECORDS = _records()


def _mostly(valid, invalid):
    """Draws from `valid` three times in four."""
    return st.integers(0, 3).flatmap(lambda i: invalid if i == 3 else valid)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["", "inf", "1/2", "x"]),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(
        st.sampled_from(["weights", "summands", "class", "slope", "orbit", "socle", "len"]),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


@st.composite
def _damaged_record(draw):
    record = json.loads(json.dumps(draw(st.sampled_from(_RECORDS))))
    target = draw(st.sampled_from(["weights", "summands", "summand", "field"]))
    if target in ("weights", "summands"):
        record[target] = draw(_JSON)
    else:
        summand = record["summands"][draw(st.integers(0, len(record["summands"]) - 1))]
        if target == "summand":
            summand["class"] = draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
        else:
            summand[draw(st.sampled_from(["slope", "orbit", "socle", "len"]))] = draw(_JSON)
    return record


_FILES = st.builds(
    _File,
    st.one_of(
        st.sampled_from(_RECORDS).map(serialize.dumps),
        _damaged_record().map(json.dumps),
        _JSON.map(json.dumps),
        st.text(max_size=8),
    ),
)

# malformed and non-ASCII tokens; none of them reads as a large number
_JUNK = st.sampled_from(
    ["", "-", "..", "/", "x", "1/0", "inf/2", "²", "٣", "K[²]", "L(x²)", "mu(Tcan, ²)",
     "Tcañ", "mu(Tcan,", "K[1,", "Q(1)", "L(x9)", "E(1/2; t=7; s=0; l=1)", "--weights"]
)
_EXPRS = st.sampled_from(
    ["Tcan", "Tcan(x1-c)", "mu(Tcan, 0)", "mu(mu(Tcan, 2), 1)", "mu(Tcan, 9)", "L(0)",
     "L(x2+c)", "K[3,1,1,1,1,0]", "K[0,0,0,0,0,1]", "E(inf; t=0; s=0; l=1)",
     "E(1/2; t=1; s=1; l=1)"]
)
_TILTING = _mostly(_EXPRS | _FILES, _JUNK)
_INTS = _mostly(st.integers(-2, 12).map(str), _JUNK)
_SLOPES = _mostly(st.sampled_from(["inf", "0", "3", "-1/2", "37/53", "-29/61"]), _JUNK)
_WINDOWS = _mostly(
    st.sampled_from(["0..2", "0..inf", "-1..1", "1/2..3"]),
    _JUNK | st.sampled_from(["2..0", "inf..0", "0..²"]),
)
_WEIGHTS = _mostly(
    st.sampled_from([["--weights", "2,2,2,2"], ["--weights", "2,3,6"], ["--weights", "2,4,4"],
                     ["--weights", "3,3,3"]]),
    st.sampled_from([[], ["--weights", "2,3,5"], ["--weights", "2,²,2,2"]]),
)
_COMMANDS = st.one_of(
    st.just(["info"]),
    _TILTING.map(lambda t: ["check", t]),
    st.tuples(_TILTING, _mostly(st.integers(0, 9).map(str), _EXPRS | _JUNK)).map(
        lambda a: ["mutate", a[0], "--at", a[1]]
    ),
    _SLOPES.map(lambda q: ["chart", "--slope", q]),
    _TILTING.map(lambda t: ["purge", t]),
    st.tuples(_mostly(st.sampled_from(["0", "1", "2"]), st.just("-1")), _INTS, st.booleans()).map(
        lambda a: ["walk", "--steps", a[0], "--seed", a[1]] + ["--bundle-only"] * a[2]
    ),
    st.tuples(
        _WINDOWS,
        _mostly(st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "x"])),
        _mostly(st.just(_Dot("g.dot")), st.sampled_from([_Dot("."), _Dot("missing/g.dot")])),
        _mostly(_EXPRS, _TILTING),
    ).map(
        lambda a: ["graph", "--slope-window", a[0], "--max-nodes", a[1], "--dot", a[2],
                   "--from", a[3]]
    ),
)
_ARGV = st.tuples(_WEIGHTS, _COMMANDS).map(lambda a: a[0] + a[1])


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _materialize(argv, directory):
    out = []
    for arg in argv:
        if isinstance(arg, _Dot):
            arg = str(directory / arg.name)
        elif isinstance(arg, _File):
            data = arg.text.encode("utf-8")
            path = directory / f"{hashlib.sha1(data).hexdigest()}.json"
            path.write_bytes(data)
            arg = str(path)
        out.append(arg)
    return out


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argv=_ARGV)
@example(argv=["--weights", "2,2,2,2", "mutate", "Tcan", "--at", "E(inf; t=0; s=0; l=1)"])
@example(argv=["--weights", "2,2,2,2", "check", "K[²]"])
@example(argv=["check", _File("[" * 200_000 + "]" * 200_000)])
@example(argv=["check", _File(serialize.dumps(_RECORDS[-1]))])
def test_exit_contract(scratch_dir, argv):
    """Exit 0, 1 or 2; a failure leaves stdout empty and one JSON line with
    `error` and `message` on stderr.  The one exception is `check` of a
    record that is not tilting: exit 1 with its verdict on stdout."""
    argv = _materialize(argv, scratch_dir)
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        return
    if code == 1 and err == "" and "check" in argv:
        verdict = json.loads(out)
        assert verdict["tilting"] is False and out.count("\n") == 1
        return
    assert out == ""
    assert len(err.splitlines()) == 1
    assert set(json.loads(err)) == {"error", "message"}
