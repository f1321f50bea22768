"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it runs `run.py --smoke` (tiny inputs) untraced and
traced, and checks that

* the run exits 0 and its last stdout line has exactly the keys
  `correct`, `attempted`, `failed` and `metrics`, with `correct` true;
* the metric names and units are exactly those that BENCHMARK.json
  lists: `end_to_end` untraced, `per_layer` traced;
* the traced run produced the same paths, path event counts and
  explored nodes as the untraced one (equal output digests);

and that the benchmark exits nonzero, printing no result, in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench", "run.py")


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, BENCH, "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        details = {}
        for trace in (0, 1):
            proc = run(wl, trace)
            where = f"{wl} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result, details[trace] = json.loads(lines[-1]), json.loads(lines[-2])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{where}: not correct: {result.get('failed')} failed")
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if got != expected[trace]:
                diff = set(got.items()) ^ set(expected[trace].items())
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(diff)}")
        if len(details) == 2:
            for key in ("digest", "path_events"):
                if details[0][key] != details[1][key]:
                    problems.append(f"{wl}: tracing changed {key}")
        print(f"{wl}: checked", flush=True)

    # Without the library sources the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py succeeded without the library sources")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
