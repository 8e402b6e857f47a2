#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size (about 15 seconds on two cores).

Run from the repository root:

    python3 perfbench/selftest.py

Checks the format of BENCHMARK.json (keys, name and unit rules, bounds), runs
every workload untraced and traced with two trials per spec and round, and
checks that each result line has the required keys, that the metric names and
units match BENCHMARK.json and the naming rule, and that the run passed its
correctness gate.  Last, it runs the benchmark in a directory that holds only
BENCHMARK.json and perfbench/, where it must exit non-zero without a result.
"""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check_spec(bench):
    assert set(bench) == BENCH_KEYS, sorted(bench)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def check_result(line, declared, workload, trace):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, (workload, trace, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, (workload, trace, result)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared, (workload, trace, sorted(set(got) ^ set(declared)))
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
        if not trace:
            assert m["value"] > 0, (workload, name, m)


def check_bare_directory(root):
    """The benchmark must refuse to run without the program's sources."""
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_spec(bench)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                                 "--trace", str(trace)], round_trials=2)
            assert code == 0, (workload, trace, code)
            check_result(out.getvalue().strip().splitlines()[-1], declared[trace],
                         workload, trace)
            print(f"selftest: {workload} --trace {trace} ok", file=sys.stderr)
    check_bare_directory(run.ROOT)
    print("selftest: bare directory refused ok", file=sys.stderr)
    print("selftest OK")


if __name__ == "__main__":
    main()
