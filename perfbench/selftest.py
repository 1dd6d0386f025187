#!/usr/bin/env python3
"""The benchmark's own tests.

Usage (from the repository root):

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed (names, units, bounds, the
`setup_s` metric), that its workloads are the ones `run.py` accepts, and
runs every workload once at minimal length with tracing off (golden seed)
and on (another seed), asserting that each run is correct and emits
exactly the declared metrics with the declared units. Finally checks that
the benchmark refuses to run, without a result line, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)
        print(f"FAIL: {msg}")


def check_spec(bench):
    check(sorted(bench) == ["command", "end_to_end", "paths", "per_layer", "run_seconds",
                            "workloads"], "BENCHMARK.json keys")
    check(1 <= bench["run_seconds"] <= 60 and isinstance(bench["run_seconds"], int),
          "run_seconds is a whole number in 1..60")
    check(2 <= len(bench["workloads"]) <= 8, "2..8 workloads")
    check(1 <= len(bench["end_to_end"]) <= 16, "1..16 end-to-end metrics")
    check(1 <= len(bench["per_layer"]) <= 128, "1..128 per-layer metrics")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "names are used once")
    for n in names:
        check(NAME.match(n) is not None, f"name {n!r} is valid")
    for w in bench["workloads"]:
        check(sorted(w) == ["name", "why"], f"workload {w['name']} keys")
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w['name']} why")
    for m in bench["end_to_end"]:
        check(sorted(m) == ["better", "bound", "name", "unit"], f"{m['name']} keys")
        check(0 < m["bound"] <= 0.25, f"{m['name']} bound in (0, 0.25]")
    for m in bench["per_layer"]:
        check(sorted(m) == ["better", "name", "unit"], f"{m['name']} keys")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, f"{m['name']} unit {m['unit']!r}")
        check(m["better"] in ("lower", "higher"), f"{m['name']} better")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is declared in s, lower is better")
    check(setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s has the largest bound")
    for p in bench["paths"]:
        check(re.match(r"^[A-Za-z0-9_./-]{1,200}$", p) and ".." not in p, f"path {p!r}")


def run(workload, seed, trace, cwd="."):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=900,
    )


def check_run(bench, workload, seed, trace):
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    r = run(workload, seed, trace)
    tag = f"{workload} seed {seed} trace {trace}"
    check(r.returncode == 0, f"{tag}: exit code {r.returncode}\n{r.stderr[-2000:]}")
    if r.returncode != 0:
        return
    result = json.loads(r.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{tag}: keys")
    check(result["correct"] is True and result["failed"] == 0, f"{tag}: correct run")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag}: attempted")
    got = result["metrics"]
    check(sorted(got) == sorted(m["name"] for m in declared), f"{tag}: emitted metric names")
    for m in declared:
        v = got.get(m["name"], {})
        check(v.get("unit") == m["unit"], f"{tag}: unit of {m['name']}")
        check(isinstance(v.get("value"), (int, float)), f"{tag}: value of {m['name']}")
        if not trace:
            check(v.get("value", 0) > 0, f"{tag}: {m['name']} is never 0")
    print(f"ok   {tag} ({result['attempted']} attempted)")


def check_bare_directory():
    bare = os.path.join(".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    r = run("fig3_quick", 1, 0, cwd=bare)
    last = r.stdout.strip().splitlines()[-1:] if r.stdout.strip() else []
    check(r.returncode != 0, "refuses to run without the repository sources")
    check(not any(line.startswith('{"correct"') for line in last), "bare run prints no result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare directory refused")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    check_spec(bench)
    run_py = open("perfbench/run.py").read()
    declared = re.search(r"WORKLOADS = \[(.*?)\]", run_py).group(1)
    accepted = re.findall(r'"([^"]+)"', declared)
    check(accepted == [w["name"] for w in bench["workloads"]], "run.py accepts the declared workloads")
    bad = run("no_such_workload", 1, 0)
    check(bad.returncode != 0, "unknown workload is refused")
    for w in bench["workloads"]:
        check_run(bench, w["name"], 42, 0)
        check_run(bench, w["name"], 3, 1)
    check_bare_directory()
    if FAILURES:
        sys.exit(f"{len(FAILURES)} check(s) failed")
    print("all checks passed")


if __name__ == "__main__":
    main()
