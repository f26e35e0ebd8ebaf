#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through run.py with --tiny, once
with --trace 0 and once with --trace 1, and checks that the run exits 0,
that its correctness checks passed, and that the last line of stdout
names exactly the metrics BENCHMARK.json lists for that mode, each with
its unit and a finite value. Exits nonzero on the first failure.
"""
import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check_run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{label}: result keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return f"{label}: correct={result['correct']} " \
               f"attempted={result['attempted']}"
    want = spec["per_layer"] if trace else spec["end_to_end"]
    want_units = {m["name"]: m["unit"] for m in want}
    got = result["metrics"]
    if set(got) != set(want_units):
        return (f"{label}: missing {sorted(set(want_units) - set(got))}, "
                f"unexpected {sorted(set(got) - set(want_units))}")
    for name, unit in want_units.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            return f"{label}: {name} unit {got[name]['unit']} != {unit}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{label}: {name} value {value!r}"
    if not any(line.startswith("provenance ") for line in lines):
        return f"{label}: no provenance line"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            err = check_run(spec, workload, trace)
            print(f"{'FAIL' if err else 'ok  '} {workload} --trace {trace}")
            if err:
                print(err)
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
