#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the per-layer predictions.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]

Runs run.py once per seed and workload, one run at a time, and prints for
every metric its median and its spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the bound BENCHMARK.json gives it. With --trace 1 it also
prints whether the per-layer predictions of perfbench/README.md held.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed\n{proc.stdout}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print("run", json.dumps({"workload": workload, "seed": seed, **values}),
          flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def predictions(medians):
    def get(w, m):
        return medians.get(w, {}).get(m)

    out = []
    works = {w: (get(w, "simkit.windows") or 0) > 0 and
             (get(w, "simkit.merge_pairs") or 0) > 0 for w in medians}
    out.append(("simkit.windows and simkit.merge_pairs do work only on "
                "hepnos_sharded",
                all(v == (w == "hepnos_sharded") for w, v in works.items())))
    per_req = {w: get(w, "sofi.rdma_bytes_per_req") for w in medians}
    out.append(("sofi.bytes_rdma per request is highest on mobject_rw",
                max(per_req, key=per_req.get) == "mobject_rw"))
    if "hepnos_ingest" in medians:
        parts = {m: get("hepnos_ingest", "symbiosys." + m) for m in
                 ("profile_summary_s", "trace_summary_s",
                  "sysstats_summary_s", "zipkin_s")}
        out.append(("symbiosys.trace_summary_s is the largest part of "
                    "analysis_s on hepnos_ingest",
                    max(parts, key=parts.get) == "trace_summary_s"))
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    medians = {}
    for workload in args.workloads.split(","):
        runs = [run_once(spec, workload, s, args.trace)
                for s in seeds_from(args.seeds)]
        medians[workload] = {}
        print(f"{workload} ({len(runs)} seeds)")
        for name in runs[0]:
            med, iqr = spread([r[name] for r in runs])
            medians[workload][name] = med
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound:.2f}"
            print(f"  {name:34s} median {med:<14.6g} spread {iqr:7.4f}{note}")
    if args.trace:
        for claim, held in predictions(medians):
            print(f"prediction {'held' if held else 'FAILED'}: {claim}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
