#!/usr/bin/env python3
"""Runs the end-to-end benchmark's acceptance protocol and writes a record.

    python3 bench/e2e/acceptance.py [--sets 2] [--seeds 10] [--out FILE]

Each set runs every workload of BENCHMARK.json once per seed (seeds
1..N, seed-major, so slow phases of a shared host spread over all
workloads), untraced. For every (end-to-end metric, workload) pair it
reports the median, the quartiles from statistics.quantiles(n=4) and the
spread (q3 - q1) / median of each set, and compares them with the
metric's bound:

- spread: every set's spread is within the bound (setup_s is exempt: its
  bound guards against work moving into set-up, not against noise);
- worse: the second set's median is not worse than the first's by more
  than the bound, in the metric's own direction;
- agree: the two medians differ by at most the bound either way,
  |b - a| / min(a, b).

It also prints the bound the observations call for: at least 10%, at
least the difference between the sets, and (setup_s aside) at least three
times the widest spread, each rounded up to the next 5%. README "Bounds
and the record" says how BENCHMARK.json follows it. One traced run per
workload (seed 1) adds the per-layer metrics and the machine block. The
exit code is non-zero when a run failed or any check did not hold.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    result["exit_code"] = proc.returncode
    result["wall_s"] = round(wall, 3)
    result["seed"] = seed
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(ROOT, "bench/e2e/records/seed.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    sets = []
    for set_index in range(args.sets):
        runs = {w: [] for w in workloads}
        for seed in range(1, args.seeds + 1):
            for w in workloads:
                r = run(spec, w, seed, trace=False)
                runs[w].append(r)
                ok &= r["exit_code"] == 0 and r["correct"] and r["failed"] == 0
                print(f"set {set_index + 1} seed {seed:2d} {w:10s} {r['wall_s']:6.1f} s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                      flush=True)
        summary = {w: {m: summarize([r["metrics"][m]["value"] for r in runs[w]
                                     if m in r["metrics"]])
                       for m in metrics} for w in workloads}
        sets.append({"runs": runs, "summary": summary})

    checks = []
    for w in workloads:
        for m, decl in metrics.items():
            bound = decl["bound"]
            spreads = [s["summary"][w][m]["spread"] for s in sets]
            row = {"workload": w, "metric": m, "bound": bound, "spreads": spreads,
                   "spread_ok": m == "setup_s" or max(spreads) <= bound}
            needed = [0.10] if m == "setup_s" else [0.10, 3 * max(spreads)]
            if len(sets) > 1:
                first = sets[0]["summary"][w][m]["median"]
                second = sets[1]["summary"][w][m]["median"]
                change = (second - first) / first
                row["worse"] = change if decl["better"] == "lower" else -change
                row["difference"] = abs(second - first) / min(first, second)
                row["worse_ok"] = row["worse"] <= bound
                row["agree"] = row["difference"] <= bound
                needed.append(row["difference"])
            row["bound_needed"] = math.ceil(max(needed) * 20 - 1e-9) / 20
            row["ok"] = row["spread_ok"] and row.get("worse_ok", True) and row.get("agree", True)
            ok &= row["ok"]
            checks.append(row)
            print(f"{w:10s} {m:20s} spread {' '.join(f'{s:.3f}' for s in spreads)}"
                  f"  worse {row.get('worse', 0):+.3f}  differ {row.get('difference', 0):.3f}"
                  f"  bound {bound} (needed {row['bound_needed']:.2f})"
                  f"  {'ok' if row['ok'] else 'FAILED'}", flush=True)

    traced = {}
    traced_wall_s = {}
    machine = {}
    for w in workloads:
        r = run(spec, w, 1, trace=True)
        ok &= r["exit_code"] == 0 and r["correct"]
        traced_wall_s[w] = r["wall_s"]
        traced[w] = {k: v["value"] for k, v in r["metrics"].items()}
        layers = os.path.join(ROOT, ".bench_build/e2e/trace", w, "layers.json")
        if os.path.exists(layers):
            with open(layers) as f:
                data = json.load(f)
            machine = data["machine"]
            traced[w] = {k: v["value"] for k, v in data["metrics"].items()}

    record = {"schema": "an5d-e2e-record-v2",
              "run_seconds": spec["run_seconds"],
              "seeds": args.seeds,
              "machine": machine,
              "checks": checks,
              "sets": sets,
              "traced": traced,
              "traced_wall_s": traced_wall_s}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(("all checks passed" if ok else "SOME CHECKS FAILED") + f"; record in {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
