#!/usr/bin/env python3
"""Acceptance runs for the benchmark defined in BENCHMARK.json.

Runs the benchmark command once per seed on every workload (ten seeds
by default), and reports, for each end-to-end metric, the distance
between the first and third quartile of its values as a share of their
median. A spread under a third of the metric's bound is steady; one
above the bound fails. With --compare, also checks that each median is
no worse than the earlier set's by more than the bound. One --trace 1
run per workload records the per-layer metrics alongside.

Run from the repository root:

    python3 perfbench/spread.py --out perfbench/baseline/set1.json
    python3 perfbench/spread.py --first-seed 101 --out perfbench/baseline/set2.json \\
        --compare perfbench/baseline/set1.json

Exits non-zero if a run fails, a spread exceeds its bound, or a
compared median regresses beyond its bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def host_cpu():
    """Cumulative (steal, total) ticks from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_pct(before, after):
    """Share of host CPU time stolen between two readings, or None."""
    if not before or not after or after[1] <= before[1]:
        return None
    return round(100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)


def run_once(spec, workload, seed, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    before = host_cpu()
    proc = subprocess.run(spec["command"] + args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    steal = steal_pct(before, host_cpu())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed checks")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "wall_s": round(wall, 2), "host_steal_pct": steal,
            "attempted": result["attempted"], "metrics": values}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def worse_share(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if metric["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    parser.add_argument("--out", help="write the run set as JSON here")
    parser.add_argument("--compare", help="an earlier run set to compare medians against")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if opts.workload:
        workloads = [w for w in workloads if w in opts.workload]
    seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))

    steal_before = host_cpu()
    started = time.monotonic()
    report = {"workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = run_once(spec, workload, seed, 0)
            runs.append(run)
            print(f"{workload} seed {seed}: {run['wall_s']} s, steal {run['host_steal_pct']}% "
                  + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
        spreads = {}
        for name, metric in bounds.items():
            s = spread([r["metrics"][name] for r in runs])
            bound = metric["bound"]
            s["bound"] = bound
            s["steady"] = s["spread"] is not None and s["spread"] < bound / 3
            # setup_s is judged by its median alone, not by its spread.
            s["within_bound"] = name == "setup_s" or (s["spread"] is not None and s["spread"] <= bound)
            ok &= s["within_bound"]
            spreads[name] = s
            print(f"  {name:<18} median {s['median']:<12.5g} spread {s['spread']:.4f} "
                  f"(bound {bound}, {'steady' if s['steady'] else 'NOT steady'}"
                  f"{'' if s['within_bound'] else ', OVER BOUND'})", flush=True)
        traced = run_once(spec, workload, seeds[0], 1)
        report["workloads"][workload] = {"runs": runs, "spread": spreads, "trace": traced}

    report["machine"] = {
        "logical_cores": os.cpu_count(),
        "host_steal_pct": steal_pct(steal_before, host_cpu()),
        "cargo_profile": "release",
        "kernel": platform.release(),
        "run_seconds": spec["run_seconds"],
        "set_wall_s": round(time.monotonic() - started, 1),
    }
    report["seeds"] = seeds

    if opts.compare:
        with open(opts.compare) as f:
            earlier = json.load(f)
        report["compared_with"] = os.path.basename(opts.compare)
        for workload, data in report["workloads"].items():
            before = earlier["workloads"].get(workload)
            if before is None:
                continue
            for name, metric in bounds.items():
                old = before["spread"][name]["median"]
                new = data["spread"][name]["median"]
                worse = worse_share(metric, old, new)
                data["spread"][name]["worse_than_compared"] = worse
                fine = worse <= metric["bound"]
                ok &= fine
                print(f"{workload} {name}: median {old:.5g} -> {new:.5g} "
                      f"({100 * worse:+.1f}% worse, bound {100 * metric['bound']:.0f}%)"
                      f"{'' if fine else ' REGRESSED'}")

    print(json.dumps(report["machine"]))
    if opts.out:
        os.makedirs(os.path.dirname(opts.out) or ".", exist_ok=True)
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if not ok:
        raise SystemExit("acceptance check failed")


if __name__ == "__main__":
    main()
