#!/usr/bin/env python3
"""Runs sets of benchmark runs and writes their summary as JSON.

    python3 .perfbench/sets.py --sets A,B --seeds 10 --out .perfbench/baseline.json

Run it from the checkout root. For each set in turn, every workload runs
untraced once per seed, then traced once. The k-th set (k = 1, 2, ...) uses
the seeds 100*k+1 .. 100*k+N, and its traced runs use seed k. Each run's
standard output goes to .bench_build/sets/<set>/<workload>-<seed>[-traced].out;
a run whose output is already there is not repeated, so an interrupted pass
resumes where it stopped.

The summary holds, per set and workload: every run's end-to-end values, their
median and quartiles as statistics.quantiles(n=4) gives them, the
interquartile range over the median next to the metric's bound, the attempted
and failed calls, and the traced run's per-layer values. For each set after
the first it gives the change of every median against the first set's, and
whether the traced counts equal the first set's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD = ".bench_build/sets"
# Counts a traced run must repeat exactly.
COUNTS = ["vmprog.states", "vmprog.transitions", "por.ample_steps", "adversary.events", "adversary.erased"]


def run(bench, set_name, workload, seed, trace):
    path = os.path.join(BUILD, set_name, f"{workload}-{seed}{'-traced' if trace else ''}.out")
    if not os.path.exists(path):
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if p.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            f.write(p.stdout)
        os.replace(path + ".tmp", path)
    lines = open(path).read().strip().splitlines()
    host = next(json.loads(l[len("host "):]) for l in lines if l.startswith("host "))
    res = json.loads(lines[-1])
    print(f"{set_name} {workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()) if trace == 0 or k in COUNTS),
          flush=True)
    return host, res


def exact(v):
    return int(v) if float(v).is_integer() else v


def summary(xs, bound):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return {"values": xs, "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med, "bound": bound}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", default="A,B", help="comma-separated set names, run in this order")
    ap.add_argument("--seeds", type=int, default=10, help="untraced runs per workload and set")
    ap.add_argument("--workloads", default="", help="comma-separated workloads (default: all)")
    ap.add_argument("--out", default="", help="summary file (default: standard output)")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = []
    for k, name in enumerate(args.sets.split(","), start=1):
        hosts, per = [], {}
        for w in workloads:
            runs = [run(bench, name, w, 100 * k + i, 0) for i in range(1, args.seeds + 1)]
            th, tr = run(bench, name, w, k, 1)
            for h, _ in runs + [(th, tr)]:
                if h not in hosts:
                    hosts.append(h)
            e2e = {m: summary([r["metrics"][m]["value"] for _, r in runs], bounds[m]) for m in bounds}
            per[w] = {
                "attempted": sum(r["attempted"] for _, r in runs),
                "failed": sum(r["failed"] for _, r in runs),
                "correct": all(r["correct"] for _, r in runs),
                "end_to_end": e2e,
                "traced": {"seed": k, "attempted": tr["attempted"], "failed": tr["failed"], "correct": tr["correct"],
                           "metrics": {m: exact(v["value"]) for m, v in sorted(tr["metrics"].items())}},
            }
        sets.append({"set": name, "seeds": [100 * k + i for i in range(1, args.seeds + 1)],
                     "hosts": hosts, "workloads": per})

    first = sets[0]["workloads"]
    for s in sets[1:]:
        s["against_first"] = {
            w: {"median_change": {m: d["end_to_end"][m]["median"] / first[w]["end_to_end"][m]["median"] - 1
                                  for m in bounds},
                "counts_equal": all(d["traced"]["metrics"][c] == first[w]["traced"]["metrics"][c] for c in COUNTS)}
            for w, d in s["workloads"].items()}
    doc = {
        "about": "Written by .perfbench/sets.py: sets of runs of the benchmark, one after the other. Per run the "
                 "benchmark reports the median over its calls of result_s and cpu_s, the smallest peak_rss_mb, and "
                 "the lower quartile of its set-ups for setup_s. Per set and workload: each run's values, their "
                 "median and quartiles as statistics.quantiles(n=4) gives them, and one traced run. hosts holds "
                 "the provenance every run printed; source_sha256 identifies the measured sources.",
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "sets": sets,
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
