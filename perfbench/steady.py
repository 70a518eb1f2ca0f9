"""Steadiness mode: repeat each workload with a new seed per run and print
each end-to-end metric's median, quartiles and spread (quartile distance
over median) next to its bound from BENCHMARK.json.

    python3 perfbench/steady.py [--first-seed 1] [--save out/b.json]
        [--against out/a.json]

Every workload in BENCHMARK.json runs ten times.  With --against, each
median is also compared with the median of an earlier saved set of the
same code; `ok` means the two medians differ by at most the bound, either
way.  Runs are sequential: one benchmark process at a time.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=600)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", help="write the raw runs as JSON")
    p.add_argument("--against", help="an earlier --save file to compare")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    before = {}
    if args.against:
        with open(args.against) as fh:
            before = json.load(fh)
    runs = {}
    for w in [x["name"] for x in bench["workloads"]]:
        runs[w] = [run_once(w, args.first_seed + i, bench["run_seconds"])
                   for i in range(RUNS)]
        shares = {(r["failed"], r["attempted"]) for r in runs[w]}
        print("%s: %d runs, correct %s, failed/attempted %s" % (
            w, len(runs[w]), all(r["correct"] for r in runs[w]),
            sorted(shares)))
        print("  %-12s %10s %10s %10s %7s %6s %s" % (
            "metric", "median", "q1", "q3", "spread", "bound",
            "vs earlier" if before else ""))
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs[w]])
            line = "  %-12s %10.4f %10.4f %10.4f %7.3f %6.2f" % (
                name, s["median"], s["q1"], s["q3"], s["spread"], bound)
            if w in before:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in before[w])
                change = s["median"] / old - 1
                line += " %+7.3f %s" % (
                    change, "ok" if abs(change) <= bound else "MOVED")
            print(line, flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(runs, fh, indent=1)


if __name__ == "__main__":
    main()
