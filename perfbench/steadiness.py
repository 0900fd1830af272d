#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] \
        [--seconds 30] [--json runs.json]
    python3 perfbench/steadiness.py --compare first.json second.json

Run from the repository root. For every workload in BENCHMARK.json (or the
--workloads subset) it runs `perfbench/run.py` once per seed and prints a
Markdown table of each end-to-end metric with its median, first and third
quartiles (Python's statistics.quantiles(n=4)), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json, plus the
host's steal time over the set. A run that fails, or reports a failed
operation, is listed and counted. --json writes every run's result, so the
table can be checked and compared later.

--compare reads two such files, prints both tables again and then how far
the second set's median of each metric is worse than the first's.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def cpu_times():
    """user..steal jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:9]]


def summary(runs, name):
    values = [r["metrics"][name]["value"] for r in runs if r is not None]
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def print_table(record, bounds):
    steal = record.get("steal")
    steal = "not recorded" if steal is None else f"{100 * steal:.1f}%"
    print(f"Seeds {record['seeds'][0]}-{record['seeds'][-1]}, "
          f"{record['seconds']} s per run, steal time {steal}.\n")
    print("| workload | metric | median | q1 | q3 | spread | bound | "
          "spread / bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, runs in record["runs"].items():
        good = [r for r in runs if r is not None]
        failed = sum(r["failed"] for r in good)
        for name, bound in bounds.items():
            s = summary(runs, name)
            if s is None:
                continue
            med, q1, q3, spread = s
            print(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | "
                  f"{q3:.6g} | {spread:.3f} | {bound} | "
                  f"{spread / bound:.2f} |")
        print(f"| {workload} | runs failed / ops failed | "
              f"{len(runs) - len(good)} / {failed} | | | | | |")
    print()


def compare(first, second, bounds, better):
    print("| workload | metric | median, first | median, second | "
          "second worse by | bound |")
    print("|---|---|---|---|---|---|")
    for workload, runs in first["runs"].items():
        for name, bound in bounds.items():
            a = summary(runs, name)
            b = summary(second["runs"].get(workload, []), name)
            if a is None or b is None:
                continue
            sign = 1 if better[name] == "lower" else -1
            worse = sign * (b[0] - a[0]) / a[0]
            print(f"| {workload} | {name} | {a[0]:.6g} | {b[0]:.6g} | "
                  f"{worse:+.3f} | {bound} |")


def measure(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    seeds = seed_list(args.seeds)
    runs = {}
    before = cpu_times()
    for workload in workloads:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})", file=sys.stderr)
                runs.setdefault(workload, []).append(None)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr, flush=True)
    after = cpu_times()
    delta = [b - a for a, b in zip(before, after)]
    return {"seeds": seeds, "seconds": seconds,
            "steal": delta[7] / max(1, sum(delta)), "runs": runs}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="0 = BENCHMARK.json's run_seconds")
    parser.add_argument("--json", default="",
                        help="write every run's result to this file")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    if args.compare:
        records = []
        for path in args.compare:
            with open(path) as f:
                records.append(json.load(f))
        for record in records:
            print_table(record, bounds)
        compare(records[0], records[1], bounds, better)
        return

    record = measure(args, spec)
    print_table(record, bounds)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
