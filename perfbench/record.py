#!/usr/bin/env python3
"""Record one row of the benchmark trajectory, and report run-to-run spread.

    python3 perfbench/record.py --seeds 1-10 [--workloads a,b] \
        [--out perfbench/trajectory/<commit>.json] [--commit C]

Runs every workload of BENCHMARK.json once per seed with tracing off and once
(first seed) with tracing on, through run.py. For each end-to-end metric it
prints the median and the quartile spread (Q3 - Q1) / median, as
statistics.quantiles(values, n=4) gives the quartiles, and marks spreads that
exceed the metric's bound (!!) or a third of it (!). With --out it writes the
row: commit, nproc, seeds, run seconds, the host's steal time over each
workload's untraced runs (Linux /proc/stat), the input record of each
workload, the end-to-end medians and quartiles, and the traced run's
per-layer values.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().split("\n")
    if out.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit("record: %s seed %d failed" % (workload, seed))
    result = json.loads(lines[-1])
    inputs = next((json.loads(l[len("inputs: "):]) for l in lines
                   if l.startswith("inputs: ")), {})
    if not result["correct"]:
        print("record: %s seed %d: %d of %d operations failed" %
              (workload, seed, result["failed"], result["attempted"]))
    return result, inputs


def cpu_times():
    """The aggregate cpu line of /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None


def steal_percent(before, after):
    """Steal time as a share of all CPU time between two cpu_times()."""
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total else None


def commit_id(given):
    if given:
        return given
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sys.exit("record: not a git checkout; pass --commit")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", help="comma-separated subset")
    p.add_argument("--seconds", type=float,
                   help="override BENCHMARK.json run_seconds")
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--out")
    p.add_argument("--commit")
    a = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    seeds = parse_seeds(a.seeds)
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = [n for n in names if n in a.workloads.split(",")]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    row = {"commit": commit_id(a.commit) if a.out else a.commit,
           "nproc": os.cpu_count(), "machine": platform.machine(),
           "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        values, inputs = {}, []
        before = cpu_times()
        for seed in seeds:
            result, inp = run(name, seed, seconds, 0)
            inputs.append(inp)
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        steal = steal_percent(before, cpu_times())
        e2e = {}
        print("%s (%d seeds, host steal %s%%)" %
              (name, len(seeds), "?" if steal is None else "%.1f" % steal))
        for k, v in sorted(values.items()):
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (
                med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[k]["bound"]
            flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            print("  %-18s median %-12.6g spread %.4f (bound %.2f) %s" %
                  (k, med, spread, bound, flag))
            e2e[k] = {"unit": bounds[k]["unit"], "median": med, "q1": q1,
                      "q3": q3, "spread": spread, "values": v}
        entry = {"inputs": inputs, "end_to_end": e2e,
                 "host_steal_percent": steal}
        if not a.no_trace:
            traced, _ = run(name, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: m["value"]
                                  for k, m in traced["metrics"].items()}
        row["workloads"][name] = entry
    if a.out:
        with open(a.out, "w") as f:
            json.dump(row, f, indent=1, sort_keys=True)
            f.write("\n")
        print("record: wrote " + a.out)


if __name__ == "__main__":
    main()
