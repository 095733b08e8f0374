#!/usr/bin/env python3
"""Run the benchmark once per seed on every workload, as the driver does,
and print each end-to-end metric's spread: the distance between the first
and third quartile of its values (statistics.quantiles, n=4) as a share of
their median, next to the metric's bound. Every run's raw output is kept.

usage: python3 benchmark/spread.py <out-dir> [seeds, default 10] [first seed, default 1]
Run from the repository root.
"""
import json, os, statistics, subprocess, sys, time

out_dir = sys.argv[1]
seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 10
first = int(sys.argv[3]) if len(sys.argv) > 3 else 1
spec = json.load(open("BENCHMARK.json"))
os.makedirs(out_dir, exist_ok=True)


def run(workload, seed, trace):
    args = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    done = subprocess.run(args, capture_output=True, text=True)
    wall = time.time() - t0
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.txt")
    with open(path, "w") as f:
        f.write(done.stdout)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited with {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(args)}: {result['failed']} of {result['attempted']} operations failed")
    return result["metrics"], wall


rows = []
for w in spec["workloads"]:
    name = w["name"]
    runs = [run(name, first + i, 0) for i in range(seeds)]
    _, traced_wall = run(name, first, 1)
    longest = max(wall for _, wall in runs)
    for m in spec["end_to_end"]:
        values = [metrics[m["name"]]["value"] for metrics, _ in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        rows.append((name, m["name"], median, (q3 - q1) / median, m["bound"]))
    print(f"# {name}: longest untraced run {longest:.1f} s, traced run {traced_wall:.1f} s", flush=True)

print(f"{'workload':14} {'metric':18} {'median':>14} {'spread':>8} {'bound':>6}  spread/bound")
for workload, metric, median, spread, bound in rows:
    flag = "" if metric == "setup_s" or spread * 3 <= bound else "  <-- above a third of the bound"
    print(f"{workload:14} {metric:18} {median:14.6g} {spread:8.4f} {bound:6.2f}  {spread / bound:5.2f}{flag}")
json.dump([dict(workload=r[0], metric=r[1], median=r[2], spread=r[3], bound=r[4]) for r in rows],
          open(os.path.join(out_dir, "spread.json"), "w"), indent=1)
