"""Run several workloads and print every metric by name, with its spread.

    python3 benchmarks/report.py                       # all workloads, 1 run
    python3 benchmarks/report.py --runs 10             # medians over 10 seeds
    python3 benchmarks/report.py --runs 10 --trace     # per-layer medians

Each run is one ``run.py`` call with seed ``--seed + i`` from the current
directory.  For each metric it prints the median and the quartiles over
the runs, and the interquartile range as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(int(trace))]
    if seconds:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"run failed:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(HERE, "out", stem)) as fh:
        detail = json.load(fh)
    return line, detail


def spread(values):
    """(median, q1, q3) with Python's default quartile method."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="exact,orbits,distances")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: run.py's)")
    parser.add_argument("--trace", action="store_true",
                        help="report the per-layer metrics instead")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = bench["per_layer" if args.trace else "end_to_end"]

    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in specs}
        ops, attempted, failed, hits, probed = [], 0, 0, 0, 0
        for i in range(args.runs):
            line, detail = one_run(workload, args.seed + i, args.seconds,
                                   args.trace)
            if not line["correct"]:
                print(f"# {workload} seed {args.seed + i}: "
                      f"INCORRECT {detail['incorrect'][:3]}")
            for name, m in line["metrics"].items():
                values[name].append(m["value"])
            ops.append(detail["timed_ops"])
            attempted += line["attempted"]
            failed += line["failed"]
            hits += detail["known_defect_probe"]["hits"]
            probed += detail["known_defect_probe"]["ops"]

        print(f"{workload}: {args.runs} runs, timed ops per run "
              f"{min(ops)}-{max(ops)}, fail_rate {failed / attempted:.4f} "
              f"({failed}/{attempted})")
        if probed:
            print(f"  known-defect probe: {hits} of {probed} near-equal "
                  f"hexagon triples exit 4")
        for m in specs:
            med, q1, q3 = spread(values[m["name"]])
            rel = f"{(q3 - q1) / abs(med):.3f}" if med else "-"
            print(f"  {m['name']:48s} {m['unit']:6s} {med:.6g} "
                  f"[{q1:.6g}, {q3:.6g}]  iqr/median {rel}")


if __name__ == "__main__":
    main()
