"""Benchmark entry point: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload exact --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout: the program is imported from
``./src``.  It starts fresh worker processes (see ``worker.py``), checks
every output, and prints the metrics as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  A fuller record with the machine
facts goes to ``benchmarks/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("exact", "orbits", "distances")
BLAS_THREADS = "1"  # fixed, so both commits of a comparison run alike
EXTRA_SETUPS = 6  # set-up is timed in 1 + EXTRA_SETUPS fresh processes
DEADLINE_S = 170.0


def source_facts(root):
    """Commit id (when the checkout is a git tree) and a digest of src/."""
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return commit, digest.hexdigest()


def worker(args, root, extra, timeout):
    env = dict(os.environ)
    env.pop("GPTFORGE_SEED", None)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    })
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", OUT] + extra
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gptforge", "__init__.py")):
        sys.stderr.write("error: run from a gptforge checkout; "
                         "src/gptforge is missing here\n")
        return 2
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + DEADLINE_S

    extra = ["--spans", os.path.join(OUT, stem + ".spans.jsonl")] \
        if args.trace else []
    res = worker(args, root, extra, timeout=DEADLINE_S - 10.0)
    setups = [res["setup_s"]]
    if not args.trace:
        for _ in range(EXTRA_SETUPS):
            left = deadline - time.monotonic()
            extra_setup = worker(args, root, ["--setup-only"], timeout=left)
            setups.append(extra_setup["setup_s"])

    if args.trace:
        wanted = spec["per_layer"]
        values = {name: v for name, (v, _) in res["layers"].items()}
    else:
        wanted = spec["end_to_end"]
        values = {name: res[name] for name in
                  ("ops_per_s", "latency_p50_ms", "latency_p90_ms",
                   "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    commit, src_digest = source_facts(root)
    res["facts"].update({
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "loadavg": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": src_digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    })
    res["setup_s_samples"] = setups
    res["fail_rate"] = res["failed"] / res["attempted"]
    res["metrics"] = metrics
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)

    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {args.workload} timed_ops = {res['timed_ops']} "
          f"in {res['timed_passes']} passes; attempted = {res['attempted']}, "
          f"failed = {res['failed']} (fail_rate {res['fail_rate']:.4f})")
    probe = res["known_defect_probe"]
    if probe["ops"]:
        print(f"# {args.workload} known-defect probe: {probe['hits']} of "
              f"{probe['ops']} near-equal hexagon triples exit 4")
    for msg in res["incorrect"]:
        print(f"# incorrect: {msg}")
    print(json.dumps({
        "correct": res["n_incorrect"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
