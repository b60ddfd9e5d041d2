"""One benchmark worker: a fresh process that sets up and runs one workload.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread count fixed in the environment.  It prints one JSON object
on its last stdout line.

Set-up is timed from the top of this file: importing ``gptforge`` (with
numpy and scipy), generating the inputs, and running one op of each kind
cold.  After that, and outside any timing, the reference answers are
computed.  The measured phase then runs whole passes over the workload's
ops, one op after another (a closed loop with one client), until the time
is used up.  With ``--trace 1`` every second pass runs with the span
wrappers installed and the passes in between run without them, so the
tracing overhead is measured in the same process.  Last, untimed and
untraced, the workload's known-defect probe runs once.

Op times are reported in reference-CPU time.  On a shared virtual machine
the speed of one core drifts by 15-40 % over seconds to minutes, in CPU time
as well as wall time.  A fixed probe is timed between ops, at least every
CAL_EVERY_S seconds, and each op's time is scaled by REFERENCE_PROBE_MS
over the mean of the probes just before and just after it.  The set-up
time is scaled the same way, by REFERENCE_LOOP_MS over the mean of a
pure-Python loop timed just before it starts and just after it ends: the
probe's numpy half cannot run before numpy is imported, and that import is
part of set-up.
"""

import time

REFERENCE_LOOP_MS = 8.0  # loop_ms() on the reference CPU


def loop_ms():
    """A fixed pure-Python loop, in ms: the interpreter half of the probe."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return 1e3 * (time.perf_counter() - t0)


LOOP_BEFORE_MS = min(loop_ms() for _ in range(3))
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import gptforge  # noqa: E402,F401  (timed as part of set-up)
import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_TIMED_OPS = 100  # p90 needs at least ten samples above it
REFERENCE_PROBE_MS = 8.0  # the probe's time on the reference CPU
CAL_EVERY_S = 0.25
_PROBE_RNG = np.random.default_rng(0)
PROBE_U = (_PROBE_RNG.standard_normal((300, 3, 3))
           + 1j * _PROBE_RNG.standard_normal((300, 3, 3)))
PROBE_T = _PROBE_RNG.standard_normal((8, 3, 3)) + 0j


def probe_ms():
    """The CPU-speed probe, in ms.

    The geometric mean of a fixed pure-Python loop and a fixed batch of
    small numpy kernels (QR and an einsum, as in Haar sampling): when the
    machine is busy, interpreter-bound and numpy-bound ops slow down by
    different amounts, and the mean of the two tracks both kinds.
    """
    loop = loop_ms()
    t0 = time.perf_counter()
    for _ in range(3):
        q, _ = np.linalg.qr(PROBE_U)
        np.einsum("nij,ajk,nlk->nail", q, PROBE_T, q.conj())
    return (loop * 1e3 * (time.perf_counter() - t0)) ** 0.5


class CpuClock:
    """Speed probes taken between ops, to convert times to reference time."""

    def __init__(self):
        self.samples = [probe_ms()]
        self.last = time.perf_counter()

    def tick(self):
        """Probe if the last probe is stale; return the latest probe's index."""
        if time.perf_counter() - self.last > CAL_EVERY_S:
            self.samples.append(probe_ms())
            self.last = time.perf_counter()
        return len(self.samples) - 1

    def close(self):
        self.samples.append(probe_ms())

    def scale(self, i):
        """Measured-to-reference factor for an op run right after probe i."""
        return 2.0 * REFERENCE_PROBE_MS / (self.samples[i] + self.samples[i + 1])


def run_op(op, tracer=None, op_id=None):
    """Run one op; return (status, seconds, result).

    status is "ok", "refused" (a documented error or a nonzero CLI exit
    code) or "error" (any other exception).
    """
    if tracer is not None:
        tracer.start_op(op_id, op.kind)
    t0 = time.perf_counter()
    try:
        result = op.run()
        status = "ok"
    except (workloads.Refused,) + workloads.DOCUMENTED_ERRORS as exc:
        result, status = f"{type(exc).__name__}: {exc}", "refused"
    except Exception:  # a defect; reported, and the run goes on
        result, status = traceback.format_exc(limit=4), "error"
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
    return status, dt, result


class Outcomes:
    """Failure accounting and output checks across all runs of all ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = []  # messages that make the run incorrect
        self.failures = {}  # "kind label" -> first failure message
        self.first = {}  # op -> encoded first outcome

    def record(self, op, status, result):
        self.attempted += 1
        if status == "ok":
            encoded = op.encode(result)
            msg = op.check(result)
            if msg:
                self.incorrect.append(f"{op.kind} {op.label}: {msg}")
        else:
            encoded = f"{status}: {str(result).splitlines()[-1]}"
            msg = encoded
            self.incorrect.append(f"{op.kind} {op.label}: {result}")
        if op not in self.first:
            self.first[op] = encoded
        elif self.first[op] != encoded:
            msg = "output differs from the op's first run"
            self.incorrect.append(f"{op.kind} {op.label}: {msg}")
        if msg:
            self.failed += 1
            self.failures.setdefault(f"{op.kind} {op.label}", msg)
        return not msg


def run_probe(ops, outcomes):
    """Run the known-defect probe once; return how many ops hit the defect.

    A probe op may be refused with its ``tolerated`` message, which is the
    defect being counted.  Any other refusal or error, or a failed check of
    an op that completes, makes the run incorrect.  Probe ops are not
    workload ops: they count in neither ``attempted`` nor ``failed``.
    """
    hits = 0
    for op in ops:
        status, _, result = run_op(op)
        if status == "refused" and result.startswith(op.tolerated):
            hits += 1
            continue
        msg = op.check(result) if status == "ok" else result
        if msg:
            outcomes.incorrect.append(f"probe {op.kind} {op.label}: {msg}")
    return hits


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def blas_facts():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps.get(k) for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    threads = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return blas, threads


def measure(wl, outcomes, seconds, tracer, clock):
    """Run whole passes until ``seconds`` are used; return pass records.

    A record holds (op, seconds, probe index, completed) per op.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        timings = []
        for k, op in enumerate(wl.ops):
            probe = clock.tick()
            status, dt, result = run_op(op, tracer if traced else None,
                                        (index, k))
            ok = outcomes.record(op, status, result)
            timings.append((op, dt, probe, ok))
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "timings": timings})
        elapsed = time.perf_counter() - t0
        timed_ops = sum(ok for p in passes if not p["traced"]
                        for *_, ok in p["timings"])
        enough = timed_ops >= MIN_TIMED_OPS or elapsed > 4 * seconds
        if tracer is not None:
            enough = enough and len(passes) >= 2
        # stop at the pass boundary nearest to ``seconds``
        if enough and elapsed * (len(passes) + 0.5) / len(passes) > seconds:
            clock.close()
            return passes, elapsed


def rates(passes, clock):
    """ops/s and completed-op latencies (s), in reference-CPU time."""
    busy = sum(dt * clock.scale(i)
               for p in passes for _, dt, i, _ in p["timings"])
    lat = [(op, dt * clock.scale(i)) for p in passes
           for op, dt, i, ok in p["timings"] if ok]
    return (len(lat) / busy if busy else 0.0), lat


def summarize(passes, clock):
    untraced = [p for p in passes if not p["traced"]]
    rate, lat = rates(untraced, clock)
    values = [dt for _, dt in lat]
    out = {
        "timed_ops": len(lat),
        "timed_passes": len(untraced),
        "ops_per_s": rate,
        "latency_p50_ms": 1e3 * percentile(values, 50) if values else 0.0,
        "latency_p90_ms": 1e3 * percentile(values, 90) if values else 0.0,
    }
    per_kind, per_op = {}, {}
    for op, dt in lat:
        per_kind.setdefault(op.kind, []).append(dt)
        per_op.setdefault(f"{op.kind} {op.label}", []).append(dt)
    total = sum(dt for _, dt in lat)
    out["per_kind"] = {
        kind: {"ops": len(v), "share_of_time": sum(v) / total,
               "median_ms": 1e3 * percentile(v, 50)}
        for kind, v in sorted(per_kind.items())
    }
    out["per_op_median_ms"] = {
        name: 1e3 * percentile(v, 50) for name, v in per_op.items()}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True,
                        help="directory for generated input files")
    parser.add_argument("--spans", help="write the trace spans here")
    args = parser.parse_args()

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # the cold ops record the first calls
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=args.workdir)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        cold = [(op, run_op(op, tracer, ("setup", k)))
                for k, op in enumerate(wl.cold)]
        setup_raw = time.perf_counter() - T_START
        loops = [LOOP_BEFORE_MS, min(loop_ms() for _ in range(3))]
        setup = {"setup_s": setup_raw * REFERENCE_LOOP_MS
                 / statistics.mean(loops), "setup_loop_ms": loops}
        if tracer is not None:
            tracer.uninstall()
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        wl.prepare()
        outcomes = Outcomes()
        for op, (status, _, result) in cold:
            outcomes.record(op, status, result)
        clock = CpuClock()
        cpu0 = time.process_time()
        passes, elapsed = measure(wl, outcomes, args.seconds, tracer, clock)
        cpu_s = time.process_time() - cpu0
        probe_hits = run_probe(wl.probe, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    blas, threads = blas_facts()
    import scipy
    result = dict(setup)
    result.update(summarize(passes, clock))
    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "incorrect": outcomes.incorrect[:20],
        "n_incorrect": len(outcomes.incorrect),
        "failures": outcomes.failures,
        "known_defect_probe": {"ops": len(wl.probe), "hits": probe_hits},
        "measured_s": elapsed,
        "cpu_s": cpu_s,
        "passes": len(passes),
        "ops_per_pass": len(wl.ops),
        "facts": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "os_threads_after_run": threads,
            "reference_probe_ms": REFERENCE_PROBE_MS,
            "probe_ms": {
                "count": len(clock.samples),
                "min": min(clock.samples),
                "median": statistics.median(clock.samples),
                "max": max(clock.samples),
            },
        },
    })
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        traced_ops = {(i, k) for i, p in enumerate(passes) if p["traced"]
                      for k in range(len(p["timings"]))}
        layer, gap = spans.summarize(tracer.spans, traced_ops, len(traced))
        traced_rate, _ = rates(traced, clock)
        untraced_rate = result["ops_per_s"]
        layer["compact_rep.invariant_projector.cold_s"] = (
            spans.first_call_s(tracer.spans, "compact_rep.invariant_projector"),
            "s")
        layer["numerics.lp_solve.near_equal_refusal_ratio"] = (
            probe_hits / len(wl.probe) if wl.probe else 0.0, "ratio")
        layer["trace.overhead_ratio"] = (
            traced_rate / untraced_rate if untraced_rate else 0.0, "ratio")
        result["layers"] = layer
        result["trace_self_time_gap_s"] = gap
        result["trace_missing_functions"] = tracer.missing
        if args.spans:
            with open(args.spans, "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
