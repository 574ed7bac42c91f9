"""Certification benchmark for policypaths.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs one workload in a single-threaded closed loop: the next instance starts
only after the previous one returned.  A run covers a fixed number of
instances, whole blocks of size strata, that takes about ``--seconds`` at the
baseline rate of the workload.  Each instance gets a deadline; an
overrun is stopped from inside this process (``SIGALRM``) and counted as a
``Timeout`` failure.  Each returned certificate passes the per-instance gate
at the Tier-1 acceptance tolerances.

``--trace 0`` prints the end-to-end metrics: certified instances per second
of program time, the median and tail latency, the failure share, the set-up
time (median over fresh interpreter launches) and the peak RSS of this
process.  ``--trace 1`` runs an untraced pass for half the time, then a
traced pass over the same instances, checks that both passes return
bit-identical certificates and prints the per-layer metrics together with
the tracing overhead; the spans go to ``.bench_out/``.

The last line of standard output is the result object; the line before it
is a ``record`` object with the environment, error types and raw counts.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
SETUP_LAUNCHES = 5
SETUP_TIMEOUT_S = 120
SLOWDOWN_CAP = 5        # stop a run after this many times --seconds


class InstanceTimeout(BaseException):
    """Raised by the deadline alarm.  A BaseException, so that the package's
    ``except Exception`` handlers (the CLI has one) cannot swallow it."""


class Deadline:
    """SIGALRM-based per-instance deadline for the calling thread."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False
        self.previous = signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise InstanceTimeout()

    def arm(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def close(self):
        self.disarm()
        signal.signal(signal.SIGALRM, self.previous)


def run_instance(workload, deadline, inst):
    """Run one instance; returns (seconds, error type or None, output)."""
    out = error = None
    start = time.perf_counter()
    try:
        try:
            deadline.arm()
            out = workload.run(inst)
        finally:
            deadline.disarm()
    except InstanceTimeout:
        error = "Timeout"
    except Exception as exc:  # every package error is a counted failure
        error = type(exc).__name__
    return time.perf_counter() - start, error, out


def instance_count(workload, seconds):
    """Whole strata blocks that take about ``seconds`` at the baseline rate.

    The count depends on ``seconds`` only, so two commits measured with the
    same seed run the very same instances, and each run holds every size
    stratum equally often.
    """
    blocks = max(1, round(seconds * workload.baseline_rate / workload.block))
    return blocks * workload.block


def run_loop(workload, deadline, indices, cap_s, tracer=None):
    """Closed loop over ``indices``; stops early once ``cap_s`` seconds of
    instance time are spent, which only a many-fold slowdown reaches."""
    from workloads import GateViolation

    gc.collect()
    rows = []
    busy = 0.0
    for index in indices:
        if busy >= cap_s:
            break
        inst = workload.instance(index)
        if tracer is not None:
            tracer.begin_instance(index, inst["kind"])
        seconds, error, out = run_instance(workload, deadline, inst)
        digest = counters = detail = None
        if error is None:
            try:
                digest, counters = workload.check(inst, out)
            except GateViolation as exc:
                error, detail = "GateViolation", str(exc)
        if tracer is not None:
            tracer.end_instance(error, counters)
        busy += seconds
        rows.append({"index": index, "kind": inst["kind"], "seconds": seconds,
                     "error": error, "digest": digest, "detail": detail})
    return rows, busy


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def summarize(workload, rows, busy):
    """End-to-end figures of one pass.  A failed instance counts at the
    deadline, which no success reaches, in both latency figures."""
    failed = sum(1 for r in rows if r["error"] is not None)
    certified = len(rows) - failed
    latencies = [r["seconds"] if r["error"] is None
                 else max(r["seconds"], workload.deadline_s) for r in rows]
    errors = {}
    for r in rows:
        if r["error"] is not None:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    return {
        "attempted": len(rows),
        "failed": failed,
        "certified": certified,
        "busy_s": busy,
        "certified_per_s": certified / busy if busy > 0 else 0.0,
        "latency_p50_ms": 1000.0 * percentile(latencies, 50),
        "latency_tail_ms": 1000.0 * percentile(latencies, workload.tail_pct),
        "beyond_tail": sum(1 for x in latencies
                           if x > percentile(latencies, workload.tail_pct)),
        "latency_percentiles_ms": {
            str(p): 1000.0 * percentile(latencies, p)
            for p in (50, 75, 80, 85, 90, 95, 97, 98, 99)},
        # Jeffreys estimate of the failure probability: never exactly 0.
        "failure_share": (failed + 0.5) / (len(rows) + 1.0),
        "errors": errors,
        "failed_instances": [[r["index"], r["kind"], r["error"]]
                             for r in rows if r["error"] is not None][:20],
        "gate_violations": [r["detail"] for r in rows
                            if r["error"] == "GateViolation"][:5],
    }


def measure_setup(name, launches=SETUP_LAUNCHES):
    """Seconds from launching a fresh interpreter to the probe's ``ready``
    line, once per launch."""
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), name],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=str(ROOT))
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        times.append(elapsed)
    return times


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            ref_file = ROOT / ".git" / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    config = blas.get("openblas configuration", "")
    max_threads = next((tok.split("=", 1)[1] for tok in config.split()
                        if tok.startswith("MAX_THREADS=")), None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "openblas_max_threads": max_threads,
        "git_revision": _git_revision(),
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "policypaths" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracer as tracing_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    setup_times = measure_setup(cls.name) if args.trace == 0 else []

    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = Deadline(cls.deadline_s)
    try:
        workload = cls(args.seed, str(workdir))
        workload.warm()
        record = {"workload": cls.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "deadline_s": cls.deadline_s,
                  "tail_percentile": cls.tail_pct,
                  "closed_loop_clients": 1,
                  "environment": environment()}
        cap_s = SLOWDOWN_CAP * args.seconds
        if args.trace == 0:
            rows, busy = run_loop(
                workload, deadline,
                range(instance_count(workload, args.seconds)), cap_s)
            summary = summarize(workload, rows, busy)
            correct = "GateViolation" not in summary["errors"]
            metrics = {
                "certified_per_s": _metric(summary["certified_per_s"], "1/s"),
                "latency_p50_ms": _metric(summary["latency_p50_ms"], "ms"),
                "latency_tail_ms": _metric(summary["latency_tail_ms"], "ms"),
                "failure_share": _metric(summary["failure_share"], "ratio"),
                "setup_s": _metric(statistics.median(setup_times), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "MB"),
            }
            record.update(summary=summary, setup_launches_s=setup_times,
                          **workload.artifacts())
        else:
            rows_u, busy_u = run_loop(
                workload, deadline,
                range(instance_count(workload, args.seconds / 2.0)), cap_s)
            tracer = tracing_mod.Tracer()
            with tracing_mod.tracing(tracer):
                rows_t, busy_t = run_loop(
                    workload, deadline, [r["index"] for r in rows_u], cap_s,
                    tracer=tracer)
            plain = summarize(workload, rows_u, busy_u)
            traced = summarize(workload, rows_t, busy_t)
            mismatched = [u["index"] for u, t in zip(rows_u, rows_t)
                          if u["digest"] is not None and t["digest"] is not None
                          and u["digest"] != t["digest"]]
            correct = not mismatched and "GateViolation" not in plain["errors"] \
                and "GateViolation" not in traced["errors"]
            overhead = (1.0 - traced["certified_per_s"] / plain["certified_per_s"]
                        if plain["certified_per_s"] > 0 else 0.0)
            metrics = tracing_mod.layer_metrics(tracer)
            metrics["trace.instances"] = _metric(len(rows_t), "count")
            metrics["trace.overhead_share"] = _metric(overhead, "ratio")
            OUT_DIR.mkdir(exist_ok=True)
            span_file = OUT_DIR / f"trace-{cls.name}-seed{args.seed}.jsonl.gz"
            tracer.write(span_file)
            record.update(untraced=plain, traced=traced,
                          tracing_overhead_share=overhead,
                          certificate_mismatches=mismatched[:20],
                          spans=len(tracer.spans), span_file=str(
                              span_file.relative_to(ROOT)))
            summary = traced
    finally:
        deadline.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    print(json.dumps({"record": record}))
    print(json.dumps({"correct": bool(correct),
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
