"""One workload in its own process: set up, run operations, report.

Started by ``run.py``; not meant to be run by hand.  The process pins BLAS
to one thread before numpy is imported, builds the workload's inputs, prints
``READY <monotonic time>`` (the end of set-up), then runs operations one at
a time (a closed loop with one client) until its time budget would be
exceeded, and prints one JSON payload line.  With ``--setup-only`` it stops
after the ready line.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _openblas_version():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")
    except (KeyError, TypeError):
        return None


def manifest(workload, seconds, trace):
    return {
        "commit": _commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "sweep_workers": workloads.SWEEP_WORKERS,
        "workload": workload.name,
        "seed": workload.seed,
        "eps2": workload.eps2,
        "sizes": {**workload.sizes, **workload.manifest_sizes()},
        "run_seconds": seconds,
        "trace": trace,
    }


def _tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def one_op(workload, out_dir, tracer=None, warmup=False):
    """Run and check one operation; the record of what happened."""
    out_dir.mkdir(parents=True)
    gc.collect()
    outcome = None
    raised = False
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.op(out_dir)
        else:
            with tracer.span("op") as root:
                outcome = workload.op(out_dir)
        problems = []
    except Exception:  # an operation that raises is a failed operation
        raised = True
        problems = ["raised: " + traceback.format_exc(limit=5)]
    op_s = time.perf_counter() - start
    record = {"op_s": op_s, "traced": tracer is not None, "warmup": warmup,
              "oracle_missed": None}
    if not raised:
        try:
            problems = workload.check(outcome, out_dir)
            record["oracle_missed"] = workload.oracle_missed(outcome, out_dir)
        except Exception:  # unreadable output is a failed check
            problems = ["check raised: " + traceback.format_exc(limit=5)]
    if tracer is not None:
        spans = tracer.take()
        if not raised:
            layers = tracing.op_metrics(spans, root, tracer.metric_of,
                                        workers=workloads.SWEEP_WORKERS)
            layers["cli.artifact_bytes"] = _tree_bytes(out_dir)
            record["layers"] = layers
        record["spans"] = tracing.span_records(spans)
    del outcome
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    record["ok"] = not problems
    record["problems"] = problems
    status = "ok" if not problems else "FAILED: " + "; ".join(problems)
    kind = "warm-up" if warmup else "traced" if tracer else "untraced"
    print(f"[{workload.name}] op {kind} "
          f"{op_s:.3f} s {status}", file=sys.stderr, flush=True)
    return record


def measure(workload, seconds, trace, work_dir):
    """Operation records of one run, and the tracer of a traced run.

    Operations run one at a time until the next would end past the budget.
    A traced run measures the tracing overhead in the same process: it first
    runs one warm-up operation (checked, not timed), so that neither side
    pays the process's first-touch cost, then alternates untraced and traced
    operations in pairs whose order flips each time (U T, T U, U T, ...),
    at least one of each.
    """
    records = []
    durations = []
    tracer = tracing.Tracer() if trace else None
    deadline = time.monotonic() + seconds
    if trace:
        records.append(one_op(workload, work_dir / "warmup", warmup=True))
    while True:
        k = len(durations)
        op_dir = work_dir / f"op{k:03d}"
        start = time.monotonic()
        if trace and (k % 2 == 1) != ((k // 2) % 2 == 1):
            with tracer:
                records.append(one_op(workload, op_dir, tracer))
        else:
            records.append(one_op(workload, op_dir))
        durations.append(time.monotonic() - start)
        enough = len(durations) >= (2 if trace else 1)
        if enough and time.monotonic() + statistics.median(durations) > deadline:
            return records, tracer


def collect(workload, seconds, trace, work_dir):
    """Measure one run; the payload the worker prints."""
    records, tracer = measure(workload, seconds, trace, Path(work_dir))
    return {
        "manifest": manifest(workload, seconds, int(trace)),
        "has_oracle": workload.has_oracle,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "missing_targets": tracer.missing if tracer else [],
        "ops": records,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0
    payload = collect(workload, args.seconds, bool(args.trace), args.work_dir)
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
