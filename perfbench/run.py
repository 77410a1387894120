"""wavepencil benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Workloads are described in ``workloads.py``; ``BENCHMARK.json`` names the
ones the benchmark is judged on (``slab-solve`` runs only by hand).  Run
from anywhere; paths resolve against the repository root.  The program is
imported from ``src/`` as it stands; nothing is installed.

Load model: a closed loop with one client; one operation at a time in one
process per workload, BLAS pinned to one thread (``cli.sweep`` adds its own
2-thread pool).  Set-up is measured ``SETUP_PROBES`` + 1 times, each in a
fresh process, from process start to the first operation, and reported as
the median; half the set-up-only probes run before the measuring process
and half after it, so the samples span the run.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics from a run that, after one
untimed warm-up operation, alternates untraced and traced operations (see
``worker.measure`` and ``tracing.py``).  Two metrics that can
read 0 are printed above the result line instead: ``failed_ops`` (failed /
attempted) and ``oracle_missed`` (analytic roots beyond the solver's match
tolerance, per operation, on the workloads that compare with the oracle).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 when every operation
passed its checks, 1 when one failed or the run broke, and 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 8
#: Time allowed beyond ``--seconds`` for the set-up probes, a traced run's
#: warm-up operation and one operation that overruns the budget.
TIMEOUT_MARGIN_S = 120.0


class BenchError(RuntimeError):
    pass


def child_env():
    # Every set-up then compiles the package the same way and nothing is
    # written next to the sources.  The worker pins BLAS threads itself.
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def run_child(cmd, deadline):
    """(set-up seconds, last stdout line) of one worker process.

    The process is killed, and the run fails, at ``deadline`` (monotonic).
    """
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = out.splitlines()
    ready = [ln for ln in lines if ln.startswith("READY ")]
    if not ready:
        raise BenchError("worker never became ready")
    return float(ready[0].split()[1]) - start, lines[-1]


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(spec, payload, setup_samples, trace):
    """The result line from a worker payload."""
    ops = payload["ops"]
    failed = sum(not op["ok"] for op in ops)
    untraced = [op["op_s"] for op in ops
                if not op["traced"] and not op["warmup"]]
    if not trace:
        wanted = spec["end_to_end"]
        values = {"setup_s": _median(setup_samples),
                  "op_s": _median(untraced),
                  "peak_rss_mb": payload["peak_rss_mb"]}
    else:
        wanted = spec["per_layer"]
        traced = [op for op in ops if "layers" in op]
        if not traced:
            raise BenchError("no traced operation completed")
        values = {name: _median([op["layers"][name] for op in traced])
                  for name in traced[0]["layers"]}
        values["trace.overhead"] = (_median([op["op_s"] for op in traced])
                                    / _median(untraced))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def report_lines(result, payload, setup_samples):
    """Human-readable lines printed above the result line."""
    ops = payload["ops"]
    man = payload["manifest"]
    lines = [f"workload {man['workload']} seed {man['seed']} "
             f"eps2 {man['eps2']:.6g}: {result['attempted']} operations, "
             f"{result['failed']} failed, set-up sampled "
             f"{len(setup_samples)} times"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    lines.append(f"  {'failed_ops':34s} "
                 f"{result['failed'] / result['attempted']:14.6g} "
                 "failed/attempted")
    missed = [op["oracle_missed"] for op in ops
              if op["oracle_missed"] is not None]
    if payload["has_oracle"]:
        lines.append(f"  {'oracle_missed':34s} {_median(missed):14.6g} "
                     "roots/op")
    traced = [op for op in ops if "layers" in op]
    if traced:
        layers = traced[0]["layers"]
        own = sum(v for k, v in layers.items()
                  if k.endswith("_s") and k not in ("trace.op_s",
                                                    "cli.sweep.step_s"))
        lines.append(f"  first traced op: self times sum to {own:.4g} s "
                     f"(unattributed {layers['trace.unattributed_s']:.4g} s "
                     f"included) over {layers['trace.op_s']:.4g} s wall"
                     + ("; sweep worker threads overlap"
                        if layers["cli.sweep.parallel_efficiency"] else ""))
    for target in payload["missing_targets"]:
        lines.append(f"  trace target {target} missing: zero calls")
    for op in ops:
        for problem in op["problems"]:
            lines.append(f"  FAILED: {problem}")
    lines.append("manifest " + json.dumps(man, sort_keys=True))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wavepencil" / "__init__.py").is_file():
        print(f"error: no wavepencil sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    deadline = time.monotonic() + args.seconds + TIMEOUT_MARGIN_S
    probe = cmd + ["--setup-only"]
    try:
        setups = [run_child(probe, deadline)[0]
                  for _ in range(SETUP_PROBES // 2)]
        setup_s, line = run_child(cmd, deadline)
        setups.append(setup_s)
        setups += [run_child(probe, deadline)[0]
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        payload = json.loads(line)
        result = summarize(spec, payload, setups, args.trace)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "setup_samples": setups, **payload}, fh)
    for line in report_lines(result, payload, setups):
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
