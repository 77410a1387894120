"""Tests of the benchmark itself, on tiny meshes.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (pins BLAS threads, puts src/ on the path)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from wavepencil import cli, eigensolver, spaces  # noqa: E402

TINY = {
    "slab-solve": {"nx": 6},
    "sweep": {"nx": 6, "steps": 3},
    "verify-ladder": {"nx": [6, 8, 10]},
    "assemble-fine": {"nx": 8},
}

EXPECTED_SPANS = {
    "slab-solve": {
        "cli.run", "mesh.generate_rect_slab", "spaces.build_spaces",
        "assembly.assemble_matrices", "assembly.assemble_k",
        "assembly.assemble_s_line", "assembly.assemble_s_volume",
        "pencil.make_pencil", "eigensolver.solve_pencil", "pencil.linearize",
        "eigensolver.solve_companion", "eigensolver.balance",
        "eigensolver.qr_eigenvalues", "analysis.build_spectrum",
        "analysis.verify_all", "analysis.k_decay_slope",
        "oracle.slab_dispersion_roots", "oracle.match_roots"},
    "verify-ladder": {
        "mesh.generate_rect_slab", "spaces.build_spaces",
        "assembly.assemble_matrices", "pencil.make_pencil",
        "analysis.verify_all", "analysis.k_decay_slope",
        "analysis.degeneration_scan", "eigensolver.numerical_nullity"},
    "assemble-fine": {
        "mesh.generate_rect_slab", "spaces.build_spaces",
        "assembly.assemble_matrices", "pencil.make_pencil"},
}
EXPECTED_SPANS["sweep"] = EXPECTED_SPANS["slab-solve"] | {"cli.sweep"}


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """Payload of a one-operation run per (workload, trace)."""
    out = {}
    for name, sizes in TINY.items():
        wl = workloads.make(name, workloads.DEFAULT_SEED, sizes)
        for trace in (0, 1):
            work = tmp_path_factory.mktemp(f"{name}-{trace}")
            out[name, trace] = worker.collect(wl, 0.0, bool(trace), work)
    return out


def _traced_op(payloads, name):
    return next(op for op in payloads[name, 1]["ops"] if op["traced"])


def test_benchmark_names_its_workloads(spec):
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(workloads.SIZES)
    # Together the workloads reach every layer's spans.
    assert set().union(*(EXPECTED_SPANS[n] for n in names)) == set().union(
        *EXPECTED_SPANS.values())
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(spec, payloads, name, trace):
    payload = payloads[name, trace]
    result = run.summarize(spec, payload, [0.5, 0.7, 0.6], trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (3 if trace else 1)
    if not trace:
        assert result["metrics"]["setup_s"]["value"] == 0.6
        assert result["metrics"]["op_s"]["value"] > 0
    text = "\n".join(run.report_lines(result, payload, [0.6]))
    assert "failed_ops" in text
    assert ("oracle_missed" in text) == (name in ("slab-solve", "sweep"))


@pytest.mark.parametrize("name", list(TINY))
def test_perturbed_reference_trips_the_check(tmp_path, name):
    wl = workloads.make(name, workloads.DEFAULT_SEED, TINY[name],
                        reference=None)
    outcome = wl.op(tmp_path)
    wl.reference = wl.reference_of(outcome, tmp_path)
    assert wl.check(outcome, tmp_path) == []

    bad = copy.deepcopy(wl.reference)
    if name == "slab-solve":
        assert bad["window"]
        bad["window"][0] = [x * (1 + 1e-6) for x in bad["window"][0]]
    elif name == "sweep":
        bad["steps"][-1][0] = [x * (1 + 1e-6) for x in bad["steps"][-1][0]]
    elif name == "verify-ladder":
        key = next(iter(bad["nullity"]))
        bad["nullity"][key][-1] += 1
    else:
        bad["coefficient_norms"][2] *= 1 + 1e-8
    wl.reference = bad
    assert wl.check(outcome, tmp_path)


def test_traced_run_warms_up_then_alternates(payloads, spec):
    ops = payloads["assemble-fine", 1]["ops"]
    assert [(op["warmup"], op["traced"]) for op in ops] == [
        (True, False), (False, False), (False, True)]
    assert all(op["ok"] for op in ops)
    # The warm-up operation is left out of the overhead ratio.
    ops[0]["op_s"] = 1e6
    result = run.summarize(spec, payloads["assemble-fine", 1], [0.5], 1)
    overhead = result["metrics"]["trace.overhead"]["value"]
    assert overhead == ops[2]["op_s"] / ops[1]["op_s"]


def test_window_match_is_one_to_one():
    ref = [1j, 1j, -1j]
    assert workloads.match_window([1j, -1j, 1j], ref) == []
    assert workloads.match_window([1j, -1j, -1j], ref)
    assert workloads.match_window([1j, -1j], ref)


def test_nullity_ladder_must_not_decrease(tmp_path):
    wl = workloads.make("verify-ladder", workloads.DEFAULT_SEED,
                        TINY["verify-ladder"], reference=None)
    outcome = wl.op(tmp_path)
    assert wl.check(outcome, tmp_path) == []
    g = outcome["gammas"][0]
    outcome["table"][-1][g] = outcome["table"][0][g] - 1
    assert any("decreases" in p for p in wl.check(outcome, tmp_path))


@pytest.mark.parametrize("name", list(TINY))
def test_expected_spans_fire(payloads, name):
    names = {s["name"] for s in _traced_op(payloads, name)["spans"]}
    assert EXPECTED_SPANS[name] <= names


def test_spans_nest_under_their_callers(payloads):
    spans = _traced_op(payloads, "sweep")["spans"]
    by_id = {s["id"]: s for s in spans}
    sweep = [s for s in spans if s["name"] == "cli.sweep"]
    assert len(sweep) == 1
    steps = [s for s in spans if s["name"] == "cli.run"]
    assert len(steps) == TINY["sweep"]["steps"]
    assert all(s["parent"] == sweep[0]["id"] for s in steps)
    for qr in (s for s in spans if s["name"] == "eigensolver.qr_eigenvalues"):
        chain = []
        node = qr
        while node["parent"] is not None:
            node = by_id[node["parent"]]
            chain.append(node["name"])
        assert chain == ["eigensolver.solve_companion",
                         "eigensolver.solve_pencil", "cli.run", "cli.sweep",
                         "op"]


@pytest.mark.parametrize("name", ["verify-ladder", "assemble-fine"])
def test_qr_records_zero_calls_off_the_solve_path(payloads, name):
    layers = _traced_op(payloads, name)["layers"]
    assert layers["eigensolver.qr_calls"] == 0
    assert layers["eigensolver.qr_s"] == 0.0
    assert layers["pencil.companion_dim"] == 0


def test_solve_counts_its_kernels(payloads):
    layers = _traced_op(payloads, "slab-solve")["layers"]
    n = workloads.expected_n(TINY["slab-solve"]["nx"])
    assert layers["eigensolver.qr_calls"] == 1
    assert layers["eigensolver.eigenvalues"] == 4 * n
    assert layers["pencil.companion_dim"] == 4 * n
    assert layers["pencil.companion_bytes"] == (4 * n) ** 2 * 8
    assert layers["spaces.n"] == n
    assert layers["assembly.operator_bytes"] == 4 * n * n * 8
    assert 0 < layers["assembly.operator_nnz"] <= 4 * n * n
    assert layers["eigensolver.qr_gflops"] > 0
    assert layers["oracle.roots"] > 0
    assert layers["cli.artifact_bytes"] > 0


@pytest.mark.parametrize("name", ["slab-solve", "verify-ladder",
                                  "assemble-fine"])
def test_self_times_account_for_the_traced_op(payloads, name):
    layers = _traced_op(payloads, name)["layers"]
    own = sum(layers[m] for m in tracing.SELF_TIME_METRICS)
    assert own + layers["trace.unattributed_s"] == pytest.approx(
        layers["trace.op_s"], rel=1e-9)


def test_sweep_reports_parallel_efficiency(payloads):
    layers = _traced_op(payloads, "sweep")["layers"]
    assert 0 < layers["cli.sweep.parallel_efficiency"] <= 1.0 + 1e-9
    assert layers["cli.sweep.step_s"] > 0


def test_missing_target_records_zero_calls(tmp_path):
    targets = tracing.TARGETS + (
        ("eigensolver", "no_such_stage", "eigensolver.qr_s", None),)
    wl = workloads.make("assemble-fine", workloads.DEFAULT_SEED,
                        TINY["assemble-fine"], reference=None)
    with pytest.warns(RuntimeWarning, match="no_such_stage"):
        tracer = tracing.Tracer(targets).install()
    try:
        with tracer.span("op") as root:
            wl.op(tmp_path)
        layers = tracing.op_metrics(tracer.take(), root, tracer.metric_of, 2)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["eigensolver.no_such_stage"]
    assert layers["eigensolver.qr_calls"] == 0
    assert layers["spaces.self_s"] > 0


def test_uninstall_restores_every_binding():
    before = (cli.build_spaces, eigensolver.balance, cli.ThreadPoolExecutor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with tracing.Tracer():
            assert cli.build_spaces is spaces.build_spaces
            assert cli.build_spaces is not before[0]
    assert (cli.build_spaces, eigensolver.balance,
            cli.ThreadPoolExecutor) == before


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [S(0, None, "op", 1, 0.0, 10.0), S(1, 0, "a", 1, 1.0, 4.0),
             S(2, 0, "b", 2, 3.0, 6.0), S(3, 1, "c", 1, 2.0, 3.0)]
    own = tracing.self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slab-solve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
