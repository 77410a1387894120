"""Spans around the public functions of each wavepencil module.

A ``Tracer`` replaces a target function in every ``wavepencil`` module
namespace that holds it, so a call is traced whichever way its caller looks
it up: as a module attribute (``eigensolver.solve_pencil``), as a global of
its own module (``balance`` inside ``solve_companion``), as a name imported
with ``from`` (``build_spaces`` in ``cli``, ``numerical_nullity`` in
``analysis``) or as a package re-export.  Each thread keeps its own stack of
open spans; a job handed to a thread pool starts under the span that
submitted it, so ``cli.sweep`` workers nest their ``cli.run`` spans under
the sweep.

Spans are kept in memory and summarised per operation by ``op_metrics``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import importlib
import statistics
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field

import numpy as np


def _triangles(args, kwargs, result):
    return {"triangles": result.n_triangles}


def _spaces(args, kwargs, result):
    return {"n": result.n, "null_basis_bytes": result.null_basis.nbytes}


def _matrices(args, kwargs, result):
    # Kept until the operation ends; counting nonzeros inside the span
    # would charge the count to the caller's self time.
    return {"matrices": result}


def _dim(args, kwargs, result):
    return {"dim": result.shape[0]}


def _qr_dim(args, kwargs, result):
    return {"dim": args[0].shape[0], "eigenvalues": len(result)}


def _report(args, kwargs, result):
    return {"checks": len(result.checks), "failed": len(result.failed())}


def _matched(args, kwargs, result):
    return {"roots": len(args[0]), "missed": result[1]}


#: (module, function, self-time metric or None, probe of the call).
#: A self time with no metric counts as unattributed.
TARGETS = (
    ("mesh", "generate_rect_slab", "mesh.self_s", _triangles),
    ("mesh", "generate_homogeneous_rect", "mesh.self_s", _triangles),
    ("mesh", "load_mesh", "mesh.self_s", _triangles),
    ("spaces", "build_spaces", "spaces.self_s", _spaces),
    ("assembly", "assemble_matrices", "assembly.self_s", _matrices),
    ("assembly", "assemble_k", "assembly.self_s", None),
    ("assembly", "assemble_a1", "assembly.self_s", None),
    ("assembly", "assemble_a2", "assembly.self_s", None),
    ("assembly", "assemble_s_line", "assembly.self_s", None),
    ("assembly", "assemble_s_volume", "assembly.self_s", None),
    ("pencil", "make_pencil", "pencil.make_s", None),
    ("pencil", "linearize", "pencil.linearize_s", _dim),
    ("eigensolver", "solve_pencil", None, None),
    ("eigensolver", "solve_companion", None, None),
    ("eigensolver", "balance", "eigensolver.balance_s", None),
    ("eigensolver", "qr_eigenvalues", "eigensolver.qr_s", _qr_dim),
    ("eigensolver", "numerical_nullity", "eigensolver.nullity_s", None),
    ("analysis", "build_spectrum", "analysis.spectrum_s", None),
    ("analysis", "verify_all", "analysis.verify_s", _report),
    ("analysis", "k_decay_slope", "analysis.verify_s", None),
    ("analysis", "degeneration_scan", "analysis.scan_s", None),
    ("oracle", "slab_dispersion_roots", "oracle.roots_s", None),
    ("oracle", "match_roots", "oracle.match_s", _matched),
    ("cli", "run", "cli.artifacts_s", None),
    ("cli", "sweep", "cli.sweep.self_s", None),
)

PACKAGE = "wavepencil"

SELF_TIME_METRICS = tuple(sorted({t[2] for t in TARGETS if t[2]}))

#: Flops of an eigenvalues-only Hessenberg QR of an N x N matrix, the
#: textbook estimate (Golub & Van Loan); a computed count, not a measurement.
QR_FLOPS_PER_N3 = 10.0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Install spans on ``targets`` for the duration of a ``with`` block."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.metric_of = {}
        self.missing = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_id(self):
        stack = self._stack()
        if stack:
            return stack[-1].id
        return getattr(self._local, "base", None)

    def _open(self, name):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, self.current_id(), name, threading.get_ident(),
                    time.perf_counter())
        self._stack().append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the ``with`` body (the operation root)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _run_under(self, parent_id, fn, *args, **kwargs):
        self._local.base = parent_id
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.base = None

    # -- patching -----------------------------------------------------------
    def _wrap(self, name, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if probe is not None:
                try:
                    span.info = probe(args, kwargs, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    warnings.warn(f"probe of {name} failed: {exc}",
                                  RuntimeWarning, stacklevel=2)
            return result

        return traced

    def _pool_class(self):
        tracer = self

        class SpanThreadPool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._run_under, tracer.current_id(),
                                      fn, *args, **kwargs)

        return SpanThreadPool

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def _replace_everywhere(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self):
        self.metric_of = {}
        self.missing = []
        for module_name, func_name, metric, probe in self.targets:
            name = f"{module_name}.{func_name}"
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                warnings.warn(f"trace target {name} does not exist; it records "
                              "zero calls", RuntimeWarning, stacklevel=2)
                self.missing.append(name)
                continue
            self.metric_of[name] = metric
            self._replace_everywhere(original, self._wrap(name, original, probe))
        self._replace_everywhere(concurrent.futures.ThreadPoolExecutor,
                                 self._pool_class())
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self):
        """Return and forget the spans recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _union_length(children.get(s.id, ()),
                                             s.start, s.end)
            for s in spans}


def op_metrics(spans, root, metric_of, workers):
    """Per-layer metrics of one traced operation.

    Times are summed over every span of the layer (in ``cli.sweep`` the
    worker threads overlap, so they can exceed the wall time); sizes are
    those of the largest problem in the operation; counts are totals.
    """
    own = self_times(spans)
    out = {m: 0.0 for m in SELF_TIME_METRICS}
    unattributed = own[root.id]
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s is root:
            continue
        metric = metric_of.get(s.name)
        if metric is None:
            unattributed += own[s.id]
        else:
            out[metric] += own[s.id]

    def infos(name, key):
        return [s.info[key] for s in by_name.get(name, ()) if key in s.info]

    meshes = [v for n in ("mesh.generate_rect_slab",
                          "mesh.generate_homogeneous_rect", "mesh.load_mesh")
              for v in infos(n, "triangles")]
    out["mesh.triangles"] = max(meshes, default=0)
    out["spaces.n"] = max(infos("spaces.build_spaces", "n"), default=0)
    out["spaces.null_basis_bytes"] = max(
        infos("spaces.build_spaces", "null_basis_bytes"), default=0)

    nnz, nbytes = [0], [0]
    for s in by_name.get("assembly.assemble_matrices", ()):
        mats = s.info.pop("matrices", None)
        if mats is None:
            continue
        ops = (mats.k, mats.a1, mats.a2, mats.s)
        nnz.append(sum(int(np.count_nonzero(m)) for m in ops))
        nbytes.append(sum(m.nbytes for m in ops))
    out["assembly.operator_nnz"] = max(nnz)
    out["assembly.operator_bytes"] = max(nbytes)

    dim = max(infos("pencil.linearize", "dim"), default=0)
    out["pencil.companion_dim"] = dim
    out["pencil.companion_bytes"] = dim * dim * 8

    qr = by_name.get("eigensolver.qr_eigenvalues", [])
    qr_flops = sum(QR_FLOPS_PER_N3 * float(s.info.get("dim", 0)) ** 3
                   for s in qr)
    out["eigensolver.qr_calls"] = len(qr)
    qr_s = sum(s.duration for s in qr)
    out["eigensolver.qr_gflops"] = qr_flops / qr_s / 1e9 if qr_s > 0 else 0.0
    out["eigensolver.eigenvalues"] = sum(infos("eigensolver.qr_eigenvalues",
                                               "eigenvalues"))
    out["eigensolver.nullity_calls"] = len(
        by_name.get("eigensolver.numerical_nullity", []))

    out["analysis.checks"] = sum(infos("analysis.verify_all", "checks"))
    out["analysis.checks_failed"] = sum(infos("analysis.verify_all", "failed"))
    out["oracle.roots"] = sum(infos("oracle.match_roots", "roots"))
    out["oracle.missed"] = sum(infos("oracle.match_roots", "missed"))

    sweeps = by_name.get("cli.sweep", [])
    steps = [s for s in by_name.get("cli.run", [])
             if any(s.parent == w.id for w in sweeps)]
    sweep_wall = sum(s.duration for s in sweeps)
    out["cli.sweep.step_s"] = (statistics.median(s.duration for s in steps)
                               if steps else 0.0)
    out["cli.sweep.parallel_efficiency"] = (
        sum(s.duration for s in steps) / (workers * sweep_wall)
        if steps and sweep_wall > 0 else 0.0)

    out["trace.op_s"] = root.duration
    out["trace.unattributed_s"] = unattributed
    return out


def span_records(spans):
    """JSON-ready span list (probe objects dropped)."""
    return [{"id": s.id, "parent": s.parent, "name": s.name,
             "thread": s.thread, "start": s.start, "end": s.end,
             "info": {k: v for k, v in s.info.items()
                      if isinstance(v, (int, float, str))}}
            for s in sorted(spans, key=lambda s: s.start)]
