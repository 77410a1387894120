"""Benchmark workloads: inputs from a seed, one operation, its checks.

Every workload is the rectangular cross-section pi x pi with a full-height
slab at x = pi/2, eps1 = 1.  The seed draws the slab permittivity eps2 from
``EPS2_RANGE``; ``DEFAULT_SEED`` uses eps2 = 4, the input whose outputs are
stored in ``reference.json``.  Operations call the package only through
module attributes, so a tracer that replaces a function in its module sees
the call.

Why these workloads (costs measured on the seed code, one BLAS thread):

* ``slab-solve`` -- one ``cli.run`` at nx = 20 (n = 801, companion 3204);
  dense QR and balancing are about 89% of it.  The single solve a user waits
  for, and the workload where a cheaper companion solve must show.  Not in
  ``BENCHMARK.json`` (see below); ``sweep`` runs the same path 12 times.
* ``sweep`` -- ``cli.sweep`` over 12 eps2 steps at nx = 12 on a 2-worker
  pool: per-step fixed costs, the homogeneous eps1 = eps2 step, the pool,
  branch continuation and 48 artifact writes, all hidden in one solve.
* ``verify-ladder`` -- mesh, spaces, assembly, pencil and ``verify_all`` at
  nx = 12, 20, 28, then ``degeneration_scan``: the verification path, which
  never forms the companion, so a faster QR must leave it unchanged.
* ``assemble-fine`` -- mesh to pencil at nx = 48 (n = 4609), past the dense
  solver's reach; the only workload where spaces and assembly dominate the
  time and set the memory peak.

``slab-solve`` runs by hand the same way.  It is left out of
``BENCHMARK.json`` because one operation takes about 20 s: a full pass of
the benchmark has to fit in under an hour, in which a run of four workloads
could hold a single ``slab-solve`` operation, and its traced run (warm-up,
untraced, traced) lasts over 60 s.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wavepencil import analysis, assembly, cli, mesh, pencil, spaces
from wavepencil.config import SolverConfig

DEFAULT_SEED = 0
EPS1 = 1.0
EPS2_DEFAULT = 4.0
EPS2_RANGE = (3.5, 4.5)
SWEEP_EPS2_FROM = 1.0
SWEEP_WORKERS = 2

#: Window compared one-to-one with the reference: |gamma| <= radius, off
#: the real exclusion band dilated by the margin (as analysis.count_in_disk).
WINDOW_RADIUS = 3.0
WINDOW_BAND_MARGIN = 0.1
WINDOW_REL_TOL = 1e-8
NORM_REL_TOL = 1e-10

REFERENCE_FILE = Path(__file__).with_name("reference.json")

SIZES = {
    "slab-solve": {"nx": 20},
    "sweep": {"nx": 12, "steps": 12},
    "verify-ladder": {"nx": [12, 20, 28]},
    "assemble-fine": {"nx": 48},
}


def draw_eps2(seed):
    """Slab permittivity for a seed; the default seed keeps eps2 = 4."""
    if seed == DEFAULT_SEED:
        return EPS2_DEFAULT
    return random.Random(seed).uniform(*EPS2_RANGE)


def slab_config(nx, eps2):
    return SolverConfig(kind="rect_slab", width=math.pi, height=math.pi,
                        slab_x=math.pi / 2.0, nx=nx, ny=nx, eps1=EPS1,
                        eps2=eps2)


def expected_n(nx):
    """Unknowns of the product space: free electric nodes + nodes - 1."""
    m = mesh.generate_rect_slab(math.pi, math.pi, math.pi / 2.0, nx, nx)
    return int(np.sum(~m.boundary_node_mask())) + m.n_nodes - 1


def window(eigenvalues, eps2):
    """Eigenvalues in the comparison window, sorted for display."""
    vals = np.asarray(eigenvalues, dtype=complex)
    lo, hi = pencil.exclusion_interval(EPS1, eps2).dilated(WINDOW_BAND_MARGIN)
    band = ((np.abs(vals.imag) <= WINDOW_BAND_MARGIN)
            & (np.abs(vals.real) >= lo) & (np.abs(vals.real) <= hi))
    return np.sort_complex(vals[(np.abs(vals) <= WINDOW_RADIUS) & ~band])


def match_window(got, ref, rel_tol=WINDOW_REL_TOL):
    """Problems found matching ``got`` one-to-one onto ``ref``.

    Each reference value takes the nearest unused computed value; the pair
    must agree to ``rel_tol`` relative to the reference value.
    """
    got = list(np.asarray(got, dtype=complex))
    ref = np.asarray(ref, dtype=complex)
    if len(got) != len(ref):
        return [f"window holds {len(got)} eigenvalues, reference {len(ref)}"]
    problems = []
    for r in ref:
        j = int(np.argmin([abs(g - r) for g in got]))
        gap = abs(got.pop(j) - r) / max(abs(r), 1e-12)
        if gap > rel_tol:
            problems.append(f"window eigenvalue {r:.10g} off by {gap:.2e} "
                            "relative")
    return problems


def _complex_list(values):
    return [[float(v.real), float(v.imag)] for v in values]


def _from_pairs(pairs):
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


@dataclass
class Workload:
    """Inputs of one workload and the checks of its operation."""

    name: str
    seed: int
    sizes: dict
    eps2: float
    n: list
    reference: dict | None = None

    #: Compares against the slab oracle (reports oracle_missed).
    has_oracle = False
    #: Forms the 4n companion matrix.
    companion = False

    def op(self, out_dir):
        raise NotImplementedError

    def check(self, outcome, out_dir):
        """List of problems; empty when the operation's output is correct."""
        raise NotImplementedError

    def oracle_missed(self, outcome, out_dir):
        return None

    def reference_of(self, outcome, out_dir):
        """What ``reference.json`` stores for this workload."""
        raise NotImplementedError

    def manifest_sizes(self):
        return {"n": self.n,
                "companion_dim": [4 * n for n in self.n] if self.companion
                else None}


class SlabSolve(Workload):
    has_oracle = True
    companion = True

    def op(self, out_dir):
        return cli.run(slab_config(self.sizes["nx"], self.eps2), out_dir)

    def check(self, outcome, out_dir):
        problems = []
        want = 4 * self.n[0]
        got = len(outcome.spectrum.entries)
        if got != want:
            problems.append(f"{got} eigenvalues, expected {want}")
        problems += [f"check {c.name} failed" for c in outcome.report.failed()]
        if self.reference is not None:
            problems += match_window(
                window(outcome.spectrum.eigenvalues, self.eps2),
                _from_pairs(self.reference["window"]))
        return problems

    def oracle_missed(self, outcome, out_dir):
        return outcome.oracle_mismatches

    def reference_of(self, outcome, out_dir):
        return {"window": _complex_list(
            window(outcome.spectrum.eigenvalues, self.eps2))}


class Sweep(Workload):
    has_oracle = True
    companion = True

    def op(self, out_dir):
        cfg = slab_config(self.sizes["nx"], self.eps2)
        return cli.sweep(cfg, out_dir, SWEEP_EPS2_FROM, self.eps2,
                         self.sizes["steps"], workers=SWEEP_WORKERS)

    def _steps(self, out_dir):
        """(eps2, eigenvalues, failed check names) per step, from artifacts."""
        out = []
        for step in range(self.sizes["steps"]):
            step_dir = Path(out_dir) / f"step_{step:03d}"
            with open(step_dir / "spectrum.json", encoding="utf-8") as fh:
                spec = json.load(fh)
            with open(step_dir / "report.json", encoding="utf-8") as fh:
                report = json.load(fh)
            vals = np.array([complex(e["re"], e["im"])
                             for e in spec["entries"]])
            out.append((spec["eps2"], vals,
                        [c["check"] for c in report if not c["passed"]]))
        return out

    def check(self, outcome, out_dir):
        problems = []
        if not (Path(out_dir) / "sweep.csv").is_file():
            problems.append("sweep.csv not written")
        want = 4 * self.n[0]
        ref = self.reference["steps"] if self.reference is not None else None
        for step, (eps2, vals, failed) in enumerate(self._steps(out_dir)):
            if len(vals) != want:
                problems.append(f"step {step}: {len(vals)} eigenvalues, "
                                f"expected {want}")
            problems += [f"step {step}: check {name} failed" for name in failed]
            if ref is not None:
                problems += [f"step {step}: {p}" for p in match_window(
                    window(vals, eps2), _from_pairs(ref[step]))]
        return problems

    def oracle_missed(self, outcome, out_dir):
        tol = slab_config(self.sizes["nx"], self.eps2).oracle_match_rel_tol
        missed = 0
        for step in range(self.sizes["steps"]):
            path = Path(out_dir) / f"step_{step:03d}" / "oracle_compare.csv"
            with open(path, encoding="utf-8", newline="") as fh:
                missed += sum(float(row["rel_gap"]) > tol
                              for row in csv.DictReader(fh))
        return missed

    def reference_of(self, outcome, out_dir):
        return {"steps": [_complex_list(window(vals, eps2))
                          for eps2, vals, _ in self._steps(out_dir)]}


class VerifyLadder(Workload):
    def op(self, out_dir):
        pencils, reports = [], []
        for nx in self.sizes["nx"]:
            m = mesh.generate_rect_slab(math.pi, math.pi, math.pi / 2.0, nx, nx)
            sp = spaces.build_spaces(m)
            mats = assembly.assemble_matrices(sp, EPS1, self.eps2)
            pen = pencil.make_pencil(mats)
            reports.append(analysis.verify_all(mats, pencil=pen,
                                               include_decay_slope=True))
            pencils.append(pen)
        gammas, table = analysis.degeneration_scan(pencils)
        return {"n": [p.n for p in pencils], "reports": reports,
                "gammas": gammas, "table": table}

    def check(self, outcome, out_dir):
        problems = []
        if outcome["n"] != self.n:
            problems.append(f"sizes {outcome['n']}, expected {self.n}")
        for nx, rep in zip(self.sizes["nx"], outcome["reports"]):
            problems += [f"nx={nx}: check {c.name} failed" for c in rep.failed()]
        ladder = self._ladder(outcome)
        for g, counts in ladder.items():
            if any(b < a for a, b in zip(counts, counts[1:])):
                problems.append(f"nullity at {g} decreases: {counts}")
        if self.reference is not None and ladder != self.reference["nullity"]:
            problems.append(f"nullity ladder {ladder}, reference "
                            f"{self.reference['nullity']}")
        return problems

    @staticmethod
    def _ladder(outcome):
        return {f"{g:.12g}": [row[g] for row in outcome["table"]]
                for g in outcome["gammas"]}

    def reference_of(self, outcome, out_dir):
        return {"nullity": self._ladder(outcome)}


class AssembleFine(Workload):
    def op(self, out_dir):
        nx = self.sizes["nx"]
        m = mesh.generate_rect_slab(math.pi, math.pi, math.pi / 2.0, nx, nx)
        sp = spaces.build_spaces(m)
        mats = assembly.assemble_matrices(sp, EPS1, self.eps2)
        return pencil.make_pencil(mats)

    def check(self, outcome, out_dir):
        problems = []
        if outcome.n != self.n[0]:
            problems.append(f"n = {outcome.n}, expected {self.n[0]}")
        norms = outcome.coefficient_norms
        if self.reference is None:
            return problems
        # C1 = (eps1 - eps2) S and S does not depend on the permittivities,
        # so this holds at every seed.
        s_norm = norms[1] / abs(EPS1 - self.eps2)
        ref_s = self.reference["s_norm"]
        if abs(s_norm - ref_s) > NORM_REL_TOL * ref_s:
            problems.append(f"||S||_F = {s_norm!r}, reference {ref_s!r}")
        if self.seed == DEFAULT_SEED:
            for name, got, ref in zip(("C0", "C1", "C2", "C4"), norms,
                                      self.reference["coefficient_norms"]):
                if abs(got - ref) > NORM_REL_TOL * ref:
                    problems.append(f"||{name}||_F = {got!r}, reference {ref!r}")
        return problems

    def reference_of(self, outcome, out_dir):
        norms = [float(x) for x in outcome.coefficient_norms]
        return {"coefficient_norms": norms,
                "s_norm": norms[1] / abs(EPS1 - self.eps2)}


CLASSES = {
    "slab-solve": SlabSolve,
    "sweep": Sweep,
    "verify-ladder": VerifyLadder,
    "assemble-fine": AssembleFine,
}

#: Reference entries that hold at every seed, not only the default one.
SEED_FREE_REFERENCE = {"assemble-fine"}


def load_reference(name):
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[name]


def make(name, seed, sizes=None, reference="stored"):
    """Build a workload's inputs.

    ``sizes`` overrides ``SIZES[name]`` (tests use tiny meshes).  The stored
    reference applies at the benchmark sizes, and at the default seed unless
    the workload's reference holds at every seed; pass a dict to use another
    reference, or None for none.
    """
    cls = CLASSES[name]
    sizes = dict(SIZES[name] if sizes is None else sizes)
    if reference == "stored":
        applies = sizes == SIZES[name] and (
            seed == DEFAULT_SEED or name in SEED_FREE_REFERENCE)
        reference = load_reference(name) if applies else None
    nxs = sizes["nx"] if isinstance(sizes["nx"], list) else [sizes["nx"]]
    return cls(name=name, seed=seed, sizes=sizes, eps2=draw_eps2(seed),
               n=[expected_n(nx) for nx in nxs], reference=reference)
