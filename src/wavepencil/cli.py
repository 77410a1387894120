"""Batch front end: mesh / solve / verify / oracle / sweep subcommands.

The pipeline is mesh -> spaces -> assembly -> pencil -> companion solve
-> classification -> property report -> oracle comparison, with every
artifact written to the output directory.  Exit status is nonzero when
any property check fails or the oracle comparison exceeds its tolerance,
so CI can consume the tool directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, eigensolver, oracle
from .assembly import assemble_matrices
from .config import ConfigError, load_config
from .mesh import (MeshError, generate_homogeneous_rect, generate_rect_slab,
                   load_mesh, save_mesh)
from .pencil import exclusion_interval, make_pencil
from .spaces import build_spaces

WORKERS_ENV = "WAVEPENCIL_WORKERS"


def build_mesh(cfg):
    """Mesh per the geometry section (generated or loaded from file)."""
    if cfg.kind == "file":
        with open(cfg.mesh_path, "r", encoding="utf-8") as fh:
            return load_mesh(fh.read())
    nx, ny = cfg.grid()
    if cfg.kind == "rect_slab":
        return generate_rect_slab(cfg.width, cfg.height, cfg.slab_x, nx, ny)
    return generate_homogeneous_rect(cfg.width, cfg.height, nx, ny, cfg.slab_x)


@dataclass
class RunResult:
    spectrum: analysis.Spectrum
    report: analysis.PropertyReport
    oracle_matches: list
    oracle_mismatches: int
    exit_code: int


def _spectrum_payload(cfg, spectrum):
    exc = spectrum.exclusion
    return {
        "eps1": cfg.eps1,
        "eps2": cfg.eps2,
        "classification_tol": cfg.classification_tol,
        "exclusion": {"lower": exc.lower, "upper": exc.upper,
                      "delta": exc.delta, "p": exc.p},
        "max_abs_re": spectrum.max_abs_real,
        "counts": {cls.value: spectrum.counts[cls]
                   for cls in analysis.SpectrumClass},
        "entries": [
            {
                "re": e.gamma.real,
                "im": e.gamma.imag,
                "class": e.cls.value,
                "residual": e.residual,
                "partners": {"neg": e.partner_neg, "conj": e.partner_conj,
                             "negconj": e.partner_negconj},
            }
            for e in spectrum.entries
        ],
    }


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_plot_csv(path, spectrum):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re_gamma,im_gamma,class\n")
        for e in spectrum.entries:
            fh.write(f"{e.gamma.real:.17g},{e.gamma.imag:.17g},{e.cls.value}\n")


def _write_oracle_csv(path, matches):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("family,m,n,re_oracle,im_oracle,re_fem,im_fem,rel_gap\n")
        for root, fem, rel in matches:
            fh.write(f"{root.family.value},{root.m},{root.n},"
                     f"{root.gamma.real:.17g},{root.gamma.imag:.17g},"
                     f"{fem.real:.17g},{fem.imag:.17g},{rel:.17g}\n")


def comparable_oracle_roots(cfg):
    """Oracle roots inside the search box and off the dilated exclusion band."""
    exc = exclusion_interval(cfg.eps1, cfg.eps2)
    lo, hi = exc.dilated(cfg.oracle_exclusion_margin)
    roots = []
    for fam in cfg.oracle_families:
        roots.extend(oracle.slab_dispersion_roots(
            a=cfg.width, b=cfg.height, d=cfg.slab_x,
            eps1=cfg.eps1, eps2=cfg.eps2,
            n=cfg.oracle_transverse_index,
            family=oracle.OracleFamily(fam),
            gamma_max=cfg.oracle_gamma_max,
        ))
    kept = []
    for r in roots:
        if abs(r.gamma) > cfg.oracle_gamma_max:
            continue
        if abs(r.gamma.imag) <= 1e-12 and lo <= abs(r.gamma.real) <= hi:
            continue
        kept.append(r)
    return kept


def run(cfg, out_dir):
    """Full pipeline; writes all artifacts and returns a RunResult."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    mesh = build_mesh(cfg)
    spaces = build_spaces(mesh)
    matrices = assemble_matrices(spaces, cfg.eps1, cfg.eps2)
    pencil = make_pencil(matrices)
    report_input = eigensolver.solve_pencil(
        pencil, compute_vectors=cfg.compute_vectors,
        residual_tol=cfg.residual_tol)
    spectrum = analysis.build_spectrum(
        report_input.eigenvalues, pencil.exclusion,
        tol=cfg.classification_tol, residuals=report_input.residuals)
    report = analysis.verify_all(
        matrices, pencil=pencil, spectrum=spectrum,
        include_decay_slope=cfg.verify_decay_slope)

    matches = []
    mismatches = 0
    if cfg.oracle_enabled and cfg.kind != "file":
        roots = comparable_oracle_roots(cfg)
        matches, mismatches = oracle.match_roots(
            roots, spectrum.eigenvalues, cfg.oracle_match_rel_tol)
        _write_oracle_csv(out / cfg.oracle_file, matches)

    _write_json(out / cfg.spectrum_file, _spectrum_payload(cfg, spectrum))
    with open(out / cfg.report_file, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    _write_plot_csv(out / cfg.plot_file, spectrum)

    exit_code = 0 if (report.all_passed and mismatches == 0) else 1
    return RunResult(spectrum=spectrum, report=report, oracle_matches=matches,
                     oracle_mismatches=mismatches, exit_code=exit_code)


def _quadrant(g, tol=1e-9):
    def sgn(x):
        if abs(x) <= tol:
            return 0
        return 1 if x > 0 else -1
    return sgn(g.real), sgn(g.imag)


def _continue_branches(branches, entries, step, eps2):
    """Nearest-neighbour continuation, never crossing a quadrant boundary."""
    values = np.array([e.gamma for e in entries], dtype=complex)
    by_quadrant = {}
    for idx, g in enumerate(values):
        by_quadrant.setdefault(_quadrant(g), []).append(idx)
    used = np.zeros(len(values), dtype=bool)
    for branch in branches:
        if branch["dead"]:
            continue
        last = branch["points"][-1][2]
        candidates = [i for i in by_quadrant.get(_quadrant(last), [])
                      if not used[i]]
        if not candidates:
            branch["dead"] = True
            continue
        dists = [abs(values[i] - last) for i in candidates]
        pick = candidates[int(np.argmin(dists))]
        used[pick] = True
        branch["points"].append((step, eps2, complex(values[pick]),
                                 entries[pick].cls.value))
    for idx in np.where(~used)[0]:
        branches.append({"dead": False,
                         "points": [(step, eps2, complex(values[idx]),
                                     entries[idx].cls.value)]})


def sweep(cfg, out_dir, eps2_from, eps2_to, steps, workers=None):
    """One solve per eps2 value; steps run as independent parallel jobs.

    Results are gathered in step order, so the artifacts do not depend on
    the worker count.
    """
    if steps < 2:
        raise ConfigError("sweep needs at least 2 steps")
    if eps2_from < 1.0 or eps2_to < 1.0:
        raise ConfigError("sweep range must stay within eps2 >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = np.linspace(eps2_from, eps2_to, steps)
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))

    def one(step_value):
        step, value = step_value
        step_cfg = cfg.with_eps2(value)
        return step, value, run(step_cfg, out / f"step_{step:03d}")

    jobs = list(enumerate(values))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, jobs))
    else:
        results = [one(j) for j in jobs]

    branches = []
    worst_exit = 0
    for step, value, result in results:
        worst_exit = max(worst_exit, result.exit_code)
        _continue_branches(branches, result.spectrum.entries, step, value)

    with open(out / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write("branch,step,eps2,re_gamma,im_gamma,class\n")
        for bid, branch in enumerate(branches):
            for step, value, g, cls in branch["points"]:
                fh.write(f"{bid},{step},{value:.17g},"
                         f"{g.real:.17g},{g.imag:.17g},{cls}\n")
    return worst_exit, branches


def cmd_mesh(cfg, args):
    mesh = build_mesh(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "mesh.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_mesh(mesh))
    print(f"wrote {path}: {mesh.n_nodes} nodes, {mesh.n_triangles} triangles, "
          f"{len(mesh.interface_edges)} interface edges")
    return 0


def cmd_solve(cfg, args):
    result = run(cfg, args.out)
    n_fail = len(result.report.failed())
    print(f"eigenvalues: {len(result.spectrum.entries)}; "
          f"checks failed: {n_fail}; "
          f"oracle mismatches: {result.oracle_mismatches}")
    for check in result.report.failed():
        print(f"FAILED {check.name}: margin {check.margin:.3e} "
              f"{check.sense} {check.threshold:.3e}")
    return result.exit_code

def cmd_verify(cfg, args):
    mesh = build_mesh(cfg)
    spaces = build_spaces(mesh)
    matrices = assemble_matrices(spaces, cfg.eps1, cfg.eps2)
    pencil = make_pencil(matrices)
    report = analysis.verify_all(matrices, pencil=pencil,
                                 include_decay_slope=cfg.verify_decay_slope)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / cfg.report_file, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.margin:.3e} "
              f"({check.sense} {check.threshold:.3e})")
    return 0 if report.all_passed else 1


def cmd_oracle(cfg, args):
    roots = []
    for fam in cfg.oracle_families:
        roots.extend(oracle.slab_dispersion_roots(
            a=cfg.width, b=cfg.height, d=cfg.slab_x,
            eps1=cfg.eps1, eps2=cfg.eps2,
            n=cfg.oracle_transverse_index,
            family=oracle.OracleFamily(fam),
            gamma_max=cfg.oracle_gamma_max))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / cfg.oracle_file
    with open(path, "w", encoding="utf-8") as fh:
        oracle.write_roots_csv(roots, fh)
    print(f"wrote {path}: {len(roots)} roots")
    return 0


def cmd_sweep(cfg, args):
    code, branches = sweep(cfg, args.out, args.eps2_from, args.eps2_to,
                           args.steps)
    print(f"sweep complete: {args.steps} steps, {len(branches)} branches")
    return code


def make_parser():
    parser = argparse.ArgumentParser(
        prog="wavepencil",
        description="Normal-wave spectra of shielded waveguide "
                    "cross-sections with dielectric inclusions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("mesh", cmd_mesh), ("solve", cmd_solve),
                     ("verify", cmd_verify), ("oracle", cmd_oracle),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--refine", type=int, default=None,
                       help="override the refinement multiplier")
        p.set_defaults(fn=fn)
    sp = sub.choices["sweep"]
    sp.add_argument("--eps2-from", type=float, required=True, dest="eps2_from")
    sp.add_argument("--eps2-to", type=float, required=True, dest="eps2_to")
    sp.add_argument("--steps", type=int, required=True)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.refine is not None:
            cfg = cfg.with_refinement(args.refine)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args)
    except (MeshError, ConfigError, oracle.OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
