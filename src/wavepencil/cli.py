"""Batch front end: mesh / solve / verify / oracle / sweep subcommands.

The pipeline is mesh -> spaces -> assembly -> pencil -> companion solve
-> classification -> property report -> oracle comparison, with every
artifact written to the output directory.  Exit status is 1 when any
property check fails or the oracle comparison exceeds its tolerance, and
2 when the input cannot be solved as given (a bad configuration or mesh,
a companion over the dense-path cap, more than `verify` can hold in
physical memory, or `oracle` on a mesh file), so CI can use it directly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, eigensolver, oracle
from .assembly import AssemblyError, assemble_matrices
from .config import ConfigError, load_config
from .mesh import MeshError, generate_rect_slab, load_mesh, save_mesh
from .pencil import PencilError, exclusion_interval, make_pencil
from .spaces import SpaceError, build_spaces

WORKERS_ENV = "WAVEPENCIL_WORKERS"

#: Errors that mean the input cannot be solved as given: exit status 2.
INPUT_ERRORS = (ConfigError, OSError, MeshError, SpaceError, AssemblyError,
                PencilError, eigensolver.EigensolverError, oracle.OracleError)


def build_mesh(cfg):
    """Mesh per the geometry section (generated or loaded from file)."""
    if cfg.kind == "file":
        with open(cfg.mesh_path, "r", encoding="utf-8") as fh:
            return load_mesh(fh.read())
    return generate_rect_slab(cfg.width, cfg.height, cfg.slab_x,
                              cfg.nx, cfg.ny)


def _refined(cfg, k):
    """The configuration with the generated grid refined k times per axis."""
    if k < 1:
        raise ConfigError(f"--refine must be at least 1 (got {k})")
    if cfg.kind == "file":
        raise ConfigError("--refine applies to generated meshes; "
                          "a mesh file cannot be refined")
    return replace(cfg, nx=cfg.nx * k, ny=cfg.ny * k)


@dataclass
class RunResult:
    spectrum: analysis.Spectrum
    report: analysis.PropertyReport
    oracle_mismatches: int
    exit_code: int


def _spectrum_payload(cfg, spectrum):
    exc = spectrum.exclusion
    return {
        "eps1": cfg.eps1,
        "eps2": cfg.eps2,
        "classification_tol": analysis.CLASSIFICATION_TOL,
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
    """One line of compact JSON: ``json.dumps`` takes the C encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")


def _write_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def _write_plot_csv(path, spectrum):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re_gamma,im_gamma,class\n")
        vals = spectrum.eigenvalues
        fh.writelines(f"{re:.17g},{im:.17g},{cls.value}\n" for re, im, cls
                      in zip(vals.real.tolist(), vals.imag.tolist(),
                             spectrum.classes.tolist()))


def _write_oracle_csv(path, matches):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("family,m,n,re_oracle,im_oracle,re_fem,im_fem,rel_gap\n")
        for root, fem, rel in matches:
            fh.write(f"{root.family.value},{root.m},{root.n},"
                     f"{root.gamma.real:.17g},{root.gamma.imag:.17g},"
                     f"{fem.real:.17g},{fem.imag:.17g},{rel:.17g}\n")


def oracle_roots(cfg):
    """Slab dispersion roots of every configured family, family by family."""
    roots = []
    for fam in cfg.oracle_families:
        roots.extend(oracle.slab_dispersion_roots(
            a=cfg.width, b=cfg.height, d=cfg.slab_x,
            eps1=cfg.eps1, eps2=cfg.eps2,
            n=cfg.oracle_transverse_index,
            family=oracle.OracleFamily(fam),
            gamma_max=cfg.oracle_gamma_max,
        ))
    return roots


def comparable_oracle_roots(cfg):
    """Oracle roots off the dilated exclusion band.

    The root search already keeps every root within |gamma| <= gamma_max.
    """
    lo, hi = exclusion_interval(cfg.eps1, cfg.eps2).dilated(
        analysis.EXCLUSION_MARGIN)
    return [r for r in oracle_roots(cfg)
            if not (abs(r.gamma.imag) <= 1e-12
                    and lo <= abs(r.gamma.real) <= hi)]


def _unknowns(cfg):
    """(mesh, n_pi, n_psi) of a configuration, without building a grid.

    n_pi counts the nodes off the shield and n_psi is N - 1.  A generated
    grid has (nx - 1)(ny - 1) of its (nx + 1)(ny + 1) nodes off the
    shield, so its counts come from the configuration and its mesh is
    None.  A mesh file is loaded.
    """
    if cfg.kind == "file":
        mesh = build_mesh(cfg)
        return (mesh, int(np.count_nonzero(~mesh.boundary_node_mask())),
                mesh.n_nodes - 1)
    return None, (cfg.nx - 1) * (cfg.ny - 1), (cfg.nx + 1) * (cfg.ny + 1) - 1


def _capped_mesh(cfg):
    """cfg's mesh, made once its 4n companion fits the dense-path cap.

    n comes from ``_unknowns``: a generated grid is refused before it is
    built, and a mesh file is loaded once, to be counted and returned.
    """
    mesh, n_pi, n_psi = _unknowns(cfg)
    eigensolver._check_companion_dim(4 * (n_pi + n_psi))
    return build_mesh(cfg) if mesh is None else mesh


def run(cfg, out_dir, mesh=None):
    """Full pipeline; writes all artifacts and returns a RunResult.

    The dense cap is checked (``_capped_mesh``) before the mesh of a
    generated grid, the spaces and the output directory are made.  A
    caller that already holds cfg's ``_capped_mesh`` passes it as
    ``mesh``, which is then neither built nor checked again.
    """
    if mesh is None:
        mesh = _capped_mesh(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    spaces = build_spaces(mesh)
    pencil = make_pencil(assemble_matrices(spaces, cfg.eps1, cfg.eps2))
    report_input = eigensolver.solve_pencil(
        pencil, compute_vectors=cfg.compute_vectors)
    spectrum = analysis.build_spectrum(
        report_input.eigenvalues, pencil.exclusion,
        residuals=report_input.residuals)
    report = analysis.verify_all(
        pencil, pencil=pencil, spectrum=spectrum,
        include_decay_slope=cfg.verify_decay_slope)

    matches = []
    mismatches = 0
    if cfg.oracle_enabled and cfg.kind != "file":
        roots = comparable_oracle_roots(cfg)
        matches, mismatches = oracle.match_roots(
            roots, spectrum.eigenvalues, cfg.oracle_match_rel_tol)
        _write_oracle_csv(out / cfg.oracle_file, matches)

    _write_json(out / cfg.spectrum_file, _spectrum_payload(cfg, spectrum))
    _write_report(out / cfg.report_file, report)
    _write_plot_csv(out / cfg.plot_file, spectrum)

    exit_code = 0 if (report.all_passed and mismatches == 0) else 1
    return RunResult(spectrum=spectrum, report=report,
                     oracle_mismatches=mismatches, exit_code=exit_code)


def _quadrant(values):
    """Quadrant code 3 sgn(Re g) + sgn(Im g); a part within 1e-9 has sign 0."""
    parts = np.stack((values.real, values.imag))
    signs = np.where(np.abs(parts) <= 1e-9, 0.0, np.sign(parts))
    return 3.0 * signs[0] + signs[1]


def _continue_branches(branches, values, classes, step, eps2):
    """Nearest-neighbour continuation, never crossing a quadrant boundary.

    Live branches take, in creation order, the nearest unused value of
    their own quadrant, the lowest index among equal distances; a branch
    without one dies, and every value left unused starts a branch.  Per
    quadrant that is ``analysis._match_nearest`` in creation order, one
    dense block of the quadrant's branches by its values (at most 292
    values a quadrant at slab nx = 12).  ``classes`` holds the
    ``SpectrumClass`` of each value.
    """
    quadrant = _quadrant(values)
    free = np.ones(len(values), dtype=bool)
    live = [b for b in branches if not b["dead"]]
    lasts = np.array([b["points"][-1][2] for b in live], dtype=complex)
    owner = _quadrant(lasts)
    points = [(step, eps2, g, cls.value)
              for g, cls in zip(values.tolist(), classes.tolist())]
    for q in np.unique(owner):
        cands = np.flatnonzero(quadrant == q)
        who = np.flatnonzero(owner == q)
        for b in who[len(cands):]:
            live[b]["dead"] = True
        who = who[:len(cands)]
        idx, _ = analysis._match_nearest(values[cands], lasts[who],
                                         order=np.arange(len(who)))
        picks = cands[idx]
        free[picks] = False
        for b, pick in zip(who.tolist(), picks.tolist()):
            live[b]["points"].append(points[pick])
    for idx in np.flatnonzero(free).tolist():
        branches.append({"dead": False, "points": [points[idx]]})


def _workers_from_env():
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer "
                          f"(got {raw!r})")
    return workers


def sweep(cfg, out_dir, eps2_from, eps2_to, steps, workers=None):
    """One solve per eps2 value; steps run as independent jobs on a pool.

    ``workers`` defaults to ``WAVEPENCIL_WORKERS`` (1 when unset).
    Results are gathered in step order, so the artifacts do not depend on
    the worker count.  Every step shares the mesh, and n does not depend
    on eps2, so the dense cap is checked once, before the output
    directory is made; so are the eps2 bounds, which must be finite.  The
    mesh is built or loaded once, by that check (``_capped_mesh``), and
    every step reads the same immutable ``Mesh``.
    """
    if steps < 2:
        raise ConfigError("sweep needs at least 2 steps")
    for flag, value in (("--eps2-from", eps2_from), ("--eps2-to", eps2_to)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number (got {value})")
    if eps2_from < 1.0 or eps2_to < 1.0:
        raise ConfigError("sweep range must stay within eps2 >= 1")
    if workers is None:
        workers = _workers_from_env()
    if workers < 1:
        raise ConfigError(f"sweep needs at least 1 worker (got {workers})")
    mesh = _capped_mesh(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = np.linspace(eps2_from, eps2_to, steps)

    def one(step_value):
        step, value = step_value
        step_cfg = cfg.with_eps2(value)
        return step, value, run(step_cfg, out / f"step_{step:03d}", mesh)

    branches = []
    worst_exit = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for step, value, result in pool.map(one, enumerate(values)):
            worst_exit = max(worst_exit, result.exit_code)
            spectrum = result.spectrum
            _continue_branches(branches, spectrum.eigenvalues,
                               spectrum.classes, step, value)
            # the step is done with before the next one is waited for
            del result, spectrum

    with open(out / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write("branch,step,eps2,re_gamma,im_gamma,class\n")
        fh.writelines(f"{bid},{step},{value:.17g},"
                      f"{g.real:.17g},{g.imag:.17g},{cls}\n"
                      for bid, branch in enumerate(branches)
                      for step, value, g, cls in branch["points"])
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
    # what verify would hold is checked before the mesh is built
    mesh, n_pi, n_psi = _unknowns(cfg)
    checks = analysis.working_bytes(n_pi, n_psi)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if checks > memory:
        raise AssemblyError(
            f"the checks of n = {n_pi + n_psi} unknowns need {checks} bytes "
            f"(two arrays of the larger field block, and panel and tile "
            f"buffers), more than the {memory} bytes of physical memory")
    if mesh is None:
        mesh = build_mesh(cfg)
    pencil = make_pencil(assemble_matrices(build_spaces(mesh), cfg.eps1,
                                           cfg.eps2))
    report = analysis.verify_all(pencil, pencil=pencil,
                                 include_decay_slope=cfg.verify_decay_slope)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out / cfg.report_file, report)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.margin:.3e} "
              f"({check.sense} {check.threshold:.3e})")
    return 0 if report.all_passed else 1


def cmd_oracle(cfg, args):
    if cfg.kind == "file":
        raise ConfigError("the oracle gives the roots of the generated "
                          "rect_slab geometry; kind = file has none")
    roots = oracle_roots(cfg)
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
        p.add_argument("--refine", type=int, default=None, metavar="k",
                       help="multiply the generated grid's nx and ny by k")
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
            cfg = _refined(cfg, args.refine)
        return args.fn(cfg, args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
