import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

import wavepencil as wp
from wavepencil import analysis, cli, config, eigensolver
from wavepencil.analysis import SpectrumClass
from wavepencil.cli import _continue_branches, main, sweep
from wavepencil.config import ConfigError, parse_config
from conftest import build_slit_mesh_text, traced_peak, two_slabs_text

PI = math.pi

SMALL_SLAB = """\
[geometry]
kind = rect_slab
width = 3.141592653589793
height = 3.141592653589793
slab_x = 1.5707963267948966
nx = 6
ny = 6

[material]
eps1 = 1.0
eps2 = 4.0

[solver]
verify_decay_slope = false

[oracle]
enabled = true
families = lse
gamma_max = 3.0
match_rel_tol = 0.2
"""

SMALL_HOMOG = """\
[geometry]
kind = rect_slab
width = 3.141592653589793
height = 3.141592653589793
slab_x = 1.5707963267948966
nx = 8
ny = 8

[material]
eps1 = 2.0
eps2 = 2.0

[solver]
verify_decay_slope = false

[oracle]
enabled = false
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_config_round_trip():
    cfg = parse_config(SMALL_SLAB, source="inline")
    assert cfg.kind == "rect_slab"
    assert cfg.eps2 == 4.0
    assert (cfg.nx, cfg.ny) == (6, 6)
    assert cfg.oracle_families == ("lse",)


def test_parse_config_reports_line_numbers():
    broken = SMALL_SLAB.replace("eps2 = 4.0", "eps2 = 0.5")
    lineno = broken.splitlines().index("eps2 = 0.5") + 1
    with pytest.raises(ConfigError, match=f"inline:{lineno}"):
        parse_config(broken, source="inline")


@pytest.mark.parametrize("mutation,fragment", [
    (("nx = 6", "nx = 1"), "nx"),
    (("kind = rect_slab", "kind = circle"), "kind"),
    (("eps1 = 1.0", "eps1 = banana"), "not a number"),
    (("[oracle]", "[oracles]"), "unknown section"),
    (("families = lse", "families = tem"), "unknown family"),
])
def test_parse_config_validation_errors(mutation, fragment):
    broken = SMALL_SLAB.replace(*mutation)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(broken, source="inline")


def test_parse_config_rejects_removed_qr_iteration_cap():
    text = SMALL_SLAB.replace("[solver]\n", "[solver]\nqr_iteration_cap = 30\n")
    lineno = text.splitlines().index("qr_iteration_cap = 30") + 1
    with pytest.raises(ConfigError, match=f"inline:{lineno}: unknown key "
                                          "'qr_iteration_cap' in \\[solver\\]"):
        parse_config(text, source="inline")


def test_parse_config_rejects_removed_residual_tol():
    text = SMALL_SLAB.replace("[solver]\n", "[solver]\nresidual_tol = 1e-8\n")
    lineno = text.splitlines().index("residual_tol = 1e-8") + 1
    with pytest.raises(ConfigError, match=f"inline:{lineno}: unknown key "
                                          "'residual_tol' in \\[solver\\]"):
        parse_config(text, source="inline")


def test_parse_config_rejects_removed_interface_x():
    text = SMALL_SLAB.replace("[geometry]\n",
                              "[geometry]\ninterface_x = 1.0\n")
    lineno = text.splitlines().index("interface_x = 1.0") + 1
    with pytest.raises(ConfigError, match=f"inline:{lineno}: unknown key "
                                          "'interface_x' in \\[geometry\\]"):
        parse_config(text, source="inline")


@pytest.mark.parametrize("section,line", [
    ("[solver]", "refinement = 2"),
    ("[solver]", "classification_tol = 1e-6"),
    ("[oracle]", "exclusion_margin = 0.1"),
    ("[geometry]", "kind = homogeneous_rect"),
])
def test_parse_config_rejects_removed_keys_and_kind(section, line):
    text = SMALL_SLAB.replace(f"{section}\n", f"{section}\n{line}\n")
    if line.startswith("kind"):
        text = text.replace("kind = rect_slab\n", "")
        message = "unknown geometry kind 'homogeneous_rect'"
    else:
        key = line.split(" =")[0]
        message = f"unknown key '{key}' in \\[{section[1:-1]}\\]"
    lineno = text.splitlines().index(line) + 1
    with pytest.raises(ConfigError, match=f"inline:{lineno}: {message}"):
        parse_config(text, source="inline")


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("### Configuration", 1)[1]
    example = section.split("```\n", 2)[1]
    cfg = parse_config(example, source="README")
    assert (cfg.kind, cfg.nx, cfg.eps2) == ("rect_slab", 16, 4.0)
    assert cfg.oracle_families == ("lse", "lsm")


FLOAT_KEYS = [(section, key) for section, keys in config._SCHEMA.items()
              for key, (_, kind) in keys.items() if kind is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_parse_config_rejects_non_finite_floats(section, key, value):
    text = f"[{section}]\n# a comment line\n{key} = {value}\n"
    with pytest.raises(ConfigError,
                       match=f"inline:3: not a finite number: '{value}'"):
        parse_config(text, source="inline")


def test_solve_with_a_nan_tolerance_is_a_usage_error(tmp_path, capsys):
    # every comparison with nan is False, so a nan tolerance would pass
    # every oracle match
    text = SMALL_SLAB.replace("match_rel_tol = 0.2", "match_rel_tol = nan")
    lineno = text.splitlines().index("match_rel_tol = nan") + 1
    cfg = write(tmp_path, "cfg.ini", text)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert f"cfg.ini:{lineno}: not a finite number: 'nan'" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("families,name", [("lse, lse", "lse"),
                                           ("lsm, lse, lsm", "lsm")])
def test_solve_with_a_repeated_family_is_a_usage_error(tmp_path, capsys,
                                                       families, name):
    # a repeated family would match each of its roots twice
    text = SMALL_SLAB.replace("families = lse", f"families = {families}")
    lineno = text.splitlines().index(f"families = {families}") + 1
    cfg = write(tmp_path, "cfg.ini", text)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert f"cfg.ini:{lineno}: repeated family '{name}'" in \
        capsys.readouterr().err
    assert not out.exists()


def test_parse_config_rejects_duplicates_and_strays():
    with pytest.raises(ConfigError, match="already set"):
        parse_config("[material]\neps1 = 1\neps1 = 2\n")
    with pytest.raises(ConfigError, match="outside any section"):
        parse_config("eps1 = 1\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_config("[material]\neps1\n")


def test_mesh_subcommand_writes_loadable_mesh(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    code = main(["mesh", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    mesh = wp.load_mesh((tmp_path / "mesh.txt").read_text())
    assert mesh.n_nodes == 49
    assert "49 nodes" in capsys.readouterr().out


def test_refine_flag_scales_grid(tmp_path):
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    code = main(["mesh", "--config", str(cfg), "--out", str(tmp_path),
                 "--refine", "2"])
    assert code == 0
    mesh = wp.load_mesh((tmp_path / "mesh.txt").read_text())
    assert mesh.n_nodes == 13 * 13


@pytest.mark.parametrize("k", ["0", "-3"])
def test_refine_below_one_is_a_usage_error(tmp_path, capsys, k):
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    code = main(["mesh", "--config", str(cfg), "--out", str(tmp_path),
                 "--refine", k])
    assert code == 2
    assert f"--refine must be at least 1 (got {k})" in capsys.readouterr().err
    assert not (tmp_path / "mesh.txt").exists()


def test_refine_on_a_mesh_file_is_a_usage_error(tmp_path, capsys):
    mesh_path = write(tmp_path, "in.txt", wp.save_mesh(
        wp.generate_rect_slab(PI, PI, PI / 2, 2, 2)))
    cfg = write(tmp_path, "cfg.ini",
                f"[geometry]\nkind = file\npath = {mesh_path}\n")
    out = tmp_path / "out"
    assert main(["mesh", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "mesh.txt").exists()
    out = tmp_path / "refined"
    code = main(["mesh", "--config", str(cfg), "--out", str(out),
                 "--refine", "2"])
    assert code == 2
    assert "--refine applies to generated meshes" in capsys.readouterr().err
    assert not out.exists()


def test_solve_produces_artifacts_and_zero_exit(tmp_path):
    cfg = write(tmp_path, "cfg.ini", SMALL_HOMOG)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    spectrum = json.loads((out / "spectrum.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert all(chk["passed"] for chk in report)
    gammas = np.array([e["re"] + 1j * e["im"] for e in spectrum["entries"]])
    assert len(gammas) == 4 * (7 * 7 + 9 * 9 - 1)
    # the cutoff pair of the oracle set sits near +-1
    assert np.sum(np.abs(gammas - 1.0) < 0.05) == 2
    plot = (out / "plot.csv").read_text().splitlines()
    assert plot[0] == "re_gamma,im_gamma,class"
    assert len(plot) == len(gammas) + 1


def test_solve_with_vectors_reports_residuals(tmp_path):
    text = SMALL_HOMOG.replace("nx = 8", "nx = 4").replace("ny = 8", "ny = 4") \
        .replace("[solver]\n", "[solver]\ncompute_vectors = true\n")
    cfg = write(tmp_path, "cfg.ini", text)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    spectrum = json.loads((out / "spectrum.json").read_text())
    residuals = np.array([e["residual"] for e in spectrum["entries"]],
                         dtype=float)
    assert np.all(np.isfinite(residuals))
    # everything but the degeneration cluster resolves to tight residuals
    assert np.median(residuals) <= 1e-8


def test_solve_oracle_comparison_artifact(tmp_path):
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = (out / "oracle_compare.csv").read_text().splitlines()
    assert lines[0] == "family,m,n,re_oracle,im_oracle,re_fem,im_fem,rel_gap"
    assert len(lines) > 1
    assert all(float(ln.split(",")[-1]) <= 0.2 for ln in lines[1:])


def test_solve_deterministic_outputs_are_byte_identical(tmp_path):
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out)
    for name in ("spectrum.json", "report.json", "plot.csv",
                 "oracle_compare.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_verify_subcommand_passes_on_fresh_mesh(tmp_path):
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(chk["passed"] for chk in report)


def test_verify_subcommand_fails_on_corrupted_mesh_file(tmp_path, capsys):
    mesh = wp.generate_rect_slab(PI, PI, PI / 2, 6, 6)
    text = wp.save_mesh(mesh)
    i, j = mesh.interface_edges[0]
    corrupted = text.replace(f"{i} {j} gamma", f"{j} {i} gamma", 1)
    assert corrupted != text
    mesh_path = write(tmp_path, "mesh.txt", corrupted)
    cfg_text = (
        "[geometry]\nkind = file\npath = %s\n"
        "[material]\neps1 = 1.0\neps2 = 4.0\n"
        "[solver]\nverify_decay_slope = false\n"
        "[oracle]\nenabled = false\n" % mesh_path
    )
    cfg = write(tmp_path, "cfg.ini", cfg_text)
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    # the reversed gamma line is rejected when the mesh is loaded
    assert code == 2
    assert f"gamma edge {j} -> {i} is misoriented" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_verify_without_interior_nodes_is_a_usage_error(tmp_path, capsys):
    # a valid one-triangle mesh whose three sides are all shielded leaves
    # no node for the electric field
    mesh_path = write(tmp_path, "mesh.txt",
                      "nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2 1\n"
                      "edges 3\n0 1 gamma0\n1 2 gamma0\n2 0 gamma0\n")
    cfg = write(tmp_path, "cfg.ini",
                f"[geometry]\nkind = file\npath = {mesh_path}\n")
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "no interior nodes" in capsys.readouterr().err


def test_solve_over_the_companion_cap_exits_before_assembly(
        tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built past the companion cap")

    monkeypatch.setattr(eigensolver, "MAX_COMPANION_DIM", 40)
    monkeypatch.setattr(cli, "assemble_matrices", never)
    monkeypatch.setattr(cli, "build_spaces", never)
    monkeypatch.setattr(cli, "generate_rect_slab", never)
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    # n = 5 * 5 nodes off the shield + 7 * 7 - 1 magnetic unknowns = 73
    assert "companion dimension 292 exceeds the dense-path cap 40" in \
        capsys.readouterr().err
    assert not out.exists()


def test_sweep_over_the_companion_cap_makes_no_directory(
        tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("solved past the companion cap")

    monkeypatch.setattr(eigensolver, "MAX_COMPANION_DIM", 40)
    monkeypatch.setattr(cli, "run", never)
    monkeypatch.setattr(cli, "generate_rect_slab", never)
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--eps2-from", "2.0", "--eps2-to", "4.0", "--steps", "3"])
    assert code == 2
    assert "companion dimension 292 exceeds the dense-path cap 40" in \
        capsys.readouterr().err
    assert not out.exists()


def test_verify_over_physical_memory_exits_before_the_mesh(
        tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built past the memory check")

    monkeypatch.setattr(cli, "generate_rect_slab", never)
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB.replace("nx = 6", "nx = 20000")
                .replace("ny = 6", "ny = 20000"))
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    n_pi, n_psi = 19999 ** 2, 20001 ** 2 - 1
    need = analysis.working_bytes(n_pi, n_psi)
    # verify holds no n x n array; the larger field block's pair is counted
    assert need >= 2 * max(n_pi, n_psi) ** 2 * 8
    assert f"checks of n = {n_pi + n_psi} unknowns need {need} bytes" in \
        capsys.readouterr().err
    assert not out.exists()


def _physical_memory(monkeypatch, nbytes):
    sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
    monkeypatch.setattr(cli.os, "sysconf", sizes.__getitem__)


def test_verify_refuses_what_its_buffers_hold_beyond_the_block_pair(
        tmp_path, capsys, monkeypatch):
    # the larger field block's pair of arrays fits, the panel and tile
    # buffers beside it do not
    def never(*args, **kwargs):
        raise AssertionError("built past the memory check")

    monkeypatch.setattr(cli, "generate_rect_slab", never)
    n_pi, n_psi = 19 * 19, 21 * 21 - 1
    _physical_memory(monkeypatch, 2 * max(n_pi, n_psi) ** 2 * 8 + 1)
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB.replace("nx = 6", "nx = 20")
                .replace("ny = 6", "ny = 20"))
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "panel and tile buffers" in capsys.readouterr().err
    assert not out.exists()


def test_verify_memory_count_covers_the_traced_pipeline(tmp_path, capsys,
                                                        monkeypatch):
    def pipeline():
        mesh = wp.generate_rect_slab(PI, PI, PI / 2, 12, 12)
        pencil = wp.make_pencil(wp.assemble_matrices(wp.build_spaces(mesh),
                                                     1.0, 4.0))
        wp.verify_all(pencil, pencil=pencil, include_decay_slope=True)

    # memory one byte under the traced peak is refused: the count >= peak
    _physical_memory(monkeypatch, traced_peak(pipeline) - 1)
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB.replace("nx = 6", "nx = 12")
                .replace("ny = 6", "ny = 12"))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("nx,ny", [(4, 4), (12, 7), (16, 16), (5, 9)])
def test_companion_cap_counts_a_generated_grid_from_the_config(
        monkeypatch, nx, ny):
    monkeypatch.setattr(eigensolver, "MAX_COMPANION_DIM", 3)
    cfg = parse_config(SMALL_SLAB.replace("nx = 6", f"nx = {nx}")
                       .replace("ny = 6", f"ny = {ny}"), source="inline")
    n = wp.build_spaces(cli.build_mesh(cfg)).n
    with pytest.raises(eigensolver.EigensolverError,
                       match=f"companion dimension {4 * n} exceeds"):
        cli._capped_mesh(cfg)


def test_mesh_file_over_the_companion_cap_exits_before_assembly(
        tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built past the companion cap")

    mesh_path = write(tmp_path, "mesh.txt", wp.save_mesh(
        wp.generate_rect_slab(PI, PI, PI / 2, 6, 6)))
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB.replace(
        "kind = rect_slab", f"kind = file\npath = {mesh_path}"))
    monkeypatch.setattr(eigensolver, "MAX_COMPANION_DIM", 40)
    monkeypatch.setattr(cli, "build_spaces", never)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "companion dimension 292 exceeds the dense-path cap 40" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--eps2-from", "--eps2-to"])
def test_sweep_refuses_a_non_finite_eps2_bound(tmp_path, capsys, monkeypatch,
                                               flag, value):
    def never(*args, **kwargs):
        raise AssertionError("swept a non-finite eps2 range")

    monkeypatch.setattr(cli, "run", never)
    bounds = {"--eps2-from": "2.0", "--eps2-to": "4.0", flag: value}
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--steps", "2", *(f"{k}={v}" for k, v in bounds.items())])
    assert code == 2
    assert f"{flag} must be a finite number (got {value})" in \
        capsys.readouterr().err
    assert not out.exists()


def test_oracle_subcommand_writes_csv(tmp_path):
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "oracle_compare.csv").read_text().splitlines()
    assert lines[0] == "family,m,n,re_gamma,im_gamma,residual"
    assert len(lines) > 1


def test_oracle_on_a_mesh_file_is_a_usage_error(tmp_path, capsys):
    mesh_path = write(tmp_path, "mesh.txt", wp.save_mesh(
        wp.generate_rect_slab(PI, PI, PI / 2, 4, 4)))
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB.replace(
        "kind = rect_slab", f"kind = file\npath = {mesh_path}"))
    out = tmp_path / "out"
    code = main(["oracle", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "kind = file" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_subcommand_lists_no_lsm_rows_without_transverse_variation(
        tmp_path):
    text = SMALL_SLAB.replace("families = lse\n",
                              "families = lse,lsm\ntransverse_index = 0\n")
    cfg = write(tmp_path, "cfg.ini", text)
    code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "oracle_compare.csv").read_text().splitlines()[1:]
    assert rows
    assert {row.split(",")[0] for row in rows} == {"lse"}


def test_unreadable_config_exits_with_usage_error(tmp_path):
    code = main(["solve", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_config_error_exits_with_usage_error(tmp_path):
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB.replace("eps2 = 4.0",
                                                        "eps2 = 0.2"))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2


def test_sweep_degenerate_range_gives_identical_spectra(tmp_path):
    cfg = parse_config(SMALL_HOMOG.replace("nx = 8", "nx = 4")
                       .replace("ny = 8", "ny = 4"))
    code, branches = sweep(cfg, tmp_path, 2.0, 2.0, 2)
    assert code == 0
    a = (tmp_path / "step_000" / "spectrum.json").read_bytes()
    b = (tmp_path / "step_001" / "spectrum.json").read_bytes()
    assert a == b


def test_sweep_branches_stay_in_their_quadrant(tmp_path):
    cfg = parse_config(SMALL_SLAB.replace("nx = 6", "nx = 4")
                       .replace("ny = 6", "ny = 4")
                       .replace("enabled = true", "enabled = false"))
    code, branches = sweep(cfg, tmp_path, 1.0, 4.0, 4)
    assert code == 0
    header, *csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert header == "branch,step,eps2,re_gamma,im_gamma,class"
    assert csv_lines
    per_branch = {}
    first_step = []
    for ln in csv_lines:
        bid, step, eps2, re, im, cls = ln.split(",")
        per_branch.setdefault(bid, []).append((float(re), float(im)))
        if step == "0":
            first_step.append(complex(float(re), float(im)))
    # the eps2 = 1 step is homogeneously filled: its spectrum carries the
    # analytic evanescent pair at +-i (within coarse-mesh tolerance)
    assert min(abs(g - 1j) for g in first_step) <= 0.2
    tol = 1e-9

    def sgn(x):
        return 0 if abs(x) <= tol else (1 if x > 0 else -1)

    for points in per_branch.values():
        quadrants = {(sgn(re), sgn(im)) for re, im in points}
        assert len(quadrants) == 1


def test_continuation_serves_branches_in_creation_order():
    def branch(g):
        return {"dead": False, "points": [(0, 1.0, complex(g), "propagating")]}

    # 1.25 is nearest to both real branches and closer to the younger one
    # (at 1.2); the older one (at 1.0) still takes it, the younger takes
    # 2.0, the imaginary branch finds no value in its quadrant and dies,
    # and -1.0 is left over and starts a branch
    branches = [branch(1.0), branch(1.2), branch(3.0j)]
    values = np.array([2.0, 1.25, -1.0], dtype=complex)
    classes = np.array([SpectrumClass.PROPAGATING] * 3, dtype=object)
    _continue_branches(branches, values, classes, 1, 2.0)
    assert [[p[2] for p in b["points"]] for b in branches] == [
        [1.0, 1.25], [1.2, 2.0], [3.0j], [-1.0]]
    assert [b["dead"] for b in branches] == [False, False, True, False]
    assert branches[3]["points"] == [(1, 2.0, -1.0 + 0j, "propagating")]


def reference_continue(branches, values, classes, step, eps2):
    """The per-branch continuation loop: one scan of the free values each."""
    quadrant = cli._quadrant(values)
    free = np.ones(len(values), dtype=bool)
    live = [b for b in branches if not b["dead"]]
    lasts = np.array([b["points"][-1][2] for b in live], dtype=complex)
    for branch, last, q in zip(live, lasts, cli._quadrant(lasts)):
        cands = np.flatnonzero(free & (quadrant == q))
        if len(cands) == 0:
            branch["dead"] = True
            continue
        pick = cands[np.argmin(np.abs(values[cands] - last))]
        free[pick] = False
        branch["points"].append((step, eps2, complex(values[pick]),
                                 classes[pick].value))
    for idx in np.flatnonzero(free):
        branches.append({"dead": False,
                         "points": [(step, eps2, complex(values[idx]),
                                     classes[idx].value)]})


def continue_both(branches, steps):
    """Branches of both continuations over (values, eps2) steps, asserted
    equal bit for bit (the sign of a zero part included) after each step."""
    ours = [dict(b, points=list(b["points"])) for b in branches]
    ref = [dict(b, points=list(b["points"])) for b in branches]
    for step, (values, eps2) in enumerate(steps, start=1):
        classes = wp.analysis.classify(values, wp.exclusion_interval(1.0, eps2))
        _continue_branches(ours, values, classes, step, eps2)
        reference_continue(ref, values, classes, step, eps2)
        assert [b["dead"] for b in ours] == [b["dead"] for b in ref]
        for a, b in zip(ours, ref):
            assert [(s, e, g.real.hex(), g.imag.hex(), c)
                    for s, e, g, c in a["points"]] == \
                [(s, e, g.real.hex(), g.imag.hex(), c)
                 for s, e, g, c in b["points"]]
        assert len(ours) == len(ref)
    return ours


def spectrum_with_clusters(rng, eps2, n=300):
    """A +-gamma, conjugate-closed spectrum with runs of bit-equal values
    at +-1 and +-sqrt(eps2), some with a negative zero imaginary part."""
    g = rng.standard_normal(n // 4) + 1j * rng.standard_normal(n // 4)
    g[: n // 16] = g[: n // 16].real * 2.0
    g[n // 16: n // 8] = 1j * g[n // 16: n // 8].imag
    runs = [np.full(rng.integers(5, 30), root * sign, dtype=complex)
            for root in (1.0, math.sqrt(eps2)) for sign in (1, -1)]
    runs.append(np.full(4, complex(1.0, -0.0)))
    vals = np.concatenate([g, -g, g.conj(), -g.conj(), *runs])
    return vals[rng.permutation(len(vals))]


def test_continuation_equals_the_per_branch_loop_on_clustered_spectra():
    rng = np.random.default_rng(7)
    eps2s = np.linspace(1.0, 4.0, 8)
    steps = []
    base = spectrum_with_clusters(rng, eps2s[0])
    for eps2 in eps2s:
        # a drifting spectrum that gains and loses values between steps
        moved = base * (1.0 + 0.05 * rng.standard_normal(len(base)))
        moved = moved[rng.random(len(moved)) < 0.9]
        steps.append((np.concatenate(
            [moved, spectrum_with_clusters(rng, eps2, 60)]), eps2))
    branches = continue_both([], steps)
    assert any(b["dead"] for b in branches)
    assert any(len(b["points"]) == len(steps) for b in branches)


def test_continuation_equals_the_per_branch_loop_on_edge_cases():
    def branch(g, dead=False):
        return {"dead": dead, "points": [(0, 1.0, complex(g), "complex")]}

    # far values in two other quadrants, so the searches there see more
    # than 8 distinct values
    far = [10.0 + k for k in range(10)] + [(10.0 + k) * (1 - 1j)
                                           for k in range(10)]
    branches = [
        # more live branches in the first quadrant than values there
        branch(1 + 1j), branch(2 + 1j), branch(3 + 1j), branch(4 + 1j),
        # dead branches stay dead and take nothing
        branch(1.5 + 1.0j, dead=True), branch(-2.0, dead=True),
        # equal distance to two distinct values: the lower index wins
        branch(1.5), branch(-1.5 + 1.5j),
    ]
    values = np.array([2.0, 1.0, 1.5 + 1.0j, -1.5 + 2.5j, -1.5 + 0.5j,
                       *far, 2.0, 1.0], dtype=complex)
    ours = continue_both(branches, [(values, 2.0)])
    assert [p[2] for p in ours[0]["points"]] == [1 + 1j, 1.5 + 1j]
    assert [b["dead"] for b in ours[:6]] == [False] + [True] * 5
    assert all(len(b["points"]) == 1 for b in ours[1:6])
    assert [p[2] for p in ours[6]["points"]] == [1.5, 2.0]
    assert [p[2] for p in ours[7]["points"]] == [-1.5 + 1.5j, -1.5 + 2.5j]


def test_continuation_breaks_a_tie_past_the_8_nearest_by_index():
    # seven branches keep their own values; the eighth, at 5 + 5i, finds
    # those seven taken and twelve free values at exactly 1.25, of which
    # only one is among its 8 nearest: the lowest index wins, as in a scan
    centre = 5 + 5j
    near = [centre + 0.01 * (k + 1) for k in range(7)]
    ring = [centre + complex(x, y) for x, y in
            [(0.75, 1.0), (-0.75, 1.0), (0.75, -1.0), (-0.75, -1.0),
             (1.0, 0.75), (-1.0, 0.75), (1.0, -0.75), (-1.0, -0.75),
             (1.25, 0.0), (-1.25, 0.0), (0.0, 1.25), (0.0, -1.25)]]
    rng = np.random.default_rng(3)
    for _ in range(6):
        values = np.array(near + [ring[i] for i in rng.permutation(12)])
        branches = [{"dead": False, "points": [(0, 1.0, g, "complex")]}
                    for g in near + [centre]]
        ours = continue_both(branches, [(values[rng.permutation(19)], 2.0)])
        assert abs(ours[7]["points"][1][2] - centre) == 1.25


def test_a_failed_step_ends_the_sweep_as_an_input_error(tmp_path, capsys,
                                                        monkeypatch):
    # step 1 of 3 (eps2 = 2.5) raises while the others may still run
    solve = eigensolver.solve_pencil

    def failing(pencil, **kwargs):
        if pencil.exclusion.eps2 == 2.5:
            raise eigensolver.EigensolverError("step 1 cannot be solved")
        return solve(pencil, **kwargs)

    monkeypatch.setattr(eigensolver, "solve_pencil", failing)
    monkeypatch.setenv("WAVEPENCIL_WORKERS", "2")
    cfg = write(tmp_path, "cfg.ini", SMALL_HOMOG.replace("nx = 8", "nx = 4")
                .replace("ny = 8", "ny = 4"))
    out = tmp_path / "out"
    before = set(threading.enumerate())
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--eps2-from", "2.0", "--eps2-to", "3.0", "--steps", "3"])
    assert code == 2
    assert "error: step 1 cannot be solved" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    assert [t for t in threading.enumerate()
            if t not in before and t.is_alive()] == []


def test_sweep_subcommand_wiring(tmp_path):
    cfg = write(tmp_path, "cfg.ini",
                SMALL_HOMOG.replace("nx = 8", "nx = 4")
                           .replace("ny = 8", "ny = 4"))
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                 "--eps2-from", "2.0", "--eps2-to", "2.5", "--steps", "2"])
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "step_000" / "spectrum.json").exists()
    assert (tmp_path / "step_001" / "spectrum.json").exists()


def test_sweep_loads_a_mesh_file_once(tmp_path, monkeypatch):
    # a mesh file is loaded and a generated grid built once per sweep
    mesh_path = write(tmp_path, "slit.txt", build_slit_mesh_text())
    cases = (("load_mesh", wp.load_mesh, SMALL_SLAB.replace(
                 "kind = rect_slab", f"kind = file\npath = {mesh_path}")),
             ("generate_rect_slab", wp.generate_rect_slab, SMALL_SLAB))
    for name, make, text in cases:
        cfg = parse_config(text)
        calls = []

        def counted(*args):
            calls.append(args)
            return make(*args)

        monkeypatch.setattr(cli, name, counted)
        out = tmp_path / name
        sweep(cfg, out, 1.0, 4.0, 3, workers=2)
        assert len(calls) == 1
        # each step writes what a solve of its own eps2 writes
        for step, eps2 in enumerate((1.0, 2.5, 4.0)):
            alone = tmp_path / f"{name}_alone_{step}"
            cli.run(cfg.with_eps2(eps2), alone)
            names = sorted(f.name for f in alone.iterdir())
            assert names == sorted(f.name for f in
                                   (out / f"step_{step:03d}").iterdir())
            for artifact in names:
                assert (alone / artifact).read_bytes() == \
                    (out / f"step_{step:03d}" / artifact).read_bytes()


def test_a_mesh_in_two_pieces_is_an_input_error(tmp_path, capsys):
    mesh_path = write(tmp_path, "mesh.txt", two_slabs_text((PI + 1.0, 0.0)))
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB.replace(
        "kind = rect_slab", f"kind = file\npath = {mesh_path}"))
    for command in ("solve", "verify"):
        out = tmp_path / command
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "more than one piece: node 25 " in capsys.readouterr().err
        assert not out.exists()


def test_sweep_artifacts_do_not_depend_on_worker_count(tmp_path):
    cfg = parse_config(SMALL_SLAB.replace("nx = 6", "nx = 4")
                       .replace("ny = 6", "ny = 4"))
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"workers_{workers}"
        sweep(cfg, out, 1.0, 4.0, 3, workers=workers)
        outs.append(out)
    names = sorted(str(f.relative_to(outs[0])) for f in outs[0].rglob("*")
                   if f.is_file())
    assert "sweep.csv" in names and "step_002/spectrum.json" in names
    assert names == sorted(str(f.relative_to(outs[1]))
                           for f in outs[1].rglob("*") if f.is_file())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_sweep_rejects_a_bad_worker_variable(tmp_path, capsys, monkeypatch,
                                             value):
    monkeypatch.setenv("WAVEPENCIL_WORKERS", value)
    cfg = write(tmp_path, "cfg.ini", SMALL_HOMOG)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--eps2-from", "2.0", "--eps2-to", "2.5", "--steps", "2"])
    assert code == 2
    assert (f"WAVEPENCIL_WORKERS must be a positive integer (got {value!r})"
            in capsys.readouterr().err)
    assert not out.exists()


def test_sweep_validates_range(tmp_path):
    cfg = parse_config(SMALL_HOMOG)
    with pytest.raises(ConfigError):
        sweep(cfg, tmp_path, 0.5, 2.0, 3)
    with pytest.raises(ConfigError):
        sweep(cfg, tmp_path, 2.0, 3.0, 1)
    with pytest.raises(ConfigError, match="at least 1 worker"):
        sweep(cfg, tmp_path, 2.0, 3.0, 3, workers=0)


def test_run_forms_each_operator_once(tmp_path, monkeypatch):
    # the solve forms the four operators and verify reads the held ones;
    # the volume-route S is verify's own reassembly
    calls = {}
    for module, name in ((wp.assembly, "assemble_k"),
                         (wp.assembly, "assemble_a1"),
                         (wp.assembly, "assemble_a2"),
                         (wp.assembly, "assemble_s_line"),
                         (analysis, "assemble_s_volume")):
        def counted(*args, _form=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _form(*args)

        monkeypatch.setattr(module, name, counted)
    cfg = parse_config(SMALL_SLAB.replace("verify_decay_slope = false",
                                          "verify_decay_slope = true"),
                       source="inline")
    result = cli.run(cfg, tmp_path / "out")
    assert result.report.all_passed
    assert calls == {"assemble_k": 1, "assemble_a1": 1, "assemble_a2": 1,
                     "assemble_s_line": 1, "assemble_s_volume": 1}


def test_run_computes_each_nodal_form_once(tmp_path, monkeypatch):
    # K, A1 and A2 are formed from the pencil's nodal forms, and verify
    # and the Gram blocks read the same ones: three stiffness and two mass
    # forms in all
    calls = {}
    for name in ("nodal_stiffness", "nodal_mass"):
        def counted(*args, _form=getattr(wp.assembly_kernels, name),
                    _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _form(*args)

        monkeypatch.setattr(wp.assembly_kernels, name, counted)
    cfg = parse_config(SMALL_SLAB.replace("verify_decay_slope = false",
                                          "verify_decay_slope = true"),
                       source="inline")
    result = cli.run(cfg, tmp_path / "out")
    assert result.report.all_passed
    assert calls == {"nodal_stiffness": 3, "nodal_mass": 2}
