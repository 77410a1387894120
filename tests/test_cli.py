import json
import math

import numpy as np
import pytest

import wavepencil as wp
from wavepencil.cli import main, sweep
from wavepencil.config import ConfigError, parse_config

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
kind = homogeneous_rect
width = 3.141592653589793
height = 3.141592653589793
interface_x = 1.5707963267948966
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
    assert cfg.grid() == (6, 6)
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


def test_verify_subcommand_fails_on_corrupted_mesh_file(tmp_path):
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
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    failed = {chk["check"] for chk in report if not chk["passed"]}
    assert failed & {"hermiticity_s", "s_line_volume_agreement"}


def test_oracle_subcommand_writes_csv(tmp_path):
    cfg = write(tmp_path, "cfg.ini", SMALL_SLAB)
    code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "oracle_compare.csv").read_text().splitlines()
    assert lines[0] == "family,m,n,re_gamma,im_gamma,residual"
    assert len(lines) > 1


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


def test_sweep_validates_range(tmp_path):
    cfg = parse_config(SMALL_HOMOG)
    with pytest.raises(ConfigError):
        sweep(cfg, tmp_path, 0.5, 2.0, 3)
    with pytest.raises(ConfigError):
        sweep(cfg, tmp_path, 2.0, 3.0, 1)
