"""Flat key = value configuration with sections, parsed with line numbers.

The format is deliberately primitive (INI subset, full-line comments
only) so any tooling can write it; every validation error carries the
source line it came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import math


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Pipeline configuration: geometry, materials, tolerances, outputs."""

    # geometry
    kind: str = "rect_slab"            # rect_slab | homogeneous_rect | file
    width: float = math.pi
    height: float = math.pi
    slab_x: float = math.pi / 2.0
    nx: int = 8
    ny: int = 8
    mesh_path: str = ""
    # material
    eps1: float = 1.0
    eps2: float = 1.0
    # solver
    refinement: int = 1
    classification_tol: float = 1e-6
    residual_tol: float = 1e-8
    compute_vectors: bool = False
    verify_decay_slope: bool = True
    # oracle
    oracle_enabled: bool = True
    oracle_families: tuple = ("lse", "lsm")
    oracle_transverse_index: int = 0
    oracle_gamma_max: float = 4.0
    oracle_exclusion_margin: float = 0.1
    oracle_match_rel_tol: float = 0.02
    # output file names (relative to the output directory)
    spectrum_file: str = "spectrum.json"
    report_file: str = "report.json"
    oracle_file: str = "oracle_compare.csv"
    plot_file: str = "plot.csv"

    def with_refinement(self, k):
        return replace(self, refinement=int(k))

    def with_eps2(self, value):
        return replace(self, eps2=float(value))

    def grid(self):
        """Effective (nx, ny) after uniform refinement."""
        return self.nx * self.refinement, self.ny * self.refinement


_SCHEMA = {
    "geometry": {
        "kind": ("kind", str),
        "width": ("width", float),
        "height": ("height", float),
        "slab_x": ("slab_x", float),
        "interface_x": ("slab_x", float),
        "nx": ("nx", int),
        "ny": ("ny", int),
        "path": ("mesh_path", str),
    },
    "material": {
        "eps1": ("eps1", float),
        "eps2": ("eps2", float),
    },
    "solver": {
        "refinement": ("refinement", int),
        "classification_tol": ("classification_tol", float),
        "residual_tol": ("residual_tol", float),
        "compute_vectors": ("compute_vectors", bool),
        "verify_decay_slope": ("verify_decay_slope", bool),
    },
    "oracle": {
        "enabled": ("oracle_enabled", bool),
        "families": ("oracle_families", "families"),
        "transverse_index": ("oracle_transverse_index", int),
        "gamma_max": ("oracle_gamma_max", float),
        "exclusion_margin": ("oracle_exclusion_margin", float),
        "match_rel_tol": ("oracle_match_rel_tol", float),
    },
    "output": {
        "spectrum": ("spectrum_file", str),
        "report": ("report_file", str),
        "oracle_csv": ("oracle_file", str),
        "plot_csv": ("plot_file", str),
    },
}


def _convert(raw, kind, where):
    if kind is str:
        return raw
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{where}: not a number: {raw!r}") from None
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: not an integer: {raw!r}") from None
    if kind is bool:
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{where}: not a boolean: {raw!r}")
    if kind == "families":
        fams = tuple(p.strip().lower() for p in raw.split(",") if p.strip())
        for f in fams:
            if f not in ("lse", "lsm"):
                raise ConfigError(f"{where}: unknown family {f!r}")
        if not fams:
            raise ConfigError(f"{where}: empty family list")
        return fams
    raise AssertionError(kind)


def parse_config(text, source="<config>"):
    """Parse and validate; raises ConfigError with 'source:line: message'."""
    fields = {}
    lines_seen = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        where = f"{source}:{lineno}"
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"{where}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        spec = _SCHEMA[section].get(key)
        if spec is None:
            raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
        attr, kind = spec
        if attr in lines_seen:
            raise ConfigError(f"{where}: {key!r} already set on line "
                              f"{lines_seen[attr]}")
        fields[attr] = _convert(value, kind, where)
        lines_seen[attr] = lineno

    cfg = SolverConfig(**fields)
    _validate(cfg, source, lines_seen)
    return cfg


def _where(source, lines_seen, attr):
    if attr in lines_seen:
        return f"{source}:{lines_seen[attr]}"
    return source


def _validate(cfg, source, lines_seen):
    def err(attr, message):
        raise ConfigError(f"{_where(source, lines_seen, attr)}: {message}")

    if cfg.kind not in ("rect_slab", "homogeneous_rect", "file"):
        err("kind", f"unknown geometry kind {cfg.kind!r}")
    if cfg.kind == "file":
        if not cfg.mesh_path:
            err("mesh_path", "geometry kind 'file' requires path = <mesh file>")
        if cfg.refinement != 1:
            err("refinement", "file meshes cannot be refined; set refinement = 1")
    else:
        if cfg.width <= 0.0 or cfg.height <= 0.0:
            err("width", "width and height must be positive")
        if cfg.nx < 2 or cfg.ny < 2:
            err("nx", "nx and ny must be at least 2")
        if not (0.0 < cfg.slab_x < cfg.width):
            err("slab_x", "slab_x must lie strictly inside (0, width)")
    if cfg.eps1 < 1.0:
        err("eps1", f"eps1 must be >= 1 (got {cfg.eps1})")
    if cfg.eps2 < 1.0:
        err("eps2", f"eps2 must be >= 1 (got {cfg.eps2})")
    if cfg.refinement < 1:
        err("refinement", "refinement must be >= 1")
    for attr in ("classification_tol", "residual_tol", "oracle_gamma_max",
                 "oracle_match_rel_tol"):
        if getattr(cfg, attr) <= 0.0:
            err(attr, f"{attr} must be positive")
    if cfg.oracle_exclusion_margin < 0.0:
        err("oracle_exclusion_margin", "exclusion margin must be >= 0")
    if cfg.oracle_transverse_index < 0:
        err("oracle_transverse_index", "transverse_index must be >= 0")


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))
