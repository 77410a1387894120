"""Normal-wave spectra of shielded waveguide cross-sections.

The cross-section eigenproblem for the two longitudinal field components
is discretised with linear triangles and reduced to a quartic matrix
pencil in the axial propagation constant; the package assembles the
pencil, solves it through a companion linearization, classifies the
spectrum, verifies every discretely checkable spectral property, and
compares the spectrum of a dielectric slab with an independent analytic
oracle.
"""

from .analysis import (SpectrumClass, build_spectrum, classify,
                       degeneration_scan, symmetry_pairing, verify_all)
from .assembly import (PencilMatrices, assemble_a1, assemble_a2, assemble_k,
                       assemble_matrices, assemble_s_line, assemble_s_volume)
from .config import ConfigError, SolverConfig, load_config, parse_config
from .eigensolver import EigenReport, balance, qr_eigenvalues, solve_pencil
from .mesh import (Mesh, MeshError, generate_homogeneous_rect,
                   generate_rect_slab, load_mesh, save_mesh)
from .oracle import OracleFamily, OracleRoot, slab_dispersion_roots
from .pencil import (ExclusionInterval, evaluate, exclusion_interval,
                     linearize, make_pencil, residual)
from .spaces import FieldSpaces, build_spaces

__version__ = "0.1.0"

__all__ = [
    "EigenReport", "ExclusionInterval", "FieldSpaces", "Mesh", "MeshError",
    "OracleFamily", "OracleRoot", "PencilMatrices", "SolverConfig",
    "SpectrumClass", "ConfigError",
    "assemble_a1", "assemble_a2", "assemble_k", "assemble_matrices",
    "assemble_s_line", "assemble_s_volume", "balance", "build_spaces",
    "build_spectrum", "classify", "degeneration_scan", "evaluate",
    "exclusion_interval", "generate_homogeneous_rect", "generate_rect_slab",
    "linearize", "load_config", "load_mesh", "make_pencil", "parse_config",
    "qr_eigenvalues", "residual", "save_mesh", "slab_dispersion_roots",
    "solve_pencil", "symmetry_pairing", "verify_all",
]
