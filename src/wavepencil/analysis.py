"""Spectrum classification and discrete verification of the spectral theory.

Every property the operator construction guarantees is re-checked on the
assembled matrices and the computed spectrum: Hermiticity, positivity,
the Rayleigh-quotient bounds of the two gradient operators and of the
interface coupling, the parity/conjugation identities of the pencil, the
two-route interface assembly agreement, the four-fold symmetry of the
eigenvalue set, and the eigenvalue decay of the L2 operator.  Failures
are data, not exceptions; the report carries one named check per
property with its measured margin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import linalg
from scipy.spatial import cKDTree

from . import assembly_kernels as kernels
from .assembly import assemble_s_line, assemble_s_volume
from .eigensolver import numerical_nullity
from .pencil import ExclusionInterval, degeneration_points, evaluate


class SpectrumClass(str, Enum):
    PROPAGATING = "propagating"
    EVANESCENT = "evanescent"
    COMPLEX = "complex"
    DEGENERATION_ADJACENT = "degeneration_adjacent"
    IN_EXCLUSION = "in_exclusion"


class DegenerationError(ValueError):
    """Field reconstruction requested at (or too close to) a degeneration value."""


def classify(gamma, exclusion, tol=1e-6):
    """Classify one eigenvalue against the exclusion interval.

    Degeneration neighbourhoods take precedence, then the real exclusion
    band; remaining values are real (propagating), pure imaginary
    (evanescent/decaying) or fully complex, with |.| <= tol * (1 + |gamma|)
    as the axis test.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    g = complex(gamma)
    scale = 1.0 + abs(g)
    for eps in (exclusion.eps1, exclusion.eps2):
        root = math.sqrt(eps)
        if min(abs(g - root), abs(g + root)) <= tol * (1.0 + root):
            return SpectrumClass.DEGENERATION_ADJACENT
    is_real = abs(g.imag) <= tol * scale
    is_imag = abs(g.real) <= tol * scale
    if is_real and exclusion.contains(abs(g.real)):
        return SpectrumClass.IN_EXCLUSION
    if is_real:
        return SpectrumClass.PROPAGATING
    if is_imag:
        return SpectrumClass.EVANESCENT
    return SpectrumClass.COMPLEX


@dataclass
class PairingReport:
    """Nearest-partner matching of the spectrum under its three symmetries."""

    partners: dict          # map name -> (index array, distance array)
    max_normalized: float   # worst distance / (1 + |gamma|)
    violations: dict        # map name -> indices beyond tolerance
    tol: float

    @property
    def ok(self):
        return all(len(v) == 0 for v in self.violations.values())


def _match_multiset(values, targets):
    """Greedy unique nearest matching of targets into values.

    Both arrays are complex of equal length; returns (indices, distances)
    such that values[indices[k]] is the partner of targets[k] and every
    value is used exactly once.
    """
    pts = np.column_stack([values.real, values.imag])
    tree = cKDTree(pts)
    k = min(len(values), 8)
    dist, idx = tree.query(np.column_stack([targets.real, targets.imag]), k=k)
    dist = np.asarray(dist).reshape(len(targets), k)
    idx = np.asarray(idx).reshape(len(targets), k)
    order = np.argsort(dist[:, 0], kind="stable")
    taken = np.zeros(len(values), dtype=bool)
    out_idx = np.full(len(targets), -1, dtype=int)
    out_dist = np.full(len(targets), np.inf)
    leftovers = []
    for t in order:
        for j, cand in enumerate(idx[t]):
            if not taken[cand]:
                taken[cand] = True
                out_idx[t] = cand
                out_dist[t] = dist[t, j]
                break
        else:
            leftovers.append(t)
    if leftovers:
        free = np.where(~taken)[0]
        for t in leftovers:
            d = np.abs(values[free] - targets[t])
            j = int(np.argmin(d))
            out_idx[t] = free[j]
            out_dist[t] = d[j]
            free = np.delete(free, j)
    return out_idx, out_dist


def symmetry_pairing(eigenvalues, tol=1e-8):
    """Match every eigenvalue with its -g, conj(g) and -conj(g) partners.

    The matching is a permutation of the multiset per symmetry; entries
    whose partner distance exceeds tol * (1 + |g|) are reported as
    violations.
    """
    vals = np.asarray(eigenvalues, dtype=complex)
    scale = 1.0 + np.abs(vals)
    partners = {}
    violations = {}
    worst = 0.0
    for name, target in (("neg", -vals), ("conj", np.conj(vals)),
                         ("negconj", -np.conj(vals))):
        idx, dist = _match_multiset(vals, target)
        partners[name] = (idx, dist)
        normalized = dist / scale
        violations[name] = np.where(normalized > tol)[0]
        if len(vals):
            worst = max(worst, float(normalized.max()))
    return PairingReport(partners=partners, max_normalized=worst,
                         violations=violations, tol=tol)


@dataclass
class SpectrumEntry:
    gamma: complex
    cls: SpectrumClass
    residual: float | None
    partner_neg: int
    partner_conj: int
    partner_negconj: int


@dataclass
class Spectrum:
    """Classified eigenvalue list with symmetry partners and counts."""

    entries: list
    exclusion: ExclusionInterval
    pairing: PairingReport
    counts: dict
    max_abs_real: float

    @property
    def eigenvalues(self):
        return np.array([e.gamma for e in self.entries], dtype=complex)

    def of_class(self, cls):
        return [e for e in self.entries if e.cls is cls]


def build_spectrum(eigenvalues, exclusion, tol=1e-6, pairing_tol=1e-8,
                   residuals=None):
    """Classify eigenvalues and resolve their symmetry partners."""
    vals = np.asarray(eigenvalues, dtype=complex)
    pairing = symmetry_pairing(vals, tol=pairing_tol)
    entries = []
    counts = {cls: 0 for cls in SpectrumClass}
    for i, g in enumerate(vals):
        cls = classify(g, exclusion, tol=tol)
        counts[cls] += 1
        entries.append(SpectrumEntry(
            gamma=complex(g),
            cls=cls,
            residual=None if residuals is None else float(residuals[i]),
            partner_neg=int(pairing.partners["neg"][0][i]),
            partner_conj=int(pairing.partners["conj"][0][i]),
            partner_negconj=int(pairing.partners["negconj"][0][i]),
        ))
    max_abs_real = float(np.abs(vals.real).max()) if len(vals) else 0.0
    return Spectrum(entries=entries, exclusion=exclusion, pairing=pairing,
                    counts=counts, max_abs_real=max_abs_real)


def count_real_outside_exclusion(spectrum):
    """Real eigenvalues off the exclusion band (the finite real spectrum)."""
    return spectrum.counts[SpectrumClass.PROPAGATING]


def count_in_disk(eigenvalues, radius, exclusion, band_margin=0.1):
    """Eigenvalues with |g| <= radius, excluding the dilated real band."""
    vals = np.asarray(eigenvalues, dtype=complex)
    lo, hi = exclusion.dilated(band_margin)
    in_disk = np.abs(vals) <= radius
    in_band = (np.abs(vals.imag) <= band_margin) \
        & (np.abs(vals.real) >= lo) & (np.abs(vals.real) <= hi)
    return int(np.sum(in_disk & ~in_band))


def degeneration_scan(pencils, rel_tol=1e-8):
    """Numerical nullity of L at each degeneration value, per refinement.

    Returns (gammas, table) where table[r][g] is the nullity for the r-th
    pencil; the counts must be nondecreasing under refinement.
    """
    if len(pencils) < 2:
        raise ValueError("need at least two refinement levels")
    eps = (pencils[0].eps1, pencils[0].eps2)
    if any((p.eps1, p.eps2) != eps for p in pencils):
        raise ValueError("all pencils must share the same permittivities")
    gammas = degeneration_points(*eps)
    table = [{g: numerical_nullity(p, g, rel_tol=rel_tol) for g in gammas}
             for p in pencils]
    return gammas, table


@dataclass
class TransverseFields:
    """Per-triangle constant transverse field components."""

    e1: np.ndarray
    e2: np.ndarray
    h1: np.ndarray
    h2: np.ndarray


def transverse_fields(pi_nodal, psi_nodal, gamma, mesh, eps1, eps2, tol=1e-9):
    """Reconstruct the transverse fields from the longitudinal pair.

    Uses the per-region scalar ktilde^2 = eps - gamma^2 and the constant
    element gradients; refuses when gamma^2 comes within tolerance of a
    permittivity, where the longitudinal reduction is not valid.
    """
    g = complex(gamma)
    g2 = g * g
    eps = np.where(mesh.regions == 1, eps1, eps2)
    k2 = eps - g2
    if np.min(np.abs(k2)) <= tol * (1.0 + abs(g2)):
        raise DegenerationError(
            "gamma^2 is numerically at a permittivity value; the transverse "
            "reconstruction is not defined there")
    _, grads = kernels.triangle_geometry(mesh)
    tri = mesh.triangles
    dpi = np.einsum("ta,tad->td", np.asarray(pi_nodal)[tri], grads)
    dpsi = np.einsum("ta,tad->td", np.asarray(psi_nodal)[tri], grads)
    coeff = 1j / k2
    e1 = coeff * (g * dpi[:, 0] - dpsi[:, 1])
    e2 = coeff * (g * dpi[:, 1] + dpsi[:, 0])
    h1 = coeff * (eps * dpi[:, 1] + g * dpsi[:, 0])
    h2 = coeff * (-eps * dpi[:, 0] + g * dpsi[:, 1])
    return TransverseFields(e1=e1, e2=e2, h1=h1, h2=h2)


def _field_blocks(matrices):
    """Index slices of the electric and the magnetic field block."""
    n_pi = matrices.spaces.n_pi
    return slice(0, n_pi), slice(n_pi, matrices.n)


def _block_eigvals(op, matrices):
    """Generalized eigenvalues of a block-diagonal operator against G.

    The union, ascending, of the eigenvalues of the symmetrised diagonal
    blocks against the matching Gram blocks; equal to those of the full
    symmetrised operator when its off-diagonal blocks vanish.
    """
    g = matrices.gram
    vals = [linalg.eigh(0.5 * (op[b, b] + op[b, b].T), g[b, b],
                        eigvals_only=True) for b in _field_blocks(matrices)]
    return np.sort(np.concatenate(vals))


def _s_bound(matrices):
    """Largest |generalized eigenvalue| of the symmetrised S against G.

    S is block off-diagonal with upper-right block F (symmetrised), so with
    G_pi = L_pi L_pi^T and G_psi = L_psi L_psi^T the eigenvalues are
    +-sigma_i(L_pi^-1 F L_psi^-T) and zeros; the bound is sigma_max.
    """
    e, m = _field_blocks(matrices)
    s, g = matrices.s, matrices.gram
    f = 0.5 * (s[e, m] + s[m, e].T)
    l_pi = linalg.cholesky(g[e, e], lower=True)
    l_psi = linalg.cholesky(g[m, m], lower=True)
    x = linalg.solve_triangular(l_pi, f, lower=True)
    x = linalg.solve_triangular(l_psi, x.T, lower=True)
    return float(linalg.svdvals(x)[0])


def k_decay_slope(matrices, fraction=1.0 / 3.0):
    """Log-log slope of the generalized L2 eigenvalues over the lowest modes.

    Eigenvalues of (K, G) sorted descending behave like C/n; the fit runs
    over the first ``fraction`` of the indices, where the continuum decay
    law is resolved by the mesh.  K and G are block diagonal, so the
    eigenvalues are those of the two field blocks.
    """
    vals = _block_eigvals(matrices.k, matrices)[::-1]
    n_fit = max(int(len(vals) * fraction), 3)
    ns = np.arange(1, n_fit + 1, dtype=float)
    slope = np.polyfit(np.log(ns), np.log(vals[:n_fit]), 1)[0]
    return float(slope)


@dataclass
class PropertyCheck:
    name: str
    margin: float
    threshold: float
    sense: str          # "<=" or ">="
    passed: bool

    def to_dict(self):
        return {"check": self.name, "margin": self.margin,
                "threshold": self.threshold, "sense": self.sense,
                "passed": self.passed}


@dataclass
class PropertyReport:
    checks: list = field(default_factory=list)

    def add(self, name, margin, threshold, sense):
        margin = float(margin)
        passed = margin <= threshold if sense == "<=" else margin >= threshold
        self.checks.append(PropertyCheck(name, margin, float(threshold),
                                         sense, bool(passed)))

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self, indent=2):
        return json.dumps([c.to_dict() for c in self.checks], indent=indent)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _max_asym(m):
    return float(np.abs(m - m.conj().T).max())


def verify_all(matrices, pencil=None, spectrum=None,
               include_decay_slope=False, seed=0, n_random=10):
    """Run every discretely checkable property and report margins.

    Failures are returned in the report, not raised; the CLI maps a failed
    report to a nonzero exit status.  K positivity and the operator bounds
    are read from the field blocks; where ``parity_block_structure`` fails,
    the report fails already, and the bounds are then those of the blocks.
    """
    rep = PropertyReport()
    eps_max = matrices.eps_max

    for name, mat in (("hermiticity_k", matrices.k), ("hermiticity_a1", matrices.a1),
                      ("hermiticity_a2", matrices.a2), ("hermiticity_s", matrices.s)):
        rep.add(name, _max_asym(mat), 1e-14, "<=")

    k_min = min(float(linalg.eigh(matrices.k[b, b], eigvals_only=True,
                                  subset_by_index=(0, 0))[0])
                for b in _field_blocks(matrices))
    rep.add("k_positive_definite", k_min, 0.0, ">=")
    # strict positivity: flip the pass flag if exactly zero
    if k_min <= 0.0:
        rep.checks[-1].passed = False

    a1_eigs = _block_eigvals(matrices.a1, matrices)
    rep.add("a1_bound_lower", a1_eigs[0], 1.0 - 1e-10, ">=")
    rep.add("a1_bound_upper", a1_eigs[-1], eps_max + 1e-10, "<=")
    a2_eigs = _block_eigvals(matrices.a2, matrices)
    rep.add("a2_bound_lower", a2_eigs[0], 1.0 / eps_max - 1e-10, ">=")
    rep.add("a2_bound_upper", a2_eigs[-1], 1.0 + 1e-10, "<=")
    rep.add("s_bound", _s_bound(matrices), 0.5 + 1e-10, "<=")

    p = matrices.spaces.parity_signs()
    parity = max(
        float(np.abs(p[:, None] * matrices.a1 * p[None, :] - matrices.a1).max()),
        float(np.abs(p[:, None] * matrices.a2 * p[None, :] - matrices.a2).max()),
        float(np.abs(p[:, None] * matrices.k * p[None, :] - matrices.k).max()),
        float(np.abs(p[:, None] * matrices.s * p[None, :] + matrices.s).max()),
    )
    rep.add("parity_block_structure", parity, 0.0, "<=")

    s_line = assemble_s_line(matrices.spaces)
    s_vol = assemble_s_volume(matrices.spaces)
    rep.add("s_line_volume_agreement", float(np.abs(s_line - s_vol).max()),
            1e-12, "<=")
    rep.add("s_matches_reassembly",
            min(float(np.abs(matrices.s - s_line).max()),
                float(np.abs(matrices.s - s_vol).max())), 1e-12, "<=")

    if pencil is not None:
        rng = np.random.default_rng(seed)
        p_scale = pencil.exclusion.p
        worst1 = 0.0
        worst2 = 0.0
        signs = matrices.spaces.parity_signs()
        for _ in range(n_random):
            gam = p_scale * complex(rng.standard_normal(), rng.standard_normal())
            lg = evaluate(pencil, gam)
            denom = np.linalg.norm(lg, "fro")
            worst1 = max(worst1, float(
                np.linalg.norm(lg.conj().T - evaluate(pencil, np.conj(gam)), "fro")
                / denom))
            plp = signs[:, None] * lg * signs[None, :]
            worst2 = max(worst2, float(
                np.linalg.norm(plp - evaluate(pencil, -gam), "fro") / denom))
        rep.add("pencil_selfadjoint", worst1, 1e-13, "<=")
        rep.add("pencil_parity", worst2, 1e-13, "<=")

    if spectrum is not None:
        pairing = spectrum.pairing
        for name in ("conj", "neg", "negconj"):
            idx, dist = pairing.partners[name]
            scale = 1.0 + np.abs(spectrum.eigenvalues)
            margin = float((dist / scale).max()) if len(dist) else 0.0
            tol = 1e-10 if name == "conj" else 1e-8
            rep.add(f"symmetry_{name}_closure", margin, tol, "<=")
        worst = 0.0
        vals = spectrum.eigenvalues
        for e in spectrum.entries:
            if e.cls is not SpectrumClass.COMPLEX:
                continue
            scale = 1.0 + abs(e.gamma)
            for name, target in (("neg", -e.gamma),
                                 ("conj", e.gamma.conjugate()),
                                 ("negconj", -e.gamma.conjugate())):
                partner = vals[getattr(e, f"partner_{name}")]
                worst = max(worst, abs(partner - target) / scale)
        rep.add("complex_quadruples", worst, 1e-8, "<=")
        if matrices.eps1 == matrices.eps2:
            g2 = vals * vals
            margin = float((np.abs(g2.imag) / (1.0 + np.abs(g2))).max()) \
                if len(vals) else 0.0
            rep.add("homogeneous_no_complex_waves", margin, 1e-8, "<=")

    if include_decay_slope:
        slope = k_decay_slope(matrices)
        rep.add("k_decay_slope_dev", abs(slope + 1.0), 0.3, "<=")

    return rep
