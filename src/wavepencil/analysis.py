"""Spectrum classification and discrete verification of the spectral theory.

Every property the operator construction guarantees is re-checked on the
assembled matrices and the computed spectrum: Hermiticity, positivity,
the Rayleigh-quotient bounds of the two gradient operators and of the
interface coupling, the parity/conjugation identities of the pencil, the
two-route interface assembly agreement, the four-fold symmetry of the
eigenvalue set, and the eigenvalue decay of the L2 operator.  Failures
are data, not exceptions; the report carries one named check per
property with its measured margin.

The pencil identities are linear in the four real operators, so they are
read as 4x4 Gram forms (Frobenius inner products) of the operators and
of their defects O - O^T, without forming L(g).  Those forms and the
Hermiticity margins are accumulated in one pass over square tiles of the
operators, which allocates no n x n array.  The parity defects are the
electric-magnetic blocks of K, A1 and A2 and the diagonal blocks of S.
Every operator region is read through ``PencilMatrices.block``, which
writes the blocks of an operator the pencil does not hold, so verifying
an assembled pencil forms no operator.  Parity also makes the nullity
at -g that at g, so the degeneration scan counts it once per |g|.  The
gradient operators' bounds are statements about the sign of a quadratic
form, so where the pencil holds its sparse nodal forms each is certified
by the inertia of one sparse factorization (Sylvester's law), not by an
eigensolve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import linalg

from .assembly import (_line_coupling, _volume_coupling, assemble_s_volume,
                       write_block)
from .eigensolver import _symmetric_factor, null_fields, numerical_nullity
from .pencil import ExclusionInterval, _weights, degeneration_points
from .spaces import ROW_BLOCK


#: Bound on the normalized partner distance |partner - target| / (1 + |g|).
SYMMETRY_TOL = 1e-8

#: Relative axis and degeneration tolerance of ``classify``.
CLASSIFICATION_TOL = 1e-6

#: Dilation of the real exclusion band; eigenvalues and oracle roots this
#: close to the band are left out of comparisons.
EXCLUSION_MARGIN = 0.1

#: Edge of the square operator tiles, and the rows of an S difference,
#: that ``verify_all`` forms at a time.
TILE = 128

#: Relative residual ||A x - rho G x|| / (||A x|| + |rho| ||G x||) at which
#: ``_inverse_iteration`` takes rho as the extreme eigenvalue, and its
#: step cap.
RESIDUAL_TOL = 1e-10
MAX_STEPS = 10


class SpectrumClass(str, Enum):
    PROPAGATING = "propagating"
    EVANESCENT = "evanescent"
    COMPLEX = "complex"
    DEGENERATION_ADJACENT = "degeneration_adjacent"
    IN_EXCLUSION = "in_exclusion"


#: The classes by code, and the code of each class, for ``classify``.
_CLASSES = np.array(list(SpectrumClass), dtype=object)
_CODE = {cls: code for code, cls in enumerate(SpectrumClass)}


def classify(gamma, exclusion):
    """Classify eigenvalues against the exclusion interval.

    Degeneration neighbourhoods take precedence, then the real exclusion
    band; remaining values are real (propagating), pure imaginary
    (evanescent/decaying) or fully complex, with
    |.| <= CLASSIFICATION_TOL * (1 + |gamma|) as the axis test.  A scalar
    gives its ``SpectrumClass``, an array an object array of them.
    """
    g = np.asarray(gamma, dtype=complex)
    re, im = g.real, g.imag
    # |z| as hypot(Re z, Im z), which is how Python's abs of a complex
    # rounds it; np.abs of a complex can differ in the last place
    scale = 1.0 + np.hypot(re, im)
    near = np.zeros(g.shape, dtype=bool)
    for eps in (exclusion.eps1, exclusion.eps2):
        root = math.sqrt(eps)
        near |= np.minimum(np.hypot(re - root, im), np.hypot(re + root, im)) \
            <= CLASSIFICATION_TOL * (1.0 + root)
    is_real = np.abs(im) <= CLASSIFICATION_TOL * scale
    is_imag = np.abs(re) <= CLASSIFICATION_TOL * scale
    in_band = exclusion.contains(np.abs(re))
    code = np.select([near, is_real & in_band, is_real, is_imag],
                     [_CODE[SpectrumClass.DEGENERATION_ADJACENT],
                      _CODE[SpectrumClass.IN_EXCLUSION],
                      _CODE[SpectrumClass.PROPAGATING],
                      _CODE[SpectrumClass.EVANESCENT]],
                     _CODE[SpectrumClass.COMPLEX])
    return _CLASSES[code]


@dataclass
class PairingReport:
    """Nearest-partner matching of the spectrum under its three symmetries."""

    partners: dict          # map name -> (index array, distance array)
    normalized: dict        # map name -> distance / (1 + |gamma|)

    @property
    def max_normalized(self):
        return max(float(np.max(d, initial=0.0))
                   for d in self.normalized.values())

    @property
    def violations(self):
        return {name: np.where(d > SYMMETRY_TOL)[0]
                for name, d in self.normalized.items()}


def _match_multiset(values, targets):
    """Unique nearest matching of targets into values.

    Both arrays are complex of equal length; returns (indices, distances)
    such that values[indices[k]] is the partner of targets[k] and every
    value is used exactly once.  A target equal to a value is paired with
    it first, multiplicity by multiplicity, through one sort of each
    array, so a run of equal values (a deflated degeneration point) costs
    no search; the rest are matched greedily, nearest first
    (``_match_nearest``).  On a solve's spectrum the rest is empty: the
    companion's values are +-sqrt(mu) exactly and LAPACK returns exact
    conjugate pairs, so every partner is bit-equal.  Empty inputs give
    empty outputs.
    """
    v_order = np.argsort(values, kind="stable")
    t_order = np.argsort(targets, kind="stable")
    sv, st = values[v_order], targets[t_order]
    first = np.searchsorted(sv, st, side="left")
    equal = np.searchsorted(sv, st, side="right") - first
    rank = np.arange(len(st)) - np.searchsorted(st, st, side="left")
    hit = rank < equal
    out_idx = np.full(len(targets), -1, dtype=int)
    out_idx[t_order[hit]] = v_order[first[hit] + rank[hit]]
    out_dist = np.zeros(len(targets))
    rest_t = np.flatnonzero(out_idx < 0)
    rest_v = np.setdiff1d(np.arange(len(values)), out_idx[out_idx >= 0],
                          assume_unique=True)
    idx, out_dist[rest_t] = _match_nearest(values[rest_v], targets[rest_t])
    out_idx[rest_t] = rest_v[idx]
    return out_idx, out_dist


def _match_nearest(values, targets, order=None):
    """Greedy unique nearest matching of targets into values.

    Each target, in ``order`` (by default nearest first), takes the
    nearest free value |value - target|, the lowest index among equal
    distances, as a scan of the free values would.  The distances are one
    dense block, |targets|·|values|·8 bytes, filled ``ROW_BLOCK`` rows at
    a time from the complex difference of those rows: a taken value's
    column is set to inf, and ``argmin`` gives the first minimum of a
    row.  The symmetry pairing's rest is empty on a solve's spectrum, and
    a continuation quadrant at slab nx = 12 holds at most 292 values, a
    0.7 MB block.  There must be no more targets than values.  Returns
    (indices, distances) as ``_match_multiset``.
    """
    dist = np.empty((len(targets), len(values)))
    for start in range(0, len(targets), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        np.abs(values - targets[rows, None], out=dist[rows])
    if order is None:
        order = np.argsort(dist.min(axis=1, initial=np.inf), kind="stable")
    out_idx = np.empty(len(targets), dtype=int)
    out_dist = np.empty(len(targets))
    for t in order.tolist():
        j = int(np.argmin(dist[t]))
        out_idx[t], out_dist[t] = j, dist[t, j]
        dist[:, j] = np.inf
    return out_idx, out_dist


def symmetry_pairing(eigenvalues):
    """Match every eigenvalue with its -g, conj(g) and -conj(g) partners.

    The matching is a permutation of the multiset per symmetry; entries
    whose partner distance exceeds SYMMETRY_TOL * (1 + |g|) are reported
    as violations.
    """
    vals = np.asarray(eigenvalues, dtype=complex)
    scale = 1.0 + np.abs(vals)
    partners, normalized = {}, {}
    for name, target in (("neg", -vals), ("conj", np.conj(vals)),
                         ("negconj", -np.conj(vals))):
        idx, dist = _match_multiset(vals, target)
        partners[name] = (idx, dist)
        normalized[name] = dist / scale
    return PairingReport(partners=partners, normalized=normalized)


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
    """Classified eigenvalue list with symmetry partners and counts.

    ``classes`` holds the class of each eigenvalue (``classify``), in the
    order of ``eigenvalues`` and ``entries``.
    """

    entries: list
    eigenvalues: np.ndarray
    classes: np.ndarray
    exclusion: ExclusionInterval
    pairing: PairingReport
    counts: dict
    max_abs_real: float


def build_spectrum(eigenvalues, exclusion, residuals=None):
    """Classify eigenvalues and resolve their symmetry partners."""
    vals = np.array(eigenvalues, dtype=complex)
    pairing = symmetry_pairing(vals)
    classes = classify(vals, exclusion)
    listed = classes.tolist()
    counts = {cls: listed.count(cls) for cls in SpectrumClass}
    res = [None] * len(vals) if residuals is None \
        else np.asarray(residuals, dtype=float).tolist()
    partners = (pairing.partners[name][0].tolist()
                for name in ("neg", "conj", "negconj"))
    entries = [SpectrumEntry(*row)
               for row in zip(vals.tolist(), listed, res, *partners)]
    max_abs_real = float(np.max(np.abs(vals.real), initial=0.0))
    return Spectrum(entries=entries, eigenvalues=vals, classes=classes,
                    exclusion=exclusion, pairing=pairing, counts=counts,
                    max_abs_real=max_abs_real)


def count_real_outside_exclusion(spectrum):
    """Real eigenvalues off the exclusion band (the finite real spectrum)."""
    return spectrum.counts[SpectrumClass.PROPAGATING]


def count_in_disk(eigenvalues, radius, exclusion,
                  band_margin=EXCLUSION_MARGIN):
    """Eigenvalues with |g| <= radius, excluding the dilated real band."""
    vals = np.asarray(eigenvalues, dtype=complex)
    lo, hi = exclusion.dilated(band_margin)
    in_disk = np.abs(vals) <= radius
    in_band = (np.abs(vals.imag) <= band_margin) \
        & (np.abs(vals.real) >= lo) & (np.abs(vals.real) <= hi)
    return int(np.sum(in_disk & ~in_band))


def degeneration_count(spaces, eps1, eps2):
    """Nullity of L at each degeneration point, counted from the mesh in O(N).

    Returns {g: count} over ``degeneration_points``: the ``count`` of the
    null fields (``eigensolver.null_fields``), one electric field per null
    node off the shield, and as many magnetic ones as null nodes, or all
    N - 1 when every node is null.
    """
    return {g: null_fields(spaces, eps1, eps2, g).count
            for g in degeneration_points(eps1, eps2)}


def degeneration_scan(pencils):
    """Numerical nullity of L at each degeneration value, per refinement.

    Returns (gammas, table) where table[r][g] is the nullity for the r-th
    pencil; the counts must be nondecreasing under refinement.  Each count
    is ``numerical_nullity``'s, by inertia with no eigensolve, on the
    sparse bordered L(g) (``pencil.bordered``), so no dense operator is
    read or formed; a pencil of operators supplied as arrays has no nodal
    forms, and its ValueError propagates.  The nullity is counted once
    per |g| and reported at both signs: only the coupling is odd in g, so
    the bordered matrix has B(-g) = P B(g) P exactly, P being -1 on the
    electric rows.
    """
    if len(pencils) < 2:
        raise ValueError("need at least two refinement levels")
    eps = (pencils[0].eps1, pencils[0].eps2)
    if any((p.eps1, p.eps2) != eps for p in pencils):
        raise ValueError("all pencils must share the same permittivities")
    gammas = degeneration_points(*eps)
    table = []
    for p in pencils:
        nullity = {g: numerical_nullity(p, g) for g in gammas if g > 0.0}
        table.append({g: nullity[abs(g)] for g in gammas})
    return gammas, table


def _field_spectra(matrices, name, smallest=False, generalized=True):
    """(least, eigenvalues) of operator ``name`` from its two field blocks.

    Each field block is read once (``PencilMatrices.block``).  ``least``,
    when ``smallest``, is the smallest eigenvalue of a block as read (K
    positivity, one eigenvalue of LAPACK ``syevr``), else None.
    ``eigenvalues``, when ``generalized``, is the union, ascending, of
    the eigenvalues of the symmetrised blocks against the matching Gram
    blocks; equal to those of the full symmetrised operator when its
    off-diagonal blocks vanish.  Each block is symmetrised into one
    Fortran-ordered work array and dropped before its Gram block is
    taken from ``matrices.gram_blocks``.  A block bit-identical to its
    Gram block has every eigenvalue exactly 1 and takes no eigensolve.
    Every other block takes one eigenvalues-only ``eigh`` (LAPACK
    ``sygvx``), whose cost is the full tridiagonal reduction; it
    overwrites the work array and the Gram block, which ``gram_blocks``
    writes afresh, so a block holds two arrays of its size, and the two
    blocks take turns.  ``k_decay_slope`` reads the K spectrum from here,
    and ``verify_all`` K positivity and the A1 and A2 bounds of operators
    that were supplied as arrays (``_bound_ends``).
    """
    least, vals = None, []
    grams = matrices.gram_blocks()
    for b in matrices.spaces.blocks:
        op = matrices.block(name, b, b)
        if smallest:
            low = float(linalg.eigh(op, eigvals_only=True,
                                    subset_by_index=(0, 0))[0])
            least = low if least is None else min(least, low)
        if not generalized:
            continue
        work = np.add(op, op.T, out=np.empty(op.shape, order="F"))
        work *= 0.5
        del op
        g = next(grams)
        if np.array_equal(work, g):
            vals.append(np.ones(len(g)))
        else:
            vals.append(linalg.eigh(work, g, eigvals_only=True, driver="gvx",
                                    overwrite_a=True, overwrite_b=True))
        del work, g
    return least, np.sort(np.concatenate(vals)) if generalized else None


def _definite_factor(matrix):
    """SuperLU factor of a sparse symmetric matrix if it is positive definite.

    The factor is ``eigensolver._symmetric_factor``'s, whose U holds on
    its diagonal pivots with the inertia of the matrix, so the matrix is
    positive definite if and only if every pivot is positive.  Returns the
    factor then, and None when a pivot is negative or zero (SuperLU stops
    at an exactly zero one).  A factor that pivoted off the diagonal
    raises ValueError.
    """
    try:
        factor = _symmetric_factor(matrix)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None
    return factor if np.all(factor.U.diagonal() > 0.0) else None


def _inverse_iteration(factor, a, g):
    """The eigenvalue of (a, g) nearest the shift of a definite factor.

    ``factor`` is the ``_definite_factor`` of a - s g or of s g - a, so
    every eigenvalue lies on one side of s, and the nearest is the
    extreme one on that side.  Each step solves the factor against g x,
    from a seeded random start, and normalises.  Returns the Rayleigh
    quotient rho of the first iterate x whose residual ||a x - rho g x||
    is at most ``RESIDUAL_TOL`` (||a x|| + |rho| ||g x||), or None when
    ``MAX_STEPS`` steps do not reach it.
    """
    x = np.random.default_rng(0).standard_normal(a.shape[0])
    for _ in range(MAX_STEPS):
        x = factor.solve(g @ x)
        x /= np.linalg.norm(x)
        ax, gx = a @ x, g @ x
        rho = (x @ ax) / (x @ gx)
        if np.linalg.norm(ax - rho * gx) <= RESIDUAL_TOL * (
                np.linalg.norm(ax) + abs(rho) * np.linalg.norm(gx)):
            return float(rho)
    return None


def _certified_end(a, g, bound, sense):
    """One end of the spectrum of a sparse pair (a, g) joined with 1.

    ``sense`` ">=" reads the smallest eigenvalue against a lower
    ``bound``, "<=" the largest against an upper one; the eigenvalue 1,
    which the bounds contain, is that of the Gram blocks that A1 and A2
    also hold (``_bound_ends``).  The verdict is the inertia of one
    factorization: every eigenvalue lies beyond the bound if and only if
    a - bound g (">=") or bound g - a ("<=") is positive definite
    (``_definite_factor``).  Inverse iteration on that factor gives the
    eigenvalue (``_inverse_iteration``).  Where that reaches its step
    cap, the end is often one far beyond 1 (A1's electric block at
    eps_min > 1 starts at eps_min), where the iteration converges
    slowly; one more factorization, at 1, then shows whether every
    eigenvalue lies beyond 1 too, and the joined end is exactly 1.
    Otherwise, and where the verdict fails, the eigenvalue comes from one
    dense eigensolve of the pair instead, so the margin is always the end
    itself.  Returns (end, verdict).
    """
    shifted = a - bound * g if sense == ">=" else bound * g - a
    factor = _definite_factor(shifted)
    value = None if factor is None else _inverse_iteration(factor, a, g)
    if value is None and factor is not None:
        try:
            beyond_one = _definite_factor(a - g if sense == ">=" else g - a)
        except ValueError:  # an exactly zero pivot: not definite
            beyond_one = None
        if beyond_one is not None:
            return 1.0, True
    if value is None:
        end = 0 if sense == ">=" else a.shape[0] - 1
        value = linalg.eigh(a.toarray(), g.toarray(), eigvals_only=True,
                            subset_by_index=(end, end))[0]
    join = min if sense == ">=" else max
    return join(float(value), 1.0), factor is not None


def _bound_ends(matrices, name, lower, upper):
    """((smallest, verdict), (largest, verdict)) of A1 or A2 against G.

    The eigenvalues are the union of the two field blocks'.  A1's
    magnetic and A2's electric block are the Gram blocks, with every
    eigenvalue 1, inside both bounds.  Where the pencil holds its
    ``nodal`` forms, the other block is read from them as a sparse pair
    and each end is certified against its bound (``_certified_end``):
    A1's electric block is ``stiffness_eps`` against ``stiffness`` on
    the electric nodes; A2's magnetic block is Z^T X Z against Z^T G Z
    for X = ``stiffness_inv_eps`` and G = ``stiffness``, and both forms
    annihilate the constants, so that pair has the spectrum of X and G
    with the first node dropped (any complement of the constants gives
    a congruent pair).  Operators supplied as arrays are read densely
    (``_field_spectra``), and their verdicts are their margins'.
    """
    forms = matrices.nodal
    if forms is None:
        eigs = _field_spectra(matrices, name)[1]
        return (eigs[0], True), (eigs[-1], True)
    if name == "a1":
        pi = np.ix_(matrices.spaces.pi_nodes, matrices.spaces.pi_nodes)
        a, g = forms.stiffness_eps[pi], forms.stiffness[pi]
    else:
        a, g = forms.stiffness_inv_eps[1:, 1:], forms.stiffness[1:, 1:]
    return _certified_end(a, g, lower, ">="), _certified_end(a, g, upper,
                                                             "<=")


def _s_bound(matrices):
    """Largest |generalized eigenvalue| of the symmetrised S against G.

    S is block off-diagonal with upper-right block F (symmetrised), so with
    G_pi = L_pi L_pi^T and G_psi = L_psi L_psi^T the eigenvalues are
    +-sigma_i(L_pi^-1 F L_psi^-T) and zeros; the bound is sigma_max.  With
    I the r nonzero rows of F (as assembled, the interface nodes off the
    shield: 27 of 729 at slab nx = 28), L_pi^-1 F L_psi^-T = X Y^T with
    X = L_pi^-1 E_I (the unit columns of I) and Y = L_psi^-1 F_I^T; with
    the QR factors X = Q_x R_x and Y = Q_y R_y its singular values are
    those of the r x r matrix R_x R_y^T.  So the triangular solves take r
    right-hand sides instead of n, and no n x n SVD is needed.  F is
    formed ``TILE`` rows at a time and only its nonzero rows are kept.
    Each Cholesky factor is taken in place of its Gram block
    (``_cholesky_r``) and dropped once its R is formed, so one is alive
    at a time.  Without a nonzero row the bound is 0.  S is read through
    ``PencilMatrices.block``.
    """
    sp = matrices.spaces
    m = sp.blocks[1]
    rows, f_rows = [], []
    for start in range(0, sp.n_pi, TILE):
        block = slice(start, min(start + TILE, sp.n_pi))
        f = 0.5 * (matrices.block("s", block, m)
                   + matrices.block("s", m, block).T)
        nonzero = np.flatnonzero(np.any(f != 0.0, axis=1))
        rows.append(start + nonzero)
        f_rows.append(f[nonzero])
    rows, f_rows = np.concatenate(rows), np.concatenate(f_rows)
    if len(rows) == 0:
        return 0.0
    unit = np.zeros((sp.n_pi, len(rows)))
    unit[rows, np.arange(len(rows))] = 1.0
    grams = matrices.gram_blocks()
    r_x = _cholesky_r(next(grams), unit)
    r_y = _cholesky_r(next(grams), f_rows.T)
    return float(linalg.svdvals(r_x @ r_y.T)[0])


def _cholesky_r(g, rhs):
    """R of the QR of L^-1 rhs, L the lower Cholesky factor of g.

    L is written over g (``gram_blocks`` writes g afresh), so it is the
    only array of g's size, and it is dropped on return.
    """
    factor = linalg.cholesky(g, lower=True, overwrite_a=True)
    return np.linalg.qr(linalg.solve_triangular(factor, rhs, lower=True),
                        mode="r")


def k_decay_slope(matrices, eigenvalues=None):
    """Log-log slope of the generalized L2 eigenvalues over the lowest modes.

    Eigenvalues of (K, G) sorted descending behave like C/n; the fit runs
    over the first third of the indices, where the continuum decay law is
    resolved by the mesh.  K and G are block diagonal, so the
    eigenvalues are those of the two field blocks (``_field_spectra``),
    or ``eigenvalues`` where the caller has them, ascending.
    """
    if eigenvalues is None:
        eigenvalues = _field_spectra(matrices, "k")[1]
    vals = eigenvalues[::-1]
    n_fit = max(len(vals) // 3, 3)
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

    def to_json(self):
        return json.dumps([c.to_dict() for c in self.checks], indent=2)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _max_abs(a):
    """Largest |entry| of an array, read without an |a| temporary."""
    return float(max(abs(a.max()), abs(a.min())))


def _parity_defects(matrices):
    """Largest |entry|, per operator, of the blocks field parity zeroes.

    With P = diag(-1 on pi, +1 on psi), P O P - O is -2x the
    electric-magnetic blocks of K, A1 and A2, and P S P + S is 2x the
    diagonal blocks of S; this reads those blocks one at a time
    (``PencilMatrices.block``).
    """
    e, m = matrices.spaces.blocks
    off, diag = ((e, m), (m, e)), ((e, e), (m, m))
    return {label: max(_max_abs(matrices.block(name, *b)) for b in blocks)
            for label, name, blocks in (("K", "k", off), ("A1", "a1", off),
                                        ("A2", "a2", off), ("S", "s", diag))}


def _operator_tiles(matrices, names):
    """Hermiticity defects and Gram forms of the operators in one tiled pass.

    Tile edges fall every ``TILE`` rows within each field block, so each
    tile lies in one block.  For each tile row I and each field block its
    tile pairs reach (the rest of I's block, and the magnetic block after
    the electric one) the pass reads the row panel O[I, J...] and the
    column panel O[J..., I] of every operator ``names`` names
    (``PencilMatrices.block``, so an operator the pencil does not hold is
    written a panel at a time).  For each tile pair (I, J) with I <= J it
    copies O[I, J] and O[J, I] of every operator from them into one
    buffer and forms the tile defect D = O[I, J] - O[J, I]^T.  Returns
    the largest |D| per operator, the Frobenius Gram forms of the
    operators over the diagonal blocks (``g_diag``) and the
    electric-magnetic blocks (``g_off``), and that of the defects O - O^T
    (``g_asym``), where an off-diagonal tile pair stands for both its
    tiles.  Beside the panels, ``TILE`` x max(n_pi, n_psi) each, only
    tile buffers are allocated.
    """
    n, n_pi, k = matrices.n, matrices.spaces.n_pi, len(names)
    fields = [[slice(a, min(a + TILE, b)) for a in range(lo, b, TILE)]
              for lo, b in ((0, n_pi), (n_pi, n))]
    pair, defect = np.empty(2 * k * TILE * TILE), np.empty(k * TILE * TILE)
    top = np.zeros(k)
    g_diag, g_off, g_asym = (np.zeros((k, k)) for _ in range(3))
    for f, row_tiles in enumerate(fields):
        for a, rows in enumerate(row_tiles):
            groups = [row_tiles[a:], *fields[f + 1:]]
            for col_tiles in groups:
                span = slice(col_tiles[0].start, col_tiles[-1].stop)
                panels = [(matrices.block(name, rows, span),
                           matrices.block(name, span, rows)) for name in names]
                for cols in col_tiles:
                    shape = (rows.stop - rows.start, cols.stop - cols.start)
                    size = shape[0] * shape[1]
                    at = slice(cols.start - span.start, cols.stop - span.start)
                    both = pair[:2 * k * size].reshape(k, 2 * size)
                    for (row_panel, col_panel), x in zip(panels, both):
                        np.copyto(x[:size].reshape(shape), row_panel[:, at])
                        np.copyto(x[size:].reshape(shape), col_panel[at].T)
                    d = np.subtract(both[:, :size], both[:, size:],
                                    out=defect[:k * size].reshape(k, size))
                    np.maximum(top, np.abs(d.max(axis=1)), out=top)
                    np.maximum(top, np.abs(d.min(axis=1)), out=top)
                    # a diagonal tile's second half is the same tile,
                    # transposed
                    tile = both[:, :size] if rows is cols else both
                    g = g_diag if col_tiles is groups[0] else g_off
                    g += tile @ tile.T
                    g_asym += (1.0 if rows is cols else 2.0) * (d @ d.T)
                del panels, row_panel, col_panel
    return top, g_diag, g_off, g_asym


def _s_differences(matrices):
    """Largest |entry| of S_line - S_vol, S_line - S and S - S_vol.

    S_line is the line route (``assemble_s_line``), S the pencil's
    (``PencilMatrices.block``) and S_vol the volume route
    (``assemble_s_volume``); each is written ``TILE`` rows at a time by
    ``write_block``, bit for bit those rows of the whole matrix, so no
    n x n array is formed.  Each route's nodal coupling is built once per
    call, the line route's from the pencil's ``line``.  Where the pencil
    does not hold S, its block is the line route's tile, so that one tile
    serves as both.
    """
    sp = matrices.spaces
    line, volume = _line_coupling(matrices.line), _volume_coupling(sp)
    written = "s" not in vars(matrices) and matrices.nodal is not None
    worst = [0.0, 0.0, 0.0]
    for start in range(0, sp.n, TILE):
        rows = slice(start, start + TILE)
        s_line = write_block(sp, line, rows)
        s = s_line if written else matrices.block("s", rows)
        vol = assemble_s_volume(sp, rows, volume)
        worst = [max(w, _max_abs(a - b)) for w, (a, b) in zip(
            worst, ((s_line, vol), (s_line, s), (s, vol)))]
        del s_line, s, vol
    return worst


def _form(g, w):
    """w^H g w for a real symmetric positive semidefinite g, clamped at 0."""
    return max(float((w.conj() @ g @ w).real), 0.0)


def _identity_margins(matrices, g_diag, g_off, g_asym, n_random):
    """Worst self-adjointness and parity defects of L at seeded points.

    With L(g) = sum_i w_i(g) O_i over real operators (``pencil._weights``):
    L(g)^H - L(conj g) = sum_i conj(w_i) (O_i^T - O_i), since the weights
    are real polynomials, and its norm is that of sum_i w_i (O_i^T - O_i),
    its complex conjugate; P L(g) P - L(-g) is
    sum_i (w_i(g) - w_i(-g)) over the diagonal blocks of O_i minus
    sum_i (w_i(g) + w_i(-g)) over its electric-magnetic blocks.  Each
    squared Frobenius norm is a 4x4 Gram form, relative to
    ||L(g)||_F^2 = w^H (G_diag + G_off) w.  The Gram forms are those of
    ``_operator_tiles`` over the operators in the order of ``_weights``
    (the sign of the defects cancels in the form).
    """
    rng = np.random.default_rng(0)
    p_scale = matrices.exclusion.p
    worst_sa = worst_par = 0.0
    for _ in range(n_random):
        gam = p_scale * complex(rng.standard_normal(), rng.standard_normal())
        w = np.array(_weights(matrices, gam), dtype=complex)
        w_neg = np.array(_weights(matrices, -gam), dtype=complex)
        norm2 = _form(g_diag + g_off, w)
        worst_sa = max(worst_sa, math.sqrt(_form(g_asym, w) / norm2))
        worst_par = max(worst_par, math.sqrt(
            (_form(g_diag, w - w_neg) + _form(g_off, w + w_neg)) / norm2))
    return worst_sa, worst_par


def working_bytes(n_pi, n_psi):
    """Bytes ``verify_all`` holds on a pencil that does not hold its operators.

    Two arrays of the larger field block (``_field_spectra``' work array
    and its Gram block, or K positivity's block and LAPACK's copy of it),
    plus the row and column panels of the four operators
    (``_operator_tiles``, ``TILE`` x n each, which cover the S checks'
    row tiles) and its tile buffers; not the O(N) mesh, nor the O(nnz)
    nodal forms and their factors.  No n x n array is counted, because
    none is formed.  This is what ``cli.cmd_verify`` builds: an assembled
    pencil, whose operators ``verify_all`` reads as written blocks.  A
    pencil that holds its operators (after a solve, or supplied as
    arrays) holds their 4 n^2 doubles besides, and reads views of them
    instead of panels.
    """
    n = n_pi + n_psi
    return 8 * (2 * max(n_pi, n_psi) ** 2 + 2 * 4 * TILE * n
                + 3 * 4 * TILE * TILE)


def verify_all(matrices, pencil=None, spectrum=None,
               include_decay_slope=False, n_random=10):
    """Run every discretely checkable property and report margins.

    Failures are returned in the report, not raised; the CLI maps a failed
    report to a nonzero exit status.  K positivity and the operator bounds
    are read from the field blocks; where ``parity_block_structure`` fails,
    the report fails already, and the bounds are then those of the blocks.
    The operators are the pencil (``make_pencil`` returns them), so
    ``pencil`` only switches on the self-adjointness and parity identities
    at ``n_random`` seeded points; both are Gram forms of the operators of
    ``matrices`` (``_identity_margins``), with no L(g) formed.

    Every operator region is read through ``PencilMatrices.block``: a
    view of an operator the pencil holds (after a solve, or supplied as
    arrays), otherwise the block written from the nodal forms, bit for
    bit that part of the formed operator.  So on an assembled pencil it
    forms and keeps no operator and allocates no n x n array: it holds at
    most one field block's pair of arrays at a time and the panels of one
    tile row (``working_bytes``).  The three S checks run first: the line
    route, the pencil's S and the volume route are written and compared
    ``TILE`` rows at a time (``_s_differences``), then ||S|| is read, an
    r x r problem on the coupling rows (``_s_bound``).  Their margins are
    added in the report's order.
    The ``hermiticity_*`` margins and the identities' Gram forms come
    from one pass over square tiles of the operators, each row and column
    panel read once (``_operator_tiles``).  Each field block of K is read
    once, for both its positivity and the decay slope
    (``_field_spectra``).  Gram blocks are written where they are used,
    one at a time (``PencilMatrices.gram_blocks``), and not kept.

    The symmetry checks read the normalized partner distances of
    ``spectrum.pairing``, and ``complex_quadruples`` those of the values
    ``spectrum.classes`` marks complex.  On the spectrum of
    ``eigensolver.solve_pencil``, which returns each value with its
    negation (+-sqrt(mu) from one QR), the +-gamma readings are exactly 0
    by construction: ``symmetry_neg_closure``, ``symmetry_negconj_closure``
    and the +- partners in ``complex_quadruples`` and
    ``homogeneous_no_complex_waves``.  They check a spectrum from
    elsewhere; the solve's +-gamma spectrum is checked against the
    undeflated 4n companion by
    ``test_deflated_solve_matches_the_undeflated_companion``.
    The A1 and A2 bounds (``_bound_ends``) of a pencil that formed its
    operators from its spaces are certified on the sparse nodal forms:
    each check's verdict is the inertia of one sparse factorization at
    its threshold, and its margin the extreme eigenvalue, from inverse
    iteration on that factor.  The thresholds sit 1e-10 inside the
    bounds, far above the factorization's backward error of order
    n u ||A||.  Operators supplied as arrays take the dense eigensolves
    of ``_field_spectra``.  K positivity, on both routes, is one dense
    ``eigh`` per block.
    """
    rep = PropertyReport()
    eps_max = matrices.eps_max

    line_vol, line_s, s_vol_s = _s_differences(matrices)
    s_reassembly = min(line_s, s_vol_s)
    s_bound = _s_bound(matrices)

    # K, A1, S, A2: the operator order of ``pencil._weights``
    names = ("k", "a1", "s", "a2")
    top, g_diag, g_off, g_asym = _operator_tiles(matrices, names)
    defect = dict(zip(names, top))
    for name in ("k", "a1", "a2", "s"):
        rep.add(f"hermiticity_{name}", defect[name], 1e-14, "<=")
    if pencil is not None:
        selfadjoint, parity = _identity_margins(matrices, g_diag, g_off,
                                                g_asym, n_random)

    k_min, k_vals = _field_spectra(matrices, "k", smallest=True,
                                   generalized=include_decay_slope)
    rep.add("k_positive_definite", k_min, 0.0, ">=")
    # strict positivity: flip the pass flag if exactly zero
    if k_min <= 0.0:
        rep.checks[-1].passed = False

    for name, lower, upper in (("a1", 1.0 - 1e-10, eps_max + 1e-10),
                               ("a2", 1.0 / eps_max - 1e-10, 1.0 + 1e-10)):
        ends = _bound_ends(matrices, name, lower, upper)
        for side, bound, sense, (value, verdict) in zip(
                ("lower", "upper"), (lower, upper), (">=", "<="), ends):
            rep.add(f"{name}_bound_{side}", value, bound, sense)
            # a nonpositive pivot fails the check whatever the margin reads
            rep.checks[-1].passed &= verdict
    rep.add("s_bound", s_bound, 0.5 + 1e-10, "<=")

    rep.add("parity_block_structure",
            2.0 * max(_parity_defects(matrices).values()), 0.0, "<=")
    rep.add("s_line_volume_agreement", line_vol, 1e-12, "<=")
    rep.add("s_matches_reassembly", s_reassembly, 1e-12, "<=")

    if pencil is not None:
        rep.add("pencil_selfadjoint", selfadjoint, 1e-13, "<=")
        rep.add("pencil_parity", parity, 1e-13, "<=")

    if spectrum is not None:
        normalized = spectrum.pairing.normalized
        for name in ("conj", "neg", "negconj"):
            tol = 1e-10 if name == "conj" else SYMMETRY_TOL
            rep.add(f"symmetry_{name}_closure",
                    np.max(normalized[name], initial=0.0), tol, "<=")
        # elementwise: numpy compares an array with the str-Enum member as
        # the fixed-width string 'Spectru', which no class equals
        is_complex = np.array([c is SpectrumClass.COMPLEX
                               for c in spectrum.classes], dtype=bool)
        rep.add("complex_quadruples",
                max(np.max(d, initial=0.0, where=is_complex)
                    for d in normalized.values()), SYMMETRY_TOL, "<=")
        if matrices.eps1 == matrices.eps2:
            g2 = spectrum.eigenvalues ** 2
            rep.add("homogeneous_no_complex_waves",
                    np.max(np.abs(g2.imag) / (1.0 + np.abs(g2)), initial=0.0),
                    1e-8, "<=")

    if include_decay_slope:
        slope = k_decay_slope(matrices, k_vals)
        rep.add("k_decay_slope_dev", abs(slope + 1.0), 0.3, "<=")

    return rep
