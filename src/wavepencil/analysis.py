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
electric-magnetic blocks of K, A1 and A2 and the diagonal blocks of S,
read as block slices.  Parity also makes the nullity at -g that at g, so
the degeneration scan counts it once per |g|.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import linalg

from .assembly import assemble_s_line, assemble_s_volume
from .eigensolver import null_fields, numerical_nullity
from .pencil import ExclusionInterval, _terms, degeneration_points


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
    (``_match_nearest``).  Empty inputs give empty outputs.
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
    distances.  Bit-equal values are one point of the search, taken lowest
    index first, so a run of them (a deflated degeneration point) does not
    crowd the 8 nearest: a target takes the nearest free point of its 8
    when it lies strictly nearer than the others and than the 8th, or else
    the nearest of all free values.  There must be no more targets than
    values.  Returns (indices, distances) as ``_match_multiset``.
    """
    from scipy.spatial import cKDTree

    if len(targets) == 0:
        return np.zeros(0, dtype=int), np.zeros(0)
    # group g holds members[start[g]:stop[g]], bit-equal, index ascending
    bits = values.view(np.int64).reshape(-1, 2)
    members = np.lexsort((bits[:, 1], bits[:, 0]))
    new = np.ones(len(values), dtype=bool)
    new[1:] = np.any(bits[members[1:]] != bits[members[:-1]], axis=1)
    start = np.flatnonzero(new)
    points = values[members[start]]
    group = np.empty(len(values), dtype=int)
    group[members] = np.cumsum(new) - 1
    members, group = members.tolist(), group.tolist()
    start, stop = start.tolist(), [*start[1:].tolist(), len(values)]
    k = min(len(points), 8)
    tree = cKDTree(np.column_stack([points.real, points.imag]))
    tree_dist, idx = tree.query(np.column_stack([targets.real, targets.imag]),
                                k=k)
    tree_dist = np.asarray(tree_dist).reshape(len(targets), k)
    idx = np.asarray(idx).reshape(len(targets), k)
    if order is None:
        order = np.argsort(tree_dist[:, 0], kind="stable")
    # each row by distance, computed as the scan computes it
    dist = np.abs(points[idx] - targets[:, None])
    rank = np.argsort(dist, axis=1, kind="stable")
    idx = np.take_along_axis(idx, rank, axis=1)
    dist = np.take_along_axis(dist, rank, axis=1)
    # a point off the row is at least as far as the 8th, up to the tree's
    # rounding of the distance (a few units in the last place)
    reach = (tree_dist[:, -1] * (1.0 - 8.0 * np.finfo(float).eps)
             if k < len(points) else np.full(len(targets), np.inf))
    taken = bytearray(len(values))
    out_idx = np.empty(len(targets), dtype=int)
    out_dist = np.empty(len(targets))
    for t, row, d_row, lim in zip(order.tolist(), idx[order].tolist(),
                                  dist[order].tolist(), reach[order].tolist()):
        for j, g in enumerate(row):
            if start[g] < stop[g]:
                break
        else:
            j = k
        alone = j + 1 >= k or d_row[j + 1] > d_row[j]
        if j < k and d_row[j] < lim and alone:
            pick, d = members[start[row[j]]], d_row[j]
        else:
            free = np.flatnonzero(~np.frombuffer(taken, dtype=bool))
            scan = np.abs(values[free] - targets[t])
            j = int(np.argmin(scan))
            pick, d = int(free[j]), scan[j]
        start[group[pick]] += 1
        taken[pick] = 1
        out_idx[t], out_dist[t] = pick, d
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
    pencil; the counts must be nondecreasing under refinement.  The nullity
    is counted once per |g| and reported at both signs, on the parity
    premise: where the parity blocks (``_parity_defects``) are exactly zero,
    ``evaluate`` gives L(-g) = P L(g) P bit for bit, with P the diagonal
    parity signs, so the two counts are equal.  A pencil whose parity
    blocks are not exactly zero raises ValueError naming the operator.
    """
    if len(pencils) < 2:
        raise ValueError("need at least two refinement levels")
    eps = (pencils[0].eps1, pencils[0].eps2)
    if any((p.eps1, p.eps2) != eps for p in pencils):
        raise ValueError("all pencils must share the same permittivities")
    for r, p in enumerate(pencils):
        broken = [name for name, d in _parity_defects(p).items() if d != 0.0]
        if broken:
            raise ValueError(
                f"pencil {r}: the parity blocks of {', '.join(broken)} are "
                f"not zero, so the nullity at -g is not that at g")
    gammas = degeneration_points(*eps)
    table = []
    for p in pencils:
        nullity = {g: numerical_nullity(p, g) for g in gammas if g > 0.0}
        table.append({g: nullity[abs(g)] for g in gammas})
    return gammas, table


def _block_eigvals(op, matrices):
    """Generalized eigenvalues of a block-diagonal operator against G.

    The union, ascending, of the eigenvalues of the symmetrised diagonal
    blocks against the matching Gram blocks; equal to those of the full
    symmetrised operator when its off-diagonal blocks vanish.  A block
    bit-identical to its Gram block has every eigenvalue exactly 1 and
    takes no eigensolve: A1's magnetic block and A2's electric block are
    the Gram blocks by construction.  Every other block takes one
    eigenvalues-only ``eigh`` (LAPACK ``sygvx``), whose cost is the full
    tridiagonal reduction.
    """
    vals = []
    for b, g in zip(matrices.spaces.blocks, matrices.gram):
        block = 0.5 * (op[b, b] + op[b, b].T)
        if np.array_equal(block, g):
            vals.append(np.ones(len(g)))
        else:
            vals.append(linalg.eigh(block, g, eigvals_only=True,
                                    driver="gvx"))
    return np.sort(np.concatenate(vals))


def _s_bound(matrices):
    """Largest |generalized eigenvalue| of the symmetrised S against G.

    S is block off-diagonal with upper-right block F (symmetrised), so with
    G_pi = L_pi L_pi^T and G_psi = L_psi L_psi^T the eigenvalues are
    +-sigma_i(L_pi^-1 F L_psi^-T) and zeros; the bound is sigma_max.  With
    I the r nonzero rows of F as stored (as assembled, the interface nodes
    off the shield: 27 of 729 at slab nx = 28), L_pi^-1 F L_psi^-T = X Y^T
    with X = L_pi^-1 E_I (the unit columns of I) and Y = L_psi^-1 F_I^T;
    with the QR factors X = Q_x R_x and Y = Q_y R_y its singular values
    are those of the r x r matrix R_x R_y^T.  So the triangular solves
    take r right-hand sides instead of n, and no n x n SVD is needed.
    Without a nonzero row the bound is 0.
    """
    sp, s = matrices.spaces, matrices.s
    e, m = sp.blocks
    f = 0.5 * (s[e, m] + s[m, e].T)
    rows = np.flatnonzero(np.any(f != 0.0, axis=1))
    if len(rows) == 0:
        return 0.0
    unit = np.zeros((sp.n_pi, len(rows)))
    unit[rows, np.arange(len(rows))] = 1.0
    l_pi, l_psi = (linalg.cholesky(g, lower=True) for g in matrices.gram)
    x = linalg.solve_triangular(l_pi, unit, lower=True)
    y = linalg.solve_triangular(l_psi, f[rows].T, lower=True)
    r_x, r_y = np.linalg.qr(x, mode="r"), np.linalg.qr(y, mode="r")
    return float(linalg.svdvals(r_x @ r_y.T)[0])


def k_decay_slope(matrices):
    """Log-log slope of the generalized L2 eigenvalues over the lowest modes.

    Eigenvalues of (K, G) sorted descending behave like C/n; the fit runs
    over the first third of the indices, where the continuum decay law is
    resolved by the mesh.  K and G are block diagonal, so the
    eigenvalues are those of the two field blocks.
    """
    vals = _block_eigvals(matrices.k, matrices)[::-1]
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
    diagonal blocks of S; this reads those blocks as slices.
    """
    e, m = matrices.spaces.blocks
    off, diag = ((e, m), (m, e)), ((e, e), (m, m))
    return {name: max(_max_abs(op[b]) for b in blocks)
            for name, op, blocks in (("K", matrices.k, off),
                                     ("A1", matrices.a1, off),
                                     ("A2", matrices.a2, off),
                                     ("S", matrices.s, diag))}


def _operator_tiles(ops, n_pi):
    """Hermiticity defects and Gram forms of the operators in one tiled pass.

    Tile edges fall every ``TILE`` rows within each field block, so each
    tile lies in one block.  For each tile pair (I, J) with I <= J the pass
    reads O[I, J] and O[J, I] of every operator into one buffer and forms
    the tile defect D = O[I, J] - O[J, I]^T.  Returns the largest |D| per
    operator, the Frobenius Gram forms of the operators over the diagonal
    blocks (``g_diag``) and the electric-magnetic blocks (``g_off``), and
    that of the defects O - O^T (``g_asym``), where an off-diagonal tile
    pair stands for both its tiles.  Only tile buffers are allocated.
    """
    n, k = len(ops[0]), len(ops)
    edges = [*range(0, n_pi, TILE), *range(n_pi, n, TILE), n]
    tiles = [slice(a, b) for a, b in zip(edges, edges[1:])]
    pair, defect = np.empty(2 * k * TILE * TILE), np.empty(k * TILE * TILE)
    top = np.zeros(k)
    g_diag, g_off, g_asym = (np.zeros((k, k)) for _ in range(3))
    for a, rows in enumerate(tiles):
        for cols in tiles[a:]:
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            size = shape[0] * shape[1]
            both = pair[:2 * k * size].reshape(k, 2 * size)
            for op, x in zip(ops, both):
                np.copyto(x[:size].reshape(shape), op[rows, cols])
                np.copyto(x[size:].reshape(shape), op[cols, rows].T)
            d = np.subtract(both[:, :size], both[:, size:],
                            out=defect[:k * size].reshape(k, size))
            np.maximum(top, np.abs(d.max(axis=1)), out=top)
            np.maximum(top, np.abs(d.min(axis=1)), out=top)
            # a diagonal tile's second half is the same tile, transposed
            tile = both[:, :size] if rows is cols else both
            g = g_diag if (rows.start < n_pi) == (cols.start < n_pi) else g_off
            g += tile @ tile.T
            g_asym += (1.0 if rows is cols else 2.0) * (d @ d.T)
    return top, g_diag, g_off, g_asym


def _max_abs_diff(a, b):
    """Largest |entry| of a - b, formed ``TILE`` rows at a time."""
    return max(_max_abs(a[r:r + TILE] - b[r:r + TILE])
               for r in range(0, len(a), TILE))


def _form(g, w):
    """w^H g w for a real symmetric positive semidefinite g, clamped at 0."""
    return max(float((w.conj() @ g @ w).real), 0.0)


def _identity_margins(matrices, g_diag, g_off, g_asym, n_random):
    """Worst self-adjointness and parity defects of L at seeded points.

    With L(g) = sum_i w_i(g) O_i over real operators (``pencil._terms``):
    L(g)^H - L(conj g) = sum_i conj(w_i) (O_i^T - O_i), since the weights
    are real polynomials, and its norm is that of sum_i w_i (O_i^T - O_i),
    its complex conjugate; P L(g) P - L(-g) is
    sum_i (w_i(g) - w_i(-g)) over the diagonal blocks of O_i minus
    sum_i (w_i(g) + w_i(-g)) over its electric-magnetic blocks.  Each
    squared Frobenius norm is a 4x4 Gram form, relative to
    ||L(g)||_F^2 = w^H (G_diag + G_off) w.  The Gram forms are those of
    ``_operator_tiles`` over the operators in the order of ``_terms``
    (the sign of the defects cancels in the form).
    """
    rng = np.random.default_rng(0)
    p_scale = matrices.exclusion.p
    worst_sa = worst_par = 0.0
    for _ in range(n_random):
        gam = p_scale * complex(rng.standard_normal(), rng.standard_normal())
        w = np.array([wt for wt, _ in _terms(matrices, gam)], dtype=complex)
        w_neg = np.array([wt for wt, _ in _terms(matrices, -gam)],
                         dtype=complex)
        norm2 = _form(g_diag + g_off, w)
        worst_sa = max(worst_sa, math.sqrt(_form(g_asym, w) / norm2))
        worst_par = max(worst_par, math.sqrt(
            (_form(g_diag, w - w_neg) + _form(g_off, w + w_neg)) / norm2))
    return worst_sa, worst_par


def working_bytes(n_pi, n_psi):
    """Bytes ``verify_all`` allocates beyond the four operators, bounded.

    The two reassembled S matrices, the Gram blocks, the ``TILE`` rows of
    an S difference and ``_operator_tiles``' buffers; not the O(N) mesh.
    """
    n = n_pi + n_psi
    return 8 * (2 * n * n + n_pi * n_pi + n_psi * n_psi + TILE * n
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
    ``matrices`` (``_identity_margins``), with no L(g) formed.  The
    ``hermiticity_*`` margins and those Gram forms come from one pass over
    square tiles of the operators (``_operator_tiles``), and the S checks
    take their differences ``TILE`` rows at a time, so the only n x n
    arrays allocated (``working_bytes``) are the Gram blocks, formed on
    first read of ``matrices.gram``, and the two reassembled S matrices,
    which are dropped before the decay-slope eigensolves.  The symmetry
    checks read the normalized partner distances of ``spectrum.pairing``,
    and ``complex_quadruples`` those of the values ``spectrum.classes``
    marks complex.  On the spectrum of ``eigensolver.solve_pencil``, which
    returns each value with its negation (+-sqrt(mu) from one QR), the
    +-gamma readings are exactly 0 by construction:
    ``symmetry_neg_closure``, ``symmetry_negconj_closure`` and the +-
    partners in ``complex_quadruples`` and
    ``homogeneous_no_complex_waves``.  They check a spectrum from
    elsewhere; the solve's +-gamma spectrum is checked against the
    undeflated 4n companion by
    ``test_deflated_solve_matches_the_undeflated_companion``.
    The bound eigensolves run only where the result is not known in
    advance (``_block_eigvals``): the Gram-identical blocks of A1 and A2
    have every eigenvalue exactly 1, so A1's electric and A2's magnetic
    block are solved, and ||S|| is an r x r problem on the coupling rows
    (``_s_bound``).
    """
    rep = PropertyReport()
    eps_max = matrices.eps_max

    # K, A1, S, A2: the operator order of ``_terms``
    ops = [op for _, op in _terms(matrices, 0.0)]
    top, g_diag, g_off, g_asym = _operator_tiles(ops, matrices.spaces.n_pi)
    defect = dict(zip(("k", "a1", "s", "a2"), top))
    for name in ("k", "a1", "a2", "s"):
        rep.add(f"hermiticity_{name}", defect[name], 1e-14, "<=")
    if pencil is not None:
        selfadjoint, parity = _identity_margins(matrices, g_diag, g_off,
                                                g_asym, n_random)

    k_min = min(float(linalg.eigh(matrices.k[b, b], eigvals_only=True,
                                  subset_by_index=(0, 0))[0])
                for b in matrices.spaces.blocks)
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

    rep.add("parity_block_structure",
            2.0 * max(_parity_defects(matrices).values()), 0.0, "<=")

    s_line = assemble_s_line(matrices.spaces)
    s_vol = assemble_s_volume(matrices.spaces)
    rep.add("s_line_volume_agreement", _max_abs_diff(s_line, s_vol), 1e-12,
            "<=")
    rep.add("s_matches_reassembly",
            min(_max_abs_diff(matrices.s, s_line),
                _max_abs_diff(matrices.s, s_vol)), 1e-12, "<=")
    del s_line, s_vol

    if pencil is not None:
        rep.add("pencil_selfadjoint", selfadjoint, 1e-13, "<=")
        rep.add("pencil_parity", parity, 1e-13, "<=")

    if spectrum is not None:
        normalized = spectrum.pairing.normalized
        for name in ("conj", "neg", "negconj"):
            tol = 1e-10 if name == "conj" else SYMMETRY_TOL
            rep.add(f"symmetry_{name}_closure",
                    np.max(normalized[name], initial=0.0), tol, "<=")
        is_complex = spectrum.classes == SpectrumClass.COMPLEX
        rep.add("complex_quadruples",
                max(np.max(d, initial=0.0, where=is_complex)
                    for d in normalized.values()), SYMMETRY_TOL, "<=")
        if matrices.eps1 == matrices.eps2:
            g2 = spectrum.eigenvalues ** 2
            rep.add("homogeneous_no_complex_waves",
                    np.max(np.abs(g2.imag) / (1.0 + np.abs(g2)), initial=0.0),
                    1e-8, "<=")

    if include_decay_slope:
        slope = k_decay_slope(matrices)
        rep.add("k_decay_slope_dev", abs(slope + 1.0), 0.3, "<=")

    return rep
