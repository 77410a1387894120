"""Dense eigensolver for the companion problem; the nullity by inertia.

The companion of ``pencil.linearize`` is 4n wide, but its spectrum is
symmetric under g -> -g through the field parity, and it is solved
through its 2n parity square (``pencil.parity_square``): one QR of the
square gives its eigenvalues mu = g^2, and the companion's are +-sqrt(mu).
The square comes from LAPACK's balanced Hessenberg + shifted-QR path
(through numpy/scipy), behind the balance and QR stage functions so each
stage contract stays independently testable.  A solve allocates the
companion once and holds no name of it once the square is gathered;
``balance`` scales the Fortran-ordered square in place, and the QR's
LAPACK work copy is the only other array of its size.  The QR stays on
``numpy.linalg.eigvals``, which releases the interpreter lock only above
500 rows (the 578-row square of slab nx = 12 is above it; its 315-row
active block would not be); scipy's ``geev`` wrapper holds it.  Even so
``cli.sweep``'s workers do not reliably run two QRs at once: with one
BLAS thread on 2 cores, two threads reached 0.57-1.05x one thread's
``eigvals`` throughput at 200-450 rows, 0.84-2.36x at 578 and
1.27-2.43x at 800 (README "Command line" has the measurements).  Eigenvectors of the original pencil are read
off the square's eigenvectors [y; mu y], y = (v_pi, g v_psi)
(``solve_pencil``).  The fields the mesh makes null at the degeneration
points +-sqrt(eps_j) (``null_fields``) are known before any eigensolve:
a solve rotates them out of the square before the QR
(``deflate_square``).  The numerical nullity is counted by inertia, on
the sparse bordered L(g) (``pencil.bordered``) of a pencil that holds
its nodal forms; operators supplied as arrays have none, and their
nullity is not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import pencil as pencil_mod
from .spaces import reflector

#: Hard cap on the companion dimension (4n) accepted by the dense path.
MAX_COMPANION_DIM = 8000

#: Rank cutoff of ``numerical_nullity``, relative to the coefficient scale.
NULLITY_REL_TOL = 1e-8


class EigensolverError(RuntimeError):
    pass


@dataclass
class EigenReport:
    """Companion solve output.

    ``vectors`` (n x 4n) and ``residuals`` are filled only when vector
    recovery was requested.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray | None = None
    residuals: np.ndarray | None = None


def balance(matrix):
    """Diagonal similarity scaling equalising row/column norms.

    Returns (scaled matrix, diagonal scale vector d) with
    ``scaled = D^-1 A D``; eigenvalues are unchanged, and the scales are
    powers of 2, so the scaling is exact.  LAPACK's ``dgebal`` computes
    it with no other array than d, so no dense transformation matrix is
    formed.  A Fortran-ordered float64 input, such as
    ``pencil.parity_square``'s, is scaled in place and returned as
    ``scaled``; any other input is copied first and left unchanged.
    """
    scaled, _, _, d, _ = lapack.dgebal(matrix, scale=1, permute=0,
                                       overwrite_a=1)
    return scaled, d


def _roots(mu):
    """+-sqrt(mu): the principal square roots, then their negations."""
    root = np.sqrt(np.asarray(mu, dtype=complex))
    return np.concatenate([root, -root])


def qr_eigenvalues(square):
    """Eigenvalues of a companion from its parity square, by one QR.

    The square's eigenvalues mu come from Hessenberg reduction and
    shifted QR; the companion's are +-sqrt(mu) (``pencil.parity_square``),
    so twice as many values come back as the square has rows: the
    principal roots in the QR's order, then their negations.  Backed by
    the LAPACK implicit-shift QR with its own sweep limit; non-convergence
    raises EigensolverError rather than returning silently truncated
    output.
    """
    try:
        return _roots(np.linalg.eigvals(square))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration failed to converge: {exc}") from exc


def _check_companion_dim(dim):
    if dim > MAX_COMPANION_DIM:
        raise EigensolverError(
            f"companion dimension {dim} exceeds the dense-path cap "
            f"{MAX_COMPANION_DIM}; the companion would need {dim * dim * 8} "
            f"bytes, and its parity square and the QR's work copy of that "
            f"a quarter as many each")


def solve_companion(square, compute_vectors=False):
    """Balance + Hessenberg-QR on a companion's parity square.

    Returns the companion's eigenvalues (``qr_eigenvalues``: +-sqrt(mu)),
    and when requested the complex eigenvectors of the *input* square,
    column j for mu = g_j^2 of the first half of the values (the
    balancing is undone on them in place).  A Fortran-ordered input is
    overwritten by its balanced form (``balance``), as
    ``pencil.parity_square``'s is; pass a copy to keep it.  The cap
    bounds the companion, twice the square's dimension.
    """
    _check_companion_dim(2 * square.shape[0])
    scaled, d = balance(square)
    if compute_vectors:
        try:
            mu, vecs = np.linalg.eig(scaled)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"QR iteration failed: {exc}") from exc
        vecs = vecs.astype(complex, copy=False)
        vecs *= d[:, None]
        return _roots(mu), vecs
    return qr_eigenvalues(scaled), None


def solve_pencil(pencil, compute_vectors=False):
    """Full spectrum of the quartic pencil via the block companion.

    The 4n companion (``pencil.linearize``) is read into its 2n parity
    square (``pencil.parity_square``) and freed; the companion's
    eigenvalues are +-sqrt(mu) for the square's eigenvalues mu.  Before
    the QR the square is deflated in place (``deflate_square``): each
    field the mesh makes null at +-sqrt(eps_j) is rotated into a column
    that holds only eps_j, which LAPACK's own balancing then isolates, so
    the Hessenberg reduction and the QR run on the rest; the QR returns
    all 4n eigenvalues.  With vectors, the deflation is undone on the
    square's eigenvectors [y; mu y], each deflated field's isolated
    coordinate first rebuilt from its partner (``_restore_vectors``).
    Each pencil
    vector is then read from the larger-norm half h of that column:
    v(+-g) = (h_pi, +-h_psi / g), or h itself where g is exactly 0,
    normalised.  A vector is defined only up to scale, and
    ``pencil.residual`` does not depend on it.  The halves are picked for
    all columns at once, and the square's vectors are freed before one
    ``pencil.residual`` call on the whole (n, 4n) block.  The dimension
    cap is checked before the companion is allocated.
    """
    _check_companion_dim(4 * pencil.n)
    n, planes = pencil.n, _null_planes(pencil)
    n_pi = pencil.spaces.n_pi
    square = pencil_mod.parity_square(pencil_mod.linearize(pencil), n_pi)
    tol = _deflation_tol(square)
    gammas, vecs = solve_companion(deflate_square(square, planes, tol),
                                   compute_vectors=compute_vectors)
    del square
    if not compute_vectors:
        return EigenReport(eigenvalues=gammas)
    _restore_vectors(vecs, gammas[:2 * n] ** 2, planes, tol)
    lower = np.linalg.norm(vecs[:n], axis=0) < np.linalg.norm(vecs[n:],
                                                              axis=0)
    vectors = np.empty((n, 4 * n), dtype=complex)
    vectors[:, :2 * n] = np.where(lower, vecs[n:], vecs[:n])
    del vecs
    vectors[:, 2 * n:] = vectors[:, :2 * n]
    vectors[n_pi:] *= np.divide(1.0, gammas, out=np.ones_like(gammas),
                                where=gammas != 0)
    vectors /= np.linalg.norm(vectors, axis=0)
    return EigenReport(eigenvalues=gammas, vectors=vectors,
                       residuals=pencil_mod.residual(pencil, gammas, vectors))


def degeneration_null_nodes(mesh, eps1, eps2, gamma):
    """Nodes whose every triangle drops out of L(gamma) at g = +-sqrt(eps_j).

    At g^2 = eps_j the K term of the pencil vanishes and a triangle of
    permittivity eps_t adds (eps_j eps_t - eps1 eps2) times its gradient
    form to both field blocks, which is zero where eps_t eps_j = eps1 eps2:
    in the other region, or everywhere when eps1 = eps2.  gamma is real.
    Returns the (N,) boolean mask of the nodes all of whose triangles are
    such, or None when gamma is not a degeneration point.
    """
    eps_j = [e for e in (eps1, eps2) if math.sqrt(e) == abs(gamma)]
    if not eps_j:
        return None
    eps_t = np.where(mesh.regions == 1, eps1, eps2)
    touched = np.zeros(mesh.n_nodes, dtype=bool)
    touched[mesh.triangles[eps_t * eps_j[0] != eps1 * eps2]] = True
    return ~touched


@dataclass(frozen=True)
class NullFields:
    """The fields the mesh makes null at a degeneration point.

    ``electric`` holds the product-space indices of the electric unit
    fields of the null nodes off the shield.  ``magnetic`` holds the
    magnetic coordinates J of the null nodes q >= 1 (coordinate
    n_pi + q - 1).  The column of L at such a coordinate is m_q w for one
    vector w (``spaces.psi_nodal``: the coordinate is e_q minus
    beta m_q v, and L kills e_q), so only the direction of m_J carries L
    over J.  ``reflector`` is the (v, beta) of the Householder reflector H
    that sends m_J to a multiple of e_1 (``spaces.reflector``), or None
    when J is empty: H e_1 is that direction, and H e_2, ... are null.
    ``count`` is the nullity of L there: the electric fields, and the
    unit magnetic fields of the null nodes with the constant, less the
    zero-mean constraint, or all N - 1 when every node is null.
    """

    electric: np.ndarray
    magnetic: np.ndarray
    reflector: tuple | None
    count: int


def null_fields(spaces, eps1, eps2, gamma):
    """``NullFields`` of L at a real gamma, or None off the degeneration
    points (``degeneration_null_nodes``)."""
    null = degeneration_null_nodes(spaces.mesh, eps1, eps2, gamma)
    if null is None:
        return None
    nodes = np.flatnonzero(null[1:]) + 1
    electric = spaces.pi_index[null & (spaces.pi_index >= 0)]
    return NullFields(
        electric=electric, magnetic=spaces.n_pi + nodes - 1,
        reflector=reflector(spaces.mean_vector[nodes]) if len(nodes)
        else None,
        count=len(electric) + min(int(np.count_nonzero(null)),
                                  spaces.n_psi))


@dataclass(frozen=True)
class _Plane:
    """Parity-square coordinates of the null fields at g = sqrt(eps).

    ``index`` lists the two copies of the fields' coordinates (electric,
    then J): those of y, which are the fields' own, and those of mu y, n
    further on; ``explicit`` the positions within one copy of the fields
    that are null: all but J's first, which ``fields.reflector`` turns
    into the direction of m_J.
    """

    eps: float
    fields: NullFields
    index: np.ndarray
    explicit: np.ndarray


def _null_planes(pencil):
    """One ``_Plane`` per distinct eps_j whose null fields are not empty."""
    n, planes = pencil.n, []
    for eps in sorted({pencil.eps1, pencil.eps2}):
        fields = null_fields(pencil.spaces, pencil.eps1, pencil.eps2,
                             math.sqrt(eps))
        coords = np.concatenate([fields.electric, fields.magnetic])
        ne = len(fields.electric)
        explicit = np.r_[0:ne, ne + 1:len(coords)]
        if len(explicit):
            planes.append(_Plane(eps=eps, fields=fields,
                                 index=np.concatenate([coords, n + coords]),
                                 explicit=explicit))
    return planes


def _transform(x, plane, inverse=False):
    """Apply U^T (or U, ``inverse``) to x, shaped (2, fields, k), in place.

    U = R Q: R applies ``fields.reflector`` to J in both copies, and Q
    turns each null field's two copies (a, b) by the rotation whose first
    column is (1, eps) / sqrt(1 + eps^2), the direction of the square's
    eigenvector [x; eps x] of a null field x at mu = eps.
    """
    def rotate(sign):
        cos, sin = np.array([1.0, sign * plane.eps]) / math.hypot(1.0,
                                                                  plane.eps)
        a, b = x[0, plane.explicit], x[1, plane.explicit]
        x[0, plane.explicit] = cos * a + sin * b
        x[1, plane.explicit] = cos * b - sin * a

    if inverse:
        rotate(-1.0)
    if plane.fields.reflector is not None:
        v, beta = plane.fields.reflector
        xj = x[:, len(plane.fields.electric):]
        xj -= np.einsum("f,bk->bfk", beta * v, np.einsum("f,bfk->bk", v, xj))
    if not inverse:
        rotate(1.0)


def _deflation_tol(square):
    """2n u max|square|, u the unit roundoff: how far an entry that
    ``deflate_square`` sets exactly may be off before the deflation fails."""
    return len(square) * 0.5 * np.finfo(float).eps \
        * max(square.max(), -square.min())


def deflate_square(square, planes, tol):
    """The parity square after the similarity U^T square U, in place.

    U is orthogonal and built from the mesh's null fields (``_Plane``):
    the square's eigenvector of a null field x at mu = eps_j is
    [x; eps_j x], and in U's coordinates it is the field's first copy a
    alone, so the square's column a is eps_j e_a.  Every entry of that
    column off eps_j e_a is checked against ``tol`` (``_deflation_tol``
    of the square before the similarity); then the column is set to
    exactly eps_j e_a.  LAPACK's balancing (``dgebal``, inside
    ``qr_eigenvalues``) then isolates those columns: the QR returns eps_j
    there exactly, so the companion's values are exactly +-sqrt(eps_j),
    and it reduces only the rest.  A field that is not null leaves a
    larger entry and raises EigensolverError naming g = sqrt(eps_j) and
    the residual.  Returns the square.
    """
    for plane in planes:
        idx, m = plane.index, len(plane.index) // 2
        x = square[:, idx].T.reshape(2, m, -1)
        _transform(x, plane)
        square[:, idx] = x.reshape(2 * m, -1).T
        y = square[idx].reshape(2, m, -1)
        _transform(y, plane)
        square[idx] = y.reshape(2 * m, -1)
    for plane in planes:
        a = plane.index[plane.explicit]
        col = square[:, a]
        col[a, np.arange(len(a))] -= plane.eps
        res = max(col.max(), -col.min())
        if res > tol:
            raise EigensolverError(
                f"companion deflation at g = {math.sqrt(plane.eps):g}: the "
                f"fields the mesh makes null leave a residual {res:.3e} "
                f"above {tol:.3e}")
        square[:, a] = 0.0
        square[a, a] = plane.eps
    return square


def _restore_vectors(vecs, mu, planes, tol):
    """Eigenvectors of the deflated square mapped back by U, in place.

    vecs holds one column per eigenvalue mu, in U's coordinates.  There a
    null field's first copy a and second copy b of an eigenvector
    [y; mu y] are in the ratio (1 + eps_j mu) / (mu - eps_j), so for each
    mu farther than ``tol`` from eps_j the coordinate a, which the QR's
    back-substitution divides by mu - eps_j, is rebuilt from b; then U
    is applied.
    """
    for plane in planes:
        idx, m = plane.index, len(plane.index) // 2
        x = vecs[idx].reshape(2, m, -1)
        far = np.abs(mu - plane.eps) > tol
        ratio = (1.0 + plane.eps * mu) / np.where(far, mu - plane.eps, 1.0)
        e = plane.explicit
        x[0, e] = np.where(far, x[1, e] * ratio, x[0, e])
        _transform(x, plane, inverse=True)
        vecs[idx] = x.reshape(2 * m, -1)


def _symmetric_factor(matrix):
    """SuperLU factor of a sparse symmetric matrix with diagonal pivots only.

    The factor keeps the diagonal pivots (``diag_pivot_thresh=0``,
    ``SymmetricMode``) under a symmetric fill-reducing order P
    (``MMD_AT_PLUS_A``), so its U holds on its diagonal the pivots of
    symmetric Gaussian elimination on P^T A P, and by Sylvester's law of
    inertia they have the inertia of A.  A factor whose row order differs
    from its column order has pivoted off the diagonal, and its pivots
    give no inertia: ValueError.  SuperLU raises RuntimeError at an
    exactly zero pivot.  ``scipy.sparse.linalg`` is imported here, so
    ``import wavepencil`` does not load it (about 2 MB and 10 ms).
    """
    from scipy.sparse.linalg import splu

    factor = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    if not np.array_equal(factor.perm_r, factor.perm_c):
        raise ValueError("the factor pivoted off the diagonal, so its "
                         "pivots give no inertia")
    return factor


def _factor_error(factor):
    """Bound on the 2-norm backward error of a SuperLU factor.

    The computed factors are exact for Pr (A + E) Pc with |E| <= gamma_n
    |L||U| entrywise, gamma_n = n u / (1 - n u) and u the unit roundoff
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm. 9.3).  So ||E||_2 <= sqrt(||E||_1 ||E||_inf) is bounded by
    gamma_n times the geometric mean of the largest row and column sums
    of |L||U|, read from two sparse products each, with no product
    matrix formed.  Diagonal pivots bound no element growth on an
    indefinite matrix; growth shows here as a large bound.
    """
    n = factor.shape[0]
    nu = n * np.finfo(float).eps / 2.0
    lower, upper = abs(factor.L), abs(factor.U)
    ones = np.ones(n)
    rows = (lower @ (upper @ ones)).max()
    cols = (upper.T @ (lower.T @ ones)).max()
    return nu / (1.0 - nu) * math.sqrt(rows * cols)


def _negative_pivots(matrix, gamma, tol):
    """nu- of a sparse symmetric matrix, from a factor with error <= tol.

    The negative pivots of ``_symmetric_factor``, which are exactly
    those of a matrix within ``_factor_error`` of ``matrix``.  A factor
    whose bound exceeds ``tol`` raises ValueError naming gamma.
    """
    factor = _symmetric_factor(matrix)
    error = _factor_error(factor)
    if error > tol:
        raise ValueError(
            f"L({gamma:g}): the sparse factor's backward error bound "
            f"{error:.3e} is above {tol:.3e}, so its pivots do not count "
            f"the nullity")
    return int(np.count_nonzero(factor.U.diagonal() < 0.0))


def numerical_nullity(pencil, gamma):
    """Count of eigenvalues of L(gamma) within NULLITY_REL_TOL * scale of 0.

    gamma must be real; a complex one raises ValueError naming it before
    anything is built.  The scale c/``NULLITY_REL_TOL`` is
    ``pencil.coefficient_scale``, which unlike ||L(gamma)|| does not
    collapse when the pencil degenerates.  The count is that of the
    eigenvalues in [-c, c), by Sylvester's law of inertia, with no
    eigensolve and no dense L(gamma).  It is read on the sparse bordered
    nodal L(gamma), B (``pencil.bordered``), so the pencil must hold its
    ``nodal`` forms: operators supplied as arrays have none, and such a
    pencil raises ValueError naming gamma.  By Haynsworth's theorem
    nu-(B + s I~) is nu-(L(gamma) + s I) + 1, so the count is
    nu-(B - c I~) - nu-(B + c I~), from two sparse factorizations
    (``_negative_pivots``) of B built at each shift; a build is O(nnz), a
    fraction of a factorization.  The shift is diagonal, so the checks
    read the build at -c: it must be exactly symmetric, and the null-field
    columns, those of the nodes ``degeneration_null_nodes`` names (the
    electric ones off the shield, and every magnetic one), must have
    field rows below c once the shift is taken off their diagonal;
    otherwise ValueError names gamma.  The pivots are taken on the
    diagonal, whose growth an indefinite B does not bound, so each
    factor's backward error bound (``_factor_error``) must be at most
    c / 2, and the count is that of matrices within c / 2 of B -+ c I~.
    At slab nx = 12-300 the bound stays below 0.01 c.
    """
    if complex(gamma).imag != 0.0:
        raise ValueError(f"L({gamma:g}): the nullity is counted at real "
                         f"gamma only")
    if pencil.nodal is None:
        raise ValueError(f"L({gamma:g}): operators supplied as arrays have "
                         f"no nodal forms, so the nullity is not counted")
    gamma = complex(gamma).real
    cutoff = NULLITY_REL_TOL * pencil_mod.coefficient_scale(pencil, gamma)
    sp = pencil.spaces
    below = pencil_mod.bordered(pencil, gamma, -cutoff)
    if (below != below.T).nnz:
        raise ValueError(f"L({gamma:g}) is not exactly symmetric, so its "
                         f"nullity is not counted")
    null = degeneration_null_nodes(sp.mesh, pencil.eps1, pencil.eps2, gamma)
    if null is not None:
        cols = np.concatenate([sp.pi_index[null & (sp.pi_index >= 0)],
                               sp.n_pi + np.flatnonzero(null)])
        field = below[:, cols][:-1].tocoo()
        field.data[field.row == cols[field.col]] += cutoff
        res = np.linalg.norm(field.data)
        if res > cutoff:
            raise ValueError(
                f"L({gamma:g}): the fields the mesh makes null leave a "
                f"residual {res:.3e} above the nullity cutoff {cutoff:.3e}")
    above = pencil_mod.bordered(pencil, gamma, cutoff)
    return (_negative_pivots(below, gamma, 0.5 * cutoff)
            - _negative_pivots(above, gamma, 0.5 * cutoff))
