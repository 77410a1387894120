"""Dense eigensolver for the companion problem and the numerical nullity.

The companion matrix is real and dense; its eigenvalues come from the
balanced Hessenberg + shifted-QR path of LAPACK (through numpy/scipy),
exposed here behind the balance and QR stage functions so each stage
contract stays independently testable.  A solve holds the companion
once: ``pencil.linearize`` builds it in Fortran order, ``balance`` scales
that array in place, and the QR's LAPACK work copy is the only other
dense array of its size.  The QR stays on ``numpy.linalg``, which
releases the interpreter lock, so ``cli.sweep``'s workers run their QRs
at the same time; scipy's ``geev`` wrapper holds the lock.  Eigenvectors
of the original pencil are read off the companion's eigenvectors
[v; g v; g^2 v; g^3 v] (``solve_pencil``).  The fields the mesh makes
null at the degeneration points +-sqrt(eps_j) (``null_fields``) are
known before any eigensolve: a solve rotates them out of the companion
before the QR (``deflate_companion``), and the numerical nullity of the
pencil there takes them out before its symmetric eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import pencil as pencil_mod
from .spaces import reflector

#: Hard cap on the companion dimension (4n) accepted by the dense path.
MAX_COMPANION_DIM = 8000

#: Rank cutoff of ``numerical_nullity``, relative to the coefficient scale.
NULLITY_REL_TOL = 1e-8

#: Multiple of 4n u max|C| (u the unit roundoff) that an entry
#: ``deflate_companion`` sets to 0 may reach before the deflation fails.
DEFLATION_TOL = 1.0

#: Parts in which ``deflate_companion`` takes the companion's rows and
#: columns.
DEFLATION_CHUNKS = 16


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
    ``scaled = D^-1 A D``; eigenvalues are unchanged.  The scales come
    back as a vector, so no dense transformation matrix is formed.  A
    Fortran-ordered float64 input, such as ``pencil.linearize``'s, is
    scaled in place and returned as ``scaled``; any other input is copied
    first and left unchanged.
    """
    scaled, (d, _) = linalg.matrix_balance(matrix, permute=False,
                                           separate=True, overwrite_a=True)
    return scaled, d


def qr_eigenvalues(h):
    """All eigenvalues of a matrix by Hessenberg reduction and shifted QR.

    Backed by the LAPACK implicit-shift QR with its own sweep limit;
    non-convergence raises EigensolverError rather than returning silently
    truncated output.
    """
    try:
        return np.linalg.eigvals(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration failed to converge: {exc}") from exc


def _check_companion_dim(dim):
    if dim > MAX_COMPANION_DIM:
        raise EigensolverError(
            f"companion dimension {dim} exceeds the dense-path cap "
            f"{MAX_COMPANION_DIM}; the companion would need {dim * dim * 8} "
            f"bytes, and the QR's work copy as many again")


def solve_companion(matrix, compute_vectors=False):
    """Balance + Hessenberg-QR on a companion matrix.

    Returns eigenvalues, and eigenvectors of the *input* matrix when
    requested (the balancing is undone on the vectors in place).  A
    Fortran-ordered input is overwritten by its balanced form
    (``balance``), as ``pencil.linearize``'s is; pass a copy to keep it.
    """
    _check_companion_dim(matrix.shape[0])
    scaled, d = balance(matrix)
    if compute_vectors:
        try:
            vals, vecs = np.linalg.eig(scaled)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"QR iteration failed: {exc}") from exc
        vecs *= d[:, None]
        return vals, vecs
    return qr_eigenvalues(scaled), None


def solve_pencil(pencil, compute_vectors=False):
    """Full spectrum of the quartic pencil via the block companion.

    The companion's eigenvalues are the pencil eigenvalues g, and its
    eigenvectors are [v; g v; g^2 v; g^3 v].  Before the QR the companion
    is deflated in place (``deflate_companion``): the invariant planes of
    the fields the mesh makes null at +-sqrt(eps_j) are rotated into
    columns that hold only their eigenvalues, which LAPACK's own
    balancing then isolates, so the Hessenberg reduction and the QR run
    on the rest; the QR still takes the 4n matrix and returns all 4n
    eigenvalues.  With vectors, the rotation is undone on the companion's
    eigenvectors (``_restore_vectors``).  Each pencil vector is then the
    largest-norm block, normalised: a vector is defined only up to scale,
    and ``pencil.residual`` does not depend on it.  The blocks are picked
    for all columns at once, and the companion's vectors are freed before
    one ``pencil.residual`` call on the whole (n, 4n) block.  The
    dimension cap is checked before the companion is allocated, and no
    name here holds the companion, so it is freed when
    ``solve_companion`` returns.
    """
    _check_companion_dim(4 * pencil.n)
    planes = _null_planes(pencil)
    gammas, comp_vecs = solve_companion(
        deflate_companion(pencil_mod.linearize(pencil), planes),
        compute_vectors=compute_vectors)
    if not compute_vectors:
        return EigenReport(eigenvalues=gammas)
    _restore_vectors(comp_vecs, planes)
    blocks = comp_vecs.reshape(4, pencil.n, len(gammas))     # a view
    pick = np.argmax([np.linalg.norm(b, axis=0) for b in blocks], axis=0)
    vectors = np.choose(pick, blocks)
    del comp_vecs, blocks
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
    """Companion coordinates of the null fields at g = sqrt(eps).

    ``index`` lists the four block copies of the fields' coordinates
    (electric, then J), block by block; ``explicit`` the positions within
    one copy of the fields that are null: all but J's first, which
    ``fields.reflector`` turns into the direction of m_J.
    """

    eps: float
    fields: NullFields
    index: np.ndarray
    explicit: np.ndarray


def _rotation(eps):
    """4x4 orthogonal Q on the four block copies of one null field x.

    For a field with L(g) x = L(-g) x = 0 at g = sqrt(eps), the companion
    maps [x; 0; eps x; 0] to eps [0; x; 0; eps x] and that to
    [x; 0; eps x; 0].  Q's first column is the eigenvector direction
    (1, g, eps, eps g) of +g, its second (g, -1, eps g, -eps) completes
    that plane, and its last two span the plane's complement.  In Q's
    coordinates the companion's first column is g e_1 and its second
    (eps - 1) e_1 - g e_2.
    """
    g = math.sqrt(eps)
    q = np.array([[1.0, g, -eps, 0.0],
                  [g, -1.0, 0.0, -eps],
                  [eps, eps * g, 1.0, 0.0],
                  [eps * g, -eps, 0.0, 1.0]])
    return q / np.linalg.norm(q, axis=0)


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
                                 index=(np.arange(4)[:, None] * n
                                        + coords).ravel(),
                                 explicit=explicit))
    return planes


def _transform(x, plane, inverse=False):
    """Apply U^T (or U, ``inverse``) to x, shaped (4, fields, k), in place.

    U = R Q: R applies ``fields.reflector`` to J in each block copy, and
    Q mixes the four copies of each null field by ``_rotation``.
    """
    def mix(q):
        x[:, plane.explicit] = np.einsum("ab,bfk->afk", q,
                                         x[:, plane.explicit])

    if inverse:
        mix(_rotation(plane.eps))
    if plane.fields.reflector is not None:
        v, beta = plane.fields.reflector
        xj = x[:, len(plane.fields.electric):]
        xj -= np.einsum("f,bk->bfk", beta * v, np.einsum("f,bfk->bk", v, xj))
    if not inverse:
        mix(_rotation(plane.eps).T)


def _chunks(dim):
    """Slices of ``DEFLATION_CHUNKS`` near-equal parts of range(dim)."""
    step = -(-dim // DEFLATION_CHUNKS)
    return [slice(s, s + step) for s in range(0, dim, step)]


def deflate_companion(comp, planes):
    """The companion after the similarity U^T comp U, in place, and returned.

    U is orthogonal and built from the mesh's null fields (``_Plane``):
    in its coordinates each null field x at g = sqrt(eps_j) spans two
    columns, one holding only g on the diagonal and one only
    (eps_j - 1, -g) in the same two rows.  Every other entry of those
    columns, and the diagonal's distance from +-g, is checked against
    ``DEFLATION_TOL`` times 4n u max|comp| (u the unit roundoff, max|comp|
    before the similarity); then the entries are set to exactly 0 and
    +-g.  LAPACK's balancing (``dgebal``, inside ``qr_eigenvalues``) then
    isolates those columns: the QR returns g and -g there exactly, and
    reduces only the rest.  The similarity takes the columns, then the
    rows, in ``DEFLATION_CHUNKS`` parts, so a temporary holds a
    sixteenth of the fields' rows or columns.  A field that is not null
    leaves a larger entry and raises EigensolverError naming g and the
    residual.
    """
    dim = len(comp)
    tol = DEFLATION_TOL * dim * 0.5 * np.finfo(float).eps \
        * max(comp.max(), -comp.min())
    for plane in planes:
        idx = plane.index
        for rows in _chunks(dim):
            x = comp[rows, idx].T.reshape(4, len(idx) // 4, -1)
            _transform(x, plane)
            comp[rows, idx] = x.reshape(len(idx), -1).T
        for cols in _chunks(dim):
            y = comp[idx, cols].reshape(4, len(idx) // 4, -1)
            _transform(y, plane)
            comp[idx, cols] = y.reshape(len(idx), -1)
    for plane in planes:
        g = math.sqrt(plane.eps)
        m = len(plane.index) // 4
        first, second = plane.index[plane.explicit], \
            plane.index[m + plane.explicit]
        res = 0.0
        for part in _chunks(len(first)):
            a, b = first[part], second[part]
            cols = np.arange(len(a))
            x, y = comp[:, a], comp[:, b]
            x[a, cols] -= g
            y[a, cols] = 0.0
            y[b, cols] += g
            res = max(res, x.max(), -x.min(), y.max(), -y.min())
        if res > tol:
            raise EigensolverError(
                f"companion deflation at g = {g:g}: the fields the mesh "
                f"makes null leave a residual {res:.3e} above {tol:.3e}")
        t = comp[first, second]
        comp[:, first] = 0.0
        comp[:, second] = 0.0
        comp[first, first] = g
        comp[first, second] = t
        comp[second, second] = -g
    return comp


def _restore_vectors(vecs, planes):
    """Eigenvectors of the deflated companion mapped back by U, in place."""
    for plane in planes:
        idx = plane.index
        for cols in _chunks(vecs.shape[1]):
            y = vecs[idx, cols].reshape(4, len(idx) // 4, -1)
            _transform(y, plane, inverse=True)
            vecs[idx, cols] = y.reshape(len(idx), -1)


def _deflate(pencil, gamma, mat, fields, cutoff):
    """L(gamma) without its explicit null fields, and how many were dropped.

    ``fields`` (``null_fields``) names them: the electric unit fields of
    the null nodes off the shield, and over the magnetic coordinates J of
    the null nodes q >= 1 the orthogonal complement of the direction
    r = H e_1 of m_J, H its reflector.  Both kinds of field are dropped,
    after one product checks that their columns of L are below
    ``cutoff``; the returned block keeps every other coordinate and r.
    L(gamma) must be real symmetric.
    """
    sp = pencil.spaces
    pi_drop, psi = fields.electric, fields.magnetic
    keep = np.ones(sp.n, dtype=bool)
    keep[pi_drop] = keep[psi] = False
    idx = np.flatnonzero(keep)
    res = np.linalg.norm(mat[:, pi_drop])
    if len(psi):
        v, beta = fields.reflector
        r = -beta * v[0] * v        # H e_1 = -m_J / |m_J|
        r[0] += 1.0
        cols = mat[:, psi]
        lr = cols @ r
        cols -= np.outer(lr, r)
        res = math.hypot(res, np.linalg.norm(cols))
        idx = np.append(idx, psi[0])
    if res > cutoff:
        raise ValueError(
            f"L({gamma:g}): the fields the mesh makes null leave a residual "
            f"{res:.3e} above the nullity cutoff {cutoff:.3e}")
    block = mat[np.ix_(idx, idx)]
    if len(psi):
        block[-1, :-1] = block[:-1, -1] = lr[idx[:-1]]
        block[-1, -1] = r @ lr[psi]
    return block, sp.n - len(idx)


def numerical_nullity(pencil, gamma):
    """Count of singular values of L(gamma) below NULLITY_REL_TOL * scale.

    The scale is ``pencil.coefficient_scale``, which unlike ||L(gamma)||
    does not collapse when the pencil degenerates.  Where L(gamma) is real
    symmetric (real gamma on symmetric operators) its singular values are
    the |eigenvalues| from the symmetric eigensolver; any other L(gamma),
    complex or asymmetric, takes the SVD.  At a degeneration point a real
    symmetric L(gamma) first loses the fields the mesh makes null
    (``degeneration_null_nodes``, ``_deflate``): they count as null, and
    the eigensolve runs on the rest, about half of L.  A dropped field
    whose column is above the cutoff raises ValueError.
    """
    mat = pencil_mod.evaluate(pencil, gamma)
    cutoff = NULLITY_REL_TOL * pencil_mod.coefficient_scale(pencil, gamma)
    if not (np.isrealobj(mat) and np.array_equal(mat, mat.T)):
        svals = np.linalg.svd(mat, compute_uv=False)
        return int(np.sum(svals <= cutoff))
    dropped = 0
    fields = null_fields(pencil.spaces, pencil.eps1, pencil.eps2, gamma)
    if fields is not None:
        mat, dropped = _deflate(pencil, gamma, mat, fields, cutoff)
    return dropped + int(np.sum(np.abs(np.linalg.eigvalsh(mat)) <= cutoff))
