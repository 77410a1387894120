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
[v; g v; g^2 v; g^3 v] (``solve_pencil``); at a degeneration point the
numerical nullity of the pencil is counted instead, with the fields the
mesh makes null taken out before the symmetric eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import pencil as pencil_mod

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
    eigenvectors are [v; g v; g^2 v; g^3 v].  Each pencil vector is the
    largest-norm block, normalised: a vector is defined only up to scale,
    and ``pencil.residual`` does not depend on it.  The blocks are picked
    for all columns at once, and the companion's vectors are freed before
    one ``pencil.residual`` call on the whole (n, 4n) block.  The
    dimension cap is checked before the companion is allocated, and no
    name here holds the companion, so it is freed when
    ``solve_companion`` returns.
    """
    _check_companion_dim(4 * pencil.n)
    gammas, comp_vecs = solve_companion(pencil_mod.linearize(pencil),
                                        compute_vectors=compute_vectors)
    if not compute_vectors:
        return EigenReport(eigenvalues=gammas)
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


def _deflate(pencil, gamma, mat, null, cutoff):
    """L(gamma) without its explicit null fields, and how many were dropped.

    A null node off the shield has a zero electric column.  A null node
    q >= 1 has the magnetic coordinate q - 1, whose column is m_q w for
    one vector w (``spaces.psi_nodal``: the coordinate is e_q minus
    beta m_q v, and L kills e_q), so over those coordinates J only the
    direction r = m_J / |m_J| carries L; the orthogonal complement of r
    in J (columns 2.. of the reflector that sends m_J to e_1) is null.
    Both kinds of field are dropped, after one product checks that their
    columns of L are below ``cutoff``; the returned block keeps every
    other coordinate and r.  L(gamma) must be real symmetric.
    """
    sp = pencil.spaces
    nodes = np.flatnonzero(null[1:]) + 1
    pi_drop = sp.pi_index[null & (sp.pi_index >= 0)]
    psi = sp.n_pi + nodes - 1
    keep = np.ones(sp.n, dtype=bool)
    keep[pi_drop] = keep[psi] = False
    idx = np.flatnonzero(keep)
    res = np.linalg.norm(mat[:, pi_drop])
    if len(psi):
        r = sp.mean_vector[nodes] / np.linalg.norm(sp.mean_vector[nodes])
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
    null = degeneration_null_nodes(pencil.spaces.mesh, pencil.eps1,
                                   pencil.eps2, gamma)
    if null is not None:
        mat, dropped = _deflate(pencil, gamma, mat, null, cutoff)
    return dropped + int(np.sum(np.abs(np.linalg.eigvalsh(mat)) <= cutoff))
