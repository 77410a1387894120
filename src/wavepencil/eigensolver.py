"""Dense eigensolver for the companion problem and eigenvector recovery.

The companion matrix is real and dense; its eigenvalues come from the
balanced Hessenberg + shifted-QR path of LAPACK (through numpy/scipy),
exposed here behind the balance and QR stage functions so each stage
contract stays independently testable.  Eigenvectors of the original pencil are
recovered by inverse iteration on the pencil evaluated at a slightly
shifted eigenvalue; at a degeneration point the numerical nullity of the
pencil is counted instead.
"""

from __future__ import annotations

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
    back as a vector, so no dense transformation matrix is formed.
    """
    scaled, (d, _) = linalg.matrix_balance(matrix, permute=False,
                                           separate=True)
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
            f"bytes")


def solve_companion(matrix, compute_vectors=False):
    """Balance + Hessenberg-QR on a companion matrix.

    Returns eigenvalues, and eigenvectors of the *input* matrix when
    requested (the balancing is undone on the vectors).
    """
    _check_companion_dim(matrix.shape[0])
    scaled, d = balance(matrix)
    if compute_vectors:
        try:
            vals, vecs = np.linalg.eig(scaled)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"QR iteration failed: {exc}") from exc
        vecs = d[:, None] * vecs
        return vals, vecs
    return qr_eigenvalues(scaled), None


def solve_pencil(pencil, compute_vectors=False):
    """Full spectrum of the quartic pencil via the block companion.

    The companion's eigenvalues are the pencil eigenvalues g, and its
    eigenvectors are [v; g v; g^2 v; g^3 v].  Each pencil vector is the
    largest-norm block, normalised: a vector is defined only up to scale,
    and ``pencil.residual`` does not depend on it.  The dimension cap is
    checked before the companion is allocated.
    """
    _check_companion_dim(4 * pencil.n)
    comp = pencil_mod.linearize(pencil)
    gammas, comp_vecs = solve_companion(comp, compute_vectors=compute_vectors)

    vectors = None
    residuals = None
    if compute_vectors:
        n = pencil.n
        vectors = np.empty((n, len(gammas)), dtype=complex)
        residuals = np.empty(len(gammas))
        for idx, g in enumerate(gammas):
            blocks = comp_vecs[:, idx].reshape(4, n)
            v = blocks[np.argmax(np.linalg.norm(blocks, axis=1))]
            vectors[:, idx] = v / np.linalg.norm(v)
            residuals[idx] = pencil_mod.residual(pencil, g, vectors[:, idx])
    return EigenReport(eigenvalues=gammas, vectors=vectors,
                       residuals=residuals)


def recover_eigenvector(pencil, gamma, tol=1e-8, max_iter=40, seed=0):
    """Inverse iteration on the pencil at a tiny complex shift off gamma.

    Returns (unit vector, pencil residual, converged flag, iterations).
    Stagnation over three iterations without reaching ``tol`` gives
    converged=False instead of hanging.
    """
    n = pencil.n
    shift = 1e-9 * (1.0 + abs(gamma)) * (1.0 + 1.0j) / np.sqrt(2.0)
    mat = pencil_mod.evaluate(pencil, complex(gamma) + shift)
    lu = linalg.lu_factor(mat)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    best = None
    best_res = np.inf
    stale = 0
    its = 0
    for its in range(1, max_iter + 1):
        v = linalg.lu_solve(lu, v)
        v /= np.linalg.norm(v)
        res = pencil_mod.residual(pencil, gamma, v)
        if res < best_res * 0.5:
            stale = 0
        else:
            stale += 1
        if res < best_res:
            best, best_res = v.copy(), res
        if best_res <= tol or stale >= 3:
            break
    return best, best_res, bool(best_res <= tol), its


def numerical_nullity(pencil, gamma):
    """Count of singular values of L(gamma) below NULLITY_REL_TOL * scale.

    The scale is ``pencil.coefficient_scale``, which unlike ||L(gamma)||
    does not collapse when the pencil degenerates.  Where L(gamma) is real
    symmetric (real gamma on symmetric operators) its singular values are
    the |eigenvalues| from the symmetric eigensolver; any other L(gamma),
    complex or asymmetric, takes the SVD.
    """
    mat = pencil_mod.evaluate(pencil, gamma)
    if np.isrealobj(mat) and np.array_equal(mat, mat.T):
        svals = np.abs(np.linalg.eigvalsh(mat))
    else:
        svals = np.linalg.svd(mat, compute_uv=False)
    cutoff = NULLITY_REL_TOL * pencil_mod.coefficient_scale(pencil, gamma)
    return int(np.sum(svals <= cutoff))
