"""Dense eigensolver for the companion problem and eigenvector recovery.

The companion matrix is real and dense; its eigenvalues come from the
balanced Hessenberg + shifted-QR path of LAPACK (through numpy/scipy),
exposed here behind the balance and QR stage functions so each stage
contract stays independently testable.  Eigenvectors of the original pencil are
recovered by inverse iteration on the pencil evaluated at a slightly
shifted eigenvalue; near a degeneration point a whole numerical null
space basis is returned instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import pencil as pencil_mod

#: Hard cap on the companion dimension (4n) accepted by the dense path.
MAX_COMPANION_DIM = 8000


class EigensolverError(RuntimeError):
    pass


@dataclass
class EigenReport:
    """Companion solve output.

    ``vectors`` (n x 4n) and ``residuals`` are filled only when vector
    recovery was requested; ``converged`` flags each pair against the
    residual tolerance.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray | None = None
    residuals: np.ndarray | None = None
    converged: np.ndarray | None = None

    def __post_init__(self):
        if self.vectors is not None:
            if self.vectors.shape[1] != len(self.eigenvalues):
                raise EigensolverError("one vector per eigenvalue required")


def balance(matrix):
    """Diagonal similarity scaling equalising row/column norms.

    Returns (scaled matrix, diagonal scale vector d) with
    ``scaled = D^-1 A D``; eigenvalues are unchanged.
    """
    scaled, d = linalg.matrix_balance(matrix, permute=False)
    return scaled, np.diag(d).copy()


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


def solve_pencil(pencil, compute_vectors=False, residual_tol=1e-8):
    """Full spectrum of the quartic pencil via the scaled companion.

    The companion is formed for g = p * mu with p the characteristic
    magnitude from the exclusion interval, which keeps the coefficient
    scales comparable before the QR stage; eigenvalues are mapped back
    exactly.  The dimension cap is checked before the companion is
    allocated.
    """
    _check_companion_dim(4 * pencil.n)
    p = pencil.exclusion.p
    comp = pencil_mod.linearize(pencil, scale=p)
    mu, comp_vecs = solve_companion(comp, compute_vectors=compute_vectors)
    gammas = p * mu

    vectors = None
    residuals = None
    converged = None
    if compute_vectors:
        n = pencil.n
        vectors = np.empty((n, len(gammas)), dtype=complex)
        residuals = np.empty(len(gammas))
        for idx, (m, g) in enumerate(zip(mu, gammas)):
            blocks = comp_vecs[:, idx].reshape(4, n)
            norms = np.linalg.norm(blocks, axis=1)
            k = int(np.argmax(norms))
            v = blocks[k] / (m ** k if k and m != 0 else 1.0)
            nv = np.linalg.norm(v)
            if nv == 0.0:
                v = blocks[0]
                nv = np.linalg.norm(v)
            v = v / nv
            vectors[:, idx] = v
            residuals[idx] = pencil_mod.residual(pencil, g, v)
        converged = residuals <= residual_tol
    return EigenReport(eigenvalues=gammas, vectors=vectors,
                       residuals=residuals, converged=converged)


def recover_eigenvector(pencil, gamma, tol=1e-8, max_iter=40, seed=0):
    """Inverse iteration on the pencil at a tiny complex shift off gamma.

    Returns (unit vector, pencil residual, converged flag, iterations).
    Stagnation over three iterations without reaching ``tol`` gives
    converged=False instead of hanging.
    """
    n = pencil.n
    shift = 1e-9 * (1.0 + abs(gamma)) * (1.0 + 1.0j) / np.sqrt(2.0)
    mat = pencil_mod.evaluate(pencil, complex(gamma) + shift).astype(complex)
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


def _pencil_scale(pencil, gamma):
    """Magnitude of the pencil at gamma: the coefficient-norm polynomial.

    Used as the cutoff scale for rank decisions; unlike ||L(gamma)|| it
    does not collapse when the pencil itself degenerates to zero.
    """
    n0, n1, n2, n4 = pencil.coefficient_norms
    a = abs(gamma)
    return a ** 4 * n4 + a * a * n2 + a * n1 + n0


def null_space_basis(pencil, gamma, rel_tol=1e-8, max_dim=12):
    """Numerical null-space basis of L(gamma) at a degeneration-flagged value.

    Right singular vectors whose singular values fall below ``rel_tol``
    times the pencil scale at gamma, capped at ``max_dim`` columns.
    """
    mat = pencil_mod.evaluate(pencil, gamma)
    _, svals, vh = np.linalg.svd(mat)
    null_dim = int(np.sum(svals <= rel_tol * _pencil_scale(pencil, gamma)))
    if null_dim == 0:
        return np.empty((pencil.n, 0))
    take = min(null_dim, max_dim)
    return vh.conj().T[:, -take:]


def numerical_nullity(pencil, gamma, rel_tol=1e-8):
    """Count of singular values of L(gamma) below rel_tol * pencil scale."""
    mat = pencil_mod.evaluate(pencil, gamma)
    svals = np.linalg.svd(mat, compute_uv=False)
    if len(svals) == 0:
        return 0
    return int(np.sum(svals <= rel_tol * _pencil_scale(pencil, gamma)))
