"""The quartic matrix pencil in the axial propagation constant.

With K the weighted L2 operator, A1/A2 the weighted gradient operators
and S the interface coupling, the pencil is

    L(g) = g^4 K + g^2 (A1 - (eps1 + eps2) K) + g (eps1 - eps2) S
           + eps1 eps2 (K - A2)
         = (g^2 - eps1)(g^2 - eps2) K + g^2 A1 + g (eps1 - eps2) S
           - eps1 eps2 A2,

a self-adjoint pencil (L(g)^H = L(conj g)) whose spectrum is symmetric
under g -> -g through the field-parity similarity.  The pencil is its
operator set (``assembly.PencilMatrices``): L(g) is evaluated and applied
in the factored form, where the K term vanishes at the degeneration
points g^2 = eps_i, and linearized from the monomial coefficients, which
are formed one at a time and never stored.  The real interval where
eigenvalue isolation is not guaranteed, and the degeneration points
+-sqrt(eps_i) inside it, are exposed alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy import linalg
from scipy.linalg import blas


class PencilError(ValueError):
    pass


@dataclass(frozen=True)
class ExclusionInterval:
    """Real-axis band containing the degeneration points.

    ``lower <= |g| <= upper`` (g real) is the band; ``p`` is the
    root-mean permittivity used as the characteristic eigenvalue scale.
    """

    eps1: float
    eps2: float
    delta: float
    lower: float
    upper: float
    p: float

    def contains(self, gamma_abs):
        return self.lower <= gamma_abs <= self.upper

    def dilated(self, margin):
        return (self.lower - margin, self.upper + margin)


def exclusion_interval(eps1, eps2):
    """Band endpoints from the permittivity pair.

    The lower endpoint uses the smaller permittivity and the upper the
    larger one, so both degeneration points +-sqrt(eps_i) always lie
    inside regardless of the argument order.
    """
    if eps1 < 1.0 or eps2 < 1.0:
        raise PencilError("permittivities must be >= 1")
    delta = 0.5 * (eps2 - eps1)
    lo = min(eps1, eps2)
    hi = max(eps1, eps2)
    lower = 0.5 * (math.sqrt(delta * delta + 4.0 * lo) - abs(delta))
    upper = 0.5 * (math.sqrt(delta * delta + 4.0 * hi) + abs(delta))
    p = math.sqrt(0.5 * (eps1 + eps2))
    return ExclusionInterval(eps1=float(eps1), eps2=float(eps2), delta=delta,
                             lower=lower, upper=upper, p=p)


def degeneration_points(eps1, eps2):
    """Sorted distinct values +-sqrt(eps_i)."""
    roots = {math.sqrt(eps1), math.sqrt(eps2)}
    return sorted({s * r for r in roots for s in (1.0, -1.0)})


def make_pencil(matrices):
    """Check that the operators share one square shape; they are the pencil."""
    shapes = {m.shape for m in (matrices.k, matrices.a1, matrices.a2,
                                matrices.s)}
    if len(shapes) != 1 or matrices.k.shape[0] != matrices.k.shape[1]:
        raise PencilError("operator matrices must share one square shape")
    return matrices


def coefficients(pencil):
    """C0, C1, C2 of the monomial form, formed one at a time (C4 is K)."""
    e1, e2 = pencil.eps1, pencil.eps2
    yield e1 * e2 * (pencil.k - pencil.a2)
    yield (e1 - e2) * pencil.s
    yield pencil.a1 - (e1 + e2) * pencil.k


def _terms(pencil, g):
    """(weight, operator) pairs of the factored form at g."""
    e1, e2 = pencil.eps1, pencil.eps2
    g2 = g * g
    return (((g2 - e1) * (g2 - e2), pencil.k), (g2, pencil.a1),
            (g * (e1 - e2), pencil.s), (-e1 * e2, pencil.a2))


def evaluate(pencil, gamma):
    """L(gamma); real output for real gamma, complex otherwise.

    The terms are accumulated into one output array in place by BLAS
    axpy, with no temporary per term; a complex output takes the real and
    imaginary parts of each weight into its two interleaved halves.  Terms
    with a zero weight (K at g^2 = eps_i, S when eps1 = eps2) are skipped.
    The scipy axpy wrapper holds the interpreter lock, so threads that
    evaluate at the same time take turns.
    """
    g = complex(gamma)
    if g.imag == 0.0:
        g = g.real
    dtype = complex if isinstance(g, complex) else float
    out = np.zeros((pencil.n, pencil.n), dtype=dtype)
    flat = out.reshape(-1).view(float)
    step = 2 if dtype is complex else 1
    for weight, op in _terms(pencil, g):
        weight = complex(weight)
        x = np.ravel(op)
        for part, offset in ((weight.real, 0), (weight.imag, 1)):
            if part != 0.0:
                blas.daxpy(x, flat, a=part, offy=offset, incy=step)
    return out


def apply(pencil, gamma, v):
    """L(gamma) v without forming the matrix."""
    g = complex(gamma)
    return sum(weight * (op @ v) for weight, op in _terms(pencil, g))


def residual(pencil, gamma, v):
    """Scale-free backward-error surrogate for an eigenpair candidate.

    ||L(g) v|| / (||v|| (|g|^4 ||C4||_F + |g|^2 ||C2||_F + |g| ||C1||_F
    + ||C0||_F)); invariant under scaling of v.
    """
    v = np.asarray(v)
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0:
        raise PencilError("residual of the zero vector is undefined")
    n0, n1, n2, n4 = pencil.coefficient_norms
    a = abs(gamma)
    denom = vnorm * (a ** 4 * n4 + a * a * n2 + a * n1 + n0)
    return float(np.linalg.norm(apply(pencil, gamma, v)) / denom)


def linearize(pencil, scale=1.0):
    """Monic block-companion matrix of the (scaled) pencil.

    With ``scale`` s the returned 4n matrix has eigenvalues g / s for the
    pencil eigenvalues g (s = 1 gives them directly).  The leading
    coefficient is factored by Cholesky, which doubles as the positivity
    check on the L2 operator: factorization failure signals broken
    assembly.
    """
    n = pencil.n
    try:
        cho = linalg.cho_factor(pencil.k, lower=True)
    except linalg.LinAlgError as exc:
        raise PencilError(
            "leading coefficient is not positive definite; assembly is broken"
        ) from exc
    s = float(scale)

    comp = np.zeros((4 * n, 4 * n))
    eye = np.eye(n)
    comp[0 * n:1 * n, 1 * n:2 * n] = eye
    comp[1 * n:2 * n, 2 * n:3 * n] = eye
    comp[2 * n:3 * n, 3 * n:4 * n] = eye
    for j, c in enumerate(coefficients(pencil)):
        comp[3 * n:, j * n:(j + 1) * n] = -(linalg.cho_solve(cho, c)
                                            / s ** (4 - j))
    return comp
