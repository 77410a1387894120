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
are formed one at a time and never stored.  The field parity splits the
companion's square in two: ``parity_square`` reads off the half that is
the 2n companion of the quadratic in mu = g^2, which the solve's QR
takes.  The real interval where eigenvalue isolation is not guaranteed,
and the degeneration points +-sqrt(eps_i) inside it, are exposed
alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy import linalg, sparse
from scipy.linalg import blas

from . import assembly_kernels as kernels


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
        """Whether |g| lies in the band; elementwise on an array."""
        return (self.lower <= gamma_abs) & (gamma_abs <= self.upper)

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
    """Check that the operators share one square shape; they are the pencil.

    Only the operators the pencil holds, supplied or already formed, are
    checked; none is formed here (``assembly.PencilMatrices``).
    """
    n = matrices.n
    held = (vars(matrices).get(name) for name in ("k", "a1", "a2", "s"))
    if any(op is not None and op.shape != (n, n) for op in held):
        raise PencilError("operator matrices must share one square shape")
    return matrices


def coefficients(pencil, rows=slice(None)):
    """C0, C1, C2 of the monomial form, formed one at a time (C4 is K).

    ``rows`` selects a row block of each coefficient (default: all rows).
    Each is one new array, formed in place.
    """
    e1, e2 = pencil.eps1, pencil.eps2
    k = pencil.k[rows]
    c = np.subtract(k, pencil.a2[rows])
    c *= e1 * e2
    yield c
    del c           # the caller may drop C0 before C1 is formed
    yield (e1 - e2) * pencil.s[rows]
    # -(e1 + e2) k + a1 rounds as a1 - (e1 + e2) k, with one array
    c = k * -(e1 + e2)
    c += pencil.a1[rows]
    yield c


def _weights(pencil, g):
    """Weights of K, A1, S and A2 in the factored form at g."""
    e1, e2 = pencil.eps1, pencil.eps2
    g2 = g * g
    return (g2 - e1) * (g2 - e2), g2, g * (e1 - e2), -e1 * e2


def _terms(pencil, g):
    """(weight, operator) pairs of the factored form at g."""
    return tuple(zip(_weights(pencil, g),
                     (pencil.k, pencil.a1, pencil.s, pencil.a2)))


def bordered(pencil, gamma, shift=0.0):
    """The sparse nodal L(gamma) bordered by the zero-mean row, real gamma.

    Built from the pencil's ``nodal`` forms, the interface line matrix D
    (``assembly_kernels.interface_line_matrix``) and the mean vector m,
    with no operator formed.  Rows and columns are the electric (pi)
    nodes, all N nodes for the magnetic field, and one border:

        B = [[L_pp, C^T, 0], [C, L_qq, m], [0, m^T, 0]] + shift I~,

    with the weights of ``_weights``: L_pp = w mass_eps + mu stiffness_eps
    - eps1 eps2 stiffness on the pi nodes, L_qq = w mass + mu stiffness
    - eps1 eps2 stiffness_inv_eps, C = g (eps1 - eps2) D[:, pi], w =
    (mu - eps1)(mu - eps2) and mu = g^2; I~ is the identity on the field
    rows.  C^T is C transposed, so B is exactly symmetric.  L(gamma) is
    Z^T (B's field part) Z on the zero-mean space, so by Haynsworth's
    inertia theorem B has the inertia of L(gamma) + shift I with one
    more positive and one more negative eigenvalue.  Only the coupling
    is odd in gamma, so B(-gamma) = P B(gamma) P exactly, P being -1 on
    the pi rows.  CSC, the layout SuperLU factors.
    """
    forms, sp = pencil.nodal, pencil.spaces
    w, mu, couple, a2 = _weights(pencil, float(gamma))
    pi, n_pi, n = sp.pi_nodes, sp.n_pi, len(sp.mean_vector)
    l_pp = (w * forms.mass_eps + mu * forms.stiffness_eps
            + a2 * forms.stiffness)[pi][:, pi].tocoo()
    l_qq = (w * forms.mass + mu * forms.stiffness
            + a2 * forms.stiffness_inv_eps).tocoo()
    c = (couple * kernels.interface_line_matrix(sp.mesh)[:, pi]).tocoo()
    psi, field = n_pi + np.arange(n), np.arange(n_pi + n)
    border = np.full(n, n_pi + n)
    # the shift is summed into each field row's stored diagonal entry
    rows = np.concatenate([l_pp.row, n_pi + l_qq.row, n_pi + c.row, c.col,
                           psi, border, field])
    cols = np.concatenate([l_pp.col, n_pi + l_qq.col, c.col, n_pi + c.row,
                           border, psi, field])
    vals = np.concatenate([l_pp.data, l_qq.data, c.data, c.data,
                           sp.mean_vector, sp.mean_vector,
                           np.full(n_pi + n, float(shift))])
    return sparse.csc_matrix((vals, (rows, cols)), shape=(n_pi + n + 1,) * 2)


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
    """L(gamma) v without forming the matrix; for an (n, m) block v,
    column j is taken at gamma[j], and each operator meets v once."""
    g = np.asarray(gamma, dtype=complex)
    return sum(weight * (op @ v) for weight, op in _terms(pencil, g))


def coefficient_scale(pencil, gamma):
    """|g|^4 ||C4||_F + |g|^2 ||C2||_F + |g| ||C1||_F + ||C0||_F per g."""
    n0, n1, n2, n4 = pencil.coefficient_norms
    a = abs(gamma)
    return a ** 4 * n4 + a * a * n2 + a * n1 + n0


def residual(pencil, gamma, v):
    """Scale-free backward-error surrogate for an eigenpair candidate.

    ||L(g) v|| / (||v|| ``coefficient_scale(g)``), per column of a block
    as in ``apply``; invariant under scaling of v.
    """
    vnorm = np.linalg.norm(v, axis=0)
    if not np.all(vnorm):
        raise PencilError("residual of the zero vector is undefined")
    denom = vnorm * coefficient_scale(pencil, gamma)
    return np.linalg.norm(apply(pencil, gamma, v), axis=0) / denom


def linearize(pencil):
    """Monic block-companion matrix of the pencil.

    The returned 4n matrix has the pencil eigenvalues g as its
    eigenvalues, with eigenvectors [v; g v; g^2 v; g^3 v]; its last block
    row is [-A0, -B1, -A2, 0] with A0, B1, A2 = K^-1 (C0, C1, C2).  It is
    allocated in Fortran order, the layout LAPACK reads, so
    ``eigensolver.balance`` scales it in place rather than copying it.
    The leading coefficient is factored by Cholesky, which doubles as the
    positivity check on the L2 operator: factorization failure signals
    broken assembly.  The factor is held in the memory of the last block
    column, which is written last, and each coefficient is solved in
    place and negated into its block, so besides the companion one
    coefficient is the only n x n array.
    """
    n = pencil.n
    comp = np.zeros((4 * n, 4 * n), order="F")
    # the last block column is F-contiguous: its first n^2 entries, read
    # column by column, are an F-contiguous n x n array
    factor = comp[:, 3 * n:].reshape(-1, order="F")[:n * n] \
        .reshape(n, n, order="F")
    np.copyto(factor, pencil.k)
    try:
        cho = linalg.cho_factor(factor, lower=True, overwrite_a=True)
    except linalg.LinAlgError as exc:
        raise PencilError(
            "leading coefficient is not positive definite; assembly is broken"
        ) from exc

    # a counter, not enumerate, whose cached result tuple would hold each
    # coefficient until the next one is formed
    start = 0
    for c in coefficients(pencil):
        # C0, C1 and C2 are exactly symmetric, so the F-contiguous c.T is
        # c, and LAPACK solves in it in place
        x = linalg.cho_solve(cho, c.T, overwrite_b=True)
        np.negative(x, out=comp[3 * n:, start:start + n])
        start += n
        del c, x
    comp[:, 3 * n:] = 0.0
    # the three identity blocks sit on the diagonal of the upper-right
    # 3n x 3n part; writing them in place makes no n x n temporary
    np.fill_diagonal(comp[:3 * n, n:], 1.0)
    return comp


def parity_square(comp, n_pi):
    """The companion's square on its odd parity coordinates, gathered.

    K, A1 and A2 have no electric-magnetic entries and S has no diagonal
    block, so ``linearize``'s companion C anticommutes with the field
    parity T = diag(D, -D, D, -D), D being -1 on the first ``n_pi``
    (electric) coordinates of a block and +1 on the rest (magnetic).  Its
    eigenvalues are therefore +-sqrt(mu) for the eigenvalues mu of the 2n
    square C^2 on the odd coordinates (b0 pi, b1 psi, b2 pi, b3 psi) of
    its blocks b0..b3, which is [[0, I], [-P0, -P1]] with
    P0 = [[A0pp, B1pq], [0, A0qq]] and P1 = [[A2pp, 0], [B1qp, A2qq]]
    (p electric, q magnetic): each entry is one entry of C's last block
    row, so the square is copied out with no product.  Its eigenvector of
    mu = g^2 is [y; mu y] with y = (v_pi, g v_psi).  The square is
    returned in Fortran order.  The entries of that row that it leaves
    out, those that C^2 would carry between the two parities, must be
    exactly 0; otherwise PencilError.
    """
    n = len(comp) // 4
    p, q = slice(0, n_pi), slice(n_pi, n)
    last = comp[3 * n:]
    # A0, A2 between the field blocks and B1 within them
    left_out = (last[p, q], last[q, p], last[p, 2 * n + n_pi:3 * n],
                last[q, 2 * n:2 * n + n_pi], last[p, n:n + n_pi],
                last[q, n + n_pi:2 * n])
    if any(np.count_nonzero(b) for b in left_out):
        raise PencilError("the companion couples the two field parities: "
                          "the operators lack the parity block structure")
    square = np.zeros((2 * n, 2 * n), order="F")
    np.fill_diagonal(square[:n, n:], 1.0)
    bottom = square[n:]
    bottom[p, p] = last[p, p]                               # -A0pp
    bottom[p, q] = last[p, n + n_pi:2 * n]                  # -B1pq
    bottom[p, n:n + n_pi] = last[p, 2 * n:2 * n + n_pi]     # -A2pp
    bottom[q, q] = last[q, q]                               # -A0qq
    bottom[q, n:n + n_pi] = last[q, n:n + n_pi]             # -B1qp
    bottom[q, n + n_pi:] = last[q, 2 * n + n_pi:3 * n]      # -A2qq
    return square
