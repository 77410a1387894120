"""Analytic ground truth for the dielectric slab.

Transverse resonance across a full-height dielectric slab terminated by
the conducting walls, as one transcendental dispersion equation per
(family, transverse index), independent of the finite-element path.

The slab determinants are stated with tangents; root finding uses the
equivalent product form with the tangents cleared, which is entire in
gamma^2 (no poles on the search axes) and therefore safe to bracket.
It is one branch-free array expression: sin(kx)/k and cos(kx) are even
in k, so they are evaluated at the complex square root of k^2 on either
sign of k^2.  Brent's method on each bracketing grid interval is the
only root refinement.
Both families reduce to k_x a = m pi when the permittivities coincide,
which is the validation identity for the determinants.

The LSM family is empty at transverse index n = 0.  Its field derives
from the electric Hertz potential x_hat X(x) sin(n pi y / b), which the
conducting walls y = 0, b force onto the sine; at n = 0 the potential
and with it the field vanish identically.  The cleared LSM determinant
still has roots there, but none is an eigenvalue, so the root finder
returns none for that family and index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class OracleFamily(str, Enum):
    LSE = "lse"
    LSM = "lsm"


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class OracleRoot:
    """One analytic eigenvalue candidate.

    ``residual`` is the absolute value of the normalized cleared
    determinant at the root.
    """

    gamma: complex
    family: OracleFamily
    m: int
    n: int
    residual: float


def _gamma_from_usq(u):
    """gamma = sqrt(u) on the real axis, i*sqrt(-u) on the imaginary one."""
    if u >= 0.0:
        return complex(math.sqrt(u), 0.0)
    return complex(0.0, math.sqrt(-u))


def _family(family):
    """The slab family named by an OracleFamily or its string value."""
    try:
        return OracleFamily(family)
    except ValueError:
        raise OracleError(f"not a slab family: {family!r}") from None


def _kxsq(u, eps, n, b):
    return eps - u - (n * math.pi / b) ** 2


def _slab_terms(family, u, a, b, d, eps1, eps2, n):
    """The two terms of the cleared slab determinant (region 2, region 1)."""
    family = _family(family)
    k1sq = _kxsq(u, eps1, n, b)
    k2sq = _kxsq(u, eps2, n, b)
    k1 = np.sqrt(np.asarray(k1sq, dtype=complex))
    k2 = np.sqrt(np.asarray(k2sq, dtype=complex))
    # sin(kx)/k = x sinc(kx/pi) and cos(kx) are even in k, so both are
    # real on either branch of the square root (x and 1 at k = 0)
    t_left = (d * np.sinc(k2 * (d / math.pi))
              * np.cos(k1 * (a - d))).real
    t_right = ((a - d) * np.sinc(k1 * ((a - d) / math.pi))
               * np.cos(k2 * d)).real
    if family is OracleFamily.LSM:
        t_left *= k2sq / eps2
        t_right *= k1sq / eps1
    return t_left, t_right


def cleared_determinant(family, u, a, b, d, eps1, eps2, n):
    """Slab determinant with tangents cleared, as a function of u = gamma^2.

    LSE:  sin(k2 d)/k2 * cos(k1 (a-d)) + sin(k1 (a-d))/k1 * cos(k2 d)
    LSM:  (k2/eps2) sin(k2 d) cos(k1 (a-d)) + (k1/eps1) sin(k1 (a-d)) cos(k2 d)

    with k_j^2 = eps_j - u - (n pi / b)^2 and region 2 on [0, d].  Both are
    entire in u and vanish exactly at the eigenvalues of the corresponding
    transverse-resonance problem, including points where the tangent form
    degenerates into a pole-root coincidence.  ``u`` may be a scalar or an
    array.
    """
    t_left, t_right = _slab_terms(family, u, a, b, d, eps1, eps2, n)
    return t_left + t_right


def normalized_determinant(family, u, a, b, d, eps1, eps2, n):
    """Cleared determinant scaled by its term magnitudes.

    Same sign and root set as the cleared form, but with values O(1), so
    a Brent-bracketed root reaches residuals near machine precision even
    where the hyperbolic branches make the raw terms large.  ``u`` may be
    a scalar or an array.
    """
    t_left, t_right = _slab_terms(family, u, a, b, d, eps1, eps2, n)
    return (t_left + t_right) / (1.0 + abs(t_left) + abs(t_right))


def slab_dispersion_roots(a, b, d, eps1, eps2, n=0, family=OracleFamily.LSE,
                          gamma_max=4.0):
    """Real- and imaginary-axis slab eigenvalues by bracketing in gamma^2.

    The search runs on a uniform u = gamma^2 grid, 2000 intervals on each
    of [-gamma_max^2, 0] (imaginary gamma) and [0, gamma_max^2] (real
    gamma) and one more past each end, each grid evaluated in one array
    call; a root on |gamma| = gamma_max is then inside the grid, and
    roots beyond it by more than 1e-10 (1 + gamma_max^2) in u are
    dropped.  Each grid interval
    whose end signs differ or include a 0 (signs, not products, which
    could underflow) is refined by Brent's method to the rounding level of
    u; the cleared form has no tangent poles, so such an interval holds a
    root, and a root on a grid point is kept once.  Roots come back
    as +- pairs ordered from the most propagating downwards.

    LSM at n = 0 returns no roots: the LSM potential carries the factor
    sin(n pi y / b), so that family is empty and the roots of its
    determinant are not eigenvalues.
    """
    from scipy.optimize import brentq

    family = _family(family)
    if not 0.0 < d < a:
        raise OracleError("slab boundary must satisfy 0 < d < a")
    if eps1 < 1.0 or eps2 < 1.0:
        raise OracleError("permittivities must be >= 1")
    if n < 0:
        raise OracleError("transverse index must be >= 0")
    if family is OracleFamily.LSM and n == 0:
        return []

    def f(u):
        return normalized_determinant(family, u, a, b, d, eps1, eps2, n)

    u_roots = []
    umax = gamma_max * gamma_max
    for lo, hi in ((-umax, 0.0), (0.0, umax)):
        us = np.linspace(lo, hi, 2001)
        # one more interval past |u| = umax, so a root there is interior
        step = us[1] - us[0]
        us = np.concatenate(([lo - step], us)) if lo < 0.0 \
            else np.append(us, hi + step)
        signs = np.sign(f(us))
        for i in np.flatnonzero(signs[:-1] * signs[1:] <= 0.0):
            u0, u1 = float(us[i]), float(us[i + 1])
            u_star = brentq(f, u0, u1, xtol=1e-15, maxiter=200)
            u_roots.append((u_star, abs(float(f(u_star)))))

    u_roots.sort(key=lambda r: -r[0])
    deduped = []
    for u, res in u_roots:
        if abs(u) - umax > 1e-10 * (1.0 + umax):
            continue
        if deduped and abs(u - deduped[-1][0]) <= 1e-10 * (1.0 + abs(u)):
            continue
        if family is OracleFamily.LSM:
            # Both transverse wavenumbers vanishing together (possible only
            # for equal permittivities) zeroes the cleared form with a
            # trivial eigenfunction; not an eigenvalue.
            tol = 1e-9 * (1.0 + abs(u))
            if abs(_kxsq(u, eps1, n, b)) < tol and abs(_kxsq(u, eps2, n, b)) < tol:
                continue
        deduped.append((u, res))

    roots = []
    for m, (u, res) in enumerate(deduped, start=1):
        gamma = _gamma_from_usq(u)
        roots.append(OracleRoot(gamma=gamma, family=family, m=m, n=n,
                                residual=res))
        if gamma != 0:
            roots.append(OracleRoot(gamma=-gamma, family=family, m=m, n=n,
                                    residual=res))
    return roots


def match_roots(roots, eigenvalues, rel_tol):
    """Nearest finite-element eigenvalue for each oracle root.

    Returns (matches, mismatch_count); matches are tuples
    (root, nearest eigenvalue, relative gap).  The gap is relative to
    |gamma_oracle| with a tiny floor so a root at the origin compares
    absolutely.
    """
    vals = np.asarray(eigenvalues, dtype=complex)
    matches = []
    mismatches = 0
    for root in roots:
        gaps = np.abs(vals - root.gamma)
        j = int(np.argmin(gaps))
        rel = float(gaps[j] / max(abs(root.gamma), 1e-12))
        matches.append((root, complex(vals[j]), rel))
        if rel > rel_tol:
            mismatches += 1
    return matches, mismatches


def write_roots_csv(roots, stream):
    """CSV dump: family, m, n, Re gamma, Im gamma, residual."""
    stream.write("family,m,n,re_gamma,im_gamma,residual\n")
    for r in roots:
        stream.write(f"{r.family.value},{r.m},{r.n},"
                     f"{r.gamma.real:.17g},{r.gamma.imag:.17g},"
                     f"{r.residual:.17g}\n")
