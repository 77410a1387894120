import math

import numpy as np
import pytest
from scipy import linalg

import wavepencil as wp
from wavepencil import pencil as pencil_mod
from wavepencil.assembly import PencilMatrices
from wavepencil.eigensolver import (EigensolverError, MAX_COMPANION_DIM,
                                    balance, null_space_basis,
                                    numerical_nullity, qr_eigenvalues,
                                    recover_eigenvector, solve_companion,
                                    solve_pencil)
from wavepencil.pencil import linearize, residual

PI = math.pi


def toy_companion():
    """Companion of the scalar quartic 2 g^4 - 3 g^2 + 1."""
    pen = PencilMatrices(spaces=None, eps1=1.0, eps2=1.0,
                         k=np.array([[2.0]]), a1=np.array([[1.0]]),
                         a2=np.array([[1.0]]), s=np.array([[0.0]]))
    return linearize(pen)


def test_balance_leaves_diagonal_matrices_alone():
    d = np.diag([1.0, 10.0, 100.0])
    scaled, _ = balance(d)
    assert np.array_equal(scaled, d)


def test_balance_preserves_eigenvalues():
    comp = toy_companion()
    scaled, _ = balance(comp)
    a = np.sort_complex(np.linalg.eigvals(comp))
    b = np.sort_complex(np.linalg.eigvals(scaled))
    assert np.abs(a - b).max() <= 1e-12


def test_balance_reduces_norm_spread():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    a[0] *= 1e6
    a[:, 3] *= 1e-6
    scaled, _ = balance(a)

    def spread(m):
        norms = np.linalg.norm(m, axis=1) + np.linalg.norm(m, axis=0)
        return norms.max() / norms.min()

    assert spread(scaled) < spread(a)


def test_qr_eigenvalues_diagonal():
    vals = qr_eigenvalues(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(np.sort_complex(vals), [1.0, 2.0, 3.0], atol=1e-14)


def test_qr_eigenvalues_toy_quartic():
    h = linalg.hessenberg(toy_companion())
    vals = np.sort_complex(qr_eigenvalues(h))
    expected = np.sort_complex(np.array(
        [-1.0, -1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 1.0],
        dtype=complex))
    assert np.abs(vals - expected).max() <= 1e-10


def test_spectrum_invariant_under_unitary_similarity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((12, 12))
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    b = q.T @ a @ q
    va = np.sort_complex(np.linalg.eigvals(a))
    vb = np.sort_complex(np.linalg.eigvals(b))
    assert np.abs(va - vb).max() <= 1e-9 * np.linalg.norm(a)


def test_companion_pairs_backward_stable(homog_pencil):
    comp = linearize(homog_pencil, scale=homog_pencil.exclusion.p)
    vals, vecs = solve_companion(comp, compute_vectors=True)
    norm_a = np.linalg.norm(comp, "fro")
    worst = 0.0
    for lam, v in zip(vals, vecs.T):
        worst = max(worst, np.linalg.norm(comp @ v - lam * v)
                    / np.linalg.norm(v))
    assert worst <= 1e-9 * norm_a


def test_real_companion_spectrum_conjugation_closed(slab_eigenvalues):
    ev = slab_eigenvalues
    a = np.lexsort((ev.imag, ev.real))
    b = np.lexsort((-ev.imag, ev.real))
    assert np.abs(ev[a] - np.conj(ev[b])).max() <= 1e-10


def test_dimension_cap_enforced():
    with pytest.raises(EigensolverError):
        solve_companion(np.zeros((MAX_COMPANION_DIM + 4, MAX_COMPANION_DIM + 4)))


def test_solve_pencil_checks_cap_before_linearizing(monkeypatch):
    n = MAX_COMPANION_DIM // 4 + 1
    zero = np.broadcast_to(0.0, (n, n))      # shape only, no n x n storage
    pen = PencilMatrices(spaces=None, eps1=1.0, eps2=4.0,
                         k=zero, a1=zero, a2=zero, s=zero)

    def never(*args, **kwargs):
        raise AssertionError("linearize called past the dimension cap")

    monkeypatch.setattr(pencil_mod, "linearize", never)
    with pytest.raises(EigensolverError, match=f"{(4 * n) ** 2 * 8} bytes"):
        solve_pencil(pen)


def test_homogeneous_spectrum_contains_unit_pair(homog_eigenvalues):
    # oracle: cutoff modes of the square at eps = 2 sit at +-1
    for target in (1.0, -1.0):
        close = homog_eigenvalues[np.abs(homog_eigenvalues - target) < 0.05]
        assert len(close) == 2


def test_solve_pencil_vector_residuals(homog_matrices):
    pen = wp.make_pencil(homog_matrices)
    report = solve_pencil(pen, compute_vectors=True, residual_tol=1e-8)
    assert report.vectors is not None
    assert report.residuals is not None
    assert len(report.eigenvalues) == 4 * pen.n
    # away from the degeneration cluster every pair must be converged
    deg = np.abs(np.abs(report.eigenvalues) - math.sqrt(2.0)) < 1e-6
    assert np.all(report.converged[~deg])
    assert np.median(report.residuals) <= 1e-10


def test_recover_eigenvector_matches_analytic_mode(homog_spaces,
                                                   homog_pencil,
                                                   homog_eigenvalues):
    gamma = homog_eigenvalues[np.argmin(np.abs(homog_eigenvalues - 1.0))]
    v, res, converged, _ = recover_eigenvector(homog_pencil, gamma)
    assert converged and res <= 1e-8
    _, psi_nodal = homog_spaces.nodal_fields(v)
    nodes = homog_spaces.mesh.nodes
    span = np.column_stack([np.cos(nodes[:, 0]), np.cos(nodes[:, 1])])
    q, _ = np.linalg.qr(span)
    coeff = np.linalg.norm(q.T @ psi_nodal) / np.linalg.norm(psi_nodal)
    assert coeff >= 0.99


def test_recovered_pair_residual_contract(slab_pencil, slab_eigenvalues):
    # a handful of well-separated eigenvalues recover to tight residuals
    ev = slab_eigenvalues
    picks = [np.argmin(np.abs(ev - t)) for t in (1.4j, 2.5j, 3.6j)]
    for idx in picks:
        v, res, converged, _ = recover_eigenvector(slab_pencil, ev[idx])
        assert converged
        assert res <= 1e-8


def test_phase_invariance_of_residual(slab_pencil):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(slab_pencil.n) + 1j * rng.standard_normal(slab_pencil.n)
    g = 0.5 + 0.5j
    r = residual(slab_pencil, g, v)
    assert residual(slab_pencil, g, np.exp(1j * 1.234) * v) == \
        pytest.approx(r, rel=1e-12)


def test_parity_maps_eigenvectors_across_sign(slab_spaces, slab_pencil,
                                              slab_eigenvalues):
    ev = slab_eigenvalues
    gamma = ev[np.argmin(np.abs(ev - 1.4j))]
    v, res, converged, _ = recover_eigenvector(slab_pencil, gamma)
    assert converged
    flipped = slab_spaces.parity_signs() * v
    assert residual(slab_pencil, -gamma, flipped) <= 10.0 * res


def test_null_space_basis_at_slab_degeneration(slab_pencil):
    basis = null_space_basis(slab_pencil, 1.0, max_dim=6)
    assert basis.shape == (slab_pencil.n, 6)
    for j in range(basis.shape[1]):
        assert residual(slab_pencil, 1.0, basis[:, j]) <= 1e-12


def test_null_space_basis_at_degeneration(homog_pencil):
    basis = null_space_basis(homog_pencil, math.sqrt(2.0), max_dim=5)
    assert basis.shape == (homog_pencil.n, 5)
    # every column is an exact kernel vector of the collapsed pencil
    lmat = wp.evaluate(homog_pencil, math.sqrt(2.0))
    assert np.abs(lmat @ basis).max() <= 1e-10


def test_numerical_nullity_zero_away_from_spectrum(slab_pencil):
    assert numerical_nullity(slab_pencil, 3.5) == 0
