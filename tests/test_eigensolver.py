import dataclasses
import math

import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import lapack
from scipy.optimize import linear_sum_assignment

import wavepencil as wp
from wavepencil import eigensolver
from wavepencil import pencil as pencil_mod
from wavepencil.analysis import CLASSIFICATION_TOL, degeneration_count
from wavepencil.assembly import PencilMatrices
from wavepencil.eigensolver import (EigensolverError, MAX_COMPANION_DIM,
                                    _deflation_tol, _null_planes,
                                    _restore_vectors, balance,
                                    deflate_square, degeneration_null_nodes,
                                    numerical_nullity,
                                    qr_eigenvalues, solve_companion,
                                    solve_pencil)
from wavepencil.pencil import (PencilError, apply, linearize, parity_square,
                               residual)
from conftest import build_slit_mesh_text, parity_signs, traced_peak

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
    scaled, d = balance(comp.copy())
    a = np.sort_complex(np.linalg.eigvals(comp))
    b = np.sort_complex(np.linalg.eigvals(scaled))
    assert np.abs(a - b).max() <= 1e-12
    # the scales are powers of two, so D^-1 A D is exact
    assert d.shape == (comp.shape[0],)
    assert np.array_equal(scaled, comp * d / d[:, None])


def test_balance_reduces_norm_spread():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    a[0] *= 1e6
    a[:, 3] *= 1e-6
    scaled, d = balance(a)
    assert np.any(d != 1.0)
    assert np.array_equal(scaled, a * d / d[:, None])

    def spread(m):
        norms = np.linalg.norm(m, axis=1) + np.linalg.norm(m, axis=0)
        return norms.max() / norms.min()

    assert spread(scaled) < spread(a)


def test_qr_eigenvalues_diagonal():
    # the eigenvalues mu of a parity square give the companion's +-sqrt(mu)
    vals = qr_eigenvalues(np.diag([1.0, 4.0, 9.0]))
    assert np.allclose(np.sort_complex(vals),
                       [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], atol=1e-14)
    assert np.array_equal(vals[3:], -vals[:3])


def test_qr_eigenvalues_toy_quartic():
    h = linalg.hessenberg(parity_square(toy_companion(), 1))
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
    # the pairs (mu, z) of the companion's parity square, mu = g^2
    comp = parity_square(linearize(homog_pencil), homog_pencil.spaces.n_pi)
    vals, vecs = solve_companion(comp.copy(), compute_vectors=True)
    norm_a = np.linalg.norm(comp, "fro")
    worst = 0.0
    for lam, v in zip(vals[:len(comp)] ** 2, vecs.T):
        worst = max(worst, np.linalg.norm(comp @ v - lam * v)
                    / np.linalg.norm(v))
    assert worst <= 1e-9 * norm_a


def test_linearize_builds_what_balance_scales_in_place(slab_pencil):
    comp = linearize(slab_pencil)
    assert comp.flags.f_contiguous
    scaled, _ = balance(comp)
    assert np.shares_memory(scaled, comp)


def test_balance_in_place_holds_no_array_of_the_matrix_size(slab_pencil):
    # LAPACK scales a Fortran-ordered input in place; only the scales
    # are allocated, no copy and no mask of the matrix
    square = parity_square(linearize(slab_pencil), slab_pencil.spaces.n_pi)
    dim = len(square)
    assert traced_peak(lambda: balance(square)) <= 0.01 * dim * dim * 8


@pytest.mark.parametrize("nx", [8, 12])
@pytest.mark.parametrize("vectors,bound", [(False, 1.3), (True, 3.3)])
def test_solve_pencil_holds_the_companion_once(nx, vectors, bound):
    # the companion, balanced in place, and for vectors the complex
    # (4n)^2 eigenvector array, undone in place; numpy's LAPACK work
    # copy is not a Python allocation, so tracemalloc does not see it.
    # The operators, formed on first read, are formed before the trace.
    pen = wp.make_pencil(wp.assemble_matrices(wp.build_spaces(
        wp.generate_rect_slab(PI, PI, PI / 2, nx, nx)), 1.0, 4.0))
    pen.k, pen.a1, pen.a2, pen.s
    dim = 4 * pen.n
    peak = traced_peak(lambda: solve_pencil(pen, compute_vectors=vectors))
    assert peak <= bound * dim * dim * 8


def test_linearize_solves_each_coefficient_in_place():
    # the companion of the plain construction, bit for bit, with one n x n
    # coefficient beside it at the peak: the Cholesky factor is held in
    # the last block column until that column is written
    pen = wp.make_pencil(wp.assemble_matrices(wp.build_spaces(
        wp.generate_rect_slab(PI, PI, PI / 2, 12, 12)), 1.0, 4.0))
    n, dim = pen.n, 4 * pen.n
    e1, e2 = pen.eps1, pen.eps2
    cho = linalg.cho_factor(pen.k, lower=True)
    ref = np.zeros((dim, dim))
    ref[:3 * n, n:] = np.eye(3 * n)
    for j, c in enumerate((e1 * e2 * (pen.k - pen.a2), (e1 - e2) * pen.s,
                           pen.a1 - (e1 + e2) * pen.k)):
        ref[3 * n:, j * n:(j + 1) * n] = -linalg.cho_solve(cho, c)
    assert np.array_equal(linearize(pen), ref)
    assert traced_peak(lambda: linearize(pen)) <= 1.1 * dim * dim * 8


def _parity_coordinates(n, n_pi):
    """Odd (b0 pi, b1 psi, b2 pi, b3 psi) and even (b0 psi, b1 pi, b2 psi,
    b3 pi) coordinates of the 4n companion's blocks b0..b3."""
    pi, psi = np.arange(n_pi), np.arange(n_pi, n)
    odd = np.concatenate([pi, n + psi, 2 * n + pi, 3 * n + psi])
    even = np.concatenate([psi, n + pi, 2 * n + psi, 3 * n + pi])
    return odd, even


#: Meshes on which the deflated solve is checked against the plain one.
DEFLATION_CASES = {
    "slab8-eps1/4": (lambda: wp.generate_rect_slab(PI, PI, PI / 2, 8, 8),
                     (1.0, 4.0)),
    "slab8-eps1/2.5": (lambda: wp.generate_rect_slab(PI, PI, PI / 2, 8, 8),
                       (1.0, 2.5)),
    "slab12-eps1/4": (lambda: wp.generate_rect_slab(PI, PI, PI / 2, 12, 12),
                      (1.0, 4.0)),
    "slab12-eps1/2.5": (lambda: wp.generate_rect_slab(PI, PI, PI / 2, 12,
                                                      12), (1.0, 2.5)),
    "homog8-eps2/2": (lambda: wp.generate_homogeneous_rect(PI, PI, 8, 8,
                                                           PI / 2),
                      (2.0, 2.0)),
    "slit-eps1/4": (lambda: wp.load_mesh(build_slit_mesh_text()),
                    (1.0, 4.0)),
}


@pytest.fixture(scope="module", params=list(DEFLATION_CASES))
def deflation_case(request):
    """(pencil, eigenvalues of ``solve_pencil``) of one deflation case."""
    make_mesh, eps = DEFLATION_CASES[request.param]
    pen = wp.make_pencil(wp.assemble_matrices(wp.build_spaces(make_mesh()),
                                              *eps))
    return pen, solve_pencil(pen).eigenvalues


def _deflated_count(pen, g):
    """Null fields at g that the companion deflation rotates out.

    All but the one field that holds the constant, and, when node 0 is
    null and some node is not, the one that holds node 0: those two are
    not supported on the magnetic coordinates of the null nodes.
    """
    sp = pen.spaces
    null = degeneration_null_nodes(sp.mesh, pen.eps1, pen.eps2, g)
    count = degeneration_count(sp, pen.eps1, pen.eps2)[g]
    return count - 1 - int(null[0] and not null.all())


def test_companion_anticommutes_with_the_field_parity(deflation_case):
    # the premise of the parity square: C maps each parity to the other,
    # and C[odd, even] C[even, odd] is the gathered square bit for bit
    pen, _ = deflation_case
    comp = linearize(pen)
    odd, even = _parity_coordinates(pen.n, pen.spaces.n_pi)
    assert not np.any(comp[np.ix_(even, even)])
    assert not np.any(comp[np.ix_(odd, odd)])
    product = comp[np.ix_(odd, even)] @ comp[np.ix_(even, odd)]
    square = parity_square(comp, pen.spaces.n_pi)
    assert square.flags.f_contiguous
    assert np.array_equal(square, product)


def test_solve_pencil_returns_each_value_with_its_negation(deflation_case):
    _, vals = deflation_case
    half = len(vals) // 2
    assert np.array_equal(vals[half:], -vals[:half])


def test_parity_square_refuses_a_companion_that_couples_the_parities(
        slab_pencil):
    comp = linearize(slab_pencil)
    n, n_pi = slab_pencil.n, slab_pencil.spaces.n_pi
    comp[3 * n, n_pi] = 1e-300          # an electric-magnetic entry of A0
    with pytest.raises(PencilError, match="parity"):
        parity_square(comp, n_pi)


def test_deflated_solve_matches_the_undeflated_companion(deflation_case):
    pen, vals = deflation_case
    ref = np.linalg.eigvals(linearize(pen))
    gap = np.abs(vals[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(gap)
    assert np.all(gap[rows, cols] <= 1e-12 * np.abs(ref[cols]))


def test_degeneration_points_keep_their_count_and_come_back_exact(
        deflation_case):
    pen, vals = deflation_case
    for g, count in degeneration_count(pen.spaces, pen.eps1,
                                       pen.eps2).items():
        near = np.abs(vals - g) <= CLASSIFICATION_TOL * (1.0 + abs(g))
        assert np.count_nonzero(near) == count
        # the QR may land on g exactly for a field it was not spared
        assert _deflated_count(pen, g) <= np.count_nonzero(vals == g) <= count


def _deflated_square(pen):
    """(deflated parity square, null planes, deflation tolerance)."""
    square = parity_square(linearize(pen), pen.spaces.n_pi)
    planes, tol = _null_planes(pen), _deflation_tol(square)
    return deflate_square(square, planes, tol), planes, tol


def test_lapack_balancing_isolates_the_deflated_columns(deflation_case):
    # one column of the square per deflated field and eps_j
    pen, _ = deflation_case
    dim = 2 * pen.n
    square = parity_square(linearize(pen), pen.spaces.n_pi)
    _, lo, hi, _, info = lapack.dgebal(square, permute=1, scale=0)
    assert info == 0 and hi - lo + 1 == dim
    square, _, _ = _deflated_square(pen)
    _, lo, hi, _, info = lapack.dgebal(square, permute=1, scale=0)
    assert info == 0
    assert hi - lo + 1 == dim - sum(
        _deflated_count(pen, math.sqrt(eps)) for eps in {pen.eps1, pen.eps2})


def test_deflated_vectors_carry_small_residuals(deflation_case):
    pen, _ = deflation_case
    assert solve_pencil(pen, compute_vectors=True).residuals.max() <= 1e-12


def test_deflated_fields_are_rebuilt_in_every_vector():
    # the isolated coordinate of each deflated field is rebuilt from its
    # partner, not taken from the QR's back-substitution, which divides by
    # mu - eps_j; without that the largest residual here is 2.2e-13
    pen = wp.make_pencil(wp.assemble_matrices(wp.build_spaces(
        wp.generate_rect_slab(PI, PI, PI / 2, 12, 12)), 1.0, 4.0))
    assert solve_pencil(pen, compute_vectors=True).residuals.max() <= 2e-14


@pytest.mark.parametrize("node", ["interior", "shield"])
def test_deflation_refuses_a_field_that_is_not_null(monkeypatch, slab_pencil,
                                                    node):
    # one node at x = pi, outside the slab that is null at g = +-1, marked
    # null: off the shield its electric and magnetic fields, on the shield
    # its magnetic field, are not in the kernel of L(+-1)
    sp = slab_pencil.spaces
    find = eigensolver.degeneration_null_nodes
    null = find(sp.mesh, 1.0, 4.0, 1.0)
    shield = sp.pi_index < 0
    wrong = np.flatnonzero(~null & (shield if node == "shield"
                                    else ~shield))[-1]

    def marked(mesh, eps1, eps2, gamma):
        mask = find(mesh, eps1, eps2, gamma)
        if abs(gamma) == 1.0:
            mask[wrong] = True
        return mask

    monkeypatch.setattr(eigensolver, "degeneration_null_nodes", marked)
    with pytest.raises(EigensolverError, match=r"g = 1: .* residual \d"):
        solve_pencil(slab_pencil)


@pytest.mark.parametrize("nx", [4, 8])
def test_solve_pencil_applies_the_pencil_once_for_every_vector(monkeypatch,
                                                               nx):
    # one block product recovers every residual, whatever n
    pen = wp.make_pencil(wp.assemble_matrices(wp.build_spaces(
        wp.generate_rect_slab(PI, PI, PI / 2, nx, nx)), 1.0, 4.0))
    calls = []

    def counted(pencil, gamma, v):
        calls.append(np.shape(v))
        return apply(pencil, gamma, v)

    monkeypatch.setattr(pencil_mod, "apply", counted)
    report = solve_pencil(pen, compute_vectors=True)
    assert calls == [(pen.n, 4 * pen.n)]
    assert report.residuals.shape == (4 * pen.n,)


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
    report = solve_pencil(pen, compute_vectors=True)
    assert report.vectors is not None
    assert report.residuals is not None
    assert len(report.eigenvalues) == 4 * pen.n
    # away from the degeneration cluster every pair must be converged
    deg = np.abs(np.abs(report.eigenvalues) - math.sqrt(2.0)) < 1e-6
    assert np.all(report.residuals[~deg] <= 1e-8)
    assert np.median(report.residuals) <= 1e-10


def test_solve_pencil_vectors_are_unit_and_carry_their_residuals(
        homog_pencil):
    report = solve_pencil(homog_pencil, compute_vectors=True)
    assert report.vectors.shape == (homog_pencil.n, 4 * homog_pencil.n)
    assert np.allclose(np.linalg.norm(report.vectors, axis=0), 1.0,
                       rtol=0, atol=1e-12)
    expected = residual(homog_pencil, report.eigenvalues, report.vectors)
    assert report.residuals == pytest.approx(expected, rel=1e-12, abs=0)
    # one column at a time, a matrix-vector product rounds differently
    # from the block product, by far less than the residuals' own size
    each = [residual(homog_pencil, g, v)
            for g, v in zip(report.eigenvalues, report.vectors.T)]
    assert np.abs(report.residuals - each).max() <= 1e-15
    # the eigenvector rule one column at a time, on the same deflated
    # square, gives the same vectors
    n, n_pi = homog_pencil.n, homog_pencil.spaces.n_pi
    square, planes, tol = _deflated_square(homog_pencil)
    gammas, vecs = solve_companion(square, compute_vectors=True)
    _restore_vectors(vecs, gammas[:2 * n] ** 2, planes, tol)
    assert np.array_equal(gammas, report.eigenvalues)
    for j, v in enumerate(report.vectors.T):
        z = vecs[:, j % (2 * n)]
        h = max(z[:n], z[n:], key=np.linalg.norm).copy()
        if gammas[j] != 0:
            h[n_pi:] /= gammas[j]
        overlap = abs(np.vdot(h, v)) / np.linalg.norm(h)
        assert overlap >= 1.0 - 1e-12


@pytest.fixture(scope="module")
def homog_pairs(homog_pencil):
    return solve_pencil(homog_pencil, compute_vectors=True)


@pytest.fixture(scope="module")
def slab_pairs(slab_pencil):
    return solve_pencil(slab_pencil, compute_vectors=True)


def _pair_near(report, target):
    """(gamma, unit vector, residual) of the eigenpair nearest target."""
    idx = np.argmin(np.abs(report.eigenvalues - target))
    return (report.eigenvalues[idx], report.vectors[:, idx],
            report.residuals[idx])


def test_recover_eigenvector_matches_analytic_mode(homog_spaces, homog_pairs):
    # the companion eigenvector at gamma = 1 is a mode (1, 0) or (0, 1)
    _, v, res = _pair_near(homog_pairs, 1.0)
    assert res <= 1e-8
    _, psi_nodal = homog_spaces.nodal_fields(v)
    nodes = homog_spaces.mesh.nodes
    span = np.column_stack([np.cos(nodes[:, 0]), np.cos(nodes[:, 1])])
    q, _ = np.linalg.qr(span)
    coeff = np.linalg.norm(q.T @ psi_nodal) / np.linalg.norm(psi_nodal)
    assert coeff >= 0.99


def test_recovered_pair_residual_contract(slab_pairs):
    # a handful of well-separated eigenvalues recover to tight residuals
    for target in (1.4j, 2.5j, 3.6j):
        _, _, res = _pair_near(slab_pairs, target)
        assert res <= 1e-8


def test_phase_invariance_of_residual(slab_pencil):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(slab_pencil.n) + 1j * rng.standard_normal(slab_pencil.n)
    g = 0.5 + 0.5j
    r = residual(slab_pencil, g, v)
    assert residual(slab_pencil, g, np.exp(1j * 1.234) * v) == \
        pytest.approx(r, rel=1e-12)


def test_parity_maps_eigenvectors_across_sign(slab_spaces, slab_pencil,
                                              slab_pairs):
    gamma, v, res = _pair_near(slab_pairs, 1.4j)
    assert res <= 1e-8
    flipped = parity_signs(slab_spaces) * v
    assert residual(slab_pencil, -gamma, flipped) <= 10.0 * res


def _svd_cutoff(pencil, gamma, rel_tol=1e-8):
    """rel_tol times the coefficient-norm polynomial at |gamma|."""
    n0, n1, n2, n4 = pencil.coefficient_norms
    a = abs(gamma)
    return rel_tol * (a ** 4 * n4 + a * a * n2 + a * n1 + n0)


def null_space_basis(pencil, gamma, rel_tol=1e-8, max_dim=12):
    """Numerical null-space basis of L(gamma) from its SVD.

    Right singular vectors whose singular values fall below the cutoff,
    capped at ``max_dim`` columns.
    """
    _, svals, vh = np.linalg.svd(wp.evaluate(pencil, gamma))
    take = min(int(np.sum(svals <= _svd_cutoff(pencil, gamma, rel_tol))),
               max_dim)
    return vh.conj().T[:, vh.shape[0] - take:]


def test_null_space_basis_at_slab_degeneration(slab_pencil):
    basis = null_space_basis(slab_pencil, 1.0, max_dim=6)
    assert basis.shape == (slab_pencil.n, 6)
    # uncapped, the basis is as wide as the nullity and every column is a
    # kernel vector
    for g in (1.0, -1.0, 2.0, -2.0):
        basis = null_space_basis(slab_pencil, g, max_dim=slab_pencil.n)
        assert basis.shape[1] == numerical_nullity(slab_pencil, g) > 6
        for j in range(basis.shape[1]):
            assert residual(slab_pencil, g, basis[:, j]) <= 1e-12


def test_null_space_basis_at_degeneration(homog_pencil):
    basis = null_space_basis(homog_pencil, math.sqrt(2.0), max_dim=5)
    assert basis.shape == (homog_pencil.n, 5)
    # every column is an exact kernel vector of the collapsed pencil
    lmat = wp.evaluate(homog_pencil, math.sqrt(2.0))
    assert np.abs(lmat @ basis).max() <= 1e-10
    full = null_space_basis(homog_pencil, math.sqrt(2.0), max_dim=homog_pencil.n)
    assert full.shape[1] == numerical_nullity(homog_pencil, math.sqrt(2.0))


def test_numerical_nullity_zero_away_from_spectrum(slab_pencil):
    assert numerical_nullity(slab_pencil, 3.5) == 0


def _svd_nullity(pencil, gamma, rel_tol=1e-8):
    svals = np.linalg.svd(wp.evaluate(pencil, gamma), compute_uv=False)
    return int(np.sum(svals <= _svd_cutoff(pencil, gamma, rel_tol)))


@pytest.mark.parametrize("gamma", [1.0, -1.0, 2.0, -2.0])
def test_numerical_nullity_equals_svd_count(slab_pencil, gamma):
    assert numerical_nullity(slab_pencil, gamma) == \
        _svd_nullity(slab_pencil, gamma)


def test_numerical_nullity_refuses_a_complex_gamma(slab_pencil, monkeypatch):
    # L(gamma) is complex there: refused before it is evaluated
    def evaluate(pencil, gamma):
        raise AssertionError("L(gamma) evaluated")

    monkeypatch.setattr(pencil_mod, "evaluate", evaluate)
    with pytest.raises(ValueError, match=r"L\(0\.7\+0\.3j\): .* real gamma"):
        numerical_nullity(slab_pencil, 0.7 + 0.3j)


def test_numerical_nullity_refuses_an_asymmetric_pencil(slab_matrices,
                                                        slab_pencil):
    # one entry above the diagonal of A1, on a row and a column that the
    # kernel at gamma = 1 uses: a solver that reads one triangle misses it,
    # and the SVD count sees it
    vecs = null_space_basis(slab_pencil, 1.0, max_dim=slab_pencil.n)
    weight = np.abs(vecs).sum(axis=1)
    i, j = sorted(np.argsort(weight)[-2:])
    a1 = slab_matrices.a1.copy()
    a1[i, j] += 1.0
    bad = wp.make_pencil(dataclasses.replace(slab_matrices, a1=a1))
    assert _svd_nullity(bad, 1.0) < numerical_nullity(slab_pencil, 1.0)
    with pytest.raises(ValueError, match=r"L\(1\) is not exactly symmetric"):
        numerical_nullity(bad, 1.0)


@pytest.mark.parametrize("field", ["electric", "magnetic"])
def test_numerical_nullity_refuses_a_null_field_that_is_not(field,
                                                            slab_matrices):
    # one diagonal entry of A1 at a node the mesh makes null at gamma = 1:
    # L(1) stays symmetric, but that field is no longer in its kernel
    sp = slab_matrices.spaces
    null = degeneration_null_nodes(sp.mesh, 1.0, 4.0, 1.0)
    node = np.flatnonzero(null & (sp.pi_index >= 0))[0]
    i = sp.pi_index[node] if field == "electric" else sp.n_pi + node - 1
    a1 = slab_matrices.a1.copy()
    a1[i, i] += 1e-3
    bad = wp.make_pencil(dataclasses.replace(slab_matrices, a1=a1))
    with pytest.raises(ValueError, match=r"L\(1\): .* residual .*e-0[34]"):
        numerical_nullity(bad, 1.0)


def test_null_space_basis_at_a_complex_eigenvalue(slab_pencil, slab_eigenvalues):
    # at a simple complex eigenvalue the basis is the mode itself
    vals = slab_eigenvalues[(np.abs(slab_eigenvalues.real) > 1e-3)
                            & (np.abs(slab_eigenvalues.imag) > 1e-3)]
    g = vals[np.argmin(np.abs(vals))]
    basis = null_space_basis(slab_pencil, g)
    assert basis.shape[1] == _svd_nullity(slab_pencil, g) == 1
    assert residual(slab_pencil, g, basis[:, 0]) <= 1e-12


def _eigvalsh_block_count(pencil, gamma):
    """The deflated block's |eigenvalues| under the cutoff, plus the
    fields the mesh makes null: the count by a symmetric eigensolve."""
    cutoff = eigensolver.NULLITY_REL_TOL * pencil_mod.coefficient_scale(
        pencil, gamma)
    mat, dropped = wp.evaluate(pencil, gamma), 0
    fields = eigensolver.null_fields(pencil.spaces, pencil.eps1, pencil.eps2,
                                     gamma)
    if fields is not None:
        mat, dropped = eigensolver._deflate(pencil, gamma, mat, fields,
                                            cutoff)
    return dropped + int(np.sum(np.abs(np.linalg.eigvalsh(mat)) <= cutoff))


@pytest.mark.parametrize("case,eps", [("slab", (1.0, 4.0)),
                                      ("slit", (1.0, 4.0)),
                                      ("homog", (2.0, 2.0))])
def test_inertia_nullity_equals_the_eigvalsh_count(case, eps, slab_mesh,
                                                   homog_mesh):
    # every degeneration point, and the smallest real eigenvalue of the
    # solve off the degeneration points, where the nullity is not zero
    mesh = {"slab": lambda: slab_mesh, "homog": lambda: homog_mesh,
            "slit": lambda: wp.load_mesh(build_slit_mesh_text())}[case]()
    pen = wp.make_pencil(wp.assemble_matrices(wp.build_spaces(mesh), *eps))
    vals = solve_pencil(pen).eigenvalues
    degenerate = wp.pencil.degeneration_points(*eps)
    off = np.abs(vals[:, None] - np.array(degenerate)).min(axis=1) > 1e-3
    real = vals.real[off & (vals.imag == 0.0) & (vals.real > 0.0)]
    gammas = degenerate + [float(real.min())]
    for g in gammas:
        count = numerical_nullity(pen, g)
        assert count == _eigvalsh_block_count(pen, g), g
        assert count > 0, g
    assert numerical_nullity(pen, 0.5 * gammas[-1]) == 0


def test_negative_count_reads_the_two_by_two_pivots():
    # a zero diagonal forces Bunch-Kaufman to take 2 x 2 pivots
    rng = np.random.default_rng(3)
    for m in (2, 7, 40):
        b = rng.standard_normal((m, m))
        b += b.T
        b[: m // 2, : m // 2] = 0.0
        want = int(np.sum(np.linalg.eigvalsh(b) < 0.0))
        assert eigensolver._negative_count(b.copy()) == want
    for d in ([[0.0, 1.0], [1.0, 0.0]], [[-1.0, 3.0], [3.0, 0.0]],
              [[-1.0, 0.5], [0.5, -1.0]]):
        b = np.array(d)
        want = int(np.sum(np.linalg.eigvalsh(b) < 0.0))
        assert eigensolver._negative_count(b.copy()) == want


def _fresh_pencil(mesh, eps):
    """A pencil that forms its operators from its spaces, none formed yet."""
    return wp.make_pencil(wp.assemble_matrices(wp.build_spaces(mesh), *eps))


@pytest.mark.parametrize("case,eps", [
    *((nx, eps) for nx in (8, 12, 16)
      for eps in ((1.0, 4.0), (1.0, 2.5), (1.5, 6.0))),
    (24, (1.0, 4.0)), ("homog", (2.0, 2.0)), ("slit", (1.0, 4.0))])
def test_sparse_nullity_equals_the_dense_route(case, eps, homog_mesh,
                                               slit_mesh):
    # the replaced copy holds the four operators as arrays and no nodal
    # forms, so it is counted on the dense L(gamma); the pencil itself is
    # counted on the sparse bordered L(gamma)
    mesh = {"homog": homog_mesh, "slit": slit_mesh}.get(case) \
        or wp.generate_rect_slab(PI, PI, PI / 2, case, case)
    pen = _fresh_pencil(mesh, eps)
    vals = solve_pencil(pen).eigenvalues
    degenerate = wp.pencil.degeneration_points(*eps)
    off = np.abs(vals[:, None] - np.array(degenerate)).min(axis=1) > 1e-3
    smallest = float(vals.real[off & (vals.imag == 0.0)
                               & (vals.real > 0.0)].min())
    dense = dataclasses.replace(pen)
    assert dense.nodal is None and pen.nodal is not None
    counts = degeneration_count(pen.spaces, *eps)
    for g in degenerate:
        assert numerical_nullity(pen, g) == counts[g], g
    for g in [*degenerate, smallest, 0.5 * smallest]:
        assert numerical_nullity(pen, g) == numerical_nullity(dense, g), g
    assert numerical_nullity(pen, smallest) > 0
    assert numerical_nullity(pen, 0.5 * smallest) == 0


def test_sparse_nullity_forms_no_dense_matrix(slab_mesh, monkeypatch):
    def evaluate(pencil, gamma):
        raise AssertionError("L(gamma) evaluated")

    monkeypatch.setattr(pencil_mod, "evaluate", evaluate)
    pen = _fresh_pencil(slab_mesh, (1.0, 4.0))
    counts = degeneration_count(pen.spaces, 1.0, 4.0)
    for g in (1.0, -2.0):
        assert numerical_nullity(pen, g) == counts[g]
    assert numerical_nullity(pen, 3.5) == 0
    assert not {"k", "a1", "a2", "s"} & set(vars(pen))


def _with_nodal_entry(spaces, name, i, j, delta):
    """An unformed slab pencil whose nodal form ``name`` has delta added at
    (i, j)."""
    pen = wp.assemble_matrices(spaces, 1.0, 4.0)
    form = getattr(pen.nodal, name).tolil()
    form[i, j] += delta
    pen.__dict__["nodal"] = pen.nodal._replace(**{name: form.tocsr()})
    return pen


@pytest.mark.parametrize("field,name", [("electric", "stiffness_eps"),
                                        ("magnetic", "stiffness_inv_eps")])
def test_sparse_nullity_refuses_a_null_field_that_is_not(field, name,
                                                         slab_spaces):
    # one diagonal entry of a nodal form at a node the mesh makes null at
    # gamma = 1, in a form that only that field's block reads: the
    # bordered L(1) stays symmetric, but the field leaves its kernel
    null = degeneration_null_nodes(slab_spaces.mesh, 1.0, 4.0, 1.0)
    node = np.flatnonzero(null & (slab_spaces.pi_index >= 0))[0]
    bad = _with_nodal_entry(slab_spaces, name, node, node, 1e-3)
    with pytest.raises(ValueError, match=r"L\(1\): .* residual .*e-0[34]"):
        numerical_nullity(bad, 1.0)


def test_sparse_nullity_refuses_an_asymmetric_form(slab_spaces):
    form = wp.assemble_matrices(slab_spaces, 1.0, 4.0).nodal.stiffness_inv_eps
    i = 10
    j = next(int(c) for c in form[i].indices if c != i)
    bad = _with_nodal_entry(slab_spaces, "stiffness_inv_eps", i, j, 1.0)
    with pytest.raises(ValueError,
                       match=r"L\(1\.5\) is not exactly symmetric"):
        numerical_nullity(bad, 1.5)


def test_factor_error_bounds_the_factor_backward_error(slab_pencil):
    # gamma_n times |L||U| in the 1- and inf-norms, against the same
    # bound computed densely
    b = pencil_mod.bordered(slab_pencil, 1.0, -1e-3)
    factor = eigensolver._symmetric_factor(b)
    lu = np.abs(factor.L.toarray()) @ np.abs(factor.U.toarray())
    nu = len(lu) * np.finfo(float).eps / 2.0
    want = nu / (1.0 - nu) * math.sqrt(np.abs(lu).sum(axis=0).max()
                                        * np.abs(lu).sum(axis=1).max())
    assert eigensolver._factor_error(factor) == pytest.approx(want,
                                                              rel=1e-12)
    # the factors are exact for a matrix that close to b: Pr b Pc = L U
    n = len(lu)
    pr = np.zeros((n, n))
    pr[factor.perm_r, np.arange(n)] = 1.0
    pc = np.zeros((n, n))
    pc[np.arange(n), factor.perm_c] = 1.0
    exact = pr.T @ factor.L.toarray() @ factor.U.toarray() @ pc.T
    assert np.linalg.norm(exact - b.toarray(), 2) <= want


def test_negative_pivots_refuse_a_factor_with_large_growth():
    from scipy import sparse

    # a pivot of 1e-12 on the diagonal: U grows to 1e12, and the bound
    # to about 4e-4
    grown = sparse.csc_matrix([[1e-12, 1.0], [1.0, 1e-12]])
    with pytest.raises(ValueError,
                       match=r"L\(0\.5\): the sparse factor's backward "
                             r"error bound .* is above 1\.000e-06"):
        eigensolver._negative_pivots(grown, 0.5, 1e-6)
    assert eigensolver._negative_pivots(
        sparse.csc_matrix([[2.0, 1.0], [1.0, -3.0]]), 0.5, 1e-6) == 1
