import math

import numpy as np
import pytest

from wavepencil.assembly import PencilMatrices
from wavepencil.pencil import (PencilError, apply, degeneration_points,
                               evaluate, exclusion_interval, linearize,
                               make_pencil, residual)

PI = math.pi


def operator_pencil(k, a1, a2, s):
    """The pencil of four given operators at eps1 = eps2 = 1."""
    return PencilMatrices(spaces=None, eps1=1.0, eps2=1.0, k=np.asarray(k),
                          a1=np.asarray(a1), a2=np.asarray(a2), s=np.asarray(s))


def toy_pencil():
    """Scalar quartic 2 g^4 - 3 g^2 + 1 with roots +-1, +-1/sqrt(2)."""
    return operator_pencil([[2.0]], [[1.0]], [[1.0]], [[0.0]])


def test_make_pencil_returns_the_operators(slab_matrices):
    assert make_pencil(slab_matrices) is slab_matrices


def test_coefficients_match_definition(slab_matrices):
    # the paper's monomial form against the factored form of evaluate
    m = slab_matrices
    e1, e2 = m.eps1, m.eps2
    for g in (0.0, 1.0, -1.0, 2.0, -2.0, 0.83 + 0.21j, 1.7j):
        paper = (g ** 4 * m.k + g ** 2 * (m.a1 - (e1 + e2) * m.k)
                 + g * (e1 - e2) * m.s + e1 * e2 * (m.k - m.a2))
        lg = evaluate(m, g)
        assert np.linalg.norm(lg - paper, "fro") \
            <= 1e-14 * np.linalg.norm(lg, "fro")


def test_equal_permittivities_make_even_pencil(homog_matrices):
    pen = make_pencil(homog_matrices)
    assert pen.coefficient_norms[1] == 0.0
    g = 0.83 + 0.21j
    assert np.allclose(evaluate(pen, g), evaluate(pen, -g), rtol=0, atol=0)


def test_swapping_permittivity_labels_flips_odd_term_only(slab_matrices):
    import dataclasses
    a = make_pencil(slab_matrices)
    b = make_pencil(dataclasses.replace(slab_matrices, eps1=slab_matrices.eps2,
                                        eps2=slab_matrices.eps1))
    for g in (0.0, 1.0, -2.0, 0.83 + 0.21j, 1.7j):
        assert np.array_equal(evaluate(a, g), evaluate(b, -g))


def test_dimension_mismatch_rejected(slab_matrices):
    import dataclasses
    bad = dataclasses.replace(slab_matrices, s=np.zeros((3, 3)))
    with pytest.raises(PencilError):
        make_pencil(bad)


def test_evaluate_at_zero_is_constant_term(slab_pencil):
    m = slab_pencil
    c0 = m.eps1 * m.eps2 * (m.k - m.a2)
    assert np.abs(evaluate(m, 0.0) - c0).max() <= 1e-14 * np.abs(c0).max()


def test_selfadjoint_identity_at_random_points(slab_pencil):
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = complex(rng.standard_normal(), rng.standard_normal()) * 2.0
        lg = evaluate(slab_pencil, g)
        lgbar = evaluate(slab_pencil, np.conj(g))
        denom = np.linalg.norm(lg, "fro")
        assert np.linalg.norm(lg.conj().T - lgbar, "fro") <= 1e-13 * denom


def test_parity_identity_at_random_points(slab_pencil):
    signs = slab_pencil.spaces.parity_signs()
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = complex(rng.standard_normal(), rng.standard_normal()) * 2.0
        lg = evaluate(slab_pencil, g)
        plp = signs[:, None] * lg * signs[None, :]
        denom = np.linalg.norm(lg, "fro")
        assert np.linalg.norm(plp - evaluate(slab_pencil, -g), "fro") \
            <= 1e-13 * denom


def test_homogeneous_degeneration_collapse(homog_pencil):
    scale = max(homog_pencil.coefficient_norms)
    for g in (math.sqrt(2.0), -math.sqrt(2.0)):
        assert np.linalg.norm(evaluate(homog_pencil, g), "fro") <= 1e-12 * scale


def test_single_region_vectors_span_degeneration_kernel(slab_spaces,
                                                        slab_pencil):
    # a field pair supported strictly inside region 2 (every incident
    # triangle has permittivity eps2) is annihilated by L(sqrt(eps1))
    # exactly: the mass terms cancel through (g^2-eps1)(g^2-eps2) = 0 and
    # the gradient terms through g^2 = eps1
    mesh = slab_spaces.mesh
    deep = np.ones(mesh.n_nodes, dtype=bool)
    for tri, reg in zip(mesh.triangles, mesh.regions):
        if reg == 1:
            deep[tri] = False
    deep &= ~mesh.interface_node_mask()
    deep_nodes = np.where(deep)[0]
    assert len(deep_nodes) >= 4

    rng = np.random.default_rng(2)
    pi_part = np.zeros(slab_spaces.n_pi)
    inside = [slab_spaces.pi_index[i] for i in deep_nodes
              if slab_spaces.pi_index[i] >= 0]
    pi_part[inside] = rng.standard_normal(len(inside))

    psi_nodal = np.zeros(mesh.n_nodes)
    psi_nodal[deep_nodes] = rng.standard_normal(len(deep_nodes))
    m = slab_spaces.mean_vector
    # balance the weighted mean inside the region so psi stays in range(Z)
    psi_nodal[deep_nodes[0]] -= (m @ psi_nodal) / m[deep_nodes[0]]
    assert abs(m @ psi_nodal) <= 1e-12
    y = slab_spaces.null_basis.T @ psi_nodal

    v = np.concatenate([pi_part, y])
    for gamma in (1.0, -1.0):
        assert residual(slab_pencil, gamma, v) <= 1e-14


def test_residual_contracts(slab_pencil):
    rng = np.random.default_rng(5)
    v = rng.standard_normal(slab_pencil.n) + 1j * rng.standard_normal(slab_pencil.n)
    g = 0.4 + 1.3j
    r1 = residual(slab_pencil, g, v)
    r2 = residual(slab_pencil, g, 2.0 * v)
    assert r1 == r2
    phase = np.exp(1j * 0.7)
    assert residual(slab_pencil, g, phase * v) == pytest.approx(r1, rel=1e-12)
    assert 1e-4 < r1 < 10.0
    with pytest.raises(PencilError):
        residual(slab_pencil, g, np.zeros(slab_pencil.n))


def test_apply_matches_evaluate(slab_pencil):
    rng = np.random.default_rng(9)
    v = rng.standard_normal(slab_pencil.n)
    g = 1.2 - 0.3j
    assert np.allclose(apply(slab_pencil, g, v), evaluate(slab_pencil, g) @ v,
                       rtol=1e-13, atol=1e-13)


def test_exclusion_interval_values():
    exc = exclusion_interval(1.0, 4.0)
    assert exc.delta == pytest.approx(1.5)
    assert exc.lower == pytest.approx(0.5)
    assert exc.upper == pytest.approx((math.sqrt(18.25) + 1.5) / 2.0)
    assert exc.upper == pytest.approx(2.8860009363293826, rel=1e-12)
    assert exc.p == pytest.approx(math.sqrt(2.5))


@pytest.mark.parametrize("eps", [1.0, 2.0, 7.5])
def test_exclusion_interval_collapses_when_equal(eps):
    exc = exclusion_interval(eps, eps)
    assert exc.lower == pytest.approx(math.sqrt(eps))
    assert exc.upper == pytest.approx(math.sqrt(eps))


@pytest.mark.parametrize("eps1,eps2", [(1.0, 4.0), (4.0, 1.0), (2.0, 3.5),
                                       (1.0, 1.0), (9.0, 2.0)])
def test_degeneration_points_inside_interval(eps1, eps2):
    exc = exclusion_interval(eps1, eps2)
    for eps in (eps1, eps2):
        assert exc.lower <= math.sqrt(eps) <= exc.upper
    assert exc.lower > 0.0
    pts = degeneration_points(eps1, eps2)
    assert all(exc.contains(abs(p)) for p in pts)


def test_linearize_toy_quartic():
    comp = linearize(toy_pencil())
    ev = np.sort_complex(np.linalg.eigvals(comp))
    expected = np.sort_complex(np.array(
        [1.0, -1.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)],
        dtype=complex))
    assert np.allclose(ev, expected, atol=1e-10)


def test_linearize_scaled_has_scaled_eigenvalues():
    comp = linearize(toy_pencil(), scale=2.0)
    ev = np.sort(np.abs(np.linalg.eigvals(comp)))
    assert np.allclose(ev, np.sort(np.abs([0.5, 0.5 / math.sqrt(2),
                                           -0.5, -0.5 / math.sqrt(2)])),
                       atol=1e-10)


def test_linearize_requires_positive_definite_leading():
    bad = operator_pencil(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(PencilError):
        linearize(bad)


def test_companion_spectrum_even_for_equal_permittivities(homog_pencil):
    # odd coefficient absent: spectrum symmetric under sign flip exactly
    comp = linearize(homog_pencil, scale=homog_pencil.exclusion.p)
    ev = np.linalg.eigvals(comp)
    d = np.abs(np.sort_complex(ev) + np.sort_complex(-ev)[::-1])
    assert d.max() <= 1e-8


def test_companion_spectrum_conjugation_closed(slab_pencil):
    comp = linearize(slab_pencil, scale=slab_pencil.exclusion.p)
    ev = np.linalg.eigvals(comp)
    a = np.lexsort((ev.imag, ev.real))
    b = np.lexsort(((-ev.imag), ev.real))
    assert np.abs(ev[a] - np.conj(ev[b])).max() <= 1e-10
