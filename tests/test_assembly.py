import math

import numpy as np
import pytest
from scipy import linalg

import wavepencil as wp
from wavepencil import assembly_kernels as kernels
from wavepencil.assembly import (AssemblyError, assemble_s_line,
                                 assemble_s_volume)

PI = math.pi


def gen_eigs(a, g):
    return linalg.eigh(a, g, eigvals_only=True)


def test_a1_equals_gram_for_unit_permittivity(slab_spaces):
    assert np.array_equal(wp.assemble_a1(slab_spaces, 1.0, 1.0),
                          slab_spaces.gram)


def test_a1_generalized_spectrum_within_bounds(slab_spaces):
    a1 = wp.assemble_a1(slab_spaces, 1.0, 4.0)
    ev = gen_eigs(a1, slab_spaces.gram)
    assert ev[0] >= 1.0 - 1e-10
    assert ev[-1] <= 4.0 + 1e-10


def test_a1_pi_block_scales_with_constant_permittivity(slab_spaces):
    a1 = wp.assemble_a1(slab_spaces, 2.0, 2.0)
    n_pi = slab_spaces.n_pi
    g_pi = slab_spaces.gram[:n_pi, :n_pi]
    assert np.allclose(a1[:n_pi, :n_pi], 2.0 * g_pi, rtol=0, atol=1e-14)


def test_a2_generalized_spectrum_within_bounds(slab_spaces):
    a2 = wp.assemble_a2(slab_spaces, 1.0, 4.0)
    ev = gen_eigs(a2, slab_spaces.gram)
    assert ev[0] >= 0.25 - 1e-10
    assert ev[-1] <= 1.0 + 1e-10


def test_a2_pi_block_independent_of_permittivity(slab_spaces):
    n_pi = slab_spaces.n_pi
    a2_a = wp.assemble_a2(slab_spaces, 1.0, 4.0)[:n_pi, :n_pi]
    a2_b = wp.assemble_a2(slab_spaces, 3.0, 7.0)[:n_pi, :n_pi]
    assert np.array_equal(a2_a, a2_b)
    assert np.array_equal(a2_a, slab_spaces.gram[:n_pi, :n_pi])


def test_unweighted_gradient_blocks_are_the_gram_blocks(slab_matrices):
    m = slab_matrices
    assert (m.eps1, m.eps2) == (1.0, 4.0)
    n_pi = m.spaces.n_pi
    assert np.array_equal(m.a1[n_pi:, n_pi:], m.gram[n_pi:, n_pi:])
    assert np.array_equal(m.a2[:n_pi, :n_pi], m.gram[:n_pi, :n_pi])


def test_k_positive_definite(slab_matrices):
    ev = np.linalg.eigvalsh(slab_matrices.k)
    assert ev[0] > 0.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal(slab_matrices.n)
    assert x @ slab_matrices.k @ x > 0.0


def test_k_pi_block_is_scaled_mass(slab_spaces):
    k = wp.assemble_k(slab_spaces, 3.0, 3.0)
    n_pi = slab_spaces.n_pi
    mass = kernels.nodal_mass(slab_spaces.mesh, 1.0, 1.0)
    plain = mass[np.ix_(slab_spaces.pi_nodes, slab_spaces.pi_nodes)].toarray()
    assert np.allclose(k[:n_pi, :n_pi], 3.0 * plain, rtol=0, atol=1e-15)


def test_permittivity_below_one_rejected(slab_spaces):
    for fn in (wp.assemble_a1, wp.assemble_a2, wp.assemble_k):
        with pytest.raises(AssemblyError):
            fn(slab_spaces, 0.5, 2.0)
    with pytest.raises(AssemblyError):
        wp.assemble_matrices(slab_spaces, 1.0, 0.99)


def test_all_matrices_hermitian(slab_matrices):
    for mat in (slab_matrices.k, slab_matrices.a1, slab_matrices.a2,
                slab_matrices.s):
        assert np.abs(mat - mat.T).max() <= 1e-14


def test_s_zero_without_interface():
    # single-region square: no interface edges at all
    text = "\n".join([
        "nodes 9",
        "0 0", "1 0", "2 0", "0 1", "1 1", "2 1", "0 2", "1 2", "2 2",
        "triangles 8",
        "0 1 4 1", "0 4 3 1", "1 2 5 1", "1 5 4 1",
        "3 4 7 1", "3 7 6 1", "4 5 8 1", "4 8 7 1",
        "edges 8",
        "0 1 gamma0", "1 2 gamma0", "6 7 gamma0", "7 8 gamma0",
        "0 3 gamma0", "3 6 gamma0", "2 5 gamma0", "5 8 gamma0",
    ]) + "\n"
    spaces = wp.build_spaces(wp.load_mesh(text))
    s = assemble_s_line(spaces)
    assert np.abs(s).max() == 0.0


def test_s_kernel_contains_interface_free_vectors(slab_spaces, slab_matrices):
    # vectors vanishing on every interface node are annihilated exactly
    mesh = slab_spaces.mesh
    iface = mesh.interface_node_mask()
    rng = np.random.default_rng(1)
    pi_part = rng.standard_normal(slab_spaces.n_pi)
    pi_part[iface[slab_spaces.pi_nodes]] = 0.0
    psi_nodal = rng.standard_normal(mesh.n_nodes)
    psi_nodal[iface] = 0.0
    # remove the mean, keeping interface nodes at zero is preserved only in
    # nodal space; test via the nodal pairing matrix instead
    d = kernels.interface_line_matrix(mesh)
    assert np.abs(d @ psi_nodal).max() == 0.0
    full_pi = np.zeros(mesh.n_nodes)
    full_pi[slab_spaces.pi_nodes] = pi_part
    assert np.abs(d @ full_pi).max() == 0.0


def test_s_generalized_bound(slab_spaces, slab_matrices):
    ev = gen_eigs(slab_matrices.s, slab_spaces.gram)
    assert np.abs(ev).max() <= 0.5 + 1e-10


def test_line_and_volume_assemblies_agree(slab_spaces):
    line = assemble_s_line(slab_spaces)
    vol = assemble_s_volume(slab_spaces)
    assert np.abs(line - vol).max() <= 1e-12


def test_minimal_interface_agreement_to_machine():
    spaces = wp.build_spaces(wp.generate_rect_slab(PI, PI, PI / 2, 2, 2))
    line = assemble_s_line(spaces)
    vol = assemble_s_volume(spaces)
    assert np.abs(line - vol).max() <= 1e-14


def test_line_matrix_entries_are_half_integers():
    mesh = wp.generate_rect_slab(PI, PI, PI / 2, 4, 4)
    d = kernels.interface_line_matrix(mesh).toarray()
    vals = np.unique(np.abs(d[np.nonzero(d)]))
    assert np.array_equal(vals, [0.5])


def test_block_structure_and_parity(slab_matrices):
    n_pi = slab_matrices.spaces.n_pi
    p = slab_matrices.spaces.parity_signs()
    for mat in (slab_matrices.k, slab_matrices.a1, slab_matrices.a2):
        assert np.abs(mat[:n_pi, n_pi:]).max() == 0.0
        assert np.array_equal(p[:, None] * mat * p[None, :], mat)
    s = slab_matrices.s
    assert np.abs(s[:n_pi, :n_pi]).max() == 0.0
    assert np.abs(s[n_pi:, n_pi:]).max() == 0.0
    assert np.array_equal(p[:, None] * s * p[None, :], -s)


def test_flipped_orientation_breaks_hermiticity(slab_mesh):
    flipped = slab_mesh.interface_edges.copy()
    flipped[2] = flipped[2][::-1]
    bad_mesh = wp.Mesh(nodes=slab_mesh.nodes.copy(),
                       triangles=slab_mesh.triangles.copy(),
                       regions=slab_mesh.regions.copy(),
                       edges=slab_mesh.edges.copy(),
                       edge_tags=slab_mesh.edge_tags,
                       interface_edges=flipped)
    spaces = wp.build_spaces(bad_mesh)
    s = assemble_s_line(spaces)
    assert np.abs(s - s.T).max() > 1e-2


def test_interface_consistency_check(slab_spaces):
    mesh = slab_spaces.mesh
    # drop one interface edge from the oriented list only
    bad = wp.Mesh(nodes=mesh.nodes.copy(), triangles=mesh.triangles.copy(),
                  regions=mesh.regions.copy(), edges=mesh.edges.copy(),
                  edge_tags=mesh.edge_tags,
                  interface_edges=mesh.interface_edges[:-1].copy())
    spaces = wp.build_spaces(bad)
    with pytest.raises(AssemblyError):
        assemble_s_line(spaces)

