import math

import numpy as np
import pytest
from scipy import linalg, sparse

import wavepencil as wp
from wavepencil import assembly_kernels as kernels
from wavepencil.spaces import (SpaceError, _add_stored, build_spaces,
                               write_reduced)
from conftest import interface_node_mask, parity_signs, traced_peak

PI = math.pi


def test_minimal_grid_dof_counts():
    m = wp.generate_homogeneous_rect(PI, PI, 2, 2, PI / 2)
    sp = build_spaces(m)
    assert sp.n_pi == 1          # only the centre node survives Dirichlet
    assert sp.n_psi == 8         # 9 nodes minus the mean constraint
    gram_pi, gram_psi = wp.assemble_matrices(sp, 1.0, 1.0).gram
    assert gram_pi.shape == (1, 1)
    assert gram_psi.shape == (8, 8)


def full_gram(matrices):
    return linalg.block_diag(*matrices.gram)


def test_gram_blocks_match_unweighted_assembly(slab_spaces, slab_matrices):
    a1 = wp.assemble_a1(slab_spaces, 1.0, 1.0)
    assert np.array_equal(a1, full_gram(slab_matrices))
    a2 = wp.assemble_a2(slab_spaces, 1.0, 1.0)
    assert np.array_equal(a2, full_gram(slab_matrices))


def test_gram_positive_definite_and_symmetric(slab_matrices):
    g = full_gram(slab_matrices)
    assert np.abs(g - g.T).max() == 0.0
    evals = np.linalg.eigvalsh(g)
    assert evals[0] > 0.0


def test_null_basis_annihilates_mean(slab_spaces):
    z = slab_spaces.null_basis
    m = slab_spaces.mean_vector
    assert np.abs(m @ z).max() <= 1e-14 * np.linalg.norm(m)
    # orthonormal columns
    assert np.abs(z.T @ z - np.eye(z.shape[1])).max() <= 1e-13


def test_psi_vectors_have_zero_weighted_mean(slab_spaces):
    rng = np.random.default_rng(3)
    y = rng.standard_normal(slab_spaces.n_psi)
    psi = slab_spaces.psi_nodal(y)
    assert abs(slab_spaces.mean_vector @ psi) <= 1e-14 * np.linalg.norm(psi)
    # the reflector product is the stored basis applied to y
    assert np.abs(psi - slab_spaces.null_basis @ y).max() <= 1e-13


def test_constant_vector_outside_null_basis_range(slab_spaces):
    z = slab_spaces.null_basis
    ones = np.ones(z.shape[0])
    residual = ones - z @ (z.T @ ones)
    # projection defect equals |m^T 1| / ||m|| > 0: the constant is excluded
    m = slab_spaces.mean_vector
    expected = abs(m @ ones) / np.linalg.norm(m)
    assert np.linalg.norm(residual) == pytest.approx(expected, rel=1e-12)
    assert np.linalg.norm(residual) > 0.1


def test_gram_magnetic_block_is_the_reduced_stiffness(slab_spaces,
                                                      slab_matrices):
    z = slab_spaces.null_basis
    stiff = kernels.nodal_stiffness(slab_spaces.mesh, 1.0, 1.0).toarray()
    expected = z.T @ stiff @ z
    got = slab_matrices.gram[1]
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_field_block_helpers_follow_the_electric_first_layout(slit_mesh):
    sp = build_spaces(slit_mesh)
    e, m = sp.blocks
    assert (e.start, e.stop, m.start, m.stop) == (0, sp.n_pi, sp.n_pi, sp.n)
    v = np.arange(sp.n, dtype=float)
    pi_nodal, psi_nodal = sp.nodal_fields(v)
    assert np.array_equal(pi_nodal[sp.pi_nodes], v[:sp.n_pi])
    assert np.count_nonzero(pi_nodal) == np.count_nonzero(v[:sp.n_pi])
    assert np.array_equal(psi_nodal, sp.psi_nodal(v[sp.n_pi:]))
    assert np.array_equal(parity_signs(sp),
                          np.r_[-np.ones(sp.n_pi), np.ones(sp.n_psi)])
    stiff = kernels.nodal_stiffness(slit_mesh, 1.0, 1.0)
    expected_pi = stiff.toarray()[np.ix_(sp.pi_nodes, sp.pi_nodes)]
    got_pi = np.zeros((sp.n_pi, sp.n_pi))
    sp.scatter_pi(got_pi, stiff)
    assert np.array_equal(got_pi, expected_pi)
    assert np.array_equal(wp.assemble_matrices(sp, 1.0, 4.0).gram[0],
                          expected_pi)
    x = np.random.default_rng(7).standard_normal((slit_mesh.n_nodes, 5))
    expected = sp.null_basis.T @ x
    got = np.empty((sp.n_psi, 5))
    write_reduced(got, sp.mean_vector, sparse.csr_matrix(x))
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_package_exports_only_what_it_defines():
    missing = [name for name in wp.__all__ if not hasattr(wp, name)]
    assert missing == []


@pytest.mark.parametrize("mesh_name", ["slab_mesh", "slit_mesh",
                                       "homog_mesh"])
@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 4.0), (1.0, 0.25)])
@pytest.mark.parametrize("form", [kernels.nodal_stiffness, kernels.nodal_mass])
def test_nodal_forms_are_exactly_symmetric(request, mesh_name, weights, form):
    # the zero-mean congruence relies on it (``write_reduced``)
    m = form(request.getfixturevalue(mesh_name), *weights)
    assert not np.any((m - m.T).tocoo().data)


# The zero-mean transform Z^T M Z is ``write_reduced`` with congruence=True.
def _zero_mean_transform(spaces, nodal):
    out = np.empty((spaces.n_psi, spaces.n_psi))
    write_reduced(out, spaces.mean_vector, nodal, congruence=True)
    return out


@pytest.mark.parametrize("kind", ["sparse_mass"])
def test_zero_mean_transform_is_the_congruence_with_null_basis(slab_spaces,
                                                              kind):
    m = kernels.nodal_mass(slab_spaces.mesh, 1.0, 1.0)
    z = slab_spaces.null_basis
    expected = z.T @ m.toarray() @ z
    got = _zero_mean_transform(slab_spaces, m)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    assert np.array_equal(got, got.T)


def test_zero_mean_transform_identity(slab_spaces):
    n = slab_spaces.mesh.n_nodes
    red = _zero_mean_transform(slab_spaces, sparse.identity(n, format="csr"))
    assert red.shape == (n - 1, n - 1)
    assert np.array_equal(red, red.T)
    assert np.abs(red - np.eye(n - 1)).max() <= 1e-14


def test_zero_mean_transform_kills_rank_one_mean(slab_spaces):
    m = slab_spaces.mean_vector
    red = _zero_mean_transform(slab_spaces,
                               sparse.csr_matrix(np.outer(m, m)))
    assert np.abs(red).max() <= 1e-14 * np.dot(m, m)


def test_zero_mean_transform_dimension_mismatch(slab_spaces):
    with pytest.raises(ValueError):
        _zero_mean_transform(slab_spaces, sparse.identity(3, format="csr"))


def test_zero_mean_transform_accepts_sparse(slab_spaces):
    # region weights, as the permittivity-weighted forms carry
    mass = kernels.nodal_mass(slab_spaces.mesh, 1.0, 4.0)
    z = slab_spaces.null_basis
    expected = z.T @ mass.toarray() @ z
    red = _zero_mean_transform(slab_spaces, mass)
    assert np.abs(red - expected).max() <= 1e-13 * np.abs(expected).max()
    assert np.array_equal(red, red.T)


def test_build_spaces_allocates_no_dense_block():
    # The spaces hold O(N) data; with the two Gram blocks (1.75 N^2
    # doubles at nx = 28) the peak above entry measured 9.9 MB.
    mesh = wp.generate_rect_slab(PI, PI, PI / 2, 28, 28)
    assert mesh.n_nodes == 841
    peak = traced_peak(lambda: build_spaces(mesh))
    assert peak < 2 ** 20


def test_add_stored_sums_repeated_entries():
    coo = sparse.coo_matrix(([1.0, 2.0, 4.0], ([0, 0, 1], [1, 1, 0])),
                            shape=(2, 2))
    dst = np.full((2, 2), 0.5)
    _add_stored(dst, coo)
    assert np.array_equal(dst, [[0.5, 3.5], [4.5, 0.5]])
    # the caller's matrix keeps its repeated entry
    assert coo.nnz == 3 and np.array_equal(coo.data, [1.0, 2.0, 4.0])


def test_under_resolved_mesh_rejected():
    # every node of this two-triangle square lies on the shield
    text = "\n".join([
        "nodes 4", "0 0", "1 0", "1 1", "0 1",
        "triangles 2", "0 1 2 1", "0 2 3 2",
        "edges 5", "0 1 gamma0", "1 2 gamma0", "2 3 gamma0", "3 0 gamma0",
        "2 0 gamma",
    ]) + "\n"
    mesh = wp.load_mesh(text)
    with pytest.raises(SpaceError):
        build_spaces(mesh)


def test_slit_dof_counts(slit_mesh):
    sp = build_spaces(slit_mesh)
    # plain 4x4 slab has 9 interior nodes; the slit eliminates the
    # duplicated interior node (both copies) and the junction node
    plain = build_spaces(wp.generate_rect_slab(PI, PI, PI / 2, 4, 4))
    assert plain.n_pi == 9
    assert sp.n_pi == 7
    # the magnetic space gains exactly the duplicated node
    assert sp.n_psi == plain.n_psi + 1


def _jittered_slab():
    """6x6 slab with interior nodes moved, so triangle areas differ."""
    m = wp.generate_rect_slab(PI, PI, PI / 2, 6, 6)
    inner = ~(m.boundary_node_mask() | interface_node_mask(m))
    nodes = m.nodes.copy()
    nodes[inner] += np.random.default_rng(0).uniform(-0.1, 0.1,
                                                     (inner.sum(), 2))
    return wp.mesh.validate(wp.Mesh(
        nodes=nodes, triangles=m.triangles.copy(), regions=m.regions.copy(),
        edges=m.edges.copy(), edge_tags=m.edge_tags,
        interface_edges=m.interface_edges.copy()))


@pytest.mark.parametrize("name", ["jittered", "slit_mesh"])
def test_mean_vector_and_line_matrix_equal_per_element_loops(request, name):
    mesh = (_jittered_slab() if name == "jittered"
            else request.getfixturevalue(name))
    mean = np.zeros(mesh.n_nodes)
    for tri, area in zip(mesh.triangles, mesh.triangle_areas()):
        mean[tri] += area / 3.0
    assert np.array_equal(build_spaces(mesh).mean_vector, mean)
    rows, cols, vals = [], [], []
    for a, b in mesh.interface_edges:
        rows.extend((a, a, b, b))
        cols.extend((a, b, a, b))
        vals.extend((-0.5, 0.5, -0.5, 0.5))
    d = kernels.interface_line_matrix(mesh)
    loop = sparse.coo_matrix((vals, (rows, cols)), shape=d.shape).tocsr()
    assert np.array_equal(d.indptr, loop.indptr)
    assert np.array_equal(d.indices, loop.indices)
    assert np.array_equal(d.data, loop.data)
