import dataclasses
import math

import numpy as np
import pytest
from scipy import linalg

import wavepencil as wp
from wavepencil import assembly_kernels as kernels
from wavepencil.assembly import (AssemblyError, PencilMatrices,
                                 assemble_s_line, assemble_s_volume)
from conftest import gram, interface_node_mask, parity_signs, traced_peak

PI = math.pi


def gen_eigs(a, g):
    return linalg.eigh(a, g, eigvals_only=True)


def full_gram(matrices):
    return linalg.block_diag(*gram(matrices))


def test_a1_equals_gram_for_unit_permittivity(slab_spaces, slab_matrices):
    assert np.array_equal(wp.assemble_a1(slab_spaces, 1.0, 1.0),
                          full_gram(slab_matrices))


def test_a1_generalized_spectrum_within_bounds(slab_spaces, slab_matrices):
    a1 = wp.assemble_a1(slab_spaces, 1.0, 4.0)
    ev = gen_eigs(a1, full_gram(slab_matrices))
    assert ev[0] >= 1.0 - 1e-10
    assert ev[-1] <= 4.0 + 1e-10


def test_a1_pi_block_scales_with_constant_permittivity(slab_spaces,
                                                        slab_matrices):
    a1 = wp.assemble_a1(slab_spaces, 2.0, 2.0)
    n_pi = slab_spaces.n_pi
    g_pi = gram(slab_matrices)[0]
    assert np.allclose(a1[:n_pi, :n_pi], 2.0 * g_pi, rtol=0, atol=1e-14)


def test_a2_generalized_spectrum_within_bounds(slab_spaces, slab_matrices):
    a2 = wp.assemble_a2(slab_spaces, 1.0, 4.0)
    ev = gen_eigs(a2, full_gram(slab_matrices))
    assert ev[0] >= 0.25 - 1e-10
    assert ev[-1] <= 1.0 + 1e-10


def test_a2_pi_block_independent_of_permittivity(slab_spaces, slab_matrices):
    n_pi = slab_spaces.n_pi
    a2_a = wp.assemble_a2(slab_spaces, 1.0, 4.0)[:n_pi, :n_pi]
    a2_b = wp.assemble_a2(slab_spaces, 3.0, 7.0)[:n_pi, :n_pi]
    assert np.array_equal(a2_a, a2_b)
    assert np.array_equal(a2_a, gram(slab_matrices)[0])


def test_unweighted_gradient_blocks_are_the_gram_blocks(slab_matrices):
    m = slab_matrices
    assert (m.eps1, m.eps2) == (1.0, 4.0)
    n_pi = m.spaces.n_pi
    g_pi, g_psi = gram(m)
    assert np.array_equal(m.a1[n_pi:, n_pi:], g_psi)
    assert np.array_equal(m.a2[:n_pi, :n_pi], g_pi)


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
    iface = interface_node_mask(mesh)
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
    ev = gen_eigs(slab_matrices.s, full_gram(slab_matrices))
    assert np.abs(ev).max() <= 0.5 + 1e-10


def test_line_and_volume_assemblies_agree(slab_spaces):
    line = assemble_s_line(slab_spaces)
    vol = assemble_s_volume(slab_spaces)
    assert np.abs(line - vol).max() <= 1e-12


@pytest.mark.parametrize("mesh_name", ["slab_mesh", "slit_mesh"])
def test_couplings_are_the_products_with_null_basis(request, mesh_name):
    spaces = wp.build_spaces(request.getfixturevalue(mesh_name))
    z, pi, n_pi = spaces.null_basis, spaces.pi_nodes, spaces.n_pi
    d = kernels.interface_line_matrix(spaces.mesh).toarray()
    v = kernels.volume_skew_matrix(spaces.mesh).toarray()
    for s, bottom, top in ((assemble_s_line(spaces), d, -d),
                           (assemble_s_volume(spaces), v, v.T)):
        bottom_left = z.T @ bottom[:, pi]
        top_right = top[pi, :] @ z
        scale = max(np.abs(bottom_left).max(), np.abs(top_right).max())
        assert np.abs(s[n_pi:, :n_pi] - bottom_left).max() <= 1e-13 * scale
        assert np.abs(s[:n_pi, n_pi:] - top_right).max() <= 1e-13 * scale
        assert np.abs(s[:n_pi, :n_pi]).max() == 0.0
        assert np.abs(s[n_pi:, n_pi:]).max() == 0.0


@pytest.mark.parametrize("mesh_name,eps", [("slab_mesh", (1.0, 4.0)),
                                          ("slit_mesh", (1.0, 4.0)),
                                          ("homog_mesh", (2.0, 2.0))])
def test_operator_blocks_are_the_products_with_null_basis(request, mesh_name,
                                                         eps):
    mesh = request.getfixturevalue(mesh_name)
    spaces = wp.build_spaces(mesh)
    mats = wp.assemble_matrices(spaces, *eps)
    e, m = spaces.blocks
    z = spaces.null_basis
    for got, nodal in (
            (mats.k[m, m], kernels.nodal_mass(mesh, 1.0, 1.0)),
            (mats.a2[m, m],
             kernels.nodal_stiffness(mesh, 1.0 / eps[0], 1.0 / eps[1])),
            (gram(mats)[1], kernels.nodal_stiffness(mesh, 1.0, 1.0))):
        expected = z.T @ nodal.toarray() @ z
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.array_equal(got, got.T)
    for op in (mats.k, mats.a1, mats.a2):
        assert np.abs(op[e, m]).max() == 0.0
        assert np.abs(op[m, e]).max() == 0.0
    for s in (mats.s, assemble_s_volume(spaces)):
        assert np.abs(s[e, e]).max() == 0.0
        assert np.abs(s[m, m]).max() == 0.0


def test_assembly_working_memory_is_the_four_operators():
    # The operators are formed on their first read.  The four are 4 n^2
    # doubles; the peak above entry measured 4.01 n^2 at nx = 28, and a
    # dense copy of each nodal block on the way raises it to 4.75.
    spaces = wp.build_spaces(wp.generate_rect_slab(PI, PI, PI / 2, 28, 28))
    n = spaces.n
    assert n == 1569
    mats = wp.assemble_matrices(spaces, 1.0, 4.0)
    peak = traced_peak(lambda: (mats.k, mats.a1, mats.a2, mats.s))
    assert peak <= 4.25 * n * n * 8


def test_assembled_pencil_norms_form_no_operator():
    # Mesh to coefficient norms in O(nnz): no n x n array is formed, and
    # one dense operator would be n^2 doubles.  The peak measured 5.0% of
    # that at nx = 28, almost all of it the COO-to-CSR transient of a
    # nodal kernel call (3.1% each) beside the forms already held.
    def norms():
        mesh = wp.generate_rect_slab(PI, PI, PI / 2, 28, 28)
        pen = wp.make_pencil(wp.assemble_matrices(wp.build_spaces(mesh),
                                                  1.0, 4.0))
        return pen.n, pen.coefficient_norms

    n = 1569
    assert norms()[0] == n
    assert traced_peak(norms) <= 0.06 * n * n * 8


def test_operators_are_formed_on_first_read(slab_spaces):
    mats = wp.assemble_matrices(slab_spaces, 1.0, 4.0)
    names = {"k", "a1", "a2", "s"}
    # none of these reads an operator
    wp.make_pencil(mats)
    repr(mats)
    assert mats.n == slab_spaces.n
    assert mats.coefficient_norms[1] > 0.0
    assert not names & set(vars(mats))
    for name, want in (("k", wp.assemble_k(slab_spaces, 1.0, 4.0)),
                       ("a1", wp.assemble_a1(slab_spaces, 1.0, 4.0)),
                       ("a2", wp.assemble_a2(slab_spaces, 1.0, 4.0)),
                       ("s", assemble_s_line(slab_spaces))):
        got = getattr(mats, name)
        assert type(got) is np.ndarray
        assert np.array_equal(got, want)
        assert getattr(mats, name) is got
    # replace carries the formed operators over
    swapped = dataclasses.replace(mats, eps1=4.0, eps2=1.0)
    assert all(getattr(swapped, name) is getattr(mats, name) for name in names)


def test_inconsistent_interface_fails_at_assembly(slab_spaces):
    mesh = slab_spaces.mesh
    bad = wp.Mesh(nodes=mesh.nodes.copy(), triangles=mesh.triangles.copy(),
                  regions=mesh.regions.copy(), edges=mesh.edges.copy(),
                  edge_tags=mesh.edge_tags,
                  interface_edges=mesh.interface_edges[:-1].copy())
    with pytest.raises(AssemblyError):
        wp.assemble_matrices(wp.build_spaces(bad), 1.0, 4.0)


@pytest.mark.parametrize("mesh_name,eps", [
    ("slab10", (1.0, 4.0)), ("slab10", (1.0, 2.5)),
    ("slab20", (1.0, 4.0)), ("slab20", (1.0, 2.5)),
    ("homog_mesh", (2.0, 2.0)), ("slit_mesh", (1.0, 4.0))])
def test_nodal_norms_equal_the_dense_row_block_sum(request, mesh_name, eps):
    if mesh_name.startswith("slab"):
        nx = int(mesh_name[4:])
        mesh = wp.generate_rect_slab(PI, PI, PI / 2, nx, nx)
    else:
        mesh = request.getfixturevalue(mesh_name)
    mats = wp.assemble_matrices(wp.build_spaces(mesh), *eps)
    nodal = mats.coefficient_norms
    # given the operators, the pencil sums its dense row blocks
    dense = PencilMatrices(spaces=mats.spaces, eps1=mats.eps1,
                           eps2=mats.eps2, k=mats.k, a1=mats.a1, a2=mats.a2,
                           s=mats.s).coefficient_norms
    for got, want in zip(nodal, dense, strict=True):
        assert abs(got - want) <= 1e-12 * want
    if eps[0] == eps[1]:
        assert nodal[1] == 0.0


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
    p = parity_signs(slab_matrices.spaces)
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



@pytest.mark.parametrize("width", [1, 5, 128])
def test_s_line_tiles_are_the_line_route_bit_for_bit(width, slab_spaces,
                                                     slit_mesh):
    # column and row tiles of S written from the nodal forms, across the
    # field blocks, are the formed line route's
    for spaces in (slab_spaces, wp.build_spaces(slit_mesh)):
        mats = wp.assemble_matrices(spaces, 1.0, 4.0)
        e, m = spaces.blocks
        full = assemble_s_line(spaces)
        for start in range(0, spaces.n, width):
            tile = slice(start, start + width)
            assert np.array_equal(mats.block("s", slice(None), tile),
                                  full[:, tile])
            assert np.array_equal(mats.block("s", tile), full[tile])
        assert not full[e, e].any() and not full[m, m].any()
        assert "s" not in vars(mats)


@pytest.mark.parametrize("width", [1, 5, 128])
def test_s_volume_tiles_are_the_volume_route_bit_for_bit(width, slab_spaces,
                                                         slit_mesh):
    # row blocks of the volume route, inside each field block and across
    # the split, are the same rows of the whole matrix
    for spaces in (slab_spaces, wp.build_spaces(slit_mesh)):
        full = assemble_s_volume(spaces)
        for start in (*range(0, spaces.n, width),
                      max(spaces.n_pi - width // 2, 0)):
            tile = slice(start, start + width)
            assert np.array_equal(assemble_s_volume(spaces, tile), full[tile])


@pytest.mark.parametrize("name", ["k", "a1", "a2", "s"])
def test_written_blocks_are_the_formed_operators_bit_for_bit(
        name, slab_spaces, slit_mesh):
    rng = np.random.default_rng(3)
    for spaces in (slab_spaces, wp.build_spaces(slit_mesh)):
        mats = wp.assemble_matrices(spaces, 1.5, 6.0)
        full = getattr(wp.assemble_matrices(spaces, 1.5, 6.0), name)
        n, n_pi = spaces.n, spaces.n_pi
        # blocks inside each field block, across the field boundary and
        # at random
        spans = [slice(0, n_pi), slice(n_pi, n), slice(n_pi - 3, n_pi + 4),
                 slice(None), *(slice(*sorted(rng.integers(0, n + 1, 2)))
                                for _ in range(8))]
        for rows in spans:
            for cols in spans:
                assert np.array_equal(mats.block(name, rows, cols),
                                      full[rows, cols])
        assert name not in vars(mats)
        # a held operator is read as a view of itself
        held = dataclasses.replace(mats, **{name: full})
        assert np.shares_memory(held.block(name, slice(2, 9)), full)


def test_nodal_forms_are_held_only_for_operators_from_the_spaces(
        slab_spaces):
    mats = wp.assemble_matrices(slab_spaces, 1.0, 4.0)
    forms = mats.nodal
    mesh = slab_spaces.mesh
    for got, want in zip(forms, (
            kernels.nodal_stiffness(mesh, 1.0, 1.0),
            kernels.nodal_stiffness(mesh, 1.0, 4.0),
            kernels.nodal_stiffness(mesh, 1.0, 0.25),
            kernels.nodal_mass(mesh, 1.0, 1.0),
            kernels.nodal_mass(mesh, 1.0, 4.0)), strict=True):
        assert (got != want).nnz == 0
    assert mats.nodal is forms
    # the Gram blocks are written from the held stiffness form
    assert np.array_equal(gram(mats)[1], mats.a1[slab_spaces.blocks[1],
                                                 slab_spaces.blocks[1]])
    supplied = dataclasses.replace(mats, k=mats.k)
    assert supplied.nodal is None
    assert np.array_equal(gram(supplied)[0], gram(mats)[0])


def test_a_repeated_gamma_tag_fails_at_assembly(slab_spaces):
    # the interface rows must be the gamma-tagged edges one to one
    mesh = slab_spaces.mesh
    gamma = mesh.edge_tags.index(wp.mesh.GAMMA)
    bad = wp.Mesh(nodes=mesh.nodes.copy(), triangles=mesh.triangles.copy(),
                  regions=mesh.regions.copy(),
                  edges=np.vstack([mesh.edges, mesh.edges[gamma]]),
                  edge_tags=mesh.edge_tags + (wp.mesh.GAMMA,),
                  interface_edges=mesh.interface_edges.copy())
    with pytest.raises(AssemblyError, match="inconsistent interface"):
        wp.assemble_matrices(wp.build_spaces(bad), 1.0, 4.0)


@pytest.mark.parametrize("name", ["nodal", "gram", "coefficient_norms", "a1"])
def test_an_attribute_error_while_forming_keeps_its_message(
        name, slab_spaces, monkeypatch):
    # Python retries __getattr__ when a descriptor raises AttributeError;
    # the message of the error raised inside must still reach the caller
    def boom(*args, **kwargs):
        raise AttributeError("boom")

    monkeypatch.setattr(kernels, "nodal_stiffness", boom)
    mats = wp.assemble_matrices(slab_spaces, 1.0, 4.0)
    with pytest.raises(AttributeError) as err:
        gram(mats) if name == "gram" else getattr(mats, name)
    messages, exc = [], err.value
    while exc is not None:
        messages.append(str(exc))
        exc = exc.__cause__ or exc.__context__
    assert "boom" in messages, messages
    # an attribute the class does not have is still reported by name
    with pytest.raises(AttributeError, match="no attribute 'nodes'"):
        mats.nodes


@pytest.mark.parametrize("route", ["nodal", "supplied"])
def test_gram_blocks_are_written_afresh_on_both_routes(route, slab_spaces):
    mats = wp.assemble_matrices(slab_spaces, 1.0, 4.0)
    if route == "supplied":
        mats = dataclasses.replace(mats)
        assert mats.nodal is None
    blocks = list(mats.gram_blocks())
    for g, kept, again in zip(blocks, gram(mats), mats.gram_blocks()):
        assert g.flags.writeable and g.flags.f_contiguous
        assert g is not kept and g is not again
        assert np.array_equal(g, kept) and np.array_equal(g, again)
    # a caller may overwrite a block: the next one is written afresh
    blocks[0][:] = 0.0
    assert np.array_equal(next(mats.gram_blocks()), gram(mats)[0])
