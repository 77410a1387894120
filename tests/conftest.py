"""Shared fixtures: small meshes, assembled operators, solved spectra.

Thread pinning must happen before numpy is first imported so the timing
contract of the acceptance suite is honest about "single-threaded".
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math
import tracemalloc

import numpy as np
import pytest

import wavepencil as wp
from wavepencil.eigensolver import NULLITY_REL_TOL, solve_pencil

PI = math.pi


def traced_peak(fn):
    """Peak bytes that Python allocations reach above entry while fn runs."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def parity_signs(spaces):
    """Diagonal of the field-flip operator: -1 on the electric block."""
    signs = np.ones(spaces.n)
    signs[spaces.blocks[0]] = -1.0
    return signs


def gram(matrices):
    """(G_pi, G_psi): the field blocks of the Gram matrix, written afresh."""
    return tuple(matrices.gram_blocks())


def eigvalsh_nullity(pencil, gamma):
    """|eigenvalues| of the whole dense L(gamma) under the nullity cutoff:
    the reference count ``numerical_nullity`` is checked against."""
    cutoff = NULLITY_REL_TOL * wp.pencil.coefficient_scale(pencil, gamma)
    vals = np.linalg.eigvalsh(wp.evaluate(pencil, gamma))
    return int(np.sum(np.abs(vals) <= cutoff))


def interface_node_mask(mesh):
    """True for the nodes of the oriented interface edges."""
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    mask[mesh.interface_edges] = True
    return mask


@pytest.fixture(scope="session")
def slab_mesh():
    return wp.generate_rect_slab(PI, PI, PI / 2, 8, 8)


@pytest.fixture(scope="session")
def slab_spaces(slab_mesh):
    return wp.build_spaces(slab_mesh)


@pytest.fixture(scope="session")
def slab_matrices(slab_spaces):
    return wp.assemble_matrices(slab_spaces, 1.0, 4.0)


@pytest.fixture(scope="session")
def slab_pencil(slab_matrices):
    return wp.make_pencil(slab_matrices)


@pytest.fixture(scope="session")
def slab_eigenvalues(slab_pencil):
    return solve_pencil(slab_pencil).eigenvalues


@pytest.fixture(scope="session")
def homog_mesh():
    return wp.generate_homogeneous_rect(PI, PI, 8, 8, PI / 2)


@pytest.fixture(scope="session")
def homog_spaces(homog_mesh):
    return wp.build_spaces(homog_mesh)


@pytest.fixture(scope="session")
def homog_matrices(homog_spaces):
    return wp.assemble_matrices(homog_spaces, 2.0, 2.0)


@pytest.fixture(scope="session")
def homog_pencil(homog_matrices):
    return wp.make_pencil(homog_matrices)


@pytest.fixture(scope="session")
def homog_eigenvalues(homog_pencil):
    return solve_pencil(homog_pencil).eigenvalues


def build_slit_mesh_text():
    """4x4 grid on [0,pi]^2 with the lower half of the interface slit open.

    The interface sits at x = pi/2 (grid column 2).  The slit covers
    y in [0, pi/2]: its interior node (column 2, row 1) is duplicated so
    the right-side triangles reference the copy, and the two slit sides
    are tagged as shielded interface; the upper half keeps its dielectric
    interface tags.
    """
    base = wp.generate_rect_slab(PI, PI, PI / 2, 4, 4)

    def nid(ix, iy):
        return iy * 5 + ix

    nodes = np.vstack([base.nodes, base.nodes[nid(2, 1)]])
    dup = 25
    triangles = base.triangles.copy()
    regions = base.regions.copy()
    for t, tri in enumerate(triangles):
        if regions[t] == 1 and nid(2, 1) in tri:
            triangles[t] = [dup if v == nid(2, 1) else v for v in tri]

    slit_keys = {tuple(sorted((nid(2, 0), nid(2, 1)))),
                 tuple(sorted((nid(2, 1), nid(2, 2))))}
    edges = []
    tags = []
    for (i, j), tag in zip(base.edges, base.edge_tags):
        if tag == wp.mesh.GAMMA and tuple(sorted((int(i), int(j)))) in slit_keys:
            continue
        edges.append((int(i), int(j)))
        tags.append(tag)
    # both slit sides, shielded
    for a, b in ((nid(2, 0), nid(2, 1)), (nid(2, 1), nid(2, 2))):
        edges.append((a, b))
        tags.append(wp.mesh.GAMMA_PRIME)
    for a, b in ((nid(2, 0), dup), (dup, nid(2, 2))):
        edges.append((a, b))
        tags.append(wp.mesh.GAMMA_PRIME)

    lines = [f"nodes {len(nodes)}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in nodes]
    lines.append(f"triangles {len(triangles)}")
    lines += [f"{i} {j} {k} {r}" for (i, j, k), r in zip(triangles, regions)]
    lines.append(f"edges {len(edges)}")
    lines += [f"{i} {j} {t}" for (i, j), t in zip(edges, tags)]
    return "\n".join(lines) + "\n"


def two_slabs_text(offset):
    """Two 4x4 slabs on [0,pi]^2 in one mesh file, the second moved by offset.

    A node of the second slab that lands on a node of the first is merged
    into it; with no such node the triangles form two pieces.
    """
    m = wp.generate_rect_slab(PI, PI, PI / 2, 4, 4)
    moved = m.nodes + np.asarray(offset, dtype=float)
    index = np.arange(m.n_nodes, 2 * m.n_nodes)
    for k, point in enumerate(moved):
        hit = np.flatnonzero(np.isclose(m.nodes, point).all(axis=1))
        if len(hit):
            index[k] = hit[0]
    fresh = index >= m.n_nodes
    index[fresh] = m.n_nodes + np.arange(np.count_nonzero(fresh))
    return wp.save_mesh(wp.Mesh(
        nodes=np.vstack([m.nodes, moved[fresh]]),
        triangles=np.vstack([m.triangles, index[m.triangles]]),
        regions=np.concatenate([m.regions, m.regions]),
        edges=np.vstack([m.edges, index[m.edges]]),
        edge_tags=m.edge_tags * 2))


@pytest.fixture(scope="session")
def slit_mesh():
    return wp.load_mesh(build_slit_mesh_text())
