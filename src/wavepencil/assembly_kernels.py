"""Element-level assembly kernels over the full nodal basis.

Linear triangles with exact closed-form integration: gradients are
per-triangle constants, mass uses the (area/12)(1 + delta_ij) rule, and
the interface line matrix reduces to +-1/2 entries per oriented edge
(the edge length cancels between the constant tangential derivative and
the linear trace integral).

Matrices are returned in CSR form over all mesh nodes; constraints are
applied downstream.  The triplet accumulation order is fixed by the
element loop, so repeated assembly is bit-reproducible.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def triangle_geometry(mesh):
    """Areas and constant P1 basis gradients per triangle.

    The areas are the mesh's own (``Mesh.triangle_areas``), shared, not
    copied.

    Returns
    -------
    areas : (M,) array
    grads : (M, 3, 2) array
        grads[t, a] is the gradient of the basis function of local node a.
    """
    areas = mesh.triangle_areas()
    p = np.take(mesh.nodes, mesh.triangles, axis=0)
    grads = np.empty((len(areas), 3, 2))
    for a in range(3):
        opp1 = p[:, (a + 1) % 3]
        opp2 = p[:, (a + 2) % 3]
        grads[:, a, 0] = opp1[:, 1] - opp2[:, 1]
        grads[:, a, 1] = opp2[:, 0] - opp1[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    return areas, grads


def _region_weight(mesh, w1, w2):
    return np.where(mesh.regions == 1, w1, w2)


def _accumulate(mesh, local):
    """Scatter (M, 3, 3) element matrices into a CSR over all nodes.

    The indices are built in the dtype the CSR keeps (int32 while n and
    the entry count fit), so ``coo_matrix`` does not copy them.
    """
    n = mesh.n_nodes
    index = sparse.get_index_dtype(maxval=max(n, local.size))
    tri = mesh.triangles.astype(index)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    mat = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def nodal_stiffness(mesh, w1, w2, geometry=None):
    """Gradient form with a piecewise-constant region weight.

    ``geometry`` is ``triangle_geometry(mesh)``, computed when not given.
    """
    areas, grads = triangle_geometry(mesh) if geometry is None else geometry
    w = _region_weight(mesh, w1, w2) * areas
    local = np.einsum("t,tad,tbd->tab", w, grads, grads)
    return _accumulate(mesh, local)


def nodal_mass(mesh, w1, w2, geometry=None):
    """L2 form with a piecewise-constant region weight, exact quadrature.

    ``geometry`` is ``triangle_geometry(mesh)``, computed when not given.
    """
    areas, _ = triangle_geometry(mesh) if geometry is None else geometry
    w = _region_weight(mesh, w1, w2) * areas
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = w[:, None, None] * base
    return _accumulate(mesh, local)


def interface_line_matrix(mesh):
    """Line matrix D[i, j] = integral over the interface of (d phi_j / d tau) phi_i.

    Uses the stored edge orientation.  Per oriented edge (a, b) the exact
    contributions are D[a,a] = D[b,a] = -1/2 and D[a,b] = D[b,b] = +1/2,
    independent of the edge length.
    """
    n = mesh.n_nodes
    edges = mesh.interface_edges
    index = sparse.get_index_dtype(maxval=max(n, 4 * len(edges)))
    a, b = edges.astype(index).T
    rows = np.stack((a, a, b, b), axis=1).ravel()
    cols = np.stack((a, b, a, b), axis=1).ravel()
    vals = np.tile([-0.5, 0.5, -0.5, 0.5], len(a))
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return mat.tocsr()


def volume_skew_matrix(mesh):
    """Volume form equivalent of the interface coupling.

    V[i, j] = sum over triangles of (xi/2) * area *
              (d2 phi_j * d1 phi_i - d1 phi_j * d2 phi_i),
    with xi = +1 on region 1 and -1 on region 2.  Row index i is the test
    function, column j the trial function.
    """
    areas, grads = triangle_geometry(mesh)
    xi = np.where(mesh.regions == 1, 1.0, -1.0)
    w = 0.5 * xi * areas
    # local[a, b] pairs test a with trial b
    local = np.einsum("t,tb,ta->tab", w, grads[:, :, 1], grads[:, :, 0]) \
        - np.einsum("t,tb,ta->tab", w, grads[:, :, 0], grads[:, :, 1])
    return _accumulate(mesh, local)
