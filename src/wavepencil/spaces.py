"""Discrete product space for the longitudinal field pair.

First-order nodal elements for both scalar fields:

* the electric longitudinal component lives in the space with zero trace
  on the shield (outer boundary and both slit sides), so those nodes are
  eliminated;
* the magnetic longitudinal component lives in the zero-mean space; the
  constraint is imposed through an orthonormal null-space basis Z, columns
  2..N of the Householder reflector H = I - beta v v^T that sends the
  per-node mean vector to a multiple of the first unit vector, which keeps
  every reduced matrix congruent to its nodal origin.  Products with Z
  apply H as the identity minus a rank-one term, in O(N^2) work for a
  matrix and O(N) for a vector; the dense basis is not stored and is
  formed only on request (``FieldSpaces.null_basis``).

Product-space vectors and matrices are laid out electric block first,
then magnetic (``FieldSpaces.blocks``); this module is the one place
that knows that layout and how the zero-mean constraint is applied.
The spaces hold only O(N) data, the dof maps and the mean vector.  The
``assembly`` module writes every form over them, the gradient Gram
matrix included, into dense blocks from its sparse nodal matrix, with
``scatter_pi`` (electric) and ``write_reduced`` (magnetic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh


#: Rows of the reflector's second rank-one term formed at a time.
ROW_BLOCK = 64


class SpaceError(ValueError):
    """Mesh cannot support the constrained discrete spaces."""


@dataclass(frozen=True)
class FieldSpaces:
    """Degree-of-freedom maps, the field-block layout and the mean vector.

    Attributes
    ----------
    mesh : Mesh
    pi_nodes : (n_pi,) int array
        Mesh nodes carrying electric-field unknowns (not on gamma0 or on
        a slit side), ascending.
    pi_index : (N,) int array
        Node -> electric dof index, -1 for eliminated nodes.
    mean_vector : (N,) float array
        Integral of each nodal basis function over the cross-section;
        the magnetic field has zero weighted mean against it.
    """

    mesh: Mesh
    pi_nodes: np.ndarray
    pi_index: np.ndarray
    mean_vector: np.ndarray

    def __post_init__(self):
        for arr in (self.pi_nodes, self.pi_index, self.mean_vector):
            arr.setflags(write=False)

    @property
    def null_basis(self):
        """Z as a dense (N, N-1) array, formed on each access.

        Orthonormal columns spanning the complement of ``mean_vector``;
        magnetic-field coordinate vectors y map to nodal values ``Z y``
        with exactly zero weighted mean.  No product in this package
        uses it: each applies the reflector (``reflector``) instead.
        """
        return _householder_complement(self.mean_vector)

    @property
    def n_pi(self):
        return len(self.pi_nodes)

    @property
    def n_psi(self):
        return len(self.mean_vector) - 1

    @property
    def n(self):
        return self.n_pi + self.n_psi

    @property
    def blocks(self):
        """Index slices of the electric and the magnetic field block."""
        return slice(0, self.n_pi), slice(self.n_pi, self.n)

    def scatter_pi(self, dst, nodal, rows=slice(None), cols=slice(None)):
        """Write the stored entries of ``M[pi[rows], pi[cols]]`` into dst.

        dst is that part of a zeroed (n_pi, n_pi) electric block of an
        operator, typically a view; entries M does not store are left as
        they are.  Each entry is copied, so a part is the whole block's
        bit for bit.
        """
        _add_stored(dst, nodal[np.ix_(self.pi_nodes[rows],
                                      self.pi_nodes[cols])])

    def psi_nodal(self, y):
        """Nodal values Z y of a magnetic-field coordinate vector.

        Applies the reflector as ``[0; y] - beta v (v[1:] . y)`` in O(N);
        the dense basis is not formed.
        """
        v, beta = reflector(self.mean_vector)
        return np.concatenate(([0.0], y)) - (beta * (v[1:] @ y)) * v

    def nodal_fields(self, v):
        """Expand a product-space vector to two full nodal vectors."""
        e, m = self.blocks
        pi_nodal = np.zeros(self.mesh.n_nodes, dtype=v.dtype)
        pi_nodal[self.pi_nodes] = v[e]
        return pi_nodal, self.psi_nodal(v[m])


def reflector(m):
    """(v, beta) of the Householder reflector H = I - beta v v^T.

    H sends m to a multiple of the first unit vector, and its columns
    2..N are an orthonormal basis of the hyperplane orthogonal to m.
    m must have a positive first entry, which holds for mean vectors
    (every node belongs to a triangle of positive area).
    """
    v = m.astype(float).copy()
    v[0] += np.sign(v[0]) * np.linalg.norm(m)
    return v, 2.0 / np.dot(v, v)


def _householder_complement(m):
    """Columns 2..N of the reflector of m, formed as one array."""
    v, beta = reflector(m)
    z = np.outer(v, v[1:])
    z *= -beta
    cols = np.arange(len(m) - 1)
    z[cols + 1, cols] += 1.0
    return z


def build_spaces(mesh):
    """Construct the DOF maps and the mean vector.

    Raises
    ------
    SpaceError
        If no electric-field DOFs remain (under-resolved mesh).
    """
    eliminated = mesh.boundary_node_mask()
    pi_nodes = np.where(~eliminated)[0]
    if len(pi_nodes) == 0:
        raise SpaceError("no interior nodes left for the Dirichlet field; "
                         "mesh is under-resolved")
    pi_index = np.full(mesh.n_nodes, -1, dtype=int)
    pi_index[pi_nodes] = np.arange(len(pi_nodes))

    # Each triangle adds a third of its area to its nodes, in triangle order.
    mean = np.bincount(mesh.triangles.ravel(),
                       weights=np.repeat(mesh.triangle_areas() / 3.0, 3),
                       minlength=mesh.n_nodes)
    return FieldSpaces(mesh=mesh, pi_nodes=pi_nodes, pi_index=pi_index,
                       mean_vector=mean)


def _add_stored(dst, matrix):
    """dst += a sparse matrix, repeated (row, col) entries summed in a copy."""
    coo = matrix.tocoo(copy=True)
    coo.sum_duplicates()
    dst[coo.row, coo.col] += coo.data


def write_reduced(dst, m, nodal, congruence=False, rows=slice(None),
                  cols=slice(None)):
    """Write rows ``rows`` of ``Z^T X``, or block [rows, cols] of ``Z^T M Z``.

    X is a real sparse (CSR or CSC) matrix; for the congruence M is also
    symmetric, as the ``assembly_kernels`` forms are bit for bit.  Z is
    the null basis of m: columns 2..N of the reflector H = I - beta v v^T.
    Both products are the dense low-rank term of the reflector plus the
    nodal matrix with its first row (and column) dropped, and they are
    written in that order:

    1. dst is set to the low-rank term: ``-beta v[1:] (v^T X)`` for rows,
       ``-(w v^T + v w^T)[1:, 1:]`` for the congruence, with p = M v,
       c = v^T p and w = beta p - (beta^2 c / 2) v, so the result is
       exactly symmetric.  Its second product is added ``ROW_BLOCK`` rows
       at a time, so no temporary of the size of dst is formed.
    2. The stored entries of ``X[1:]`` or ``M[1:, 1:]`` are added.

    In IEEE arithmetic -d + x equals x - d, so the result is bit for bit
    ``M[1:, 1:]`` (or ``X[1:]``) minus the update d.  Every entry is
    formed from its own row and column of each term, so a block
    [rows, cols] (slices of the reduced index) is that block of the whole
    product bit for bit; ``cols`` applies to the congruence, and the
    columns of ``Z^T X`` are those of X.  dst is a float view of one
    block of an operator (a transposed view included), of shape
    (len(rows), k) for an (N, k) X, or (len(rows), len(cols)) for an
    (N, N) M.
    """
    n = len(m)
    k = n if congruence else nodal.shape[1]
    rows = range(n - 1)[rows]
    cols = range(n - 1)[cols] if congruence else range(k)
    if nodal.shape != (n, k) or dst.shape != (len(rows), len(cols)):
        raise ValueError(f"cannot reduce a {nodal.shape} nodal matrix "
                         f"into {dst.shape} over {n} nodes")
    v, beta = reflector(m)
    r = slice(rows.start + 1, rows.stop + 1)
    if not congruence:
        np.multiply.outer(-beta * v[r], nodal.T @ v, out=dst)
        _add_stored(dst, nodal[r])
        return
    c = slice(cols.start + 1, cols.stop + 1)
    p = nodal @ v
    w = beta * p - (0.5 * beta * beta * np.dot(v, p)) * v
    np.multiply.outer(-w[r], v[c], out=dst)
    neg_v, w = -v[r], w[c]
    for start in range(0, len(rows), ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        dst[block] += np.multiply.outer(neg_v[block], w)
    _add_stored(dst, nodal[r, c])
