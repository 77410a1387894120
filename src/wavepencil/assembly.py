"""Sesquilinear forms of the eigenproblem as matrices over the product space.

Four Hermitian operators are assembled relative to the constrained
spaces: two weighted gradient forms, the weighted L2 form, and the
interface coupling between the two fields.  The coupling is assembled by
two independent routes -- a line integral over the oriented interface and
an equivalent signed volume form -- whose agreement is the regression
test for the orientation convention.

All assembly is real: the forms have real coefficients, so Hermiticity
checks are plain symmetry checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import assembly_kernels as kernels
from .pencil import coefficients, exclusion_interval
from .spaces import FieldSpaces, zero_mean_transform


class AssemblyError(ValueError):
    """Invalid material parameters or inconsistent interface data."""


@dataclass(frozen=True)
class PencilMatrices:
    """The four operator matrices with their permittivities and Gram matrix.

    Blocks are ordered electric field first, magnetic field second.  The
    gradient and L2 forms are block diagonal; the interface coupling is
    block off-diagonal and flips sign under the field-parity operator.
    The operators with the two permittivities determine the quartic
    pencil, so this is also the pencil the ``pencil`` module works on.
    """

    spaces: FieldSpaces
    eps1: float
    eps2: float
    k: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    s: np.ndarray

    @property
    def gram(self):
        return self.spaces.gram

    @property
    def eps_max(self):
        return max(self.eps1, self.eps2)

    @property
    def n(self):
        return self.k.shape[0]

    @property
    def exclusion(self):
        return exclusion_interval(self.eps1, self.eps2)

    @cached_property
    def coefficient_norms(self):
        """Frobenius norms of the pencil's (C0, C1, C2, C4), for residuals."""
        return tuple(np.linalg.norm(c, "fro") for c in coefficients(self)) \
            + (np.linalg.norm(self.k, "fro"),)


def _check_eps(eps1, eps2):
    if not (eps1 >= 1.0 and eps2 >= 1.0):
        raise AssemblyError("relative permittivities must be real and >= 1")


def _block_diag(spaces, pi_block, psi_block):
    n_pi, n = spaces.n_pi, spaces.n
    out = np.zeros((n, n))
    out[:n_pi, :n_pi] = pi_block
    out[n_pi:, n_pi:] = psi_block
    return out


def _pi_restrict(spaces, nodal):
    return nodal[np.ix_(spaces.pi_nodes, spaces.pi_nodes)].toarray()


def assemble_a1(spaces, eps1, eps2):
    """Gradient form weighted by the permittivity on the electric block.

    The unweighted magnetic block is the Gram matrix's own.
    """
    _check_eps(eps1, eps2)
    weighted = kernels.nodal_stiffness(spaces.mesh, eps1, eps2)
    n_pi = spaces.n_pi
    return _block_diag(spaces,
                       _pi_restrict(spaces, weighted),
                       spaces.gram[n_pi:, n_pi:])


def assemble_a2(spaces, eps1, eps2):
    """Gradient form weighted by the inverse permittivity on the magnetic block.

    The unweighted electric block is the Gram matrix's own.
    """
    _check_eps(eps1, eps2)
    weighted = kernels.nodal_stiffness(spaces.mesh, 1.0 / eps1, 1.0 / eps2)
    n_pi = spaces.n_pi
    return _block_diag(spaces,
                       spaces.gram[:n_pi, :n_pi],
                       zero_mean_transform(spaces, weighted))


def assemble_k(spaces, eps1, eps2):
    """L2 form, permittivity-weighted on the electric block.  Positive definite."""
    _check_eps(eps1, eps2)
    mesh = spaces.mesh
    weighted = kernels.nodal_mass(mesh, eps1, eps2)
    plain = kernels.nodal_mass(mesh, 1.0, 1.0)
    return _block_diag(spaces,
                       _pi_restrict(spaces, weighted),
                       zero_mean_transform(spaces, plain))


def _check_interface(spaces):
    mesh = spaces.mesh
    keys = {tuple(sorted(map(int, e))) for e in mesh.interface_edges}
    tagged = {tuple(sorted(map(int, e)))
              for e, tag in zip(mesh.edges, mesh.edge_tags) if tag == "gamma"}
    if keys != tagged or len(keys) != len(mesh.interface_edges):
        raise AssemblyError("inconsistent interface edge data")


def _couple(spaces, bottom_nodal, top_nodal):
    """Assemble the off-diagonal coupling from two nodal pairing matrices.

    ``bottom_nodal[i, j]`` pairs the magnetic test node i with the electric
    trial node j; ``top_nodal`` the electric test with the magnetic trial.
    Both blocks are assembled from the form itself, so an orientation
    fault in the mesh surfaces as a Hermiticity violation instead of being
    silently symmetrised away.
    """
    n_pi, n = spaces.n_pi, spaces.n
    z = spaces.null_basis
    bottom_left = z.T @ (bottom_nodal[:, spaces.pi_nodes].toarray())
    top_right = top_nodal[spaces.pi_nodes, :].toarray() @ z
    out = np.zeros((n, n))
    out[n_pi:, :n_pi] = bottom_left
    out[:n_pi, n_pi:] = top_right
    return out


def assemble_s_line(spaces):
    """Interface coupling from the oriented line integral.

    The electric trial derivative pairs against the magnetic test trace
    with a positive sign and vice versa with a negative one.  Endpoint
    terms vanish because the electric field carries no DOFs on the shield,
    which is exactly what makes the matrix Hermitian.
    """
    _check_interface(spaces)
    d = kernels.interface_line_matrix(spaces.mesh)
    return _couple(spaces, d, (-d).tocsr())


def assemble_s_volume(spaces):
    """Interface coupling from the signed volume form (no line integrals).

    Must agree with assemble_s_line entrywise to rounding on meshes
    without slits; the pair is the orientation-convention oracle.
    """
    v = kernels.volume_skew_matrix(spaces.mesh)
    return _couple(spaces, v, v.T.tocsr())


def assemble_matrices(spaces, eps1, eps2):
    """Assemble all four operators, S by the line route."""
    _check_eps(eps1, eps2)
    return PencilMatrices(
        spaces=spaces,
        eps1=float(eps1),
        eps2=float(eps2),
        k=assemble_k(spaces, eps1, eps2),
        a1=assemble_a1(spaces, eps1, eps2),
        a2=assemble_a2(spaces, eps1, eps2),
        s=assemble_s_line(spaces),
    )

