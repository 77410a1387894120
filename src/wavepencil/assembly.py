"""Sesquilinear forms of the eigenproblem as matrices over the product space.

Four Hermitian operators are assembled relative to the constrained
spaces: two weighted gradient forms, the weighted L2 form, and the
interface coupling between the two fields.  The coupling is assembled by
two independent routes -- a line integral over the oriented interface and
an equivalent signed volume form -- whose agreement is the regression
test for the orientation convention.  One writer (``write_block``)
writes any block of an operator from its sparse nodal parts, and the
whole operator is that writer over full ranges.  The pencil forms each
operator on its first read, reads a region of one it does not hold
without forming it (``PencilMatrices.block``), and takes its
coefficient norms from the sparse nodal forms, so assembling a pencil
forms no n x n array.

All assembly is real: the forms have real coefficients, so Hermiticity
checks are plain symmetry checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import assembly_kernels as kernels
from .mesh import GAMMA, _edge_keys, _tagged
from .pencil import coefficients, exclusion_interval
from .spaces import FieldSpaces, reflector, write_reduced


#: Rows of the operators taken at a time when summing coefficient norms.
NORM_ROW_BLOCK = 64


class AssemblyError(ValueError):
    """Invalid material parameters or inconsistent interface data."""


class NodalForms(NamedTuple):
    """The sparse nodal forms a pencil's operators are written from.

    CSR over all mesh nodes, from one ``triangle_geometry``: the gradient
    form unweighted (``stiffness``, the Gram matrix's), weighted by the
    permittivity (``stiffness_eps``) and by its inverse
    (``stiffness_inv_eps``), and the L2 form unweighted (``mass``) and
    weighted by the permittivity (``mass_eps``).  K's blocks are those of
    ``mass_eps`` and ``mass``, A1's of ``stiffness_eps`` and
    ``stiffness``, A2's of ``stiffness`` and ``stiffness_inv_eps``
    (electric, magnetic).
    """

    stiffness: object
    stiffness_eps: object
    stiffness_inv_eps: object
    mass: object
    mass_eps: object


@dataclass(frozen=True, eq=False)
class PencilMatrices:
    """The four operator matrices with their permittivities.

    Blocks are laid out as ``spaces.blocks`` says, electric field first.
    The gradient and L2 forms are block diagonal; the interface coupling
    is block off-diagonal and flips sign under the field-parity operator.
    The operators with the two permittivities determine the quartic
    pencil, so this is also the pencil the ``pencil`` module works on.

    ``k``, ``a1``, ``a2`` and ``s`` are dense n x n arrays.  One that is
    not supplied is formed from the spaces on its first read, by
    ``assemble_k``, ``assemble_a1``, ``assemble_a2`` or
    ``assemble_s_line`` (``_FormedOnRead``), and kept.
    ``dataclasses.replace`` reads every field, so it carries the
    operators over, formed.  ``nodal`` holds the sparse nodal forms the
    operators are formed from, when none was supplied.  ``block`` reads a
    region of an operator without forming it.
    """

    spaces: FieldSpaces
    eps1: float
    eps2: float
    k: np.ndarray = field(default=None, repr=False)
    a1: np.ndarray = field(default=None, repr=False)
    a2: np.ndarray = field(default=None, repr=False)
    s: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        # a read of an operator left unset then finds the class's
        # _FormedOnRead, which forms it
        unset = [name for name in _FORMS if self.__dict__[name] is None]
        for name in unset:
            del self.__dict__[name]
        self.__dict__["_from_spaces"] = len(unset) == len(_FORMS)

    @property
    def eps_max(self):
        return max(self.eps1, self.eps2)

    @property
    def n(self):
        if self.spaces is None:
            return self.k.shape[0]
        return self.spaces.n

    @property
    def exclusion(self):
        return exclusion_interval(self.eps1, self.eps2)

    @cached_property
    def coefficient_norms(self):
        """Frobenius norms of the pencil's (C0, C1, C2, C4), for residuals.

        When the four operators come from the spaces, the norms are those
        of the sparse nodal forms (``nodal``, ``_nodal_norms``), in O(nnz)
        and with no operator formed.  Otherwise ||C0||^2 and ||C2||^2 are
        summed over ``NORM_ROW_BLOCK`` row blocks of
        ``pencil.coefficients``, so no n x n temporary is formed;
        ||C1|| = |eps1 - eps2| ||S||.
        """
        if self.nodal is not None:
            return _nodal_norms(self.spaces, self.nodal, self.eps1,
                                self.eps2)
        sq0 = sq2 = 0.0
        for start in range(0, self.n, NORM_ROW_BLOCK):
            c0, _, c2 = (c.ravel() for c in coefficients(
                self, slice(start, start + NORM_ROW_BLOCK)))
            sq0 += c0 @ c0
            sq2 += c2 @ c2
        return (np.sqrt(sq0),
                abs(self.eps1 - self.eps2) * np.linalg.norm(self.s, "fro"),
                np.sqrt(sq2), np.linalg.norm(self.k, "fro"))

    @cached_property
    def nodal(self):
        """``NodalForms`` of the spaces, or None if an operator was supplied.

        Formed on first read, in O(nnz).  K, A1 and A2 are formed from
        these forms (``_FORMS``), so their blocks are these forms' bit for
        bit.
        """
        if not self._from_spaces:
            return None
        mesh = self.spaces.mesh
        geo = kernels.triangle_geometry(mesh)
        weights = ((1.0, 1.0), (self.eps1, self.eps2),
                   (1.0 / self.eps1, 1.0 / self.eps2))
        return NodalForms(
            *(kernels.nodal_stiffness(mesh, *w, geo) for w in weights),
            *(kernels.nodal_mass(mesh, *w, geo) for w in weights[:2]))

    @cached_property
    def gram(self):
        """(G_pi, G_psi): the field blocks of the Gram matrix, read-only.

        The inner product every operator bound is relative to: the blocks
        of ``gram_blocks``, formed on first read and kept.
        """
        blocks = tuple(self.gram_blocks())
        for g in blocks:
            g.setflags(write=False)
        return blocks

    def gram_blocks(self):
        """G_pi, then G_psi, each written afresh, one at a time.

        Written by the kernels that write A1's magnetic and A2's electric
        block (``_gram_block``), so those are the Gram blocks bit for bit,
        from the nodal form ``nodal.stiffness`` where ``nodal`` is held.
        Each is a writable Fortran-ordered array that the caller may
        overwrite and the pencil does not keep, so a caller that drops one
        block before it takes the next holds one at a time.
        """
        stiff = kernels.nodal_stiffness(self.spaces.mesh, 1.0, 1.0) \
            if self.nodal is None else self.nodal.stiffness
        for block in (0, 1):
            yield _gram_block(self.spaces, stiff, block)

    def block(self, name, rows=slice(None), cols=slice(None)):
        """Region [rows, cols] of operator ``name`` ("k", "a1", "a2", "s").

        A view of the operator where the pencil holds it (after a solve,
        or supplied as an array); otherwise the block written from the
        nodal forms (``write_block``, S by the line route), equal to that
        part of the formed operator bit for bit, and not kept.  A pencil
        without nodal forms forms the operator (``_FormedOnRead``).
        """
        if name in self.__dict__ or self.nodal is None:
            return getattr(self, name)[rows, cols]
        parts = _line_nodal(self.spaces) if name == "s" \
            else _diagonal(self.nodal, name)
        return write_block(self.spaces, parts, rows, cols)


def _gram_block(spaces, stiffness, block):
    """Field block ``block`` (0 electric, 1 magnetic) of the Gram matrix.

    Written from the nodal ``stiffness`` as A2's electric and A1's
    magnetic block are (``write_block``), into a new Fortran-ordered
    array, the layout LAPACK factors in place.
    """
    b = spaces.blocks[block]
    return write_block(spaces, Diagonal(stiffness, stiffness), b, b,
                       order="F")


def _check_eps(eps1, eps2):
    if not (eps1 >= 1.0 and eps2 >= 1.0):
        raise AssemblyError("relative permittivities must be real and >= 1")


class Diagonal(NamedTuple):
    """Nodal forms of a block-diagonal operator's two field blocks.

    The electric block is ``electric`` on the electric nodes
    (``scatter_pi``), the magnetic block the zero-mean congruence of
    ``magnetic`` (``write_reduced``).
    """

    electric: object
    magnetic: object


class Coupling(NamedTuple):
    """Nodal pairing matrices of the block off-diagonal interface coupling.

    ``bottom[i, j]`` pairs the magnetic test node i with the electric
    trial node j; ``top`` the electric test with the magnetic trial.
    """

    bottom: object
    top: object


#: The ``NodalForms`` fields of each block-diagonal operator's blocks.
_DIAGONAL = {"k": ("mass_eps", "mass"), "a1": ("stiffness_eps", "stiffness"),
             "a2": ("stiffness", "stiffness_inv_eps")}


def _diagonal(nodal, name):
    """``Diagonal`` of block-diagonal operator ``name`` from ``NodalForms``."""
    return Diagonal(*(getattr(nodal, form) for form in _DIAGONAL[name]))


def _field_parts(span, spaces):
    """(field, slice within its block, slice within span) per block span meets.

    ``span`` is a range of product-space indices; field 0 is electric.
    """
    bounds = ((0, spaces.n_pi), (spaces.n_pi, spaces.n))
    for fld, (lo, hi) in enumerate(bounds):
        a, b = max(span.start, lo), min(span.stop, hi)
        if a < b:
            yield fld, slice(a - lo, b - lo), slice(a - span.start,
                                                    b - span.start)


def write_block(spaces, parts, rows=slice(None), cols=slice(None),
                order="C"):
    """Block [rows, cols] of an operator, written from its nodal ``parts``.

    ``parts`` is a ``Diagonal`` or a ``Coupling``; ``rows`` and ``cols``
    are slices of the product-space index.  Every part of a field block
    the block meets is written into one zeroed array: an electric block
    by ``scatter_pi``, a magnetic one by ``write_reduced``'s congruence,
    and the coupling's blocks as Z^T X of a sparse nodal column block X,
    S[m, e] = Z^T bottom[:, pi] and S[e, m]^T = Z^T top[pi, :]^T (through
    a transposed view), each the reflector's low-rank term, then the
    stored entries of X.  Each entry is formed from its own row and
    column alone, so a block is that part of the whole operator bit for
    bit, and the whole operator is this over full ranges.  Both coupling
    blocks are assembled from the form itself, so an orientation fault in
    the mesh surfaces as a Hermiticity violation instead of being
    silently symmetrised away.  No dense copy of a nodal block is formed.
    The block is a new array in ``order``.
    """
    rows, cols = range(spaces.n)[rows], range(spaces.n)[cols]
    out = np.zeros((len(rows), len(cols)), order=order)
    coupling = isinstance(parts, Coupling)
    m, pi = spaces.mean_vector, spaces.pi_nodes
    for fr, r, out_r in _field_parts(rows, spaces):
        for fc, c, out_c in _field_parts(cols, spaces):
            dst = out[out_r, out_c]
            if not coupling and fr == fc == 0:
                spaces.scatter_pi(dst, parts.electric, r, c)
            elif not coupling and fr == fc == 1:
                write_reduced(dst, m, parts.magnetic, congruence=True,
                              rows=r, cols=c)
            elif coupling and fr == 1 and fc == 0:
                write_reduced(dst, m, parts.bottom[:, pi[c]], rows=r)
            elif coupling and fr == 0 and fc == 1:
                write_reduced(dst.T, m, parts.top[pi[r], :].T, rows=c)
    return out


def assemble_a1(spaces, eps1, eps2, nodal=None):
    """Gradient form weighted by the permittivity on the electric block.

    The unweighted magnetic block is the Gram matrix's own.  ``nodal``,
    where given, is the pencil's ``NodalForms`` of (eps1, eps2), and the
    blocks are read from it; otherwise both forms are computed as it holds
    them, so the operator is the same bit for bit.
    """
    _check_eps(eps1, eps2)
    if nodal is not None:
        return write_block(spaces, _diagonal(nodal, "a1"))
    mesh = spaces.mesh
    return write_block(spaces, Diagonal(
        kernels.nodal_stiffness(mesh, eps1, eps2),
        kernels.nodal_stiffness(mesh, 1.0, 1.0)))


def assemble_a2(spaces, eps1, eps2, nodal=None):
    """Gradient form weighted by the inverse permittivity on the magnetic block.

    The unweighted electric block is the Gram matrix's own.  ``nodal`` is
    read as by ``assemble_a1``.
    """
    _check_eps(eps1, eps2)
    if nodal is not None:
        return write_block(spaces, _diagonal(nodal, "a2"))
    mesh = spaces.mesh
    return write_block(spaces, Diagonal(
        kernels.nodal_stiffness(mesh, 1.0, 1.0),
        kernels.nodal_stiffness(mesh, 1.0 / eps1, 1.0 / eps2)))


def assemble_k(spaces, eps1, eps2, nodal=None):
    """L2 form, permittivity-weighted on the electric block.  Positive definite.

    ``nodal`` is read as by ``assemble_a1``.
    """
    _check_eps(eps1, eps2)
    if nodal is not None:
        return write_block(spaces, _diagonal(nodal, "k"))
    mesh = spaces.mesh
    return write_block(spaces, Diagonal(kernels.nodal_mass(mesh, eps1, eps2),
                                        kernels.nodal_mass(mesh, 1.0, 1.0)))


def _check_interface(spaces):
    """Refuse interface edges that are not the gamma-tagged edges one-to-one.

    The sorted edge keys of both are compared, repeats included, so a mesh
    built directly and never validated is caught here.
    """
    mesh = spaces.mesh
    gamma = _tagged(mesh.edge_tags, (GAMMA,))
    if not np.array_equal(
            np.sort(_edge_keys(mesh.interface_edges, mesh.n_nodes)),
            np.sort(_edge_keys(mesh.edges[gamma], mesh.n_nodes))):
        raise AssemblyError("inconsistent interface edge data")


def _line_nodal(spaces):
    """The line route's ``Coupling``, interface data checked."""
    _check_interface(spaces)
    d = kernels.interface_line_matrix(spaces.mesh)
    return Coupling(d, (-d).tocsr())


def assemble_s_line(spaces):
    """Interface coupling from the oriented line integral.

    The electric trial derivative pairs against the magnetic test trace
    with a positive sign and vice versa with a negative one.  Endpoint
    terms vanish because the electric field carries no DOFs on the shield,
    which is exactly what makes the matrix Hermitian.
    """
    return write_block(spaces, _line_nodal(spaces))


def assemble_s_volume(spaces, rows=slice(None)):
    """Rows ``rows`` of the interface coupling from the signed volume form.

    No line integrals.  Must agree with assemble_s_line entrywise to
    rounding on meshes without slits; the pair is the
    orientation-convention oracle.  The rows are written by
    ``write_block``, so they are that part of the whole matrix (the
    default) bit for bit, and a caller that reads the matrix a row block
    at a time holds no n x n array.
    """
    v = kernels.volume_skew_matrix(spaces.mesh)
    return write_block(spaces, Coupling(v, v.T.tocsr()), rows)


def assemble_matrices(spaces, eps1, eps2):
    """The pencil of the spaces and permittivities, S by the line route.

    The permittivities and the interface data are checked here; the four
    operators are formed on their first read (``PencilMatrices``).
    """
    _check_eps(eps1, eps2)
    _check_interface(spaces)
    return PencilMatrices(spaces=spaces, eps1=float(eps1), eps2=float(eps2))


def _nodal_norms(spaces, forms, eps1, eps2):
    """Frobenius norms of (C0, C1, C2, C4) from the sparse nodal forms.

    Per block of each coefficient, combined on the nodal forms as
    ``pencil.coefficients`` combines the operators: an electric block
    ``X[pi, pi]`` directly, a magnetic block ``Z^T X Z`` as
    ||X||^2 - 2 ||X h||^2 + (h^T X h)^2 and a block ``Z^T Y`` of S as
    ||Y||^2 - ||Y^T h||^2, h = H e_1 being the reflector's first column,
    which completes Z to the orthogonal H.  ``forms`` are the
    ``NodalForms`` of the pencil.  O(nnz) work and memory.
    """
    mesh, pi = spaces.mesh, spaces.pi_nodes
    v, beta = reflector(spaces.mean_vector)
    h = (-beta * v[0]) * v
    h[0] += 1.0

    def sq(x):
        return x.data @ x.data

    def electric(x):
        return sq(x[np.ix_(pi, pi)])

    def magnetic(x):
        xh = x @ h
        return sq(x) - 2.0 * (xh @ xh) + (h @ xh) ** 2

    def coupling(y):
        yh = y.T @ h
        return sq(y) - yh @ yh

    stiff, stiff_e, stiff_inv, mass, mass_e = forms
    d = kernels.interface_line_matrix(mesh)
    trace = eps1 + eps2
    sq0 = electric(mass_e - stiff) + magnetic(mass - stiff_inv)
    sq1 = coupling(d[:, pi]) + coupling(d[pi, :].T)
    sq2 = electric(stiff_e - trace * mass_e) + magnetic(stiff - trace * mass)
    sq4 = electric(mass_e) + magnetic(mass)
    return (eps1 * eps2 * np.sqrt(sq0), abs(eps1 - eps2) * np.sqrt(sq1),
            np.sqrt(sq2), np.sqrt(sq4))


class _FormedOnRead:
    """An operator of ``PencilMatrices`` formed on its first read and kept.

    A descriptor without ``__set__``: a supplied or formed operator sits
    in the instance ``__dict__`` and is found before it.  Unlike a
    ``functools.cached_property`` it takes no lock, which before Python
    3.12 is one across all instances, so the sweep's workers form their
    operators at once.  The class defines no ``__getattr__``, so an
    ``AttributeError`` raised while any attribute is formed propagates
    as it was raised.
    """

    def __init__(self, name, form):
        self.name, self.form = name, form

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        op = obj.__dict__[self.name] = self.form(obj)
        return op


#: How each unset operator is formed on its first read, K, A1 and A2 from
#: the nodal forms the pencil holds; each assembly function is looked up
#: by its module name when it is called.
_FORMS = {"k": lambda m: assemble_k(m.spaces, m.eps1, m.eps2, m.nodal),
          "a1": lambda m: assemble_a1(m.spaces, m.eps1, m.eps2, m.nodal),
          "a2": lambda m: assemble_a2(m.spaces, m.eps1, m.eps2, m.nodal),
          "s": lambda m: assemble_s_line(m.spaces)}

# The dataclass leaves each operator's default, None, on the class, where
# a read would find it; the descriptor takes its place.
for _name, _form in _FORMS.items():
    setattr(PencilMatrices, _name, _FormedOnRead(_name, _form))
del _name, _form
