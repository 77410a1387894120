"""Triangulated waveguide cross-sections with region and boundary tags.

A cross-section is a bounded polygon split by a dielectric interface into
region 1 and region 2.  Boundary edges carry one of three tags:

* ``gamma0``      -- perfectly conducting shield (outer boundary),
* ``gamma``       -- dielectric interface between the two regions,
* ``gammaprime``  -- shielded part of the interface, realised as a slit
  with duplicated nodes so the two sides carry independent traces.

All coordinates are dimensionless (lengths are premultiplied by the free
space wavenumber).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

GAMMA0 = "gamma0"
GAMMA = "gamma"
GAMMA_PRIME = "gammaprime"

_KNOWN_TAGS = (GAMMA0, GAMMA, GAMMA_PRIME)


class MeshError(ValueError):
    """Invalid geometry parameters or a mesh violating its invariants."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable triangulation with region and boundary tagging.

    A mesh compares and hashes by identity (``eq=False``), as
    ``assembly.PencilMatrices`` does: a comparison field by field would
    compare numpy arrays, whose truth value is ambiguous.

    Attributes
    ----------
    nodes : (N, 2) float array
        Node coordinates.
    triangles : (M, 3) int array
        Node index triples, counterclockwise.
    regions : (M,) int array
        Region tag per triangle, 1 or 2.
    edges : (E, 2) int array
        Tagged boundary/interface edges as node index pairs.
    edge_tags : tuple of str
        Tag per row of ``edges``.
    interface_edges : (K, 2) int array
        The ``gamma`` edges in stored orientation: traversing ``i -> j``
        keeps region 1 on the left, so the normal obtained by rotating the
        tangent by +90 degrees points from region 2 into region 1.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    regions: np.ndarray
    edges: np.ndarray
    edge_tags: tuple
    interface_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=int))

    def __post_init__(self):
        for arr in (self.nodes, self.triangles, self.regions, self.edges,
                    self.interface_edges):
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def triangle_areas(self):
        """Signed areas; positive for counterclockwise triangles.

        Computed on the first call from the coordinate columns gathered
        with ``np.take`` and kept read-only: the mesh is immutable, so every
        later call returns the same array (``dataclasses.replace`` makes
        a new mesh, with areas of its own).
        """
        areas = self.__dict__.get("_areas")
        if areas is None:
            x, y = (np.take(col, self.triangles) for col in self.nodes.T)
            x1, y1 = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0]
            x2, y2 = x[:, 2] - x[:, 0], y[:, 2] - y[:, 0]
            areas = 0.5 * (x1 * y2 - y1 * x2)
            areas.setflags(write=False)
            # not a field, so eq, repr and replace ignore it; the frozen
            # dataclass refuses setattr
            self.__dict__["_areas"] = areas
        return areas

    def boundary_node_mask(self):
        """True for nodes lying on gamma0 or gammaprime edges."""
        shielded = _tagged(self.edge_tags, (GAMMA0, GAMMA_PRIME))
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.edges[shielded]] = True
        return mask


def _tagged(tags, wanted):
    """True for each of the edge ``tags`` that is one of ``wanted``."""
    return np.fromiter((tag in wanted for tag in tags), dtype=bool,
                       count=len(tags))


class _Edges(NamedTuple):
    """The undirected edges of a triangulation, ascending by key.

    ``keys`` holds each edge's key min(i, j) * N + max(i, j), ``counts``
    the number of triangles that hold it, ``first`` the position 3 t + a
    of its first half-edge (triangle t, local edge a), so that ascending
    ``first`` is the order in which the triangles first meet the edges,
    and ``tris`` its first and second triangle in that order (the first
    again for an edge of one triangle).
    """

    keys: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    tris: np.ndarray


def _edge_keys(pairs, n):
    """Key min(i, j) * n + max(i, j) of each node pair, as int64."""
    i, j = pairs.T
    return np.minimum(i, j).astype(np.int64) * n + np.maximum(i, j)


def _edge_table(mesh):
    """The triangles' edges from one stable sort of their 3M half-edge keys.

    Local edge a of a triangle runs from its corner a to corner a + 1
    (mod 3), so the keys are formed elementwise from the (M, 3) columns
    of ``triangles`` and of their rotation, and their C order is the
    (triangle, local edge) order; within a run of equal keys the stable
    sort keeps the half-edges in that order.
    """
    tri = mesh.triangles
    turned = tri[:, [1, 2, 0]]
    keys = np.minimum(tri, turned).astype(np.int64)
    keys *= mesh.n_nodes
    keys += np.maximum(tri, turned)
    keys = keys.ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.empty(len(ranked), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=len(keys))
    # an edge's first and second half-edge (the first again for one)
    halves = order[np.column_stack((starts, starts + (counts > 1)))]
    return _Edges(ranked[starts], counts, halves[:, 0], halves // 3)


def _find(keys, wanted):
    """Position of each wanted key in the ascending keys, and whether found.

    A key that is not there gets position 0.
    """
    at = np.searchsorted(keys, wanted)
    found = at < len(keys)
    found[found] = keys[at[found]] == wanted[found]
    return np.where(found, at, 0), found


def validate(mesh):
    """Check all structural mesh invariants; raise MeshError on violation.

    Checked in this order: array shapes (nodes (N, 2), triangles (M, 3),
    edges (E, 2) and interface_edges (K, 2)), integer triangles, edges
    and interface_edges, one region per triangle and one tag per edge,
    finite node coordinates, index ranges, every node
    belonging to a triangle (a node in none would carry no basis function
    and a zero mean-vector entry), the triangles forming one piece through
    their edges (``_pieces``; a second piece would carry a constant
    magnetic field that the one zero-mean constraint leaves), region tags
    1 or 2, known edge tags, counterclockwise orientation (positive
    areas); then the tagged edges, each tagged once, lying on a triangle,
    gamma edges separating exactly one region-1 from one region-2
    triangle and gamma0/gammaprime edges on the boundary; then the edges
    of the triangles, every boundary edge tagged, every region-change
    edge tagged gamma and no edge shared by more than two triangles;
    then ``interface_edges`` holding each gamma edge exactly once, and
    every gamma edge stored with region 1 on its left
    (``_orientation_errors``).

    The edges are read from one stable sort of the triangles' half-edge
    keys (``_edge_table``), built just before the pieces check, which
    runs over its unique edges; the tagged and interface edges are looked
    up in it.  The areas are the mesh's own (``Mesh.triangle_areas``),
    which the spaces and the assembly kernels read again.  Where a check
    fails for several items, the message names the first: the first node
    (sought only once a coordinate is found non-finite), the first
    unknown tag (sought only once the set of tags holds one), the first
    tagged edge in ``edges`` order (a repeat at its second row), the
    first edge in the order the triangles first meet it, and the first
    row of ``interface_edges``.
    """
    n = mesh.n_nodes
    for name, cols, rows in (("nodes", 2, "N"), ("triangles", 3, "M"),
                             ("edges", 2, "E"), ("interface_edges", 2, "K")):
        shape = getattr(mesh, name).shape
        if len(shape) != 2 or shape[1] != cols:
            raise MeshError(f"{name} has shape {shape}; expected "
                            f"({rows}, {cols})")
    for name in ("triangles", "edges", "interface_edges"):
        dtype = getattr(mesh, name).dtype
        if not np.issubdtype(dtype, np.integer):
            raise MeshError(f"{name} has dtype {dtype}; expected integer "
                            f"node indices")
    if mesh.regions.shape != (mesh.n_triangles,):
        raise MeshError(f"regions has shape {mesh.regions.shape}; expected "
                        f"({mesh.n_triangles},), one tag per triangle")
    if len(mesh.edge_tags) != len(mesh.edges):
        raise MeshError(f"{len(mesh.edge_tags)} edge tags for "
                        f"{len(mesh.edges)} edges")
    if not np.isfinite(mesh.nodes).all():
        finite = np.isfinite(mesh.nodes).all(axis=1)
        raise MeshError(f"node {int(np.argmin(finite))} has a non-finite "
                        "coordinate")
    if mesh.triangles.size and (mesh.triangles.min() < 0 or mesh.triangles.max() >= n):
        raise MeshError("triangle refers to a nonexistent node")
    if mesh.edges.size and (mesh.edges.min() < 0 or mesh.edges.max() >= n):
        raise MeshError("edge refers to a nonexistent node")
    used = np.zeros(n, dtype=bool)
    used[mesh.triangles.ravel()] = True
    if not used.all():
        raise MeshError(f"node {int(np.argmin(used))} belongs to no triangle")
    table = _edge_table(mesh)
    apart = np.flatnonzero(_pieces(n, table.keys))
    if len(apart):
        raise MeshError(f"the triangles form more than one piece: node "
                        f"{int(apart[0])} is not joined to node 0")
    if not np.all((mesh.regions == 1) | (mesh.regions == 2)):
        raise MeshError("region tags must be 1 or 2")
    unknown = set(mesh.edge_tags).difference(_KNOWN_TAGS)
    if unknown:
        tag = next(tag for tag in mesh.edge_tags if tag in unknown)
        raise MeshError(f"unknown edge tag {tag!r}")

    areas = mesh.triangle_areas()
    if np.any(areas <= 0.0):
        raise MeshError("triangle with non-positive signed area (nodes must be CCW)")

    keys = _edge_keys(mesh.edges, n)
    order = np.argsort(keys, kind="stable")
    repeats = order[np.diff(keys[order], prepend=-1) == 0]
    if len(repeats):
        key = divmod(int(keys[repeats.min()]), n)
        raise MeshError(f"edge {key} tagged more than once")

    at, found = _find(table.keys, keys)
    count = np.where(found, table.counts[at], 0)
    regs = mesh.regions[table.tris[at]]
    gamma = _tagged(mesh.edge_tags, (GAMMA,))
    wrong = ~found | np.where(gamma, (count != 2) | (regs[:, 0] == regs[:, 1]),
                              count != 1)
    if wrong.any():
        row = int(np.argmax(wrong))
        key = divmod(int(keys[row]), n)
        if not found[row]:
            raise MeshError(f"tagged edge {key} is not an edge of any "
                            "triangle")
        if not gamma[row]:
            raise MeshError(f"{mesh.edge_tags[row]} edge {key} must lie on "
                            "the boundary")
        if count[row] != 2:
            raise MeshError(f"gamma edge {key} must separate two triangles")
        raise MeshError(f"gamma edge {key} is interior to one region")

    # Past the checks above a tagged edge of two triangles is a gamma edge.
    tagged = np.zeros(len(table.keys), dtype=bool)
    tagged[at] = True
    regs = mesh.regions[table.tris]
    wrong = ((table.counts == 1) & ~tagged) | (table.counts > 2) | (
        (table.counts == 2) & (regs[:, 0] != regs[:, 1]) & ~tagged)
    if wrong.any():
        edge = np.flatnonzero(wrong)[np.argmin(table.first[wrong])]
        key = divmod(int(table.keys[edge]), n)
        if table.counts[edge] == 1:
            raise MeshError(f"untagged boundary edge {key}")
        if table.counts[edge] == 2:
            raise MeshError(f"region-change edge {key} not tagged gamma")
        raise MeshError(f"edge {key} shared by more than two triangles")

    iface = mesh.interface_edges
    outside = iface.size and (iface.min() < 0 or iface.max() >= n)
    if outside or not np.array_equal(np.sort(keys[gamma]),
                                     np.sort(_edge_keys(iface, n))):
        raise MeshError("interface_edges and gamma-tagged edges disagree")
    bad = _orientation_errors(mesh, table)
    if bad.any():
        i, j = iface[np.argmax(bad)]
        raise MeshError(f"gamma edge {i} -> {j} is misoriented: region 1 "
                        f"must lie on its left")
    return mesh


def _pieces(n, keys):
    """Per node, the smallest node index of its piece.

    A piece is a class of nodes joined through the edges whose ascending
    ``keys`` (``_edge_table``) are given, so two triangles that share
    only a vertex are one piece: that vertex ends edges of both.  Each
    node is first pointed at a smaller neighbour, if it has one.  Each
    round then replaces every label by its label's label until none
    changes (pointer jumping), so that each label is a node labelled by
    itself, and points the larger label of each edge whose ends still
    differ at the smaller one; an edge whose ends agree keeps them
    agreeing and is dropped.  Labels only decrease and stay nodes of
    their piece, so when no edge is left each piece is labelled by its
    smallest node: a few rounds of array operations over the edges.
    """
    lo, hi = np.divmod(keys, n)
    label = np.arange(n)
    label[hi] = lo
    while True:
        jumped = label[label]
        if not np.array_equal(jumped, label):
            label = jumped
            continue
        a, b = label[lo], label[hi]
        live = a != b
        if not live.any():
            return label
        lo, hi, a, b = lo[live], hi[live], a[live], b[live]
        label[np.maximum(a, b)] = np.minimum(a, b)


def _orientation_errors(mesh, edges):
    """True for each gamma edge whose stored orientation breaks the convention.

    For an edge stored as ``i -> j`` the normal n = rot90(tangent) must
    point from the region-2 triangle into the region-1 triangle; this is
    checked against the centroids of the two triangles that ``edges``, the
    ``_edge_table`` of the mesh, gives for the edge.  One flag per row of
    ``interface_edges``.
    """
    iface = mesh.interface_edges
    at, _ = _find(edges.keys, _edge_keys(iface, mesh.n_nodes))
    tris = edges.tris[at]
    start, end = np.take(mesh.nodes, iface.T, axis=0)
    tau = end - start
    mid = 0.5 * (start + end)
    corners = np.take(mesh.triangles, tris, axis=0)
    offset = np.take(mesh.nodes, corners, axis=0).mean(axis=2) - mid[:, None]
    side = -tau[:, None, 1] * offset[..., 0] + tau[:, None, 0] * offset[..., 1]
    reg = mesh.regions[tris]
    return np.any(((reg == 1) & (side < 0.0)) | ((reg == 2) & (side > 0.0)),
                  axis=1)


def generate_rect_slab(width, height, slab_x, nx, ny):
    """Structured triangulation of [0,width]x[0,height] with a vertical slab.

    Region 2 occupies x < slab_x, region 1 the rest; slab_x is snapped to
    the nearest grid line.  Each grid cell is split along its lower-left to
    upper-right diagonal.  The outer boundary is tagged gamma0 and the
    slab line gamma; there is no gammaprime part.

    Raises
    ------
    MeshError
        For non-positive dimensions, nx or ny < 2, or slab_x outside
        (0, width) after snapping.
    """
    if width <= 0.0 or height <= 0.0:
        raise MeshError("width and height must be positive")
    if nx < 2 or ny < 2:
        raise MeshError("nx and ny must be at least 2")
    if not (0.0 < slab_x < width):
        raise MeshError("slab_x must lie strictly inside (0, width)")
    js = int(round(slab_x / (width / nx)))
    if js <= 0 or js >= nx:
        raise MeshError("slab_x snaps onto the outer boundary; refine the grid")

    # Node (ix, iy) is nid[iy, ix]: rows of constant y, bottom to top.
    nid = np.arange((ny + 1) * (nx + 1)).reshape(ny + 1, nx + 1)
    xs = np.arange(nx + 1) * (width / nx)
    ys = np.arange(ny + 1) * (height / ny)
    nodes = np.column_stack((np.tile(xs, ny + 1), np.repeat(ys, nx + 1)))
    # Cell corners a b c d counterclockwise from the lower left; the
    # cell's two triangles (a, b, c) and (a, c, d) are stored in turn.
    a, b, c, d = nid[:-1, :-1], nid[:-1, 1:], nid[1:, 1:], nid[1:, :-1]
    triangles = np.stack((a, b, c, a, c, d), axis=-1).reshape(-1, 3)
    regions = np.tile(np.repeat(np.where(np.arange(nx) < js, 2, 1), 2), ny)
    # Bottom and top sides interleaved per column, then left and right per
    # row; interface edges run top -> bottom so that region 1
    # (x > slab_x) lies on the left of the tangent.
    horizontal = np.stack((nid[[0, ny], :-1], nid[[0, ny], 1:]), axis=-1)
    vertical = np.stack((nid[:-1, [0, nx]], nid[1:, [0, nx]]), axis=-1)
    interface = np.column_stack((nid[1:, js], nid[:-1, js]))
    edges = np.concatenate((horizontal.transpose(1, 0, 2).reshape(-1, 2),
                            vertical.reshape(-1, 2), interface))

    mesh = Mesh(
        nodes=nodes,
        triangles=triangles,
        regions=regions,
        edges=edges,
        edge_tags=(GAMMA0,) * (2 * nx + 2 * ny) + (GAMMA,) * ny,
        interface_edges=interface,
    )
    return validate(mesh)


def generate_homogeneous_rect(width, height, nx, ny, interface_x):
    """Rectangle meshed like generate_rect_slab with the interface retained.

    Intended for homogeneous-filling runs: the caller assigns equal
    permittivities downstream, and the interface line keeps the coupling
    matrix assembled so its decoupling invariants stay testable.
    """
    return generate_rect_slab(width, height, interface_x, nx, ny)


def save_mesh(mesh):
    """Serialise a mesh to the line-oriented text format."""
    out = io.StringIO()
    out.write(f"nodes {mesh.n_nodes}\n")
    for x, y in mesh.nodes:
        out.write(f"{x:.17g} {y:.17g}\n")
    out.write(f"triangles {mesh.n_triangles}\n")
    for (i, j, k), reg in zip(mesh.triangles, mesh.regions):
        out.write(f"{i} {j} {k} {reg}\n")
    out.write(f"edges {len(mesh.edges)}\n")
    for (i, j), tag in zip(mesh.edges, mesh.edge_tags):
        out.write(f"{i} {j} {tag}\n")
    return out.getvalue()


def _edge_row(parts):
    i, j = np.int64(parts[0]), np.int64(parts[1])
    if parts[2] not in _KNOWN_TAGS:
        raise MeshError(f"unknown edge tag {parts[2]!r}")
    return i, j, parts[2]


def load_mesh(text):
    """Parse the text format and validate every mesh invariant.

    Gamma edges keep their file ordering as the stored interface
    orientation.  Slits (gammaprime) arrive as duplicated node pairs; no
    geometric deduplication is attempted.
    """
    lines = text.splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines):
            stripped = lines[pos].strip()
            pos += 1
            if stripped and not stripped.startswith("#"):
                return pos, stripped
        return pos, None

    def section(keyword, row, what, convert):
        """The '<keyword> <count>' line, then count rows of fields ``row``."""
        lineno, line = next_line()
        parts = line.split() if line else []
        if len(parts) != 2 or parts[0] != keyword:
            raise MeshError(f"line {lineno}: expected '{keyword} <count>'")
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshError(f"line {lineno}: malformed count {parts[1]!r}") from None
        if count < 0:
            raise MeshError(f"line {lineno}: negative count")
        rows = []
        for _ in range(count):
            lineno, line = next_line()
            parts = line.split() if line else []
            if len(parts) != len(row.split()):
                raise MeshError(f"line {lineno}: expected '{row}'")
            # MeshError is a ValueError: a row the converter rejects by
            # name keeps its message, anything else is malformed (an
            # index beyond int64 overflows).
            try:
                rows.append(convert(parts))
            except MeshError as exc:
                raise MeshError(f"line {lineno}: {exc}") from None
            except (ValueError, OverflowError):
                raise MeshError(f"line {lineno}: malformed {what}") from None
        return rows

    nodes = section("nodes", "x y", "coordinate",
                    lambda p: [float(v) for v in p])
    cells = section("triangles", "i j k region", "triangle",
                    lambda p: [np.int64(v) for v in p])
    edge_rows = section("edges", "i j tag", "edge", _edge_row)
    _, extra = next_line()
    if extra is not None:
        raise MeshError("trailing content after edge list")

    cells = np.array(cells, dtype=int).reshape(-1, 4)
    edges = np.array([r[:2] for r in edge_rows], dtype=int).reshape(-1, 2)
    tags = tuple(r[2] for r in edge_rows)
    mesh = Mesh(
        nodes=np.array(nodes, dtype=float).reshape(-1, 2),
        triangles=cells[:, :3].copy(),
        regions=cells[:, 3].copy(),
        edges=edges,
        edge_tags=tags,
        interface_edges=edges[_tagged(tags, (GAMMA,))],
    )
    return validate(mesh)
