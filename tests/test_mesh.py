import dataclasses
import math

import numpy as np
import pytest

import wavepencil as wp
from wavepencil.mesh import (GAMMA, GAMMA0, GAMMA_PRIME, MeshError, load_mesh,
                             save_mesh)

from conftest import (build_slit_mesh_text, interface_node_mask,
                      two_slabs_text)

PI = math.pi


def interface_orientation_errors(mesh):
    """Gamma edges stored against the region-1-on-the-left convention."""
    bad = wp.mesh._orientation_errors(mesh, wp.mesh._edge_table(mesh))
    return mesh.interface_edges[bad].tolist()


def meshes_equal(a, b):
    """Node-for-node equality of two meshes."""
    return (
        np.array_equal(a.nodes, b.nodes)
        and np.array_equal(a.triangles, b.triangles)
        and np.array_equal(a.regions, b.regions)
        and np.array_equal(a.edges, b.edges)
        and a.edge_tags == b.edge_tags
        and np.array_equal(a.interface_edges, b.interface_edges)
    )


def test_generator_example_counts():
    m = wp.generate_rect_slab(PI, PI, PI / 2, 8, 8)
    assert m.n_nodes == 81
    assert len(m.interface_edges) == 8
    outer = [tag for tag in m.edge_tags if tag == GAMMA0]
    assert len(outer) == 4 * 8
    assert all(tag in (GAMMA0, GAMMA) for tag in m.edge_tags)


def test_generator_minimal_grid():
    m = wp.generate_rect_slab(PI, PI, PI / 2, 2, 2)
    assert len(m.interface_edges) == 2
    assert m.n_nodes == 9
    # nodes row by row from the bottom, x fastest
    h = PI / 2
    assert m.nodes.tolist() == [[0, 0], [h, 0], [PI, 0], [0, h], [h, h],
                                [PI, h], [0, PI], [h, PI], [PI, PI]]
    # cells row by row; each split as (a, b, c), (a, c, d) from the lower
    # left corner a, counterclockwise
    assert m.triangles.tolist() == [[0, 1, 4], [0, 4, 3], [1, 2, 5],
                                    [1, 5, 4], [3, 4, 7], [3, 7, 6],
                                    [4, 5, 8], [4, 8, 7]]
    assert m.regions.tolist() == [2, 2, 1, 1, 2, 2, 1, 1]
    # bottom/top sides interleaved per column, left/right per row, then
    # the interface column top -> bottom
    assert m.edges.tolist() == [[0, 1], [6, 7], [1, 2], [7, 8], [0, 3],
                                [2, 5], [3, 6], [5, 8], [4, 1], [7, 4]]
    assert m.edge_tags == (GAMMA0,) * 8 + (GAMMA,) * 2
    assert m.interface_edges.tolist() == [[4, 1], [7, 4]]
    assert (m.nodes.dtype, m.triangles.dtype, m.regions.dtype,
            m.edges.dtype) == (np.float64, np.int64, np.int64, np.int64)


@pytest.mark.parametrize("bad", [
    dict(width=PI, height=PI, slab_x=0.0, nx=4, ny=4),
    dict(width=1.0, height=1.0, slab_x=1.0, nx=4, ny=4),
    dict(width=1.0, height=1.0, slab_x=-0.2, nx=4, ny=4),
    dict(width=-1.0, height=1.0, slab_x=0.5, nx=4, ny=4),
    dict(width=1.0, height=0.0, slab_x=0.5, nx=4, ny=4),
    dict(width=1.0, height=1.0, slab_x=0.5, nx=1, ny=4),
    dict(width=1.0, height=1.0, slab_x=0.5, nx=4, ny=1),
])
def test_generator_rejects_bad_parameters(bad):
    with pytest.raises(MeshError):
        wp.generate_rect_slab(**bad)


def test_slab_snaps_to_nearest_grid_line():
    m = wp.generate_rect_slab(2.0, 1.0, 0.99, 4, 2)
    xs = {m.nodes[i][0] for e in m.interface_edges for i in e}
    assert xs == {1.0}


def test_homogeneous_rect_passthrough():
    a = wp.generate_homogeneous_rect(PI, 2 * PI, 4, 8, PI / 2)
    b = wp.generate_rect_slab(PI, 2 * PI, PI / 2, 4, 8)
    assert meshes_equal(a, b)
    with pytest.raises(MeshError):
        wp.generate_homogeneous_rect(PI, PI, 1, 1, PI / 2)


@pytest.mark.parametrize("nx,ny,w,h", [(2, 2, PI, PI), (4, 8, PI, 2 * PI),
                                       (5, 3, 1.0, 2.5)])
def test_area_sum_matches_rectangle(nx, ny, w, h):
    m = wp.generate_rect_slab(w, h, w / 2, nx, ny)
    areas = m.triangle_areas()
    assert np.all(areas > 0)
    assert abs(areas.sum() - w * h) <= 1e-12 * w * h


def test_refinement_quadruples_triangles():
    m1 = wp.generate_rect_slab(PI, PI, PI / 2, 4, 4)
    m2 = wp.generate_rect_slab(PI, PI, PI / 2, 8, 8)
    assert m2.n_triangles == 4 * m1.n_triangles


def test_interface_orientation_region_one_left():
    m = wp.generate_rect_slab(PI, PI, PI / 2, 6, 6)
    assert interface_orientation_errors(m) == []
    # flipping any edge must be detected by the centroid check
    flipped = m.interface_edges.copy()
    flipped[0] = flipped[0][::-1]
    bad = wp.Mesh(nodes=m.nodes.copy(), triangles=m.triangles.copy(),
                  regions=m.regions.copy(), edges=m.edges.copy(),
                  edge_tags=m.edge_tags, interface_edges=flipped)
    assert len(interface_orientation_errors(bad)) == 1


def test_save_load_round_trip():
    m = wp.generate_rect_slab(PI, PI, PI / 2, 2, 2)
    again = load_mesh(save_mesh(m))
    assert meshes_equal(m, again)


def test_load_rejects_malformed_counts():
    text = save_mesh(wp.generate_rect_slab(PI, PI, PI / 2, 2, 2))
    broken = text.replace("nodes 9", "nodes nine", 1)
    with pytest.raises(MeshError, match="line 1"):
        load_mesh(broken)


def _slab_text_with(line, new):
    """The 2x2 slab text with 1-based ``line`` replaced (None: dropped)."""
    lines = save_mesh(wp.generate_rect_slab(PI, PI, PI / 2, 2, 2)).splitlines()
    lines[line - 1:line] = [] if new is None else [new]
    return "\n".join(lines) + "\n"


# The 2x2 slab text: "nodes 9" on line 1, nodes on 2-10, "triangles 8" on
# 11, triangles on 12-19, "edges 10" on 20, edges on 21-30.
@pytest.mark.parametrize("line,new,message", [
    (3, "1.5707963267948966", "line 3: expected 'x y'"),
    (3, "1.5707963267948966 0 0", "line 3: expected 'x y'"),
    (3, "1.5707963267948966 zero", "line 3: malformed coordinate"),
    (12, "0 1 4", "line 12: expected 'i j k region'"),
    (12, "0 1 4 2 2", "line 12: expected 'i j k region'"),
    (12, "0 1 4 1.5", "line 12: malformed triangle"),
    (12, "0 one 4 2", "line 12: malformed triangle"),
    (12, "0 1 99999999999999999999 2", "line 12: malformed triangle"),
    (21, "0 1", "line 21: expected 'i j tag'"),
    (21, "0 1 gamma0 gamma0", "line 21: expected 'i j tag'"),
    (21, "0 x gamma0", "line 21: malformed edge"),
    (21, "0 1 wall", "line 21: unknown edge tag 'wall'"),
    (21, "x 1 wall", "line 21: malformed edge"),
    (21, "0 99999999999999999999 gamma0", "line 21: malformed edge"),
    (1, "nodes", "line 1: expected 'nodes <count>'"),
    (11, "tris 8", "line 11: expected 'triangles <count>'"),
    (20, "edges ten", "line 20: malformed count 'ten'"),
    (11, "triangles -1", "line 11: negative count"),
    (30, None, "line 29: expected 'i j tag'"),
    (20, None, "line 20: expected 'edges <count>'"),
    (11, "triangles 9", "line 20: expected 'i j k region'"),
    (30, "7 4 gamma\n0 0", "trailing content after edge list"),
])
def test_load_error_names_the_line(line, new, message):
    with pytest.raises(MeshError) as err:
        load_mesh(_slab_text_with(line, new))
    assert str(err.value) == message


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_load_rejects_non_finite_coordinate(value):
    # line 3 holds node 1; float() accepts each value
    with pytest.raises(MeshError) as err:
        load_mesh(_slab_text_with(3, f"{value} 0"))
    assert str(err.value) == "node 1 has a non-finite coordinate"


def test_load_error_line_numbers_count_comments_and_blanks():
    text = "# header\n\n" + _slab_text_with(21, "0 1 wall")
    with pytest.raises(MeshError) as err:
        load_mesh(text)
    assert str(err.value) == "line 23: unknown edge tag 'wall'"


def test_load_rejects_dangling_index():
    m = wp.generate_rect_slab(PI, PI, PI / 2, 2, 2)
    text = save_mesh(m)
    lines = text.splitlines()
    # first triangle line references a nonexistent node
    first_tri = 1 + m.n_nodes + 1
    parts = lines[first_tri].split()
    parts[0] = str(m.n_nodes + 5)
    lines[first_tri] = " ".join(parts)
    with pytest.raises(MeshError):
        load_mesh("\n".join(lines) + "\n")


def test_load_rejects_node_in_no_triangle():
    m = wp.generate_rect_slab(PI, PI, PI / 2, 2, 2)
    assert meshes_equal(load_mesh(save_mesh(m)), m)
    # the same slab behind an extra node 0 that no triangle uses: its mean
    # vector entry would be 0 and the zero-mean basis wrong
    orphaned = wp.Mesh(nodes=np.vstack([[PI / 4, PI / 4], m.nodes]),
                       triangles=m.triangles + 1, regions=m.regions.copy(),
                       edges=m.edges + 1, edge_tags=m.edge_tags,
                       interface_edges=m.interface_edges + 1)
    text = save_mesh(orphaned)
    assert text.startswith("nodes 10\n")
    with pytest.raises(MeshError, match="node 0 belongs to no triangle"):
        load_mesh(text)


def test_load_rejects_triangles_in_two_pieces():
    # the magnetic Gram block would keep one constant per piece, and the
    # zero-mean constraint removes only one of them
    text = two_slabs_text((PI + 1.0, 0.0))
    assert text.startswith("nodes 50\n")
    with pytest.raises(MeshError, match="more than one piece: node 25 "):
        load_mesh(text)
    # one shared vertex joins them: the second slab's lower-left corner
    # is the first's upper-right one
    m = load_mesh(two_slabs_text((PI, PI)))
    assert m.n_nodes == 49 and m.n_triangles == 64


def test_load_rejects_reversed_gamma_line():
    m = wp.generate_rect_slab(PI, PI, PI / 2, 4, 4)
    text = save_mesh(m)
    i, j = m.interface_edges[1]
    reversed_text = text.replace(f"{i} {j} gamma", f"{j} {i} gamma", 1)
    assert reversed_text != text
    with pytest.raises(MeshError, match=f"gamma edge {j} -> {i} is "
                                        "misoriented"):
        load_mesh(reversed_text)


def test_load_rejects_untagged_boundary_edge():
    m = wp.generate_rect_slab(PI, PI, PI / 2, 2, 2)
    text = save_mesh(m)
    lines = [ln for ln in text.splitlines() if not ln.startswith("0 1 gamma0")]
    lines = [ln.replace("edges 10", "edges 9") for ln in lines]
    with pytest.raises(MeshError, match="untagged boundary edge"):
        load_mesh("\n".join(lines) + "\n")


def test_load_rejects_interface_edge_inside_one_region():
    m = wp.generate_rect_slab(PI, PI, PI / 2, 2, 2)
    text = save_mesh(m)
    # move the interface column tag onto an edge interior to region 2
    text = text.replace("7 4 gamma", "3 4 gamma", 1)
    with pytest.raises(MeshError):
        load_mesh(text)


def test_slit_mesh_loads_and_has_duplicate(slit_mesh):
    assert slit_mesh.n_nodes == 26
    dup_coord = slit_mesh.nodes[25]
    assert np.allclose(dup_coord, [PI / 2, PI / 4])
    assert sum(1 for t in slit_mesh.edge_tags if t == GAMMA_PRIME) == 4
    assert sum(1 for t in slit_mesh.edge_tags if t == GAMMA) == 2


def test_slit_text_is_loadable_repeatedly():
    text = build_slit_mesh_text()
    m = load_mesh(text)
    assert meshes_equal(m, load_mesh(save_mesh(m)))


def test_node_masks_match_a_per_edge_loop(slit_mesh):
    boundary = np.zeros(slit_mesh.n_nodes, dtype=bool)
    for (i, j), tag in zip(slit_mesh.edges, slit_mesh.edge_tags):
        if tag in (GAMMA0, GAMMA_PRIME):
            boundary[[i, j]] = True
    interface = np.zeros(slit_mesh.n_nodes, dtype=bool)
    for i, j in slit_mesh.interface_edges:
        interface[[i, j]] = True
    assert np.array_equal(slit_mesh.boundary_node_mask(), boundary)
    assert np.array_equal(interface_node_mask(slit_mesh), interface)
    # the slit's four nodes are shielded; the open interface half is not
    assert boundary.sum() == 16 + 3 and interface.sum() == 3


# The 2x2 slab's edge rows and tags (test_generator_minimal_grid pins
# them); the cases below change one or two fields of that mesh and name
# the first offender in the order validate meets it.
SLAB_EDGES = [[0, 1], [6, 7], [1, 2], [7, 8], [0, 3], [2, 5], [3, 6], [5, 8],
              [4, 1], [7, 4]]
SLAB_TAGS = (GAMMA0,) * 8 + (GAMMA,) * 2


def _slab_with(**changes):
    """The 2x2 slab with the given fields replaced, not validated."""
    m = wp.generate_rect_slab(PI, PI, PI / 2, 2, 2)
    arrays = {k: np.array(v) if k != "edge_tags" else v
              for k, v in changes.items()}
    return dataclasses.replace(m, **arrays)


@pytest.mark.parametrize("changes,message", [
    (dict(nodes=[[0.0, 0.0, 0.0]] * 9),
     "nodes has shape (9, 3); expected (N, 2)"),
    (dict(nodes=np.zeros(18)), "nodes has shape (18,); expected (N, 2)"),
    (dict(triangles=[[0, 1]] * 8),
     "triangles has shape (8, 2); expected (M, 3)"),
    (dict(edges=[e + [0] for e in SLAB_EDGES]),
     "edges has shape (10, 3); expected (E, 2)"),
    (dict(interface_edges=[[4, 1, 7]]),
     "interface_edges has shape (1, 3); expected (K, 2)"),
    (dict(regions=[2, 2, 1, 1, 2, 2, 1]),
     "regions has shape (7,); expected (8,), one tag per triangle"),
    (dict(regions=[2, 2, 1, 1, 2, 2, 1, 1, 1]),
     "regions has shape (9,); expected (8,), one tag per triangle"),
    (dict(edge_tags=SLAB_TAGS + (GAMMA0,)), "11 edge tags for 10 edges"),
    (dict(edge_tags=SLAB_TAGS[:9]), "9 edge tags for 10 edges"),
])
def test_validate_rejects_misshapen_arrays(changes, message):
    with pytest.raises(MeshError) as err:
        wp.mesh.validate(_slab_with(**changes))
    assert str(err.value) == message


@pytest.mark.parametrize("changes,message", [
    # a dangling index in a triangle or an edge
    (dict(triangles=[[0, 1, 9], [0, 4, 3], [1, 2, 5], [1, 5, 4], [3, 4, 7],
                     [3, 7, 6], [4, 5, 8], [4, 8, 7]]),
     "triangle refers to a nonexistent node"),
    (dict(edges=SLAB_EDGES[:9] + [[7, -1]]),
     "edge refers to a nonexistent node"),
    (dict(regions=[2, 2, 1, 1, 3, 2, 1, 1]), "region tags must be 1 or 2"),
    (dict(triangles=[[0, 4, 1], [0, 4, 3], [1, 2, 5], [1, 5, 4], [3, 4, 7],
                     [3, 7, 6], [4, 5, 8], [4, 8, 7]]),
     "triangle with non-positive signed area (nodes must be CCW)"),
    # the first unknown tag in edge order
    (dict(edge_tags=(GAMMA0,) * 3 + ("wall", GAMMA0, "door") + (GAMMA0,) * 2
          + (GAMMA,) * 2), "unknown edge tag 'wall'"),
    # the first repeated edge in edge order, whichever way it runs:
    # (2, 5) repeats before (0, 1) does
    (dict(edges=SLAB_EDGES + [[5, 2], [1, 0]],
          edge_tags=SLAB_TAGS + (GAMMA0, GAMMA0)),
     "edge (2, 5) tagged more than once"),
    # tagged edges are checked in edge order, each against every rule
    # before the next edge: (2, 6) before (0, 5), (3, 4) before (0, 5)
    (dict(edges=SLAB_EDGES + [[6, 2], [0, 5]],
          edge_tags=SLAB_TAGS + (GAMMA0, GAMMA0)),
     "tagged edge (2, 6) is not an edge of any triangle"),
    (dict(edges=SLAB_EDGES + [[4, 3], [0, 5]],
          edge_tags=SLAB_TAGS + (GAMMA_PRIME, GAMMA0)),
     "gammaprime edge (3, 4) must lie on the boundary"),
    (dict(edge_tags=SLAB_TAGS[:8] + (GAMMA0, GAMMA)),
     "gamma0 edge (1, 4) must lie on the boundary"),
    (dict(edge_tags=(GAMMA0, GAMMA, GAMMA) + SLAB_TAGS[3:]),
     "gamma edge (6, 7) must separate two triangles"),
    (dict(edges=SLAB_EDGES[:8] + [[5, 4], [3, 4]]),
     "gamma edge (4, 5) is interior to one region"),
    # edges of the triangles are checked in the order the triangles
    # first meet them: (6, 7) in triangle 5 before (5, 8) in triangle 6
    (dict(edges=[e for e in SLAB_EDGES if e not in ([6, 7], [5, 8])],
          edge_tags=(GAMMA0,) * 6 + (GAMMA,) * 2),
     "untagged boundary edge (6, 7)"),
    # triangles in reverse: (4, 7) in the first triangle before (1, 4)
    (dict(triangles=[[4, 8, 7], [4, 5, 8], [3, 7, 6], [3, 4, 7], [1, 5, 4],
                     [1, 2, 5], [0, 4, 3], [0, 1, 4]],
          regions=[1, 1, 2, 2, 1, 1, 2, 2], edges=SLAB_EDGES[:8],
          edge_tags=SLAB_TAGS[:8], interface_edges=np.zeros((0, 2), int)),
     "region-change edge (4, 7) not tagged gamma"),
    # (1, 4) is met first (triangle 0) though (4, 7) is met twice before
    # (1, 4) is met again (triangle 3)
    (dict(triangles=[[0, 1, 4], [4, 8, 7], [3, 4, 7], [1, 5, 4], [0, 4, 3],
                     [1, 2, 5], [3, 7, 6], [4, 5, 8]],
          regions=[2, 1, 2, 1, 2, 1, 2, 1], edges=SLAB_EDGES[:8],
          edge_tags=SLAB_TAGS[:8], interface_edges=np.zeros((0, 2), int)),
     "region-change edge (1, 4) not tagged gamma"),
    (dict(nodes=[[x, y] for y in (0.0, PI / 2, PI) for x in (0.0, PI / 2, PI)]
          + [[0.0, PI / 4]],
          triangles=[[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4], [3, 4, 7],
                     [3, 7, 6], [4, 5, 8], [4, 8, 7], [0, 4, 9]],
          regions=[2, 2, 1, 1, 2, 2, 1, 1, 2]),
     "edge (0, 4) shared by more than two triangles"),
    (dict(interface_edges=[[4, 1]]),
     "interface_edges and gamma-tagged edges disagree"),
    (dict(interface_edges=[[4, 1], [7, 4], [8, 5]]),
     "interface_edges and gamma-tagged edges disagree"),
    # the first misoriented edge in interface order
    (dict(interface_edges=[[4, 7], [1, 4]]),
     "gamma edge 4 -> 7 is misoriented: region 1 must lie on its left"),
])
def test_validate_names_the_first_offender(changes, message):
    with pytest.raises(MeshError) as err:
        wp.mesh.validate(_slab_with(**changes))
    assert str(err.value) == message


def test_validate_rejects_a_repeated_interface_edge():
    # the interface rows must be the gamma edges one to one
    assert wp.mesh.validate(_slab_with(interface_edges=[[7, 4], [4, 1]]))
    with pytest.raises(MeshError) as err:
        wp.mesh.validate(_slab_with(interface_edges=[[4, 1], [7, 4], [4, 1]]))
    assert str(err.value) == "interface_edges and gamma-tagged edges disagree"


@pytest.mark.parametrize("name", ["triangles", "edges", "interface_edges"])
def test_validate_rejects_non_integer_indices(name):
    m = wp.generate_rect_slab(PI, PI, PI / 2, 2, 2)
    floats = getattr(m, name).astype(float)
    with pytest.raises(MeshError) as err:
        wp.mesh.validate(dataclasses.replace(m, **{name: floats}))
    assert str(err.value) == (f"{name} has dtype float64; expected integer "
                              f"node indices")


def _edge_table_by_stacking(mesh):
    """The edge table from stacked (i, j) half-edge pairs and _edge_keys."""
    tri = mesh.triangles
    half = np.stack((tri, np.roll(tri, -1, axis=1)), axis=-1).reshape(-1, 2)
    keys = wp.mesh._edge_keys(half, mesh.n_nodes)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    counts = np.diff(starts, append=len(keys))
    first = order[starts]
    second = np.where(counts > 1,
                      order[np.minimum(starts + 1, len(keys) - 1)], first)
    return (ranked[starts], counts, first,
            np.column_stack((first // 3, second // 3)))


def _pieces_over_corners(n, triangles):
    """Piece labels from every triangle's corners, one jump per round."""
    label = np.arange(n)
    while True:
        labels = label[triangles]
        low = labels.min(axis=1)
        if np.all(labels == low[:, None]):
            return label
        np.minimum.at(label, triangles.ravel(), np.repeat(low, 3))
        label = label[label]


@pytest.mark.parametrize("case", ["slab", "slit", "homog"])
def test_edge_table_matches_the_stacked_half_edges(case, slab_mesh,
                                                   slit_mesh, homog_mesh):
    mesh = {"slab": slab_mesh, "slit": slit_mesh, "homog": homog_mesh}[case]
    table = wp.mesh._edge_table(mesh)
    for name, ref in zip(table._fields, _edge_table_by_stacking(mesh)):
        got = getattr(table, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    # each mesh is one piece, labelled by node 0
    labels = wp.mesh._pieces(mesh.n_nodes, table.keys)
    assert np.array_equal(labels, np.zeros(mesh.n_nodes, dtype=int))


def test_piece_labels_match_the_corner_propagation():
    # triangle soups over few nodes: repeated and degenerate triangles,
    # edges of three or more triangles, nodes in none and several pieces
    rng = np.random.default_rng(7)
    pieces = set()
    for _ in range(300):
        n = int(rng.integers(1, 40))
        triangles = rng.integers(0, n, size=(int(rng.integers(0, 20)), 3))
        soup = wp.Mesh(nodes=np.zeros((n, 2)), triangles=triangles,
                       regions=np.ones(len(triangles), dtype=int),
                       edges=np.zeros((0, 2), dtype=int), edge_tags=())
        for name, ref in zip(wp.mesh._Edges._fields,
                             _edge_table_by_stacking(soup)):
            assert np.array_equal(getattr(wp.mesh._edge_table(soup), name),
                                  ref), name
        labels = wp.mesh._pieces(n, wp.mesh._edge_table(soup).keys)
        assert np.array_equal(labels, _pieces_over_corners(n, triangles))
        pieces.add(len(np.unique(labels)))
    assert max(pieces) > 10


def test_triangles_sharing_one_vertex_are_one_piece():
    # a bow tie: the two triangles meet only at node 2
    m = wp.Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                [2.0, 1.0], [2.0, 2.0]]),
                triangles=np.array([[0, 1, 2], [2, 3, 4]]),
                regions=np.array([1, 1]),
                edges=np.array([[0, 1], [1, 2], [2, 0], [2, 3], [3, 4],
                                [4, 2]]),
                edge_tags=(GAMMA0,) * 6)
    assert wp.mesh.validate(m) is m
    labels = wp.mesh._pieces(m.n_nodes, wp.mesh._edge_table(m).keys)
    assert labels.tolist() == [0] * 5
    # without the shared node the second triangle is a piece of its own
    apart = dataclasses.replace(
        m, nodes=np.vstack([m.nodes, [[1.5, 1.0]]]),
        triangles=np.array([[0, 1, 2], [5, 3, 4]]),
        edges=np.array([[0, 1], [1, 2], [2, 0], [5, 3], [3, 4], [4, 5]]))
    with pytest.raises(MeshError) as err:
        wp.mesh.validate(apart)
    assert str(err.value) == ("the triangles form more than one piece: node 3 "
                              "is not joined to node 0")


def test_triangle_areas_are_formed_once_per_mesh():
    m = wp.generate_rect_slab(PI, PI, 1.0, 6, 5)
    areas = m.triangle_areas()
    assert m.triangle_areas() is areas
    assert not areas.flags.writeable
    p = m.nodes[m.triangles]
    v1, v2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    ref = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    assert areas.dtype == ref.dtype and areas.tobytes() == ref.tobytes()
    # the assembly kernels and the mean vector read the same array
    assert wp.assembly_kernels.triangle_geometry(m)[0] is areas
    mean = np.bincount(m.triangles.ravel(), weights=np.repeat(ref / 3.0, 3))
    assert wp.build_spaces(m).mean_vector.tobytes() == mean.tobytes()
    # a replaced mesh with moved nodes gets areas of its own
    moved = dataclasses.replace(m, nodes=m.nodes * [2.0, 0.5])
    assert moved.triangle_areas() is not areas
    assert np.array_equal(moved.triangle_areas(), areas)
    skewed = dataclasses.replace(m, nodes=m.nodes * [2.0, 1.0])
    assert np.array_equal(skewed.triangle_areas(), 2.0 * areas)


def test_meshes_compare_and_hash_by_identity():
    # two equal meshes: == is identity, and neither raises on comparing
    # or hashing numpy fields
    a, b = (wp.generate_rect_slab(PI, PI, 1, 4, 4) for _ in range(2))
    assert meshes_equal(a, b)
    assert not a == b
    assert a != b
    assert a == a and b == b
    both = {a, b}
    assert len(both) == 2 and a in both and b in both
