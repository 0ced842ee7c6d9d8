"""The geometry core of `lattice`: the array-built domain against a
construction one vertex at a time, and the breadth-first search that
`lattice`, `exact` and `sholo` share."""

import itertools

import numpy as np
import pytest

from conftest import bulk_corners, square
from isinglab.exact import EnumerationError, fermion_multipoint
from isinglab.lattice import (
    AXIS_STEPS, DIAG_STEPS, FREE, WIRED, MeshDomain, bfs, bfs_path,
    build_annulus, build_rectangle, crossing_edge, edge_key, make_cover,
    neighbors_in,
)


def reference(vertices, specs):
    """The domain's geometry built one vertex and one edge at a time:
    the sets, the side table, the oriented boundary loops and the labels."""
    verts = set(vertices)
    ref = {"vertices": verts, "interior_edges": set(), "crossing_edges": set(),
           "duals": {(v[0] + s[0], v[1] + s[1])
                     for v in verts for s in AXIS_STEPS}}
    sides = {}
    for v in verts:
        for s in DIAG_STEPS:
            w = (v[0] + s[0], v[1] + s[1])
            if w in verts:
                ref["interior_edges"].add(edge_key(v, w))
            else:
                ref["crossing_edges"].add(edge_key(v, w))
                sides[crossing_edge(edge_key(v, w))] = (v, w)
    # trace each loop edge by edge, oriented with the domain on the left,
    # and rotate it to start at its least dual vertex
    incid = {}
    for de in sides:
        for u in de:
            incid.setdefault(u, []).append(de)
    unused = set(sides)
    loops = []
    while unused:
        start = min(unused)
        unused.discard(start)
        (u0, u1), p_in = start, sides[start][0]
        if ((u1[0] - u0[0]) * (p_in[1] - u0[1])
                - (u1[1] - u0[1]) * (p_in[0] - u0[0])) < 0:
            u0, u1 = u1, u0
        loop, prev, cur = [u0], u0, u1
        while cur != u0:
            loop.append(cur)
            (nxt,) = [de for de in incid[cur] if de != edge_key(prev, cur)]
            unused.discard(nxt)
            prev, cur = cur, nxt[1] if nxt[0] == cur else nxt[0]
        k = loop.index(min(loop))
        loops.append(loop[k:] + loop[:k])
    loops.sort(key=lambda lp: (-len(lp), lp[0]))
    labels = {}
    for loop, spec in zip(loops, specs):
        runs = [(spec, len(loop))] if isinstance(spec, str) else spec
        seq = [lab for lab, n in runs for _ in range(n)]
        for i, lab in enumerate(seq):
            labels[edge_key(loop[i], loop[(i + 1) % len(loop)])] = lab
    wired = [de for de, lab in labels.items() if lab == WIRED]
    ref["corners"] = {(v[0] + s[0] // 2, v[1] + s[1] // 2)
                      for v in verts for s in AXIS_STEPS}
    ref["corners"] |= {((sides[de][1][0] + u[0]) // 2,
                        (sides[de][1][1] + u[1]) // 2)
                       for de in wired for u in de}
    ref["shol_edges"] = ref["interior_edges"] | {
        edge_key(*sides[de]) for de in wired}
    ref["sides"] = dict(sorted(sides.items(),
                               key=lambda item: edge_key(*item[1])))
    ref["boundary_loops"] = loops
    ref["edge_label"] = labels
    return ref


def assert_matches_reference(dom, specs):
    ref = reference(dom.vertices, specs)
    for name in ("vertices", "duals", "interior_edges", "crossing_edges",
                 "corners", "shol_edges", "boundary_loops", "edge_label"):
        assert getattr(dom, name) == ref[name], name
    # the side table, in sorted crossing-edge order
    assert list(dom.sides.items()) == list(ref["sides"].items())
    # the arrays hold the same geometry in sorted order
    verts = sorted(ref["vertices"])
    assert [tuple(v) for v in dom.vertex_xy.tolist()] == verts
    assert dom.vertex_index == {v: i for i, v in enumerate(verts)}
    assert [(verts[i], verts[j]) for i, j in dom.interior_pairs.tolist()] \
        == sorted(ref["interior_edges"])
    assert [tuple(c) for c in dom.corner_xy.tolist()] \
        == sorted(ref["corners"])
    assert [(tuple(a), tuple(b)) for a, b in dom.shol_edge_xy.tolist()] \
        == sorted(ref["shol_edges"])
    # a set of pairs and a sorted integer array build the same domain
    from_set = MeshDomain(dom.delta, ref["vertices"], specs)
    from_array = MeshDomain(dom.delta, np.array(verts), specs)
    for name in ("vertices", "vertex_index", "duals", "interior_edges",
                 "crossing_edges", "corners", "shol_edges", "boundary_loops",
                 "edge_label"):
        assert getattr(from_array, name) == getattr(from_set, name), name
    assert list(from_array.sides.items()) == list(from_set.sides.items())
    for name in ("vertex_xy", "interior_pairs", "corner_xy", "shol_edge_xy"):
        assert np.array_equal(getattr(from_array, name),
                              getattr(from_set, name)), name


def _loop_length(vertices, k=0):
    return len(MeshDomain(1.0, vertices).boundary_loops[k])


@pytest.mark.parametrize("w,h,runs", [
    (2, 2, lambda L: WIRED),
    (4, 3, lambda L: [(WIRED, 4), (FREE, 4), (WIRED, L - 8)]),
    (5, 5, lambda L: [(FREE, 3), (WIRED, 1), (FREE, L - 4)]),
    (6, 4, lambda L: [(FREE, 7), (WIRED, 5), (FREE, 2), (WIRED, L - 14)]),
    (3, 7, lambda L: FREE),
])
def test_rectangles_match_the_reference(w, h, runs):
    L = _loop_length(build_rectangle(1.0, w, h).vertices)
    spec = runs(L)
    assert_matches_reference(build_rectangle(1.0, w, h, spec), [spec])


@pytest.mark.parametrize("outer,inner",
                         list(itertools.product((WIRED, FREE), repeat=2)))
def test_annuli_match_the_reference(outer, inner):
    dom = build_annulus(1.0, 6.0, 3.0, outer, inner)
    assert len(dom.boundary_loops) == 2
    assert_matches_reference(dom, [outer, inner])


def test_square_with_a_hole_matches_the_reference():
    verts = square(8) - square(2)
    L = _loop_length(verts)
    for specs in ([WIRED, FREE], [FREE, WIRED],
                  [[(WIRED, 5), (FREE, 9), (WIRED, L - 14)], FREE]):
        assert_matches_reference(MeshDomain(1.0, verts, specs), specs)


def test_json_round_trip_matches_the_reference():
    L = _loop_length(square(8) - square(2))
    specs = [[(FREE, 6), (WIRED, L - 6)], [(WIRED, 4), (FREE, 8)]]
    dom = MeshDomain(1.0, square(8) - square(2), specs)
    back = MeshDomain.from_json(dom.to_json())
    assert_matches_reference(back, specs)
    assert back.to_json() == dom.to_json()
    dom = build_annulus(1.0, 6.0, 3.0, FREE, WIRED)
    back = MeshDomain.from_json(dom.to_json())
    assert_matches_reference(back, [FREE, WIRED])
    assert back.to_json() == dom.to_json()


@pytest.mark.parametrize("verts,message", [
    ({(0, 0), (2, 0)}, r"not a primal vertex: \(2, 0\)"),
    ({(0, 0), (1, 1)}, r"not a primal vertex: \(1, 1\)"),
    ({(0, 0), (1 << 20, 0)}, "beyond"),
    ({(0, 0), (0, -(1 << 20))}, "beyond"),
    # a float coordinate is refused, not truncated to the grid
    ({(0.4, 0.0), (2, 2), (4, 0), (2, -2)}, "not integers"),
    (np.array([(0, 0), (2, 2), (0, 0)]), r"repeated vertex: \(0, 0\)"),
    (np.zeros((2, 3), dtype=int), r"shape \(2, 3\)"),
    (np.zeros((0, 2), dtype=int), "empty"),
])
def test_vertices_off_the_grid_or_out_of_code_range_are_refused(verts,
                                                                message):
    with pytest.raises(ValueError, match=message):
        MeshDomain(1.0, verts)


# -- the graph search ------------------------------------------------------


def _plane(c):
    return [(c[0] + s[0], c[1] + s[1]) for s in DIAG_STEPS]


def test_bfs_parent_map_in_discovery_order():
    parents = bfs((0, 0), lambda c: neighbors_in(c, DIAG_STEPS, square(2)))
    # the start, its neighbours in step order, then theirs, first in first out
    assert list(parents.items())[:5] == [
        ((0, 0), None), ((2, 2), (0, 0)), ((2, -2), (0, 0)),
        ((-2, 2), (0, 0)), ((-2, -2), (0, 0))]
    assert set(parents) == square(2)


def test_bfs_path_is_shortest():
    dom = build_rectangle(1.0, 5, 4)
    # lattice coordinates (0, 0) and (4, 3), at (2(m - n), 2(m + n))
    a, b = (0, 0), (2, 14)
    path = bfs_path(a, lambda c: neighbors_in(c, DIAG_STEPS, dom.vertices),
                    lambda c: c == b)
    assert path[0] == a and path[-1] == b
    assert len(path) == 4 + 3 + 1
    assert all(edge_key(x, y) in dom.interior_edges
               for x, y in zip(path, path[1:]))


def test_bfs_path_ties_go_to_the_first_neighbour():
    goal = (4, 0)      # two shortest paths, through (2, 2) and (2, -2)
    assert bfs_path((0, 0), _plane, lambda c: c == goal) == \
        [(0, 0), (2, 2), (4, 0)]
    assert bfs_path((0, 0), lambda c: _plane(c)[::-1],
                    lambda c: c == goal) == [(0, 0), (2, -2), (4, 0)]
    # the goal test picks the first node dequeued that meets it
    assert bfs_path((0, 0), _plane, lambda c: c[0] == 2) == [(0, 0), (2, 2)]


def test_bfs_path_unreachable_is_none():
    assert bfs_path((0, 0), lambda c: neighbors_in(c, DIAG_STEPS, square(2)),
                    lambda c: c == (8, 0)) is None


def _two_blocks():
    """Two 3 x 3 blocks with no edge between them."""
    block = build_rectangle(1.0, 3, 3).vertices
    return MeshDomain(1.0, block | {(x + 40, y) for x, y in block})


def test_unreachable_goal_is_each_callers_error():
    dom = _two_blocks()
    left = min(dom.vertices)
    right = max(dom.vertices)
    with pytest.raises(ValueError, match="no path"):
        make_cover(dom, [left, right])
    corners = bulk_corners(dom)
    with pytest.raises(EnumerationError, match="no corner path"):
        fermion_multipoint(dom, make_cover(dom, []), [corners[0], corners[-1]])
