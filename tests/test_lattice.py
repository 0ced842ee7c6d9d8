import math
import random
import re

import numpy as np
import pytest

from isinglab.exact import Enumeration
from isinglab.lattice import (
    AXIS_STEPS, CORNER_STEPS, CornerPoint, MeshDomain, PMBoundarySpec,
    base_phase, base_phases, bfs_path, build_annulus, build_rectangle,
    corner_neighbors, corner_phase, edge_key, make_cover, neighbors_in, FREE,
    WIRED, reduce_mod2,
)


def test_smallest_rectangle():
    d = build_rectangle(1.0, 2, 2)
    assert len(d.vertices) == 4
    faces = sum(1 for u in d.duals
                if all((u[0] + s[0], u[1] + s[1]) in d.vertices
                       for s in AXIS_STEPS))
    assert faces == 1
    assert [len(l) for l in d.boundary_loops] == [8]


def test_arc_spec_alternation():
    d = build_rectangle(1.0, 3, 3, [(WIRED, 5), (FREE, 3), (WIRED, 4)])
    labels = set(d.edge_label.values())
    assert labels == {WIRED, FREE}
    assert [len(a) for a in d.free_arcs()] == [3]


def test_arc_spec_gaps_rejected():
    with pytest.raises(ValueError):
        build_rectangle(1.0, 3, 3, [(WIRED, 5)])
    with pytest.raises(ValueError):
        build_rectangle(1.0, 1, 3)


def test_counts_by_direct_construction():
    d = build_rectangle(0.5, 8, 8)
    assert len(d.vertices) == 64
    # every corner has exactly one primal and one dual neighbour
    for c in sorted(d.corners)[::7]:
        p, u = corner_neighbors(c)
        assert p in d.vertices or p not in d.duals
        assert (u[0] + u[1]) % 4 == 2
    # corner census: four per vertex plus two per wired crossing edge
    assert len(d.corners) == 4 * len(d.vertices) + 2 * len(d.crossing_edges)
    # stencil incidence: interior corners sit in two stencils, outer in one
    assert 4 * len(d.shol_edges) == 2 * (4 * len(d.vertices)) + 2 * len(
        d.crossing_edges)


def test_annulus_topology_and_modulus():
    a = build_annulus(1.0, 20, 10)
    assert len(a.boundary_loops) == 2
    assert a.euler_characteristic() == 0
    assert a.modulus == pytest.approx(math.log(2.0))
    a2 = build_annulus(0.25, 16, 8)
    assert a2.modulus == pytest.approx(math.log(2.0))
    assert len(a2.vertices) > len(a.vertices)


def test_make_cover_trivial_and_adjacent():
    d = build_rectangle(1.0, 4, 4)
    cov = make_cover(d, [])
    assert not cov.cut
    us = sorted(d.duals)
    u1 = next(u for u in us if all(
        (u[0] + s[0], u[1] + s[1]) in d.vertices for s in AXIS_STEPS))
    u2 = (u1[0] + 2, u1[1] + 2)
    if u2 in d.duals:
        cov2 = make_cover(d, [u1, u2])
        assert cov2.cut == frozenset({edge_key(u1, u2)})


def test_make_cover_parity_scan():
    d = build_rectangle(1.0, 5, 5)
    rng = random.Random(0)
    duals = sorted(d.duals)
    for _ in range(100):
        pts = rng.sample(duals, 4)
        cov = make_cover(d, pts)
        want = set(reduce_mod2(pts))
        assert cov.boundary_mod2("dual") & set(d.duals) == want


def test_make_cover_outside_rejected():
    d = build_rectangle(1.0, 3, 3)
    with pytest.raises(ValueError):
        make_cover(d, [(998, 998)])
    # a corner and an edge midpoint are named, not dropped
    for point in ((1, 0), (3, 3)):
        with pytest.raises(ValueError, match=re.escape(f"face: {point}")):
            make_cover(d, [point, (2, 2)])


def test_path_sign_loops():
    """A small corner loop about a face has the spinor's monodromy -1,
    times -1 for the one cut crossing when the face is ramified."""
    d = build_rectangle(1.0, 5, 5)
    duals = sorted(d.duals)
    inner = [u for u in duals if all(
        (u[0] + s[0], u[1] + s[1]) in d.vertices for s in AXIS_STEPS)]
    u1, u2 = inner[0], inner[-1]
    cov = make_cover(d, [u1, u2])

    def small_loop(u):
        return [(u[0] + 1, u[1]), (u[0], u[1] + 1), (u[0] - 1, u[1]),
                (u[0], u[1] - 1), (u[0] + 1, u[1])]

    assert cov.path_sign(small_loop(u1)) == 1
    far = next(u for u in inner if u not in (u1, u2))
    assert cov.path_sign(small_loop(far)) == -1
    # concatenation multiplies signs
    a, b = small_loop(u1), small_loop(far)
    ab = bfs_path(a[-1], lambda c: neighbors_in(c, CORNER_STEPS, d.corners),
                  lambda c: c == b[0])
    for p, q in ((a, a), (b, b), (a, ab), (ab, b)):
        assert cov.path_sign(p[:-1] + q) == (cov.path_sign(p)
                                             * cov.path_sign(q))
    for bad in ([(1, 0), (3, 0)], [(0, 0), (1, 1)], [(1, 0), (1, 0)]):
        with pytest.raises(ValueError, match="not a corner step"):
            cov.path_sign(bad)


def test_corner_phase_table_and_sheet():
    c = CornerPoint((1, 0))  # dual to the east
    assert corner_phase(c) == pytest.approx(
        complex(math.sqrt(0.5), math.sqrt(0.5)))
    assert corner_phase(c.flipped()) == -corner_phase(c)
    n = CornerPoint((0, 1))  # dual to the north
    assert corner_phase(n) == 1
    # eta^4 = (i delta (dual-primal)^-1)^2 exactly via the phase index
    for pos in ((1, 0), (0, 1), (-1, 0), (0, -1), (3, 2)):
        cp = CornerPoint(pos)
        k = cp.phase_index
        p, u = corner_neighbors(pos)
        horizontal = (u[0] - p[0]) != 0
        assert (4 * k) % 8 == (4 if horizontal else 0)


def test_base_phases_match_base_phase():
    corners = [(x, y) for x in range(-9, 10) for y in range(-9, 10)
               if (x + y) % 2]
    want = [base_phase(c) for c in corners]
    assert want == [corner_phase(CornerPoint(c)) for c in corners]
    assert base_phases(np.array(corners)).tolist() == want


def test_json_roundtrip():
    d = build_rectangle(1.0, 4, 3, [(WIRED, 4), (FREE, 4), (WIRED, 6)])
    d2 = MeshDomain.from_json(d.to_json())
    assert d2.vertices == d.vertices
    assert d2.edge_label == d.edge_label


def test_pm_spec_separation_points():
    """A plus/minus split of the loop: in the locally monochromatic
    ensemble every outer spin is one loop bit, whose sign changes exactly
    twice around the loop."""
    d = build_rectangle(1.0, 4, 4)
    edges = d.loop_edges(d.boundary_loops[0])
    L = len(edges)
    pm = PMBoundarySpec([[("plus", L // 2), ("minus", L - L // 2)]])
    exprs = Enumeration(d, pm, mono=True).exprs
    outer = [exprs[d.sides[edge_key(*oe)][1]] for oe in edges]
    assert {ex.var for ex in outer} == {len(d.vertices)}
    signs = [ex.coef for ex in outer]
    assert signs == [1] * (L // 2) + [-1] * (L - L // 2)
    assert sum(signs[i] != signs[i - 1] for i in range(L)) == 2
