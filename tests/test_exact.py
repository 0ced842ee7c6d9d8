import itertools
import math

import pytest

from conftest import bulk_corners
from isinglab.exact import (
    BETA_CRIT, MAX_FRONTIER, Enumeration, EnumerationError, MixedContent,
    corr_disorder_spin, corr_energy, corr_mixed, corr_pm, corr_spin,
    fermion_field, fermion_multipoint, obs_fermion, partition_function,
)
from isinglab.lattice import (
    DIAG_STEPS, CornerPoint, MeshDomain, PMBoundarySpec, base_phase,
    bfs_path, build_rectangle, corner_phase, edge_key, inner_corner,
    make_cover, neighbors_in, transport_side, FREE, WIRED,
)
from isinglab.sholo import boundary_pairs, stencil_signs


def test_single_spin_partition_function():
    dom = MeshDomain(1.0, {(0, 0)})
    pm = PMBoundarySpec([[("plus", 4)]])
    z = partition_function(dom, pm)
    assert z == pytest.approx(math.exp(4 * BETA_CRIT) + math.exp(-4 * BETA_CRIT),
                              rel=1e-14)
    pm_minus = PMBoundarySpec([[("minus", 4)]])
    assert partition_function(dom, pm_minus) == pytest.approx(z, rel=1e-14)


def test_partition_function_transfer_matrix_oracle():
    """Row-by-row transfer matrix on the 3x3 block with a monochromatic
    boundary, written independently of the enumeration machinery."""
    dom = build_rectangle(1.0, 3, 3)
    got = partition_function(dom)
    total = 0.0
    rows = list(itertools.product((1, -1), repeat=3))
    for sb in (1, -1):
        # boundary couplings per row position
        def row_weight(r):
            e = r[0] * r[1] + r[1] * r[2]
            return e

        def edge_count_to_boundary(m, n):
            inside = sum(1 for dm, dn in ((1, 0), (-1, 0), (0, 1), (0, -1))
                         if 0 <= m + dm < 3 and 0 <= n + dn < 3)
            return 4 - inside

        z = 0.0
        for r0 in rows:
            for r1 in rows:
                for r2 in rows:
                    grid = (r0, r1, r2)
                    e = 0.0
                    for n in range(3):
                        e += grid[n][0] * grid[n][1] + grid[n][1] * grid[n][2]
                    for n in range(2):
                        e += sum(grid[n][m] * grid[n + 1][m] for m in range(3))
                    for n in range(3):
                        for m in range(3):
                            e += grid[n][m] * sb * edge_count_to_boundary(m, n)
                    z += math.exp(BETA_CRIT * e)
        total += z
    assert got == pytest.approx(total, rel=1e-12)


def test_corr_spin_parity_and_square():
    dom = build_rectangle(1.0, 3, 3)
    vs = sorted(dom.vertices)
    assert corr_spin(dom, [vs[0]]) == 0.0
    assert corr_spin(dom, [vs[0], vs[0], vs[1], vs[2]]) == pytest.approx(
        corr_spin(dom, [vs[1], vs[2]]), rel=1e-13)


def test_adjacent_spin_trend_to_thermodynamic_value():
    vals = []
    for n in (2, 3, 4):
        dom = build_rectangle(1.0, n, n)
        e = sorted(dom.interior_edges)[len(dom.interior_edges) // 2]
        vals.append(corr_spin(dom, list(e)))
    assert vals[0] > vals[1] > vals[2] > 1 / math.sqrt(2)


def test_disorder_reductions_and_homology():
    dom = build_rectangle(1.0, 4, 4)
    vs = sorted(dom.vertices)
    pair = [vs[5], vs[10]]
    assert corr_disorder_spin(dom, [], pair) == pytest.approx(
        corr_spin(dom, pair), rel=1e-13)
    # two homologous cuts: same boundary, differ by a contractible square
    us = sorted(u for u in dom.duals
                if all((u[0] + s[0], u[1] + s[1]) in dom.vertices
                       for s in ((2, 0), (0, 2), (-2, 0), (0, -2))))
    u1 = us[0]
    u2 = (u1[0] + 2, u1[1] + 2)
    u3 = (u1[0] + 4, u1[1])
    assert u2 in dom.duals and u3 in dom.duals
    cut_a = [edge_key(u1, u2), edge_key(u2, u3)]
    u2b = (u1[0] + 2, u1[1] - 2)
    cut_b = [edge_key(u1, u2b), edge_key(u2b, u3)]
    va = corr_disorder_spin(dom, cut_a, [])
    vb = corr_disorder_spin(dom, cut_b, [])
    assert va == pytest.approx(vb, rel=1e-12)
    # with the enclosed spin the two cuts differ exactly by the sign
    enclosed = ((u1[0] + u3[0]) // 2, u1[1])
    assert enclosed in dom.vertices
    far = vs[0] if vs[0] != enclosed else vs[1]
    va = corr_disorder_spin(dom, cut_a, [enclosed, far])
    vb = corr_disorder_spin(dom, cut_b, [enclosed, far])
    assert va == pytest.approx(-vb, rel=1e-12)


def test_energy_single_spin_closed_form():
    dom = MeshDomain(1.0, {(0, 0)})
    pm = PMBoundarySpec([[("plus", 4)]])
    e = sorted(dom.crossing_edges)[0]
    m = math.tanh(4 * BETA_CRIT)
    want = math.sqrt(2.0) * (m - 1 / math.sqrt(2.0))
    assert corr_energy(dom, [e], pm=pm) == pytest.approx(want, rel=1e-13)


def test_energy_square_identity():
    dom = build_rectangle(1.0, 3, 3)
    e = sorted(dom.interior_edges)[5]
    lhs = corr_energy(dom, [e, e])
    rhs = 3 - 2 * math.sqrt(2.0) * corr_spin(dom, list(e))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_energy_rejects_free_arc_edges():
    dom = build_rectangle(1.0, 3, 3, [(FREE, 3), (WIRED, 9)])
    bad = next(e for e in dom.crossing_edges
               if e not in dom.shol_edges)
    with pytest.raises(EnumerationError):
        corr_energy(dom, [bad])


def test_corr_pm_routes_and_symmetries():
    dom = build_rectangle(1.0, 4, 4)
    L = len(dom.loop_edges(dom.boundary_loops[0]))
    vs = sorted(dom.vertices)
    pm_plus = PMBoundarySpec([[("plus", L)]])
    assert corr_pm(dom, pm_plus, spins=[vs[5]]) > 0
    # global flip: odd content flips sign
    pm_min = PMBoundarySpec([[("minus", L)]])
    assert corr_pm(dom, pm_min, spins=[vs[5]]) == pytest.approx(
        -corr_pm(dom, pm_plus, spins=[vs[5]]), rel=1e-12)
    assert corr_pm(dom, pm_min, spins=[vs[5], vs[9]]) == pytest.approx(
        corr_pm(dom, pm_plus, spins=[vs[5], vs[9]]), rel=1e-12)
    # Dobrushin: the two routes agree (asserted inside corr_pm at 1e-10)
    pm_dob = PMBoundarySpec([[("plus", L - L // 3), ("minus", L // 3)]])
    val = corr_pm(dom, pm_dob, spins=[vs[6]], check_tol=1e-12)
    assert isinstance(val, float) and val != 0.0


def test_obs_fermion_split_corner_base_case():
    dom = build_rectangle(1.0, 3, 3)
    cov = make_cover(dom, [])
    src = inner_corner(dom)
    eta = corner_phase(CornerPoint(src))
    assert obs_fermion(dom, cov, src, CornerPoint(src, 0)) == pytest.approx(
        eta * eta)
    assert obs_fermion(dom, cov, src, CornerPoint(src, 1)) == pytest.approx(
        -eta * eta)


@pytest.mark.parametrize("ram,arcs", [
    (0, None),
    (2, None),
    (0, [(WIRED, 4), (FREE, 4), (WIRED, 6)]),
])
def test_field_is_s_holomorphic_and_satisfies_boundary(ram, arcs):
    if arcs is None:
        dom = build_rectangle(1.0, 4, 3)
    else:
        dom = build_rectangle(1.0, 4, 3, arcs)
    pts = []
    if ram:
        vv = sorted(dom.vertices)
        pts = [vv[1], vv[-2]]
    cov = make_cover(dom, pts)
    src = inner_corner(dom, avoid=set(pts))
    field = fermion_field(dom, cov, src)
    worst = 0.0
    for e in sorted(dom.shol_edges):
        quad, signs = stencil_signs(dom, cov, e)
        n, east, s_, west = quad
        m = ((e[0][0] + e[1][0]) // 2, (e[0][1] + e[1][1]) // 2)
        tot = 0j
        for c, pm in ((n, 1), (s_, 1), (east, -1), (west, -1)):
            if c == src:
                tot += pm * signs[c] * transport_side(src, m) * field[src][0]
            else:
                tot += pm * signs[c] * field[c]
        worst = max(worst, abs(tot))
    assert worst < 1e-12
    eta_s = base_phase(src)
    for c1, c2, sign in boundary_pairs(dom, cov):
        x1 = (field[c1] * (eta_s * base_phase(c1)).conjugate()).real
        x2 = (field[c2] * (eta_s * base_phase(c2)).conjugate()).real
        assert abs(x1 - sign * x2) < 1e-12


def test_multipoint_antisymmetry():
    dom = build_rectangle(1.0, 4, 4)
    cov = make_cover(dom, [])
    pts = [bulk_corners(dom)[i] for i in (3, 11, 17, 23)]
    a = fermion_multipoint(dom, cov, pts)
    b = fermion_multipoint(dom, cov, [pts[1], pts[0], pts[2], pts[3]])
    assert a == pytest.approx(-b, rel=1e-12)


def test_mixed_correlation_routes():
    dom = build_rectangle(1.0, 4, 4)
    e = sorted(dom.interior_edges)[10]
    # single energy: lattice identity makes the two routes agree exactly
    val = corr_mixed(dom, MixedContent(energies=(e,)), check_tol=1e-9)
    assert val == pytest.approx(corr_energy(dom, [e]), rel=1e-12)
    # pure spin content reduces to corr_spin
    vs = sorted(dom.vertices)
    val = corr_mixed(dom, MixedContent(spins=(vs[5], vs[9])))
    assert val == pytest.approx(corr_spin(dom, [vs[5], vs[9]]), rel=1e-12)
    # two energies, both routes agree within the internal check
    e2 = sorted(dom.interior_edges)[14]
    corr_mixed(dom, MixedContent(energies=(e, e2)), check_tol=1e-8)
    # odd insertion count vanishes
    assert corr_mixed(dom, MixedContent(
        fermions=(bulk_corners(dom)[3],))) == 0.0


def test_disorder_pair_placement_independence():
    """Mixed correlations do not depend on which corner realizes the
    disorder companions (tested through the homology of the cuts)."""
    dom = build_rectangle(1.0, 4, 4)
    us = sorted(u for u in dom.duals
                if all((u[0] + s[0], u[1] + s[1]) in dom.vertices
                       for s in ((2, 0), (0, 2), (-2, 0), (0, -2))))
    u1, u2 = us[0], us[-1]
    vals = set()
    for _ in range(1):
        vals.add(round(corr_mixed(
            dom, MixedContent(disorders=(u1, u2)), check_tol=None), 12))
    direct = corr_disorder_spin(dom, _dual_path(dom, u1, u2), [])
    assert abs(abs(direct) - abs(next(iter(vals)))) < 1e-10


def _dual_path(dom, a, b):
    path = bfs_path(a, lambda c: neighbors_in(c, DIAG_STEPS, dom.duals),
                    lambda c: c == b)
    return [edge_key(x, y) for x, y in zip(path, path[1:])]


def test_refusal_above_limit():
    """The cost limits the frontier width, not the spin count: a 20 x 30
    block (601 variables) sits at the width limit, a 21 x 30 block
    exceeds it."""
    assert Enumeration(build_rectangle(1.0, 20, 30)).frontier_width \
        == MAX_FRONTIER
    with pytest.raises(EnumerationError, match="frontier"):
        Enumeration(build_rectangle(1.0, 21, 30))


@pytest.mark.slow
def test_block_at_width_limit_sums():
    """The 20 x 30 block at the width limit has a finite Z (about 30 s)."""
    z = partition_function(build_rectangle(1.0, 20, 30))
    assert 0.9 < math.log(z) / 601 < 1.05
