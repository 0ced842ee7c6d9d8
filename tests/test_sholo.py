import cmath
import dataclasses
import math
import random

import numpy as np
import pytest

from conftest import HOLE_2X2, bulk_corners, square
from isinglab.exact import EnumerationError, fermion_field
from isinglab.lattice import (FREE, WIRED, MeshDomain, base_phase,
                              build_annulus, build_rectangle,
                              corner_neighbors, edge_midpoint, inner_corner,
                              make_cover, transport_side)
from isinglab.sholo import (
    SolveError, boundary_pairs, cauchy_recover, discrete_exponential,
    discrete_P, discrete_P_split, discrete_Q, integrate_H, boundary_H_spread,
    solve_observable, stencil_signs,
)


def field_error(dom, cov, src):
    field = fermion_field(dom, cov, src)
    assert set(field) == set(dom.corners)
    sol = solve_observable(dom, cov, src)
    obs = sol.observable()
    vals = {c: v for c, v in field.items() if not isinstance(v, tuple)}
    sup = max(abs(v) for v in vals.values())
    worst = max(abs(v - obs[c]) / max(abs(v), 1e-2 * sup)
                for c, v in vals.items())
    return worst, sol


def test_solver_matches_enumeration_wired():
    dom = build_rectangle(1.0, 4, 4)
    cov = make_cover(dom, [])
    err, sol = field_error(dom, cov, inner_corner(dom))
    assert err < 1e-10
    assert sol.residual < 1e-12


def test_solver_matches_enumeration_free_arc_and_cover():
    dom = build_rectangle(1.0, 4, 3, [(WIRED, 4), (FREE, 4), (WIRED, 6)])
    vv = sorted(dom.vertices)
    cov = make_cover(dom, [vv[1], vv[-2]])
    err, _ = field_error(dom, cov, inner_corner(dom, avoid={vv[1], vv[-2]}))
    assert err < 1e-10


def test_solver_refuses_dual_ramification():
    dom = build_rectangle(1.0, 4, 4)
    us = sorted(u for u in dom.duals
                if all((u[0] + s[0], u[1] + s[1]) in dom.vertices
                       for s in ((2, 0), (0, 2), (-2, 0), (0, -2))))
    cov = make_cover(dom, us[:2])
    with pytest.raises(SolveError):
        solve_observable(dom, cov, inner_corner(dom))


def test_sources_off_the_domain_are_refused():
    """A non-corner point, a corner far outside, a corner at the outer
    vertex of a wired crossing edge and a corner whose primal vertex
    (4, -2**23) has the grid code of the vertex (0, 0): the solver and the
    enumeration both refuse them as sources."""
    dom = build_rectangle(1.0, 4, 4)
    cov = make_cover(dom, [])
    outer = [c for c in sorted(dom.corners)
             if corner_neighbors(c)[0] not in dom.vertices]
    assert outer and (0, 0) in dom.vertices
    for src in (sorted(dom.vertices)[5], (1001, 1000), outer[0],
                (4, 1 - 2 ** 23)):
        with pytest.raises(SolveError, match="corner at a vertex"):
            solve_observable(dom, cov, src)
        with pytest.raises(EnumerationError, match="corner at a vertex"):
            fermion_field(dom, cov, src)


def test_a_solve_builds_no_vertex_set():
    dom = build_rectangle(1.0, 12, 12)
    # the corner east of the vertex (0, 24), lattice coordinates (6, 6)
    solve_observable(dom, make_cover(dom, []), (1, 24))
    assert "vertices" not in vars(dom)


def dense_system(dom, cov, src):
    """The problem assembled edge by edge into a dense matrix, the reference
    for the solver's array assembly: real and imaginary rows of every
    four-corner relation (zero rows skipped), then the boundary pairs."""
    unknowns = sorted(dom.corners - {src})
    col = {c: i for i, c in enumerate(unknowns)}
    rows, rhs = [], []
    for e in sorted(dom.shol_edges):
        (n, east, s, west), signs = stencil_signs(dom, cov, e)
        row = np.zeros(len(unknowns), dtype=complex)
        b = 0j
        for c, pm in ((n, 1), (s, 1), (east, -1), (west, -1)):
            if c == src:
                b -= (pm * signs[c] * transport_side(src, edge_midpoint(e))
                      * base_phase(src))
            else:
                row[col[c]] += pm * signs[c] * base_phase(c)
        for part, val in ((row.real, b.real), (row.imag, b.imag)):
            if part.any() or val:
                rows.append(part)
                rhs.append(val)
    for c1, c2, sign in boundary_pairs(dom, cov):
        row = np.zeros(len(unknowns))
        row[col[c1]], row[col[c2]] = 1.0, -sign
        rows.append(row)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs), unknowns


def _seeded_rectangle(seed):
    """A rectangle with one free arc and a ramified pair, drawn from seed."""
    rng = random.Random(seed)
    w, h = rng.randint(4, 9), rng.randint(4, 9)
    n = len(build_rectangle(1.0, w, h).boundary_loops[0])
    start, length = rng.randint(1, n - 3), rng.randint(1, n // 2)
    length = min(length, n - start - 1)
    dom = build_rectangle(1.0, w, h, [(WIRED, start), (FREE, length),
                                      (WIRED, n - start - length)])
    ram = rng.sample(sorted(dom.vertices), 2)
    return dom, ram


def _ramified_annulus(outer, inner, ram):
    return build_annulus(1.0, outer, inner, FREE, FREE), ram


_LABEL_PAIRS = [(WIRED, WIRED), (WIRED, FREE), (FREE, WIRED), (FREE, FREE)]
_SQUARE_SYSTEMS = (
    [(f"rectangle_seed{k}", lambda k=k: _seeded_rectangle(k))
     for k in range(6)]
    + [(f"annulus_{a}_{b}",
        lambda a=a, b=b: (build_annulus(1.0, 6.0, 3.0, a, b), []))
       for a, b in _LABEL_PAIRS]
    + [(f"square{k}-square{j}_{a}_{b}",
        lambda k=k, j=j, a=a, b=b: (MeshDomain(1.0, square(k) - square(j),
                                               [a, b]), []))
       for k, j in ((8, 2), (12, 4)) for a, b in _LABEL_PAIRS]
    # a free arc as long as the hole loop
    + [(f"square10-hole2x2_arc8_{b}",
        lambda b=b: (MeshDomain(1.0, square(10) - HOLE_2X2,
                                [[(WIRED, 5), (FREE, 8), (WIRED, 31)], b]),
                     []))
       for b in (WIRED, FREE)]
    # Two all-free ramified annuli where dropping the row with the largest
    # |rhs| leaves a poorly conditioned square system (residuals 6.4e-10
    # and 8.7e-10): the row with the largest left null weight must go.
    + [("annulus_8.6_ramified",
        lambda: _ramified_annulus(8.6, 5.12, [(10, 10), (-14, -6)])),
       ("annulus_11.03_ramified",
        lambda: _ramified_annulus(11.03, 7.3, [(-16, 0), (10, 18)]))])


@pytest.mark.parametrize("make", [m for _, m in _SQUARE_SYSTEMS],
                         ids=[name for name, _ in _SQUARE_SYSTEMS])
def test_square_solve_matches_dense_least_squares(make):
    dom, ram = make()
    cov = make_cover(dom, ram)
    src = inner_corner(dom, avoid=set(ram))
    A, b, unknowns = dense_system(dom, cov, src)
    # one redundant row, full column rank
    assert A.shape[0] == A.shape[1] + 1
    assert np.linalg.matrix_rank(A) == A.shape[1]
    want = np.linalg.lstsq(A, b, rcond=None)[0]
    sol = solve_observable(dom, cov, src)
    got = np.array([(sol.values[c] * base_phase(c).conjugate()).real
                    for c in unknowns])
    assert sol.shape == A.shape
    assert sol.residual < 1e-12
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


_ARRAY_FIELDS = {
    "wired6": lambda: (build_rectangle(1.0, 6, 6), []),
    "arc_ramified8": lambda: (
        build_rectangle(1.0, 8, 8, [(WIRED, 5), (FREE, 9), (WIRED, 18)]),
        [(6, 14), (-2, 18)]),
    "square8-square2": lambda: (MeshDomain(1.0, square(8) - square(2)), []),
}


@pytest.mark.parametrize("make", list(_ARRAY_FIELDS.values()),
                         ids=list(_ARRAY_FIELDS))
def test_field_arrays_read_as_the_values_dict(make):
    """value() and csv_rows() read the arrays; values builds the dict."""
    dom, ram = make()
    cov = make_cover(dom, ram)
    sol = solve_observable(dom, cov, inner_corner(dom, avoid=set(ram)))
    assert len(sol.values) == len(sol.corners) == len(dom.corners) - 1
    for c, v in sol.values.items():
        assert sol.value(c) == v and sol.value(c, sheet=1) == -v
    assert sol.csv_rows() == [(c[0], c[1], 0, v.real, v.imag)
                              for c, v in sorted(sol.values.items())]
    x, y = sol.corners[0].tolist()
    top = max(dom.corners)
    # the source, a vertex, a corner past the domain, and a corner whose
    # grid code equals that of the first corner
    for c in (sol.source.pos, min(dom.vertices), (top[0] + 2, top[1]),
              (x - 1, y + 2 ** 21)):
        with pytest.raises(KeyError):
            sol.value(c)


def _arc_spec(w, h, runs):
    """Boundary runs of a w x h rectangle; a run of length None takes the
    rest of the loop."""
    rest = 2 * (w + h) - sum(n for _, n in runs if n is not None)
    return [(lab, rest if n is None else n) for lab, n in runs]


_SHORT_WIRED_ARCS = [
    (6, 5, [(WIRED, 1), (FREE, None)], []),
    (10, 3, [(WIRED, 1), (FREE, None)], []),
    (6, 5, [(FREE, 3), (WIRED, 1), (FREE, None)], []),
    (4, 4, [(FREE, 3), (WIRED, 1), (FREE, None)], []),
    (10, 3, [(FREE, 3), (WIRED, 1), (FREE, None)], []),
    (6, 5, [(FREE, 3), (WIRED, 1), (FREE, None)], [(2, 10), (6, 14)]),
    (6, 5, [(WIRED, 2), (FREE, None)], []),
    (6, 5, [(FREE, 3), (WIRED, 2), (FREE, None)], []),
    (10, 3, [(FREE, 3), (WIRED, 2), (FREE, None)], []),
]


@pytest.mark.parametrize("w, h, runs, ram", _SHORT_WIRED_ARCS, ids=[
    f"{w}x{h}_" + "-".join(f"{lab}{n or ''}" for lab, n in runs)
    + ("_ramified" if ram else "") for w, h, runs, ram in _SHORT_WIRED_ARCS])
def test_short_wired_arc_matches_the_oracle(w, h, runs, ram):
    """A wired arc of one or two edges between free arcs: the free arc's
    relation runs the long way round, from that wired arc back to it."""
    dom = build_rectangle(1.0, w, h, _arc_spec(w, h, runs))
    cov = make_cover(dom, ram)
    err, sol = field_error(dom, cov, inner_corner(dom, avoid=set(ram)))
    assert err < 1e-10
    assert sol.residual < 1e-14


def test_discrete_exponential():
    assert discrete_exponential(0.0, complex(3.5, 2.0)) == 1.0
    assert discrete_exponential(0.7 + 0.1j, 0.0) == 1.0
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(30):
        zeta = complex(rng.normal(), rng.normal())
        if abs(zeta) > 1.8:
            zeta *= 0.5
        w = complex(float(rng.integers(-5, 5)), float(rng.integers(-5, 5)) + 0.5)
        tot = 0j
        for d in (0.5 + 0.5j, 0.5 - 0.5j, -0.5 + 0.5j, -0.5 - 0.5j):
            tot += discrete_exponential(zeta, w + d) * d
        worst = max(worst, abs(tot))
    assert worst < 1e-12
    with pytest.raises(ValueError):
        discrete_exponential(2.0, 1.5)


@pytest.mark.parametrize("a", [(0, 1), (0, -3), (2, 5), (1, 0), (-3, 0)])
def test_inverse_kernel_base_values(a):
    plus, minus = discrete_P_split(a)
    eta = base_phase(a)
    assert abs(plus - eta) < 1e-12
    assert abs(minus + eta) < 1e-12
    p_, d_ = corner_neighbors(a)
    dd = (d_[0] - p_[0], d_[1] - p_[1])
    for sgn in (1, -1):
        z = (a[0] - sgn * dd[1], a[1] + sgn * dd[0])
        assert abs(discrete_P(a, z)) < 1e-12


def test_inverse_kernel_decay():
    a = (0, 1)
    eta_a = base_phase(a)
    radii = [10, 14, 20, 28, 40, 56, 80, 100]
    errs = []
    for r in radii:
        emax = 0.0
        for ang in np.linspace(0.1, 2 * math.pi, 7):
            X = int(round(r * math.cos(ang)))
            Y = int(round(r * math.sin(ang)))
            if (X + Y) % 2 == 0:
                X += 1
            z = (X, Y)
            val = discrete_P(a, z)
            pos = complex(z[0] - a[0], z[1] - a[1]) / 2
            eta_z = base_phase(z)
            proj = (2 / math.pi) * eta_z * (eta_z.conjugate()
                                            * eta_a.conjugate() / pos).real
            emax = max(emax, abs(val - proj))
        errs.append(emax)
    slope = -np.polyfit(np.log(radii), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_sqrt_kernel_values_and_spinor():
    lam = cmath.exp(-1j * math.pi / 4)
    vals = {z: discrete_Q((0, 0), z)
            for z in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 2), (1, -2),
                      (-1, 2), (-1, -2)]}
    for z in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert abs(vals[z] - base_phase(z)) < 1e-12
    assert abs(vals[(1, 2)] - (math.sqrt(2) - 1) * lam) < 1e-12
    assert abs(vals[(1, -2)] + (math.sqrt(2) - 1) * lam) < 1e-12
    assert abs(vals[(-1, 2)] - (math.sqrt(2) - 1) * lam.conjugate()) < 1e-12
    assert abs(vals[(-1, -2)] + (math.sqrt(2) - 1) * lam.conjugate()) < 1e-12
    # dual-centred variant: east corner on the base sheet, west corner on
    # the other side of the south branch ray
    w = (2, 0)
    assert abs(discrete_Q(w, (3, 0)) - base_phase((3, 0))) < 1e-12
    assert abs(discrete_Q(w, (1, 0)) + base_phase((1, 0))) < 1e-12


def test_sqrt_kernel_asymptotics():
    lam = cmath.exp(-1j * math.pi / 4)
    rel = []
    for r in (10, 30, 100):
        emax = 0.0
        for ang in np.linspace(0.2, 2 * math.pi - 0.4, 5):
            X = int(round(r * math.cos(ang)))
            Y = int(round(r * math.sin(ang)))
            if (X + Y) % 2 == 0:
                X += 1
            z = (X, Y)
            val = discrete_Q((0, 0), z)
            pos = complex(z[0], z[1]) / 2
            ang_c = cmath.phase(pos)
            if ang_c < -math.pi / 2:
                ang_c += 2 * math.pi
            zroot = abs(pos) ** -0.5 * cmath.exp(-0.5j * ang_c)
            eta_z = base_phase(z)
            proj = math.sqrt(2 / math.pi) * eta_z * (
                eta_z.conjugate() * lam.conjugate() * zroot).real
            emax = max(emax, abs(val - proj) / abs(proj))
        rel.append(emax)
    assert rel[-1] < rel[0] and rel[-1] < 1e-3


def test_integrate_H_properties():
    dom = build_rectangle(1.0, 4, 3, [(WIRED, 4), (FREE, 4), (WIRED, 6)])
    cov = make_cover(dom, [])
    sol = solve_observable(dom, cov, inner_corner(dom))
    H, closed, jump = integrate_H(sol)
    assert closed < 1e-12
    assert jump < 1e-12
    assert boundary_H_spread(sol, H) < 1e-12


def test_H_laplacian_signs():
    """The quadratic form is concave on inner vertices and convex on inner
    faces away from ramification."""
    dom = build_rectangle(1.0, 5, 5)
    cov = make_cover(dom, [])
    sol = solve_observable(dom, cov, inner_corner(dom))
    src = sol.source.pos
    H, _, _ = integrate_H(sol)
    checked = 0
    for v in sorted(dom.vertices):
        nbrs = [(v[0] + s[0], v[1] + s[1]) for s in ((2, 2), (2, -2),
                                                     (-2, 2), (-2, -2))]
        if not all(n in dom.vertices for n in nbrs):
            continue
        if any(abs(c[0] - v[0]) <= 2 and abs(c[1] - v[1]) <= 2
               for c in [src]):
            continue
        lap = sum(H[n] - H[v] for n in nbrs)
        assert lap <= 1e-10
        checked += 1
    assert checked > 0
    for u in sorted(dom.duals):
        nbrs = [(u[0] + s[0], u[1] + s[1]) for s in ((2, 2), (2, -2),
                                                     (-2, 2), (-2, -2))]
        if not all(n in dom.duals and n in H for n in nbrs) or u not in H:
            continue
        if abs(u[0] - src[0]) <= 2 and abs(u[1] - src[1]) <= 2:
            continue
        inner = all((u[0] + s[0], u[1] + s[1]) in dom.vertices
                    for s in ((2, 0), (0, 2), (-2, 0), (0, -2)))
        if not inner:
            continue
        lap = sum(H[n] - H[u] for n in nbrs)
        assert lap >= -1e-10


def test_zero_field_H_constant():
    dom = build_rectangle(1.0, 3, 3)
    cov = make_cover(dom, [])
    src = inner_corner(dom)
    sol = solve_observable(dom, cov, src)
    zero = dataclasses.replace(sol, normalization=0.0,
                               spinor=np.zeros_like(sol.spinor))
    H, closed, jump = integrate_H(zero)
    assert closed == 0.0 and jump == 0.0
    assert max(abs(x) for x in H.values()) == 0.0


def test_cauchy_recovery_and_contour_invariance():
    dom = build_rectangle(1.0, 11, 11)
    vv = sorted(dom.vertices)
    center = vv[len(vv) // 2]
    other = vv[5]
    cov = make_cover(dom, [center, other])
    src = None
    best = -1
    for c in bulk_corners(dom):
        p, _ = corner_neighbors(c)
        if p == other:
            continue
        dist = abs(p[0] - center[0]) + abs(p[1] - center[1])
        if dist > best:
            best, src = dist, c
    sol = solve_observable(dom, cov, src)
    for du in ((2, 0), (0, 2), (-2, 0), (0, -2)):
        u = (center[0] + du[0], center[1] + du[1])
        z = ((center[0] + u[0]) // 2, (center[1] + u[1]) // 2)
        direct = sol.values[z]
        got2 = cauchy_recover(sol, center, u, radius=2)
        got3 = cauchy_recover(sol, center, u, radius=3)
        assert abs(got2 - direct) < 1e-10 * max(1.0, abs(direct))
        assert abs(got3 - got2) < 1e-12


def test_cauchy_zero_field():
    dom = build_rectangle(1.0, 9, 9)
    vv = sorted(dom.vertices)
    center = vv[len(vv) // 2]
    cov = make_cover(dom, [center, vv[1]])
    src = inner_corner(dom, avoid={center, vv[1]})
    sol = solve_observable(dom, cov, src)
    zero = dataclasses.replace(sol, normalization=0.0,
                               spinor=np.zeros_like(sol.spinor))
    u = (center[0] + 2, center[1])
    assert cauchy_recover(zero, center, u, radius=2) == 0
