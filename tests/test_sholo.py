import cmath
import math
import random

import numpy as np
import pytest

from conftest import bulk_corners
from isinglab.exact import _phase0, fermion_field
from isinglab.lattice import (FREE, WIRED, build_rectangle, corner_neighbors,
                              inner_corner, make_cover)
from isinglab.sholo import (
    SolveError, cauchy_recover, discrete_exponential, discrete_P,
    discrete_P_split, discrete_Q, integrate_H, boundary_H_spread,
    solve_observable,
)


def field_error(dom, cov, src):
    field = fermion_field(dom, cov, src)
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


def test_uniqueness_regression():
    dom = build_rectangle(1.0, 4, 4)
    cov = make_cover(dom, [])
    src = inner_corner(dom)
    sol = solve_observable(dom, cov, src)
    # perturbing the solution must strictly increase the residual: re-solve
    # with a perturbed pinned value and compare fields
    sol2 = solve_observable(dom, cov, src, normalization=2.0 * _phase0(src))
    for c in sol.values:
        assert sol2.values[c] == pytest.approx(2.0 * sol.values[c], abs=1e-9)


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
    eta = _phase0(a)
    assert abs(plus - eta) < 1e-12
    assert abs(minus + eta) < 1e-12
    p_, d_ = corner_neighbors(a)
    dd = (d_[0] - p_[0], d_[1] - p_[1])
    for sgn in (1, -1):
        z = (a[0] - sgn * dd[1], a[1] + sgn * dd[0])
        assert abs(discrete_P(a, z)) < 1e-12


def test_inverse_kernel_decay():
    a = (0, 1)
    eta_a = _phase0(a)
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
            eta_z = _phase0(z)
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
        assert abs(vals[z] - _phase0(z)) < 1e-12
    assert abs(vals[(1, 2)] - (math.sqrt(2) - 1) * lam) < 1e-12
    assert abs(vals[(1, -2)] + (math.sqrt(2) - 1) * lam) < 1e-12
    assert abs(vals[(-1, 2)] - (math.sqrt(2) - 1) * lam.conjugate()) < 1e-12
    assert abs(vals[(-1, -2)] + (math.sqrt(2) - 1) * lam.conjugate()) < 1e-12
    # dual-centred variant: east corner on the base sheet, west corner on
    # the other side of the south branch ray
    w = (2, 0)
    assert abs(discrete_Q(w, (3, 0)) - _phase0((3, 0))) < 1e-12
    assert abs(discrete_Q(w, (1, 0)) + _phase0((1, 0))) < 1e-12


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
            eta_z = _phase0(z)
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
    zero = type(sol)(sol.domain, sol.cover, sol.source, 0.0,
                     {c: 0.0 for c in sol.values}, 0.0, sol.shape)
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
    zero = type(sol)(sol.domain, sol.cover, sol.source, 0.0,
                     {c: 0.0 for c in sol.values}, 0.0, sol.shape)
    u = (center[0] + 2, center[1])
    assert cauchy_recover(zero, center, u, radius=2) == 0
