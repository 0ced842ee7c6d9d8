"""The frontier contraction of `Enumeration.sums` against a plain sum over
all 2^N configurations, its named errors, and the cross-checks on domains
too large to enumerate one configuration at a time."""

import random

import numpy as np
import pytest

from conftest import bulk_corners, square
from isinglab import exact
from isinglab.exact import (BETA_CRIT, Enumeration, EnumerationError,
                            corr_energy, fermion_field, fermion_multipoint,
                            partition_function)
from isinglab.lattice import (CORNER_STEPS, FREE, WIRED, MeshDomain,
                              PMBoundarySpec, bfs_path, build_annulus,
                              build_rectangle, edge_key, inner_corner,
                              make_cover, neighbors_in)
from isinglab.pfaffian import assemble_multipoint
from isinglab.sholo import solve_observable

_CHUNK = 1 << 18


def brute_sums(en: Enumeration, observables, gamma=()) -> list[float]:
    """What `en.sums` returns, summed configuration by configuration over
    the enumeration's variables, edge terms and spin expressions."""
    flipped = en.gamma_terms(gamma)
    out = np.zeros(len(observables))
    total = 1 << en.n_free
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        # one row per variable, and a last row of ones for constants
        bits = (idx[None, :] >> np.arange(en.n_free + 1)[:, None]) & 1
        spin = (1 - 2 * bits).astype(np.int8)
        spin[-1] = 1

        def value(coef, *vs):
            val = np.full(len(idx), coef, dtype=np.int16)
            for v in vs:
                val *= spin[-1 if v is None else v]
            return val

        energy = sum(value(*t) for t in en.edge_terms.values())
        for t in flipped:
            energy -= 2 * value(*t)
        w = np.exp(BETA_CRIT * energy)
        for i, obs in enumerate(observables):
            val = value(1)
            for s in obs:
                ex = en.exprs[tuple(s)]
                val *= value(ex.coef, ex.var)
            out[i] += float(np.dot(w, val))
    return list(out)


def _assert_matches(en, observables, gamma=()):
    """Each sum within 1e-12 of the sum of the weights themselves."""
    z, *want = brute_sums(en, [()] + list(observables), gamma)
    got = en.sums(observables, gamma)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * z, (g, w)


def _spin_sets(dom, rng, sizes=(0, 1, 2, 3, 4)):
    vs = sorted(dom.vertices)
    return [tuple(rng.sample(vs, k)) for k in sizes]


def _dual_cut(dom, rng):
    """The dual cut of a corner path between two random bulk corners, as a
    fermionic insertion pair transports it."""
    corners = bulk_corners(dom)
    a, b = rng.sample(corners, 2)
    st = exact._Transport(make_cover(dom, []))
    path = bfs_path(a, lambda c: neighbors_in(c, CORNER_STEPS, dom.corners),
                    lambda c: c == b)
    for c1, c2 in zip(path, path[1:]):
        st.step(c1, c2)
    assert st.gamma
    return st.gamma


def test_standard_mode_with_free_arc():
    rng = random.Random(1)
    dom = build_rectangle(1.0, 3, 3, [(WIRED, 3), (FREE, 4), (WIRED, 5)])
    en = Enumeration(dom)
    obs = _spin_sets(dom, rng)
    _assert_matches(en, obs)
    _assert_matches(en, obs, _dual_cut(dom, rng))


def test_pinned_and_mono_modes():
    rng = random.Random(2)
    dom = build_rectangle(1.0, 3, 3)
    pm = PMBoundarySpec([[("plus", 5), ("free", 2), ("minus", 3),
                          ("plus", 2)]])
    for mono in (False, True):
        en = Enumeration(dom, pm, mono)
        obs = _spin_sets(dom, rng)
        _assert_matches(en, obs)
        _assert_matches(en, obs, _dual_cut(dom, rng))
    en = Enumeration(dom, pm, mono=True)
    marks = [p for p, ex in en.exprs.items() if p not in dom.vertices][:2]
    _assert_matches(en, [tuple(marks), (marks[0], sorted(dom.vertices)[4])])


def _edge_products(edge_sets):
    """Each product of sigma sigma over edges as the spins of the edges'
    endpoints."""
    return [tuple(v for e in edges for v in e) for edges in edge_sets]


def test_edge_observables():
    """Products of sigma sigma over edges of the energy, wired crossing
    edges included, as products of endpoint spins."""
    rng = random.Random(3)
    dom = build_rectangle(1.0, 4, 3, [(WIRED, 4), (FREE, 4), (WIRED, 6)])
    en = Enumeration(dom)
    edges = sorted(en.edge_terms)
    obs = _edge_products([rng.sample(edges, k) for k in (1, 2, 3)]
                         + [[edges[0], edges[0], edges[5]]])
    _assert_matches(en, obs)
    _assert_matches(en, obs, _dual_cut(dom, rng))
    with pytest.raises(EnumerationError):
        en.sums(_edge_products([[sorted(dom.crossing_edges - set(edges))[0]]]))


def test_energy_across_a_free_arc_is_refused():
    dom = build_rectangle(1.0, 4, 3, [(WIRED, 4), (FREE, 4), (WIRED, 6)])
    free = sorted(dom.crossing_edges - set(Enumeration(dom).edge_terms))
    assert free
    inner = sorted(dom.interior_edges)[0]
    for edges in ([free[0]], [inner, free[-1]]):
        with pytest.raises(EnumerationError, match="crosses a free arc"):
            corr_energy(dom, edges)


def test_two_loop_domains():
    rng = random.Random(4)
    rect = build_rectangle(1.0, 5, 4)
    # lattice coordinates (m, n) = (2, 1) sit at (2(m - n), 2(m + n))
    dom = MeshDomain(1.0, set(rect.vertices) - {(2, 6)})
    assert len(dom.boundary_loops) == 2
    en = Enumeration(dom)
    assert en.n_free == 21
    _assert_matches(en, _spin_sets(dom, rng), _dual_cut(dom, rng))
    dom = MeshDomain(1.0, square(6) - square(2), [WIRED, WIRED])
    en = Enumeration(dom)
    assert en.n_free == 22
    _assert_matches(en, _spin_sets(dom, rng, (0, 2, 3)),
                    _dual_cut(dom, rng))


def test_observables_in_batches(monkeypatch):
    """Tables wider than the entry budget are contracted a few observables
    at a time; the sums do not change."""
    dom = build_rectangle(1.0, 4, 3)
    obs = _spin_sets(dom, random.Random(5))
    want = Enumeration(dom).sums(obs)
    monkeypatch.setattr(exact, "_TABLE_ENTRIES", 1)
    assert Enumeration(dom).sums(obs) == pytest.approx(want, rel=1e-14)


def test_overflow_is_an_error():
    """A sum beyond float64 raises once the spin count passes about 700
    (ln Z grows by about 1 per spin), which a narrow 10 x 80 block with a
    12-variable frontier does; 10 x 70 sums."""
    assert np.isfinite(partition_function(build_rectangle(1.0, 10, 70)))
    with pytest.raises(EnumerationError, match="non-finite"):
        partition_function(build_rectangle(1.0, 10, 80))


# -- cross-checks beyond brute-force reach ----------------------------------


def _field_error(dom, cov, src):
    field = fermion_field(dom, cov, src)
    obs = solve_observable(dom, cov, src).observable()
    vals = {c: v for c, v in field.items() if not isinstance(v, tuple)}
    sup = max(abs(v) for v in vals.values())
    return max(abs(v - obs[c]) / max(abs(v), 1e-2 * sup)
               for c, v in vals.items())


def test_solver_matches_oracle_on_8x8_with_arc_and_branch_pair():
    rng = random.Random(8)
    loop = 2 * (8 + 8)
    arc = rng.randrange(2, loop // 3)
    start = rng.randrange(loop - arc)
    dom = build_rectangle(1.0, 8, 8, [(WIRED, start), (FREE, arc),
                                      (WIRED, loop - start - arc)])
    ram = rng.sample(sorted(dom.vertices), 2)
    cov = make_cover(dom, ram)
    assert _field_error(dom, cov, inner_corner(dom, avoid=set(ram))) < 1e-10


def test_pfaffian_identity_k4_on_8x8():
    dom = build_rectangle(1.0, 8, 8)
    cov = make_cover(dom, [])
    pts = random.Random(9).sample(bulk_corners(dom), 4)
    direct = fermion_multipoint(dom, cov, pts)
    pf = assemble_multipoint(lambda i, j: fermion_multipoint(
        dom, cov, [pts[i], pts[j]], avoid=pts), 4)
    assert abs(direct) > 0 and abs(direct - pf) <= 1e-10 * abs(direct)


# a lattice-aligned 2x2 block of primal vertices around the origin's face
_HOLE_2X2 = {(0, 0), (2, 2), (-2, 2), (0, 4)}


@pytest.mark.parametrize("labels", [(WIRED, WIRED), (WIRED, FREE),
                                    (FREE, WIRED)])
def test_solver_matches_oracle_around_a_hole(labels):
    dom = MeshDomain(1.0, square(8) - _HOLE_2X2, list(labels))
    assert len(dom.boundary_loops) == 2
    cov = make_cover(dom, [])
    assert _field_error(dom, cov, inner_corner(dom)) < 1e-10


def _wired_as_plus(dom) -> PMBoundarySpec:
    """The domain's own labels as plus/free runs: each wired edge plus,
    each free edge free."""
    return PMBoundarySpec([
        [("plus" if dom.edge_label[edge_key(*oe)] == WIRED else "free", 1)
         for oe in dom.loop_edges(loop)] for loop in dom.boundary_loops])


@pytest.mark.parametrize("make", [
    lambda: build_rectangle(1.0, 3, 3, [(WIRED, 3), (FREE, 4), (WIRED, 5)]),
    lambda: MeshDomain(1.0, square(10) - _HOLE_2X2, [WIRED, FREE]),
], ids=["3x3_free_arc", "square10_hole_wired_free"])
def test_standard_labels_are_the_monochromatic_ensemble(make):
    """Standard boundary conditions are the locally monochromatic ensemble
    of the domain's own labels, term for term and sum for sum."""
    dom = make()
    std = Enumeration(dom)
    mono = Enumeration(dom, _wired_as_plus(dom), mono=True)
    assert std.exprs == mono.exprs
    assert std.edge_terms == mono.edge_terms
    rng = random.Random(4)
    obs = [()] + _spin_sets(dom, rng)
    gamma = _dual_cut(dom, rng)
    assert std.sums(obs) == mono.sums(obs)
    assert std.sums(obs, gamma) == mono.sums(obs, gamma)


@pytest.mark.xfail(strict=True, reason=(
    "wired holes whose complement has a vertex with no neighbour in the "
    "domain: the oracle field misses the four-corner relation and some "
    "boundary pairs, while the solver residual is at machine precision"))
@pytest.mark.parametrize("make", [
    lambda: MeshDomain(1.0, square(8) - square(2), [WIRED, WIRED]),
    lambda: build_annulus(1.0, 6.0, 3.0, WIRED, WIRED),
    lambda: build_annulus(1.0, 6.0, 3.0, FREE, WIRED),
], ids=["square8-square2", "annulus_wired_wired", "annulus_free_wired"])
def test_solver_matches_oracle_around_an_enclosing_wired_hole(make):
    dom = make()
    cov = make_cover(dom, [])
    assert _field_error(dom, cov, inner_corner(dom)) < 1e-10
