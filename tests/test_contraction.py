"""The frontier contraction of `Enumeration.sums` against a plain sum over
all 2^N configurations, its named errors, and the cross-checks on domains
too large to enumerate one configuration at a time."""

import random

import numpy as np
import pytest

from conftest import HOLE_2X2, bulk_corners, field_error, square
from isinglab import exact
from isinglab.exact import (BETA_CRIT, Enumeration, EnumerationError,
                            MixedContent, corr_disorder_spin, corr_energy,
                            corr_mixed, fermion_field, fermion_multipoint,
                            partition_function)
from isinglab.lattice import (CORNER_STEPS, FREE, WIRED, MeshDomain,
                              PMBoundarySpec, bfs_path, build_annulus,
                              build_rectangle, edge_key, inner_corner,
                              make_cover, neighbors_in)
from isinglab.pfaffian import assemble_multipoint

_CHUNK = 1 << 18


def brute_sums(en: Enumeration, observables, cuts=None) -> list[float]:
    """What `en.sums` returns, summed configuration by configuration over
    the enumeration's variables, edge terms and spin expressions."""
    if cuts is None:
        cuts = [()] * len(observables)
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
        weights = {}
        for g in map(frozenset, cuts):
            if g not in weights:
                cut_energy = energy
                for t in en.gamma_terms(g):
                    cut_energy = cut_energy - 2 * value(*t)
                weights[g] = np.exp(BETA_CRIT * cut_energy)
        for i, obs in enumerate(observables):
            w = weights[frozenset(cuts[i])]
            val = value(1)
            for s in obs:
                ex = en.exprs[tuple(s)]
                val *= value(ex.coef, ex.var)
            out[i] += float(np.dot(w, val))
    return list(out)


def _assert_matches(en, observables, gamma=()):
    """Each sum, all under the one cut gamma, within 1e-12 of the sum of
    the weights themselves."""
    z, *want = brute_sums(en, [()] + list(observables),
                          [gamma] * (1 + len(observables)))
    got = en.sums(observables, [gamma] * len(observables))
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
    cov = make_cover(dom, [])
    path = bfs_path(a, lambda c: neighbors_in(c, CORNER_STEPS, dom.corners),
                    lambda c: c == b)
    sign, cut = 1, frozenset()
    for c1, c2 in zip(path, path[1:]):
        sign, cut = exact._advance(cov, sign, cut, c1, c2)
    assert cut
    return cut


# plus, free, minus and plus runs on the 3x3 block's loop of 12 edges
_PM = PMBoundarySpec([[("plus", 5), ("free", 2), ("minus", 3), ("plus", 2)]])


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
    for mono in (False, True):
        en = Enumeration(dom, _PM, mono)
        obs = _spin_sets(dom, rng)
        _assert_matches(en, obs)
        _assert_matches(en, obs, _dual_cut(dom, rng))
    en = Enumeration(dom, _PM, mono=True)
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


# the enumerations of the brute-force checks above, as (domain, pm, mono)
_ENUMERATIONS = {
    "3x3_free_arc": lambda: (build_rectangle(
        1.0, 3, 3, [(WIRED, 3), (FREE, 4), (WIRED, 5)]), None, False),
    "3x3_pinned": lambda: (build_rectangle(1.0, 3, 3), _PM, False),
    "3x3_mono": lambda: (build_rectangle(1.0, 3, 3), _PM, True),
    "4x3_free_arc": lambda: (build_rectangle(
        1.0, 4, 3, [(WIRED, 4), (FREE, 4), (WIRED, 6)]), None, False),
    "5x4_less_a_vertex": lambda: (MeshDomain(
        1.0, set(build_rectangle(1.0, 5, 4).vertices) - {(2, 6)}), None,
        False),
    "square6-square2": lambda: (MeshDomain(
        1.0, square(6) - square(2), [WIRED, WIRED]), None, False),
}


def _rows_with_cuts(dom, rng):
    """Spin sets of 0 to 4 spins, twice over, each row under no cut or one
    of two random cuts in turn."""
    cuts = [(), _dual_cut(dom, rng), _dual_cut(dom, rng)]
    obs = _spin_sets(dom, rng) + _spin_sets(dom, rng)
    return obs, [cuts[i % 3] for i in range(len(obs))]


@pytest.mark.parametrize("name", list(_ENUMERATIONS))
def test_each_row_carries_its_own_cut(name):
    """Rows under different cuts in one call: each sum is, bit for bit, the
    sum of its row alone, and within 1e-12 of the plain sum."""
    dom, pm, mono = _ENUMERATIONS[name]()
    en = Enumeration(dom, pm, mono)
    obs, cuts = _rows_with_cuts(dom, random.Random(6))
    got = en.sums(obs, cuts)
    assert got == [en.sums([o], [g])[0] for o, g in zip(obs, cuts)]
    z, *want = brute_sums(en, [()] + obs, [()] + cuts)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * z, (g, w)


def test_observables_in_batches(monkeypatch):
    """Tables wider than the entry budget are contracted a few rows at a
    time: on a 9 x 9 block, whose 11-variable frontier binds before its cut
    factors do, a budget of three tables splits ten rows, each under its
    own cut, into four batches, and no sum changes."""
    dom = build_rectangle(1.0, 9, 9)
    en = Enumeration(dom)
    obs, cuts = _rows_with_cuts(dom, random.Random(7))
    want = en.sums(obs, cuts)
    batches = []
    contract = Enumeration._contract

    def counted(self, pair_f, field_f, signs):
        batches.append(len(signs))
        return contract(self, pair_f, field_f, signs)
    monkeypatch.setattr(Enumeration, "_contract", counted)
    monkeypatch.setattr(exact, "_TABLE_ENTRIES", 3 << en.frontier_width)
    assert en.sums(obs, cuts) == want
    assert batches == [3, 3, 3, 1]


def test_cut_factors_stay_within_the_table_budget(monkeypatch):
    """A field has about one cut per corner, and each row's factors hold
    four entries per pair and two per variable.  A batch takes only as many
    rows as keep their factors within the entry budget, even where the
    frontier would allow more, and the field does not change."""
    dom = build_rectangle(1.0, 4, 4)
    cov = make_cover(dom, [])
    src = inner_corner(dom)
    want = fermion_field(dom, cov, src)
    sizes = []
    contract = Enumeration._contract

    def counted(self, pair_f, field_f, signs):
        sizes.append((len(signs), pair_f.size + field_f.size))
        return contract(self, pair_f, field_f, signs)
    monkeypatch.setattr(Enumeration, "_contract", counted)
    # 32 rows by the frontier of 6 variables, 8 by the 36 pairs and 17
    # variables of the factors: the denominator and 95 corners take 12
    monkeypatch.setattr(exact, "_TABLE_ENTRIES", 1 << 11)
    assert fermion_field(dom, cov, src) == want
    assert [n for n, _ in sizes] == [8] * 12
    assert max(size for _, size in sizes) <= 1 << 11


def test_a_cut_for_each_observable_is_required():
    dom = build_rectangle(1.0, 3, 3)
    with pytest.raises(ValueError, match="1 cuts for 2 observables"):
        Enumeration(dom).sums([(), ()], [()])


def test_one_contraction_per_query(monkeypatch):
    """Every query sums its numerators and denominator in one call of
    `sums` per enumeration it builds."""
    calls = []
    sums = Enumeration.sums

    def counted(self, *args):
        calls.append(self)
        return sums(self, *args)
    monkeypatch.setattr(Enumeration, "sums", counted)
    dom = build_rectangle(1.0, 4, 4)
    rng = random.Random(10)
    ram = rng.sample(sorted(dom.vertices), 2)
    cov = make_cover(dom, ram)
    fermion_field(dom, cov, inner_corner(dom, avoid=set(ram)))
    fermion_multipoint(dom, cov, rng.sample(bulk_corners(dom), 4))
    corr_disorder_spin(dom, _dual_cut(dom, rng), ram)
    corr_mixed(dom, MixedContent(fermions=tuple(rng.sample(
        bulk_corners(dom), 2))))
    assert len(calls) == 5
    assert len(set(map(id, calls))) == 5


def test_overflow_is_an_error():
    """A sum beyond float64 raises once the spin count passes about 700
    (ln Z grows by about 1 per spin), which a narrow 10 x 80 block with a
    12-variable frontier does; 10 x 70 sums."""
    assert np.isfinite(partition_function(build_rectangle(1.0, 10, 70)))
    with pytest.raises(EnumerationError, match="non-finite"):
        partition_function(build_rectangle(1.0, 10, 80))


# -- cross-checks beyond brute-force reach ----------------------------------


def test_solver_matches_oracle_on_8x8_with_arc_and_branch_pair():
    rng = random.Random(8)
    loop = 2 * (8 + 8)
    arc = rng.randrange(2, loop // 3)
    start = rng.randrange(loop - arc)
    dom = build_rectangle(1.0, 8, 8, [(WIRED, start), (FREE, arc),
                                      (WIRED, loop - start - arc)])
    ram = rng.sample(sorted(dom.vertices), 2)
    cov = make_cover(dom, ram)
    assert field_error(dom, cov, inner_corner(dom, avoid=set(ram)))[0] < 1e-10


def test_pfaffian_identity_k4_on_8x8():
    dom = build_rectangle(1.0, 8, 8)
    cov = make_cover(dom, [])
    pts = random.Random(9).sample(bulk_corners(dom), 4)
    direct = fermion_multipoint(dom, cov, pts)
    pf = assemble_multipoint(lambda i, j: fermion_multipoint(
        dom, cov, [pts[i], pts[j]], avoid=pts), 4)
    assert abs(direct) > 0 and abs(direct - pf) <= 1e-10 * abs(direct)


@pytest.mark.parametrize("labels", [(WIRED, WIRED), (WIRED, FREE),
                                    (FREE, WIRED)])
def test_solver_matches_oracle_around_a_hole(labels):
    dom = MeshDomain(1.0, square(8) - HOLE_2X2, list(labels))
    assert len(dom.boundary_loops) == 2
    cov = make_cover(dom, [])
    assert field_error(dom, cov, inner_corner(dom))[0] < 1e-10


@pytest.mark.parametrize("inner", [WIRED, FREE])
@pytest.mark.parametrize("k", [7, 8, 9])
def test_free_arc_as_long_as_the_hole_loop_matches_the_oracle(k, inner):
    """A free arc of k edges on the outer loop around a hole of 8 edges; at
    k = 8 the arc is as long as the hole loop."""
    dom = MeshDomain(1.0, square(10) - HOLE_2X2,
                     [[(WIRED, 5), (FREE, k), (WIRED, 39 - k)], inner])
    assert [len(loop) for loop in dom.boundary_loops] == [44, 8]
    cov = make_cover(dom, [])
    assert field_error(dom, cov, inner_corner(dom))[0] < 1e-10


def _wired_as_plus(dom) -> PMBoundarySpec:
    """The domain's own labels as plus/free runs: each wired edge plus,
    each free edge free."""
    return PMBoundarySpec([
        [("plus" if dom.edge_label[edge_key(*oe)] == WIRED else "free", 1)
         for oe in dom.loop_edges(loop)] for loop in dom.boundary_loops])


@pytest.mark.parametrize("make", [
    lambda: build_rectangle(1.0, 3, 3, [(WIRED, 3), (FREE, 4), (WIRED, 5)]),
    lambda: MeshDomain(1.0, square(10) - HOLE_2X2, [WIRED, FREE]),
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
    cuts = [gamma] * len(obs)
    assert std.sums(obs, cuts) == mono.sums(obs, cuts)


@pytest.mark.parametrize("make", [
    lambda: MeshDomain(1.0, square(8) - square(2), [WIRED, WIRED]),
    lambda: build_annulus(1.0, 6.0, 3.0, WIRED, WIRED),
    lambda: build_annulus(1.0, 6.0, 3.0, FREE, WIRED),
    lambda: MeshDomain(1.0, square(4) - {(2, 2), (-4, 4), (4, 4)}, WIRED),
], ids=["square8-square2", "annulus_wired_wired", "annulus_free_wired",
        "notch_square4"])
def test_solver_matches_oracle_around_an_enclosing_wired_hole(make):
    """Wired loops around outside vertices that a corner walk could turn
    about (the notch is simply connected): the edge such a turn crosses can
    join two outside vertices and has no energy term, so the oracle's walk
    must not take it."""
    dom = make()
    cov = make_cover(dom, [])
    assert field_error(dom, cov, inner_corner(dom))[0] < 1e-10
