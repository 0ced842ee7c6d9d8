import math

import numpy as np
import pytest

from isinglab.exact import BETA_CRIT, corr_spin
from isinglab.lattice import (FREE, MeshDomain, PMBoundarySpec,
                              build_annulus, build_rectangle, crossing_edge,
                              edge_key)
from isinglab.montecarlo import (
    MCState, MonteCarloError, build_graph, estimate, estimates,
    integrated_autocorrelation, metropolis_sweep, wolff_update,
)


def _plus_pm(dom):
    return PMBoundarySpec([[("plus", len(dom.loop_edges(loop)))]
                           for loop in dom.boundary_loops])


def _free_pm(dom):
    return PMBoundarySpec([[("free", len(dom.loop_edges(loop)))]
                           for loop in dom.boundary_loops])


def test_free_domain_symmetry():
    dom = build_rectangle(1.0, 4, 4)
    est = estimate(dom, _free_pm(dom), ("mean_spin", sorted(dom.vertices)),
                   500, 4000, seed=13)
    assert abs(est.mean) < 3 * max(est.stderr, 1e-3)


def test_matches_exact_enumeration():
    dom = build_rectangle(1.0, 4, 4)
    pm = _plus_pm(dom)
    vv = sorted(dom.vertices)
    pairs = [([vv[5]], 21), ([vv[5], vv[10]], 22)]
    for spins, seed in pairs:
        ex = corr_spin(dom, spins, pm=pm)
        est = estimate(dom, pm, ("spin_product", spins), 1000, 8000, seed=seed)
        assert abs(est.mean - ex) <= 3 * est.stderr


def test_distance_zero_product():
    dom = build_rectangle(1.0, 3, 3)
    v = sorted(dom.vertices)[0]
    est = estimate(dom, _plus_pm(dom), ("spin_product", [v, v]), 200, 2000,
                   seed=1)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_determinism():
    dom = build_rectangle(1.0, 3, 3)
    pm = _plus_pm(dom)
    v = sorted(dom.vertices)[4]
    a = estimate(dom, pm, ("spin_product", [v]), 300, 2000, seed=5)
    b = estimate(dom, pm, ("spin_product", [v]), 300, 2000, seed=5)
    assert a == b


def test_sample_count_guard():
    dom = build_rectangle(1.0, 3, 3)
    with pytest.raises(MonteCarloError):
        estimate(dom, _plus_pm(dom), ("mean_spin", sorted(dom.vertices)),
                 10, 50, seed=0)


def _annulus(outer, inner):
    dom = build_annulus(1.0, 16.0, 8.0)
    return dom, PMBoundarySpec([[(lab, len(dom.loop_edges(loop)))]
                                for loop, lab in zip(dom.boundary_loops,
                                                     (outer, inner))])


def _assert_one_chain(dom, pm, observables, *args, **kwargs):
    """estimates() on one chain equals estimate() per observable, field
    for field and bit for bit."""
    together = estimates(dom, pm, observables, *args, **kwargs)
    alone = [estimate(dom, pm, obs, *args, **kwargs) for obs in observables]
    assert together == alone
    return together


def test_estimates_equal_estimate_on_mean_spin_rings():
    # free outer loop, plus inner loop: one pinned mega-site
    dom, pm = _annulus("free", "plus")
    rings = [("mean_spin", [v for v in dom.vertices
                            if abs(math.hypot(*v) / 2.0 - 16.0 * fr) < 1.5])
             for fr in (0.62, 0.75, 0.88)]
    ests = _assert_one_chain(dom, pm, rings, 200, 600, 1)
    assert all(e.mean > 0 and e.rejection_rate == 0 for e in ests)


def test_estimates_equal_estimate_on_a_plus_minus_annulus():
    dom, pm = _annulus("plus", "minus")
    vv = sorted(dom.vertices)
    edges = sorted(dom.interior_edges)[100:160]
    _assert_one_chain(dom, pm, [
        ("spin_product", vv[40:43]),
        ("mean_edge", edges),
        ("spin_product", [vv[7], vv[7], vv[90]]),
    ], 100, 400, 4)


def test_estimates_equal_estimate_on_a_dobrushin_square():
    dom = build_rectangle(1.0, 4, 4)
    pm = PMBoundarySpec([[("minus", 3), ("plus", 8), ("minus", 5)]])
    vv = sorted(dom.vertices)
    ests = _assert_one_chain(dom, pm, [("spin_product", [vv[5]]),
                                       ("spin_product", [vv[5], vv[10]])],
                             125, 1000, 7, n_bins=40)
    assert ests[0].rejection_rate > 0.5      # frozen-site rejections


def _reference_graph(dom, pm):
    """Site numbering, CSR and padded neighbour table of the coupling
    graph, built one edge at a time: the interior edges, then the non-free
    crossing edges, each in sorted order."""
    labels = pm.edge_labels(dom)
    verts = sorted(dom.vertices)
    index = {v: i for i, v in enumerate(verts)}
    comp_of, mega = {}, {}
    for k, loop in enumerate(dom.boundary_loops):
        labs = {labels[edge_key(*oe)] for oe in dom.loop_edges(loop)} - {FREE}
        comp_of.update(dict.fromkeys(loop, k))
        if len(labs) == 1:
            mega[k] = len(verts) + len(mega)
    next_site = len(verts) + len(mega)
    edges = [(index[a], index[b]) for a, b in sorted(dom.interior_edges)]
    for e in sorted(dom.crossing_edges):
        de = crossing_edge(e)
        if labels[de] == FREE:
            continue
        vin, vout = e if e[0] in dom.vertices else e[::-1]
        if comp_of[de[0]] in mega:
            edges.append((index[vin], mega[comp_of[de[0]]]))
            continue
        if vout not in index:
            index[vout] = next_site
            next_site += 1
        edges.append((index[vin], index[vout]))
    rows = [[] for _ in range(next_site)]
    for a, b in edges:
        rows[a].append(b)
        rows[b].append(a)
    nbr = [row + [next_site] * (4 - len(row)) for row in rows[:len(verts)]]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return index, indptr, [w for row in rows for w in row], nbr


@pytest.mark.parametrize("case", ["annulus", "dobrushin"])
def test_graph_matches_a_per_edge_construction(case):
    if case == "annulus":           # one pinned mega-site
        dom, pm = _annulus("free", "plus")
    else:                           # frozen sites
        dom = build_rectangle(1.0, 6, 5)
        pm = PMBoundarySpec([[("minus", 5), ("plus", 9), ("free", 2),
                              ("minus", 6)]])
    g = build_graph(dom, pm)
    index, indptr, other, nbr = _reference_graph(dom, pm)
    assert g.index_of == index
    assert g.edge_csr[0].tolist() == indptr.tolist()
    assert g.edge_csr[1].tolist() == other
    assert g.neighbors.tolist() == nbr
    assert g.n_sites == len(indptr) - 1
    assert (g.n_free < g.n_sites) == (case == "dobrushin")


def _reference_series(dom, pm, observable, n_therm, n_samples, seed):
    """The series estimate() averages, one sample at a time in floats: the
    spins by vertex lookup, odd observables times the signs of the pinned
    mega-sites (flip identity)."""
    g = build_graph(dom, pm)
    st = MCState(g, seed)
    for i in range(n_therm):
        wolff_update(st)
        if i % 10 == 0:
            metropolis_sweep(st)
    kind, payload = observable
    spin = lambda v: float(st.spins[g.index_of[v]])
    series = []
    for i in range(n_samples):
        wolff_update(st)
        if i % 10 == 0:
            metropolis_sweep(st)
        sign = math.prod(st.component_sign(s) for s in g.mega_value)
        if kind == "mean_edge":
            series.append(sum(spin(a) * spin(b) for a, b in payload)
                          / len(payload))
        elif kind == "mean_spin":
            series.append(sum(map(spin, payload)) / len(payload) * sign)
        else:
            prod = math.prod(map(spin, payload))
            series.append(prod * sign if len(payload) % 2 else prod)
    return np.array(series)


@pytest.mark.parametrize("kind", ["spin_product", "mean_spin", "mean_edge"])
def test_estimate_averages_the_reference_series(kind):
    dom, pm = _annulus("plus", "minus")
    vv = sorted(dom.vertices)
    payload = {"spin_product": vv[40:43], "mean_spin": vv[::7],
               "mean_edge": sorted(dom.interior_edges)[::9]}[kind]
    est = estimate(dom, pm, (kind, payload), 50, 400, 6)
    series = _reference_series(dom, pm, (kind, payload), 50, 400, 6)
    assert est.mean == float(series.reshape(20, -1).mean(axis=1).mean())
    assert est.tau == integrated_autocorrelation(series)


@pytest.mark.parametrize("observable", [
    ("mean_spin", []),
    ("mean_edge", []),
    ("mean_edge", [((0, 0),)]),
    ("spin_product", [(1001, 1001)]),
    ("mean_spin", [(0, 0), (1001, 1001)]),
    ("energy", [(0, 0)]),
])
def test_bad_observable_is_refused_before_the_chain(observable):
    # a chain of 10^9 updates would not end: the error must come first
    dom = build_rectangle(1.0, 3, 3)
    with pytest.raises(MonteCarloError):
        estimates(dom, _plus_pm(dom), [("mean_spin", sorted(dom.vertices)),
                                       observable], 10 ** 9, 200, seed=0)


def test_no_observables_and_one_bin_are_refused():
    dom = build_rectangle(1.0, 3, 3)
    obs = ("mean_spin", sorted(dom.vertices))
    with pytest.raises(MonteCarloError):
        estimates(dom, _plus_pm(dom), [], 10 ** 9, 200, seed=0)
    with pytest.raises(MonteCarloError):
        estimate(dom, _plus_pm(dom), obs, 10 ** 9, 200, seed=0, n_bins=1)


def test_detailed_balance_three_spin_chain():
    """Empirical stationary distribution of a three-spin chain with a
    pinned end matches the Gibbs weights."""
    dom = MeshDomain(1.0, {(0, 0), (2, 2), (4, 4)})
    L = len(dom.loop_edges(dom.boundary_loops[0]))
    labels = []
    # pin exactly the arcs adjacent to one end vertex
    edges = dom.loop_edges(dom.boundary_loops[0])
    from isinglab.lattice import crossing_edge, edge_key
    runs = []
    for oe in edges:
        ce = crossing_edge(edge_key(*oe))
        outer = ce[0] if ce[0] not in dom.vertices else ce[1]
        near_end = abs(outer[0] - 0) + abs(outer[1] - 0) <= 4
        runs.append("plus" if near_end else "free")
    spec = [[(lab, 1) for lab in runs]]
    pm = PMBoundarySpec(spec)
    g = build_graph(dom, pm)
    st = MCState(g, 7)
    mega = [s for s in range(g.n_interior, g.n_free)
            if g.mega_value.get(s, 0) != 0]
    counts = {}
    n_updates = 200_000
    for i in range(n_updates):
        wolff_update(st)
        if i % 5 == 0:
            metropolis_sweep(st)
        flip = 1
        for s in mega:
            flip *= st.component_sign(s)
        key = tuple(int(x) * flip for x in st.spins[:3])
        counts[key] = counts.get(key, 0) + 1
    # Gibbs weights over the three chain spins with the pinned-end field
    idx = {v: g.index_of[v] for v in ((0, 0), (2, 2), (4, 4))}
    n_pins = {v: 0 for v in idx}
    from isinglab.lattice import crossing_edge as ce2
    for e in dom.crossing_edges:
        vin = e[0] if e[0] in dom.vertices else e[1]
        de = ce2(e)
        lab = pm.edge_labels(dom)[de]
        if lab == "plus":
            n_pins[vin] += 1
    weights = {}
    for s0 in (1, -1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                conf = {(0, 0): s0, (2, 2): s1, (4, 4): s2}
                e = s0 * s1 + s1 * s2
                e += sum(conf[v] * n_pins[v] for v in conf)
                spins = [0, 0, 0]
                for v, s in conf.items():
                    spins[idx[v]] = s
                weights[tuple(spins)] = math.exp(BETA_CRIT * e)
    ztot = sum(weights.values())
    for key, w in weights.items():
        p_emp = counts.get(key, 0) / n_updates
        p_th = w / ztot
        sigma = math.sqrt(p_th * (1 - p_th) / n_updates) * math.sqrt(10)
        assert abs(p_emp - p_th) < 4 * max(sigma, 5e-4), (key, p_emp, p_th)


def test_autocorrelation_reported():
    x = np.sin(np.arange(4000) * 0.01) + np.random.default_rng(0).normal(
        size=4000)
    tau = integrated_autocorrelation(x)
    assert tau > 0.5
