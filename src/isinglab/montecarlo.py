"""Wolff single-cluster Monte Carlo at the critical coupling BETA_CRIT.

Boundary handling: a boundary component whose non-free part carries a
single label (all plus, all minus, or wired) is represented by one
flippable mega-site tied to all its outer vertices; correlations in the
pinned ensemble are measured through the global flip identity
E_pinned[X] = E_unpinned[X * s_component], which keeps the cluster
dynamics ergodic.  Components mixing plus and minus arcs fall back to
frozen spins with cluster rejection, mitigated by interleaved
checkerboard Metropolis sweeps.

The generator is counter-based (Philox) keyed by the seed, so runs are
reproducible.  One call of estimates() runs one Markov chain and measures
all its observables on every sample of it; estimate() is the same with a
single observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import BETA_CRIT
from .lattice import (FREE, MINUS, PLUS, WIRED, MeshDomain,
                      PMBoundarySpec, edge_key)


# Wolff bond probability between equal spins.
P_ADD = 1.0 - math.exp(-2.0 * BETA_CRIT)

# Cluster updates per checkerboard Metropolis sweep; without the sweeps,
# chains with frozen sites decorrelate several times more slowly.
SWEEP_EVERY = 10


class MonteCarloError(ValueError):
    pass


@dataclass
class CouplingGraph:
    """Sites: interior vertices, then one mega-site per monochromatic
    boundary component, then frozen sites of mixed components, then a
    zero-spin sentinel used as padding."""

    n_free: int                  # interior + mega-sites (all flippable)
    n_interior: int
    n_sites: int
    neighbors: np.ndarray        # (n_interior, 4) indices for Metropolis
    edge_csr: tuple              # (indptr, edge_other) per site for Wolff
    frozen: np.ndarray
    frozen_value: np.ndarray
    index_of: dict
    mega_value: dict             # site index -> pinned value (+-1) or 0 (wired)
    color_groups: list = field(default_factory=list)


def build_graph(domain: MeshDomain,
                pm: PMBoundarySpec | None = None) -> CouplingGraph:
    """The coupling graph under the plus/minus/free labels of pm, or under
    the domain's own wired/free labels when pm is None."""
    labels = pm.edge_labels(domain) if pm is not None else domain.edge_label
    index = dict(domain.vertex_index)
    n_interior = len(index)

    # classify boundary components
    comp_label: dict[int, str | None] = {}
    for k, loop in enumerate(domain.boundary_loops):
        labs = {labels[edge_key(*oe)] for oe in domain.loop_edges(loop)}
        labs.discard(FREE)
        if not labs:
            comp_label[k] = None
        elif len(labs) == 1:
            comp_label[k] = labs.pop()
        else:
            comp_label[k] = "mixed"
    dual_to_comp = {}
    for k, loop in enumerate(domain.boundary_loops):
        for u in loop:
            dual_to_comp[u] = k

    mega_site: dict[int, int] = {}
    mega_value: dict[int, int] = {}
    next_site = n_interior
    for k, lab in comp_label.items():
        if lab in (PLUS, MINUS, WIRED):
            mega_site[k] = next_site
            mega_value[next_site] = {PLUS: 1, MINUS: -1, WIRED: 0}[lab]
            next_site += 1
    n_free = next_site

    # edges: the interior ones, then the non-free crossing ones, each in
    # sorted order
    frozen_vals: dict[tuple, int] = {}
    crossing: list[tuple[int, int]] = []
    for de, (vin, vout) in domain.sides.items():
        lab = labels[de]
        if lab == FREE:
            continue
        comp = dual_to_comp[de[0]]
        if comp in mega_site:
            crossing.append((index[vin], mega_site[comp]))
        else:
            val = 1 if lab == PLUS else -1
            if frozen_vals.get(vout, val) != val:
                raise MonteCarloError(f"conflicting pins at {vout}")
            if vout not in index:
                frozen_vals[vout] = val
                index[vout] = next_site
                next_site += 1
            crossing.append((index[vin], index[vout]))
    edges = np.concatenate([domain.interior_pairs,
                            np.array(crossing, dtype=np.int64).reshape(-1, 2)])
    n_sites = next_site
    sentinel = n_sites

    # each site's edges in edge order: a stable sort of the endpoints
    ends = edges.ravel()
    order = np.argsort(ends, kind="stable")
    other = edges[:, ::-1].ravel()[order]
    deg = np.bincount(ends, minlength=n_sites)
    indptr = np.zeros(n_sites + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    # the padded table holds the interior sites' rows, at most 4 each
    site = np.repeat(np.arange(n_interior), deg[:n_interior])
    nbr = np.full((n_interior, 4), sentinel, dtype=np.int64)
    nbr[site, np.arange(len(site)) - indptr[site]] = other[:len(site)]

    frozen = np.zeros(n_sites, dtype=bool)
    frozen[n_free:] = True
    fval = np.zeros(n_sites, dtype=np.int8)
    for v, val in frozen_vals.items():
        fval[index[v]] = val
    graph = CouplingGraph(n_free, n_interior, n_sites, nbr,
                          (indptr, other), frozen, fval, index, mega_value)
    colors = (domain.vertex_xy[:, 0] % 4) // 2
    graph.color_groups = [np.where(colors == c)[0] for c in (0, 1)]
    return graph


@dataclass
class MCState:
    graph: CouplingGraph
    seed: int
    spins: np.ndarray = field(init=False)
    rng: np.random.Generator = field(init=False)
    n_updates: int = 0
    n_rejected: int = 0

    def __post_init__(self):
        self.rng = np.random.Generator(
            np.random.Philox(key=[self.seed, 0]))
        g = self.graph
        spins = self.rng.choice(np.array([-1, 1], dtype=np.int8), g.n_sites)
        for s, val in g.mega_value.items():
            spins[s] = val if val != 0 else spins[s]
        spins[g.frozen] = g.frozen_value[g.frozen]
        self.spins = np.concatenate([spins, np.zeros(1, dtype=np.int8)])

    def component_sign(self, site: int) -> int:
        """Spin of a mega-site relative to its pinned target (+1 for wired)."""
        target = self.graph.mega_value.get(site, 0)
        if target == 0:
            return 1
        return int(self.spins[site]) * target


def wolff_update(state: MCState) -> int:
    """One single-cluster update; clusters touching a frozen site of a
    mixed component are rejected (size 0 reported)."""
    g = state.graph
    indptr, other = g.edge_csr
    seed = int(state.rng.integers(0, g.n_free))
    spin0 = state.spins[seed]
    same = state.spins == spin0
    open_ = same.copy()          # same spin and not yet in the cluster
    open_[seed] = False
    frontier = np.array([seed], dtype=np.int64)
    while True:
        # neighbours of the frontier in CSR order; frontier is sorted, so
        # an all-interior frontier takes the padded table (sentinel is
        # closed), which makes an update about 1.5x faster than the CSR
        # gather alone; mega-sites have too many neighbours to pad
        if frontier[-1] < g.n_interior:
            cand = g.neighbors[frontier].ravel()
        else:
            starts = indptr[frontier]
            lens = indptr[frontier + 1] - starts
            offs = np.cumsum(lens)
            cand = other[np.arange(offs[-1])
                         + np.repeat(starts - offs + lens, lens)]
        cand = cand[open_[cand]]
        if not len(cand):
            break
        cand = cand[state.rng.random(len(cand)) < P_ADD]
        if not len(cand):
            break
        # np.unique, without its overhead on a few dozen candidates
        cand.sort()
        first = np.empty(len(cand), dtype=bool)
        first[0] = True
        np.not_equal(cand[1:], cand[:-1], out=first[1:])
        cand = cand[first]
        open_[cand] = False
        # frozen sites are numbered last, and cand is sorted
        if cand[-1] >= g.n_free:
            state.n_updates += 1
            state.n_rejected += 1
            return 0
        frontier = cand
    state.n_updates += 1
    members = same & ~open_
    state.spins[members] = -spin0
    return int(np.count_nonzero(members))


def metropolis_sweep(state: MCState):
    """Vectorized checkerboard sweep over the interior sites."""
    g = state.graph
    for group in g.color_groups:
        field_sum = state.spins[g.neighbors[group]].sum(axis=1)
        cur = state.spins[group]
        dE = 2.0 * cur * field_sum
        accept = state.rng.random(len(group)) < np.exp(-BETA_CRIT * dE)
        state.spins[group[accept]] = -cur[accept]


@dataclass
class Estimate:
    mean: float
    stderr: float
    n_samples: int
    ess: float
    tau: float
    rejection_rate: float


def _read_plan(graph: CouplingGraph, observables):
    """Resolve the observables to site indices before any update.

    Returns the sites a sample reads (the pinned mega-sites, then each
    observable's vertices in turn, a mean_edge's first endpoints before
    its second ones), one (kind, start, count) per observable, and the
    pinned mega-sites with their targets."""
    if not observables:
        raise MonteCarloError("no observables to measure")
    pinned = {s: t for s, t in graph.mega_value.items() if t != 0}
    read = list(pinned)
    plan = []
    for k, obs in enumerate(observables):
        kind, payload = obs[0], list(obs[1])
        if kind not in ("spin_product", "mean_spin", "mean_edge"):
            raise MonteCarloError(f"observable {k}: unknown kind {kind!r}")
        if kind != "spin_product" and not payload:
            raise MonteCarloError(f"observable {k} ({kind}) is empty")
        verts = payload
        if kind == "mean_edge":
            if any(len(e) != 2 for e in payload):
                raise MonteCarloError(
                    f"observable {k} (mean_edge): an edge is not a pair")
            verts = [e[0] for e in payload] + [e[1] for e in payload]
        try:
            sites = [graph.index_of[tuple(v)] for v in verts]
        except KeyError as ex:
            raise MonteCarloError(f"observable {k} ({kind}): vertex "
                                  f"{ex.args[0]} is not in the graph") from None
        plan.append((kind, len(read), len(sites)))
        read += sites
    return np.array(read, dtype=np.int64), plan, pinned


def _summarize(series: np.ndarray, n_bins: int, rejection_rate: float
               ) -> Estimate:
    n_samples = len(series)
    bins = series[: n_samples - n_samples % n_bins].reshape(n_bins, -1)
    bmeans = bins.mean(axis=1)
    mean = float(bmeans.mean())
    jk = (bmeans.sum() - bmeans) / (n_bins - 1)
    stderr = float(np.sqrt((n_bins - 1) / n_bins * np.sum((jk - jk.mean()) ** 2)))
    tau = integrated_autocorrelation(series)
    ess = n_samples / (2 * tau) if tau > 0 else float(n_samples)
    return Estimate(mean, stderr, n_samples, ess, tau, rejection_rate)


def estimates(domain: MeshDomain, pm: PMBoundarySpec | None, observables,
              n_therm: int, n_samples: int, seed: int,
              n_bins: int = 20) -> list[Estimate]:
    """One Markov chain, every observable measured on every sample.

    An observable is (kind, payload): ("spin_product", vertices),
    ("mean_spin", vertices) or ("mean_edge", [(a, b), ...]).  They are
    resolved to sites before the chain runs, so a bad one raises
    MonteCarloError at once.  One sample per cluster update, a Metropolis
    sweep every SWEEP_EVERY updates.  Each sample gathers the spins of
    every observable and of the pinned mega-sites into one int8 row; the
    rows are reduced after the chain, in integer arithmetic, so the
    estimates equal those of separate estimate() calls on the same chain.
    Each Estimate has the binned mean and jackknife standard error, and
    its effective sample size comes from the integrated autocorrelation
    of its series; deterministic in the seed.
    """
    if n_bins < 2:
        raise MonteCarloError("need at least 2 bins for a standard error")
    if n_samples < 10 * n_bins:
        raise MonteCarloError("need at least 10 samples per bin")
    graph = build_graph(domain, pm)
    read, plan, pinned = _read_plan(graph, observables)
    state = MCState(graph, seed)
    for i in range(n_therm):
        wolff_update(state)
        if i % SWEEP_EVERY == 0:
            metropolis_sweep(state)
    rec = np.empty((n_samples, len(read)), dtype=np.int8)
    for i in range(n_samples):
        wolff_update(state)
        if i % SWEEP_EVERY == 0:
            metropolis_sweep(state)
        rec[i] = state.spins[read]
    # odd observables take the pinned-component sign (flip identity);
    # even ones are flip-invariant
    sign = np.prod(rec[:, :len(pinned)], axis=1, dtype=np.int8)
    sign *= math.prod(pinned.values())
    rej = state.n_rejected / max(1, state.n_updates)
    out = []
    for kind, start, count in plan:
        block = rec[:, start:start + count]
        if kind == "spin_product":
            series = np.prod(block, axis=1, dtype=np.int8).astype(float)
            if count % 2:
                series *= sign
        elif kind == "mean_spin":
            series = block.sum(axis=1, dtype=np.int64) / count * sign
        else:
            half = count // 2
            series = (block[:, :half] * block[:, half:]).sum(
                axis=1, dtype=np.int64) / half
        out.append(_summarize(series, n_bins, rej))
    return out


def estimate(domain: MeshDomain, pm: PMBoundarySpec | None, observable,
             n_therm: int, n_samples: int, seed: int,
             n_bins: int = 20) -> Estimate:
    """One observable on its own chain: estimates() with a single
    observable."""
    return estimates(domain, pm, [observable], n_therm, n_samples, seed,
                     n_bins)[0]


def integrated_autocorrelation(series: np.ndarray) -> float:
    """Integrated autocorrelation time, summed up to the first lag t with
    t >= 6 tau (an adaptive window)."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    var = float(np.dot(x, x)) / len(x)
    if var == 0:
        return 0.5
    tau = 0.5
    for t in range(1, min(len(x) // 4, 2000)):
        rho = float(np.dot(x[:-t], x[t:])) / ((len(x) - t) * var)
        tau += rho
        if t >= 6.0 * tau:
            break
    return max(tau, 0.5)
