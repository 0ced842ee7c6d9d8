"""Exact sums for the critical Ising model on small domains.

Partition functions and correlations (spin, disorder, energy, fermionic,
plus/minus boundary conditions) are computed exactly, at the critical
coupling BETA_CRIT, by contracting the Boltzmann weight one variable at a
time over a moving frontier, as in the row transfer matrix.  There is one
boundary assignment, Enumeration(domain, pm=None, mono=False): standard
boundary conditions are the locally monochromatic ensemble of the domain's
own labels, each wired arc plus, so every complement component with a
wired arc gets one extra binary variable, which joins the frontier first;
a plus/minus/free PMBoundarySpec is pinned, or locally monochromatic with
mono=True.  Free arcs are excluded from the energy.  Each query is one
contraction: every row of Enumeration.sums carries its own dual-edge cut,
so a fermion field sums all its corners and its denominator at once.  A
sum costs O(V * 2^w) for a frontier of w variables, so the cost limits the
domain's width (MAX_FRONTIER variables), not its number of spins.  The
sums are plain Boltzmann weights in float64, which sets a second limit on
the number of spins: ln Z grows by about 1 per spin (0.93 in the bulk,
more next to a wired arc) and float64 ends at ln Z = 709, so a wired block
of more than about 700 free spins overflows.  Both limits raise
EnumerationError.

Serves as the ground-truth oracle for the solver and Monte Carlo modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    CORNER_STEPS, DIAG_STEPS, FREE, MINUS, PLUS, CornerPoint, DoubleCover,
    MeshDomain, PMBoundarySpec, base_phase, bfs, bfs_path,
    corner_direction, corner_neighbors, corner_phase, crossing_edge,
    edge_key, is_primal, make_cover, neighbors_in, reduce_mod2,
    rotation_vertex, step_crossed_edge, transport_side,
)

BETA_CRIT = 0.5 * math.log(math.sqrt(2.0) + 1.0)

# Widest frontier contracted, in variables: a table of 2^22 doubles is 32 MB.
# A batch of rows keeps its table, and its rows' factors, within that size.
# The other limit is overflow of Z itself, about 700 spins at beta_c (see
# the module docstring); it shows as a non-finite sum.
MAX_FRONTIER = 22
_TABLE_ENTRIES = 1 << MAX_FRONTIER

_PAIR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_FIELD_SIGNS = np.array([1.0, -1.0])


class EnumerationError(ValueError):
    pass


@dataclass
class _Expr:
    """Spin value of a site as coef * s_var (var None means constant 1)."""
    coef: int
    var: int | None


@dataclass
class _Step:
    """Adding one variable to the frontier: its couplings to variables
    already there (broadcast shape, pair number), the broadcast shape of
    its per-row factors, then the table axes summed out because every
    neighbour of their variable is in."""
    var: int
    couplings: list
    sign_shape: tuple
    eliminate: tuple


class Enumeration:
    """Exact configuration sums for one domain and boundary treatment.

    pm None: the domain's own labels, the standard boundary conditions.
      Every wired edge counts as plus, so each complement component with a
      wired arc is one boundary spin summed through one bit (the locally
      monochromatic ensemble of those labels); free arcs are decoupled.
    pm given: its plus/minus arcs are pinned to +-1, or with mono=True
      locally monochromatic: one bit per component, the spin of its minus
      arcs opposite to that of its plus arcs.

    The energy is reduced once to pair couplings, one-variable fields and a
    constant; each `sums` call folds each distinct cut into them once and
    contracts a table of shape (rows, 2^frontier) vertex by vertex,
    sweeping along the lattice axis that keeps the frontier narrower.
    """

    def __init__(self, domain: MeshDomain, pm: PMBoundarySpec | None = None,
                 mono: bool = False):
        self.domain = domain
        self.labels = (domain.edge_label if pm is None
                       else pm.edge_labels(domain))
        self.vert_index = domain.vertex_index
        verts = list(self.vert_index)
        self.exprs: dict[tuple, _Expr] = {
            v: _Expr(1, i) for v, i in self.vert_index.items()}
        nbits = self._assign_outer(pinned=pm is not None and not mono)
        self.n_free = len(verts) + nbits
        self._build_edges(verts)
        self._reduce_energy()
        self._plan(verts)

    # -- boundary assignment -------------------------------------------

    def _assign_outer(self, pinned: bool) -> int:
        """Spin at the outer end of each crossing edge that is not free:
        +-1 when pinned, else +- one bit per boundary loop that is not all
        free.  The sign is + on plus and wired edges and - on minus edges,
        so along a loop it flips where plus meets minus, across a free arc
        or not."""
        dom = self.domain
        nbits = 0
        for loop in dom.boundary_loops:
            edges = [edge_key(*oe) for oe in dom.loop_edges(loop)]
            if all(self.labels[de] == FREE for de in edges):
                continue
            var = None
            if not pinned:
                var = len(dom.vertices) + nbits
                nbits += 1
            for de in edges:
                if self.labels[de] != FREE:
                    coef = -1 if self.labels[de] == MINUS else 1
                    self._set_outer(de, _Expr(coef, var))
        return nbits

    def _set_outer(self, de, expr: _Expr):
        p_out = self.domain.sides[de][1]
        old = self.exprs.get(p_out)
        if old is not None and (old.coef, old.var) != (expr.coef, expr.var):
            raise EnumerationError(
                f"conflicting boundary values at outer vertex {p_out}")
        self.exprs[p_out] = expr

    # -- energy ----------------------------------------------------------

    def _build_edges(self, verts):
        dom = self.domain
        # interior edges join two vertex variables
        self.edge_terms: dict[tuple, tuple[int, int | None, int | None]] = {
            (verts[i], verts[j]): (1, i, j)
            for i, j in dom.interior_pairs.tolist()}
        for de, (vin, vout) in dom.sides.items():
            if self.labels[de] == FREE:
                continue
            a, b = self.exprs[vin], self.exprs[vout]
            self.edge_terms[edge_key(vin, vout)] = (a.coef * b.coef, a.var,
                                                    b.var)

    def _reduce_energy(self):
        """Energy as const + sum_v h_v s_v + sum_(a,b) J_ab s_a s_b; parallel
        terms (a corner vertex has two crossing edges to one loop bit) add."""
        pairs = sorted({(min(va, vb), max(va, vb))
                        for _, va, vb in self.edge_terms.values()
                        if va is not None and vb is not None})
        self._pair_index = {p: k for k, p in enumerate(pairs)}
        self._couplings = np.zeros(len(pairs))
        self._fields = np.zeros(self.n_free)
        self._const = self._fold(self.edge_terms.values(), 1, self._couplings,
                                 self._fields)

    def _fold(self, terms, weight, couplings, fields) -> float:
        """Add weight * terms into couplings and fields; return the part
        that is constant."""
        const = 0
        for coef, va, vb in terms:
            if va is None and vb is None:
                const += weight * coef
            elif va is None or vb is None:
                fields[va if vb is None else vb] += weight * coef
            else:
                couplings[self._pair_index[min(va, vb), max(va, vb)]] += \
                    weight * coef
        return const

    def gamma_terms(self, gamma) -> list:
        """Energy terms of included edges crossed by the dual-edge set gamma."""
        terms = []
        for de in gamma:
            e = crossing_edge(edge_key(*de))
            t = self.edge_terms.get(e)
            if t is not None:
                terms.append(t)
        return terms

    # -- contraction -----------------------------------------------------

    def _plan(self, verts):
        """Fix the elimination order: loop bits first, then the vertices
        swept along whichever lattice axis gives the narrower frontier."""
        nbrs: list[list[int]] = [[] for _ in range(self.n_free)]
        for a, b in self._pair_index:
            nbrs[a].append(b)
            nbrs[b].append(a)
        bits = list(range(len(verts), self.n_free))
        best = None
        for axis in (lambda v: (v[0] + v[1], v[1] - v[0]),
                     lambda v: (v[1] - v[0], v[0] + v[1])):
            order = bits + sorted(range(len(verts)),
                                  key=lambda i: axis(verts[i]))
            steps, width = self._schedule(order, nbrs)
            if best is None or width < best[1]:
                best = (steps, width)
        self._steps, self.frontier_width = best
        if self.frontier_width > MAX_FRONTIER:
            raise EnumerationError(
                f"frontier of {self.frontier_width} variables exceeds the "
                f"contraction limit of {MAX_FRONTIER}")

    def _schedule(self, order, nbrs):
        pos = {var: i for i, var in enumerate(order)}
        last = {var: max([pos[var]] + [pos[u] for u in nbrs[var]])
                for var in order}
        frontier: list[int] = []
        steps = []
        width = 0
        for i, var in enumerate(order):
            ndim = len(frontier) + 2
            couplings = []
            for u in nbrs[var]:
                if pos[u] < i:
                    shape = [1] * ndim
                    shape[1 + frontier.index(u)] = 2
                    shape[-1] = 2
                    pair = self._pair_index[min(u, var), max(u, var)]
                    couplings.append((tuple(shape), pair))
            frontier.append(var)
            width = max(width, len(frontier))
            gone = [k for k, u in enumerate(frontier) if last[u] == i]
            steps.append(_Step(var, couplings,
                               (-1,) + (1,) * (ndim - 2) + (2,),
                               tuple(1 + k for k in gone)))
            frontier = [u for u in frontier if last[u] != i]
        return steps, width

    def _observable(self, obs) -> tuple[int, list[int]]:
        """(coef, variables) with obs = coef * prod of those variables."""
        coef = 1
        odd: set = set()
        for s in obs:
            ex = self.exprs.get(tuple(s))
            if ex is None:
                raise EnumerationError(
                    f"no spin value at {s} (free boundary?)")
            coef *= ex.coef
            if ex.var is not None:
                odd.symmetric_difference_update({ex.var})
        return coef, sorted(odd)

    def sums(self, observables, cuts=None) -> list[float]:
        """[sum_config mu_gamma(config) * w(config) * prod_{S} sigma] per
        row (S, gamma), all rows in one contraction.

        observables: list of spin collections (each reduced mod 2 first).
        cuts: one dual-edge set gamma per observable; None cuts no row.
        Rows are contracted a batch at a time; each distinct cut of a
        batch is folded into the couplings once, and each row's pair and
        field factors are those of its cut.
        """
        n = len(observables)
        if cuts is None:
            cuts = [()] * n
        elif len(cuts) != n:
            raise ValueError(f"{len(cuts)} cuts for {n} observables")
        coefs = np.ones(n)
        signs = np.ones((n, self.n_free))
        for i, obs in enumerate(observables):
            coefs[i], odd = self._observable(obs)
            signs[i, odd] = -1.0
        index: dict[frozenset, int] = {}
        cut_of = np.array([index.setdefault(frozenset(g), len(index))
                           for g in cuts], dtype=np.intp)
        distinct = list(index)
        # a batch's table, and its rows' factors (five entries per pair,
        # three per variable, counting the folded couplings), each stay
        # within _TABLE_ENTRIES
        per_row = max(1, 5 * len(self._couplings) + 3 * self.n_free)
        batch = max(1, min(_TABLE_ENTRIES >> self.frontier_width,
                           _TABLE_ENTRIES // per_row))
        out = np.zeros(n)
        scale = np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, batch):
                rows = slice(lo, lo + batch)
                used, local = np.unique(cut_of[rows], return_inverse=True)
                couplings = np.tile(self._couplings, (len(used), 1))
                fields = np.tile(self._fields, (len(used), 1))
                const = np.array([
                    self._const + self._fold(self.gamma_terms(distinct[j]),
                                             -2, couplings[i], fields[i])
                    for i, j in enumerate(used)], dtype=float)
                pair_f = np.exp(BETA_CRIT * couplings[local, :, None, None]
                                * _PAIR_SIGNS)
                field_f = np.exp(BETA_CRIT * fields[local, :, None]
                                 * _FIELD_SIGNS)
                out[rows] = self._contract(pair_f, field_f, signs[rows])
                scale[rows] = np.exp(BETA_CRIT * const[local])
            out *= coefs * scale
        if not np.all(np.isfinite(out)):
            raise EnumerationError("non-finite configuration sum")
        return out.tolist()

    def _contract(self, pair_f, field_f, signs) -> np.ndarray:
        """The sums of one batch of rows, before the constant factor, from
        the pair factors pair_f[row, pair] and field factors
        field_f[row, variable] of each row."""
        flipped = signs.min(axis=0) < 0
        table = np.ones(len(signs))
        for st in self._steps:
            factor = field_f[:, st.var].reshape(st.sign_shape)
            for shape, k in st.couplings:
                factor = factor * pair_f[:, k].reshape((-1,) + shape[1:])
            if flipped[st.var]:
                sv = np.ones((len(signs), 2))
                sv[:, 1] = signs[:, st.var]
                factor = factor * sv.reshape(st.sign_shape)
            table = table[..., None] * factor
            if st.eliminate:
                table = table.sum(axis=st.eliminate)
        return table


# -- public correlation functions ----------------------------------------


def partition_function(domain: MeshDomain,
                       pm: PMBoundarySpec | None = None) -> float:
    en = Enumeration(domain, pm)
    (z,) = en.sums([()])
    return z


def corr_spin(domain: MeshDomain, vertices,
              pm: PMBoundarySpec | None = None) -> float:
    """E[sigma_v1 ... sigma_vn]; exactly zero for odd counts under the
    flip-symmetric standard boundary conditions."""
    spins = reduce_mod2(vertices)
    if pm is None and len(spins) % 2 == 1:
        return 0.0
    en = Enumeration(domain, pm)
    num, z = en.sums([spins, ()])
    return num / z


def corr_disorder_spin(domain: MeshDomain, gamma, vertices=(),
                       pm: PMBoundarySpec | None = None) -> float:
    """E[mu_gamma sigma_v1 ... sigma_vn] for an explicit dual-edge cut."""
    spins = reduce_mod2(vertices)
    en = Enumeration(domain, pm)
    num, z = en.sums([spins, ()], [gamma, ()])
    return num / z


def corr_energy(domain: MeshDomain, edges, spins=(),
                pm: PMBoundarySpec | None = None) -> float:
    """E[eps_e1 ... eps_es sigma_v...] with eps = sqrt2 (sigma sigma - 1/sqrt2).

    Repeated edges expand via eps^2 = 3 - 2 sqrt2 sigma sigma.
    """
    en = Enumeration(domain, pm)
    return _pm_content_value(en, spins, edges)


def corr_pm(domain: MeshDomain, pm: PMBoundarySpec, spins=(), energy_edges=(),
            check_tol: float | None = 1e-10) -> float:
    """Correlation under plus/minus/free boundary conditions.

    Computed directly with pinned boundary spins, and again through the
    locally monochromatic ensemble expanded over products of one marked
    boundary spin per component; the two routes must agree.
    """
    direct = _pm_direct(domain, pm, spins, energy_edges)
    via_mono = _pm_via_mono(domain, pm, spins, energy_edges)
    if check_tol is not None:
        scale = max(1.0, abs(direct))
        if abs(direct - via_mono) > check_tol * scale:
            raise EnumerationError(
                f"pm routes disagree: {direct} vs {via_mono}")
    return direct


def _energy_terms(en: Enumeration, spins, energy_edges) -> list[tuple]:
    """(coefficient, spin tuple) pairs summing to prod sigma * prod eps_e,
    with eps_e = sqrt2 (sigma sigma - 1/sqrt2) expanded over edge subsets;
    sigma sigma over an edge is the product of its two endpoint spins."""
    edges = [edge_key(*e) for e in energy_edges]
    for e in edges:
        if e not in en.edge_terms:
            raise EnumerationError(f"energy edge {e} crosses a free arc")
    terms = []
    for mask in range(1 << len(edges)):
        sub = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        coef = math.sqrt(2.0) ** len(edges) * (-1 / math.sqrt(2.0)) ** (
            len(edges) - len(sub))
        ends = [v for e in sub for v in e]
        terms.append((coef, reduce_mod2(tuple(spins) + tuple(ends))))
    return terms


def _expanded_sums(en: Enumeration, groups, cuts=None) -> list[float]:
    """sum_k coef_k * sums(spins_k) for each group of (coef, spins_k)
    terms, all in one contraction; cuts, if given, has one cut per group."""
    rows = [s for terms in groups for _, s in terms]
    if cuts is not None:
        cuts = [g for terms, g in zip(groups, cuts) for _ in terms]
    vals = iter(en.sums(rows, cuts))
    out = []
    for terms in groups:
        total = 0.0
        for coef, _ in terms:
            total += coef * next(vals)
        out.append(total)
    return out


def _pm_content_value(en: Enumeration, spins, energy_edges) -> float:
    total, z = _expanded_sums(en, [_energy_terms(en, spins, energy_edges),
                                   [(1.0, ())]])
    return total / z


def _pm_direct(domain, pm, spins, energy_edges) -> float:
    en = Enumeration(domain, pm)
    return _pm_content_value(en, spins, energy_edges)


def _pm_via_mono(domain, pm, spins, energy_edges) -> float:
    """Fourier-Walsh expansion over marked boundary spins in the locally
    monochromatic ensemble."""
    en = Enumeration(domain, pm, mono=True)
    labels = en.labels
    marks: list[tuple] = []
    for loop in domain.boundary_loops:
        for oe in domain.loop_edges(loop):
            de = edge_key(*oe)
            if labels[de] in (PLUS, MINUS):
                p_out = domain.sides[de][1]
                want = 1 if labels[de] == PLUS else -1
                marks.append((p_out, want))
                break
    num_terms: list[tuple] = []
    den_terms: list[tuple] = []
    for mask in range(1 << len(marks)):
        sub = [marks[i] for i in range(len(marks)) if mask >> i & 1]
        alpha = 1.0
        for _, want in sub:
            alpha *= want
        pts = tuple(p for p, _ in sub)
        num_terms += [(alpha * c, s) for c, s in _energy_terms(
            en, tuple(spins) + pts, energy_edges)]
        den_terms.append((alpha, reduce_mod2(pts)))
    num, den = _expanded_sums(en, [num_terms, den_terms])
    return num / den


# -- fermionic observables -------------------------------------------------


def _as_corner(c) -> CornerPoint:
    if isinstance(c, CornerPoint):
        return c
    return CornerPoint(tuple(c), 0)


def _advance(cover: DoubleCover, sign: int, cut: frozenset, c1, c2):
    """The walk state (sign, cut) carried along the corner step c1 -> c2.

    cut is the dual cut that pairs the dual halves of the insertions
    placed so far, and sign the spinor's sign: cover.step_sign at each
    step, and -1 at each crossing of cut.  A turn about a primal vertex
    sweeps the dual edge between the two corners' faces, which joins or
    leaves cut; a turn about a dual vertex crosses a dual edge.
    """
    sign *= cover.step_sign(c1, c2)
    w = rotation_vertex(c1, c2)
    if is_primal(w):
        return sign, cut ^ {edge_key((2 * c1[0] - w[0], 2 * c1[1] - w[1]),
                                     (2 * c2[0] - w[0], 2 * c2[1] - w[1]))}
    if step_crossed_edge(c1, c2) in cut:
        sign = -sign
    return sign, cut


def _walk_steps(domain: MeshDomain, c) -> list:
    """The corners of the domain one walk step from c, in CORNER_STEPS
    order, except those reached by a turn about a primal vertex outside the
    domain.

    The primal edge such a step crosses, and adds to the cut, can join two
    outside vertices.  That edge has no energy term (on a wired loop both
    its ends are the one boundary spin), so the cut would lose it without a
    word.  Every corner of the domain stays reachable without these steps.
    """
    out = []
    for w in neighbors_in(c, CORNER_STEPS, domain.corners):
        turn = rotation_vertex(c, w)
        if not is_primal(turn) or turn in domain.vertices:
            out.append(w)
    return out


def fermion_field(domain: MeshDomain, cover: DoubleCover, source) -> dict:
    """Two-point observable as a field: F(source, c) for every corner c.

    Values are reported on the base sheet determined by the cover's branch
    cut and the positive side of the source's split; the pair of split
    values at the source itself is stored under the source position.
    """
    src = _as_corner(source)
    if src.primal not in domain.vertices:
        raise EnumerationError(
            "source must be a corner at a vertex of the domain")
    en = Enumeration(domain)
    ram = reduce_mod2(cover.ram_primal)
    parents = bfs(src.pos, lambda c: _walk_steps(domain, c))
    # each corner's state extends its parent's by the step between them
    states = {src.pos: (1, frozenset())}
    for c, parent in parents.items():
        if parent is not None:
            sign, cut = states[parent]
            if parent == src.pos:
                sign *= transport_side(src.pos, c)
            states[c] = _advance(cover, sign, cut, parent, c)
    del states[src.pos]
    # the denominator and every corner, each with its own cut, in one sum
    src_n = corner_neighbors(src.pos)[0]
    den, *nums = en.sums(
        [ram] + [reduce_mod2(ram + (src_n, corner_neighbors(c)[0]))
                 for c in states],
        [()] + [cut for _, cut in states.values()])
    if den == 0.0:
        raise EnumerationError("vanishing spin correlation denominator")
    eta_s = base_phase(src.pos)
    values: dict = {src.pos: (eta_s * eta_s, -eta_s * eta_s)}
    for (c, (sign, _)), v in zip(states.items(), nums):
        values[c] = sign * eta_s * base_phase(c) * v / den
    return values


def fermion_multipoint(domain: MeshDomain, cover: DoubleCover, corners,
                       avoid=()) -> complex:
    """Multi-point observable F(z1, ..., zk), k even.

    The global sign follows the recursive convention: each new pair starts
    as a split-corner insertion worth eta^2 times the shorter correlation
    and is transported to its target along a deterministic path avoiding
    the other marked points.
    """
    pts = [_as_corner(c) for c in corners]
    if len(pts) % 2 != 0:
        raise EnumerationError("need an even number of corners")
    pos = [p.pos for p in pts]
    if len(set(pos)) != len(pos):
        raise EnumerationError("corner positions must be distinct")
    en = Enumeration(domain)
    ram = reduce_mod2(cover.ram_primal)
    sign, cut = 1, frozenset()
    phase = complex(1.0)
    placed: list = []
    for j in range(0, len(pos), 2):
        a, b = pos[j], pos[j + 1]
        phase *= base_phase(a) * base_phase(b)
        forbidden = frozenset(placed) | frozenset(tuple(q) for q in avoid) - {a, b}
        blocked = (forbidden | {a}) - {b}
        path = bfs_path(a, lambda c: [
            w for w in _walk_steps(domain, c) if w not in blocked],
            lambda c: c == b)
        if path is None:
            raise EnumerationError(f"no corner path {a} -> {b}")
        sign *= transport_side(a, path[1])
        for c1, c2 in zip(path, path[1:]):
            sign, cut = _advance(cover, sign, cut, c1, c2)
        placed += [a, b]
    spins = reduce_mod2(ram + tuple(corner_neighbors(p)[0] for p in pos))
    num, den = en.sums([spins, ram], [cut, ()])
    sheet = sum(p.sheet for p in pts) % 2
    return (1 - 2 * sheet) * sign * phase * num / den


# -- mixed correlations ----------------------------------------------------


@dataclass
class MixedContent:
    """Operator content for lattice mixed correlations."""
    spins: tuple = ()
    disorders: tuple = ()          # dual vertices
    energies: tuple = ()           # primal edges
    fermions: tuple = ()           # CornerPoint-likes

    def total_corners(self, domain: MeshDomain):
        """Corner list (fermions, energy pairs, disorder companions) and the
        full vertex list entering the reduction to spin correlations."""
        corners = [_as_corner(z) for z in self.fermions]
        for e in self.energies:
            e = edge_key(*e)
            n_pos, _, s_pos, _ = domain.stencil(e)
            # the opposite pair whose primal neighbours are the edge endpoints;
            # the corner whose dual sits east of its primal goes first
            first, second = n_pos, s_pos
            if corner_direction(first) != (2, 0):
                first, second = second, first
            corners += [CornerPoint(first), CornerPoint(second)]
        aux_vertices = []
        for u in self.disorders:
            c = (u[0] + 1, u[1])  # east corner of the face
            corners.append(CornerPoint(c))
            aux_vertices.append(corner_neighbors(c)[0])
        return corners, tuple(self.spins) + tuple(aux_vertices)


def corr_mixed(domain: MeshDomain, content: MixedContent,
               check_tol: float | None = 1e-9):
    """General mixed correlation under standard boundary conditions.

    Returns the direct enumeration value.  The same quantity is recomputed
    through the multi-point fermionic observable times the pure-spin
    correlation, and the two routes must agree in magnitude (the fermionic
    route fixes signs only up to the documented global convention; the
    returned record carries both).
    """
    corners, vertices = content.total_corners(domain)
    K = len(corners)
    if K % 2 == 1:
        return 0.0
    en = Enumeration(domain)
    # direct route: disorders via explicit cuts, energies via sigma products
    gamma: set = set()
    duals = [c.dual for c in [_as_corner(f) for f in content.fermions]]
    duals += [tuple(u) for u in content.disorders]
    for j in range(0, len(duals) - 1, 2):
        a, b = duals[j], duals[j + 1]
        path = bfs_path(a, lambda c: neighbors_in(c, DIAG_STEPS, domain.duals),
                        lambda c: c == b)
        if path is None:
            raise EnumerationError(f"no dual path {a} -> {b}")
        for x, y in zip(path, path[1:]):
            gamma.symmetric_difference_update({edge_key(x, y)})
    if len(duals) % 2 == 1:
        raise EnumerationError("odd disorder count has no standard-bc value")
    spin_list = list(content.spins)
    spin_list += [_as_corner(f).primal for f in content.fermions]
    direct_spins = reduce_mod2(spin_list)
    check = check_tol is not None and bool(
        content.fermions or content.disorders or content.energies)
    groups = [_energy_terms(en, direct_spins, content.energies), [(1.0, ())]]
    cuts = [gamma, ()]
    if check:
        # the fermionic route's spin correlation joins the same sum
        groups.append([(1.0, reduce_mod2(vertices))])
        cuts.append(())
    total, z, *spins = _expanded_sums(en, groups, cuts)
    direct = total / z
    if check:
        ferm = _mixed_via_fermions(domain, corners, vertices, spins[0] / z)
        scale = max(abs(direct), abs(ferm), 1e-30)
        if abs(abs(direct) - abs(ferm)) > check_tol * max(1.0, scale):
            raise EnumerationError(
                f"mixed-correlation routes disagree: |{direct}| vs |{ferm}|")
    return direct


def _mixed_via_fermions(domain, corners, vertices, spin_corr) -> float:
    cover = make_cover(domain, vertices)
    F = fermion_multipoint(domain, cover, corners)
    eta_prod = complex(1.0)
    for c in corners:
        eta_prod *= corner_phase(_as_corner(c))
    val = F * spin_corr / eta_prod
    return val.real
