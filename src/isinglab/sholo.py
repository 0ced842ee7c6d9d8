"""Discrete s-holomorphic boundary-value problems and special kernels.

The solver reconstructs the two-point fermionic observable as the unique
spinor satisfying the four-corner relation at every interior and
wired-crossing edge, the standard boundary pair relations, and a pinned
split value at the source corner.  One real unknown per corner (the phase
condition fixes the direction).  The system is assembled over every corner,
the source's included, from integer index arrays straight into its sparse
arrays, with temporaries within about twice its size: a square matrix that
does not depend on the source, whose column at the source carries the split
value into the right-hand side.  Each solve makes one sparse LU
factorization in narrow panels, pins the source's unknown to zero, and
asserts the residual of the system.  The sparse matrix and its
factorization come from scipy, whose modules are imported by the first
solve: the rest of isinglab needs only numpy.

Also here: the full-plane discrete analogues of 1/z and 1/sqrt(z) at
mesh 1, built from discrete exponentials, the integrated quadratic form
H, and the contour formula recovering a spinor's value next to its
ramification point.
"""

from __future__ import annotations

import cmath
import importlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import (
    CORNER_STEPS, WIRED, CornerPoint, DoubleCover, MeshDomain,
    base_phase, base_phases, bfs, codes, corner_neighbors, edge_codes,
    edge_key, edge_midpoint, lookup, neighbors_in, transport_side,
)

_CYC = [(1, 0), (0, 1), (-1, 0), (0, -1)]
# exp(-i pi/4), the phase of the grid rotation z -> -i z: the base phase of
# a corner whose dual vertex lies west of its primal one
_ROT_CW_PHASE = base_phase((-1, 0))


class _Deferred:
    """A module imported the first time one of its attributes is read."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# scipy's sparse modules take most of a cold start to import and only the
# solver uses them.  They stay module globals, so that a tracer can swap
# `spla` for a timed stand-in.
sp = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")


class SolveError(RuntimeError):
    pass


# -- boundary pair relations ------------------------------------------------


def _rotation_seq(u, c1, c2):
    """The corners met turning counterclockwise about u from c1 to c2."""
    i = _CYC.index((c1[0] - u[0], c1[1] - u[1]))
    seq = [c1]
    while seq[-1] != c2:
        i += 1
        d = _CYC[i % 4]
        seq.append((u[0] + d[0], u[1] + d[1]))
    return seq


def boundary_pairs(domain: MeshDomain, cover: DoubleCover):
    """Relations x_a = sign * x_b between boundary corner unknowns, each
    sign taken along a corner path between a and b.

    One walk around each boundary loop, outside the domain.  A loop keeps
    the domain on its left and is simple, so at each of its dual vertices u
    the corners whose primal vertex lies outside are consecutive, and the
    turn about u from the outer corner of the edge before u to that of the
    edge after it runs counterclockwise.  Per loop: the turn between two
    wired edges (when it moves), then the two inner corners of each free
    edge; after all loops, for each free arc that leaves a wired edge, the
    chain of turns hugging the arc from the wired edge before it to the
    wired edge after it.
    """
    rels, arcs = [], []
    for loop in domain.boundary_loops:
        edges = domain.loop_edges(loop)
        n = len(edges)
        sides = [domain.sides[edge_key(*oe)] for oe in edges]
        wired = [domain.edge_label[edge_key(*oe)] == WIRED for oe in edges]
        # a corner is the midpoint of its primal and dual vertex
        turns = [_rotation_seq(u, edge_midpoint((sides[i - 1][1], u)),
                               edge_midpoint((sides[i][1], u)))
                 for i, (u, _) in enumerate(edges)]
        rels += [(t[0], t[-1], cover.path_sign(t))
                 for i, t in enumerate(turns)
                 if wired[i - 1] and wired[i] and len(t) > 1]
        for (u1, u2), (v, _), w in zip(edges, sides, wired):
            if not w:
                c1, c2 = edge_midpoint((v, u1)), edge_midpoint((v, u2))
                rels.append((c1, c2, cover.step_sign(c1, c2)))
        if not any(wired):
            continue
        # from the first wired edge round to it: each arc is entered
        # before it is left
        first = wired.index(True)
        for i in (k % n for k in range(first + 1, first + n + 1)):
            if wired[i - 1] and not wired[i]:
                path = list(turns[i])
            elif not wired[i - 1]:
                path += turns[i]
                if wired[i]:
                    arcs.append((path[0], path[-1], cover.path_sign(path)))
    return rels + arcs


def stencil_signs(domain: MeshDomain, cover: DoubleCover, e):
    """Relative sheet signs of the four corners around the midpoint of e,
    walked N -> E -> S -> W across the cover's branch cut."""
    n, east, s, west = domain.stencil(e)
    signs = {n: 1}
    a = 1
    for c1, c2 in ((n, east), (east, s), (s, west)):
        if cover.crosses(c1, c2):
            a = -a
        signs[c2] = a
    return (n, east, s, west), signs


# -- the solver ---------------------------------------------------------------


@dataclass(eq=False)
class SpinorField:
    """Solution of the discrete boundary-value problem.

    corners holds the unknown corners (k, 2) in sorted order and spinor
    their spinor values on the base sheet; the source corner is not among
    them and carries the split pair (+normalization, -normalization).
    """

    domain: MeshDomain
    cover: DoubleCover
    source: CornerPoint
    normalization: complex
    corners: np.ndarray
    spinor: np.ndarray
    residual: float
    shape: tuple[int, int]

    @cached_property
    def values(self) -> dict:
        """The spinor as a dict, corner position to value."""
        return dict(zip(zip(*self.corners.T.tolist()), self.spinor.tolist()))

    @cached_property
    def _keys(self) -> np.ndarray:
        return codes(self.corners)

    def value(self, c, sheet: int = 0) -> complex:
        """The spinor at the corner c on the given sheet; KeyError for a
        corner outside the field."""
        c = tuple(c)
        pos, _ = lookup(self._keys, codes(np.array(c)))
        if tuple(self.corners[pos].tolist()) != c:
            raise KeyError(c)
        v = complex(self.spinor[pos])
        return -v if sheet else v

    def observable(self) -> dict:
        """Rescale so the field equals the two-point observable F(source, .)
        on the base sheet (split pair stored under the source position)."""
        eta_s = base_phase(self.source.pos)
        out = {c: eta_s * v for c, v in self.values.items()}
        out[self.source.pos] = (eta_s * self.normalization,
                                -eta_s * self.normalization)
        return out

    def csv_rows(self):
        x, y = self.corners.T.tolist()
        return [(cx, cy, 0, v.real, v.imag)
                for cx, cy, v in zip(x, y, self.spinor.tolist())]


# The residual bound of a solve, relative to |rhs|.
_RESIDUAL_TOL = 1e-10


def solve_observable(domain: MeshDomain, cover: DoubleCover,
                     source) -> SpinorField:
    """Unique s-holomorphic spinor whose split source value is pinned to
    the source's corner phase.

    Raises SolveError if the residual of the system exceeds
    _RESIDUAL_TOL * |rhs| (which would signal an inconsistent assembly,
    since the observable itself solves the system exactly).
    """
    src = source if isinstance(source, CornerPoint) else CornerPoint(tuple(source))
    # the primal neighbour of a non-corner point is never a vertex
    primal = np.array(src.primal)
    pos, _ = lookup(codes(domain.vertex_xy), codes(primal))
    if (domain.vertex_xy[pos] != primal).any():
        raise SolveError("source must be a corner at a vertex of the domain")
    M, corners, row_mids = _assemble(domain, cover)
    a, b = _source_rhs(M, corners, row_mids, src.pos)
    x = _pinned_solve(M, b, a)
    res = float(np.linalg.norm(b - M @ x))
    nb = float(np.linalg.norm(b))
    if res > _RESIDUAL_TOL * max(nb, 1e-30):
        raise SolveError(
            f"residual {res:.3e} exceeds {_RESIDUAL_TOL} * |rhs| ({nb:.3e})")
    unknowns = np.delete(corners, a, axis=0)
    return SpinorField(domain, cover, src, base_phase(src.pos), unknowns,
                       np.delete(x, a) * base_phases(unknowns),
                       res / max(nb, 1e-300),
                       (M.shape[0], len(unknowns)))


# Stencil corners around an edge midpoint in the order W, S, N, E, in which
# their codes, and so their columns, ascend; with the signs of the
# four-corner relation.  codes is linear, so a stencil corner's code is its
# midpoint's plus a fixed shift.
_STENCIL = np.array([(-1, 0), (0, -1), (0, 1), (1, 0)])
_STENCIL_PM = np.array([-1, 1, 1, -1])
_STENCIL_SHIFT = codes(_STENCIL) - codes(np.zeros(2, dtype=np.int64))
# The walk N -> E -> S -> W round the stencil, as positions in _STENCIL.
_WALK = [2, 3, 1, 0]
# The relation's coefficients pm * eta on the base sheet, by the class
# ((x + y) / 2) % 2 of the midpoint (x, y): a stencil corner's phase
# depends on nothing else.
_STENCIL_COEF = _STENCIL_PM * base_phases(
    np.array([(1, -1), (1, 1)])[:, None] + _STENCIL)


def _crossed_edge_codes(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """edge_codes of lattice.step_crossed_edge for arrays of corner steps."""
    w = c1.copy()
    turn_at_b = c1[..., 0] % 2 == 1
    w[turn_at_b, 0] = c2[turn_at_b, 0]
    w[~turn_at_b, 1] = c2[~turn_at_b, 1]
    return edge_codes(w, w + 2 * (c1 + c2 - 2 * w))


def _assemble(domain: MeshDomain, cover: DoubleCover):
    """The discrete boundary-value problem as a square sparse matrix M over
    every corner, the corners (sorted; one real unknown x per corner, the
    spinor being x * eta) and the edge midpoint of each four-corner row.

    Per s-holomorphic edge, in sorted order, the real then the imaginary
    part of the four-corner relation, skipping zero rows; then one row per
    boundary pair.  M is written straight into its CSR arrays and returned
    in CSC, the layout splu factors.
    """
    corners = domain.corner_xy
    keys = codes(corners)
    mids = domain.shol_edge_xy.sum(axis=1) // 2
    cols, found = lookup(keys, codes(mids)[:, None] + _STENCIL_SHIFT)
    if not found.all():
        raise SolveError("a stencil corner lies outside the domain")
    coef = _STENCIL_COEF[mids.sum(axis=1) // 2 % 2]      # (edges, 4)
    # relative sheet of each stencil corner along the walk from N; with no
    # cut every step stays on its sheet
    if cover.cut:
        walk = mids[:, None, :] + _STENCIL[_WALK]
        cut = np.array(list(cover.cut), dtype=np.int64).reshape(-1, 2, 2)
        flips = np.isin(_crossed_edge_codes(walk[:, :3], walk[:, 1:]),
                        edge_codes(cut[:, 0], cut[:, 1]))
        coef[:, _WALK[1:]] *= np.cumprod(np.where(flips, -1, 1), axis=1)
    parts = coef.view(float).reshape(-1, 4, 2).transpose(0, 2, 1)
    entry = parts != 0                                   # (edges, 2, 4)
    counts = entry.sum(axis=2)                           # (edges, 2)
    has_row = counts > 0

    pairs = boundary_pairs(domain, cover)
    ends = np.array([(c1, c2) for c1, c2, _ in pairs],
                    dtype=np.int64).reshape(-1, 2, 2)
    pos, found = lookup(keys, codes(ends))
    if not found.all():
        raise SolveError("a boundary relation leaves the domain")
    vals = np.stack([np.ones(len(pairs)),
                     -np.array([s for _, _, s in pairs], float)], axis=1)

    n_edge, n_rows = int(counts.sum()), int(has_row.sum())
    indptr = np.empty(n_rows + len(pairs) + 1, dtype=np.int32)
    indptr[0] = 0
    np.cumsum(counts[has_row], out=indptr[1:n_rows + 1])
    indptr[n_rows + 1:] = n_edge + 2 * np.arange(1, len(pairs) + 1)
    indices = np.empty(n_edge + 2 * len(pairs), dtype=np.int32)
    indices[:n_edge] = np.broadcast_to(cols[:, None, :], entry.shape)[entry]
    indices[n_edge:] = pos.ravel()
    data = np.empty(len(indices))
    data[:n_edge] = parts[entry]
    data[n_edge:] = vals.ravel()
    M = sp.csr_matrix((data, indices, indptr),
                      shape=(len(indptr) - 1, len(corners)))
    return M.tocsc(), corners, mids[np.nonzero(has_row)[0]]


def _source_rhs(M, corners, row_mids, src):
    """The source's column a in M and the right-hand side b that its split
    value puts on the system: minus M's entry in column a, times the side
    of the source that the row's edge midpoint lies on, on each four-corner
    row; zero on the boundary-pair rows."""
    a = int(lookup(codes(corners), codes(np.array(src)))[0])
    rows = M.indices[M.indptr[a]:M.indptr[a + 1]]
    if (rows >= len(row_mids)).any():
        raise SolveError("a boundary relation meets the source corner")
    b = np.zeros(M.shape[0])
    b[rows] = -M.data[M.indptr[a]:M.indptr[a + 1]] * [
        transport_side(src, m) for m in map(tuple, row_mids[rows].tolist())]
    return a, b


# SuperLU's panel width, default 20: at 133,951 unknowns its peak RSS rise
# fell from 112 MB to 79 MB at width 4 (75 at 2, 87 at 8), same fill and time.
_PANEL_SIZE = 4


def _pinned_solve(M, b, a: int) -> np.ndarray:
    """x with M x = b and x_a = 0, for a regular M and a b that admits one,
    that is b orthogonal to y = M^-T e_a, as x_a = y . b.  Rounding leaves
    b a component along y, which a poorly conditioned M makes a large x_a:
    each right-hand side is projected off y before it is solved, x_a is
    zeroed, and one refinement step follows."""
    if M.shape[0] != M.shape[1]:
        raise SolveError(f"expected a square system, got shape {M.shape}")
    lu = spla.splu(M, panel_size=_PANEL_SIZE)
    y = lu.solve(np.eye(1, M.shape[0], a).ravel(), trans="T")

    def solve(r):
        x = lu.solve(r - (y @ r) / (y @ y) * y)
        x[a] = 0
        return x

    x = solve(b)
    return x + solve(b - M @ x)


# -- discrete exponentials and full-plane kernels -----------------------------


def discrete_exponential(zeta: complex, z: complex) -> complex:
    """p(zeta)^x q(zeta)^y at z = x + iy, with p = (1+zeta/2)/(1-zeta/2)
    and q = (1+i zeta/2)/(1-i zeta/2) (principal powers)."""
    if zeta in (2, -2, 2j, -2j):
        raise ValueError("pole of the discrete exponential")
    if zeta == 0:
        return 1.0 + 0j
    p = (1 + zeta / 2) / (1 - zeta / 2)
    q = (1 + 1j * zeta / 2) / (1 - 1j * zeta / 2)
    x, y = z.real, z.imag
    return cmath.exp(x * cmath.log(p) + y * cmath.log(q))


def _exp_ratio_vec(zeta, dx: int, dy: int):
    p = (1 + zeta / 2) / (1 - zeta / 2)
    q = (1 + 1j * zeta / 2) / (1 - 1j * zeta / 2)
    return p ** dx * q ** dy


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _ray_quadrature(f) -> complex:
    """integral_0^infinity f(t) dt via t = tan(theta), Gauss-Legendre with
    point-doubling from 32 to 2048 nodes until two successive values agree
    to 1e-13."""
    prev = None
    for k in range(5, 12):
        n = 1 << k
        x, w = _gauss_nodes(n)
        theta = (x + 1) * (math.pi / 4)
        t = np.tan(theta)
        vals = f(t) * (math.pi / 4) / np.cos(theta) ** 2
        val = complex(np.sum(w * vals))
        if prev is not None and abs(val - prev) <= 1e-13 * max(1.0, abs(val)):
            return val
        prev = val
    raise SolveError("ray quadrature did not converge")


def _rot_cw(c):
    """Grid rotation z -> -i z."""
    return (c[1], -c[0])


def _kernel_K(a, z) -> complex:
    """Discrete Cauchy kernel; a on the vertical corner sublattice, z on the
    horizontal one, grid half-step coordinates, mesh 1."""
    az = complex(a[0], a[1]) / 2.0
    zz = complex(z[0], z[1]) / 2.0
    dx = (z[0] - a[0] - 1) // 2
    dy = (z[1] - a[1] - 1) // 2
    d = zz - az
    direction = -d.conjugate() / abs(d)

    def f(t):
        zeta = direction * t
        return (_exp_ratio_vec(zeta, dx, dy)
                / ((1 - zeta / 2) * (1 - 1j * zeta / 2))) * direction

    # orientation convention of the ray integral: fixed against the split
    # values +-eta at the base corner
    return -_ray_quadrature(f) / math.pi


def _p_diamond(a, z) -> complex:
    """P_a at a horizontal-type corner z (vertical-type a)."""
    return base_phase(a).conjugate() * _kernel_K(a, z)


def _extension(kernel, m, eta) -> float:
    """The s-holomorphic extension of kernel to the corner of phase eta
    beside the edge midpoint m, as a real multiple of eta: the projection
    on eta of kernel's values at the corners above and below m."""
    return (eta.conjugate()
            * (kernel((m[0], m[1] + 1)) + kernel((m[0], m[1] - 1)))).real


def discrete_P(a, z) -> complex:
    """Discrete analogue of 1/z at mesh 1: the s-holomorphic kernel with
    split values +-eta_a at the corner a.  Both arguments are corner grid
    coordinates.

    Values on a's own sublattice come from the s-holomorphic extension
    through the stencil farther from a.
    """
    a, z = tuple(a), tuple(z)
    if a == z:
        raise ValueError("P is split at its base corner; use discrete_P_split")
    if a[0] % 2 == 1:
        return _ROT_CW_PHASE * discrete_P(_rot_cw(a), _rot_cw(z))
    if z[0] % 2 == 1:
        return _p_diamond(a, z)
    mids = [(z[0] + 1, z[1]), (z[0] - 1, z[1])]
    m = max(mids, key=lambda q: ((q[0] - a[0]) ** 2 + (q[1] - a[1]) ** 2, q))
    eta = base_phase(z)
    return eta * _extension(lambda c: _p_diamond(a, c), m, eta)


def discrete_P_split(a):
    """The split pair (P(a^+), P(a^-)) at the base corner."""
    a = tuple(a)
    if a[0] % 2 == 1:
        plus, minus = discrete_P_split(_rot_cw(a))
        return _ROT_CW_PHASE * plus, _ROT_CW_PHASE * minus
    eta = base_phase(a)
    out = {}
    for m in ((a[0] + 1, a[1]), (a[0] - 1, a[1])):
        out[transport_side(a, m)] = eta * _extension(
            lambda c: _p_diamond(a, c), m, eta)
    return out[1], out[-1]


def _q_diamond(z) -> complex:
    """Ramified inverse square root at a horizontal-type corner, base point
    the primal origin, branch cut along the negative imaginary axis."""
    zz = complex(z[0], z[1]) / 2.0
    dx = (z[0] - 1) // 2
    dy = z[1] // 2
    direction = -zz.conjugate() / abs(zz)
    root_dir = cmath.exp(0.5 * cmath.log(direction))

    def f(s):
        zeta = direction * s * s
        return _exp_ratio_vec(zeta, dx, dy) / (1 - zeta / 2)

    integral = 2.0 * root_dir * _ray_quadrature(f)
    val = _ROT_CW_PHASE * integral / (math.sqrt(2.0) * math.pi)
    # the principal branch of the ray rotation puts the section jump along
    # the east ray; move it to the south ray
    if z[0] > 0 and z[1] < 0:
        val = -val
    return val


def discrete_Q(w, z) -> complex:
    """Discrete analogue of 1/sqrt(z) at mesh 1, ramified at the vertex or
    face w.

    Section convention: single-valued off the ray pointing south of w;
    corners on that ray take their east-side continuation.  A face centre
    carries an extra factor -i to preserve the phase condition.
    """
    w, z = tuple(w), tuple(z)
    off = (z[0] - w[0], z[1] - w[1])
    pref = 1.0 if (w[0] + w[1]) % 4 == 0 else -1j
    if off[0] % 2 == 1:
        return pref * _q_diamond(off)
    if off[0] == 0 and off[1] < 0:
        m = (1, off[1])  # corners on the branch ray continue from the east
    else:
        mids = [(off[0] + 1, off[1]), (off[0] - 1, off[1])]
        m = max(mids, key=lambda q: (q[0] ** 2 + q[1] ** 2, q[0]))
    eta = base_phase(off)
    return pref * eta * _extension(_q_diamond, m, eta)


# -- integrated form H -------------------------------------------------------


def integrate_H(f1: SpinorField, f2: SpinorField | None = None):
    """Integral of the closed form built from two s-holomorphic fields.

    Returns (values, closedness, jump): values maps primal, dual and outer
    wired vertices to H (one overall constant fixed at an arbitrary base
    vertex), closedness is the largest residual of the per-face closure
    identity, jump the largest mismatch met when the integration revisits
    a vertex.
    """
    if f2 is None:
        f2 = f1
    dom = f1.domain

    def product(c):
        a = f1.normalization if c == f1.source.pos else f1.values.get(c)
        b = f2.normalization if c == f2.source.pos else f2.values.get(c)
        if a is None or b is None:
            raise KeyError(c)
        return a * b

    def dstep(c):
        p, d = corner_neighbors(c)
        return dom.position(d) - dom.position(p)

    def across(g):
        # (corner, vertex across it) for each corner at the vertex g
        return [(c, (2 * c[0] - g[0], 2 * c[1] - g[1]))
                for c in neighbors_in(g, _CYC, dom.corners)]

    start = min(dom.vertices)
    values = {start: 0.0}
    jump = 0.0
    # visited in breadth-first order; a vertex takes its value from the
    # first step that reaches it, and every later step is checked against it
    for g in bfs(start, lambda g: [w for _, w in across(g)]):
        for c, other in across(g):
            inc = (-2j * product(c) * dstep(c)).real
            hval = values[g] + (inc if corner_neighbors(c)[0] == g else -inc)
            if other in values:
                jump = max(jump, abs(values[other] - hval))
            else:
                values[other] = hval
    closed = 0.0
    for e in sorted(dom.shol_edges):
        n, east, s, west = dom.stencil(e)
        try:
            r = (product(n) * dstep(n) + product(s) * dstep(s)
                 - product(east) * dstep(east) - product(west) * dstep(west))
        except KeyError:
            continue
        closed = max(closed, abs(r))
    return values, closed, jump


def boundary_H_spread(field: SpinorField, hvalues: dict):
    """Max spread of H along each free arc and each wired boundary piece
    (zero when the field satisfies the standard boundary conditions)."""
    dom = field.domain
    spreads = []
    for arc in dom.free_arcs():
        duals = []
        for a, b in arc:
            duals += [a, b]
        vals = [hvalues[u] for u in duals if u in hvalues]
        if vals:
            spreads.append(max(vals) - min(vals))
    for loop in dom.boundary_loops:
        vals = []
        for oe in dom.loop_edges(loop):
            de = edge_key(*oe)
            if dom.edge_label[de] != WIRED:
                continue
            po = dom.sides[de][1]
            if po in hvalues:
                vals.append(hvalues[po])
        if vals:
            spreads.append(max(vals) - min(vals))
    return max(spreads) if spreads else 0.0


# -- contour recovery ---------------------------------------------------------


def _section_flip(c1, c2, cover: DoubleCover, u) -> int:
    """Sign change of the single-valued section of field * Q_u along a
    corner step: flips across the cover's branch cut and across the
    south ray of u (where Q's stored section is discontinuous)."""
    s = -1 if cover.crosses(c1, c2) else 1
    for on_ray, other in ((c1, c2), (c2, c1)):
        if on_ray[0] == u[0] and on_ray[1] < u[1] and other[0] == u[0] - 1:
            s = -s
    return s


def cauchy_recover(field: SpinorField, v, u, radius: int = 4) -> complex:
    """Recover the spinor value at the corner between the ramification
    vertex v and the adjacent face u from a rectangular contour integral
    against the ramified inverse square root based at u.

    The contour is an axis-aligned rectangle of lattice vertices at grid
    margin `radius` around u and v; it must stay inside the field's
    s-holomorphicity region and keep the source outside.
    """
    dom = field.domain
    v, u = tuple(v), tuple(u)
    z = ((v[0] + u[0]) // 2, (v[1] + u[1]) // 2)
    if v not in field.cover.ram_primal:
        raise SolveError("v must be a ramification vertex of the field")
    x0 = min(u[0], v[0]) - 2 * radius
    x1 = max(u[0], v[0]) + 2 * radius
    y0 = min(u[1], v[1]) - 2 * radius
    y1 = max(u[1], v[1]) + 2 * radius
    ring: list = []
    for x in range(x0, x1, 2):
        ring.append((x, y0))
    for y in range(y0, y1, 2):
        ring.append((x1, y))
    for x in range(x1, x0, -2):
        ring.append((x, y1))
    for y in range(y1, y0, -2):
        ring.append((x0, y))
    segs = []
    mring = len(ring)
    for i in range(mring):
        g1, g2 = ring[i], ring[(i + 1) % mring]
        c = ((g1[0] + g2[0]) // 2, (g1[1] + g2[1]) // 2)
        if c not in dom.corners or c not in field.values:
            raise SolveError("contour leaves the domain")
        segs.append((c, g1, g2))
    # the kernels are at mesh 1
    root_delta = math.sqrt(dom.delta)

    # Single-valued section of field * Q_u on the cut plane: propagate signs
    # by BFS from an anchor corner next to z, never re-entering the immediate
    # neighbourhood of the split corner.
    root = (z[0] + 1, z[1] + 1)
    ball = {(z[0] + a, z[1] + b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    ball.discard(root)
    signs = {root: 1}
    parents = bfs(root, lambda c: [w for w in neighbors_in(
        c, CORNER_STEPS, field.values) if w not in ball])
    for w, c in parents.items():
        if c is not None:
            signs[w] = signs[c] * _section_flip(c, w, field.cover, u)

    total = 0j
    for c, g1, g2 in segs:
        if c not in signs:
            raise SolveError("section did not reach the contour")
        step = dom.position(g2) - dom.position(g1)
        total += (-2j * signs[c] * field.values[c]
                  * (discrete_Q(u, c) / root_delta) * step)
    eta_z = base_phase(z)
    # relate the section's anchor sheet to the field's base sheet at z
    fix = _section_flip(z, root, field.cover, u)
    return fix * 0.25 / root_delta * eta_z * total
