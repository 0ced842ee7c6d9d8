"""Discrete domains on the rotated square lattice.

Geometry lives on an integer grid in units of delta/2.  With position
(X, Y) meaning the complex point (delta/2)*(X + iY):

* primal vertices:  X, Y even and (X+Y) % 4 == 0
* dual vertices:    X, Y even and (X+Y) % 4 == 2
* corners:          X + Y odd  (midpoints of a primal-dual pair at distance
                    delta; each corner has exactly one primal neighbour z°
                    and one dual neighbour z• on the grid)
* edge midpoints:   X, Y both odd (a primal edge and the dual edge crossing
                    it share their midpoint)

Primal (and dual) edges are the diagonal steps (+-2, +-2).  All graph
logic is exact integer arithmetic; delta only scales embeddings.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

Coord = tuple[int, int]
Edge = tuple[Coord, Coord]

DIAG_STEPS: tuple[Coord, ...] = ((2, 2), (2, -2), (-2, 2), (-2, -2))
AXIS_STEPS: tuple[Coord, ...] = ((2, 0), (0, 2), (-2, 0), (0, -2))
CORNER_STEPS: tuple[Coord, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# Dirac phase exponents: eta = exp(i*pi*k/4), indexed by the direction of
# z• - z°.  East (+delta) carries exp(i*pi/4); north (+i*delta) carries 1.
PHASE_INDEX = {(2, 0): 1, (0, 2): 0, (-2, 0): 7, (0, -2): 2}

WIRED = "wired"
FREE = "free"
PLUS = "plus"
MINUS = "minus"


def is_primal(c: Coord) -> bool:
    return c[0] % 2 == 0 and c[1] % 2 == 0 and (c[0] + c[1]) % 4 == 0


def is_dual(c: Coord) -> bool:
    return c[0] % 2 == 0 and c[1] % 2 == 0 and (c[0] + c[1]) % 4 == 2


def is_corner(c: Coord) -> bool:
    return (c[0] + c[1]) % 2 == 1


def edge_key(a: Coord, b: Coord) -> Edge:
    return (a, b) if a <= b else (b, a)


def edge_midpoint(e: Edge) -> Coord:
    return ((e[0][0] + e[1][0]) // 2, (e[0][1] + e[1][1]) // 2)


def crossing_edge(e: Edge) -> Edge:
    """The other diagonal of the quad sharing the midpoint of e."""
    m = edge_midpoint(e)
    d = (e[0][0] - m[0], e[0][1] - m[1])
    perp = (-d[1], d[0])
    return edge_key((m[0] + perp[0], m[1] + perp[1]),
                    (m[0] - perp[0], m[1] - perp[1]))


def corner_neighbors(c: Coord) -> tuple[Coord, Coord]:
    """(z°, z•) for a corner: its primal and dual grid neighbours."""
    if c[0] % 2 == 1:  # horizontal pair
        a, b = (c[0] - 1, c[1]), (c[0] + 1, c[1])
    else:
        a, b = (c[0], c[1] - 1), (c[0], c[1] + 1)
    return (a, b) if is_primal(a) else (b, a)


def corner_direction(c: Coord) -> Coord:
    p, d = corner_neighbors(c)
    return (d[0] - p[0], d[1] - p[1])


def rotation_vertex(c1: Coord, c2: Coord) -> Coord:
    """Vertex (primal or dual) around which the corner step c1 -> c2 turns."""
    wa = (c1[0], c2[1])
    wb = (c2[0], c1[1])
    return wa if wa[0] % 2 == 0 else wb


def step_crossed_edge(c1: Coord, c2: Coord) -> Edge:
    """Lattice edge crossed by the corner step c1 -> c2.

    Primal rotations cross a primal edge, dual rotations a dual one.
    """
    w = rotation_vertex(c1, c2)
    t = (w[0] + 2 * (c1[0] + c2[0] - 2 * w[0]), w[1] + 2 * (c1[1] + c2[1] - 2 * w[1]))
    return edge_key(w, t)


def phase_step_sign(c1: Coord, c2: Coord) -> int:
    """Sign picked up by the continuous Dirac phase along a corner step.

    The eight phase values are tabulated per direction class; continuing
    eta through a quarter turn agrees with the table except between the
    west and south classes, where it flips.
    """
    ds = {corner_direction(c1), corner_direction(c2)}
    return -1 if ds == {(-2, 0), (0, -2)} else 1


@dataclass(frozen=True)
class CornerPoint:
    """A corner of the lattice together with a sheet bit."""

    pos: Coord
    sheet: int = 0

    @property
    def primal(self) -> Coord:
        return corner_neighbors(self.pos)[0]

    @property
    def dual(self) -> Coord:
        return corner_neighbors(self.pos)[1]

    @property
    def phase_index(self) -> int:
        return (PHASE_INDEX[corner_direction(self.pos)] + 4 * self.sheet) % 8

    def flipped(self) -> "CornerPoint":
        return CornerPoint(self.pos, self.sheet ^ 1)


_HALF_SQRT2 = math.sqrt(2.0) / 2.0
_ROOT8 = [
    1 + 0j,
    complex(_HALF_SQRT2, _HALF_SQRT2),
    1j,
    complex(-_HALF_SQRT2, _HALF_SQRT2),
    -1 + 0j,
    complex(-_HALF_SQRT2, -_HALF_SQRT2),
    -1j,
    complex(_HALF_SQRT2, -_HALF_SQRT2),
]


def corner_phase(corner: CornerPoint) -> complex:
    """Dirac spinor value eta at the corner (exact eighth root of unity)."""
    return _ROOT8[corner.phase_index]


def base_phase(pos: Coord) -> complex:
    """Dirac spinor value eta at a corner position, on the base sheet."""
    return _ROOT8[PHASE_INDEX[corner_direction(pos)]]


# base_phase by corner class (x % 2, (x + y) % 4): a corner's direction
# depends on its class alone, and x + y is odd at every corner.
_PHASE_TABLE = np.array([[base_phase((x, r - x)) if r % 2 else np.nan
                          for r in range(4)] for x in range(2)])


def base_phases(xy: np.ndarray) -> np.ndarray:
    """base_phase of every corner in an integer array of shape (..., 2)."""
    return _PHASE_TABLE[xy[..., 0] % 2, xy.sum(-1) % 4]


def transport_side(source_pos: Coord, target_pos: Coord) -> int:
    """+1 if the first transport step leaves through the positive side of
    the source's primal-dual segment."""
    p, d = corner_neighbors(source_pos)
    ax, ay = p[0] - d[0], p[1] - d[1]
    bx, by = target_pos[0] - source_pos[0], target_pos[1] - source_pos[1]
    cross = ax * by - ay * bx
    return 1 if cross > 0 else -1


def inner_corner(domain: MeshDomain, avoid=()) -> Coord:
    """First corner, in sorted order, whose primal vertex and its four
    neighbours lie in the domain, skipping vertices in avoid."""
    for c in sorted(domain.corners):
        p, _ = corner_neighbors(c)
        if p not in avoid and p in domain.vertices and all(
                (p[0] + s[0], p[1] + s[1]) in domain.vertices
                for s in DIAG_STEPS):
            return c
    raise ValueError("domain has no interior corner")


class MeshDomain:
    """A discrete domain: primal vertices, boundary arcs, corner graph."""

    def __init__(self, delta: float, vertices: set[Coord],
                 arc_specs=None, lattice_map=None):
        if not vertices:
            raise ValueError("empty vertex set")
        for v in vertices:
            if not is_primal(v):
                raise ValueError(f"not a primal vertex: {v}")
        self.delta = float(delta)
        self.vertices = frozenset(vertices)
        self.lattice_map = lattice_map  # optional (m, n) -> coord for rectangles
        self._build_graph()
        self._build_boundary()
        self._apply_arc_specs(arc_specs)
        self._build_corners()

    # -- construction ---------------------------------------------------

    def _build_graph(self):
        verts = self.vertices
        self.duals: set[Coord] = set()
        for v in verts:
            for s in AXIS_STEPS:
                self.duals.add((v[0] + s[0], v[1] + s[1]))
        self.interior_edges: set[Edge] = set()
        self.crossing_edges: set[Edge] = set()
        for v in verts:
            for s in DIAG_STEPS:
                w = (v[0] + s[0], v[1] + s[1])
                e = edge_key(v, w)
                if w in verts:
                    self.interior_edges.add(e)
                else:
                    self.crossing_edges.add(e)

    def _build_boundary(self):
        """Boundary = dual edges separating an inner from an outer vertex."""
        self.boundary_edges: set[Edge] = set()
        for e in self.crossing_edges:
            self.boundary_edges.add(crossing_edge(e))
        incid: dict[Coord, list[Edge]] = {}
        for be in self.boundary_edges:
            for u in be:
                incid.setdefault(u, []).append(be)
        bad = [u for u, es in incid.items() if len(es) != 2]
        if bad:
            raise ValueError(f"boundary is not a union of simple loops near {bad[:4]}")
        # trace loops, oriented with the domain on the left
        unused = set(self.boundary_edges)
        loops: list[list[Coord]] = []
        while unused:
            start = min(unused)
            u0, u1 = self._orient(start)
            loop = [u0]
            cur, prev = u1, u0
            unused.discard(start)
            while cur != loop[0]:
                loop.append(cur)
                nxt_edge = next(e for e in incid[cur] if e != edge_key(prev, cur))
                a, b = nxt_edge
                nxt = b if a == cur else a
                unused.discard(nxt_edge)
                prev, cur = cur, nxt
            k = loop.index(min(loop))
            loops.append(loop[k:] + loop[:k])
        loops.sort(key=lambda lp: (-len(lp), lp[0]))
        self.boundary_loops = loops

    def _orient(self, e: Edge) -> tuple[Coord, Coord]:
        """Return e ordered so that the inner endpoint of the crossing primal
        edge lies on the left of travel."""
        u0, u1 = e
        ce = crossing_edge(e)
        p_in = ce[0] if ce[0] in self.vertices else ce[1]
        d = (u1[0] - u0[0], u1[1] - u0[1])
        r = (p_in[0] - u0[0], p_in[1] - u0[1])
        cross = d[0] * r[1] - d[1] * r[0]
        return (u0, u1) if cross > 0 else (u1, u0)

    def _apply_arc_specs(self, arc_specs):
        """Label boundary dual edges wired/free.

        arc_specs: per loop either a single label or a list of (label, count)
        runs consumed along the oriented loop from its canonical start.
        """
        if arc_specs is None:
            arc_specs = [WIRED] * len(self.boundary_loops)
        elif isinstance(arc_specs, str):
            arc_specs = [arc_specs] * len(self.boundary_loops)
        if len(arc_specs) != len(self.boundary_loops):
            raise ValueError("need one arc spec per boundary loop")
        self.edge_label: dict[Edge, str] = {}
        for loop, spec in zip(self.boundary_loops, arc_specs):
            edges = self.loop_edges(loop)
            if isinstance(spec, str):
                runs = [(spec, len(edges))]
            else:
                runs = list(spec)
            if sum(n for _, n in runs) != len(edges):
                raise ValueError(
                    f"arc spec covers {sum(n for _, n in runs)} edges, "
                    f"loop has {len(edges)}")
            i = 0
            for label, n in runs:
                if label not in (WIRED, FREE):
                    raise ValueError(f"unknown arc label {label!r}")
                for _ in range(n):
                    self.edge_label[edge_key(*edges[i])] = label
                    i += 1

    def _build_corners(self):
        self.corners: set[Coord] = set()
        for v in self.vertices:
            for s in AXIS_STEPS:
                self.corners.add((v[0] + s[0] // 2, v[1] + s[1] // 2))
        self.wired_outer: set[Coord] = set()
        for e in self.crossing_edges:
            de = crossing_edge(e)
            if self.edge_label[de] != WIRED:
                continue
            p_out = e[0] if e[0] not in self.vertices else e[1]
            self.wired_outer.add(p_out)
            for u in de:
                self.corners.add(((p_out[0] + u[0]) // 2, (p_out[1] + u[1]) // 2))
        # edges whose four-corner stencil enters the linear problems
        self.shol_edges: set[Edge] = set(self.interior_edges)
        for e in self.crossing_edges:
            if self.edge_label[crossing_edge(e)] == WIRED:
                self.shol_edges.add(e)
        self.energy_edges: set[Edge] = set(self.shol_edges)
        self.free_duals: set[Coord] = set()
        for de, lab in self.edge_label.items():
            if lab == FREE:
                self.free_duals.update(de)

    # -- queries ---------------------------------------------------------

    @staticmethod
    def loop_edges(loop: list[Coord]) -> list[tuple[Coord, Coord]]:
        return [(loop[i], loop[(i + 1) % len(loop)]) for i in range(len(loop))]

    def position(self, c: Coord) -> complex:
        return complex(c[0], c[1]) * (self.delta / 2.0)

    def stencil(self, e: Edge):
        """Corners (N, E, S, W positions around the midpoint of e) plus the
        primal and dual diagonals through the midpoint."""
        m = edge_midpoint(e)
        n = (m[0], m[1] + 1)
        s = (m[0], m[1] - 1)
        east = (m[0] + 1, m[1])
        west = (m[0] - 1, m[1])
        ce = crossing_edge(e)
        if is_primal(e[0]):
            primal_diag, dual_diag = edge_key(*e), ce
        else:
            primal_diag, dual_diag = ce, edge_key(*e)
        return n, east, s, west, primal_diag, dual_diag

    def free_arcs(self) -> list[list[tuple[Coord, Coord]]]:
        """Maximal runs of free boundary edges, as oriented edge lists."""
        arcs: list[list[tuple[Coord, Coord]]] = []
        for loop in self.boundary_loops:
            edges = self.loop_edges(loop)
            labs = [self.edge_label[edge_key(*oe)] for oe in edges]
            if all(l == FREE for l in labs):
                arcs.append(list(edges))
                continue
            n = len(edges)
            i = 0
            while labs[i] == FREE:
                i += 1  # start scanning at a wired edge
            cur: list[tuple[Coord, Coord]] | None = None
            for k in range(n):
                j = (i + k) % n
                if labs[j] == FREE:
                    if cur is None:
                        cur = []
                        arcs.append(cur)
                    cur.append(edges[j])
                else:
                    cur = None
        return arcs

    def euler_characteristic(self) -> int:
        faces = sum(
            1 for u in self.duals
            if all((u[0] + s[0], u[1] + s[1]) in self.vertices for s in AXIS_STEPS))
        return len(self.vertices) - len(self.interior_edges) + faces

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        loops_runs = []
        for loop in self.boundary_loops:
            runs = []
            for oe in self.loop_edges(loop):
                lab = self.edge_label[edge_key(*oe)]
                if runs and runs[-1][0] == lab:
                    runs[-1][1] += 1
                else:
                    runs.append([lab, 1])
            loops_runs.append(runs)
        return json.dumps({
            "delta": self.delta,
            "vertices": sorted(self.vertices),
            "arc_runs": loops_runs,
        })

    @classmethod
    def from_json(cls, text: str) -> "MeshDomain":
        data = json.loads(text)
        specs = [[(lab, n) for lab, n in runs] for runs in data["arc_runs"]]
        return cls(data["delta"], {tuple(v) for v in data["vertices"]}, specs)


def build_rectangle(delta: float, width: int, height: int,
                    arc_spec=WIRED) -> MeshDomain:
    """Simply connected width x height block of primal vertices.

    Lattice coordinates (m, n) embed as (2(m-n), 2(m+n)); the block is a
    square rotated by 45 degrees in the plane, with straight lattice
    boundary on all four sides.
    """
    if width < 2 or height < 2:
        raise ValueError("rectangle needs width, height >= 2")
    lattice_map = {}
    verts = set()
    for m in range(width):
        for n in range(height):
            c = (2 * (m - n), 2 * (m + n))
            lattice_map[(m, n)] = c
            verts.add(c)
    return MeshDomain(delta, verts, [arc_spec], lattice_map=lattice_map)


def build_annulus(delta: float, outer_radius: float, inner_radius: float,
                  outer_spec=WIRED, inner_spec=WIRED) -> MeshDomain:
    """Doubly connected discretization of the round annulus.

    The effective modulus log(outer/inner) is stored on the result.
    """
    if inner_radius < 3 * delta or outer_radius - inner_radius < 3 * delta:
        raise ValueError("radii too close together for this mesh")
    h = delta / 2.0
    r2i, r2o = (inner_radius / h) ** 2, (outer_radius / h) ** 2
    verts = {
        (x, y)
        for x in range(-int(outer_radius / h) - 2, int(outer_radius / h) + 3)
        for y in range(-int(outer_radius / h) - 2, int(outer_radius / h) + 3)
        if is_primal((x, y)) and r2i < x * x + y * y < r2o
    }
    verts = _largest_component(verts)
    verts = _prune_pinches(verts)
    dom = MeshDomain(delta, verts, None)
    if len(dom.boundary_loops) != 2:
        raise ValueError("annulus discretization did not produce two loops")
    dom = MeshDomain(delta, verts, [outer_spec, inner_spec])
    dom.modulus = math.log(outer_radius / inner_radius)
    return dom


def _largest_component(verts: set[Coord]) -> set[Coord]:
    best: set[Coord] = set()
    seen: set[Coord] = set()
    for v0 in verts:
        if v0 in seen:
            continue
        comp = {v0}
        queue = deque([v0])
        while queue:
            v = queue.popleft()
            for s in DIAG_STEPS:
                w = (v[0] + s[0], v[1] + s[1])
                if w in verts and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        if len(comp) > len(best):
            best = comp
    return best


def _prune_pinches(verts: set[Coord]) -> set[Coord]:
    """Remove vertices until every boundary dual vertex has exactly two
    incident boundary edges (simple loops)."""
    verts = set(verts)
    for _ in range(64):
        incid: dict[Coord, int] = {}
        owners: dict[Coord, set[Coord]] = {}
        for v in verts:
            for s in DIAG_STEPS:
                w = (v[0] + s[0], v[1] + s[1])
                if w not in verts:
                    de = crossing_edge(edge_key(v, w))
                    for u in de:
                        incid[u] = incid.get(u, 0) + 1
                        owners.setdefault(u, set()).add(v)
        bad = sorted(u for u, k in incid.items() if k not in (0, 2))
        if not bad:
            return _largest_component(verts)
        verts.discard(min(owners[bad[0]]))
        verts = _largest_component(verts)
    raise ValueError("could not repair boundary into simple loops")


@dataclass
class DoubleCover:
    """Ramification data plus an explicit branch cut.

    Covers ramified at dual vertices carry a cut of dual edges; covers
    ramified at primal vertices carry a cut of primal edges (whose mod-2
    boundary in the respective graph is the ramification set).
    """

    domain: MeshDomain
    ram_primal: frozenset[Coord] = frozenset()
    ram_dual: frozenset[Coord] = frozenset()
    cut_primal: frozenset[Edge] = frozenset()
    cut_dual: frozenset[Edge] = frozenset()

    def boundary_mod2(self, which: str) -> set[Coord]:
        count: dict[Coord, int] = {}
        cut = self.cut_primal if which == "primal" else self.cut_dual
        for e in cut:
            for x in e:
                count[x] = count.get(x, 0) + 1
        return {x for x, k in count.items() if k % 2 == 1}


def _reduce_mod2(points) -> set[Coord]:
    out: set[Coord] = set()
    for p in points:
        out.symmetric_difference_update({tuple(p)})
    return out


def _bfs_path(start: Coord, goal, neighbors) -> list[Coord]:
    """Deterministic BFS path from start to the first coord where goal(c)."""
    prev: dict[Coord, Coord | None] = {start: None}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        if goal(c):
            path = [c]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
        for w in neighbors(c):
            if w not in prev:
                prev[w] = c
                queue.append(w)
    raise ValueError("no path found")


def make_cover(domain: MeshDomain, points) -> DoubleCover:
    """Double cover ramified at the given primal vertices and/or dual faces.

    Ramification points are paired greedily by graph distance (lexicographic
    tie-breaks); an odd dual leftover is routed across the outer boundary.
    """
    prim = sorted(p for p in _reduce_mod2(points) if is_primal(p))
    dual = sorted(p for p in _reduce_mod2(points) if is_dual(p))
    for p in prim:
        if p not in domain.vertices:
            raise ValueError(f"ramification vertex outside domain: {p}")
    for u in dual:
        if u not in domain.duals:
            raise ValueError(f"ramification face outside domain: {u}")
    if len(prim) % 2 == 1:
        raise ValueError("odd number of primal ramification points")

    def pair_up(pts, neigh):
        cut: set[Edge] = set()
        todo = list(pts)
        while todo:
            a = todo.pop(0)
            if not todo:
                return cut, a
            paths = [(_bfs_path(a, lambda c, b=b: c == b, neigh), b) for b in todo]
            paths.sort(key=lambda pb: (len(pb[0]), pb[1]))
            path, b = paths[0]
            todo.remove(b)
            for i in range(len(path) - 1):
                e = edge_key(path[i], path[i + 1])
                cut.symmetric_difference_update({e})
        return cut, None

    def primal_neigh(c):
        return [w for s in DIAG_STEPS
                for w in [(c[0] + s[0], c[1] + s[1])] if w in domain.vertices]

    def dual_neigh(c):
        return [w for s in DIAG_STEPS
                for w in [(c[0] + s[0], c[1] + s[1])] if w in domain.duals]

    cut_p, _ = pair_up(prim, primal_neigh)
    cut_d, leftover = pair_up(dual, dual_neigh)
    if leftover is not None:
        # route the unpaired face across the outer boundary loop
        outer = set(domain.boundary_loops[0])
        path = _bfs_path(leftover, lambda c: c in outer, dual_neigh)
        for i in range(len(path) - 1):
            cut_d.symmetric_difference_update({edge_key(path[i], path[i + 1])})
        u = path[-1]
        for s in DIAG_STEPS:
            w = (u[0] + s[0], u[1] + s[1])
            if w not in domain.duals:
                cut_d.symmetric_difference_update({edge_key(u, w)})
                break
        else:
            raise ValueError("outer boundary face has no outward dual edge")
    return DoubleCover(domain, frozenset(prim), frozenset(dual),
                       frozenset(cut_p), frozenset(cut_d))


def sheet_sign(cover: DoubleCover, path: list[Coord]) -> int:
    """(-1)^(number of branch-cut crossings) along a nearest-neighbour
    corner path."""
    sign = 1
    for c1, c2 in zip(path, path[1:]):
        if not (is_corner(c1) and is_corner(c2)):
            raise ValueError("path must consist of corners")
        if abs(c1[0] - c2[0]) != 1 or abs(c1[1] - c2[1]) != 1:
            raise ValueError(f"not a corner step: {c1} -> {c2}")
        e = step_crossed_edge(c1, c2)
        if e in cover.cut_primal or e in cover.cut_dual:
            sign = -sign
    return sign


def enclosure_parity(cycle_edges, vertex: Coord) -> int:
    """Winding parity of a set of grid edges around a grid vertex.

    Counts proper crossings of the horizontal ray to the east of the
    vertex, with the half-open endpoint convention to avoid degeneracies.
    """
    vx, vy = vertex
    n = 0
    for e in cycle_edges:
        (ax, ay), (bx, by) = e
        if (ay <= vy < by) or (by <= vy < ay):
            t = (vy - ay) / (by - ay)
            if ax + t * (bx - ax) > vx:
                n += 1
    return n % 2


@dataclass
class PMBoundarySpec:
    """plus/minus/free labels per boundary loop, as runs along each loop."""

    runs: list[list[tuple[str, int]]]  # one list of (label, count) per loop

    def edge_labels(self, domain: MeshDomain) -> dict[Edge, str]:
        if len(self.runs) != len(domain.boundary_loops):
            raise ValueError("need one run list per boundary loop")
        out: dict[Edge, str] = {}
        for loop, runs in zip(domain.boundary_loops, self.runs):
            edges = domain.loop_edges(loop)
            if sum(n for _, n in runs) != len(edges):
                raise ValueError("pm spec does not cover the loop")
            i = 0
            for label, n in runs:
                if label not in (PLUS, MINUS, FREE):
                    raise ValueError(f"unknown pm label {label!r}")
                for _ in range(n):
                    out[edge_key(*edges[i])] = label
                    i += 1
        return out

    def separation_points(self, domain: MeshDomain) -> list[Coord]:
        """Dual vertices where the sign changes, counting free arcs as minus."""
        labels = self.edge_labels(domain)
        pts = []
        for loop in domain.boundary_loops:
            edges = domain.loop_edges(loop)
            signs = [1 if labels[edge_key(*oe)] == PLUS else -1 for oe in edges]
            for i in range(len(edges)):
                if signs[i] != signs[(i + 1) % len(edges)]:
                    pts.append(edges[i][1])
        return pts
