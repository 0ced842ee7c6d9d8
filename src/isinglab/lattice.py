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

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Coord = tuple[int, int]
Edge = tuple[Coord, Coord]

DIAG_STEPS: tuple[Coord, ...] = ((2, 2), (2, -2), (-2, 2), (-2, -2))
AXIS_STEPS: tuple[Coord, ...] = ((2, 0), (0, 2), (-2, 0), (0, -2))
CORNER_STEPS: tuple[Coord, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_DIAG = np.array(DIAG_STEPS)
_CORNER_OFFSETS = np.array(AXIS_STEPS) // 2
# x + y and x - y, both 0 mod 4 exactly at primal vertices
_PRIMAL_TEST = np.array([(1, 1), (1, -1)])

# Dirac phase exponents: eta = exp(i*pi*k/4), indexed by the direction of
# z• - z°.  East (+delta) carries exp(i*pi/4); north (+i*delta) carries 1.
PHASE_INDEX = {(2, 0): 1, (0, 2): 0, (-2, 0): 7, (0, -2): 2}

WIRED = "wired"
FREE = "free"
PLUS = "plus"
MINUS = "minus"


# -- grid coding ------------------------------------------------------------

# Grid points are coded as one integer each, increasing in lexicographic
# order, for coordinates within +-_OFFSET.  Domain vertices stay within
# _REACH, so every grid point a domain or its stencils touch has a code.
_OFFSET = 1 << 20
_SPAN = 1 << 21
_REACH = _OFFSET // 2
_CODE = np.array([_SPAN, 1])
_BIAS = _OFFSET * _SPAN + _OFFSET


def codes(xy: np.ndarray) -> np.ndarray:
    """One integer per grid point of xy (shape (..., 2))."""
    return xy @ _CODE + _BIAS


def edge_codes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One integer per diagonal grid edge a-b: its midpoint and whether it
    rises to the right."""
    rising = (b[..., 0] - a[..., 0]) * (b[..., 1] - a[..., 1]) > 0
    return 2 * codes((a + b) // 2) + rising


def lookup(keys: np.ndarray, wanted: np.ndarray):
    """Positions of the codes wanted in the sorted keys, and which of them
    are there."""
    pos = np.minimum(keys.searchsorted(wanted), len(keys) - 1)
    return pos, keys[pos] == wanted


def _points(xy: np.ndarray):
    """The rows of xy (shape (k, 2)) as coordinate tuples, lazily."""
    return zip(xy[:, 0].tolist(), xy[:, 1].tolist())


# -- graph search -----------------------------------------------------------


def neighbors_in(c: Coord, steps, members) -> list[Coord]:
    """The grid points c + s, for s in steps in turn, that lie in members."""
    return [w for w in ((c[0] + s[0], c[1] + s[1]) for s in steps)
            if w in members]


def bfs(start, neighbors, goal=None) -> dict:
    """Breadth-first search from start, first in first out.

    Returns the parent map in discovery order: each node reached, mapped to
    the node it was first reached from (start to None).  neighbors(c) lists
    the neighbours of c in the order they are tried.  With a goal predicate
    the search stops at the first node taken from the queue that meets it.
    """
    parents = {start: None}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        if goal is not None and goal(c):
            break
        for w in neighbors(c):
            if w not in parents:
                parents[w] = c
                queue.append(w)
    return parents


def bfs_path(start, neighbors, goal) -> list | None:
    """Shortest path from start to the first node that meets goal, as bfs
    finds it; None when no reachable node meets goal."""
    parents = bfs(start, neighbors, goal)
    end = next((c for c in parents if goal(c)), None)
    return None if end is None else path_to(parents, end)


def path_to(parents: dict, end) -> list:
    """The path from the start of a bfs to end, along its parent map."""
    path = [end]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path[::-1]


def reduce_mod2(points) -> tuple:
    """The points that occur an odd number of times, sorted."""
    odd: set = set()
    for p in points:
        odd.symmetric_difference_update({tuple(p)})
    return tuple(sorted(odd))


# -- grid geometry ----------------------------------------------------------


def is_primal(c: Coord) -> bool:
    return c[0] % 2 == 0 and c[1] % 2 == 0 and (c[0] + c[1]) % 4 == 0


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


# base_phase by corner class 4 * (x % 2) + (x + y) % 4: a corner's
# direction depends on its class alone, and x + y is odd at every corner.
_PHASE_TABLE = np.array([base_phase((x, r - x)) if r % 2 else np.nan
                         for x in range(2) for r in range(4)])


def base_phases(xy: np.ndarray) -> np.ndarray:
    """base_phase of every corner in an integer array of shape (..., 2)."""
    x = xy[..., 0]
    return _PHASE_TABLE[4 * (x & 1) + ((x + xy[..., 1]) & 3)]


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
    for c in _points(domain.corner_xy):
        p, _ = corner_neighbors(c)
        if p not in avoid and p in domain.vertices and all(
                (p[0] + s[0], p[1] + s[1]) in domain.vertices
                for s in DIAG_STEPS):
            return c
    raise ValueError("domain has no interior corner")


class MeshDomain:
    """A discrete domain: primal vertices, boundary arcs, corner graph.

    The vertices are given as an integer array of shape (n, 2) or as
    coordinate pairs (a set, say).  Built from their sorted codes:
    vertex_xy (n, 2) in sorted order; interior_pairs (m, 2), the rows of
    vertex_xy joined by each interior edge, in sorted edge order; and
    sides, which maps each boundary dual edge to the (inner, outer)
    endpoints of the primal edge crossing it, in sorted crossing-edge
    order.  The rest is derived from these on first use: the sorted arrays
    corner_xy (k, 2) and shol_edge_xy (s, 2, 2), the vertex_index map, and
    the geometry as sets (vertices, duals, interior_edges, crossing_edges,
    corners, shol_edges).
    """

    def __init__(self, delta: float, vertices, arc_specs=None):
        self.delta = float(delta)
        self._build_graph(vertices)
        self._build_boundary()
        self._apply_arc_specs(arc_specs)

    # -- construction ---------------------------------------------------

    def _build_graph(self, vertices):
        xy = np.asarray(vertices if isinstance(vertices, np.ndarray)
                        else list(vertices))
        if not xy.size:
            raise ValueError("empty vertex set")
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"vertices of shape {xy.shape}, not (n, 2)")
        if xy.dtype.kind not in "iu":
            raise ValueError(f"vertex coordinates of type {xy.dtype}, "
                             "not integers")
        xy = xy.astype(np.int64)
        bad = (xy @ _PRIMAL_TEST % 4).any(axis=1)
        if bad.any():
            raise ValueError(
                f"not a primal vertex: {tuple(xy[bad][0].tolist())}")
        if np.abs(xy).max() > _REACH:
            raise ValueError(f"vertex beyond +-{_REACH} grid units")
        keys = codes(xy)
        order = keys.argsort()
        xy = self.vertex_xy = xy[order]
        keys = keys[order]
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            raise ValueError(
                f"repeated vertex: {tuple(xy[1:][repeated][0].tolist())}")
        pos, inside = lookup(keys, codes(xy[:, None] + _DIAG))
        # an interior edge from its lower endpoint, by the steps (2, -2)
        # and (2, 2) in turn, comes in sorted order
        lo, k = np.nonzero(inside[:, 1::-1])
        self.interior_pairs = np.array((lo, pos[:, 1::-1][lo, k])).T
        # a crossing edge from its inner endpoint
        row, k = np.nonzero(~inside)
        ends = sorted((edge_key(a, b), a, b) for a, b in zip(
            _points(xy[row]), _points(xy[row] + _DIAG[k])))
        self.sides: dict[Edge, tuple[Coord, Coord]] = {
            crossing_edge(e): (a, b) for e, a, b in ends}

    def _build_boundary(self):
        """Boundary loops of dual vertices, each oriented with the domain on
        the left, starting at its least vertex, longest loop first."""
        succ: dict[Coord, Coord] = {}
        for (u0, u1), (p_in, _) in self.sides.items():
            cross = ((u1[0] - u0[0]) * (p_in[1] - u0[1])
                     - (u1[1] - u0[1]) * (p_in[0] - u0[0]))
            if cross < 0:
                u0, u1 = u1, u0
            if succ.setdefault(u0, u1) != u1:
                raise ValueError(
                    f"boundary is not a union of simple loops near {u0}")
        loops: list[list[Coord]] = []
        todo = set(succ)
        while todo:
            u = min(todo)
            loop = []
            while u in todo:
                todo.remove(u)
                loop.append(u)
                u = succ[u]
            loops.append(loop)
        loops.sort(key=lambda lp: (-len(lp), lp[0]))
        self.boundary_loops = loops

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
        runs = [[(spec, len(loop))] if isinstance(spec, str) else spec
                for loop, spec in zip(self.boundary_loops, arc_specs)]
        self.edge_label = _run_labels(self, runs, (WIRED, FREE), "arc")

    # -- derived geometry, built on first use ------------------------------

    def _wired_sides(self) -> list[tuple[Edge, tuple[Coord, Coord]]]:
        return [(de, io) for de, io in self.sides.items()
                if self.edge_label[de] == WIRED]

    @cached_property
    def corner_xy(self) -> np.ndarray:
        """Four corners at each vertex, and two at the outer vertex of each
        wired crossing edge (shared where two such edges meet)."""
        outer = {((p_out[0] + u[0]) // 2, (p_out[1] + u[1]) // 2)
                 for de, (_, p_out) in self._wired_sides() for u in de}
        pts = np.concatenate([
            (self.vertex_xy[:, None] + _CORNER_OFFSETS).reshape(-1, 2),
            np.array(list(outer), dtype=np.int64).reshape(-1, 2)])
        return pts[codes(pts).argsort()]

    @cached_property
    def shol_edge_xy(self) -> np.ndarray:
        """Edges whose four-corner stencil enters the linear problems: the
        interior and the wired crossing edges."""
        edges = np.concatenate([
            self.vertex_xy[self.interior_pairs],
            np.array([edge_key(*io) for _, io in self._wired_sides()],
                     dtype=np.int64).reshape(-1, 2, 2)])
        # sorted by lower endpoint, then by upper one
        order = (2 * codes(edges[:, 0])
                 + (edges[:, 1, 1] > edges[:, 0, 1])).argsort()
        return edges[order]

    @cached_property
    def vertices(self) -> frozenset[Coord]:
        return frozenset(_points(self.vertex_xy))

    @cached_property
    def vertex_index(self) -> dict[Coord, int]:
        return dict(zip(_points(self.vertex_xy), range(len(self.vertex_xy))))

    @cached_property
    def duals(self) -> set[Coord]:
        return {(x + s[0], y + s[1]) for x, y in self.vertices
                for s in AXIS_STEPS}

    @cached_property
    def interior_edges(self) -> set[Edge]:
        a, b = self.vertex_xy[self.interior_pairs.T]
        return set(zip(_points(a), _points(b)))

    @cached_property
    def crossing_edges(self) -> set[Edge]:
        return {edge_key(*io) for io in self.sides.values()}

    @cached_property
    def corners(self) -> set[Coord]:
        return set(_points(self.corner_xy))

    @cached_property
    def shol_edges(self) -> set[Edge]:
        return set(zip(_points(self.shol_edge_xy[:, 0]),
                       _points(self.shol_edge_xy[:, 1])))

    # -- queries ---------------------------------------------------------

    @staticmethod
    def loop_edges(loop: list[Coord]) -> list[tuple[Coord, Coord]]:
        return [(loop[i], loop[(i + 1) % len(loop)]) for i in range(len(loop))]

    def position(self, c: Coord) -> complex:
        return complex(c[0], c[1]) * (self.delta / 2.0)

    def stencil(self, e: Edge):
        """Corners at the N, E, S, W positions around the midpoint of e."""
        m = edge_midpoint(e)
        n = (m[0], m[1] + 1)
        s = (m[0], m[1] - 1)
        east = (m[0] + 1, m[1])
        west = (m[0] - 1, m[1])
        return n, east, s, west

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


def build_rectangle(delta: float, width: int, height: int,
                    arc_spec=WIRED) -> MeshDomain:
    """Simply connected width x height block of primal vertices.

    Lattice coordinates (m, n) embed as (2(m-n), 2(m+n)); the block is a
    square rotated by 45 degrees in the plane, with straight lattice
    boundary on all four sides.
    """
    if width < 2 or height < 2:
        raise ValueError("rectangle needs width, height >= 2")
    m, n = np.divmod(np.arange(width * height), height)
    xy = np.stack([2 * (m - n), 2 * (m + n)], axis=1)
    return MeshDomain(delta, xy, [arc_spec])


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
    verts = _prune_pinches(verts)
    dom = MeshDomain(delta, verts)
    if len(dom.boundary_loops) != 2:
        raise ValueError("annulus discretization did not produce two loops")
    dom._apply_arc_specs([outer_spec, inner_spec])
    dom.modulus = math.log(outer_radius / inner_radius)
    return dom


def _prune_pinches(verts: set[Coord]) -> set[Coord]:
    """The largest connected part of verts, with vertices removed until
    every boundary dual vertex has exactly two incident boundary edges
    (simple loops)."""
    for _ in range(64):
        best: set[Coord] = set()
        seen: set[Coord] = set()
        for v0 in verts:
            if v0 not in seen:
                comp = bfs(v0, lambda v: neighbors_in(v, DIAG_STEPS, verts))
                seen.update(comp)
                if len(comp) > len(best):
                    best = set(comp)
        verts = best
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
            return verts
        verts.discard(min(owners[bad[0]]))
    raise ValueError("could not repair boundary into simple loops")


@dataclass
class DoubleCover:
    """A double cover ramified at primal vertices: the ramification
    vertices and a branch cut of primal edges, whose mod-2 boundary is the
    ramification set."""

    ram_primal: frozenset[Coord] = frozenset()
    cut: frozenset[Edge] = frozenset()

    def crosses(self, c1: Coord, c2: Coord) -> bool:
        """Whether the corner step c1 -> c2 crosses the branch cut."""
        return step_crossed_edge(c1, c2) in self.cut

    def step_sign(self, c1: Coord, c2: Coord) -> int:
        """Sign a spinor picks up along the corner step c1 -> c2: the
        continuation of its phase, negated when the step crosses the cut."""
        s = phase_step_sign(c1, c2)
        return -s if self.crosses(c1, c2) else s

    def path_sign(self, path) -> int:
        """The product of step_sign along a corner path; a step between
        points that are not neighbouring corners raises ValueError."""
        s = 1
        for c1, c2 in zip(path, path[1:]):
            if ((c1[0] + c1[1]) % 2 == 0 or abs(c1[0] - c2[0]) != 1
                    or abs(c1[1] - c2[1]) != 1):
                raise ValueError(f"not a corner step: {c1} -> {c2}")
            s *= self.step_sign(c1, c2)
        return s


def make_cover(domain: MeshDomain, points) -> DoubleCover:
    """Double cover ramified at the points that occur an odd number of
    times, each a vertex of the domain; any other point raises ValueError
    naming it.

    The vertices are paired greedily in sorted order: the first left is
    joined to the nearest other by graph distance (ties to the least
    vertex), and the cut holds the edges of their shortest path.
    """
    ram = reduce_mod2(points)
    for p in ram:
        if not is_primal(p):
            raise ValueError(f"ramification point is not a primal vertex: {p}")
        if p not in domain.vertices:
            raise ValueError(f"ramification vertex outside domain: {p}")
    if len(ram) % 2 == 1:
        raise ValueError("odd number of primal ramification points")

    def neighbors(c):
        return neighbors_in(c, DIAG_STEPS, domain.vertices)

    cut: set[Edge] = set()
    todo = list(ram)
    while todo:
        a = todo.pop(0)
        parents = bfs(a, neighbors)
        if any(b not in parents for b in todo):
            raise ValueError(f"no path from the ramification vertex {a}")
        path = min((path_to(parents, b) for b in todo),
                   key=lambda p: (len(p), p[-1]))
        todo.remove(path[-1])
        cut.symmetric_difference_update(
            edge_key(x, y) for x, y in zip(path, path[1:]))
    return DoubleCover(frozenset(ram), frozenset(cut))


def _run_labels(domain: MeshDomain, runs_per_loop, allowed,
                kind: str) -> dict[Edge, str]:
    """Label of each boundary dual edge, from one list of (label, count)
    runs per loop, consumed along the oriented loop from its canonical
    start."""
    if len(runs_per_loop) != len(domain.boundary_loops):
        raise ValueError(f"need one {kind} spec per boundary loop")
    out: dict[Edge, str] = {}
    for loop, runs in zip(domain.boundary_loops, runs_per_loop):
        covered = sum(n for _, n in runs)
        if covered != len(loop):
            raise ValueError(
                f"{kind} spec covers {covered} edges, loop has {len(loop)}")
        for label, _ in runs:
            if label not in allowed:
                raise ValueError(f"unknown {kind} label {label!r}")
        labels = (label for label, n in runs for _ in range(n))
        for oe, label in zip(domain.loop_edges(loop), labels):
            out[edge_key(*oe)] = label
    return out


@dataclass
class PMBoundarySpec:
    """plus/minus/free labels per boundary loop, as runs along each loop."""

    runs: list[list[tuple[str, int]]]  # one list of (label, count) per loop

    def edge_labels(self, domain: MeshDomain) -> dict[Edge, str]:
        return _run_labels(domain, self.runs, (PLUS, MINUS, FREE), "pm")
