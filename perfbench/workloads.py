"""The four workloads of the isinglab benchmark.

`setup(name, seed)` turns a seed into the workload's inputs and returns its
operations.  An operation is a call into isinglab's public functions or its
command line, timed, plus a check of the answer against an independent
computation or a property the method must have.  The check is not timed.
Every round runs the same operations on the same inputs.

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from isinglab import (cli, continuum as cont, elliptic, exact, lattice,
                      montecarlo, pfaffian, sholo)

import reference

NAMES = ("oracle", "square_ladder", "mc", "closed_forms")

OUT = Path(__file__).resolve().parent / "out"

# Operations that fail on every seed because of a known fault in the
# program; any other failure makes a run incorrect.  converge-square at
# 1/delta = 256 (n = 182) puts the probe pair (0.32, 0.48)-(0.67, 0.55) on
# corners of phases (e^{-i pi/4}, e^{+i pi/4}), where the observable misses
# the transported half-plane kernel by 12% although the solver residual is
# at machine precision.
KNOWN_FAILURES = {"square_ladder": {"ladder_256_pair0"}}


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    ops: list[Op]
    prepare: Callable[[], None] = field(default=lambda: None)


def setup(name: str, seed: int, small: bool = False) -> Workload:
    """Inputs and operations of a workload; also fills the once-per-process
    caches that a command-line run pays for as well."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    elliptic.constants()
    rng = random.Random(f"{name}:{seed}")
    return {"oracle": _oracle, "square_ladder": _square_ladder, "mc": _mc,
            "closed_forms": _closed_forms}[name](rng, small)


# -- shared helpers --------------------------------------------------------


def run_cli(args) -> tuple[int, str]:
    """isinglab's command line in this process, its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in args])
    return rc, buf.getvalue()


def csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _write_config(name: str, cfg: dict) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _close(a, b, tol: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= tol * max(scale, abs(a))


def _inner_corner(dom, avoid=()):
    """First corner, in sorted order, whose vertex and its four
    neighbours lie in the domain, skipping vertices in avoid."""
    for c in sorted(dom.corners):
        p, _ = lattice.corner_neighbors(c)
        if p not in avoid and p in dom.vertices and all(
                (p[0] + s[0], p[1] + s[1]) in dom.vertices
                for s in lattice.DIAG_STEPS):
            return c
    raise ValueError("domain has no interior corner")


def _pm_spec(dom, label):
    """Plus/minus labels on the boundary of a rectangle: each boundary
    edge takes label(m, n) of the outer vertex across it."""
    runs = []
    for oe in dom.loop_edges(dom.boundary_loops[0]):
        a, b = lattice.crossing_edge(lattice.edge_key(*oe))
        out = a if a not in dom.vertices else b
        lab = "plus" if label(reference.from_grid(out)) > 0 else "minus"
        if runs and runs[-1][0] == lab:
            runs[-1] = (lab, runs[-1][1] + 1)
        else:
            runs.append((lab, 1))
    return lattice.PMBoundarySpec([runs])


def _half_plane_label(rng, width, height):
    """+1 on one side of a seeded line through the centre, -1 on the other."""
    theta = rng.uniform(0, 2 * math.pi)
    cx, cy = (width - 1) / 2, (height - 1) / 2

    def label(mn, flip=1):
        side = math.cos(theta) * (mn[0] - cx) + math.sin(theta) * (mn[1] - cy)
        return flip if side > 0 else -flip
    return label


# -- oracle: enumeration against the solver and closed identities ------------

# (width, height, free arc, branch-point pair) of the field comparisons;
# the mix is fixed so that every seed costs the same, and the seed places
# arcs, branch points and insertion points.
ORACLE_DOMAINS = [(3, 3, False, False), (3, 3, True, True), (4, 3, True, False),
                  (3, 4, False, True), (4, 4, True, False), (4, 4, False, True)]
# (k, rectangle) of the multipoint-against-Pfaffian comparisons.  The 5x4
# block (2^21 configurations per sum) is enumerated here rather than for a
# whole field: its 55 sums would take 13 s, one sample per run.
MULTIPOINT = [(4, (5, 4)), (6, (4, 4))]


def _oracle(rng, small):
    domains = ORACLE_DOMAINS[:4] if small else ORACLE_DOMAINS
    ops = []
    for w, h, arc, ram in domains:
        spec = _domain_spec(rng, w, h, arc, ram)
        tag = f"{w}x{h}{'_arc' if arc else ''}{'_ram' if ram else ''}"
        ops.append(Op(f"field_{tag}", partial(_field_call, spec),
                      _field_check))
    for k, size in MULTIPOINT:
        size = (4, 3) if small else size
        idx = rng.sample(range(4 * size[0] * size[1]), k)
        ops.append(Op(f"multipoint_k{k}_{size[0]}x{size[1]}",
                      partial(_multipoint_call, size, idx),
                      _multipoint_check))
    pm_size = (3, 3) if small else (4, 4)
    for j, n_spins in enumerate((1, 1, 2, 2)):
        label = _half_plane_label(rng, *pm_size)
        spins = rng.sample([(m, n) for m in range(pm_size[0])
                            for n in range(pm_size[1])], n_spins)
        ops.append(Op(f"corr_pm_{n_spins}spin_{j}",
                      partial(_pm_flip_call, pm_size, label, spins),
                      partial(_pm_flip_check, n_spins)))
    ops.append(Op("exact_check_cli", partial(_exact_check_call, False),
                  _exact_check_check))
    for w, h in ((3, 3), (4, 3)):
        verts = [(m, n) for m in range(w) for n in range(h)]
        pair = rng.sample(verts, 2)
        single = rng.choice(verts)
        label = _half_plane_label(rng, w, h)
        ref = _BruteForce(w, h, pair, single, label)
        ops.append(Op(f"bruteforce_{w}x{h}",
                      partial(_bruteforce_call, w, h, pair, single, label),
                      ref.check))
    return Workload(ops)


def _domain_spec(rng, w, h, arc, ram):
    loop_len = 2 * (w + h)
    arc_spec = lattice.WIRED
    if arc:
        n_free = rng.randrange(2, max(3, loop_len // 3))
        start = rng.randrange(loop_len - n_free)
        arc_spec = [(lab, n) for lab, n in
                    ((lattice.WIRED, start), (lattice.FREE, n_free),
                     (lattice.WIRED, loop_len - start - n_free)) if n > 0]
    interior = {reference.to_grid((m, n)) for m in range(1, w - 1)
                for n in range(1, h - 1)}
    verts = [reference.to_grid((m, n)) for m in range(w) for n in range(h)]
    points = []
    while ram and (not points or interior <= set(points)):
        points = rng.sample(verts, 2)
    return w, h, arc_spec, points


def _field_call(spec):
    w, h, arc_spec, points = spec
    dom = lattice.build_rectangle(1.0, w, h, arc_spec)
    cov = lattice.make_cover(dom, points)
    src = _inner_corner(dom, avoid=set(points))
    field_ = exact.fermion_field(dom, cov, src)
    return field_, sholo.solve_observable(dom, cov, src).observable()


def _field_check(result) -> bool:
    """Solver equals enumeration at every corner (1e-10 relative, with the
    scale floored at 1% of the largest value)."""
    field_, obs = result
    vals = {c: v for c, v in field_.items() if not isinstance(v, tuple)}
    sup = max(abs(v) for v in vals.values())
    return all(abs(v - obs[c]) <= 1e-10 * max(abs(v), 1e-2 * sup)
               for c, v in vals.items())


def _multipoint_call(size, idx):
    dom = lattice.build_rectangle(1.0, *size)
    cov = lattice.make_cover(dom, [])
    bulk = sorted(c for c in dom.corners
                  if lattice.corner_neighbors(c)[0] in dom.vertices)
    pts = [bulk[i] for i in idx]
    direct = exact.fermion_multipoint(dom, cov, pts)
    table = pfaffian.assemble_multipoint(
        lambda i, j: exact.fermion_multipoint(dom, cov, [pts[i], pts[j]],
                                              avoid=pts), len(pts))
    return direct, table


def _multipoint_check(result) -> bool:
    direct, pf = result
    return abs(direct) > 0 and abs(direct - pf) <= 1e-10 * abs(direct)


def _pm_flip_call(size, label, spins):
    dom = lattice.build_rectangle(1.0, *size)
    grid = [reference.to_grid(v) for v in spins]
    plus = exact.corr_pm(dom, _pm_spec(dom, label), grid)
    minus = exact.corr_pm(dom, _pm_spec(dom, partial(label, flip=-1)), grid)
    return plus, minus


def _pm_flip_check(n_spins, result) -> bool:
    """Each value passed corr_pm's own pinned-versus-monochromatic
    comparison (1e-10); swapping plus and minus flips odd correlations."""
    plus, minus = result
    return abs(plus - (-1) ** n_spins * minus) <= 1e-10


def _exact_check_call(inject):
    return run_cli(["exact-check", "--size", 4]
                   + (["--inject-bug"] if inject else []))


def _exact_check_check(result) -> bool:
    rc, text = result
    rows = csv_rows(text)
    return rc == 0 and len(rows) == 4 and all(
        float(r["max_residual"]) <= float(r["tolerance"]) for r in rows)


def _bruteforce_call(w, h, pair, single, label):
    dom = lattice.build_rectangle(1.0, w, h)
    z = exact.partition_function(dom)
    corr = exact.corr_spin(dom, [reference.to_grid(v) for v in pair])
    pinned = exact.corr_pm(dom, _pm_spec(dom, label),
                           [reference.to_grid(single)])
    return z, corr, pinned


class _BruteForce:
    """Checks the enumeration against reference.Rectangle (1e-12); the
    reference sums are made once, on first use."""

    def __init__(self, w, h, pair, single, label):
        self.args = (w, h, pair, single, label)
        self.want = None

    def check(self, result) -> bool:
        if self.want is None:
            w, h, pair, single, label = self.args
            rect = reference.Rectangle(w, h)
            self.want = (rect.partition_function(), rect.corr_spin(pair),
                         rect.corr_pinned(label, [single]))
        z, corr, pinned = result
        return (abs(z - self.want[0]) <= 1e-12 * self.want[0]
                and abs(corr - self.want[1]) <= 1e-12
                and abs(pinned - self.want[2]) <= 1e-12)


# -- square_ladder: the solver at growing mesh ------------------------------

# The two probe pairs of acceptance criterion 4.
SQUARE_PAIRS = [((0.32, 0.48), (0.67, 0.55)), ((0.45, 0.72), (0.72, 0.68))]


def _square_ladder(rng, small):
    rungs = (64,) if small else (64, 128, 256)
    configs = [_write_config(f"square_pair{i}.json", {"z1": z1, "z2": z2})
               for i, (z1, z2) in enumerate(SQUARE_PAIRS)]
    plan = [(od, i) for od in rungs for i in range(len(SQUARE_PAIRS))]
    rng.shuffle(plan)
    ops = [Op(f"ladder_{od}_pair{i}",
              partial(run_cli, ["converge-square", "--mesh-ladder", od,
                                "--config", configs[i]]),
              _ladder_check) for od, i in plan]
    return Workload(ops)


def _ladder_check(result) -> bool:
    """Relative error against the transported half-plane kernel <= 2%."""
    rc, text = result
    (row,) = csv_rows(text)
    rel = float(row["rel_error"])
    return (rc == 0 and rel <= 0.02
            and _close(float(row["abs_error"]) / float(row["scale"]), rel,
                       1e-12))


# -- mc: cluster Monte Carlo against closed forms and enumeration -----------

# The checks of mc are statistical: a 3- or 4-standard-error test of a
# correct sampler still fails on a few sample streams in a thousand.  So
# that a run's verdict is decided by its inputs alone, every stream seed
# is a fixed function of what it samples, and the seed of the run draws
# from a finite set of inputs; sweep_mc.py runs every one of them.  The
# small inputs of the tests are too few samples for that: they use the
# first annulus seed, and the tests check them.
ANNULUS_SEEDS = range(1, 9)          # annulus-mc --seed
DOBRUSHIN_SQUARES = ((4, 4), (4, 4), (5, 4), (5, 4))
DOBRUSHIN_SQUARES_SMALL = ((3, 3), (4, 3))


def _mc(rng, small):
    seed = ANNULUS_SEEDS[0] if small else rng.choice(ANNULUS_SEEDS)
    ops = [Op("annulus_mc_cli", partial(run_cli, annulus_mc_args(seed, small)),
              _annulus_check)]
    refs = []
    squares = DOBRUSHIN_SQUARES_SMALL if small else DOBRUSHIN_SQUARES
    for j, (w, h) in enumerate(squares):
        start = rng.randrange(2 * (w + h))
        mn = (rng.randrange(w), rng.randrange(h))
        spec, vertex, seed = dobrushin_input(w, h, start, mn)
        ref = _ExactRef(w, h, spec, vertex)
        refs.append(ref)
        ops.append(Op(f"dobrushin_{w}x{h}_{j}",
                      partial(dobrushin_call, w, h, spec, vertex, seed,
                              small),
                      ref.check))

    def prepare():
        for ref in refs:
            ref.compute()
    return Workload(ops, prepare)


def annulus_mc_args(seed, small):
    """Command line of annulus-mc: 3000 samples after 500 thermalization
    updates (600 after 200 when small)."""
    n_samples, n_therm = (600, 200) if small else (3000, 500)
    cfg = _write_config(f"annulus_therm{n_therm}.json", {"n_therm": n_therm})
    return ["annulus-mc", "--diameter", 64, "--seed", seed,
            "--n-samples", n_samples, "--config", cfg]


def dobrushin_input(w, h, start, mn):
    """Plus on half the boundary of the w x h square from edge `start`,
    minus on the rest, and the spin at (m, n); returns the boundary spec,
    the spin's vertex and the seed of its sample stream."""
    loop_len = 2 * (w + h)
    n_plus = loop_len // 2
    runs = [("minus", start), ("plus", n_plus),
            ("minus", loop_len - start - n_plus)]
    if start + n_plus > loop_len:
        over = start + n_plus - loop_len
        runs = [("plus", over), ("minus", loop_len - n_plus),
                ("plus", loop_len - start)]
    spec = lattice.PMBoundarySpec([[r for r in runs if r[1] > 0]])
    m, n = mn
    seed = int(f"{w}{h}{start:02d}{m}{n}")
    return spec, reference.to_grid(mn), seed


def _annulus_check(result) -> bool:
    """Pulls <= 3 at two of the three radii and mean relative deviation
    <= 3%, against the closed form."""
    rc, text = result
    rows = csv_rows(text)
    pulls = [abs(float(r["mc_mean"]) - float(r["prediction"]))
             / float(r["mc_stderr"]) for r in rows]
    rel = [abs(float(r["mc_mean"]) - float(r["prediction"]))
           / abs(float(r["prediction"])) for r in rows]
    return (rc == 0 and len(rows) == 3
            and sum(p <= 3.0 for p in pulls) >= 2
            and sum(rel) / len(rel) <= 0.03)


def dobrushin_call(w, h, spec, vertex, seed, small):
    dom = lattice.build_rectangle(1.0, w, h)
    n_samples = 1000 if small else 4000
    return montecarlo.estimate(dom, spec, ("spin_product", [vertex]),
                               n_samples // 8, n_samples, seed, n_bins=40)


class _ExactRef:
    """exact.corr_pm of one spin on a Dobrushin square, made before the
    measured rounds; the estimate must lie within 4 standard errors."""

    def __init__(self, w, h, spec, vertex):
        self.args = (w, h, spec, vertex)
        self.value = None

    def compute(self):
        w, h, spec, vertex = self.args
        self.value = exact.corr_pm(lattice.build_rectangle(1.0, w, h), spec,
                                   [vertex])

    def check(self, est) -> bool:
        return est.stderr > 0 and abs(est.mean - self.value) <= 4 * est.stderr


# -- closed_forms: many short closed-form queries ---------------------------

CLOSED_SETS = 16    # seeded point sets per family in one round
FUSION_SETS = 2
# Fixed moduli, so that the length of the theta series, and with it the
# cost of a round, does not depend on the seed.
MODULI = (math.log(2), 1.2)


def _closed_forms(rng, small):
    nrng = np.random.default_rng(rng.randrange(2 ** 32))
    for p in MODULI:
        elliptic.wp_invariants(p)
    sholo.discrete_P((0, 1), (41, 30))   # fills the quadrature node cache
    n_sets = 2 if small else CLOSED_SETS
    ops = []
    for i in range(n_sets):
        # Labels, base corners and distances cycle with i rather than
        # being drawn, so that the mix of costs is the same for every seed.
        p = MODULI[i % 2]
        dist = 20 + 40 * (i + rng.random()) / n_sets
        ops += [
            _hp_moebius_op(rng, nrng),
            _hp_pfaffian_op(rng),
            _ann_sigma_op(rng, p, ANN_SIGMA_BC[i % len(ANN_SIGMA_BC)]),
            _ann_fermion_op(rng, p, ANN_FERMION_BC[i % len(ANN_FERMION_BC)]),
            _ann_energy_op(rng, p, *ANN_ENERGY_BC[i % len(ANN_ENERGY_BC)]),
            _jacobi_op(rng, p),
            _wp_op(rng, p),
            _kernel_P_op(rng, KERNEL_BASES[i % len(KERNEL_BASES)], dist),
            _kernel_Q_op(rng, dist),
        ]
    for i in range(1 if small else FUSION_SETS):
        ops += [_fusion_sigma_op(rng), _fusion_mu_op(rng)]
    return Workload(ops)


def _upper_points(rng, k, min_sep=0.3):
    while True:
        pts = [complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
               for _ in range(k)]
        if all(abs(a - b) >= min_sep for i, a in enumerate(pts)
               for b in pts[i + 1:]):
            return pts


def _hp_moebius_op(rng, nrng):
    """Moebius covariance of hp_spin (4 spins, a free arc): the value
    equals the image value times prod |phi'|^(1/8) (1e-12 relative).

    hp_spin_disorder is left out here: with 2 spins and 2 disorders its
    signed sum cancels when the correlation is small, and the residual
    reaches 2.4e-11 on some seeds (see CHANGES.md).  The fusion fits
    still call it."""
    arc = (rng.uniform(-1.5, -0.5), rng.uniform(0.2, 1.2))
    pts = _upper_points(rng, 4)
    while True:
        mob = cont.random_moebius(nrng)
        pole = -mob.d / mob.c if mob.c != 0 else None
        if pole is not None and arc[0] - 0.1 < pole < arc[1] + 0.1:
            continue
        ends = [complex(mob(b)).real for b in arc]
        imgs = [complex(mob(v)) for v in pts]
        if ends[0] < ends[1] and all(0.02 < z.imag < 50 and abs(z.real) < 50
                                     for z in imgs):
            break
    fac = math.prod(abs(mob.deriv(v)) ** 0.125 for v in pts)
    bc, bc2 = cont.HalfPlaneBC(arc), cont.HalfPlaneBC(tuple(ends))
    return Op("hp_spin_moebius",
              lambda: (cont.hp_spin(bc, pts), cont.hp_spin(bc2, imgs)),
              lambda r: r[0] > 0 and abs(r[0] - fac * r[1]) <= 1e-12 * r[0])


def _hp_pfaffian_op(rng):
    """Pfaffian assembly of four wired half-plane fermions against the
    three-term expansion of 2/(z_i - z_j) (1e-12 relative)."""
    zs = _upper_points(rng, 4)
    content = cont.OperatorContent(fermions=tuple(cont.Fermion(z) for z in zs))

    def t(i, j):
        return 2.0 / (zs[i] - zs[j])
    want = t(0, 1) * t(2, 3) - t(0, 2) * t(1, 3) + t(0, 3) * t(1, 2)
    return Op("hp_pfaffian",
              lambda: cont.pfaffian_correlator(cont.hp_two_point("wired"),
                                               content),
              lambda got: abs(got - want) <= 1e-12 * abs(want))


def _annulus_point(rng, p, margin=0.05):
    lo = math.exp(-p)
    r = rng.uniform(lo + margin * (1 - lo), 1 - margin * (1 - lo))
    return r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


# ("plus", "minus") is left out: its closed form divides a - b by 1 - s
# with 1 - s = 1.3e-6 at p = log 2 and loses six digits, so rotation
# invariance misses 1e-12 on some seeds (see CHANGES.md).
ANN_SIGMA_BC = [("free", "plus"), ("wired", "plus"), ("plus", "plus"),
                ("plus", "free")]


def _ann_sigma_op(rng, p, labels):
    """Annulus magnetization is invariant under rotation (1e-12)."""
    bc = cont.AnnulusBC(p, *labels)
    v = _annulus_point(rng, p)
    rot = cmath.exp(1j * rng.uniform(0.1, 2 * math.pi - 0.1))
    return Op("ann_sigma_rotation",
              lambda: (cont.ann_sigma(bc, v), cont.ann_sigma(bc, v * rot)),
              lambda r: _close(r[0], r[1], 1e-12))


ANN_FERMION_BC = [("wired", "wired"), ("wired", "free"), ("free", "wired")]


def _ann_fermion_op(rng, p, labels):
    """f(z, w) = -f(w, z) and f*(w, z) = -conj f*(z, w) (1e-12)."""
    bc = cont.AnnulusBC(p, *labels)
    while True:
        z, w = _annulus_point(rng, p), _annulus_point(rng, p)
        if abs(z - w) >= 0.1:
            break

    def call():
        return (cont.ann_fermion(bc, z, w, "f"), cont.ann_fermion(bc, w, z, "f"),
                cont.ann_fermion(bc, z, w, "fstar"),
                cont.ann_fermion(bc, w, z, "fstar"))

    def check(r):
        f1, f2, s1, s2 = r
        return _close(f1, -f2, 1e-12) and _close(s2, -s1.conjugate(), 1e-12)
    return Op("ann_fermion_symmetry", call, check)


# energy labels and the fermion labels whose starred kernel at coincident
# points gives the energy density through the factor i/2
ANN_ENERGY_BC = [(("wired", "wired"), ("wired", "wired")),
                 (("plus", "free"), ("wired", "free")),
                 (("wired", "free"), ("wired", "free")),
                 (("free", "plus"), ("free", "wired"))]


def _ann_energy_op(rng, p, labels, ferm_labels):
    """Energy one-point function equals (i/2) f*(e, e) and is invariant
    under rotation (1e-12)."""
    bc, fbc = cont.AnnulusBC(p, *labels), cont.AnnulusBC(p, *ferm_labels)
    e = _annulus_point(rng, p)
    rot = cmath.exp(1j * rng.uniform(0.1, 2 * math.pi - 0.1))

    def call():
        return (cont.ann_energy_onepoint(bc, e),
                0.5j * cont.ann_fermion(fbc, e, e, "fstar"),
                cont.ann_energy_onepoint(bc, e * rot))

    def check(r):
        en, kernel, en_rot = r
        return _close(en, kernel, 1e-12) and _close(en, en_rot, 1e-12)
    return Op("ann_energy_dual_route", call, check)


# sign of ns/ds/cs under z -> z + 2p and z -> z + 2 pi i
JACOBI_TABLE = (("ns", -1, 1), ("ds", -1, -1), ("cs", 1, -1))


def _jacobi_op(rng, p):
    """The ns/ds/cs (anti)periodicity table (1e-12 relative)."""
    while True:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) >= 0.1:
            break

    def call():
        return [(elliptic.jacobi(kind, z, p),
                 elliptic.jacobi(kind, z + 2 * p, p),
                 elliptic.jacobi(kind, z + 2j * math.pi, p))
                for kind, _, _ in JACOBI_TABLE]

    def check(r):
        return all(_close(f2, s2p * f, 1e-12, 1.0)
                   and _close(f3, s2pi * f, 1e-12, 1.0)
                   for (f, f2, f3), (_, s2p, s2pi) in zip(r, JACOBI_TABLE))
    return Op("jacobi_periodicity", call, check)


def _wp_op(rng, p):
    """wp'^2 = 4 wp^3 - g2 wp - g3 (1e-12 relative)."""
    while True:
        z = complex(rng.uniform(-p, p), rng.uniform(-math.pi, math.pi))
        if abs(z) >= 0.3:
            break
    _, (g2, g3) = elliptic.wp_invariants(p)

    def check(r):
        w, dw = r
        return abs(dw * dw - (4 * w ** 3 - g2 * w - g3)) <= 1e-12 * max(
            1.0, abs(dw * dw))
    return Op("wp_differential_equation",
              lambda: (elliptic.wp(z, p), elliptic.wp_prime(z, p)), check)


def _corner_phase(c):
    return lattice.corner_phase(lattice.CornerPoint(c))


def _far_corner(rng, base, dist):
    """A corner (exactly one odd coordinate) about dist grid steps away."""
    ang = rng.uniform(-math.pi, math.pi)
    x = base[0] + int(round(dist * math.cos(ang)))
    y = base[1] + int(round(dist * math.sin(ang)))
    return (x + 1, y) if (x + y) % 2 == 0 else (x, y)


KERNEL_BASES = [(0, 1), (1, 0), (0, -3), (2, 5), (-1, 2), (3, -2)]


def _kernel_P_op(rng, a, dist):
    """Discrete 1/z: split values +-eta at the base corner a (1e-12) and a
    value far away that is a real multiple of that corner's eta."""
    z = _far_corner(rng, a, dist)
    eta_a, eta_z = _corner_phase(a), _corner_phase(z)

    def check(r):
        val, (plus, minus) = r
        return (abs(plus - eta_a) <= 1e-12 and abs(minus + eta_a) <= 1e-12
                and abs((val * eta_z.conjugate()).imag) <= 1e-12)
    return Op("discrete_P_far",
              lambda: (sholo.discrete_P(a, z), sholo.discrete_P_split(a)),
              check)


def _kernel_Q_op(rng, dist):
    """Discrete 1/sqrt(z) based at the primal origin: eta at an incident
    corner (1e-12) and a real multiple of eta far away."""
    near = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
    z = _far_corner(rng, (0, 0), dist)
    eta_near, eta_z = _corner_phase(near), _corner_phase(z)

    def check(r):
        at_near, far = r
        return (abs(at_near - eta_near) <= 1e-12
                and abs((far * eta_z.conjugate()).imag) <= 1e-12)
    return Op("discrete_Q_far",
              lambda: (sholo.discrete_Q((0, 0), near),
                       sholo.discrete_Q((0, 0), z)), check)


FUSION_SEPARATIONS = [0.08 * 0.5 ** i for i in range(6)]


def _fusion_sigma_op(rng):
    """sigma x sigma next to a free arc: leading exponent -1/4 (1e-3)."""
    arc = (rng.uniform(-1.5, -0.5), rng.uniform(0.0, 0.5))
    bc = cont.HalfPlaneBC(arc)
    w = complex(rng.uniform(0.8, 1.5), rng.uniform(0.6, 1.2))
    d = cmath.exp(1j * rng.uniform(0.0, math.pi / 2))
    return Op("fusion_sigma_sigma",
              lambda: cont.fusion_extract(
                  lambda h: cont.hp_spin(bc, [w, w + h * d]),
                  FUSION_SEPARATIONS),
              lambda fit: abs(fit.exponent + 0.25) <= 1e-3)


def _fusion_mu_op(rng):
    """mu x sigma in the half-plane: leading exponent +1/4 (1e-3).

    The spin approaches u1 from within 60 degrees of the direction facing
    away from u2: the leading coefficient varies like the cosine of half
    the angle to that direction and vanishes towards u2, where no
    exponent can be read off the six separations."""
    u1 = complex(rng.uniform(-1, 1), rng.uniform(0.6, 1.4))
    u2 = complex(rng.uniform(-1, 1), rng.uniform(0.6, 1.4))
    while abs(u2 - u1) < 0.5:
        u2 = complex(rng.uniform(-1, 1), rng.uniform(0.6, 1.4))
    away = (u1 - u2) / abs(u1 - u2)
    d = away * cmath.exp(1j * rng.uniform(-math.pi / 3, math.pi / 3))
    bc0 = cont.HalfPlaneBC()
    return Op("fusion_mu_sigma",
              lambda: cont.fusion_extract(
                  lambda h: cont.hp_spin_disorder(bc0, [u1 + h * d], [u1, u2]),
                  FUSION_SEPARATIONS),
              lambda fit: abs(fit.exponent - 0.25) <= 1e-3)
