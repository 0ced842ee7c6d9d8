"""Experiment runner: every verification pipeline as a reproducible command.

Commands write CSV (17 significant digits, '.' decimal, one provenance
column naming the property checked) or JSON.  A run is a pure function of
its configuration: flags override the optional JSON config file, and
reruns produce byte-identical output apart from the timestamp header.

Exit codes: 0 pass, 1 tolerance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time

import numpy as np

from . import elliptic, exact, lattice, montecarlo, pfaffian, sholo
from . import continuum as cont


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


def _emit(path, header, rows, fmt):
    out = sys.stdout if path in (None, "-") else open(path, "w")
    try:
        if fmt == "json":
            json.dump({"columns": header, "rows": [list(map(_fmt, r)) for r in rows]},
                      out, indent=1)
            out.write("\n")
        else:
            out.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(_fmt(x) for x in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


# -- commands -------------------------------------------------------------------


def cmd_exact_check(cfg) -> int:
    """Identity suite on an enumerable domain: observables satisfy the
    four-corner relation, boundary relations, the Pfaffian identity, and the
    two-route mixed/pm correlations."""
    size = int(cfg.get("size", 4))
    inject = bool(cfg.get("inject_bug", False))
    dom = lattice.build_rectangle(1.0, size, size)
    cov = lattice.make_cover(dom, [])
    src = lattice.inner_corner(dom)
    field = exact.fermion_field(dom, cov, src)
    rows = []
    worst = 0.0
    for e in sorted(dom.shol_edges):
        quad, signs = sholo.stencil_signs(dom, cov, e)
        n, east, s_, west = quad
        m = lattice.edge_midpoint(e)
        tot = 0j
        for c, pm in ((n, 1), (s_, 1), (east, -1), (west, -1)):
            if c == src:
                tot += (pm * signs[c] * lattice.transport_side(src, m)
                        * field[src][0])
            else:
                tot += pm * signs[c] * field[c]
        worst = max(worst, abs(tot))
    if inject:
        worst += 1.0
    rows.append(("four_corner_relation", worst, 1e-10))
    worst_bc = 0.0
    eta_s = lattice.base_phase(src)
    for c1, c2, sign in sholo.boundary_pairs(dom, cov):
        x1 = (field[c1] * (eta_s * lattice.base_phase(c1)).conjugate()).real
        x2 = (field[c2] * (eta_s * lattice.base_phase(c2)).conjugate()).real
        worst_bc = max(worst_bc, abs(x1 - sign * x2))
    rows.append(("boundary_pair_relations", worst_bc, 1e-10))
    inner = sorted(c for c in dom.corners
                   if lattice.corner_neighbors(c)[0] in dom.vertices)
    pts = [inner[3], inner[11], inner[17], inner[23]]
    f4 = exact.fermion_multipoint(dom, cov, pts)
    table = lambda i, j: exact.fermion_multipoint(dom, cov, [pts[i], pts[j]],
                                                  avoid=pts)
    pf4 = pfaffian.assemble_multipoint(table, 4)
    rows.append(("pfaffian_identity_4pt",
                 abs(f4 - pf4) / max(abs(f4), 1e-30), 1e-10))
    L = len(dom.loop_edges(dom.boundary_loops[0]))
    pm = lattice.PMBoundarySpec([[("plus", L - L // 3), ("minus", L // 3)]])
    v0 = sorted(dom.vertices)[len(dom.vertices) // 2]
    direct = exact._pm_direct(dom, pm, [v0], ())
    mono = exact._pm_via_mono(dom, pm, [v0], ())
    rows.append(("pm_two_routes", abs(direct - mono), 1e-10))
    ok = all(val <= tol for _, val, tol in rows)
    _emit(cfg.get("out"), ["check", "max_residual", "tolerance"],
          rows, cfg.get("format", "csv"))
    return 0 if ok else 1


def cmd_bvp(cfg) -> int:
    """Solve the discrete boundary-value problem and dump the spinor."""
    size = int(cfg.get("size", 6))
    dom = lattice.build_rectangle(1.0, size, size)
    points = [tuple(p) for p in cfg.get("ramification", [])]
    cov = lattice.make_cover(dom, points)
    src = lattice.inner_corner(dom)
    sol = sholo.solve_observable(dom, cov, src)
    rows = [(x, y, sheet, re, im, "bvp_spinor")
            for x, y, sheet, re, im in sol.csv_rows()]
    _emit(cfg.get("out"), ["x", "y", "sheet", "re", "im", "provenance"],
          rows, cfg.get("format", "csv"))
    return 0


def cmd_kernels(cfg) -> int:
    """Tabulate the discrete kernels and their far-field fits."""
    rows = []
    a = (0, 1)
    plus, minus = sholo.discrete_P_split(a)
    eta = lattice.base_phase(a)
    rows.append(("inverse_kernel_split_plus", abs(plus - eta), 1e-12))
    rows.append(("inverse_kernel_split_minus", abs(minus + eta), 1e-12))
    p_, d_ = lattice.corner_neighbors(a)
    dd = (d_[0] - p_[0], d_[1] - p_[1])
    for sgn in (1, -1):
        z = (a[0] - sgn * dd[1], a[1] + sgn * dd[0])
        rows.append((f"inverse_kernel_zero_{'n' if sgn>0 else 's'}",
                     abs(sholo.discrete_P(a, z)), 1e-12))
    radii = [10, 14, 20, 28, 40, 56, 80, 100]
    errs = []
    for r in radii:
        emax = 0.0
        for ang in np.linspace(0.1, 2 * math.pi, 7):
            X, Y = int(round(r * math.cos(ang))), int(round(r * math.sin(ang)))
            if (X + Y) % 2 == 0:
                X += 1
            z = (X, Y)
            val = sholo.discrete_P(a, z)
            pos = complex(z[0] - a[0], z[1] - a[1]) / 2
            eta_z = lattice.base_phase(z)
            proj = (2 / math.pi) * eta_z * (eta_z.conjugate()
                                            * eta.conjugate() / pos).real
            emax = max(emax, abs(val - proj))
        errs.append(emax)
    slope = -np.polyfit(np.log(radii), np.log(errs), 1)[0]
    rows.append(("inverse_kernel_decay_exponent", float(slope), -1.9))
    worst_q = 0.0
    for z in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        worst_q = max(worst_q, abs(sholo.discrete_Q((0, 0), z)
                                   - lattice.base_phase(z)))
    rows.append(("sqrt_kernel_incident_values", worst_q, 1e-12))
    ok = all((v <= t if t > 0 else v >= -t) for _, v, t in rows)
    _emit(cfg.get("out"), ["check", "value", "tolerance_or_bound"],
          rows, cfg.get("format", "csv"))
    return 0 if ok else 1


def cmd_hp_eval(cfg) -> int:
    """Half-plane correlation tables."""
    bc = cont.HalfPlaneBC(tuple(cfg.get("free_endpoints", ())),
                          bool(cfg.get("fixed_is_plus", False)))
    rows = []
    spins = [complex(*v) if isinstance(v, (list, tuple)) else complex(v)
             for v in cfg.get("spins", [[0, 1], [0, 2]])]
    val = cont.hp_spin(bc, spins)
    rows.append(("hp_spin", " ".join(_fmt(v) for v in spins), val))
    if cfg.get("disorders"):
        us = [complex(*u) for u in cfg["disorders"]]
        vald = cont.hp_spin_disorder(bc, spins, us)
        rows.append(("hp_spin_disorder",
                     " ".join(_fmt(v) for v in spins + us), vald))
    z1, z2 = 1j, 2j
    rows.append(("hp_fermion_f", f"{_fmt(z1)} {_fmt(z2)}",
                 cont.hp_fermion("wired", z1, z2, "f")))
    rows.append(("hp_fermion_fstar", f"{_fmt(z1)} {_fmt(z2)}",
                 cont.hp_fermion("wired", z1, z2, "fstar")))
    _emit(cfg.get("out"), ["quantity", "points", "value"],
          rows, cfg.get("format", "csv"))
    return 0


def cmd_annulus_eval(cfg) -> int:
    """Annulus correlation tables with a rotation-invariance column."""
    p = float(cfg.get("modulus", math.log(2)))
    radii = cfg.get("radii", [0.6, 0.75, 0.9])
    rows = []
    for pair in (("free", "plus"), ("wired", "plus"), ("plus", "plus"),
                 ("plus", "minus")):
        bc = cont.AnnulusBC(p, *pair)
        for r in radii:
            if not (math.exp(-p) < r < 1):
                continue
            v = cont.ann_sigma(bc, r)
            v_rot = cont.ann_sigma(bc, r * cmath.exp(1.234j))
            rows.append((f"ann_sigma_{pair[0]}_{pair[1]}", r, v,
                         abs(v - v_rot)))
    e = 0.8
    for pair in (("plus", "free"), ("wired", "wired")):
        bc = cont.AnnulusBC(p, *pair)
        rows.append((f"ann_energy_{pair[0]}_{pair[1]}", e,
                     cont.ann_energy_onepoint(bc, e), 0.0))
    b1, b2 = cmath.exp(0.3j), cmath.exp(2.0j)
    rows.append(("ann_sle_free", 0.0, cont.ann_sle_partition(b1, b2, p, "free"),
                 abs(cont.ann_sle_partition(b1, b2, p, "free")
                     - cont.ann_sle_partition(b1 * 1j, b2 * 1j, p, "free"))))
    rows.append(("ann_sle_plus", 0.0, cont.ann_sle_partition(b1, b2, p, "plus"),
                 0.0))
    _emit(cfg.get("out"), ["quantity", "radius", "value", "rotation_residual"],
          rows, cfg.get("format", "csv"))
    return 0


# the lattice square is rotated by 45 degrees in the plane
_ROT = cmath.exp(-1j * math.pi / 4)


def _unit_square_map(dom):
    """Map of the plane onto the unit square, calibrated from the dual
    boundary loop of a square domain, and the square's side."""
    boundary_pts = [_ROT * dom.position(u) for u in dom.boundary_loops[0]]
    xlo = min(w.real for w in boundary_pts)
    xhi = max(w.real for w in boundary_pts)
    ylo = min(w.imag for w in boundary_pts)
    side = xhi - xlo
    offset = complex(xlo, ylo)

    def to_unit(zc):
        return (_ROT * zc - offset) / side
    return to_unit, side


def _probe_corners(dom, to_unit, targets):
    """For each target in the unit square, the nearest corner v +- (1, 0)
    of a vertex v (one corner orientation along the ladder); of equally
    near corners, the first in sorted order."""
    verts = dom.vertex_xy
    cands = np.concatenate([verts + (1, 0), verts - (1, 0)])
    cands = cands[np.lexsort(cands.T[::-1])]
    unit = to_unit((cands[:, 0] + 1j * cands[:, 1]) * (dom.delta / 2.0))
    return [tuple(cands[int(np.argmin(np.abs(unit - t)))].tolist())
            for t in targets]


def _square_observable_error(n_lattice: int, z1_frac, z2_frac):
    """Solver two-point observable on the wired square against the
    transported half-plane kernel; returns (one_over_delta, error, scale).

    The continuum square is calibrated from the dual boundary loop, and the
    chain of maps is unit square -> standard rectangle -> half-plane.
    """
    dom = lattice.build_rectangle(1.0, n_lattice, n_lattice)
    cov = lattice.make_cover(dom, [])
    to_unit, side = _unit_square_map(dom)
    rm = elliptic.rect_map(1.0)
    c1, c2 = _probe_corners(dom, to_unit,
                            [complex(*z1_frac), complex(*z2_frac)])
    sol = sholo.solve_observable(dom, cov, c1)
    # the observable F(c1, c2), read without building the whole field
    F = lattice.base_phase(c1) * sol.value(c2)
    delta_eff = 1.0 / side

    w1, w2 = to_unit(dom.position(c1)), to_unit(dom.position(c2))
    phi1, phi2 = rm.from_rect(w1), rm.from_rect(w2)
    dw_dz = _ROT / side
    dphi1 = rm.from_rect_deriv(w1) * dw_dz
    dphi2 = rm.from_rect_deriv(w2) * dw_dz
    f_sq = (cont.hp_fermion("wired", phi1, phi2, "f")
            * cmath.sqrt(dphi1) * cmath.sqrt(dphi2))
    fs_sq = (cont.hp_fermion("wired", phi1, phi2, "fstar")
             * cmath.sqrt(dphi1).conjugate() * cmath.sqrt(dphi2))
    eta1 = lattice.base_phase(c1)
    eta2 = lattice.base_phase(c2)
    f_eta = 0.5 * (eta1.conjugate() * f_sq + eta1 * fs_sq)
    target = (2 / math.pi) * eta1 * eta2 * (eta2.conjugate() * f_eta).real
    # the map derivatives carry the rescaling to the unit square, so the
    # lattice side divides by its own mesh (one lattice unit)
    lattice_val = F / dom.delta
    return 1.0 / delta_eff, abs(lattice_val - target), abs(target)


def cmd_converge_square(cfg) -> int:
    """Mesh-refinement of the two-point observable on the wired square."""
    ladder = cfg.get("mesh_ladder", [16, 32, 64, 128])
    z1 = cfg.get("z1", (0.32, 0.48))
    z2 = cfg.get("z2", (0.67, 0.55))
    for name, z in (("z1", z1), ("z2", z2)):
        if len(z) != 2 or not all(0 < t < 1 for t in z):
            raise ValueError(f"{name} {z} is not inside the unit square")
    rows = []
    errs = []
    for over_delta in ladder:
        n = int(round(over_delta / math.sqrt(2.0))) + 1
        od, err, scale = _square_observable_error(n, z1, z2)
        rel = err / scale
        rows.append((od, err, scale, rel, "square_convergence"))
        errs.append(rel)
    monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    final_ok = errs[-1] < float(cfg.get("final_tol", 0.02))
    _emit(cfg.get("out"),
          ["one_over_delta", "abs_error", "scale", "rel_error", "provenance"],
          rows, cfg.get("format", "csv"))
    return 0 if monotone and final_ok else 1


def cmd_annulus_mc(cfg) -> int:
    """Wolff sampling of the annulus magnetization against the closed form,
    every radius measured on one chain."""
    p = float(cfg.get("modulus", math.log(2)))
    diameter = int(cfg.get("diameter", 64))
    seed = int(cfg.get("seed", 20))
    n_samples = int(cfg.get("n_samples", 20000))
    n_therm = int(cfg.get("n_therm", 2000))
    outer_r = diameter / 2.0
    inner_r = outer_r * math.exp(-p)
    dom = lattice.build_annulus(1.0, outer_r, inner_r)
    L_out = len(dom.loop_edges(dom.boundary_loops[0]))
    L_in = len(dom.loop_edges(dom.boundary_loops[1]))
    pm = lattice.PMBoundarySpec([[("free", L_out)], [("plus", L_in)]])
    consts = elliptic.constants()
    # Effective continuum geometry: dual boundary loop radii plus the
    # non-universal boundary layer offsets (in units of the mesh),
    # calibrated once on an independent small lattice and applied
    # unchanged at every size; see the README verification notes.
    off_in = float(cfg.get("inner_offset", -1.0))
    off_out = float(cfg.get("outer_offset", 0.1))
    r_out = off_out + float(np.mean([math.hypot(*u) / 2.0
                                     for u in dom.boundary_loops[0]]))
    r_in = off_in + float(np.mean([math.hypot(*u) / 2.0
                                   for u in dom.boundary_loops[1]]))
    p_eff = math.log(r_out / r_in)
    radii_frac = cfg.get("radii", [0.62, 0.75, 0.88])
    rings = []
    for fr in radii_frac:
        ring = [v for v in sorted(dom.vertices)
                if abs(math.hypot(v[0], v[1]) / 2.0 - fr * outer_r) < 1.5]
        if not ring:
            raise ValueError(f"no lattice vertex at radius fraction {fr}")
        rings.append(ring)
    ests = montecarlo.estimates(dom, pm, [("mean_spin", r) for r in rings],
                                n_therm, n_samples, seed)
    manifest = (f"seed={seed};bc=free/plus;diameter={diameter};"
                f"n_therm={n_therm};n_samples={n_samples}")
    delta_eff = 1.0 / r_out
    bc = cont.AnnulusBC(p_eff, "free", "plus")
    rows = []
    pulls = []
    rel_avg = []
    for ring, est in zip(rings, ests):
        mean_r = float(np.mean([math.hypot(*v) / 2.0 for v in ring]))
        pred = consts.C_sigma * delta_eff ** 0.125 * cont.ann_sigma_coherent(
            bc, mean_r / r_out)
        pull = (est.mean - pred) / est.stderr if est.stderr > 0 else math.inf
        pulls.append(abs(pull))
        rel_avg.append(abs(est.mean - pred) / abs(pred))
        rows.append((1.0, mean_r / r_out, est.mean, est.stderr, pred, pull,
                     est.ess, manifest, "annulus_magnetization"))
    ok = (sum(1 for x in pulls if x <= 3.0) >= max(2, len(pulls) - 1)
          and float(np.mean(rel_avg)) <= float(cfg.get("rel_tol", 0.03)))
    _emit(cfg.get("out"),
          ["delta", "radius_frac", "mc_mean", "mc_stderr", "prediction",
           "pull", "ess", "manifest", "provenance"],
          rows, cfg.get("format", "csv"))
    return 0 if ok else 1


def cmd_fusion(cfg) -> int:
    """Short-distance expansion fits against their predicted cells."""
    rule = cfg.get("rule", "sigma_sigma")
    seps = [0.08 * 0.5 ** i for i in range(6)]
    report = {"rule": rule}
    if rule == "sigma_sigma":
        bc = cont.HalfPlaneBC((-1.0, 0.2))
        w = 1.1 + 0.9j
        direction = cmath.exp(0.3j)
        eps_w = (0.5j * cont.hp_fermion("free_arc", w, w, "fstar",
                                        arc=(-1.0, 0.2))).real

        def ev(h):
            return cont.hp_spin(bc, [w, w + h * direction])
        fit = cont.fusion_extract(ev, seps, exponent=-0.25, leading=1.0)
        report.update(exponent=fit.exponent, exponent_want=-0.25,
                      coefficient=float(np.real(fit.coefficient)),
                      coefficient_want=0.5 * eps_w,
                      exponent_err=abs(fit.exponent + 0.25),
                      coefficient_err=abs(fit.coefficient - 0.5 * eps_w))
        ok = (report["exponent_err"] < 1e-3
              and report["coefficient_err"] < 1e-3 * max(1, abs(eps_w)))
    elif rule == "psi_psi":
        p = math.log(2)
        bc = cont.AnnulusBC(p)
        w = 0.75 * cmath.exp(0.4j)

        def ev(h):
            z = w + h * cmath.exp(0.2j)
            return (z - w) * cont.ann_fermion(bc, z, w, "f")
        hs = [0.04 * 0.5 ** i for i in range(7)]
        residue = cont.richardson_sequence([ev(h) for h in hs], 0.5)
        report.update(residue=_fmt(residue),
                      residue_err=abs(residue - 2.0))
        ok = report["residue_err"] < 1e-10
    elif rule == "eps_mu":
        bc0 = cont.HalfPlaneBC()
        u1, u2 = 0.6 + 1.0j, -0.9 + 1.4j
        mumu = cont.hp_spin_disorder(bc0, [], [u1, u2])

        def eps_at(zhat):
            ds = [2e-3 * 0.5 ** i for i in range(4)]
            vals = []
            for d in ds:
                pair = cont.hp_spin_disorder(bc0, [zhat, zhat + d], [u1, u2])
                vals.append(2.0 * (pair * d ** 0.25 - mumu) / d)
            return cont.richardson_sequence(vals, 0.5)

        hs2 = [0.05 * 0.5 ** i for i in range(5)]
        coef = cont.richardson_sequence(
            [eps_at(u1 + h * cmath.exp(0.45j)) * h for h in hs2], 0.5)
        report.update(coefficient=float(np.real(coef / mumu)),
                      coefficient_want=-0.5,
                      coefficient_err=abs(coef / mumu + 0.5))
        ok = report["coefficient_err"] < 1e-3
    elif rule == "mu_sigma":
        bc0 = cont.HalfPlaneBC()
        u1, u2 = 0.6 + 1.0j, -0.9 + 1.4j
        fit = cont.fusion_extract(
            lambda h: cont.hp_spin_disorder(bc0, [u1 + h], [u1, u2]), seps)
        report.update(exponent=fit.exponent, exponent_want=0.25,
                      exponent_err=abs(fit.exponent - 0.25))
        ok = report["exponent_err"] < 1e-3
    else:
        raise ValueError(f"unknown fusion rule {rule!r}")
    report["pass"] = bool(ok)
    out = cfg.get("out")
    text = json.dumps(report, indent=1, default=str)
    if out in (None, "-"):
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    return 0 if ok else 1


def _check_out(path):
    """Refuse an output path into a missing directory before the command
    computes; the file itself is opened only when the result is written."""
    if path not in (None, "-"):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ValueError(f"no directory {folder} for output {path}")


def _mesh_ladder(text: str) -> list[int]:
    """The --mesh-ladder list; as an argparse type, a bad entry is a usage
    error."""
    return [int(x) for x in text.split(",")]


COMMANDS = {
    "exact-check": cmd_exact_check,
    "bvp": cmd_bvp,
    "kernels": cmd_kernels,
    "hp-eval": cmd_hp_eval,
    "annulus-eval": cmd_annulus_eval,
    "converge-square": cmd_converge_square,
    "annulus-mc": cmd_annulus_mc,
    "fusion": cmd_fusion,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isinglab",
        description="verification pipelines for the critical Ising laboratory")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mesh-ladder", type=_mesh_ladder,
                        help="comma-separated 1/delta list")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--size", type=int)
    parser.add_argument("--rule")
    parser.add_argument("--diameter", type=int)
    parser.add_argument("--n-samples", type=int)
    parser.add_argument("--inject-bug", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as ex:
            print(f"error: bad config {args.config}: {ex}", file=sys.stderr)
            return 2
    for key in ("seed", "out", "format", "size", "rule", "diameter"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if args.n_samples is not None:
        cfg["n_samples"] = args.n_samples
    if args.mesh_ladder:
        cfg["mesh_ladder"] = args.mesh_ladder
    if args.inject_bug:
        cfg["inject_bug"] = True
    try:
        _check_out(cfg.get("out"))
        return COMMANDS[args.command](cfg)
    except (OSError, ValueError, RuntimeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
