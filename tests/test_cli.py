import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isinglab
from isinglab import cli, montecarlo, sholo
from isinglab.cli import main
from isinglab.lattice import (PMBoundarySpec, base_phase, build_annulus,
                              build_rectangle, corner_neighbors)


def run(args):
    return main(args)


def test_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for args in (["no-such-command"],
                 ["exact-check", "--config", str(bad)],
                 ["exact-check", "--config",
                  _write_cfg(tmp_path, [1, 2], "list.json")],
                 ["converge-square", "--mesh-ladder", "1.5"],
                 ["kernels", "--out", str(tmp_path / "missing" / "k.csv")],
                 ["fusion", "--rule", "bogus"],
                 ["converge-square", "--mesh-ladder", "16", "--config",
                  _write_cfg(tmp_path, {"z1": [2.0, 0.5]}, "z1.json")],
                 ["converge-square", "--mesh-ladder", "16", "--config",
                  _write_cfg(tmp_path, {"z2": [0.5, 0.0]}, "z2.json")],
                 # a corner, an edge midpoint and a face are no
                 # ramification points
                 ["bvp", "--size", "4", "--config", _write_cfg(
                     tmp_path, {"ramification": [[1, 0], [3, 3]]}, "r.json")],
                 ["bvp", "--size", "4", "--config", _write_cfg(
                     tmp_path, {"ramification": [[2, 0], [4, 4]]},
                     "face.json")]):
        assert run(args) == 2, args
        assert "error:" in capsys.readouterr().err, args


def test_out_into_a_missing_directory_is_refused_before_computing(
        tmp_path, monkeypatch, capsys):
    def computed(*args):
        raise AssertionError("the command computed before the refusal")
    monkeypatch.setattr(cli, "_square_observable_error", computed)
    out = tmp_path / "missing" / "c.csv"
    assert run(["converge-square", "--mesh-ladder", "64,128",
                "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.parent.exists()
    # a command that stops before writing leaves an existing file as it is
    kept = tmp_path / "c.csv"
    kept.write_text("earlier result\n")
    cfg = _write_cfg(tmp_path, {"z1": [2.0, 0.5]}, "z1.json")
    assert run(["converge-square", "--config", cfg, "--out", str(kept)]) == 2
    assert kept.read_text() == "earlier result\n"


def test_exact_check_passes_and_self_test(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["exact-check", "--size", "4", "--out", str(out)]) == 0
    text = out.read_text()
    assert "four_corner_relation" in text
    assert run(["exact-check", "--size", "4", "--inject-bug",
                "--out", str(out)]) == 1


def test_exact_check_without_interior_corner_is_a_usage_error(capsys):
    assert run(["exact-check", "--size", "2"]) == 2
    assert "domain has no interior corner" in capsys.readouterr().err


def test_exact_check_size_5(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["exact-check", "--size", "5", "--out", str(out)]) == 0
    assert "pm_two_routes" in out.read_text()


def test_exact_check_json_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    assert run(["exact-check", "--size", "4", "--format", "json",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["columns"][0] == "check"
    assert len(data["rows"]) >= 3


def test_bvp_dump(tmp_path):
    out = tmp_path / "field.csv"
    assert run(["bvp", "--size", "5", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[:3] == ["x", "y", "sheet"]
    assert len(lines) > 50


def test_kernels_command(tmp_path):
    out = tmp_path / "kernels.csv"
    assert run(["kernels", "--out", str(out)]) == 0
    text = out.read_text()
    assert "inverse_kernel_split_plus" in text
    assert "sqrt_kernel_incident_values" in text


def test_hp_eval_matches_library(tmp_path):
    out = tmp_path / "hp.csv"
    assert run(["hp-eval", "--out", str(out)]) == 0
    from isinglab.continuum import HalfPlaneBC, hp_spin
    want = hp_spin(HalfPlaneBC(), [1j, 2j])
    row = [l for l in out.read_text().splitlines()
           if l.startswith("hp_spin,")][0]
    assert float(row.split(",")[-1]) == want


def test_annulus_eval_rotation_column(tmp_path):
    out = tmp_path / "ann.csv"
    assert run(["annulus-eval", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l.startswith("ann_sigma")]
    assert rows
    assert all(abs(float(r[-1])) < 1e-8 for r in rows)


def test_converge_square_small_ladder(tmp_path):
    """Pair A falls below the 2% bound by 1/delta = 64; at 24 its error
    (0.046) is above it, and the command fails."""
    out = tmp_path / "conv.csv"
    rc = run(["converge-square", "--mesh-ladder", "32,64", "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 3
    assert run(["converge-square", "--mesh-ladder", "12,24",
                "--out", str(tmp_path / "coarse.csv")]) == 1


# The probe pairs of converge-square and acceptance criterion 4.
_PROBE_PAIRS = [((0.32, 0.48), (0.67, 0.55)), ((0.45, 0.72), (0.72, 0.68))]


@pytest.mark.parametrize("pair", _PROBE_PAIRS)
def test_probe_corners_match_a_scan_of_the_corners(pair):
    """converge-square's probes: the first, in sorted order, of the nearest
    x-odd corners whose vertex is in the domain, along the whole ladder."""
    targets = [complex(*z) for z in pair]
    for over_delta in (16, 32, 64, 128, 184, 256):
        n = int(round(over_delta / math.sqrt(2.0))) + 1
        dom = build_rectangle(1.0, n, n)
        to_unit, _ = cli._unit_square_map(dom)
        corners = sorted(c for c in dom.corners if c[0] % 2 == 1
                         and corner_neighbors(c)[0] in dom.vertices)
        want = [min(corners, key=lambda c: abs(to_unit(dom.position(c)) - t))
                for t in targets]
        assert cli._probe_corners(dom, to_unit, targets) == want


@pytest.mark.parametrize("pair", _PROBE_PAIRS)
def test_square_error_reads_the_observable_at_the_probe(monkeypatch, pair):
    """At 1/delta = 64 (n = 46), F(c1, c2) read as base_phase(c1) *
    value(c2) is the observable dict's entry, and the error and scale are
    those of the dict route."""
    solved, read = [], []
    solve, value = sholo.solve_observable, sholo.SpinorField.value

    def keep_solution(*args):
        solved.append(solve(*args))
        return solved[-1]

    def keep_corner(self, c, sheet=0):
        read.append(c)
        return value(self, c, sheet)
    monkeypatch.setattr(sholo, "solve_observable", keep_solution)
    monkeypatch.setattr(sholo.SpinorField, "value", keep_corner)
    got = cli._square_observable_error(46, *pair)
    (sol,), (c2,) = solved, read
    assert base_phase(sol.source.pos) * value(sol, c2) == \
        sol.observable()[c2]
    monkeypatch.setattr(sholo.SpinorField, "value",
                        lambda self, c, sheet=0: self.values[c])
    assert cli._square_observable_error(46, *pair) == got


def test_a_square_error_builds_no_python_set(monkeypatch):
    """The ladder's domain keeps its geometry in arrays: a solve and a
    probe read build none of the set and dict views."""
    built = []

    def keep_domain(*args, **kwargs):
        built.append(build_rectangle(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(cli.lattice, "build_rectangle", keep_domain)
    cli._square_observable_error(24, *_PROBE_PAIRS[0])
    (dom,) = built
    assert not {"vertices", "corners", "duals", "shol_edges",
                "interior_edges", "crossing_edges",
                "vertex_index"} & set(vars(dom))


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_byte_identical_rerun(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["kernels", "--out", str(a)]) == 0
    assert run(["kernels", "--out", str(b)]) == 0
    strip = lambda p: "\n".join(l for l in p.read_text().splitlines()
                                if not l.startswith("#"))
    assert strip(a) == strip(b)


def test_annulus_mc_samples_every_ring_on_one_chain(tmp_path):
    args = ["annulus-mc", "--diameter", "64", "--n-samples", "600",
            "--seed", "1", "--config", _write_cfg(tmp_path, {"n_therm": 200})]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if not l.startswith("# generated")]
    assert strip(a) == strip(b)
    header, *rows = [l.split(",") for l in strip(a)]
    rows = [dict(zip(header, r)) for r in rows]
    # each row equals an estimate on its own chain of the same seed
    outer_r = 32.0
    dom = build_annulus(1.0, outer_r, outer_r * math.exp(-math.log(2)))
    L_out, L_in = (len(dom.loop_edges(loop)) for loop in dom.boundary_loops)
    pm = PMBoundarySpec([[("free", L_out)], [("plus", L_in)]])
    assert len(rows) == 3
    for fr, row in zip((0.62, 0.75, 0.88), rows):
        ring = sorted(v for v in dom.vertices
                      if abs(math.hypot(*v) / 2.0 - fr * outer_r) < 1.5)
        est = montecarlo.estimate(dom, pm, ("mean_spin", ring), 200, 600, 1)
        assert float(row["mc_mean"]) == est.mean
        assert float(row["mc_stderr"]) == est.stderr
        assert float(row["ess"]) == est.ess


def test_annulus_mc_names_an_empty_ring_before_sampling(tmp_path, capsys):
    # a chain of 10^9 updates would not end: the error must come first
    cfg = _write_cfg(tmp_path, {"radii": [0.01, 0.75], "n_therm": 10 ** 9})
    assert run(["annulus-mc", "--config", cfg]) == 2
    assert "radius fraction 0.01" in capsys.readouterr().err


def test_fusion_psi_psi(tmp_path):
    out = tmp_path / "fusion.json"
    assert run(["fusion", "--rule", "psi_psi", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert run(["fusion", "--rule", "bogus"]) == 2


_COLD_START = """
import sys
from isinglab import cli
for args in (["hp-eval"], ["kernels"], ["annulus-eval"],
             ["exact-check", "--size", "4"]):
    assert cli.main(args) == 0, args
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
assert cli.main(["bvp", "--size", "4"]) == 0
assert "scipy.sparse.linalg" in sys.modules
"""


def test_only_the_solver_imports_scipy():
    """In a fresh interpreter: this one has imported scipy already."""
    src = str(Path(isinglab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
