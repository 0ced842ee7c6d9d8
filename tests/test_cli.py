import json
import math

import pytest

from isinglab import cli
from isinglab.cli import main
from isinglab.lattice import build_rectangle, corner_neighbors


def run(args):
    return main(args)


def test_usage_errors(tmp_path):
    assert run(["no-such-command"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["exact-check", "--config", str(bad)]) == 2


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
    out = tmp_path / "conv.csv"
    rc = run(["converge-square", "--mesh-ladder", "12,24", "--out", str(out),
              "--config", _write_cfg(tmp_path, {"final_tol": 0.05})])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 3


@pytest.mark.parametrize("pair", [((0.32, 0.48), (0.67, 0.55)),
                                  ((0.45, 0.72), (0.72, 0.68))])
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


def _write_cfg(tmp_path, cfg):
    p = tmp_path / "cfg.json"
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


def test_fusion_psi_psi(tmp_path):
    out = tmp_path / "fusion.json"
    assert run(["fusion", "--rule", "psi_psi", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert run(["fusion", "--rule", "bogus"]) == 2
