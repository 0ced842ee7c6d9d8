"""Tests of the benchmark itself: every metric it prints is declared, a
small version of every workload runs and passes its checks, and a wrong
answer is counted as a failed operation.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from functools import partial

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from isinglab import continuum, elliptic, lattice, sholo  # noqa: E402

BENCH = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())

# Layer metrics that must be non-zero in a traced small run of a workload.
EXERCISED = {
    "oracle": ["exact.sums_s", "exact.configs", "exact.self_s",
               "sholo.solve_s", "lattice.cover_s", "pfaffian.pf_s"],
    "square_ladder": ["sholo.factor_s", "sholo.lu_nnz", "elliptic.rectmap_s",
                      "lattice.build_s", "cli.self_s"],
    "mc": ["montecarlo.update_s", "montecarlo.flips_per_s",
           "montecarlo.ess_per_s", "montecarlo.accept_ratio", "cli.self_s"],
    "closed_forms": ["elliptic.jacobi_s", "elliptic.wp_s",
                     "elliptic.theta_calls", "continuum.hp_s",
                     "continuum.ann_s", "continuum.fusion_s",
                     "sholo.kernel_s", "pfaffian.pf_s"],
}


def _small_run(name, seed=7, tracer=None):
    wl = workloads.setup(name, seed, small=True)
    wl.prepare()
    return wl, run.run_rounds(wl, 0, tracer,
                              workloads.KNOWN_FAILURES.get(name, ()))


def _assert_declared(metrics, kind):
    declared = {m["name"]: m for m in BENCH[kind]}
    assert set(metrics) == set(declared)
    for name, m in metrics.items():
        assert m["unit"] == declared[name]["unit"]
        assert declared[name]["better"] in ("lower", "higher")


def test_workloads_declared():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)


def test_end_to_end_metrics_declared_and_nonzero():
    _, tally = _small_run("closed_forms")
    metrics = run.end_to_end(tally, [0.5, 0.6, 0.7])
    _assert_declared(metrics, "end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_workload_traced(name):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl, tally = _small_run(name, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tally["attempted"] == len(wl.ops)
    assert tally["failed"] == 0 and tally["correct"]
    metrics = tracer.per_layer(len(tally["round_walls"]))
    _assert_declared(metrics, "per_layer")
    for metric in EXERCISED[name]:
        assert metrics[metric]["value"] > 0, metric
    assert not hasattr(sholo.solve_observable, "__wrapped__")


def test_reference_geometry_matches_lattice():
    for w, h in ((3, 3), (4, 3)):
        dom = lattice.build_rectangle(1.0, w, h)
        rect = reference.Rectangle(w, h)
        assert {reference.to_grid(v) for v in rect.verts} == dom.vertices
        assert all(reference.from_grid(reference.to_grid(v)) == v
                   for v in rect.verts)
        assert len(rect.inner) == len(dom.interior_edges)
        assert len(rect.outer) == len(dom.crossing_edges)
        assert len(dom.loop_edges(dom.boundary_loops[0])) == 2 * (w + h)


def test_exact_check_inject_bug_is_counted():
    wl = workloads.setup("oracle", 1, small=True)
    (op,) = [op for op in wl.ops if op.label == "exact_check_cli"]
    op.call = partial(workloads._exact_check_call, True)
    tally = run.run_rounds(wl, 0)
    assert tally["failed"] == 1
    assert tally["failed_labels"] == ["exact_check_cli"]
    assert not tally["correct"]


def test_perturbed_solver_is_counted(monkeypatch):
    solve = sholo.solve_observable

    def perturbed(*args, **kwargs):
        sol = solve(*args, **kwargs)
        corner = sorted(sol.values)[len(sol.values) // 2]
        sol.values[corner] *= 1 + 1e-6
        return sol
    monkeypatch.setattr(sholo, "solve_observable", perturbed)
    wl, tally = _small_run("oracle")
    fields = [op.label for op in wl.ops if op.label.startswith("field_")]
    assert tally["failed_labels"] == sorted(fields)
    assert tally["failed"] == len(fields) and not tally["correct"]


def test_perturbed_closed_forms_are_counted(monkeypatch):
    wp = elliptic.wp
    monkeypatch.setattr(elliptic, "wp", lambda z, p: wp(z, p) * (1 + 1e-9))
    fermion = continuum.hp_fermion
    monkeypatch.setattr(continuum, "hp_fermion",
                        lambda *a, **k: 1.05 * fermion(*a, **k))
    wl, tally = _small_run("closed_forms")
    n_wp = sum(op.label == "wp_differential_equation" for op in wl.ops)
    assert tally["failed_labels"] == ["hp_pfaffian",
                                      "wp_differential_equation"]
    assert tally["failed"] == 2 * n_wp
    wl, tally = _small_run("square_ladder")
    assert tally["failed"] == len(wl.ops)


@pytest.mark.slow
def test_known_converge_square_failure_is_counted():
    wl = workloads.setup("square_ladder", 1)
    wl.ops = [op for op in wl.ops if op.label == "ladder_256_pair0"]
    tally = run.run_rounds(wl, 0, None,
                           workloads.KNOWN_FAILURES["square_ladder"])
    assert tally["failed"] == 1 and tally["correct"]


def test_exits_nonzero_without_program(tmp_path):
    """In a directory holding only the benchmark, a run fails fast and
    prints no result."""
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
