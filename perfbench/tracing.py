"""Spans and counters around isinglab's layers, installed from outside the
package.

Each public function is wrapped at the name its callers look it up by: a
module that imported a function by name (`continuum` holds its own
`jacobi`) is patched at that name too, and methods are patched on their
class.  A span records its name, start, end and parent; a span's self
time is its duration minus the time its child spans cover.  Spans stay in
memory and are written as JSON lines when the run ends.

The per-layer metrics are derived from the spans and counters, per round.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (owner path, attribute, span name, group).  A group is a per-layer time
# metric; nested spans of one group count once.  Lookup sites that hold
# their own reference are listed beside the defining module.
WRAPPED = [
    ("lattice", "build_rectangle", "lattice.build_rectangle", "lattice.build_s"),
    ("lattice", "build_annulus", "lattice.build_annulus", "lattice.build_s"),
    ("lattice", "make_cover", "lattice.make_cover", "lattice.cover_s"),
    ("exact.Enumeration", "__init__", "exact.Enumeration.init", "exact.init_s"),
    ("exact.Enumeration", "sums", "exact.Enumeration.sums", "exact.sums_s"),
    ("exact", "fermion_field", "exact.fermion_field", "exact.api"),
    ("exact", "fermion_multipoint", "exact.fermion_multipoint", "exact.api"),
    ("exact", "partition_function", "exact.partition_function", "exact.api"),
    ("exact", "corr_spin", "exact.corr_spin", "exact.api"),
    ("exact", "corr_pm", "exact.corr_pm", "exact.api"),
    ("exact", "_pm_direct", "exact.corr_pm_direct", "exact.api"),
    ("exact", "_pm_via_mono", "exact.corr_pm_mono", "exact.api"),
    ("sholo", "solve_observable", "sholo.solve_observable", "sholo.solve_s"),
    ("sholo", "discrete_P", "sholo.discrete_P", "sholo.kernel_s"),
    ("sholo", "discrete_P_split", "sholo.discrete_P_split", "sholo.kernel_s"),
    ("sholo", "discrete_Q", "sholo.discrete_Q", "sholo.kernel_s"),
    ("pfaffian", "pf", "pfaffian.pf", "pfaffian.api"),
    ("pfaffian", "assemble_multipoint", "pfaffian.assemble_multipoint",
     "pfaffian.api"),
    ("continuum", "assemble_multipoint", "pfaffian.assemble_multipoint",
     "pfaffian.api"),
    ("elliptic", "jacobi", "elliptic.jacobi", "elliptic.jacobi_s"),
    ("continuum", "jacobi", "elliptic.jacobi", "elliptic.jacobi_s"),
    ("elliptic", "wp", "elliptic.wp", "elliptic.wp_s"),
    ("elliptic", "wp_prime", "elliptic.wp_prime", "elliptic.wp_s"),
    ("elliptic", "wp_second", "elliptic.wp_second", "elliptic.wp_s"),
    ("continuum", "wp", "elliptic.wp", "elliptic.wp_s"),
    ("continuum", "wp_prime", "elliptic.wp_prime", "elliptic.wp_s"),
    ("continuum", "wp_second", "elliptic.wp_second", "elliptic.wp_s"),
    ("elliptic", "rect_map", "elliptic.rect_map", "elliptic.rectmap_s"),
    ("elliptic.RectangleMap", "from_rect", "elliptic.from_rect",
     "elliptic.rectmap_s"),
    ("elliptic.RectangleMap", "from_rect_deriv", "elliptic.from_rect_deriv",
     "elliptic.rectmap_s"),
    ("continuum", "hp_spin", "continuum.hp_spin", "continuum.hp_s"),
    ("continuum", "hp_spin_disorder", "continuum.hp_spin_disorder",
     "continuum.hp_s"),
    ("continuum", "hp_fermion", "continuum.hp_fermion", "continuum.hp_s"),
    ("continuum", "ann_sigma", "continuum.ann_sigma", "continuum.ann_s"),
    ("continuum", "ann_sigma_coherent", "continuum.ann_sigma_coherent",
     "continuum.ann_s"),
    ("continuum", "ann_fermion", "continuum.ann_fermion", "continuum.ann_s"),
    ("continuum", "ann_energy_onepoint", "continuum.ann_energy_onepoint",
     "continuum.ann_s"),
    ("continuum", "fusion_extract", "continuum.fusion_extract",
     "continuum.fusion_s"),
    ("montecarlo", "build_graph", "montecarlo.build_graph",
     "montecarlo.graph_s"),
    ("montecarlo", "wolff_update", "montecarlo.wolff_update",
     "montecarlo.update_s"),
    ("montecarlo", "metropolis_sweep", "montecarlo.metropolis_sweep",
     "montecarlo.sweep_s"),
    ("montecarlo", "estimate", "montecarlo.estimate", "montecarlo.estimate"),
    ("cli", "main", "cli.main", "cli.main"),
]

# Spans written to the trace file at most; the header gives the total.
MAX_SPANS = 200_000

# Per-layer metrics that are the summed self time of a span group.
SELF_TIME = {
    "exact.self_s": "exact.api",
    "pfaffian.pf_s": "pfaffian.api",
    "montecarlo.estimate_self_s": "montecarlo.estimate",
    "cli.self_s": "cli.main",
}

# The per-layer metrics in the order they are reported, with their units.
PER_LAYER = [
    ("lattice.build_s", "s"), ("lattice.cover_s", "s"),
    ("exact.init_s", "s"), ("exact.sums_s", "s"),
    ("exact.sums_calls", "count"), ("exact.configs", "count"),
    ("exact.configs_per_s", "1/s"), ("exact.self_s", "s"),
    ("sholo.solve_s", "s"), ("sholo.assembly_s", "s"),
    ("sholo.factor_s", "s"), ("sholo.trisolve_s", "s"),
    ("sholo.lu_nnz", "count"), ("sholo.unknowns_per_s", "1/s"),
    ("sholo.kernel_s", "s"), ("pfaffian.pf_s", "s"),
    ("elliptic.jacobi_s", "s"), ("elliptic.wp_s", "s"),
    ("elliptic.theta_calls", "count"), ("elliptic.rectmap_s", "s"),
    ("continuum.hp_s", "s"), ("continuum.ann_s", "s"),
    ("continuum.fusion_s", "s"),
    ("montecarlo.graph_s", "s"), ("montecarlo.update_s", "s"),
    ("montecarlo.sweep_s", "s"), ("montecarlo.estimate_self_s", "s"),
    ("montecarlo.flips_per_s", "1/s"), ("montecarlo.accept_ratio", "ratio"),
    ("montecarlo.tau", "updates"), ("montecarlo.ess_per_s", "1/s"),
    ("cli.self_s", "s"),
]


def _resolve(path):
    mod_name, _, cls_name = path.partition(".")
    owner = sys.modules["isinglab." + mod_name]
    return getattr(owner, cls_name) if cls_name else owner


class Tracer:
    """Records spans [name, group, start, end, parent, child_time,
    outermost] and named counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.estimates: list = []
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._open_groups: Counter = Counter()
        self._patches: list[tuple] = []
        self._factors: list = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, group: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        outermost = self._open_groups[group] == 0
        self._open_groups[group] += 1
        self.spans.append([name, group, perf_counter(), 0.0, parent, 0.0,
                           outermost])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int):
        rec = self.spans[sid]
        rec[3] = perf_counter()
        self._stack.pop()
        self._open_groups[rec[1]] -= 1
        if rec[4] >= 0:
            self.spans[rec[4]][5] += rec[3] - rec[2]

    def _wrap(self, fn, name, group, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(name, group)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer function listed in WRAPPED, plus the counters
        and the sparse factorization inside the solver."""
        afters = {
            "exact.Enumeration.sums": self._count_sums,
            "sholo.solve_observable": self._count_unknowns,
            "montecarlo.wolff_update": self._count_flips,
            "montecarlo.estimate": self._keep_estimate,
        }
        for path, attr, name, group in WRAPPED:
            owner = _resolve(path)
            if attr not in owner.__dict__:
                self.skipped.append(f"{path}.{attr}")
                continue
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name,
                                                group, afters.get(name)))
        elliptic = _resolve("elliptic")
        theta = elliptic.theta

        def counted_theta(*args, **kwargs):
            self.counters["elliptic.theta_calls"] += 1
            return theta(*args, **kwargs)
        self._patch(elliptic, "theta", counted_theta)
        sholo = _resolve("sholo")
        self._patch(sholo, "spla", _SplaProxy(self, sholo.spla))
        if self.skipped:
            print("trace: not found, left unwrapped: " + ", ".join(
                self.skipped), file=sys.stderr)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def _count_sums(self, args, out):
        self.counters["exact.sums_calls"] += 1
        self.counters["exact.configs"] += 1 << args[0].n_free

    def _count_unknowns(self, args, out):
        self.counters["sholo.unknowns"] += out.shape[1]

    def _count_flips(self, args, out):
        self.counters["montecarlo.flips"] += out

    def _keep_estimate(self, args, out):
        self.estimates.append(out)

    def flush_factors(self):
        """Count the fill of the LU factors made since the last call.  Run
        between operations, so that building L and U costs no span."""
        for lu in self._factors:
            self.counters["sholo.lu_nnz"] += lu.L.nnz + lu.U.nnz
        self._factors.clear()

    # -- metrics -------------------------------------------------------------

    def per_layer(self, rounds: int) -> dict:
        """Per-layer metrics, each a per-round average over the run."""
        union = defaultdict(float)
        self_time = defaultdict(float)
        for name, group, start, end, _, child, outermost in self.spans:
            if outermost:
                union[group] += end - start
            self_time[group] += end - start - child
            if name == "sholo.splu":
                union["sholo.factor_s"] += end - start
            elif name == "sholo.lu_solve":
                union["sholo.trisolve_s"] += end - start
        c = self.counters
        est_time = union["montecarlo.estimate"]
        ests = self.estimates
        raw = {
            "exact.sums_calls": c["exact.sums_calls"],
            "exact.configs": c["exact.configs"],
            "exact.configs_per_s": _ratio(c["exact.configs"],
                                          union["exact.sums_s"]),
            "sholo.assembly_s": (union["sholo.solve_s"]
                                 - union["sholo.factor_s"]
                                 - union["sholo.trisolve_s"]),
            "sholo.lu_nnz": c["sholo.lu_nnz"],
            "sholo.unknowns_per_s": _ratio(c["sholo.unknowns"],
                                           union["sholo.solve_s"]),
            "elliptic.theta_calls": c["elliptic.theta_calls"],
            "montecarlo.flips_per_s": _ratio(c["montecarlo.flips"],
                                             union["montecarlo.update_s"]),
            "montecarlo.accept_ratio": statistics.fmean(
                [1.0 - e.rejection_rate for e in ests]) if ests else 0.0,
            "montecarlo.tau": statistics.fmean(
                [e.tau for e in ests]) if ests else 0.0,
            "montecarlo.ess_per_s": _ratio(sum(e.ess for e in ests),
                                           est_time),
        }
        for metric, group in SELF_TIME.items():
            raw[metric] = self_time[group]
        per_round = {"exact.sums_calls", "exact.configs", "sholo.lu_nnz",
                     "elliptic.theta_calls", "sholo.assembly_s"}
        out = {}
        for metric, unit in PER_LAYER:
            if metric in raw:
                value = raw[metric]
                if metric in per_round or metric in SELF_TIME:
                    value = value / rounds
            else:
                value = union[metric] / rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, header: dict):
        """Write a header line, then one JSON line per span (up to
        MAX_SPANS; the header says how many there were)."""
        kept = self.spans[:MAX_SPANS]
        header = dict(header, spans=len(self.spans),
                      spans_written=len(kept), counters=dict(self.counters))
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, _, start, end, parent, child, _) in enumerate(kept):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start": round(start - t0, 9), "end": round(end - t0, 9),
                    "self": round(end - start - child, 9)}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


class _SplaProxy:
    """Stands in for `scipy.sparse.linalg` inside `sholo`: times `splu` and
    the solves of the factor it returns."""

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)

    def splu(self, *args, **kwargs):
        sid = self._tracer.open("sholo.splu", "sholo.factor")
        try:
            lu = self._module.splu(*args, **kwargs)
        finally:
            self._tracer.close(sid)
        self._tracer._factors.append(lu)
        return _TimedFactor(self._tracer, lu)


class _TimedFactor:
    def __init__(self, tracer: Tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, *args, **kwargs):
        sid = self._tracer.open("sholo.lu_solve", "sholo.trisolve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(sid)
