"""Per-layer metrics and per-run Newton accounting from a traced pass.

Every metric is computed from the spans of :mod:`tracing`.  A span's self
time is its duration minus the durations of its direct children.  ``.s``
metrics are inclusive times; where one layer's spans nest inside the same
layer (``write_trajectory_csv`` calling ``write_csv``), only the outermost
span counts.
"""

from __future__ import annotations

import numpy as np

from tracing import FAILED, STALLED

RUNS = ("integrators.epavi_run", "integrators.avi_run", "integrators.midpoint_fixed_run")
STEPS = ("integrators.epavi_step", "integrators.avi_step", "integrators.midpoint_fixed_step")

#: name -> unit of every per-layer metric, in report order.
UNITS = {
    "solvers.newton_solve.calls": "count",
    "solvers.newton_solve.iters": "count",
    "solvers.newton_solve.iters_per_call": "iter/call",
    "solvers.newton_solve.failed": "count",
    "solvers.newton_solve.stalled": "count",
    "solvers.newton_solve.self_s": "s",
    "solvers.newton_solve.us_p50": "us",
    "solvers.newton_solve.us_p95": "us",
    "solvers.residual.evals": "count",
    "solvers.residual.s": "s",
    "solvers.jacobian.evals": "count",
    "solvers.jacobian.s": "s",
    "solvers.fd_jacobian.calls": "count",
    "solvers.fd_jacobian.s": "s",
    "solvers.damping.accept_ratio": "ratio",
    "precision.solve.calls": "count",
    "precision.solve.s": "s",
    "precision.solve.us_p50": "us",
    "precision.cond_inf.calls": "count",
    "precision.cond_inf.s": "s",
    "precision.format.calls": "count",
    "precision.format.s": "s",
    "models.potential.calls": "count",
    "models.potential.s": "s",
    "models.potential_gradient.calls": "count",
    "models.potential_gradient.s": "s",
    "models.potential_hessian.calls": "count",
    "models.potential_hessian.s": "s",
    "integrators.steps": "count",
    "integrators.epavi_step.us_p50": "us",
    "integrators.epavi_step.us_p95": "us",
    "integrators.avi_step.us_p50": "us",
    "integrators.avi_step.us_p95": "us",
    "integrators.midpoint_fixed_step.us_p50": "us",
    "integrators.midpoint_fixed_step.us_p95": "us",
    "integrators.step.self_s": "s",
    "integrators.run.self_s": "s",
    "integrators.reference_solve.s": "s",
    "diagnostics.write.s": "s",
    "diagnostics.write.bytes": "bytes",
    "diagnostics.analysis.s": "s",
    "cli.run_suite.s": "s",
    "cli.run_experiment.s": "s",
    "cli.pool.idle_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Metrics that must repeat exactly between two traced passes.
COUNTS = [name for name, unit in UNITS.items() if unit in ("count", "bytes", "iter/call")] + [
    "solvers.damping.accept_ratio"
]


class Spans:
    """Column arrays of one traced pass with derived parent links."""

    def __init__(self, names, cols):
        self.names = list(names)
        self.name = cols["name"].astype(np.int64)
        self.parent = cols["parent"].astype(np.int64)
        self.value = cols["value"]
        self.flags = cols["flags"]
        self.dur = cols["end"] - cols["start"]
        has = self.parent >= 0
        self.self_time = self.dur - np.bincount(self.parent[has], weights=self.dur[has], minlength=len(self.dur))
        self.parent_name = np.where(has, self.name[np.maximum(self.parent, 0)], -1)

    def mask(self, *names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def outermost(self, *names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids) & ~np.isin(self.parent_name, ids)

    def nearest(self, mask):
        """Index of the nearest ancestor-or-self inside ``mask``, or -1."""
        ptr = np.where(mask, np.arange(len(mask)), self.parent)
        while True:  # pointer jumping; no masked span lies strictly between i and ptr[i]
            live = np.flatnonzero(ptr >= 0)
            hop = live[~mask[ptr[live]]]
            if not len(hop):
                return ptr
            ptr[hop] = ptr[ptr[hop]]


def _pct(x, q):
    return float(np.percentile(x, q)) * 1e6 if len(x) else 0.0


def layer_metrics(sp: Spans, workers: int, overhead_ratio: float) -> dict:
    out = {}
    newton = sp.mask("solvers.newton_solve")
    iters = float(sp.value[newton].sum())
    calls = int(newton.sum())
    out["solvers.newton_solve.calls"] = calls
    out["solvers.newton_solve.iters"] = int(iters)
    out["solvers.newton_solve.iters_per_call"] = iters / calls if calls else 0.0
    out["solvers.newton_solve.failed"] = int((sp.flags[newton] & FAILED != 0).sum())
    out["solvers.newton_solve.stalled"] = int((sp.flags[newton] & STALLED != 0).sum())
    out["solvers.newton_solve.self_s"] = float(sp.self_time[newton].sum())
    out["solvers.newton_solve.us_p50"] = _pct(sp.dur[newton], 50)
    out["solvers.newton_solve.us_p95"] = _pct(sp.dur[newton], 95)
    residual = sp.mask("solvers.residual")
    for key, name in (("residual.evals", "solvers.residual"), ("jacobian.evals", "solvers.jacobian"),
                      ("fd_jacobian.calls", "solvers.fd_jacobian")):
        m = sp.mask(name)
        out[f"solvers.{key}"] = int(m.sum())
        out[f"solvers.{key.split('.')[0]}.s"] = float(sp.dur[m].sum())
    # trial points of the damping line search: residual evals made by newton
    # itself, less the one evaluation at the initial guess of every solve
    newton_ids = [sp.names.index("solvers.newton_solve")] if calls else []
    trials = int((residual & np.isin(sp.parent_name, newton_ids)).sum()) - calls
    out["solvers.damping.accept_ratio"] = iters / trials if trials > 0 else 0.0
    for op in ("solve", "cond_inf", "format"):
        m = sp.mask(f"precision.{op}")
        out[f"precision.{op}.calls"] = int(m.sum())
        out[f"precision.{op}.s"] = float(sp.dur[m].sum())
        if op == "solve":
            out["precision.solve.us_p50"] = _pct(sp.dur[m], 50)
    for op in ("potential", "potential_gradient", "potential_hessian"):
        m = sp.mask(f"models.{op}")
        out[f"models.{op}.calls"] = int(m.sum())
        out[f"models.{op}.s"] = float(sp.dur[m].sum())
    runs = sp.mask(*RUNS)
    out["integrators.steps"] = int(sp.value[runs].sum())
    for step in STEPS:
        m = sp.mask(step)
        out[f"{step}.us_p50"] = _pct(sp.dur[m], 50)
        out[f"{step}.us_p95"] = _pct(sp.dur[m], 95)
    out["integrators.step.self_s"] = float(sp.self_time[sp.mask(*STEPS)].sum())
    out["integrators.run.self_s"] = float(sp.self_time[runs].sum())
    out["integrators.reference_solve.s"] = float(sp.dur[sp.mask("integrators.reference_solve")].sum())
    writes = sp.outermost("diagnostics.write")
    out["diagnostics.write.s"] = float(sp.dur[writes].sum())
    out["diagnostics.write.bytes"] = int(sp.value[writes].sum())
    out["diagnostics.analysis.s"] = float(sp.dur[sp.outermost("diagnostics.analysis")].sum())
    suite_s = float(sp.dur[sp.mask("cli.run_suite")].sum())
    member_s = float(sp.dur[sp.mask("cli.run_experiment")].sum())
    out["cli.run_suite.s"] = suite_s
    out["cli.run_experiment.s"] = member_s
    out["cli.pool.idle_s"] = workers * suite_s - member_s if suite_s else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def newton_accounting(sp: Spans) -> list:
    """Wrapped Newton iterations of every library run, split by cause.

    ``accepted`` are the solves behind accepted steps, which is what
    ``StepRecord.iterations`` should sum to; ``init`` is EpAVI's discrete
    energy initialisation, ``calibration`` AVI's first-step calibration
    steps, and ``retries`` the failed first attempts that EpAVI repeats
    from h/2.
    """
    runs = sp.mask(*RUNS)
    steps = sp.mask(*STEPS)
    newton = sp.mask("solvers.newton_solve")
    run_of = sp.nearest(runs)
    step_of = sp.nearest(steps)
    rows = []
    for r in np.flatnonzero(runs):
        step_idx = np.flatnonzero(steps & (run_of == r) & (sp.flags & FAILED == 0))
        calibration_steps = step_idx[:len(step_idx) - int(sp.value[r])]  # they precede the run's steps
        mine = newton & (run_of == r)
        failed = mine & (sp.flags & FAILED != 0)
        init = mine & (step_of < 0) & ~failed
        cal = mine & np.isin(step_of, calibration_steps) & ~failed
        accepted = mine & ~failed & ~init & ~cal
        rows.append({
            "run": sp.names[sp.name[r]],
            "failed": bool(sp.flags[r] & FAILED),
            "steps": int(sp.value[r]),
            "accepted": int(sp.value[accepted].sum()),
            "init": int(sp.value[init].sum()),
            "calibration": int(sp.value[cal].sum()),
            "retries": int(sp.value[failed].sum()),
            "wrapped": int(sp.value[mine].sum()),
        })
    return rows
