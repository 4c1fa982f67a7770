"""In-memory span recorder that wraps varint's public calls from outside.

Tracing never edits the library: :func:`install` rebinds module and class
attributes to timing wrappers and :meth:`Installation.restore` puts every
original object back.  A span is (name, parent span, start, end, value,
flags); spans are appended to compact arrays and aggregated with NumPy once
the traced pass is over.

Suite members run in ``fork``-started pool workers, which inherit the
wrappers and the span arrays.  Each worker writes the spans it recorded to
``<spill_dir>/worker-<pid>-<n>.npz`` after every ``run_experiment`` call;
:meth:`Tracer.merge_spills` folds those files back into the parent's
arrays.  Parent indices below the fork point refer to spans the worker
inherited, which are identical in the parent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

FAILED = 1  # the wrapped call raised
STALLED = 2  # newton_solve returned an accepted but stalled iterate

_COLUMNS = (("name", "H"), ("parent", "i"), ("start", "d"), ("end", "d"), ("value", "d"), ("flags", "b"))


class Tracer:
    """Span arrays plus the stack of open spans of this process."""

    def __init__(self, spill_dir: Path):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {key: array(code) for key, code in _COLUMNS}
        self.stack = [-1]
        self.spill_dir = Path(spill_dir)
        self.owner_pid = os.getpid()
        self.fork_base = 0
        self._spills = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        c = self.cols
        idx = len(c["start"])
        c["name"].append(nid)
        c["parent"].append(self.stack[-1])
        c["value"].append(0.0)
        c["flags"].append(0)
        c["end"].append(0.0)
        self.stack.append(idx)
        c["start"].append(time.perf_counter())
        return idx

    def close(self, idx: int, value: float = 0.0, flags: int = 0):
        c = self.cols
        c["end"][idx] = time.perf_counter()
        c["value"][idx] = value
        c["flags"][idx] = flags
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        except BaseException:
            self.close(idx, flags=FAILED)
            raise
        self.close(idx)

    def __len__(self):
        return len(self.cols["start"])

    # -- forked workers ---------------------------------------------------

    def after_fork_in_child(self):
        self._spills = 0
        self.fork_base = len(self)

    def spill_if_worker(self):
        """In a forked worker, write this process's spans and drop them."""
        if os.getpid() == self.owner_pid or len(self) == self.fork_base:
            return
        base = self.fork_base
        path = self.spill_dir / f"worker-{os.getpid()}-{self._spills}.npz"
        self._spills += 1
        data = {key: np.frombuffer(col[base:], dtype=col.typecode) for key, col in self.cols.items()}
        np.savez(path, base=base, names=np.array(self.names), **data)
        for col in self.cols.values():
            del col[base:]

    def merge_spills(self) -> int:
        """Append every worker spill file to this process's spans."""
        files = sorted(self.spill_dir.glob("worker-*.npz"))
        for path in files:
            with np.load(path) as data:
                base = int(data["base"])
                offset = len(self) - base
                remap = np.array([self.name_id(str(n)) for n in data["names"]], dtype=np.int64)
                parent = data["parent"].astype(np.int64)
                parent = np.where(parent >= base, parent + offset, parent)
                self.cols["name"].extend(remap[data["name"]].tolist())
                self.cols["parent"].extend(parent.tolist())
                for key in ("start", "end", "value", "flags"):
                    self.cols[key].extend(data[key].tolist())
            path.unlink()
        return len(files)

    def arrays(self) -> dict:
        return {key: np.frombuffer(col, dtype=col.typecode).copy() for key, col in self.cols.items()}

    def dump(self, path: Path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- wrappers -------------------------------------------------------------


def _wrap(tracer, name, fn, value=None, on_error=None):
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = open_(nid)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            close(idx, on_error(exc) if on_error else 0.0, FAILED)
            raise
        close(idx, value(out, args, kwargs) if value else 0.0)
        return out

    return wrapper


def _wrap_newton(tracer, fn):
    """newton_solve: span value = iterations; F and jacobian are wrapped too."""
    sig = inspect.signature(fn)
    nid = tracer.name_id("solvers.newton_solve")
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.arguments["F"] = _wrap(tracer, "solvers.residual", bound.arguments["F"])
        if bound.arguments.get("jacobian") is not None:
            bound.arguments["jacobian"] = _wrap(tracer, "solvers.jacobian", bound.arguments["jacobian"])
        idx = open_(nid)
        try:
            report = fn(*bound.args, **bound.kwargs)
        except BaseException as exc:
            partial = getattr(exc, "report", None)
            close(idx, partial.iterations if partial is not None else 0.0, FAILED)
            raise
        close(idx, report.iterations, STALLED if report.stalled else 0)
        return report

    return wrapper


def _steps(out, args, kwargs):
    return len(out.steps)


def _partial_steps(exc):
    traj = getattr(exc, "trajectory", None)
    return len(traj.steps) if traj is not None else 0.0


def _written_bytes(fn):
    sig = inspect.signature(fn)

    def value(out, args, kwargs):
        return os.path.getsize(sig.bind(*args, **kwargs).arguments["path"])

    return value


class Installation:
    """The rebound attributes of one traced pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.active = True
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    def _after_fork_in_child(self):
        if self.active:
            self.tracer.after_fork_in_child()

    def rebind(self, owner, attr, make):
        """Wrap ``owner.attr`` and rebind it wherever varint binds that object."""
        original = owner.__dict__[attr]
        wrapper = make(original)
        homes = [owner] if isinstance(owner, type) else [
            mod for key, mod in list(sys.modules.items())
            if (key == "varint" or key.startswith("varint.")) and mod.__dict__.get(attr) is original
        ]
        for home in homes:
            self.saved.append((home, attr, original))
            setattr(home, attr, wrapper)

    def restore(self):
        self.active = False
        self.tracer = None  # the at-fork hook outlives this pass; let the spans go
        for home, attr, original in reversed(self.saved):
            setattr(home, attr, original)

    def restored(self) -> bool:
        return all(home.__dict__[attr] is original for home, attr, original in self.saved)


def install(tracer: Tracer) -> Installation:
    """Rebind every traced varint call to a span-recording wrapper."""
    import varint.cli as cli
    import varint.diagnostics as diagnostics
    import varint.integrators as integrators
    import varint.solvers as solvers
    from varint.models import KeplerTwoBody
    from varint.precision import PrecisionContext

    inst = Installation(tracer)
    t = tracer
    inst.rebind(integrators, "newton_solve", lambda f: _wrap_newton(t, f))
    inst.rebind(solvers, "fd_jacobian", lambda f: _wrap(t, "solvers.fd_jacobian", f))
    for attr in ("solve", "cond_inf", "format"):
        inst.rebind(PrecisionContext, attr, lambda f, a=attr: _wrap(t, f"precision.{a}", f))
    for attr in ("potential", "potential_gradient", "potential_hessian"):
        inst.rebind(KeplerTwoBody, attr, lambda f, a=attr: _wrap(t, f"models.{a}", f))
    for attr in ("epavi_step", "avi_step", "midpoint_fixed_step"):
        inst.rebind(integrators, attr, lambda f, a=attr: _wrap(t, f"integrators.{a}", f))
    for attr in ("epavi_run", "avi_run", "midpoint_fixed_run"):
        inst.rebind(integrators, attr, lambda f, a=attr: _wrap(
            t, f"integrators.{a}", f, value=_steps, on_error=_partial_steps))
    inst.rebind(integrators, "reference_solve", lambda f: _wrap(t, "integrators.reference_solve", f))
    for attr in ("write_csv", "write_trajectory_csv", "write_error_series_csv", "write_stats_csv"):
        inst.rebind(diagnostics, attr, lambda f: _wrap(t, "diagnostics.write", f, value=_written_bytes(f)))
    for attr in ("energy_error_series", "hamiltonian_error_series", "telescoping_bound_check",
                 "trajectory_error", "timestep_stats"):
        inst.rebind(diagnostics, attr, lambda f: _wrap(t, "diagnostics.analysis", f))
    inst.rebind(cli, "run_suite", lambda f: _wrap(t, "cli.run_suite", f))

    def run_experiment(f):
        wrapped = _wrap(t, "cli.run_experiment", f)

        @functools.wraps(f)
        def spilling(*args, **kwargs):
            try:
                return wrapped(*args, **kwargs)
            finally:
                t.spill_if_worker()

        return spilling

    inst.rebind(cli, "run_experiment", run_experiment)
    return inst
