"""varint benchmark: one closed-loop client driving the library in-process.

    python3 benchmarks/run.py --workload kepler_double --seed 0 --seconds 32 --trace 1

Run from the repository root.  Untraced passes over the workload's fixed
run list repeat while the next pass still fits in ``--seconds`` (at least
one pass), and give the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then a traced, an untraced and a traced pass, and gives the
per-layer metrics.  Every run's output goes through a correctness gate.
End-to-end times are scaled by a co-timed reference kernel to the
measuring host's full speed (hostspeed.py); the raw times are printed too.
Human-readable lines come first; the last line of standard output is the
JSON result.  See NOTES.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_varint():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "varint" / "__init__.py").is_file():
        raise SystemExit(f"error: no varint sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import varint

    if Path(varint.__file__).resolve().parent != SRC / "varint":
        raise SystemExit(f"error: imported varint from {varint.__file__}, not {SRC}")


def _setup_seconds(workload: str, seed: int) -> list:
    """Cold set-up times, each measured inside a fresh interpreter and
    scaled by the host's speed meanwhile."""
    times = []
    for _ in range(SETUP_PROBES):
        with hostspeed.Sampler(pin_caller=True) as sampler:  # the interpreter inherits the pin
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(SRC)],
                capture_output=True, text=True, timeout=120, check=True,
            )
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        times.append(seconds * hostspeed.REFERENCE_S / sampler.chunk_s())
    return times


def _per_run_median(passes) -> float:
    """Sum over the run list of each run's median host-scaled time across passes."""
    return sum(statistics.median(p[i].scaled for p in passes) for i in range(len(passes[0])))


def _traced_pass(wl, prepared, workdir):
    spill = workdir / "spill"
    spill.mkdir(exist_ok=True)
    tracer = tracing.Tracer(spill)
    inst = tracing.install(tracer)
    try:
        outcomes = wl.run_pass(prepared, workdir, tracer)
    finally:
        inst.restore()
    tracer.merge_spills()
    return outcomes, tracer, inst.restored()


def _crosscheck(wl, outcomes, rows, seed, show) -> list:
    """Traced Newton accounting against StepRecord sums and the ROADMAP rows."""
    problems = []
    for run, outcome, row in zip(wl.runs, outcomes, rows):
        line = (f"  {run.label}: steps {row['steps']}, newton iters in accepted steps {row['accepted']}"
                f" + energy init {row['init']} + calibration {row['calibration']}"
                f" + failed attempts {row['retries']} = wrapped {row['wrapped']};"
                f" sum of StepRecord.iterations {outcome.record_iters}")
        if row["failed"] or outcome.record_iters is None:
            if show:
                print(line + " (run failed)")
            continue
        if seed == 0 and run.label in workloads.BASELINE:
            base = workloads.BASELINE[run.label]
            line += f"; ROADMAP baseline {base[0]}/{base[1]}"
            if (row["steps"], row["accepted"]) != base or outcome.record_iters != base[1]:
                problems.append(f"{run.label}: traced {row['steps']}/{row['accepted']} != baseline {base}")
        # midpoint_fixed_step records iterations=0 whatever its solve did (see NOTES.md)
        if run.integrator != "midpoint_fixed" and row["accepted"] != outcome.record_iters:
            problems.append(f"{run.label}: traced accepted iters {row['accepted']} != StepRecord sum")
        if row["steps"] != outcome.steps:
            problems.append(f"{run.label}: traced steps {row['steps']} != trajectory steps {outcome.steps}")
        if show:
            print(line)
    return problems


def _trace(wl, prepared, workdir, passes, seed, problems):
    """Two traced passes, each after an untraced one (the first is already in
    ``passes``): per-layer metrics, and the checks on the counts."""
    if wl.workers > 1 and multiprocessing.get_start_method() != "fork":
        raise SystemExit("error: tracing suite workers needs the fork start method")
    traced, results = [], []
    for k in range(2):
        if k:
            passes.append(wl.run_pass(prepared, workdir))
        outcomes, tracer, restored = _traced_pass(wl, prepared, workdir)
        if not restored:
            problems.append("tracing left a rebound attribute in place")
        traced.append(outcomes)
        sp = layers.Spans(tracer.names, tracer.arrays())
        ratio = sum(o.seconds for o in outcomes) / sum(o.seconds for o in passes[-1])
        results.append(layers.layer_metrics(sp, wl.workers, ratio))
        if wl.runs:
            problems += _crosscheck(wl, outcomes, layers.newton_accounting(sp), seed, show=k == 0)
        elif results[-1]["integrators.steps"] != outcomes[0].steps:
            problems.append("traced suite steps differ from comparison.csv n_steps")
    tracer.dump(workdir / "spans.npz")
    for name in layers.COUNTS:
        if results[0][name] != results[1][name]:
            problems.append(f"{name} differs between traced passes: {results[0][name]} vs {results[1][name]}")
    layer = {k: results[0][k] if k in layers.COUNTS else statistics.median([r[k] for r in results])
             for k in layers.UNITS}
    return layer, traced


def main(argv=None) -> int:
    args = _parse(argv)
    _import_varint()
    wl = workloads.make(args.workload, args.seed)
    workers = wl.workers
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    problems = []
    try:
        prepared = wl.prepare()
        print(f"workload {args.workload}, seed {args.seed}: angles = {getattr(wl, 'angles', 'fixed (fig_e01)')}")

        passes, walls = [], []
        started = time.perf_counter()
        while True:
            passes.append(wl.run_pass(prepared, workdir))
            walls.append(sum(o.seconds for o in passes[-1]))
            print(f"pass {len(passes)}: {walls[-1]:.3f} s; " + ", ".join(
                f"{o.label} {o.seconds:.4f} s chunk {o.chunk_s * 1e3:.4f} ms" for o in passes[-1]))
            if args.trace or time.perf_counter() - started + statistics.median(walls) > args.seconds:
                break  # the next pass would not fit; a traced run needs one untraced pass
        wall_s = _per_run_median(passes)
        steps = sum(o.steps for o in passes[0])
        for i, o in enumerate(passes[0]):
            median = statistics.median(p[i].scaled for p in passes)
            print(f"  {o.label}: median {median:.3f} s (host-scaled) of {len(passes)} passes, {o.steps} steps")

        rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rss_worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 if workers > 1 else 0.0
        layer = None
        if args.trace:
            layer, traced = _trace(wl, prepared, workdir, passes, args.seed, problems)
            passes += traced
        setup = _setup_seconds(args.workload, args.seed)
    finally:
        shutil.rmtree(workdir / "spill", ignore_errors=True)
        for sub in workdir.glob("suite-*"):
            shutil.rmtree(sub, ignore_errors=True)

    outcomes = [o for p in passes for o in p]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems += [f"{o.label}: {msg}" for o in outcomes for msg in o.problems]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "steps_per_s": steps / wall_s,
        "peak_rss_mb": rss_self + workers * rss_worker,
    }
    for name, value in end_to_end.items():
        print(f"{name:<42} {value:>16.6g} {END_TO_END[name]}")
    print(f"{'fail_ratio':<42} {failed / attempted:>16.6g} ratio ({failed} of {attempted} runs)")
    if layer:
        for name, value in layer.items():
            print(f"{name:<42} {value:>16.6g} {layers.UNITS[name]}")
    for msg in problems:
        print(f"INCORRECT: {msg}")
    chosen = layer if args.trace else end_to_end
    units = layers.UNITS if args.trace else END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
