import dataclasses
import hashlib
import os
import py_compile
import re
import subprocess
import sys
from decimal import getcontext, localcontext
from pathlib import Path

import pytest
from conftest import read_summary

import varint
from varint import ConfigurationError
from varint.models import LagrangianModel
from varint.cli import (
    ExperimentConfig,
    main,
    parse_config,
    run_experiment,
    run_suite,
)


def test_parse_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# one-period comparison\n"
        "problem = kepler\n"
        "e = 0.7\n"
        "integrator = epavi\n"
        "h0 = 0.001\n"
        "periods = 1\n"
    )
    cfg = parse_config(str(cfg_file), ["tol=1e-14", "digits=18"])
    assert cfg.e == 0.7
    assert cfg.tol == 1e-14
    assert cfg.digits == 18
    assert cfg.final_time() == pytest.approx(2 * 3.141592653589793)


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("integrater = epavi\n")
    with pytest.raises(ConfigurationError):
        parse_config(str(cfg_file))


def test_validation_rejects_unknown_integrator():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(integrator="rk4").build()


def test_validation_rejects_low_digits():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(digits=8).build()


@pytest.mark.parametrize("setting", ["tol=nan", "T_final=nan"])
def test_main_rejects_a_nan_setting(tmp_path, capsys, setting):
    # nan fails every comparison, so each check must be written to reject it
    args = ["run", f"--outdir={tmp_path}", "problem=oscillator", "integrator=epavi",
            "T_final=0.1", "reference=false", setting]
    assert main(args) == 2
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["T_final=inf", "periods=inf", "h0=inf"])
def test_parse_config_rejects_an_infinite_setting(setting):
    # never run: a run has no step budget, so an infinite span would not return
    with pytest.raises(ConfigurationError, match="must be positive and finite"):
        parse_config(overrides=[setting]).build()


@pytest.mark.parametrize("overrides,message", [
    (["reference=maybe"], "cannot parse boolean reference='maybe'"),
    (["h0=abc"], "cannot parse h0='abc'"),
    (["h0"], "override: expected key=value, got 'h0'"),
    (["problem=oscillator", "periods=1"], "periods is only defined for the kepler problem"),
])
def test_a_setting_the_runner_cannot_take_is_refused(overrides, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        parse_config(overrides=overrides).build()


@pytest.mark.parametrize("case", ["missing config", "config is a directory", "config is not UTF-8",
                                  "run outdir is a file", "suite outdir is a file"])
def test_unreadable_settings_are_configuration_errors(tmp_path, capsys, case):
    # each ended in a traceback and exit 1, the code of a numerical failure
    blocker = tmp_path / "file"
    blocker.write_text("")
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("problem = oscillator  # r\xe9sum\xe9\n".encode("latin-1"))
    run = ["problem=oscillator", "T_final=0.1", "reference=false"]
    args = {
        "missing config": ["run", "--config", str(tmp_path / "missing.cfg"), *run, f"outdir={tmp_path / 'out'}"],
        "config is a directory": ["run", "--config", str(tmp_path), *run, f"outdir={tmp_path / 'out'}"],
        "config is not UTF-8": ["run", "--config", str(latin1), *run, f"outdir={tmp_path / 'out'}"],
        "run outdir is a file": ["run", *run, f"outdir={blocker}"],
        "suite outdir is a file": ["suite", "fig_e01", "--outdir", str(blocker)],
    }[case]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: "), err
    assert not (tmp_path / "out").exists()


def test_parse_config_rejects_periods_with_t_final():
    # one span: periods would otherwise be ignored in favour of T_final
    with pytest.raises(ConfigurationError, match="periods or T_final, not both"):
        parse_config(overrides=["periods=2", "T_final=1"]).build()


@pytest.mark.parametrize("setting,integrator,message", [
    ("q0=nan", "reference", "non-finite"),
    ("m=inf", "epavi", "mass m"),
    ("m=nan", "epavi", "mass m"),
    ("k=nan", "epavi", "stiffness k"),
])
def test_main_rejects_a_non_finite_oscillator(tmp_path, capsys, setting, integrator, message):
    args = ["run", f"--outdir={tmp_path}", "problem=oscillator", f"integrator={integrator}",
            "T_final=0.1", "reference=false", setting]
    assert main(args) == 2
    assert message in capsys.readouterr().err


@pytest.fixture
def built_models(monkeypatch):
    """The class names of the models built while the test runs, in order."""
    built = []
    init = LagrangianModel.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LagrangianModel, "__init__", counting)
    return built


def test_a_suite_member_builds_one_model(tmp_path, built_models):
    # the start is the built model's own: it built a second model to evaluate H
    summary = run_experiment(varint.cli.SUITES["fig_e01"]["epavi_tol1e-15"], tmp_path)
    assert summary["success"] and built_models == ["KeplerTwoBody"]


def test_a_cli_run_builds_one_model(tmp_path, built_models):
    # parse_config built the context, solver config and model to check them,
    # and run_experiment built them again
    assert main(["run", f"--outdir={tmp_path}", "problem=oscillator", "T_final=0.1", "reference=false"]) == 0
    assert built_models == ["HarmonicOscillator"]


@pytest.mark.parametrize("setting", ["digits=8", "tol=0", "problem=three_body", "m=nan", "k=nan",
                                     "problem=kepler e=1.0", "problem=kepler e=-0.1"])
def test_a_refused_run_makes_no_output_directory(tmp_path, setting):
    # the context, solver config, model and start are built before the
    # directory: the start checks the eccentricity
    outdir = tmp_path / "run"
    assert main(["run", f"--outdir={outdir}", "problem=oscillator", "T_final=0.1", *setting.split()]) == 2
    assert not outdir.exists()


def _run_in_a_fresh_interpreter(tmp_path, *settings):
    # a fresh interpreter under a timeout turns a run that never returns into
    # a failure instead of a hung session
    src = str(Path(varint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "varint.cli", "run", *settings, f"outdir={tmp_path}"],
                          env=env, capture_output=True, text=True, timeout=60)


def test_nan_mass_reference_run_returns(tmp_path):
    # RK45 loops on a nan right-hand side
    proc = _run_in_a_fresh_interpreter(tmp_path, "problem=oscillator", "m=nan", "integrator=reference",
                                       "T_final=0.1")
    assert proc.returncode == 2, proc.stderr
    assert "mass m" in proc.stderr


def test_reference_run_of_a_vanishing_period_returns(tmp_path):
    # the period 2 pi sqrt(m/k) ~ 6e-150 would take RK45 ~1e149 steps; its
    # first step, far below 1e-12 of the span, fails the run, and the
    # overflow in RK45's first-step norm is not warned of
    proc = _run_in_a_fresh_interpreter(tmp_path, "problem=oscillator", "m=1e-300", "integrator=reference",
                                       "T_final=0.1")
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    stored = read_summary(tmp_path / "summary.txt")
    assert stored["success"] == "False"
    assert stored["error"].startswith("reference step ")
    assert stored["error"].endswith(" at t = 0 is below 1e-12 of the span")


@pytest.mark.parametrize("integrator,error", [
    ("epavi", "epavi run aborted at t = "),
    ("midpoint_fixed", "reference step "),
])
def test_a_failed_bundle_reports_its_first_failure(tmp_path, integrator, error):
    # m = 1e-300, a period of ~6e-150: EpAVI's step underflows after 2652
    # steps, and the reference solve of the trajectory it reached fails
    # after it, so the run's own abort is the error; the fixed step
    # completes its 100 steps, and its failed reference solve fails the bundle
    code = main(["run", f"--outdir={tmp_path}", "problem=oscillator", "m=1e-300", "T_final=0.1",
                 f"integrator={integrator}"])
    assert code == 1
    stored = read_summary(tmp_path / "summary.txt")
    assert stored["success"] == "False"
    assert stored["error"].startswith(error)
    assert not (tmp_path / "traj_error.csv").exists()


@pytest.mark.parametrize("problem", ["oscillator", "pendulum"])
def test_avi2_off_kepler_is_a_configuration_error(tmp_path, problem):
    # g2 = q'q vanishes at the q = 0 that the default run from rest crosses:
    # the run never returned, and is now refused before it starts
    proc = _run_in_a_fresh_interpreter(tmp_path, f"problem={problem}", "integrator=avi2")
    assert proc.returncode == 2, proc.stderr
    assert "avi2 is only defined for the kepler problem" in proc.stderr


def test_list_prints_the_registered_names(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "problems:    kepler oscillator pendulum",
        "integrators: epavi avi1 avi2 midpoint_fixed reference",
        "suites:      fig_e01 fig_e07 vpa_study bea_orders h0_sensitivity",
    ]


def test_main_exit_codes(tmp_path, capsys):
    # unknown integrator: configuration error -> exit 2
    assert main(["run", f"--outdir={tmp_path}", "integrator=rk99"]) == 2
    # the reference tolerances are fixed, not config keys
    assert main(["run", f"--outdir={tmp_path}", "reltol=1e-10"]) == 2
    assert "unknown config key 'reltol'" in capsys.readouterr().err
    # the fictitious step is calibrated from h0, not a config key
    assert main(["run", f"--outdir={tmp_path}", "delta_a=0.003"]) == 2
    assert "unknown config key 'delta_a'" in capsys.readouterr().err
    # the iteration budget and the condition-count threshold are constants
    for item in ("max_iter=30", "condition_warn=1e10"):
        assert main(["run", f"--outdir={tmp_path}", item]) == 2
        assert f"unknown config key {item.split('=')[0]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {},
    {"problem": "pendulum", "outdir": "runs/p"},        # str
    {"reference": False},                              # bool
    {"digits": 18},                                    # int
    {"e": 0.7, "h0": 0.01},                            # float
    {"tol": 1e-15, "periods": 2.0},                    # None-default float
])
def test_config_lines_round_trip(fields):
    # every key parses as the type of its field's default, a None default as float
    cfg = ExperimentConfig(**fields)
    parsed = parse_config(None, cfg.as_lines())
    assert parsed == cfg
    assert [type(getattr(parsed, k)) for k in fields] == [type(v) for v in fields.values()]


def _quick_cfg(tmp_path, **kw):
    base = dict(
        problem="oscillator",
        integrator="epavi",
        h0=0.05,
        T_final=2.0,
        tol=1e-13,
        outdir=str(tmp_path),
        reference=True,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_outputs(tmp_path):
    summary = run_experiment(_quick_cfg(tmp_path))
    assert summary["success"]
    for name in ("config.txt", "trajectory.csv", "energy_error.csv",
                 "traj_error.csv", "stats.csv", "summary.txt", "plot.py"):
        assert (tmp_path / name).exists(), name
    stored = read_summary(tmp_path / "summary.txt")
    assert stored["success"] == "True"
    assert float(stored["max_energy_error"]) < 1e-10
    py_compile.compile(str(tmp_path / "plot.py"), doraise=True)


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(_quick_cfg(a, outdir=str(a)))
    run_experiment(_quick_cfg(b, outdir=str(b)))
    for name in ("trajectory.csv", "energy_error.csv", "traj_error.csv", "stats.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    untimed = [{k: v for k, v in read_summary(d / "summary.txt").items() if k != "wall_time_s"}
               for d in (a, b)]
    assert untimed[0] == untimed[1]
    # the bytes themselves, without the scipy reference
    c = tmp_path / "c"
    run_experiment(_quick_cfg(c, outdir=str(c), reference=False))
    digests = {name: hashlib.sha256((c / name).read_bytes()).hexdigest() for name in CSV_DIGESTS}
    assert digests == CSV_DIGESTS


#: SHA-256 of the CSV output of the reference-free quick oscillator run,
#: recorded before the reference and solver settings became constants, and
#: again when the Newton step moved from numpy's LAPACK gufuncs to Python
#: floats, which moved the run's EpAVI states: 41 steps and 105 Newton
#: iterations, against 40 and 102 under OpenBLAS's SkylakeX kernels and 41
#: and 105 under its Haswell ones.
CSV_DIGESTS = {
    "trajectory.csv": "e72fc615bbb52f9d3271c4f4d1838902572913d86eb26d1102a90850fab7e5c4",
    "energy_error.csv": "04e69659595ada0a764053838e34005d2ef19eab68a9e3daa4e1f6a02d255bee",
    "stats.csv": "11ad1ef7e12362d87c09070102e45451e318a589c76e028dee57fe426bcf5881",
}


def test_summary_counts_the_solver_work(tmp_path):
    summary = run_experiment(_quick_cfg(tmp_path, reference=False))
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    header = rows[0].split(",")
    steps = [dict(zip(header, row.split(","))) for row in rows[1:-1]]  # the last state has no step
    assert summary["newton_iterations"] == sum(int(s["newton_iters"]) for s in steps) > 0
    assert summary["retried_steps"] == sum(int(s["retried"]) for s in steps) == 0
    stored = read_summary(tmp_path / "summary.txt")
    assert stored["newton_iterations"] == str(summary["newton_iterations"])
    assert stored["retried_steps"] == "0"


def test_summary_reports_condition_and_overshoot(tmp_path, monkeypatch):
    summary = run_experiment(_quick_cfg(tmp_path / "default", reference=False))
    assert summary["success"] and summary["condition_warnings"] == 0
    assert 1 <= summary["max_condition_estimate"] < 1e12
    rows = (tmp_path / "default" / "trajectory.csv").read_text().splitlines()
    header = rows[0].split(",")
    last_h = float(dict(zip(header, rows[-2].split(",")))["h"])
    assert 0 <= summary["overshoot"] < last_h
    stored = read_summary(tmp_path / "default" / "summary.txt")
    for key in ("max_condition_estimate", "condition_warnings", "overshoot"):
        assert stored[key] == str(summary[key])
    # the threshold only counts, it never changes a solve; every EpAVI step
    # of this run has an estimate above 1
    monkeypatch.setattr(varint.cli, "CONDITION_WARN", 1.0)
    warned = run_experiment(_quick_cfg(tmp_path / "warned", reference=False))
    assert warned["max_condition_estimate"] == summary["max_condition_estimate"]
    assert warned["condition_warnings"] == warned["n_steps"] == summary["n_steps"]


def test_run_experiment_avi_on_kepler(tmp_path):
    cfg = ExperimentConfig(
        problem="kepler", e=0.7, integrator="avi2", h0=0.001,
        T_final=0.3, tol=1e-12, outdir=str(tmp_path), reference=False,
    )
    summary = run_experiment(cfg)
    assert summary["success"]
    assert summary["n_steps"] > 10


def test_run_experiment_reference_integrator(tmp_path):
    cfg = ExperimentConfig(
        problem="kepler", e=0.1, integrator="reference",
        T_final=1.0, outdir=str(tmp_path),
    )
    summary = run_experiment(cfg)
    assert summary["success"]
    assert summary["max_energy_error"] < 1e-10


def test_extended_reference_run_writes_doubles(tmp_path):
    # the reference solves in double at any digits, so an 18-digit run
    # writes the bytes of the 16-digit one
    for digits in (16, 18):
        run_experiment(ExperimentConfig(
            problem="kepler", e=0.7, integrator="reference", digits=digits,
            T_final=1.0, outdir=str(tmp_path / str(digits)),
        ))
    csv16, csv18 = ((tmp_path / d / "trajectory.csv").read_bytes() for d in ("16", "18"))
    assert csv18 == csv16
    assert csv16.splitlines()[1].startswith(b"0,0.0000000000000000e+00,3.0000000000000004e-01,")


def test_suite_unknown_name(tmp_path):
    with pytest.raises(ConfigurationError):
        run_suite("fig_e99", tmp_path)


def test_suite_bea_orders(tmp_path):
    summary = run_suite("bea_orders", tmp_path, workers=1)
    assert summary["success"]
    assert (tmp_path / "bea_orders.csv").exists()
    assert abs(summary["improvement_oscillator"] - 2.0) <= 0.6
    assert abs(summary["improvement_pendulum"] - 2.0) <= 0.6
    header = (tmp_path / "bea_orders.csv").read_text().splitlines()[0]
    assert header.startswith("problem,profile,modified,delta_a,residual_inf_norm")


def test_main_run_oscillator(tmp_path, capsys):
    code = main([
        "run", f"--outdir={tmp_path}",
        "problem=oscillator", "integrator=midpoint_fixed",
        "h0=0.05", "T_final=1.0", "tol=1e-12", "reference=false",
    ])
    assert code == 0
    assert (tmp_path / "summary.txt").exists()


def test_solver_keys_flow_through(tmp_path):
    cfg = parse_config(None, [
        "problem=oscillator", "integrator=epavi", "h0=0.05", "T_final=0.5",
        "tol=1e-11", f"outdir={tmp_path}", "reference=false",
    ])
    assert run_experiment(cfg)["success"]
    # every integrator has analytic partials, so there is no FD step to set
    with pytest.raises(ConfigurationError, match="unknown config key 'fd_step'"):
        parse_config(None, ["fd_step=1e-6"])


def test_suite_h0_sensitivity_parallel(tmp_path):
    summary = run_suite("h0_sensitivity", tmp_path, workers=2)
    assert summary["success"]
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 members
    header = lines[0].split(",")
    ratios = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        ratios[row["label"]] = float(row["mean_step_ratio"])
    # the adaptation ratio is a property of the dynamics, not of h0
    assert abs(ratios["epavi_tol1e-15"] - ratios["epavi_tol1e-15_h0.01"]) <= 0.2 * ratios["epavi_tol1e-15"]


def test_run_extended_precision_summary(tmp_path):
    cfg = ExperimentConfig(
        problem="kepler", e=0.7, integrator="epavi", h0=0.01, periods=1.0,
        digits=18, tol=1e-17, outdir=str(tmp_path), reference=False,
    )
    summary = run_experiment(cfg)
    assert summary["success"]
    assert float(summary["max_energy_error"]) <= 1e-16


def test_bundle_bytes_ignore_the_callers_decimal_context(tmp_path):
    # an 18-digit run computes in its own decimal context: the caller's, at
    # 8 digits or at 50, changes no output byte, and is the caller's again
    # after the run, and after a failed run
    run = ["problem=kepler", "e=0.7", "integrator=epavi", "digits=18", "h0=0.01", "tol=1e-17",
           "T_final=0.5", "reference=false"]
    failing = ["problem=kepler", "e=0.1", "h0=1", "digits=18", "reference=false"]
    for prec in (8, 50):
        with localcontext(prec=prec) as caller:
            assert main(["run", f"--outdir={tmp_path / str(prec)}", *run]) == 0
            assert getcontext() is caller and caller.prec == prec
            assert main(["run", f"--outdir={tmp_path / f'failed_{prec}'}", *failing]) == 1
            assert getcontext() is caller and caller.prec == prec
    for name in ("trajectory.csv", "energy_error.csv", "stats.csv"):
        assert (tmp_path / "8" / name).read_bytes() == (tmp_path / "50" / name).read_bytes()


def test_failed_run_writes_failure_summary(tmp_path):
    # EpAVI at e = 0.9 loses the root of its energy row (the fold) after 37
    # steps; a tolerance below the double-precision floor no longer fails a
    # run, whose stalls are accepted at the residual floor
    code = main([
        "run", f"--outdir={tmp_path}",
        "problem=kepler", "e=0.9", "integrator=epavi",
        "h0=0.001", "T_final=0.1", "tol=1e-15", "reference=false",
    ])
    assert code == 1
    stored = read_summary(tmp_path / "summary.txt")
    assert stored["success"] == "False"
    assert stored["error"].startswith("epavi run aborted at t = 0.07")


def test_energy_initialization_failure_writes_failure_summary(tmp_path):
    # at e = 0.1 the momentum equation over h0 = 1 has no nearby solution:
    # the run fails before its first step, as a step failure does, and
    # writes the one-state trajectory it reached
    code = main(["run", f"--outdir={tmp_path}", "problem=kepler", "e=0.1", "h0=1", "reference=false"])
    assert code == 1
    stored = read_summary(tmp_path / "summary.txt")
    assert stored["success"] == "False"
    assert stored["error"].startswith("epavi run aborted at t = 0 after 0 steps: no convergence: ")
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0,")  # the header and state 0


def test_jacobian_overflow_writes_failure_summary(tmp_path):
    # AVI's delta_a calibration over h0 = 1e80 starts its Newton solve from
    # dq = h0 p0, whose midpoint lies at |q| ~ 3e80: the residual's r ** 3
    # is finite there and the Kepler Hessian's r ** 5 overflows a float,
    # on every host: a failed run (exit 1, summary written), not a traceback
    code = main(["run", f"--outdir={tmp_path}", "problem=kepler", "e=0.95", "integrator=avi2",
                 "h0=1e80", "periods=1", "reference=false"])
    assert code == 1
    stored = read_summary(tmp_path / "summary.txt")
    assert stored["success"] == "False"
    assert stored["error"].startswith("avi_g2 run aborted at t = 0 after 0 steps: Jacobian overflows")
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 2


def test_missed_avi_calibration_writes_failure_summary(tmp_path):
    # five g2 calibration trials miss h0 = 0.3 by more than 1%: exit 1, not
    # a run whose first step is 13% of h0
    code = main(["run", f"--outdir={tmp_path}", "problem=kepler", "e=0.7", "integrator=avi2",
                 "h0=0.3", "periods=1"])
    assert code == 1
    stored = read_summary(tmp_path / "summary.txt")
    assert stored["success"] == "False"
    assert stored["error"].startswith("avi_g2 run aborted at t = 0 after 0 steps: "
                                      "delta_a calibration missed h0 = 0.3 by more than 1% after 5 solves")
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("problem", ["oscillator", "pendulum"])
def test_default_run_from_rest_retries_its_second_step(tmp_path, problem):
    # EpAVI from rest: step 2's warm start walks towards the degenerate h -> 0
    # branch and stalls at an ill-conditioned iterate; that failed solve is
    # retried from the cold start instead of aborting the run as ill-posed
    code = main(["run", f"--outdir={tmp_path}", f"problem={problem}", "T_final=0.1"])
    assert code == 0
    stored = read_summary(tmp_path / "summary.txt")
    assert stored["success"] == "True"
    assert stored["retried_steps"] == "1"


def test_setup_failure_writes_failure_summary(tmp_path):
    # a start inside the Kepler collision guard fails while the initial
    # state is built: still exit 1 with a summary; e >= 1 is a configuration
    # error and exits 2
    code = main([
        "run", f"--outdir={tmp_path}",
        "problem=kepler", "e=0.99999999995", "integrator=epavi", "reference=false",
    ])
    assert code == 1
    stored = read_summary(tmp_path / "summary.txt")
    assert stored["success"] == "False"
    assert "collision guard" in stored["error"]
    assert main(["run", f"--outdir={tmp_path / 'bad'}", "problem=kepler", "e=1.0"]) == 2
    assert not (tmp_path / "bad" / "summary.txt").exists()


_IMPORT_SET_PROBE = """
import dataclasses
import sys

import varint, varint.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert not scipy_modules(), f"import varint loaded {scipy_modules()}"

model, s0 = varint.KeplerTwoBody(), varint.kepler_initial_state(0.7)
cfg = varint.SolverConfig(tol=1e-13)
varint.epavi_run(model, s0, 1e-3, 0.05, cfg)
varint.avi_run(model, varint.make_monitor("g1", model, s0), s0, 0.05, cfg, h0=1e-3)
varint.midpoint_fixed_run(model, s0, 1e-3, 0.05, cfg)
ctx = varint.with_precision(18)
varint.epavi_run(varint.KeplerTwoBody(ctx), varint.kepler_initial_state(0.7, ctx), ctx.real(1e-2), 0.05,
                 varint.SolverConfig.for_context(ctx))
assert not scipy_modules(), f"library runs loaded {scipy_modules()}"

ref = varint.reference_solve(model, s0, 1.0)
assert ref.eval(1.0)[0].shape == (2,)
assert not scipy_modules(), f"a Kepler reference solve loaded {scipy_modules()}"

# the fig_e01 members, shortened, with their reference errors and outputs
varint.cli.SUITES["fig_e01"] = {label: dataclasses.replace(cfg, periods=None, T_final=0.05)
                                for label, cfg in varint.cli.SUITES["fig_e01"].items()}
assert varint.cli.run_suite("fig_e01", sys.argv[1] + "/w1", workers=1)["success"]
assert not scipy_modules(), f"a 1-worker fig_e01 suite loaded {scipy_modules()}"


class Sentinel(Exception):
    pass


seen = []


def pool(*args, **kwargs):
    seen.append(scipy_modules())
    raise Sentinel


varint.cli.ProcessPoolExecutor = pool
try:
    varint.cli.run_suite("fig_e01", sys.argv[1] + "/w2", workers=2)
except Sentinel:
    pass
assert seen == [[]], f"scipy loaded before the pool: {seen}"

# a start without a closed form still solves with RK45, which loads scipy.integrate then
model = varint.HarmonicOscillator()
varint.reference_solve(model, model.initial_state(), 1.0)
assert "scipy.integrate" in sys.modules
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_suite_member_is_recorded(tmp_path, monkeypatch, workers):
    # the e = 0.9 run aborts at the fold after 37 steps; the suite still runs
    # its other members, here over t <= 0.1, records the failure and exits 1
    members = {f"{cfg.integrator}_e0.1": dataclasses.replace(cfg, periods=None, T_final=0.1)
               for cfg in varint.cli.SUITES["fig_e01"].values()}
    fold = ExperimentConfig(problem="kepler", e=0.9, tol=1e-15, periods=1.0)
    monkeypatch.setitem(varint.cli.SUITES, "fig_e01", {**members, "epavi_e0.9": fold})
    assert main(["suite", "fig_e01", "--outdir", str(tmp_path), "--workers", str(workers)]) == 1
    assert read_summary(tmp_path / "summary.txt")["success"] == "False"
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = {row["label"]: row for row in (dict(zip(header, line.split(","))) for line in lines[1:])}
    assert {label: row["success"] for label, row in rows.items()} == {
        "epavi_e0.1": "True", "avi1_e0.1": "True", "avi2_e0.1": "True", "epavi_e0.9": "False"}
    assert rows["epavi_e0.9"]["n_steps"] == "37"
    assert read_summary(tmp_path / "epavi_e0.9" / "summary.txt")["error"].startswith(
        "epavi run aborted at t = 0.0702357 after 37 steps: no convergence: ")


def test_suite_pool_is_capped_at_the_member_count(tmp_path, monkeypatch):
    # the fork start method launches every worker at once; the stub raises
    # before any process starts
    class Sentinel(Exception):
        pass

    seen = []

    def pool(max_workers):
        seen.append(max_workers)
        raise Sentinel

    monkeypatch.setattr(varint.cli, "ProcessPoolExecutor", pool)
    with pytest.raises(Sentinel):
        run_suite("fig_e01", tmp_path, workers=1000)
    assert seen == [3]


#: The member labels of each registered suite that runs a member table, in
#: order: each is the member's output directory.
SUITE_LABELS = {
    "fig_e01": ["epavi_tol1e-15", "avi1_tol1e-13", "avi2_tol1e-13"],
    "fig_e07": ["epavi_tol1e-15", "avi1_tol1e-13", "avi2_tol1e-13"],
    "vpa_study": ["epavi_tol1e-15_h0.01", "epavi_d18_tol1e-15_h0.01", "epavi_d18_tol1e-16_h0.01",
                  "epavi_d18_tol1e-17_h0.01"],
    "h0_sensitivity": ["epavi_tol1e-15", "epavi_tol1e-15_h0.01", "avi2_tol1e-13", "avi2_tol1e-13_h0.01"],
}


def test_suite_labels_and_directories_are_pinned(tmp_path, monkeypatch):
    # a dict literal keeps the last of two equal keys without a word, so a
    # repeated label shows here as a missing member; no member runs
    assert varint.cli.SUITE_NAMES == ("fig_e01", "fig_e07", "vpa_study", "bea_orders", "h0_sensitivity")
    assert sorted(n for n, suite in varint.cli.SUITES.items() if not callable(suite)) == sorted(SUITE_LABELS)
    ran = []

    def member(cfg, outdir):
        ran.append(outdir.relative_to(tmp_path).as_posix())
        return {"integrator": cfg.integrator, "success": True}

    monkeypatch.setattr(varint.cli, "run_experiment", member)
    for name, labels in SUITE_LABELS.items():
        assert list(varint.cli.SUITES[name]) == labels
        assert run_suite(name, tmp_path / name, workers=1) == {"suite": name, "members": len(labels),
                                                                "success": True}
        rows = (tmp_path / name / "comparison.csv").read_text().splitlines()[1:]
        assert [row.split(",", 1)[0] for row in rows] == labels
    assert ran == [f"{name}/{label}" for name, labels in SUITE_LABELS.items() for label in labels]


def test_scipy_loads_only_for_a_runge_kutta_reference(tmp_path):
    # the test session has loaded scipy already, so one fresh interpreter
    # checks what `import varint`, the library runs, a Kepler reference solve
    # and the fig_e01 suite load: no scipy module, in the parent up to the
    # pool or in a 1-worker run, until a reference solve without a closed form
    src = str(Path(varint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SET_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
