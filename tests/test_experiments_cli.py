import json
import math
import threading
import time
import warnings

import numpy as np
import pytest

from horolab.automorphic import eisenstein_series_prediction
from horolab.cli import cli_main
from horolab.experiments import (
    ExperimentConfig,
    run_basis_identity_check,
    run_equidistribution,
)
from horolab.fitting import MAX_GRID_POINTS, least_squares_loglog
from horolab.measures import ABS_BLOCK
from horolab.oscillatory import ToleranceNotReachedError


# ---------------------------------------------------------------------------
# Equidistribution driver


@pytest.fixture(scope="module")
def lebesgue_report():
    cfg = ExperimentConfig(
        measure="leb", test="eisenstein:t=1",
        y_max=0.25, y_ratio=0.5, y_count=11,
        method="cylinder", budget=10**6, seed=11, tol=1e-8,
    )
    return run_equidistribution(cfg)


def test_lebesgue_decay_is_the_classical_rate(lebesgue_report):
    rep = lebesgue_report
    assert rep.status == "ok"
    assert abs(rep.exponent - 0.5) < 0.05


def test_lebesgue_errors_match_constant_term(lebesgue_report):
    # mu_y(Re E) for Lebesgue is exactly Re(constant term)
    from horolab.automorphic import EisensteinParams, constant_term

    p = EisensteinParams(1.0)
    for y, err in zip(lebesgue_report.params, lebesgue_report.errors):
        assert err == pytest.approx(abs(constant_term(float(y), p).real), abs=1e-7)


def test_exponent_reproducible_from_csv_rows(lebesgue_report):
    lines = lebesgue_report.to_csv().strip().split("\r\n")
    rows = [line.split(",") for line in lines[1:]]
    kept = [(float(r[0]), float(r[1])) for r in rows if r[-1] == "1"]
    fit = least_squares_loglog([r[0] for r in kept], [r[1] for r in kept])
    assert fit.slope == pytest.approx(lebesgue_report.exponent, abs=1e-9)


def test_escape_to_cusp_is_inconclusive():
    cfg = ExperimentConfig(
        measure="dirac:0", test="bump:y0=1,y1=2",
        y_max=0.25, y_ratio=0.5, y_count=8,
        method="cylinder", budget=2000, seed=3,
    )
    rep = run_equidistribution(cfg)
    assert rep.status == "inconclusive"


def test_equidistribution_deterministic():
    cfg = dict(
        measure="cantor:3:0,2", test="eisenstein:t=1",
        y_max=0.25, y_ratio=0.5, y_count=6,
        method="montecarlo", budget=20_000, seed=21,
    )
    a = run_equidistribution(ExperimentConfig(**cfg)).to_csv()
    b = run_equidistribution(ExperimentConfig(**cfg)).to_csv()
    assert a == b


# ---------------------------------------------------------------------------
# Sweep threads


def _command_outputs(tmp_path, argv):
    out_file, json_file = tmp_path / "run.csv", tmp_path / "run.json"
    code = cli_main([*argv, "--out", str(out_file), "--json-out", str(json_file)])
    assert code in (0, 2)  # byte identity is the claim, not fit quality
    return out_file.read_bytes(), json_file.read_bytes()


def _sweep_outputs(tmp_path, command, method):
    return _command_outputs(
        tmp_path,
        [command, "--measure", "cantor:3:0,2", "--ygrid", "0.25:0.5:5", "--method", method,
         "--budget", "70000", "--tol", "1e-4", "--seed", "9"],
    )


@pytest.mark.parametrize("method", ["montecarlo", "cylinder"])
@pytest.mark.parametrize("command", ["equidist", "basis-check"])
def test_threaded_sweep_equals_serial_sweep(monkeypatch, tmp_path, command, method):
    from horolab import experiments, fitting

    before = threading.active_count()
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)  # threads even on one CPU
    counts = []
    real = experiments.mu_y_value
    monkeypatch.setattr(
        experiments, "mu_y_value",
        lambda *a, **k: counts.append(threading.active_count()) or real(*a, **k),
    )
    threaded = _sweep_outputs(tmp_path, command, method)
    assert max(counts) == before + fitting.THREADS - 1
    assert threading.active_count() == before
    monkeypatch.setattr(fitting, "THREADS", 1)
    counts.clear()
    assert _sweep_outputs(tmp_path, command, method) == threaded
    assert max(counts) == before


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_raises_the_first_failing_height(monkeypatch, threads):
    from horolab import experiments, fitting

    cfg = ExperimentConfig(
        measure="leb", test="eisenstein:t=1", y_max=0.25, y_ratio=0.5, y_count=8,
        method="montecarlo", budget=2000, seed=1,
    )
    ys = cfg.y_grid.tolist()

    def failing(measure, phi, y, x0, q, **kwargs):
        k = ys.index(y)
        if k == 2:  # fails late, after height 4 has failed in the other thread
            time.sleep(0.3)
            raise ValueError("height 2")
        if k == 4:
            raise ValueError("height 4")
        return 0.5, 0.0

    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(fitting, "THREADS", threads)
    monkeypatch.setattr(experiments, "mu_y_value", failing)
    before = threading.active_count()
    with pytest.raises(ValueError, match="height 2"):
        run_equidistribution(cfg)
    assert threading.active_count() == before


THREADED_COMMANDS = {
    "dim": ["dim", "--measure", "cantor:450:0..446", "--xmax", str(2 * ABS_BLOCK + 4321)],
    "dim-star": ["dim", "--measure", "cantor:3:0,2", "--xmax", "12000", "--star", "--theta-grid", "9"],
    "fourier": ["fourier", "--measure", "cantor:3:0,2*dirac:0.3", "--xi", f"0:{ABS_BLOCK // 4 + 9}:0.25"],
    # both counting routes: windows at small q, rows at q = 2 and at large q
    "khintchine": ["khintchine", "--measure", "leb", "--psi", "pow:1", "--Q", "3000",
                   "--samples", "500"],
    "khintchine-cantor": ["khintchine", "--measure", "cantor:3:0,2", "--psi", "pow:1",
                          "--Q", "400", "--samples", "3000"],
    "stationary": ["stationary", "--phase", "poly:0,0,0,1", "--xigrid", "10:3000:9"],
}


@pytest.mark.parametrize("name", sorted(THREADED_COMMANDS))
def test_threaded_command_equals_serial_command(monkeypatch, tmp_path, name):
    from horolab import fitting

    before = threading.active_count()
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)  # threads even on one CPU
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or real_start(t))
    threaded = _command_outputs(tmp_path, THREADED_COMMANDS[name])
    assert started  # the map ran on a helper thread
    assert threading.active_count() == before
    monkeypatch.setattr(fitting, "THREADS", 1)
    started.clear()
    assert _command_outputs(tmp_path, THREADED_COMMANDS[name]) == threaded
    assert started == []


def test_cli_stationary_raises_the_first_failing_xi(monkeypatch, capsys):
    from horolab import fitting, oscillatory

    def failing(f, w, xi, tol):  # on the grid 1, 10, ..., 10**5
        if 50 < xi < 200:  # fails late, after xi = 1000 has failed in the other thread
            time.sleep(0.3)
            raise ToleranceNotReachedError("xi = 100 did not settle")
        if 500 < xi < 2000:
            raise ValueError("xi = 1000 over the budget")
        return 1.0 + 0.0j

    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(oscillatory, "oscillatory_integral", failing)
    code, out, err = run_cli(capsys, "stationary", "--phase", "poly:0,0,1", "--xigrid", "1:100000:6")
    assert code == 1 and out == ""
    assert err == "horolab: error: --tol: xi = 100 did not settle\n"


def test_montecarlo_budget_below_two_is_refused(capsys):
    from horolab.measures import parse_measure
    from horolab.modular import mu_y_value
    from horolab.testfunctions import EisensteinTest

    with pytest.raises(ValueError, match="montecarlo budget must be >= 2"):
        mu_y_value(parse_measure("leb"), EisensteinTest(1.0), 0.25, budget=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Degrees of freedom <= 0" on the way
        code, out, err = run_cli(
            capsys, "equidist", "--measure", "leb", "--method", "montecarlo",
            "--budget", "1", "--ygrid", "0.25:0.5:4",
        )
    assert code == 1 and out == ""
    assert err == "horolab: error: montecarlo budget must be >= 2 for a standard error, got 1\n"


# ---------------------------------------------------------------------------
# Basis identity check


@pytest.mark.parametrize("measure", ["leb", "dirac:0.3"])
def test_basis_identity_simple_measures(measure):
    cfg = ExperimentConfig(
        measure=measure, test="eisenstein:t=1",
        y_max=0.25, y_ratio=0.5, y_count=8,
        method="cylinder", budget=10**6, seed=0, tol=1e-8,
    )
    rep = run_basis_identity_check(cfg)
    assert rep.max_discrepancy < 1e-6


def test_basis_identity_cantor_with_base_point():
    cfg = ExperimentConfig(
        measure="cantor:3:0,2", test="eisenstein:t=1",
        y_max=0.2, y_ratio=0.5, y_count=3,
        x0=0.25, q=2,
        method="cylinder", budget=4_000_000, seed=0, tol=1e-6,
    )
    rep = run_basis_identity_check(cfg)
    # discrepancy sits below the half-power envelope with a small constant
    assert rep.max_discrepancy < 1e-4
    assert (rep.discrepancies <= rep.envelope_constant * np.sqrt(rep.ys) + 1e-15).all()


def test_basis_check_sieves_once_on_criterion_4_grid(monkeypatch):
    from horolab import automorphic

    calls = []
    real = automorphic.sigma_range
    monkeypatch.setattr(automorphic, "sigma_range", lambda z, m: calls.append(m) or real(z, m))
    cfg = ExperimentConfig(
        measure="leb", test="eisenstein:t=1",
        y_max=0.25, y_ratio=0.5, y_count=11,
        method="cylinder", budget=10**6, seed=4, tol=1e-8,
    )
    run_basis_identity_check(cfg)
    # one table for all 11 heights; each EisensteinParams sieves its own 8
    # reduced-point coefficients
    assert len([m for m in calls if m != 8]) == 1


def test_series_prediction_on_an_array_equals_scalar_calls():
    from horolab.measures import parse_measure
    from horolab.testfunctions import EisensteinTest

    params = EisensteinTest(1.0, component="complex").params
    heights = 0.1 * 0.5 ** np.arange(6)
    for literal, x0, q in (("cantor:3:0,2", 0.25, 2), ("leb", 0.0, 1)):
        measure = parse_measure(literal)
        sweep = eisenstein_series_prediction(measure, params, heights, x0, q)
        single = [eisenstein_series_prediction(measure, params, h, x0, q) for h in heights]
        assert isinstance(single[0], complex)
        assert sweep.tobytes() == np.array(single).tobytes()


def test_series_prediction_refuses_q_below_one():
    # q = 0 gave nan after numpy warnings, and q = -1 a finite number
    from horolab.measures import LebesgueUnit
    from horolab.testfunctions import EisensteinTest

    params = EisensteinTest(1.0, component="complex").params
    for q in (0, -1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="require q >= 1"):
                eisenstein_series_prediction(LebesgueUnit(), params, 0.1, 0.0, q)


def test_cli_cylinder_constant_test_is_exact(capsys):
    from horolab.measures import parse_measure
    from horolab.modular import mu_y_value
    from horolab.testfunctions import ConstantTest

    code, out, err = run_cli(
        capsys, "equidist", "--measure", "cantor:3:0,2", "--test", "const:1",
        "--method", "cylinder", "--ygrid", "0.25:0.5:4",
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "y,error,error_bar,kept"
    assert [line.split(",")[1:3] for line in lines[1:]] == [["0.0", "0.0"]] * 4
    # lipschitz 0: one level of cylinders, mu_y = 1 with bound 0
    for literal in ("cantor:3:0,2", "cantor:3:0,2*dirac:0.25"):
        for y in (0.25, 0.03125):
            value = mu_y_value(parse_measure(literal), ConstantTest(1.0), y, 0.0, 1, method="cylinder")
            assert value == (1.0, 0.0)


@pytest.mark.parametrize("field, value", [("x0", math.nan), ("tol", 0.0)])
def test_experiment_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_basis_prediction_shrinks_with_finer_cylinders():
    # each tolerance step multiplies the enumeration depth: the measured
    # discrepancy must shrink alongside, at three sampled base points
    from horolab.measures import parse_measure
    from horolab.modular import mu_y_value
    from horolab.testfunctions import EisensteinTest

    phi = EisensteinTest(1.0, component="complex")
    measure = parse_measure("cantor:3:0,2")
    for x0, q in ((0.0, 1), (0.25, 2), (1.0 / 3.0, 3)):
        pred = eisenstein_series_prediction(measure, phi.params, 0.05 / q, x0, q)
        errs = []
        for tol in (1e-1, 1e-3, 1e-5):
            val, _ = mu_y_value(
                measure, phi, 0.05, x0, q,
                method="cylinder", budget=4_000_000, tol=tol,
            )
            errs.append(abs(val - pred))
        assert errs[2] < errs[1] < errs[0], (x0, q, errs)


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_takes_the_base_point_mod_1(capsys):
    # n(x0) is 1-periodic, so an integer shift of x0 moves no byte of the rows;
    # at x0 = 1e17 every point x0 + x/q would otherwise round to 1e17
    def rows(*argv):  # exit code and CSV; the JSON config echoes x0
        return run_cli(capsys, *argv)[:2]

    equidist = ("equidist", "--measure", "cantor:3:0,2", "--ygrid", "0.25:0.5:4", "--budget", "20000", "--seed", "1")
    at_0 = rows(*equidist, "--x0", "0")
    assert len(at_0[1].splitlines()) == 5
    assert rows(*equidist, "--x0", "1e17") == rows(*equidist, "--x0", "3") == at_0
    basis = ("basis-check", "--measure", "cantor:3:0,2", "--q", "3", "--ygrid", "0.2:0.5:4", "--tol", "1e-5")
    assert rows(*basis, "--x0", "3.25") == rows(*basis, "--x0", "0.25")
    basis_at_0 = rows(*basis, "--x0", "0")
    assert basis_at_0[0] == 0 and rows(*basis, "--x0", "1e308") == basis_at_0


def test_cli_fourier_zero_row(capsys):
    code, out, _ = run_cli(
        capsys, "fourier", "--measure", "cantor:3:0,2", "--xi", "0:5:1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi,re,im,abs"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[3]) == 1.0


def test_cli_dim_cantor450_reports_cvy_bound(tmp_path, capsys):
    out_file = tmp_path / "dim.csv"
    code, out, _ = run_cli(
        capsys, "dim", "--measure", "cantor:450:0..446", "--xmax", "100000",
        "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(out)
    assert set(summary) == {"command", "config", "seed", "exponent", "stderr", "r2", "status"}
    assert "command" not in summary["config"] and "seed" not in summary["config"]  # top-level keys
    assert summary["config"]["cvy_lower_bound"] > 0.609375
    assert summary["config"]["hausdorff_dimension"] < 0.9992
    assert summary["exponent"] > summary["config"]["cvy_lower_bound"] - 0.05
    assert out_file.read_text().startswith("X,partial_sum")


def test_cli_dim_omits_bound_for_non_progression_digits(capsys):
    # cvy_lower_bound is certified for digits in progression only: absent here
    code, _, err = run_cli(capsys, "dim", "--measure", "cantor:10:0,1,5", "--xmax", "10000")
    assert code == 0
    config = json.loads(err.strip().splitlines()[-1])["config"]
    assert "cvy_lower_bound" not in config
    assert config["hausdorff_dimension"] == pytest.approx(math.log(3) / math.log(10))


def test_cli_dim_one_digit_leaf_reports_dimension_zero(capsys):
    # one digit is no progression for cvy_lower_bound, which needs 2 <= l <= b
    code, _, err = run_cli(capsys, "dim", "--measure", "cantor:3:1", "--xmax", "10000")
    assert code == 0
    config = json.loads(err.strip().splitlines()[-1])["config"]
    assert "cvy_lower_bound" not in config
    assert config["hausdorff_dimension"] == 0.0


TRANSLATE_COMMANDS = {
    "fourier": ["fourier", "--xi=-40:40:0.25"],
    "dim": ["dim", "--xmax", "10000"],
    "dim-star": ["dim", "--xmax", "10000", "--star", "--theta-grid", "8"],
    "equidist-montecarlo": ["equidist", "--ygrid", "0.25:0.5:4", "--method", "montecarlo",
                            "--budget", "20000", "--seed", "5"],
    "equidist-cylinder": ["equidist", "--ygrid", "0.25:0.5:4", "--method", "cylinder",
                          "--budget", "70000", "--tol", "1e-4"],
    "basis-check": ["basis-check", "--ygrid", "0.25:0.5:4", "--budget", "70000", "--tol", "1e-4"],
    "khintchine": ["khintchine", "--Q", "300", "--samples", "500", "--seed", "5"],
}


@pytest.mark.parametrize("name", sorted(TRANSLATE_COMMANDS))
def test_both_spellings_of_a_translate_give_the_same_bytes(tmp_path, name):
    # `+0.3` and `*dirac:0.3` are one measure: the same rows, and the same
    # JSON keys (the config echoes the literal as it was spelled)
    argv = TRANSLATE_COMMANDS[name]
    plus_csv, plus_json = _command_outputs(tmp_path, [*argv, "--measure", "cantor:3:0,2+0.3"])
    conv_csv, conv_json = _command_outputs(tmp_path, [*argv, "--measure", "cantor:3:0,2*dirac:0.3"])
    assert plus_csv == conv_csv
    plus, conv = json.loads(plus_json), json.loads(conv_json)
    assert set(plus) == set(conv) and set(plus["config"]) == set(conv["config"])
    if name.startswith("dim"):  # a translate keeps the dimensions of its leaf
        assert conv["config"]["hausdorff_dimension"] == math.log(2) / math.log(3)
        assert "cvy_lower_bound" in conv["config"]


def test_cli_equidist_lebesgue_classical_rate(capsys):
    code, out, err = run_cli(
        capsys, "equidist", "--measure", "leb", "--test", "eisenstein:t=1",
        "--ygrid", "0.25:0.5:11", "--method", "cylinder", "--tol", "1e-8",
    )
    assert code == 0
    summary = json.loads(err.strip().splitlines()[-1])
    assert abs(summary["exponent"] - 0.5) < 0.05
    assert summary["status"] == "ok"


def test_cli_equidist_inconclusive_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "equidist", "--measure", "dirac:0", "--test", "bump:y0=1,y1=2",
        "--ygrid", "0.25:0.5:8", "--method", "cylinder", "--budget", "2000",
    )
    assert code == 2
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["status"] == "inconclusive"


def test_cli_stationary_superpolynomial_exits_0(capsys):
    # a linear phase has no stationary point: decay faster than any power is
    # a conclusive result, not an inconclusive fit
    code, out, err = run_cli(capsys, "stationary", "--phase", "poly:0,1", "--xigrid", "10:1000:8")
    assert code == 0
    assert json.loads(err.strip().splitlines()[-1])["status"] == "superpolynomial"


def test_cli_reduction_that_does_not_converge_exits_1(monkeypatch, capsys):
    from horolab import modular

    monkeypatch.setattr(modular, "MAX_REDUCE_STEPS", 1)
    code, out, err = run_cli(
        capsys, "equidist", "--measure", "leb", "--ygrid", "0.25:0.5:4", "--budget", "2000",
    )
    assert code == 1 and out == ""
    assert err == "horolab: error: no convergence after 1 steps\n"


def test_cli_byte_identical_reruns(tmp_path, capsys):
    args = (
        "equidist", "--measure", "cantor:3:0,2", "--test", "eisenstein:t=1",
        "--ygrid", "0.25:0.5:5", "--budget", "20000", "--seed", "5",
    )
    outputs = []
    for run in (1, 2):
        out_file = tmp_path / f"run{run}.csv"
        json_file = tmp_path / f"run{run}.json"
        code = cli_main([*args, "--out", str(out_file), "--json-out", str(json_file)])
        assert code in (0, 2)  # byte identity is the claim, not fit quality
        outputs.append((out_file.read_bytes(), json_file.read_bytes()))
    assert outputs[0] == outputs[1]


SMALL_RUNS = {
    "fourier": ("--measure", "cantor:3:0,2", "--xi", "0:20:0.5"),
    "dim": ("--measure", "cantor:3:0,2", "--xmax", "10000", "--star", "--theta-grid", "4"),
    "equidist": (
        "--measure", "cantor:450:0..446", "--ygrid", "0.25:0.5:5", "--budget", "5000",
    ),
    "basis-check": (
        "--measure", "cantor:3:0,2", "--q", "2", "--x0", "0.25", "--ygrid", "0.2:0.5:3",
        "--method", "montecarlo", "--budget", "5000",
    ),
    "spectral-gap": ("--t", "1", "--ygrid", "0.125:0.5:4"),
    "khintchine": ("--measure", "cantor:3:0,2", "--Q", "50", "--samples", "1000"),
    "stationary": ("--phase", "poly:0,0,1", "--xigrid", "10:1000:6"),
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_cli_every_subcommand_reruns_byte_identical(command, tmp_path, capsys):
    outputs = []
    for run in (1, 2):
        out_file, json_file = tmp_path / f"{run}.csv", tmp_path / f"{run}.json"
        code = cli_main(
            [command, *SMALL_RUNS[command], "--seed", "7",
             "--out", str(out_file), "--json-out", str(json_file)]
        )
        assert code in (0, 2)  # byte identity is the claim, not fit quality
        outputs.append((out_file.read_bytes(), json_file.read_bytes()))
    assert outputs[0] == outputs[1]
    csv_bytes, json_bytes = outputs[0]
    assert csv_bytes.count(b"\r\n") >= 4 and csv_bytes.endswith(b"\r\n")
    assert json.loads(json_bytes)["command"] == command


def test_cli_dim_rejects_empty_theta_grid(capsys):
    code, _, err = run_cli(
        capsys, "dim", "--measure", "cantor:3:0,2", "--xmax", "10000", "--star",
        "--theta-grid", "0",
    )
    assert code == 1
    assert "theta_grid" in err


def test_cli_ygrid_count_reads_as_a_whole_real(capsys):
    # a count is read as a real and must be whole: 1e1 is the count 10
    code, out, err = run_cli(capsys, "spectral-gap", "--ygrid", "0.25:0.5:1e1")
    ten = run_cli(capsys, "spectral-gap", "--ygrid", "0.25:0.5:10")
    assert code == 0 and (code, out) == ten[:2]
    assert err.replace("0.25:0.5:1e1", "0.25:0.5:10") == ten[2]  # the JSON echoes the flag as spelled


def test_cli_spectral_gap_csv_shape(tmp_path, capsys):
    out_file = tmp_path / "gap.csv"
    code, out, _ = run_cli(
        capsys, "spectral-gap", "--t", "1", "--ygrid", "0.125:0.5:6",
        "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("y,sup_abs_coeff")
    assert len(text.strip().splitlines()) == 7


def test_cli_khintchine_summary(capsys):
    code, out, err = run_cli(
        capsys, "khintchine", "--measure", "leb", "--psi", "pow:1",
        "--Q", "2000", "--samples", "1000", "--seed", "9",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,hit_rate,two_psi"
    summary = json.loads(err.strip().splitlines()[-1])
    assert abs(summary["config"]["count_ratio"] - 1.0) < 0.1
    assert summary["config"]["regime"] == "divergent-like"


def test_cli_khintchine_rate_qmax_sets_the_rows(capsys):
    argv = ("khintchine", "--measure", "leb", "--Q", "50", "--samples", "20")
    code, out, err = run_cli(capsys, *argv, "--rate-qmax", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(2, 51))
    assert json.loads(err.strip().splitlines()[-1])["config"]["rate_qmax"] == 50
    code, out, err = run_cli(capsys, *argv, "--rate-qmax", "1")
    assert (code, out) == (1, "")
    assert err == "horolab: error: rate_q_max must lie in [2, Q = 50], got 1\n"


def test_cli_khintchine_refuses_unresolvable_shift(capsys):
    # every sample rounds to 1e300, so unchecked every q "hits": mean count 19, divergent-like
    code, out, err = run_cli(
        capsys, "khintchine", "--measure", "leb+1e300", "--psi", "pow:1",
        "--Q", "20", "--samples", "100",
    )
    assert code == 1 and out == ""
    assert "R = 1e+300" in err and "Q = 20" in err and "psi(Q) / 2 = 0.025" in err


def test_cli_stationary_quadratic(tmp_path, capsys):
    out_file = tmp_path / "st.csv"
    code, out, _ = run_cli(
        capsys, "stationary", "--phase", "poly:0,0,1", "--window", "coswin:0,1",
        "--xigrid", "10:10000:16", "--tol", "1e-9", "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(out)
    assert abs(summary["exponent"] - 0.5) < 0.05
    header = out_file.read_text().splitlines()[0]
    assert header == "xi,re,im,abs,leading_abs"


@pytest.mark.parametrize("xigrid", ["1.1:110:6", "0.07:7:6"])
def test_cli_stationary_accepts_exact_two_decades(xigrid, tmp_path, capsys):
    # stop is 100 * start in decimal, a hair below it in floats
    out_file = tmp_path / "st.csv"
    code, _, _ = run_cli(
        capsys, "stationary", "--phase", "poly:0,0,1", "--xigrid", xigrid, "--out", str(out_file),
    )
    assert code == 0
    assert len(out_file.read_text().splitlines()) == 7


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("fourier", "--measure", "gauss:3", "--xi", "0:1:1"), "<atom>"),
        (("fourier", "--measure", "cantor:3:0,9", "--xi", "0:1:1"), "<atom>"),
        (("equidist", "--measure", "leb", "--test", "step:1"), "<test>"),
        (("stationary", "--phase", "poly:3"), "<phase>"),
        (("khintchine", "--measure", "leb", "--psi", "exp:2"), "<psi>"),
        (("fourier", "--measure", "leb", "--xi", "0-1-1"), "<xi-range>"),
        (("stationary", "--phase", "poly:0,0,1", "--xigrid", "10:10000:6.5"),
         "literal, production <xi-grid>: count must be a whole number in [1, MAX_GRID_POINTS = 8388608], got 6.5"),
        (("stationary", "--phase", "poly:0,0,1", "--xigrid", "10:10000"),
         "literal, production <xi-grid>: expected <start>:<stop>:<count>, got '10:10000'"),
        (("spectral-gap", "--ygrid", "0.125:0.5:ten"), "literal, production <ygrid>: bad number 'ten'"),
        (("stationary", "--phase", "poly:0,0,1", "--xigrid", "10:2000000:6"),
         "horolab: error: literal, production <xi-grid>: |xi| = 2000000.0 beyond"),
        (("stationary", "--phase", "poly:0,0,nan"), "<phase>"),
        (("stationary", "--phase", "poly:0,0,1", "--window", "coswin:0,nan"), "<window>"),
        (("stationary", "--phase", "poly:0,0,1", "--xigrid", "10:999:6"),
         "<xi-grid>: xi from 10.0 to 999.0 spans under two decades"),
        (("stationary", "--phase", "poly:0,0,1", "--tol", "nan"),
         "horolab: error: tol must be positive and finite"),
        (("stationary", "--phase", "poly:0,0,1", "--xigrid", "1:100:6", "--tol", "1e-300"),
         "horolab: error: --tol: panel refinement did not reach tol 1e-300"),
        (("fourier", "--measure", "leb", "--xi", "0:2:1", "--tail-tol", "0"),
         "horolab: error: tail_tol must be positive and finite, got 0.0"),
        (("fourier", "--measure", "cantor:3:0,2", "--xi", "0:2:1", "--tail-tol", "-1"),
         "horolab: error: tail_tol must be positive and finite, got -1.0"),
        (("equidist", "--measure", "leb", "--test", "eisenstein:t=5,t=1", "--ygrid", "0.25:0.5:4"),
         "horolab: error: literal, production <test:eisenstein>: repeated key 't'"),
        (("equidist", "--measure", "leb", "--test", "bump:y0=1,y1=2,y0=1.5", "--ygrid", "0.25:0.5:4"),
         "horolab: error: literal, production <test:bump>: repeated key 'y0'"),
        (("equidist", "--measure", "leb", "--test", "bump:y0=2,y1=1", "--ygrid", "0.25:0.5:4"),
         "horolab: error: literal, production <test:bump>: require 0 < y0 < y1"),
        (("equidist", "--measure", "leb", "--test", "indicator:ygt=-1", "--ygrid", "0.25:0.5:4"),
         "horolab: error: literal, production <test:indicator>: require c > 0"),
        (("equidist", "--measure", "leb", "--test", "eisenstein:t=0", "--ygrid", "0.25:0.5:4"),
         "horolab: error: literal, production <test:eisenstein>: spectral parameter t must satisfy 5e-07 <= t <= 30, got 0.0"),
        # t past MAX_BESSEL_ORDER, or near zeta's pole at s = 1, is refused by EisensteinParams itself
        (("equidist", "--measure", "leb", "--test", "eisenstein:t=-1", "--ygrid", "0.25:0.5:4"),
         "horolab: error: literal, production <test:eisenstein>: spectral parameter t must satisfy 5e-07 <= t <= 30, got -1.0"),
        (("equidist", "--measure", "leb", "--test", "eisenstein:t=30.5", "--ygrid", "0.25:0.5:4"),
         "horolab: error: literal, production <test:eisenstein>: spectral parameter t must satisfy 5e-07 <= t <= 30, got 30.5"),
        (("equidist", "--measure", "leb", "--test", "eisenstein:t=31.5", "--ygrid", "0.25:0.5:4"),
         "horolab: error: literal, production <test:eisenstein>: spectral parameter t must satisfy 5e-07 <= t <= 30, got 31.5"),
        (("spectral-gap", "--t", "1e-300"), "horolab: error: spectral parameter t must satisfy 5e-07 <= t <= 30, got 1e-300"),
        (("equidist", "--measure", "leb", "--q", "0", "--ygrid", "0.25:0.5:4"), "horolab: error: require q >= 1"),
        (("basis-check", "--measure", "leb", "--q", "0", "--ygrid", "0.25:0.5:4"), "horolab: error: require q >= 1"),
        (("fourier", "--measure", "leb", "--xi", "0:1:0"),
         "horolab: error: literal, production <xi-range>: step must be positive"),
        (("dim", "--measure", "leb", "--xmax", "5000"), "horolab: error: --xmax must be at least 10^4"),
        (("stationary", "--phase", "poly:0,0,1", "--xigrid", "0:100:8"),
         "horolab: error: literal, production <xi-grid>: start must be positive, got 0.0"),
        (("fourier", "--measure", "leb", "--xi", "0:1:1", "--config"), "horolab: error: --config needs a file path"),
        (("basis-check", "--measure", "leb", "--test", "bump:y0=1,y1=2", "--ygrid", "0.25:0.5:4"),
         "horolab: error: basis identity check requires an eisenstein test function"),
        (("spectral-gap", "--ygrid", "0.125:0.5:3"), "horolab: error: y_grid needs at least 4 points"),
        (("spectral-gap", "--ygrid", "0.125:0.9:8"), "horolab: error: y_grid must span at least 3 dyadic decades"),
        (("fourier", "--measure", "cantor:3:0,2", "--xi", "5:0:1"),
         "horolab: error: literal, production <xi-range>: stop must be >= start"),
        # numbers in <psi> and <window> are read by parse_real, as in every other literal
        (("khintchine", "--measure", "leb", "--psi", "pow:abc", "--Q", "20"),
         "horolab: error: literal, production <psi>: bad number 'abc'"),
        (("khintchine", "--measure", "leb", "--psi", "const:", "--Q", "20"),
         "horolab: error: literal, production <psi>: bad number ''"),
        (("stationary", "--phase", "poly:0,0,1", "--window", "coswin:a,1"),
         "horolab: error: literal, production <window>: bad number 'a'"),
        (("stationary", "--phase", "poly:0,0,1", "--window", "bumpwin:0,"),
         "horolab: error: literal, production <window>: bad number ''"),
        # a bare name takes no body, a name with a body needs one, a fixed
        # count of numbers takes no more and no fewer
        (("fourier", "--measure", "leb:1", "--xi", "0:2:1"), "literal, production <atom>:"),
        (("fourier", "--measure", "dirac:", "--xi", "0:2:1"), "literal, production <atom>:"),
        (("fourier", "--measure", "dirac:1,2", "--xi", "0:2:1"), "literal, production <atom>:"),
        (("khintchine", "--measure", "leb", "--psi", "qlogq:1", "--Q", "20"), "literal, production <psi>:"),
        (("khintchine", "--measure", "leb", "--psi", "pow", "--Q", "20"), "literal, production <psi>:"),
        (("equidist", "--measure", "leb", "--test", "const", "--ygrid", "0.25:0.5:4"),
         "literal, production <test>:"),
        (("equidist", "--measure", "leb", "--test", "const:1,2", "--ygrid", "0.25:0.5:4"),
         "literal, production <test:const>:"),
        (("equidist", "--measure", "leb", "--test", "eisenstein:t=1,", "--ygrid", "0.25:0.5:4"),
         "literal, production <test:eisenstein>: expected key=value, got ''"),
        (("stationary", "--phase", "poly:0,0,1", "--window", "coswin:0"), "literal, production <window>:"),
        (("stationary", "--phase", "poly:0,0,1", "--window", "coswin:0,1,2"), "literal, production <window>:"),
        (("stationary", "--phase", "poly:"), "literal, production <phase>:"),
        (("stationary", "--phase", "poly:0,0,1,"), "literal, production <phase>:"),
        # each grid field is checked before numpy builds the grid
        (("stationary", "--phase", "poly:0,0,1", "--xigrid", "10:-1000:6"),
         "horolab: error: literal, production <xi-grid>: stop must be positive, got -1000.0"),
        (("stationary", "--phase", "poly:0,0,1", "--xigrid", "10:0:6"),
         "horolab: error: literal, production <xi-grid>: stop must be positive, got 0.0"),
        (("stationary", "--phase", "poly:0,0,1", "--xigrid", "10:10000:0"),
         "horolab: error: literal, production <xi-grid>: count must be a whole number in [1, MAX_GRID_POINTS"),
        (("fourier", "--measure", "leb", "--xi", "0:1"),
         "horolab: error: literal, production <xi-range>: expected <start>:<stop>:<step>, got '0:1'"),
    ],
)
def test_cli_malformed_literals_name_production(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert needle in err
    assert err.count("\n") == 1  # one line: no usage line, no numpy warning


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("fourier", "--measure", "dirac:nan", "--xi", "0:2:1"), "<atom>"),
        (("fourier", "--measure", "leb+nan", "--xi", "0:2:1"), "<shift>"),
        (("khintchine", "--measure", "leb", "--psi", "pow:nan", "--Q", "20"), "<psi>"),
        (("khintchine", "--measure", "leb", "--psi", "const:nan", "--Q", "20"), "<psi>"),
        (("spectral-gap", "--t", "nan"), "spectral parameter t"),
        (("equidist", "--measure", "leb", "--test", "eisenstein:t=nan", "--ygrid", "0.25:0.5:4"),
         "<test:eisenstein>"),
        (("equidist", "--measure", "leb", "--test", "const:inf", "--ygrid", "0.25:0.5:4"),
         "<test:const>"),
        (("equidist", "--measure", "leb", "--x0", "nan", "--ygrid", "0.25:0.5:4"), "x0"),
        (("stationary", "--phase", "poly:0,0,1", "--window", "coswin:8.9e307,1"),
         "window support [8.9e+307, 8.9e+307]"),
        (("fourier", "--measure", "leb", "--xi", "0:1:nan"), "literal, production <xi-range>: bad number 'nan'"),
        (("fourier", "--measure", "leb", "--xi", "0:inf:1"), "literal, production <xi-range>: bad number 'inf'"),
        (("fourier", "--measure", "leb", "--xi", "0:2:1", "--tail-tol", "nan"),
         "tail_tol must be positive and finite, got nan"),
        (("fourier", "--measure", "dirac:0.3", "--xi", "0:2:1", "--tail-tol", "inf"),
         "tail_tol must be positive and finite, got inf"),
        (("fourier", "--measure", "cantor:3:0,2", "--xi", "0:2:1", "--tail-tol", "1e-310"),
         "horolab: error: 4 pi^2 Var(D) max(|xi|, 1)^2 / ((b^2 - 1) tail_tol) is not finite"),
        # each sum of 1e308 overflows: the first height's row is refused, not printed
        (("equidist", "--measure", "leb", "--test", "const:1e308", "--ygrid", "0.25:0.5:4", "--budget", "2000"),
         "horolab: error: mu_y at y = 0.25 is not finite: value inf, error inf"),
        (("equidist", "--measure", "leb", "--test", "const:1e308", "--ygrid", "0.25:0.5:4", "--budget", "2000",
          "--method", "cylinder"),
         "horolab: error: mu_y at y = 0.25 is not finite: value 1e+308, error inf"),
    ],
)
def test_cli_non_finite_inputs_exit_1(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert needle in err
    assert "nan" not in out.lower() and "inf" not in out.lower()


def test_cli_refuses_an_overflowing_mean_with_one_stderr_line(capsys):
    # the sums of 1e308 in the mean and the stderr overflow, and so does the
    # cylinder's half-resolution mean; that used to print RuntimeWarnings
    # before the refusal
    for method, value in (("montecarlo", "inf"), ("cylinder", "1e+308")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "equidist", "--measure", "leb", "--test", "const:1e308", "--ygrid", "0.25:0.5:4",
                "--budget", "2000", "--method", method,
            )
        assert (code, out) == (1, "")
        assert err == f"horolab: error: mu_y at y = 0.25 is not finite: value {value}, error inf\n"


@pytest.mark.parametrize(
    "window, needle",
    [
        ("coswin:1e150,1", "window support [1e+150, 1e+150] does not resolve the radius"),
        ("coswin:1e12,1", "does not resolve the radius"),
        ("coswin:0,1e6", "horolab: error: xi = 10.0 on window support [-1000000.0, 1000000.0] needs"),
    ],
)
def test_cli_stationary_refuses_unresolved_or_unaffordable_windows(capsys, window, needle):
    code, out, err = run_cli(
        capsys, "stationary", "--phase", "poly:0,0,1", "--window", window,
        "--xigrid", "10:1000:6",
    )
    assert code == 1
    assert err.startswith("horolab: error:") and needle in err
    assert out == ""


def test_cli_stationary_names_tol_only_when_tol_can_cure(capsys, monkeypatch):
    # the panel budget refuses whatever --tol says: no --tol: prefix
    code, _, err = run_cli(
        capsys, "stationary", "--phase", "poly:0,0,1", "--window", "coswin:0,1e6",
        "--xigrid", "10:1000:6",
    )
    assert code == 1 and "over the budget" in err and "--tol:" not in err
    # so does |xi| beyond MAX_XI, here past a grid check that is patched out;
    # every xi lies past it, so none is integrated before the refusal
    from horolab import cli

    monkeypatch.setattr(cli, "check_xi_grid", lambda grid: grid[::-1] * 1e6)  # largest xi first
    code, _, err = run_cli(capsys, "stationary", "--phase", "poly:0,0,1", "--xigrid", "10:1000:6")
    assert code == 1 and "beyond the maximum" in err and "--tol:" not in err
    # a refinement that does not settle is a --tol problem
    monkeypatch.undo()
    code, _, err = run_cli(
        capsys, "stationary", "--phase", "poly:0,0,1", "--xigrid", "1:100:6", "--tol", "1e-300",
    )
    assert code == 1 and err.startswith("horolab: error: --tol: panel refinement did not reach tol 1e-300")
    assert " at xi = 1.0; its rounding floor eps*|sum| is " in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "ygrid, needle",
    [
        ("0.125:0:10", "y_ratio must lie in (0, 1)"),
        ("0.125:-0.5:10", "y_ratio must lie in (0, 1)"),
        ("0.125:2:10", "y_ratio must lie in (0, 1)"),
        ("2:0.5:10", "y_max must lie in (0, 1]"),
        ("0.125:0.5:0", "y_count must be positive"),
        ("0.25:0.5:2.5", "y_count must be positive and whole, got 2.5"),
        ("0.25:0.5:ten", "bad number 'ten'"),
        ("0.25:0.5", "expected <ymax>:<ratio>:<count>, got '0.25:0.5'"),
    ],
)
@pytest.mark.parametrize("command", ["spectral-gap", "equidist", "basis-check"])
def test_cli_ygrid_rule_is_shared(capsys, command, ygrid, needle):
    extra = () if command == "spectral-gap" else ("--measure", "leb")
    code, out, err = run_cli(capsys, command, *extra, "--ygrid", ygrid)
    assert code == 1
    assert err.startswith(f"horolab: error: literal, production <ygrid>: {needle}") and err.count("\n") == 1
    assert out == ""


def reached(*args, **kwargs):
    raise AssertionError("an allocator past the refusal was reached")


@pytest.mark.parametrize("ygrid", ["0.25:0.5:24", "0.25:0.5:40"])
def test_cli_basis_check_refuses_a_series_over_budget(monkeypatch, capsys, ygrid):
    # 0.25:0.5:24 would need 2.5e8 lambda entries, 0.25:0.5:40 1.6e13; the
    # refusal names the first height over MAX_GRID_POINTS and comes before
    # the lambda table, mu_hat and the cylinder pass
    from horolab import automorphic, experiments

    monkeypatch.setattr(automorphic, "hecke_range", reached)
    monkeypatch.setattr(automorphic, "fourier_transform", reached)
    monkeypatch.setattr(experiments, "mu_y_value", reached)
    code, out, err = run_cli(capsys, "basis-check", "--measure", "leb", "--ygrid", ygrid)
    y = 0.25 * 0.5**19  # 46 / (2 pi y) first exceeds 2**23 here
    assert 46 / (2 * math.pi * y) > MAX_GRID_POINTS > 46 / (4 * math.pi * y)
    assert code == 1 and out == ""
    assert f"horolab: error: height y = {y:g} needs" in err
    assert "over the budget of MAX_GRID_POINTS = 8388608" in err


def test_cli_spectral_gap_refuses_an_fft_over_budget(monkeypatch, capsys):
    # 0.125:0.5:25 would need a 2**29-point FFT at its last height
    from horolab import automorphic

    monkeypatch.setattr(automorphic, "reduce_many", reached)
    monkeypatch.setattr(np.fft, "fft", reached)
    code, out, err = run_cli(capsys, "spectral-gap", "--ygrid", "0.125:0.5:25")
    assert code == 1 and out == ""
    assert f"horolab: error: height y = {0.125 * 0.5**24:g} needs over MAX_FFT_POINTS" in err


@pytest.mark.parametrize(
    "argv, prefix",
    [
        # estimate_dim_l1 refuses the last X of the grid, --xmax itself
        (("dim", "--measure", "leb", "--xmax", "1000000000000"), "X must be at most MAX_GRID_POINTS = 8388608"),
        (("fourier", "--measure", "leb", "--xi", "0:1e12:1"), "literal, production <xi-range>: more than MAX_GRID_POINTS"),
    ],
)
def test_cli_refuses_a_grid_over_max_grid_points(monkeypatch, capsys, argv, prefix):
    # each grid would ask np.arange for 10^12 entries (8 TB)
    from horolab import measures

    assert measures.MAX_GRID_POINTS > 10**6  # the README's and line_analysis's dim grid
    monkeypatch.setattr(np, "arange", reached)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"horolab: error: {prefix}") and "MAX_GRID_POINTS" in err


@pytest.mark.parametrize(
    "flags, allocator",
    [
        # map_in_order lists its items first: 10^9 shifts are 5 * 10^8 pairs
        (("--star", "--theta-grid", "1000000000"), "horolab.measures.map_in_order"),
        (("--points", "1000000000"), "numpy.geomspace"),  # 8 GB of X
    ],
)
def test_cli_dim_refuses_counts_over_max_grid_points(monkeypatch, capsys, flags, allocator):
    from horolab import measures

    monkeypatch.setattr(allocator, reached)
    code, out, err = run_cli(capsys, "dim", "--measure", "cantor:3:0,2", "--xmax", "10000", *flags)
    assert code == 1 and out == ""
    assert err.startswith("horolab: error: ") and f"MAX_GRID_POINTS = {measures.MAX_GRID_POINTS}" in err


# entries each allocator is asked for, from its positional arguments
ENTRIES = {
    "arange": lambda *args: max(args),
    "geomspace": lambda start, stop, num=50, *rest: num,
    "zeros": lambda shape, *rest: math.prod(shape if isinstance(shape, tuple) else (shape,)),
    "empty": lambda shape, *rest: math.prod(shape if isinstance(shape, tuple) else (shape,)),
}


@pytest.mark.parametrize(
    "argv, allocator",
    [
        (("equidist", "--measure", "leb", "--ygrid", "0.25:0.5:1000000000000"), "arange"),
        (("spectral-gap", "--ygrid", "0.125:0.5:1000000000000"), "arange"),
        (("stationary", "--phase", "poly:0,0,1", "--xigrid", "10:10000:1000000000000"), "geomspace"),
        (("khintchine", "--measure", "leb", "--psi", "const:0.4", "--Q", "1000000000000"), "arange"),
        (("khintchine", "--measure", "cantor:3:0,2", "--samples", "1000000000000"), "zeros"),
        # Monte-Carlo values of every point, and cylinder nodes up to the budget
        (("equidist", "--measure", "leb", "--ygrid", "0.25:0.5:2", "--budget", "10000000000"), "empty"),
        (("equidist", "--measure", "cantor:3:0,2", "--ygrid", "0.25:0.5:2", "--method", "cylinder",
          "--tol", "1e-12", "--budget", "10000000000"), "zeros"),
    ],
)
def test_cli_refuses_counts_over_max_grid_points_before_allocating(monkeypatch, capsys, argv, allocator):
    # each count would ask numpy for 10^10 entries or more (80 GB); the
    # guard lets the small allocations before the refusal through
    from horolab.fitting import MAX_GRID_POINTS

    real = getattr(np, allocator)

    def guarded(*args, **kwargs):
        if ENTRIES[allocator](*args) > 10**8:
            raise AssertionError(f"np.{allocator} was asked for over 10^8 entries")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, allocator, guarded)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("horolab: error: ") and f"MAX_GRID_POINTS = {MAX_GRID_POINTS}" in err


def test_cli_equidist_reads_a_closed_form_mean_without_reference_draws(capsys):
    # indicator:ygt=2 has the mean 3/(2 pi)
    from horolab.measures import parse_measure
    from horolab.modular import mu_y_value
    from horolab.testfunctions import IndicatorTest

    code, out, _ = run_cli(
        capsys, "equidist", "--measure", "leb", "--test", "indicator:ygt=2",
        "--method", "cylinder", "--ygrid", "0.25:0.5:4",
    )
    assert code in (0, 2)
    first = out.strip().split("\r\n")[1].split(",")
    value, _ = mu_y_value(parse_measure("leb"), IndicatorTest(2.0), 0.25, method="cylinder", budget=10**6)
    assert float(first[1]) == abs(value - 3 / (2 * math.pi))


def test_cli_equidist_refuses_a_budget_before_the_reference_draws(capsys):
    from horolab.fitting import MAX_GRID_POINTS

    for budget in ("0", "10000000000"):
        code, out, err = run_cli(
            capsys, "equidist", "--measure", "leb", "--test", "bump:y0=1,y1=2",
            "--ygrid", "0.25:0.5:2", "--budget", budget,
        )
        assert code == 1 and out == ""
        assert err == f"horolab: error: budget must lie in [1, MAX_GRID_POINTS = {MAX_GRID_POINTS}], got {budget}\n"


def test_cli_equidist_subtracts_the_exact_mean_of_a_bump_no_sample_reaches(capsys):
    # the support (1, 1 + 1e-10) has m_X = 5.76e-11: no point lands in it, so
    # every row is exactly that mean with bar 0, and the decay is inconclusive
    from horolab.testfunctions import BumpTest

    code, out, err = run_cli(
        capsys, "equidist", "--measure", "cantor:3:0,2", "--test", "bump:y0=1,y1=1.0000000001",
        "--ygrid", "0.25:0.5:4", "--budget", "2000",
    )
    assert code == 2 and json.loads(err.strip().splitlines()[-1])["status"] == "inconclusive"
    mean = BumpTest(1.0, 1.0000000001).mean
    assert mean == pytest.approx(5.7625e-11, rel=1e-4)
    assert [line.split(",")[1:3] for line in out.strip().split("\r\n")[1:]] == [[repr(mean), "0.0"]] * 4


def test_bump_sweep_holds_no_more_memory_than_a_closed_form_one():
    # m_X of a bump is a quadrature on 1024 nodes a piece, not a draw of 10 budget points
    import tracemalloc

    def peak(test):
        cfg = ExperimentConfig(measure="cantor:3:0,2", test=test, y_count=4, budget=10**5, seed=1)
        tracemalloc.start()
        try:
            run_equidistribution(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("bump:y0=1.5,y1=3")  # first-call allocations are not counted
    bump, indicator = peak("bump:y0=1.5,y1=3"), peak("indicator:ygt=2")
    assert abs(bump - indicator) <= 0.1 * indicator


def test_cli_stationary_sweep_certifies_its_phase_once(monkeypatch, tmp_path, capsys):
    from horolab import oscillatory

    calls = []
    real = oscillatory._squarefree
    monkeypatch.setattr(oscillatory, "_squarefree", lambda p: calls.append(len(p)) or real(p))
    code, _, _ = run_cli(
        capsys, "stationary", "--phase", "poly:0.1,0.3,-0.7,0.2,0.11,-0.05",
        "--xigrid", "10:1000:8", "--out", str(tmp_path / "st.csv"),
    )
    assert code == 0
    assert calls == [5]  # f' of the quintic, over 8 integrals and 8 leading terms


def test_cli_json_is_strict():
    from horolab import cli

    args = cli.build_parser().parse_args(["spectral-gap"])
    with pytest.raises(ValueError):
        cli._emit(args, "y\r\n", {"exponent": float("nan")})


def test_cli_config_file_matches_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "measure=cantor:3:0,2\n"
        "xi=0:3:1\n"
        "# comment line\n"
        "tail-tol=1e-12\n"
    )
    code1, out1, _ = run_cli(capsys, "fourier", "--config", str(cfg))
    code2, out2, _ = run_cli(
        capsys, "fourier", "--measure", "cantor:3:0,2", "--xi", "0:3:1"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_config_is_read_in_every_spelling_argparse_takes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("measure=cantor:3:0,2\nxi=0:3:1\n")
    outputs = [
        run_cli(capsys, "fourier", *spelling)
        for spelling in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)])
    ]
    assert outputs[0][0] == 0 and outputs[0][1].startswith("xi,re,im,abs")
    assert outputs == [outputs[0]] * 3  # the same CSV and JSON bytes
    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli(capsys, "fourier", "--measure", "leb", "--xi", "0:1:1", f"--config={missing}")
    assert (code, out) == (1, "") and err.startswith("horolab: error: [Errno 2] No such file")


def test_cli_config_line_without_equals_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("measure=leb\n# comment\nxi 0:1:1\n")
    code, out, err = run_cli(capsys, "fourier", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"horolab: error: {cfg}:3: expected key=value, got 'xi 0:1:1'\n"


def test_cli_config_value_may_begin_with_a_dash(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("measure = cantor:3:0,2\nxi = -1:1:0.5\n")
    code1, out1, err1 = run_cli(capsys, "fourier", "--config", str(cfg))
    code2, out2, err2 = run_cli(capsys, "fourier", "--measure", "cantor:3:0,2", "--xi=-1:1:0.5")
    assert code1 == code2 == 0
    assert (out1, err1) == (out2, err2) and len(out1.splitlines()) == 6


def test_cli_usage_errors_exit_1_and_help_exits_0(capsys):
    # argparse's own exit code 2 is the code of an inconclusive fit
    for argv, needle in (
        (("fourier", "--measure", "leb"), "the following arguments are required: --xi"),
        (("dim", "--measure", "leb", "--xmax", "ten"), "argument --xmax: invalid int value: 'ten'"),
        (("nosuch",), "argument command: invalid choice: 'nosuch'"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage: horolab") and f"horolab: error: {needle}" in err
    with pytest.raises(SystemExit) as exc:
        cli_main(["fourier", "-h"])
    assert exc.value.code == 0 and "--tail-tol" in capsys.readouterr().out


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("measure=leb\nxi=0:2:1\n")
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)]):
        code, out, _ = run_cli(capsys, "fourier", *spelling, "--measure", "dirac:0.5")
        assert code == 0
        row = out.strip().splitlines()[2].split(",")  # xi = 1 row: |dirac hat| = 1
        assert float(row[3]) == pytest.approx(1.0)


def test_cli_star_takes_an_optional_true_or_false(capsys):
    dim = ("dim", "--measure", "cantor:3:0,2", "--xmax", "10000", "--theta-grid", "4")
    assert run_cli(capsys, *dim, "--star") == run_cli(capsys, *dim, "--star=true")
    assert run_cli(capsys, *dim) == run_cli(capsys, *dim, "--star=false")
    code, out, err = run_cli(capsys, *dim, "--star=maybe")
    assert code == 1 and out == ""
    assert "horolab: error: argument --star: expected true or false, got 'maybe'" in err


def test_cli_config_file_boolean_flags(tmp_path, capsys):
    cfg = tmp_path / "dim.cfg"
    for value, expect in (("true", True), ("false", False)):
        cfg.write_text(f"measure=cantor:3:0,2\nxmax=10000\ntheta-grid=4\nstar={value}\n")
        code, out, err = run_cli(capsys, "dim", "--config", str(cfg))
        assert code == 0
        summary = json.loads(err.strip().splitlines()[-1])  # CSV on stdout, JSON on stderr
        assert summary["config"]["star"] is expect
        assert summary["config"]["theta_grid"] == 4
