"""End-to-end tests of the command-line interface."""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cvcluster.cli
import cvcluster.fock
from cvcluster import UnphysicalStateError
from cvcluster.cli import RunConfig, main
from cvcluster.gaussian import symplectic_eigenvalues
from cvcluster.protocols import PROTOCOL_KINDS

TIMESTAMP_KEY = '"timestamp"'


def run_cli(*argv):
    return main(list(argv))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines() if TIMESTAMP_KEY not in line)


def cli_document(*argv):
    """Run the CLI with the document on stdout; returns the parsed document."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(list(argv))
    return json.loads(buffer.getvalue())


def slow_flags(protocol, beta, r):
    """Per-stage slow-regime flags of a run and the slow flag of a sweep row."""
    point = ("--protocol", protocol, "--beta", repr(beta), "--r", repr(r), "--method", "lyapunov")
    run = cli_document("run", *point)
    (row,) = cli_document("sweep", *point)["rows"]
    return [stage["slow_regime"] for stage in run["stages"]], row["slow_regime"]


# -------------------------------------------------------------------- run


def test_run_linear_exact(tmp_path):
    out = tmp_path / "linear.json"
    code = run_cli(
        "run", "--protocol", "linear", "--r", "0.5", "--method", "lyapunov", "--out", str(out)
    )
    assert code == 0
    doc = load(out)
    assert doc["schema"] == "cvcluster/result"
    assert doc["verdict"]["passed"] is True
    got = np.array(doc["final"]["nullifier_variances"])
    assert np.abs(got - np.array([1 / 3, 0.5, 0.5, 1 / 3])).max() < 1e-8
    assert abs(doc["final"]["ensemble_purity"] - 1.0) < 1e-8
    assert len(doc["final"]["covariance_row_major"]) == 100
    assert len(doc["stages"]) == 4
    assert doc["resolved_config"]["tol"] == 1e-6


def test_run_without_squeezing_fails_verdict(tmp_path):
    out = tmp_path / "r0.json"
    code = run_cli("run", "--protocol", "square", "--r", "0", "--out", str(out))
    assert code == 1
    doc = load(out)
    assert doc["verdict"]["passed"] is False


def test_run_time_domain_tshape(tmp_path):
    out = tmp_path / "t.json"
    code = run_cli(
        "run", "--protocol", "tshape", "--r", "0.5", "--method", "ode",
        "--stage-time", "4", "--tol", "0.05", "--out", str(out),
    )
    assert code == 0
    doc = load(out)
    xi = math.atanh(0.5)
    target = np.array([2.0, 1.0, 1.0, 1.0]) * math.exp(-2 * xi)
    got = np.array(doc["final"]["nullifier_variances"])
    assert np.abs(got - target).max() < 0.05


def test_run_config_errors():
    assert run_cli("run", "--protocol", "linear", "--r", "1.5") == 2
    assert run_cli("run", "--r", "0.5") == 2  # protocol missing
    assert run_cli("run", "--protocol", "linear", "--beta", "-1") == 2


def test_run_config_holds_every_run_default():
    """RunConfig alone defines a run; validate fills in the method's tolerance."""
    defaults = RunConfig("linear").validate()
    assert defaults == RunConfig("linear", 0.5, 2.5, 4.0, "lyapunov", 1e-6, False, 20)
    assert RunConfig("linear", method="ode").validate() == dataclasses.replace(
        defaults, method="ode", tol=0.05
    )


NOT_A_CONFIG = "field 'config': document does not contain a config object"


@pytest.mark.parametrize(
    "document,message",
    [
        pytest.param([1, 2], NOT_A_CONFIG, id="list"),
        pytest.param('"linear"', NOT_A_CONFIG, id="string"),
        pytest.param({"protocol": ["linear"]}, "field 'protocol': must be a string", id="protocol"),
        pytest.param({"method": [1]}, "field 'method': must be a string", id="method"),
        pytest.param({"r": "0.5"}, "field 'r': must be a number", id="r"),
        pytest.param({"beta": True}, "field 'beta': must be a number", id="beta"),
        pytest.param({"stage_time": False}, "field 'stage_time': must be a number", id="stage_time"),
        pytest.param({"tol": "1e-6"}, "field 'tol': must be a number", id="tol"),
        pytest.param({"oracle": "no"}, "field 'oracle': must be a boolean", id="oracle-str"),
        pytest.param({"oracle": 1}, "field 'oracle': must be a boolean", id="oracle-int"),
        pytest.param(
            {"oracle": True, "oracle_cutoff": 6.5, "stage_time": 0.5},
            "field 'oracle_cutoff': must be an integer",
            id="oracle_cutoff-float",
        ),
        pytest.param(
            {"oracle_cutoff": True}, "field 'oracle_cutoff': must be an integer", id="oracle_cutoff-bool"
        ),
    ],
)
def test_config_file_value_types_are_checked(tmp_path, capsys, document, message):
    if isinstance(document, dict):
        document = json.dumps({"protocol": "linear", **document})
    elif not isinstance(document, str):
        document = json.dumps(document)
    config = tmp_path / "config.json"
    config.write_text(document)
    out = tmp_path / "x.json"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("run", "--protocol", "square", "--r", "0.4", "--out", str(path)) == 0
    text_a = strip_timestamp(a.read_text())
    text_b = strip_timestamp(b.read_text())
    assert text_a == text_b


def test_run_round_trips_from_result_document(tmp_path):
    first = tmp_path / "first.json"
    assert run_cli("run", "--protocol", "linear", "--r", "0.45", "--out", str(first)) == 0
    second = tmp_path / "second.json"
    code = run_cli("run", "--config", str(first), "--out", str(second))
    assert code == 0
    doc1, doc2 = load(first), load(second)
    assert doc1["resolved_config"] == doc2["resolved_config"]
    assert doc1["verdict"] == doc2["verdict"]
    assert doc1["final"]["nullifier_variances"] == doc2["final"]["nullifier_variances"]


def test_run_oracle_section(tmp_path):
    out = tmp_path / "oracle.json"
    code = run_cli(
        "run", "--protocol", "linear", "--r", "0.3", "--beta", "1.0",
        "--stage-time", "2", "--method", "ode", "--tol", "0.2",
        "--oracle", "--oracle-cutoff", "12", "--out", str(out),
    )
    assert code == 0
    oracle = load(out)["oracle"]
    assert oracle["max_covariance_gap"] < 1e-3
    assert oracle["trace_error"] < 1e-8


@pytest.mark.parametrize("stage_time,steps,dt", [("4", 16, 0.25), ("0.07", 1, 0.07)])
def test_run_oracle_records_the_steps_taken(stage_time, steps, dt):
    oracle = cli_document(
        "run", "--protocol", "linear", "--r", "0.3", "--beta", "1.0",
        "--stage-time", stage_time, "--method", "ode", "--tol", "0.2",
        "--oracle", "--oracle-cutoff", "12",
    )["oracle"]
    assert (oracle["steps"], oracle["dt"]) == (steps, dt)


def test_run_oracle_leakage_is_physics_error(tmp_path):
    code = run_cli(
        "run", "--protocol", "linear", "--r", "0.8", "--beta", "1.0",
        "--oracle", "--oracle-cutoff", "4", "--out", str(tmp_path / "x.json"),
    )
    assert code == 3


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("cutoff", [cvcluster.cli.ORACLE_CUTOFF_MAX + 1, 120, 10**30])
def test_oracle_cutoff_above_the_cap_is_config_error(tmp_path, capsys, monkeypatch, cutoff, route):
    """The oracle's memory grows as N^4: a cutoff above the cap exits 2 before
    the oracle runs, where 10**30 once ended in a traceback and exit 1."""
    def never(config):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cvcluster.fock, "integrate_two_mode", never)
    out = tmp_path / "x.json"
    if route == "flag":
        argv = ["--protocol", "linear", "--oracle", "--oracle-cutoff", str(cutoff)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"protocol": "linear", "oracle": True, "oracle_cutoff": cutoff}))
        argv = ["--config", str(config)]
    assert run_cli("run", *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"field 'oracle_cutoff': must be at most {cvcluster.cli.ORACLE_CUTOFF_MAX}" in err
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("stage_time", [cvcluster.cli.ORACLE_STAGE_TIME_MAX + 1, 1e300])
def test_oracle_stage_time_above_the_cap_is_config_error(tmp_path, capsys, monkeypatch, stage_time, route):
    """The oracle takes one leakage-guard interval per 0.25 of stage time: a
    stage time above the cap exits 2 before the oracle runs, where 1e300
    once looped over about 4e300 intervals."""
    def never(config):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cvcluster.fock, "integrate_two_mode", never)
    out = tmp_path / "x.json"
    if route == "flag":
        argv = ["--protocol", "linear", "--oracle", "--stage-time", repr(stage_time)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"protocol": "linear", "oracle": True, "stage_time": stage_time}))
        argv = ["--config", str(config)]
    assert run_cli("run", *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"field 'stage_time': must be at most {cvcluster.cli.ORACLE_STAGE_TIME_MAX:g}" in err
    assert not out.exists()


def test_stage_time_cap_holds_for_the_oracle_only():
    cap = cvcluster.cli.ORACLE_STAGE_TIME_MAX
    assert RunConfig("linear", stage_time=cap, oracle=True).validate().stage_time == cap
    assert RunConfig("linear", stage_time=1e6).validate().stage_time == 1e6


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("beta", [cvcluster.cli.ORACLE_BETA_MAX + 1, 1e6])
def test_oracle_beta_above_the_cap_is_config_error(tmp_path, capsys, monkeypatch, beta, route):
    """The oracle's Taylor sub-step count grows linearly with beta: a beta
    above the cap exits 2 before the oracle runs, where 1e6 at one interval
    did not end in 10 s."""
    def never(config):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cvcluster.fock, "integrate_two_mode", never)
    out = tmp_path / "x.json"
    if route == "flag":
        argv = ["--protocol", "linear", "--oracle", "--beta", repr(beta), "--r", "0.1", "--stage-time", "0.25"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"protocol": "linear", "oracle": True, "beta": beta}))
        argv = ["--config", str(config)]
    assert run_cli("run", *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"field 'beta': must be at most {cvcluster.cli.ORACLE_BETA_MAX:g} with the oracle" in err
    assert not out.exists()


def test_beta_cap_holds_for_the_oracle_only(tmp_path):
    cap = cvcluster.cli.ORACLE_BETA_MAX
    assert RunConfig("linear", beta=cap, oracle=True).validate().beta == cap
    out = tmp_path / "x.json"
    code = run_cli("run", "--protocol", "linear", "--beta", "1e6", "--r", "0.1", "--stage-time", "0.25",
                   "--out", str(out))
    assert code == 0 and load(out)["oracle"] is None


def test_long_strongly_squeezed_stage_stays_physical(tmp_path):
    # strong squeezing over a long stage: once the propagator lost digits
    # here and missed the uncertainty bound by 3e-9 (exit 3); squaring the
    # pair (Phi, Q) keeps the final state physical to round-off
    out = tmp_path / "x.json"
    code = run_cli(
        "run", "--protocol", "tshape", "--beta", "10.706661369723824",
        "--r", "0.8960235229181228", "--stage-time", "15.398318506640937",
        "--method", "ode", "--out", str(out),
    )
    assert code == 0
    cov = np.array(load(out)["final"]["covariance_row_major"]).reshape(10, 10)
    assert symplectic_eigenvalues(cov).min() - 0.5 >= -1e-12


def test_unphysical_state_is_physics_error(tmp_path, capsys, monkeypatch):
    def unphysical(*args, **kwargs):
        raise UnphysicalStateError("covariance violates the uncertainty relation")

    monkeypatch.setattr(cvcluster.cli, "run_protocol", unphysical)
    code = run_cli("run", "--protocol", "linear", "--out", str(tmp_path / "x.json"))
    assert code == 3
    assert "physics error" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_overflowing_propagator_is_physics_error(tmp_path, capsys):
    """A finite but huge stage time overflows evolve's squarings: exit 3, not
    a configuration error, and no numpy warning on the way."""
    out = tmp_path / "x.json"
    code = run_cli(
        "run", "--protocol", "linear", "--method", "ode", "--stage-time", "1e300",
        "--out", str(out),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("physics error: propagator for evolution time 1e+300")
    assert not out.exists()


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_run_survives_a_million_kappa_stage_time(kind, tmp_path):
    """The stages run in the combined-mode frame, where the modes a stage
    leaves untouched carry no squaring round-off that could grow."""
    out = tmp_path / "x.json"
    code = run_cli(
        "run", "--protocol", kind, "--method", "ode", "--stage-time", "1e6", "--out", str(out),
    )
    assert code == 0
    assert load(out)["verdict"]["passed"] is True


def test_unphysical_oracle_state_is_physics_error(tmp_path, capsys, monkeypatch):
    def unphysical(config):
        raise UnphysicalStateError("rho has a significantly negative eigenvalue")

    # the CLI imports the oracle when --oracle asks for it, so patch its home
    monkeypatch.setattr(cvcluster.fock, "integrate_two_mode", unphysical)
    code = run_cli(
        "run", "--protocol", "linear", "--method", "ode", "--beta", "1.5", "--r", "0.3",
        "--oracle", "--out", str(tmp_path / "x.json"),
    )
    assert code == 3
    assert "physics error" in capsys.readouterr().err


def test_non_finite_number_is_physics_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cvcluster.cli, "effective_spontaneous_rate", lambda *args: float("nan"))
    out = tmp_path / "x.json"
    code = run_cli(
        "physical", "--gamma-over-2pi", "6e6", "--drive-ratio", "0.005", "--out", str(out)
    )
    assert code == 3
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,field",
    [
        (("run", "--protocol", "linear", "--r", "nan"), "r"),
        (("run", "--protocol", "linear", "--beta", "nan"), "beta"),
        (("run", "--protocol", "linear", "--stage-time", "inf"), "stage_time"),
        (("run", "--protocol", "linear", "--tol", "inf"), "tol"),
        (("sweep", "--protocol", "linear", "--stage-time", "4,inf"), "stage_time"),
        (("physical", "--finesse", "nan", "--round-trip-length", "0.1"), "finesse"),
        (("physical", "--finesse", "1.7e5", "--round-trip-length", "inf"), "round_trip_length"),
        (("physical", "--gamma-over-2pi", "inf", "--drive-ratio", "0.005"), "gamma_over_2pi"),
        (("physical", "--gamma-over-2pi", "6e6", "--drive-ratio", "nan"), "drive_ratio"),
    ],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_non_finite_input_is_config_error(tmp_path, capsys, argv, field):
    out = tmp_path / "x.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert f"field '{field}': must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--protocol", "linear", "--beta", "1e155"),
        ("run", "--protocol", "linear", "--beta", "1e200"),
        ("run", "--protocol", "linear", "--beta", "1e200", "--method", "ode"),
        ("sweep", "--protocol", "linear", "--beta", "1e200"),
    ],
    ids=" ".join,
)
def test_beta_whose_square_overflows_is_config_error(tmp_path, capsys, argv):
    """Was a bare OverflowError traceback, which exits 1 like a failed verdict."""
    out = tmp_path / "x.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: beta = ") and "is too large" in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--protocol", "linear"),
        ("sweep", "--protocol", "linear", "--beta", "2", "--r", "0.3", "--stage-time", "4"),
        ("check-tables",),
        ("physical", "--finesse", "1.7e5", "--round-trip-length", "0.1"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_config_error(tmp_path, capsys, argv, where):
    """Was a FileNotFoundError or IsADirectoryError traceback, which exits 1
    like a failed verdict."""
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"config error: field 'out': cannot write {out}: ")


@pytest.mark.parametrize("r", ["0.9999", "0.999999"])
@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_lyapunov_runs_close_to_r_one_pass(kind, r, tmp_path):
    """The state is checked in the combined-mode frame only.  Checked again
    after the rotation back, whose covariance has condition number e^{4 xi},
    these runs read min nu below 1/2 by up to 1.5e-4 and exited 3.  nu and
    the purity both come from the frame's ensemble block."""
    out = tmp_path / "x.json"
    code = run_cli(
        "run", "--protocol", kind, "--beta", "1", "--r", r, "--method", "lyapunov",
        "--out", str(out),
    )
    assert code == 0
    doc = load(out)
    assert doc["verdict"]["passed"] is True
    nu = np.array(doc["final"]["ensemble_symplectic_eigenvalues"])
    assert np.abs(nu - 0.5).max() <= 1e-14
    assert 1.0 / np.prod(2.0 * nu) == doc["final"]["ensemble_purity"]


# -------------------------------------------------------------------- sweep


def test_sweep_error_decreases_with_stage_time(tmp_path):
    out = tmp_path / "sweep.json"
    code = run_cli(
        "sweep", "--protocol", "linear", "--beta", "2.5", "--r", "0.5",
        "--stage-time", "4,8,12", "--out", str(out),
    )
    assert code == 0
    rows = load(out)["rows"]
    errors = [row["max_abs_error"] for row in rows]
    assert len(errors) == 3
    assert errors[0] > errors[1] > errors[2]
    assert not any(row["slow_regime"] for row in rows)


def test_sweep_single_point_matches_run(tmp_path):
    sweep_out = tmp_path / "sweep.json"
    run_out = tmp_path / "run.json"
    assert run_cli(
        "sweep", "--protocol", "square", "--beta", "2.5", "--r", "0.5",
        "--stage-time", "6", "--method", "ode", "--tol", "0.05", "--out", str(sweep_out),
    ) == 0
    assert run_cli(
        "run", "--protocol", "square", "--beta", "2.5", "--r", "0.5",
        "--stage-time", "6", "--method", "ode", "--tol", "0.05", "--out", str(run_out),
    ) == 0
    row = load(sweep_out)["rows"][0]
    doc = load(run_out)
    variances = np.array(doc["final"]["nullifier_variances"])
    targets = np.array(doc["final"]["analytic_targets"])
    assert row["max_abs_error"] == pytest.approx(np.abs(variances - targets).max(), rel=1e-12)
    assert row["passed"] == doc["verdict"]["passed"]


def test_sweep_flags_slow_regime(tmp_path):
    out = tmp_path / "slow.json"
    code = run_cli(
        "sweep", "--protocol", "linear", "--beta", "0.4", "--r", "0.5",
        "--stage-time", "4", "--out", str(out),
    )
    assert code == 0
    row = load(out)["rows"][0]
    assert row["slow_regime"] is True  # beta sqrt(1 - r^2) = 0.346 < 1/2


def test_slow_regime_flags_agree_at_the_boundary():
    # beta sqrt(1 - r^2) = kappa / 2 to rounding
    flags, row = slow_flags("square", 0.577350269189626, 0.5)
    assert len(set(flags)) == 1
    assert row == any(flags)


@settings(max_examples=40, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOL_KINDS),
    beta=st.floats(0.05, 5.0),
    r=st.floats(0.0, 0.95),
)
def test_slow_regime_flags_follow_the_relaxation_law(protocol, beta, r):
    gap = beta * math.sqrt(1.0 - r**2)
    assume(abs(gap - 0.5) > 1e-9)
    flags, row = slow_flags(protocol, beta, r)
    assert flags == [gap <= 0.5] * 4
    assert row == (gap <= 0.5)


def test_sweep_empty_grid_is_config_error(tmp_path):
    assert run_cli("sweep", "--protocol", "linear", "--beta", "", "--r", "0.5") == 2


# -------------------------------------------------------------- check-tables


def test_check_tables_exits_clean(tmp_path, capsys):
    out = tmp_path / "tables.json"
    code = run_cli("check-tables", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "WHITELISTED" in printed
    assert "all mismatches whitelisted" in printed
    doc = load(out)
    assert doc["ok"] is True
    assert len(doc["entries"]) == 12
    flagged = {(e["kind"], e["index"]) for e in doc["entries"] if not e["matches"]}
    assert ("linear", 3) in flagged and ("tshape", 2) in flagged


# ------------------------------------------------------------------ physical


def test_physical_estimators(tmp_path):
    out = tmp_path / "phys.json"
    code = run_cli(
        "physical", "--finesse", "1.7e5", "--round-trip-length", "0.1",
        "--gamma-over-2pi", "6e6", "--drive-ratio", "0.005", "--out", str(out),
    )
    assert code == 0
    doc = load(out)
    assert abs(doc["cavity"]["kappa_over_2pi_hz"] - 20e3) / 20e3 < 0.20
    assert doc["spontaneous_emission"]["gamma_eff_hz"] == pytest.approx(37.5)


def test_physical_requires_a_pair():
    assert run_cli("physical", "--finesse", "1e5") == 2
    assert run_cli("physical") == 2
