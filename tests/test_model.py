"""Tests for the physical model layer."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvcluster import (
    InvalidParameterError,
    PhysicalParams,
    PulseStage,
    build_effective_hamiltonian,
    cavity_decay_from_finesse,
    convergence_eigenvalues,
    effective_spontaneous_rate,
    two_mode_drift_diffusion,
)
from cvcluster.model import reduced_drift_diffusion
from cvcluster.tables import generated_stage


def stage(omega_u, omega_s, phi_u, phi_s, duration=4.0):
    return PulseStage(
        omega_u=np.asarray(omega_u, float),
        omega_s=np.asarray(omega_s, float),
        phi_u=np.asarray(phi_u, float),
        phi_s=np.asarray(phi_s, float),
        duration=duration,
    )


def random_stage(rng):
    return stage(
        rng.uniform(0, 3, 4),
        rng.uniform(0, 3, 4),
        rng.uniform(0, 2 * math.pi, 4),
        rng.uniform(0, 2 * math.pi, 4),
    )


# --------------------------------------------------------------- parameters


PARAMS = {"beta": 2.5, "r": 0.5}


def test_params_validation():
    for field, value in (("beta", 0.0), ("beta", -1.0), ("r", 1.0), ("r", -0.1)):
        with pytest.raises(InvalidParameterError, match=f"{field} must"):
            PhysicalParams(**{**PARAMS, field: value})
    # r = 0 switches squeezing off but is a valid diagnostic point
    PhysicalParams(**{**PARAMS, "r": 0.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(PARAMS))
def test_params_reject_non_finite_numbers(field, value):
    with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
        PhysicalParams(**{**PARAMS, field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_from_ratios_rejects_non_finite_numbers(value):
    with pytest.raises(InvalidParameterError, match="beta must be finite"):
        PhysicalParams.from_ratios(value, 0.5)
    with pytest.raises(InvalidParameterError, match="kappa is the unit of rates"):
        PhysicalParams.from_ratios(2.5, 0.5, kappa=value)


def test_from_ratios_reproduces_beta():
    """The operating point is (beta, r); rates are in units of kappa.  Rabi
    amplitudes are in units of Delta / (sqrt(N) g), so beta is also the
    amplitude scale Omega.  The prefactor 1/2 that every amplitude carries
    belongs to the stage Hamiltonian (see
    test_hamiltonian_linear_first_stage_entries)."""
    assert [f.name for f in dataclasses.fields(PhysicalParams)] == ["beta", "r"]
    params = PhysicalParams.from_ratios(2.5, 0.5)
    assert params == PhysicalParams(2.5, 0.5)
    assert (params.beta, params.r) == (2.5, 0.5)
    assert abs(params.xi - math.atanh(0.5)) < 1e-15


def test_pulse_stage_reduces_phases():
    st = stage([1, 1, 1, 1], [0, 0, 0, 0], [2 * math.pi + 0.3, -0.5, 7.0, 0.0], [0, 0, 0, 0])
    assert ((st.phi_u >= 0) & (st.phi_u < 2 * math.pi)).all()
    assert abs(st.phi_u[0] - 0.3) < 1e-12
    assert abs(st.phi_u[1] - (2 * math.pi - 0.5)) < 1e-12


def test_pulse_stage_validation():
    with pytest.raises(InvalidParameterError):
        stage([-1, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4)
    with pytest.raises(InvalidParameterError):
        stage([0] * 4, [0] * 4, [0] * 4, [0] * 4, duration=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["omega_u", "omega_s", "phi_u", "phi_s", "duration"])
def test_pulse_stage_rejects_non_finite_numbers(field, value):
    fields = {"omega_u": [1, 0, 0, 0], "omega_s": [0.5, 0, 0, 0], "phi_u": [0, 0, 0, 0],
              "phi_s": [0, 0, 0, 0], "duration": 4.0}
    fields[field] = value if field == "duration" else [0, value, 0, 0]
    with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
        stage(**fields)


# ------------------------------------------------------- effective Hamiltonian


def test_hamiltonian_all_zero_stage():
    h = build_effective_hamiltonian(stage([0] * 4, [0] * 4, [0] * 4, [0] * 4))
    assert_allclose(h.F, 0, atol=1e-15)
    assert_allclose(h.G, 0, atol=1e-15)


def test_hamiltonian_linear_first_stage_entries():
    params = PhysicalParams(beta=1.7, r=0.3)
    beta = params.beta
    r = params.r
    st = generated_stage("linear", 1, omega=params.beta, r=r)
    h = build_effective_hamiltonian(st)
    assert abs(h.F[0, 1] - (-1j * beta / math.sqrt(2))) < 1e-12
    assert abs(h.F[0, 2] - (-beta / math.sqrt(2))) < 1e-12
    assert abs(h.G[0, 1] - (1j * r * beta / math.sqrt(2))) < 1e-12
    assert abs(h.G[0, 2] - (-r * beta / math.sqrt(2))) < 1e-12
    assert_allclose(h.F[0, 3:], 0, atol=1e-15)
    assert_allclose(h.G[0, 3:], 0, atol=1e-15)


def test_hamiltonian_structure_for_random_stages():
    rng = np.random.default_rng(23)
    for _ in range(25):
        h = build_effective_hamiltonian(random_stage(rng))
        assert np.abs(h.F - h.F.conj().T).max() < 1e-12
        assert np.abs(h.G - h.G.T).max() < 1e-12
        # only cavity-ensemble couplings, no ensemble-ensemble blocks
        assert_allclose(h.F[1:, 1:], 0, atol=1e-15)
        assert_allclose(h.G[1:, 1:], 0, atol=1e-15)
        assert_allclose(np.diag(h.F), 0, atol=1e-15)


def test_hamiltonian_linear_in_amplitudes():
    rng = np.random.default_rng(29)
    st = random_stage(rng)
    scaled = stage(3.0 * st.omega_u, 3.0 * st.omega_s, st.phi_u, st.phi_s)
    h1 = build_effective_hamiltonian(st)
    h3 = build_effective_hamiltonian(scaled)
    assert_allclose(h3.F, 3.0 * h1.F, atol=1e-13)
    assert_allclose(h3.G, 3.0 * h1.G, atol=1e-13)


def test_cavity_damping_vector():
    """Cavity loss 2 D[a] on mode 0 only: D = diag(1, 1, 0, 0)."""
    dd = reduced_drift_diffusion(1.0, 0.5)
    assert_allclose(dd.D, np.diag([1.0, 1.0, 0, 0]), atol=0)


@pytest.mark.parametrize(
    "args,name",
    [
        ((math.nan, 0.5), "F must be finite"),
        ((1.0, math.nan), "G must be finite"),
        ((math.inf, 0.5), "F must be finite"),
        ((1.0, math.inf), "G must be finite"),
    ],
)
def test_two_mode_generator_rejects_non_finite_inputs(args, name):
    """A NaN or infinite coupling is rejected by the generator's own checks
    instead of reaching steady_state or the PSD check as numpy's LinAlgError."""
    with pytest.raises(InvalidParameterError, match=name):
        two_mode_drift_diffusion(*args)


# ------------------------------------------------------------- SI estimators


def test_cavity_decay_from_finesse_near_20khz():
    kappa = cavity_decay_from_finesse(1.7e5, 0.1)
    khz = kappa / (2 * math.pi)
    assert abs(khz - 17634.850470588235) < 1e-6  # c / L / finesse
    assert abs(khz - 20e3) / 20e3 < 0.20


def test_cavity_decay_inverse_in_finesse():
    assert abs(
        cavity_decay_from_finesse(2e5, 0.1) - 0.5 * cavity_decay_from_finesse(1e5, 0.1)
    ) < 1e-9


def test_cavity_decay_one_meter():
    kappa = cavity_decay_from_finesse(1e5, 1.0)
    assert abs(kappa / (2 * math.pi) - 2997.92458) < 1e-6
    with pytest.raises(InvalidParameterError):
        cavity_decay_from_finesse(0.0, 1.0)


def test_effective_spontaneous_rate_values():
    rate = effective_spontaneous_rate(6e6, 0.005)
    assert abs(rate - 37.5) < 1e-12
    assert abs(rate - 40.0) / 40.0 < 0.10
    assert effective_spontaneous_rate(6e6, 0.0) == 0.0
    assert abs(effective_spontaneous_rate(6e6, 0.01) - 4 * rate) < 1e-12


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "estimator,field,position",
    [
        (cavity_decay_from_finesse, "finesse", 0),
        (cavity_decay_from_finesse, "round_trip_length", 1),
        (effective_spontaneous_rate, "gamma_over_2pi", 0),
        (effective_spontaneous_rate, "drive_ratio", 1),
    ],
)
def test_estimators_reject_non_finite_numbers(estimator, field, position, value):
    args = [1.0, 1.0]
    args[position] = value
    with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
        estimator(*args)


# -------------------------------------------------------- convergence spectrum


def test_convergence_eigenvalues_underdamped():
    info = convergence_eigenvalues(1.0, 0.0)
    assert abs(info.lambda_plus - (-0.5 + 1j * math.sqrt(3) / 2)) < 1e-14
    assert abs(info.lambda_minus - (-0.5 - 1j * math.sqrt(3) / 2)) < 1e-14
    assert info.regime == "underdamped"
    assert not info.slow


def test_convergence_eigenvalues_no_coupling():
    info = convergence_eigenvalues(0.0, 0.0)
    assert abs(info.lambda_plus) < 1e-15
    assert abs(info.lambda_minus + 1.0) < 1e-15
    assert info.regime == "no-preparation"
    assert info.slow


def test_convergence_eigenvalues_critical():
    info = convergence_eigenvalues(0.5, 0.0)  # beta sqrt(1 - r^2) = 1/2
    assert abs(info.lambda_plus + 0.5) < 1e-14
    assert abs(info.lambda_minus + 0.5) < 1e-14
    assert info.regime == "critical"
    assert info.slow


def test_convergence_eigenvalues_slow():
    info = convergence_eigenvalues(0.3, 0.0)
    assert abs(info.lambda_plus + 0.1) < 1e-14  # -1/2 + sqrt(1/4 - 0.09)
    assert abs(info.lambda_minus + 0.9) < 1e-14
    assert info.regime == "slow"
    assert info.slow


def test_convergence_eigenvalues_validation():
    with pytest.raises(InvalidParameterError):
        convergence_eigenvalues(1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        convergence_eigenvalues(-1.0, 0.5)


@pytest.mark.parametrize(
    "field, args",
    [
        ("r", (1.0, math.inf)),
        ("r", (1.0, -math.inf)),
        ("beta", (math.nan, 0.5)),
        ("beta", (math.inf, 0.5)),
        ("r", (1.0, math.nan)),
    ],
)
def test_convergence_eigenvalues_reject_non_finite_numbers(field, args):
    """A NaN or infinite input names its field instead of reading as a regime."""
    with pytest.raises(InvalidParameterError, match=field):
        convergence_eigenvalues(*args)


@pytest.mark.parametrize("to_float", [float, np.float64], ids=["python", "numpy"])
@pytest.mark.parametrize(
    "field, args",
    [
        ("beta", (1e155, 0.5)),
        ("beta", (1e200, 0.5)),
    ],
    ids=["beta-1e155", "beta-1e200"],
)
def test_convergence_eigenvalues_reject_a_value_whose_square_overflows(to_float, field, args):
    """Python floats raised OverflowError from beta**2 and numpy floats gave
    inf with a RuntimeWarning; both now name the field, with no warning."""
    beta, r = (to_float(x) for x in args)
    with pytest.raises(InvalidParameterError, match=f"^{field} = .* is too large"):
        convergence_eigenvalues(beta, r)


@pytest.mark.parametrize("to_float", [float, np.float64], ids=["python", "numpy"])
def test_convergence_eigenvalues_accept_the_largest_beta_whose_square_is_finite(to_float):
    info = convergence_eigenvalues(to_float(1e154), to_float(0.5))
    assert info.regime == "underdamped"
    assert type(info.lambda_plus) is complex
