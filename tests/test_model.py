"""Tests for the physical model layer."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvcluster import (
    InvalidParameterError,
    PhysicalParams,
    PulseStage,
    build_effective_hamiltonian,
    cavity_damping,
    cavity_decay_from_finesse,
    convergence_eigenvalues,
    effective_spontaneous_rate,
)
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


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        PhysicalParams(g=0.0, delta=1, n_atoms=1, kappa=1, omega=1, r=0.5)
    with pytest.raises(InvalidParameterError):
        PhysicalParams(g=1, delta=1, n_atoms=0, kappa=1, omega=1, r=0.5)
    with pytest.raises(InvalidParameterError):
        PhysicalParams(g=1, delta=1, n_atoms=1, kappa=1, omega=1, r=1.0)
    with pytest.raises(InvalidParameterError):
        PhysicalParams(g=1, delta=1, n_atoms=1, kappa=1, omega=1, r=-0.1)
    # r = 0 switches squeezing off but is a valid diagnostic point
    PhysicalParams(g=1, delta=1, n_atoms=1, kappa=1, omega=1, r=0.0)


PARAMS = {"g": 1.0, "delta": 1.0, "n_atoms": 1, "kappa": 1.0, "omega": 2.5, "r": 0.5}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(PARAMS))
def test_params_reject_non_finite_numbers(field, value):
    with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
        PhysicalParams(**{**PARAMS, field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_from_ratios_rejects_non_finite_numbers(value):
    with pytest.raises(InvalidParameterError, match="beta must be finite"):
        PhysicalParams.from_ratios(value, 0.5)
    with pytest.raises(InvalidParameterError, match="kappa must be finite"):
        PhysicalParams.from_ratios(2.5, 0.5, kappa=value)


@pytest.mark.parametrize(
    "fields,name",
    [
        ({"g": 1e200, "delta": 1e-200, "omega": 1e-300}, "hamiltonian_prefactor"),
        ({"g": 1e200, "delta": 1.0, "omega": 1e200}, "beta"),
    ],
)
def test_params_reject_overflowing_coupling_scales(fields, name):
    """Finite inputs whose derived coupling scale overflows are rejected,
    rather than reaching run_protocol as inf couplings."""
    with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
        PhysicalParams(**{**PARAMS, **fields})


def test_from_ratios_reproduces_beta():
    params = PhysicalParams.from_ratios(2.5, 0.5)
    assert abs(params.beta - 2.5) < 1e-15
    assert abs(params.xi - math.atanh(0.5)) < 1e-15
    full = PhysicalParams(g=2.0, delta=3.0, n_atoms=4, kappa=1.0, omega=1.7, r=0.3)
    assert abs(full.beta - math.sqrt(4) * 2.0 * 1.7 / 3.0) < 1e-15


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
    params = PhysicalParams.from_ratios(1.0, 0.5)
    h = build_effective_hamiltonian(stage([0] * 4, [0] * 4, [0] * 4, [0] * 4), params)
    assert_allclose(h.F, 0, atol=1e-15)
    assert_allclose(h.G, 0, atol=1e-15)


def test_hamiltonian_linear_first_stage_entries():
    params = PhysicalParams(g=2.0, delta=3.0, n_atoms=4, kappa=1.0, omega=1.7, r=0.3)
    beta = params.beta
    r = params.r
    st = generated_stage("linear", 1, omega=params.omega, r=r)
    h = build_effective_hamiltonian(st, params)
    assert abs(h.F[0, 1] - (-1j * beta / math.sqrt(2))) < 1e-12
    assert abs(h.F[0, 2] - (-beta / math.sqrt(2))) < 1e-12
    assert abs(h.G[0, 1] - (1j * r * beta / math.sqrt(2))) < 1e-12
    assert abs(h.G[0, 2] - (-r * beta / math.sqrt(2))) < 1e-12
    assert_allclose(h.F[0, 3:], 0, atol=1e-15)
    assert_allclose(h.G[0, 3:], 0, atol=1e-15)


def test_hamiltonian_structure_for_random_stages():
    rng = np.random.default_rng(23)
    params = PhysicalParams.from_ratios(1.3, 0.4)
    for _ in range(25):
        h = build_effective_hamiltonian(random_stage(rng), params)
        assert np.abs(h.F - h.F.conj().T).max() < 1e-12
        assert np.abs(h.G - h.G.T).max() < 1e-12
        # only cavity-ensemble couplings, no ensemble-ensemble blocks
        assert_allclose(h.F[1:, 1:], 0, atol=1e-15)
        assert_allclose(h.G[1:, 1:], 0, atol=1e-15)
        assert_allclose(np.diag(h.F), 0, atol=1e-15)


def test_hamiltonian_linear_in_amplitudes():
    rng = np.random.default_rng(29)
    params = PhysicalParams.from_ratios(1.0, 0.5)
    st = random_stage(rng)
    scaled = stage(3.0 * st.omega_u, 3.0 * st.omega_s, st.phi_u, st.phi_s)
    h1 = build_effective_hamiltonian(st, params)
    h3 = build_effective_hamiltonian(scaled, params)
    assert_allclose(h3.F, 3.0 * h1.F, atol=1e-13)
    assert_allclose(h3.G, 3.0 * h1.G, atol=1e-13)


def test_cavity_damping_vector():
    rates = cavity_damping(1.5)
    assert_allclose(rates, [3.0, 0, 0, 0, 0])
    with pytest.raises(InvalidParameterError):
        cavity_damping(-1.0)


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


# -------------------------------------------------------- convergence spectrum


def test_convergence_eigenvalues_underdamped():
    info = convergence_eigenvalues(1.0, 0.0, 1.0)
    assert abs(info.lambda_plus - (-0.5 + 1j * math.sqrt(3) / 2)) < 1e-14
    assert abs(info.lambda_minus - (-0.5 - 1j * math.sqrt(3) / 2)) < 1e-14
    assert info.regime == "underdamped"
    assert abs(info.time_to_steady - 4.0) < 1e-14
    assert not info.slow


def test_convergence_eigenvalues_no_coupling():
    info = convergence_eigenvalues(0.0, 0.0, 1.0)
    assert abs(info.lambda_plus) < 1e-15
    assert abs(info.lambda_minus + 1.0) < 1e-15
    assert info.regime == "no-preparation"
    assert info.time_to_steady == math.inf
    assert info.slow


def test_convergence_eigenvalues_critical():
    info = convergence_eigenvalues(0.5, 0.0, 1.0)  # beta sqrt(1 - r^2) = kappa / 2
    assert abs(info.lambda_plus + 0.5) < 1e-14
    assert abs(info.lambda_minus + 0.5) < 1e-14
    assert info.regime == "critical"
    assert info.slow


def test_convergence_eigenvalues_slow():
    info = convergence_eigenvalues(0.3, 0.0, 1.0)
    assert info.regime == "slow"
    slow_re = abs(max(info.lambda_plus.real, info.lambda_minus.real))
    assert abs(info.time_to_steady - 8.0 / slow_re) < 1e-12


def test_convergence_eigenvalues_validation():
    with pytest.raises(InvalidParameterError):
        convergence_eigenvalues(1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        convergence_eigenvalues(-1.0, 0.5, 1.0)
    with pytest.raises(InvalidParameterError):
        convergence_eigenvalues(1.0, 0.5, 0.0)
