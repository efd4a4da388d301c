"""Tests for the Gaussian state / drift-diffusion layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvcluster import (
    PROTOCOL_KINDS,
    DriftDiffusion,
    GaussianState,
    InvalidParameterError,
    NonHurwitzError,
    PhysicalParams,
    QuadraticHamiltonian,
    SimulationError,
    UnphysicalStateError,
    apply_mode_transform,
    build_effective_hamiltonian,
    builtin_protocol,
    builtin_transform,
    drift_diffusion,
    evolve,
    purity,
    run_protocol,
    steady_state,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_from_unitary,
    two_mode_drift_diffusion,
)
from cvcluster.model import reduced_drift_diffusion

BETA_GRID = [0.3, 0.6, 1.0, 2.5, 4.0]
R_GRID = [0.0, 0.2, 0.5, 0.8, 0.95]


def random_generator(rng, n_modes=5, max_damping=2.0):
    """Random quadratic Hamiltonian with random per-mode loss."""
    f = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    f = 0.5 * (f + f.conj().T)
    g = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    g = 0.5 * (g + g.T)
    damping = rng.uniform(0.0, max_damping, size=n_modes)
    return drift_diffusion(QuadraticHamiltonian(f, g), damping)


# ---------------------------------------------------------------- structure


def test_symplectic_form_interleaved():
    omega = symplectic_form(2)
    expected = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    )
    assert_allclose(omega, expected)


def test_quadratic_hamiltonian_validation():
    with pytest.raises(InvalidParameterError):
        QuadraticHamiltonian(np.array([[0, 1j], [1j, 0]]), np.zeros((2, 2)))  # not Hermitian
    with pytest.raises(InvalidParameterError):
        QuadraticHamiltonian(np.zeros((2, 2)), np.array([[0, 1], [-1, 0]]))  # not symmetric


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("matrix", ["F", "G"])
def test_quadratic_hamiltonian_rejects_non_finite_entries(matrix, bad):
    m = np.zeros((2, 2), dtype=complex)
    m[0, 0] = bad
    args = {"F": np.zeros((2, 2)), "G": np.zeros((2, 2)), matrix: m}
    with pytest.raises(InvalidParameterError, match=f"{matrix} must be finite"):
        QuadraticHamiltonian(args["F"], args["G"])


def test_gaussian_state_symmetrizes_and_validates():
    cov = 0.5 * np.eye(2)
    cov[0, 1] = 1e-13  # tiny asymmetry is symmetrised away
    state = GaussianState(cov)
    assert_allclose(state.cov, state.cov.T)
    with pytest.raises(UnphysicalStateError):
        GaussianState(0.4 * np.eye(2))


def test_vacuum_state():
    vac = GaussianState.vacuum(2)
    assert_allclose(vac.cov, 0.5 * np.eye(4))
    assert vac.n_modes == 2


@pytest.mark.parametrize("n_modes", [-1, 0, 2.5, True])
def test_vacuum_rejects_a_mode_count_that_is_not_a_positive_int(n_modes):
    """-1 used to raise numpy's ValueError, 2.5 a TypeError, and True gave
    a one-mode vacuum."""
    message = rf"^n_modes must be an int of at least 1, got {n_modes!r}$"
    with pytest.raises(InvalidParameterError, match=message):
        GaussianState.vacuum(n_modes)


# ----------------------------------------------------------- drift_diffusion


def test_drift_harmonic_rotation():
    h = QuadraticHamiltonian(np.array([[0.7]]), np.zeros((1, 1)))
    dd = drift_diffusion(h, [0.0])
    assert_allclose(dd.A, np.array([[0.0, 0.7], [-0.7, 0.0]]), atol=1e-15)
    assert_allclose(dd.D, 0.0, atol=1e-15)


def test_drift_pure_decay():
    h = QuadraticHamiltonian(np.zeros((1, 1)), np.zeros((1, 1)))
    dd = drift_diffusion(h, [1.3])
    assert_allclose(dd.A, -0.65 * np.eye(2), atol=1e-15)
    assert_allclose(dd.D, 0.65 * np.eye(2), atol=1e-15)
    assert_allclose(steady_state(dd), 0.5 * np.eye(2), atol=1e-12)


def test_drift_rejects_negative_damping():
    h = QuadraticHamiltonian(np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(InvalidParameterError):
        drift_diffusion(h, [-0.1])


@pytest.mark.parametrize("beta", BETA_GRID)
@pytest.mark.parametrize("r", R_GRID)
def test_two_mode_eigenvalue_law(beta, r):
    """Drift spectrum of the damped cavity + combined mode pair:
    lambda_+- = -kappa/2 +- sqrt((kappa/2)^2 - beta^2 (1 - r^2)), each twice."""
    kappa = 1.0
    dd = two_mode_drift_diffusion(beta, r)
    eigvals = np.linalg.eigvals(dd.A)
    disc = (kappa / 2) ** 2 - beta**2 * (1 - r**2)
    for lam in (-kappa / 2 + np.sqrt(complex(disc)), -kappa / 2 - np.sqrt(complex(disc))):
        matches = np.sum(np.abs(eigvals - lam) < 1e-10)
        assert matches >= 2, f"eigenvalue {lam} not doubly present in {eigvals}"


# -------------------------------------------------------------------- evolve


def test_evolve_vacuum_is_fixed_point_of_decay():
    dd = drift_diffusion(QuadraticHamiltonian(np.zeros((1, 1)), np.zeros((1, 1))), [0.8])
    vac = GaussianState.vacuum(1)
    out = evolve(vac, dd, 3.21)
    assert_allclose(out.cov, vac.cov, atol=1e-14)


def test_evolve_relaxation_to_vacuum():
    dd = drift_diffusion(QuadraticHamiltonian(np.zeros((1, 1)), np.zeros((1, 1))), [1.0])
    hot = GaussianState(1.5 * np.eye(2))
    out = evolve(hot, dd, 60.0)
    assert_allclose(out.cov, 0.5 * np.eye(2), atol=1e-12)


def test_evolve_matches_lyapunov_at_long_time():
    dd = two_mode_drift_diffusion(2.5, 0.5)
    out = evolve(GaussianState.vacuum(2), dd, 12.0)
    assert np.abs(out.cov - steady_state(dd)).max() < 1e-3


def test_evolve_rejects_negative_time():
    dd = two_mode_drift_diffusion(1.0, 0.2)
    with pytest.raises(InvalidParameterError):
        evolve(GaussianState.vacuum(2), dd, -0.1)


def test_evolve_matches_ode_oracle_on_ten_by_ten():
    """Closed-form propagation against an independent adaptive ODE solve."""
    from scipy.integrate import solve_ivp

    rng = np.random.default_rng(42)
    for _ in range(3):
        dd = random_generator(rng, 5)
        state = GaussianState.vacuum(5)
        t_final = 0.9

        def rhs(_, y):
            sigma = y.reshape(10, 10)
            return (dd.A @ sigma + sigma @ dd.A.T + dd.D).reshape(-1)

        y0 = state.cov.reshape(-1)
        sol = solve_ivp(rhs, (0.0, t_final), y0, rtol=1e-12, atol=1e-13, dense_output=False)
        ref_cov = sol.y[:, -1].reshape(10, 10)
        out = evolve(state, dd, t_final)
        assert np.abs(out.cov - ref_cov).max() < 1e-9


def test_evolve_semigroup_property():
    rng = np.random.default_rng(3)
    dd = random_generator(rng, 3)
    state = GaussianState.vacuum(3)
    one = evolve(evolve(state, dd, 0.4), dd, 0.9)
    two = evolve(state, dd, 1.3)
    assert np.abs(one.cov - two.cov).max() < 1e-9


def test_evolve_preserves_uncertainty_at_all_sampled_times():
    rng = np.random.default_rng(11)
    for _ in range(4):
        dd = random_generator(rng, 3)
        state = GaussianState.vacuum(3)
        for t in np.linspace(0.05, 2.0, 9):
            out = evolve(state, dd, float(t))
            assert symplectic_eigenvalues(out.cov).min() >= 0.5 - 1e-9


def test_evolve_converges_to_steady_state_at_analytic_rate():
    dd = two_mode_drift_diffusion(2.5, 0.5)
    target = steady_state(dd)
    max_re = np.linalg.eigvals(dd.A).real.max()
    times = np.array([4.0, 8.0, 12.0])
    gaps = np.array(
        [np.abs(evolve(GaussianState.vacuum(2), dd, t).cov - target).max() for t in times]
    )
    assert gaps[0] > gaps[1] > gaps[2]
    # covariance gap decays like e^{2 max Re(lambda) T}; allow 20% rate slack
    slope = np.polyfit(times, np.log(gaps), 1)[0]
    assert slope <= 0.8 * 2 * max_re


def block_expm_reference(dd, t):
    """(Phi, Q) over the full time from scipy's expm of the Van Loan block."""
    from scipy.linalg import expm

    n2 = dd.A.shape[0]
    block = np.block([[dd.A, dd.D], [np.zeros((n2, n2)), -dd.A.T]])
    eb = expm(block * t)
    return eb[:n2, :n2], eb[:n2, n2:] @ eb[:n2, :n2].T


def test_evolve_matches_scipy_block_expm_on_random_stages():
    """Every stage of 60 random protocols (240 stages), from a random mixed
    state.  Stage times stay at or below 8 and r at or
    below 0.8: on longer, more strongly squeezed stages the block reference
    itself loses digits to cancellation."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(60):
        r = rng.uniform(0.0, 0.8)
        beta = rng.uniform(0.3, 5.0) / math.sqrt(1.0 - r * r)
        params = PhysicalParams(beta, r)
        protocol = builtin_protocol(PROTOCOL_KINDS[i % 3], params)
        for stage in protocol.stages:
            dd = drift_diffusion(build_effective_hamiltonian(stage), np.array([2.0, 0, 0, 0, 0]))
            t = rng.uniform(0.05, 8.0)
            b = rng.normal(size=(10, 10)) * 0.3
            state = GaussianState(0.5 * np.eye(10) + b @ b.T)
            prop, acc = block_expm_reference(dd, t)
            ref_cov = prop @ state.cov @ prop.T + acc
            out = evolve(state, dd, t)
            worst = max(worst, np.abs(out.cov - ref_cov).max() / np.abs(ref_cov).max())
    assert worst <= 1e-11


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(PROTOCOL_KINDS),
    r=st.floats(0.0, 0.95),
    gap=st.floats(0.6, 12.0),
    stage_time=st.floats(0.05, 40.0),
)
def test_time_domain_runs_stay_physical(kind, r, gap, stage_time):
    """Long, strongly squeezed stages end in a physical state: squaring the
    pair (Phi, Q) adds only positive semidefinite terms."""
    params = PhysicalParams(gap / math.sqrt(1.0 - r * r), r)
    protocol = builtin_protocol(kind, params, stage_time=stage_time)
    final = run_protocol(protocol, params, method="time_domain").final_state
    assert symplectic_eigenvalues(final.cov).min() - 0.5 >= -1e-10


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize("r", [0.5, 0.9])
def test_time_domain_far_past_relaxation_equals_lyapunov(kind, r):
    """Stage times 200/kappa to 1e6/kappa, far past relaxation.  Forming Q as
    E_12 Phi^T from one exponential over the whole stage cancels to garbage
    here (at r 0.5 from about 60/kappa on).  Squaring in a basis where the
    untouched modes are not coordinate axes doubles their round-off at every
    step, so the stages run in the combined-mode frame."""
    params = PhysicalParams(2.5, r)
    exact = run_protocol(builtin_protocol(kind, params), params, method="lyapunov_sequential")
    for stage_time in (200.0, 1e4, 1e5, 1e6):
        long = run_protocol(
            builtin_protocol(kind, params, stage_time=stage_time), params, method="time_domain"
        )
        gap = np.abs(long.final_state.cov - exact.final_state.cov).max()
        assert gap <= 1e-13, f"stage time {stage_time}: gap {gap:.3e}"


@pytest.mark.parametrize("t", [float("nan"), float("inf"), 1e308])
def test_evolve_rejects_a_time_whose_scaled_generator_overflows(t):
    dd = two_mode_drift_diffusion(1.0, 0.3)
    with pytest.raises(InvalidParameterError, match="not finite"):
        evolve(GaussianState.vacuum(2), dd, t)


def test_evolve_reports_an_overflowing_propagator_as_a_simulation_error():
    """At t = 1e300 the ~1000 squarings amplify the round-off on the modes a
    stage leaves undamped past the float range: that is a failed simulation,
    not a bad argument, and it warns nothing on the way."""
    params = PhysicalParams(2.5, 0.5)
    stage = builtin_protocol("linear", params).stages[0]
    dd = drift_diffusion(build_effective_hamiltonian(stage), np.array([2.0, 0, 0, 0, 0]))
    with pytest.raises(SimulationError, match="evolution time 1e\\+300") as info:
        evolve(GaussianState.vacuum(5), dd, 1e300)
    assert not isinstance(info.value, InvalidParameterError)


# -------------------------------------------------------------- steady_state


def test_steady_state_squeezed_vacuum_direction():
    """The combined mode ends in squeezed vacuum with the q quadrature
    carrying e^{-2 xi} / 2, the cavity in vacuum, no correlations."""
    r = 0.5
    xi = np.arctanh(r)
    sigma = steady_state(two_mode_drift_diffusion(1.7, r))
    expected = np.diag([0.5, 0.5, np.exp(-2 * xi) / 2, np.exp(2 * xi) / 2])
    assert_allclose(sigma, expected, atol=1e-12)


def test_steady_state_no_squeezing_is_vacuum():
    sigma = steady_state(two_mode_drift_diffusion(1.0, 0.0))
    assert_allclose(sigma, 0.5 * np.eye(4), atol=1e-12)


def test_steady_state_rejects_non_hurwitz():
    h = QuadraticHamiltonian(np.zeros((2, 2)), np.zeros((2, 2)))
    dd = drift_diffusion(h, [1.0, 0.0])  # second mode undamped and uncoupled
    with pytest.raises(NonHurwitzError) as err:
        steady_state(dd)
    assert abs(err.value.eigenvalue) < 1e-12


def test_steady_state_residual_is_tiny():
    dd = two_mode_drift_diffusion(3.0, 0.8)
    sigma = steady_state(dd)
    residual = np.linalg.norm(dd.A @ sigma + sigma @ dd.A.T + dd.D)
    assert residual <= 1e-10 * (
        np.linalg.norm(dd.A) * np.linalg.norm(sigma) + np.linalg.norm(dd.D)
    )


def test_steady_state_matches_scipy_lyapunov_solver():
    from scipy.linalg import solve_continuous_lyapunov

    rng = np.random.default_rng(5)
    for _ in range(100):
        r = rng.uniform(0.0, 0.95)
        beta = rng.uniform(0.1, 12.0)
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=2))
        dd = reduced_drift_diffusion(beta * phases[0], r * beta * phases[1])
        ref = solve_continuous_lyapunov(dd.A, -dd.D)
        assert np.abs(steady_state(dd) - ref).max() <= 1e-13 * np.abs(ref).max()


# ------------------------------------------------------- mode transformations


def test_apply_identity_transform():
    state = GaussianState.vacuum(2)
    out = apply_mode_transform(state, np.eye(2, dtype=complex))
    assert_allclose(out.cov, state.cov, atol=1e-15)


def test_vacuum_is_phase_invariant():
    state = GaussianState.vacuum(1)
    out = apply_mode_transform(state, np.array([[np.exp(0.73j)]]))
    assert_allclose(out.cov, state.cov, atol=1e-14)


def test_transform_round_trip():
    u = builtin_transform("linear").matrix
    rng = np.random.default_rng(5)
    dd = random_generator(rng, 4)
    state = evolve(GaussianState.vacuum(4), dd, 0.6)
    back = apply_mode_transform(apply_mode_transform(state, u), u.conj().T)
    assert np.abs(back.cov - state.cov).max() < 1e-12


def test_transform_preserves_symplectic_spectrum_and_purity():
    from scipy.stats import unitary_group

    rng = np.random.default_rng(17)
    dd = random_generator(rng, 4)
    state = evolve(GaussianState.vacuum(4), dd, 0.8)
    for seed in range(4):
        u = unitary_group.rvs(4, random_state=seed)
        out = apply_mode_transform(state, u)
        assert_allclose(
            symplectic_eigenvalues(out.cov), symplectic_eigenvalues(state.cov), atol=1e-10
        )
        assert abs(purity(out.cov) - purity(state.cov)) < 1e-10


def test_transform_given_as_a_nested_list():
    """A list has no ``shape``: the transform is converted before its size
    is compared, where it used to raise a raw AttributeError."""
    state = GaussianState.vacuum(1)
    assert_allclose(apply_mode_transform(state, [[1.0]]).cov, state.cov, atol=0)
    with pytest.raises(InvalidParameterError, match="^transform is 2-mode but state has 1 modes$"):
        apply_mode_transform(state, [[1.0, 0.0], [0.0, 1.0]])


def test_non_unitary_transform_rejected_with_deviation():
    state = GaussianState.vacuum(2)
    bad = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
    with pytest.raises(InvalidParameterError, match=r"not unitary \(deviation"):
        apply_mode_transform(state, bad)


@pytest.mark.parametrize("u", [1.0, np.array(1.0)], ids=["float", "0-d-array"])
def test_zero_dimensional_transform_is_rejected_as_not_square(u):
    """A 0-d input has no shape[0]: it used to raise a raw IndexError."""
    with pytest.raises(InvalidParameterError, match=r"^transform must be square, got \(\)$"):
        apply_mode_transform(GaussianState.vacuum(1), u)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_symplectic_from_unitary_rejects_non_finite_entries(value):
    """Checked before any arithmetic: NaN passes ``deviation > tol`` and an
    infinite entry would overflow the unitarity product."""
    u = np.eye(2, dtype=complex)
    u[0, 1] = value
    with pytest.raises(InvalidParameterError, match="transform must be finite"):
        symplectic_from_unitary(u)


# ------------------------------------------- symplectic eigenvalues / purity


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,), (0, 0)], ids=["3x3", "2x4", "1-D", "0x0"])
@pytest.mark.parametrize("consumer", [symplectic_eigenvalues, purity, GaussianState])
def test_malformed_covariance_is_rejected_by_shape(consumer, shape):
    """Odd, non-square, one-dimensional and empty matrices raise a named
    error before any numpy arithmetic sees them."""
    with pytest.raises(InvalidParameterError, match=r"covariance must be a 2n x 2n matrix, got shape"):
        consumer(0.5 * np.ones(shape))


def test_vacuum_spectrum_and_purity():
    cov = 0.5 * np.eye(6)
    assert_allclose(symplectic_eigenvalues(cov), [0.5, 0.5, 0.5], atol=1e-14)
    assert abs(purity(cov) - 1.0) < 1e-14


def test_squeezed_vacuum_is_pure():
    xi = 0.8
    cov = np.diag([np.exp(-2 * xi) / 2, np.exp(2 * xi) / 2])
    assert_allclose(symplectic_eigenvalues(cov), [0.5], atol=1e-12)
    assert abs(purity(cov) - 1.0) < 1e-12


def test_thermal_state_purity_half():
    cov = np.eye(2)  # one thermal mode, nu = 1
    assert_allclose(symplectic_eigenvalues(cov), [1.0], atol=1e-14)
    assert abs(purity(cov) - 0.5) < 1e-14  # 1 / sqrt(det(2 sigma)) = 1/2


def test_unphysical_covariance_diagnosed():
    with pytest.raises(UnphysicalStateError):
        symplectic_eigenvalues(0.4 * np.eye(2))
    with pytest.raises(UnphysicalStateError):
        purity(0.4 * np.eye(2))


def test_uncertainty_violation_message_prints_a_plain_number():
    with pytest.raises(UnphysicalStateError) as info:
        symplectic_eigenvalues(0.4 * np.eye(2))
    assert "0.4" in str(info.value)
    assert "np." not in str(info.value)


def test_drift_diffusion_validation():
    with pytest.raises(InvalidParameterError):
        DriftDiffusion(np.zeros((3, 3)), np.zeros((3, 3)))  # odd dimension
    with pytest.raises(InvalidParameterError):
        DriftDiffusion(np.zeros((2, 2)), -np.eye(2))  # not psd


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("matrix", ["A", "D"])
def test_drift_diffusion_rejects_non_finite_entries(matrix, bad):
    """Named before the symmetry and PSD checks, which NaN would slip past
    or turn into numpy's LinAlgError."""
    args = {"A": np.zeros((2, 2)), "D": np.zeros((2, 2))}
    args[matrix] = np.full((2, 2), bad)
    with pytest.raises(InvalidParameterError, match=f"matrix {matrix} must be finite"):
        DriftDiffusion(args["A"], args["D"])
