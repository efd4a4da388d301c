"""Tests for the mode transforms, stage synthesis and protocol runners."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvcluster import (
    GaussianState,
    InvalidParameterError,
    PhysicalParams,
    Protocol,
    PulseStage,
    build_effective_hamiltonian,
    builtin_graph,
    builtin_protocol,
    builtin_transform,
    convergence_eigenvalues,
    drift_diffusion,
    evolve,
    is_cluster,
    nullifier_variances,
    purity,
    run_protocol,
    stage_from_mode_vector,
    symplectic_eigenvalues,
    transformed_coupling,
    vacuum_targets,
)
from cvcluster.model import reduced_drift_diffusion
from cvcluster.protocols import PROTOCOL_KINDS, STAGE_PHASE_FACTORS, ModeTransform
from cvcluster.tables import generated_stage, reference_stage

S2 = math.sqrt(2.0)
S10 = math.sqrt(10.0)


def exact_targets(kind, r):
    # e^{-2 atanh r} = (1 - r) / (1 + r)
    return vacuum_targets(builtin_graph(kind)) * (1.0 - r) / (1.0 + r)


# ------------------------------------------------------------------ transforms


def test_builtin_transform_rows_pinned():
    linear = builtin_transform("linear").matrix
    assert_allclose(linear[2], [0, 0, -1 / S2, -1j / S2], atol=1e-15)
    square = builtin_transform("square").matrix
    assert_allclose(square[1], [-1j / S2, 1j / S2, 0, 0], atol=1e-15)
    tshape = builtin_transform("tshape").matrix
    assert_allclose(tshape[0], (math.sqrt(3) / 2) * np.array([1j, -1 / 3, -1 / 3, -1 / 3]), atol=1e-15)
    assert_allclose(tshape[3], [0.5j, 0.5, 0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_builtin_transform_unitarity(kind):
    u = builtin_transform(kind).matrix
    assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-12


def test_builtin_transform_unknown_kind():
    with pytest.raises(InvalidParameterError):
        builtin_transform("ring")


# -------------------------------------------------------------- stage synthesis


def test_stage_matches_first_reference_table():
    omega, r = 1.3, 0.4
    v = np.array([-1j / S2, -1 / S2, 0, 0])
    st = stage_from_mode_vector(v, omega, r, 4.0)
    ref = reference_stage("linear", 1, omega=omega, r=r)
    assert_allclose(st.omega_u, ref.omega_u, atol=1e-14)
    assert_allclose(st.omega_s, ref.omega_s, atol=1e-14)
    assert_allclose(st.phi_u[:2], [1.5 * math.pi, math.pi], atol=1e-14)
    assert_allclose(st.phi_s[:2], [0.5 * math.pi, math.pi], atol=1e-14)


def test_stage_single_ensemble():
    st = stage_from_mode_vector(np.array([1.0, 0, 0, 0]), 2.0, 0.5, 1.0)
    assert_allclose(st.omega_u, [4.0, 0, 0, 0], atol=1e-15)
    assert_allclose(st.omega_s, [2.0, 0, 0, 0], atol=1e-15)
    assert st.phi_u[0] == 0.0 and st.phi_s[0] == 0.0


def test_stage_amplitudes_of_second_combined_mode():
    v = np.array([-1j, 1, 2j, 2]) / S10
    st = stage_from_mode_vector(v, 1.0, 0.5, 4.0)
    assert_allclose(st.omega_u, np.array([2, 2, 4, 4]) / S10, atol=1e-14)


def test_stage_rejects_unnormalised_vector():
    with pytest.raises(InvalidParameterError):
        stage_from_mode_vector(np.array([1.0, 1.0, 0, 0]), 1.0, 0.5, 4.0)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_stage_rejects_non_finite_omega(omega):
    with pytest.raises(InvalidParameterError, match="omega must be positive and finite"):
        stage_from_mode_vector(np.array([1.0, 0, 0, 0]), omega, 0.5, 4.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_stage_rejects_a_non_finite_mode_vector(value):
    """NaN passes the norm check (nan > tol is False): name the vector."""
    with pytest.raises(InvalidParameterError, match="mode vector must be finite"):
        stage_from_mode_vector(np.array([value, 0, 0, 0]), 1.0, 0.5, 4.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_mode_transform_rejects_non_finite_entries(value):
    matrix = np.eye(4, dtype=complex)
    matrix[2, 1] = value
    with pytest.raises(InvalidParameterError, match="transform must be finite"):
        ModeTransform(matrix)
    with pytest.raises(InvalidParameterError, match="transform must be finite"):
        ModeTransform(np.full((4, 4), value))


# --------------------------------------------------------- transformed couplings


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_generated_stages_couple_to_single_mode(kind, index):
    params = PhysicalParams(2.5, 0.5)
    st = generated_stage(kind, index, omega=params.beta, r=params.r)
    report = transformed_coupling(st, builtin_transform(kind))
    assert report.target == index - 1
    beta = params.beta
    assert abs(abs(report.beam_splitter[report.target]) - beta) < 1e-12
    assert abs(abs(report.squeezing[report.target]) - params.r * beta) < 1e-12
    off_bs = np.delete(np.abs(report.beam_splitter), report.target)
    off_sq = np.delete(np.abs(report.squeezing), report.target)
    assert max(off_bs.max(), off_sq.max()) < 1e-10 * beta


def test_all_zero_stage_has_no_target():
    st = PulseStage(np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4), 4.0)
    report = transformed_coupling(st, builtin_transform("linear"))
    assert report.target is None
    assert_allclose(report.beam_splitter, 0, atol=1e-15)


def test_reference_square_stage_one_is_inconsistent():
    """The literal first square table (squeezing channel missing the factor r
    on ensembles 3, 4) leaks squeezing onto a second combined mode."""
    params = PhysicalParams(1.0, 0.5)
    st = reference_stage("square", 1, omega=params.beta, r=params.r)
    report = transformed_coupling(st, builtin_transform("square"))
    beta = params.beta
    assert abs(report.beam_splitter[0] - beta) < 1e-12
    off_target_sq = abs(report.squeezing[2])
    assert abs(off_target_sq - 0.4 * (1 - params.r) * beta) < 1e-12
    assert report.target is None  # flagged: not a clean single-mode stage


# ------------------------------------------------------------------- protocols


def test_protocol_requires_four_distinct_targets():
    params = PhysicalParams(1.0, 0.5)
    transform = builtin_transform("linear")
    stages = [generated_stage("linear", i, params.beta, params.r) for i in (1, 1, 3, 4)]
    with pytest.raises(InvalidParameterError):
        Protocol(transform, tuple(stages), builtin_graph("linear"))
    with pytest.raises(InvalidParameterError):
        Protocol(transform, tuple(stages[:3]), builtin_graph("linear"))


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_exact_solver_reaches_analytic_variances(kind):
    r = 0.5
    params = PhysicalParams(2.5, r)
    run = run_protocol(builtin_protocol(kind, params), params)
    variances = nullifier_variances(run.final_state, builtin_graph(kind))
    assert np.abs(variances - exact_targets(kind, r)).max() < 1e-8
    assert run.warnings == ()


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_final_four_mode_state_is_pure(kind):
    params = PhysicalParams(2.5, 0.5)
    run = run_protocol(builtin_protocol(kind, params), params)
    ensemble = run.final_state.cov[2:, 2:]
    assert abs(purity(ensemble) - 1.0) < 1e-8
    assert np.abs(symplectic_eigenvalues(ensemble) - 0.5).max() < 1e-8


def test_cavity_factorises_after_every_stage():
    params = PhysicalParams(2.5, 0.5)
    run = run_protocol(builtin_protocol("linear", params), params)
    for trace in run.stages:
        assert trace.cavity_cross_norm < 1e-10
    assert_allclose(run.final_state.cov[:2, :2], 0.5 * np.eye(2), atol=1e-10)


def test_vanishing_squeezing_leaves_vacuum():
    params = PhysicalParams(2.5, 1e-12)
    run = run_protocol(builtin_protocol("square", params), params)
    assert np.abs(run.final_state.cov - 0.5 * np.eye(10)).max() < 1e-8
    run0 = run_protocol(builtin_protocol("tshape", PhysicalParams(2.5, 0.0)),
                        PhysicalParams(2.5, 0.0))
    assert np.abs(run0.final_state.cov - 0.5 * np.eye(10)).max() < 1e-12


def test_time_domain_converges_to_exact_values():
    r = 0.5
    params = PhysicalParams(2.5, r)
    target = exact_targets("linear", r)
    errors = []
    for stage_time in (4.0, 8.0, 12.0):
        protocol = builtin_protocol("linear", params, stage_time=stage_time)
        run = run_protocol(protocol, params, method="time_domain")
        variances = nullifier_variances(run.final_state, protocol.graph)
        errors.append(np.abs(variances - target).max())
    assert errors[0] < 0.05
    assert errors[0] > errors[1] > errors[2]


def test_stage_order_does_not_matter():
    params = PhysicalParams(2.5, 0.5)
    base = builtin_protocol("linear", params)
    reference = run_protocol(base, params).final_state.cov
    order = (2, 0, 3, 1)
    permuted = Protocol(base.transform, tuple(base.stages[i] for i in order), base.graph)
    shuffled = run_protocol(permuted, params).final_state.cov
    assert np.abs(reference - shuffled).max() < 1e-10


def test_per_stage_trace_is_recorded():
    params = PhysicalParams(2.5, 0.5)
    run = run_protocol(builtin_protocol("square", params), params)
    assert len(run.stages) == 4
    assert [t.target_mode for t in run.stages] == [0, 1, 2, 3]
    final_vars = nullifier_variances(run.final_state, builtin_graph("square"))
    assert_allclose(run.stages[-1].nullifier_variances, final_vars, atol=1e-12)
    for t in run.stages:
        assert 0.0 < t.ensemble_purity <= 1.0 + 1e-9


@pytest.mark.parametrize("method", ["lyapunov_sequential", "time_domain"])
@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_stage_purity_reads_the_ensemble_block(kind, method):
    """A stage's purity, read from the combined-mode frame, is that of the
    ensemble state: S leaves it unchanged, up to round-off."""
    params = PhysicalParams(1.7, 0.6)
    run = run_protocol(builtin_protocol(kind, params), params, method=method)
    assert abs(run.stages[-1].ensemble_purity - purity(run.final_state.cov[2:, 2:])) <= 1e-12


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize("beta,r", [(1.7, 0.6), (3.0, 0.9), (1.0, 0.95)])
def test_lyapunov_final_stage_purity_is_one(kind, beta, r):
    """Four exact squeezed vacua leave the ensembles in a pure state."""
    params = PhysicalParams(beta, r)
    run = run_protocol(builtin_protocol(kind, params), params)
    assert abs(run.stages[-1].ensemble_purity - 1.0) <= 1e-14


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize("beta,r", [(2.5, 0.5), (1.0, 0.9), (0.4, 0.3)])
def test_frame_generator_is_the_rotated_stage_generator(kind, beta, r):
    """The generator built from a coupling report's vectors is S A S^T of
    the ensemble-basis stage generator, with the same D: nothing dropped."""
    params = PhysicalParams(beta, r)
    protocol = builtin_protocol(kind, params)
    s = protocol.transform.symplectic
    for stage in protocol.stages:
        report = transformed_coupling(stage, protocol.transform)
        frame = reduced_drift_diffusion(report.beam_splitter, report.squeezing)
        ensemble = drift_diffusion(build_effective_hamiltonian(stage), np.array([2.0, 0, 0, 0, 0]))
        assert np.abs(frame.A - s @ ensemble.A @ s.T).max() <= 1e-15
        assert (frame.D == ensemble.D).all()


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize("stage_time", [4.0, 12.0])
def test_time_domain_matches_the_ensemble_basis_evolution(kind, stage_time):
    """Reference: evolve the five-mode state in the ensemble basis, stage by
    stage, under each stage's own Hamiltonian."""
    params = PhysicalParams(2.5, 0.5)
    protocol = builtin_protocol(kind, params, stage_time=stage_time)
    state = GaussianState.vacuum(5)
    for stage in protocol.stages:
        dd = drift_diffusion(build_effective_hamiltonian(stage), np.array([2.0, 0, 0, 0, 0]))
        state = evolve(state, dd, stage_time)
    run = run_protocol(protocol, params, method="time_domain")
    assert np.abs(run.final_state.cov - state.cov).max() <= 1e-12


def test_slow_regime_warning_collected():
    params = PhysicalParams(0.4, 0.5)  # beta sqrt(1-r^2) = 0.346 < 1/2
    run = run_protocol(builtin_protocol("linear", params), params)
    assert len(run.warnings) == 4
    assert all("slow regime" in w for w in run.warnings)
    variances = nullifier_variances(run.final_state, builtin_graph("linear"))
    assert np.abs(variances - exact_targets("linear", 0.5)).max() < 1e-8


def rescaled_stages(protocol, swap, squeeze):
    """The protocol's stages with both channels driven at ``swap`` and
    ``squeeze`` times the original beam-splitter amplitudes."""
    return tuple(
        dataclasses.replace(s, omega_u=swap * s.omega_u, omega_s=squeeze * s.omega_u)
        for s in protocol.stages
    )


def squeeze_only_stages(protocol):
    """The protocol's stages with the beam-splitter channel moved to the
    squeezing channel and nothing left on it."""
    zeros = np.zeros(4)
    return tuple(
        dataclasses.replace(s, omega_u=zeros, omega_s=s.omega_u, phi_u=zeros)
        for s in protocol.stages
    )


@pytest.mark.parametrize(
    "swap,squeeze,sq,bs",
    [(1.0, 2.0, "2", "1"), (1.0, 1.0, "1", "1"), (0.0, 1.0, "1", "0"), (None, None, "1", "0")],
    ids=["swap-1-squeeze-2", "swap-1-squeeze-1", "swap-0-squeeze-1", "squeeze-only"],
)
def test_protocol_rejects_a_stage_that_amplifies(swap, squeeze, sq, bs):
    """|sq| >= |bs| has no steady state whatever the cavity loss: such a stage cannot
    be built into a Protocol, so no method is ever handed one."""
    protocol = builtin_protocol("linear", PhysicalParams(1.0, 0.5))
    if swap is None:
        stages = squeeze_only_stages(protocol)
    else:
        stages = rescaled_stages(protocol, swap, squeeze)
    message = rf"^stage 1 amplifies, no steady state: \|sq\| = {sq} >= \|bs\| = {bs}$"
    with pytest.raises(InvalidParameterError, match=message):
        Protocol(protocol.transform, stages, protocol.graph)
    with pytest.raises(InvalidParameterError, match=message):
        dataclasses.replace(protocol, stages=stages)


def test_a_stage_just_below_the_line_runs_under_both_methods():
    """|sq| = 0.99 |bs| still relaxes: both methods run it, every stage slow,
    and the lyapunov run reaches the r = 0.99 targets."""
    params = PhysicalParams(1.0, 0.5)
    protocol = builtin_protocol("linear", params)
    below = dataclasses.replace(protocol, stages=rescaled_stages(protocol, 1.0, 0.99))
    for method in ("lyapunov_sequential", "time_domain"):
        run = run_protocol(below, params, method=method)
        assert [trace.slow_regime for trace in run.stages] == [True] * 4
        assert len(run.warnings) == 4
        assert all("slow regime" in w for w in run.warnings)
    variances = nullifier_variances(
        run_protocol(below, params).final_state, builtin_graph("linear")
    )
    assert np.abs(variances - exact_targets("linear", 0.99)).max() < 1e-8


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize(
    "beta,r",
    [(0.5, 0.0), (0.3, 0.5), (0.577350269189626, 0.5), (1.0, 0.0), (1.0, 0.9), (2.5, 0.5)],
)
def test_stage_relaxation_and_run_agree_on_the_slow_regime(kind, beta, r):
    """One rule decides slowness: each stage's recorded flag is the
    relaxation spectrum's ``slow`` at the couplings the run recorded, and a
    stage that is not underdamped, the critical one included, is slow.  At
    beta 0.5, r 0 the stages sit on the critical line, where round-off
    decides (tshape stage 3 has |bs| = 0.5000000000000001 and is
    underdamped), so the bare law beta sqrt(1 - r^2) <= 1/2 is not the test."""
    params = PhysicalParams(beta, r)
    for trace in run_protocol(builtin_protocol(kind, params), params).stages:
        bs, sq = abs(trace.beam_splitter), abs(trace.squeezing)
        assert trace.slow_regime == convergence_eigenvalues(bs, sq / bs).slow


def test_unknown_method_rejected():
    params = PhysicalParams(1.0, 0.5)
    protocol = builtin_protocol("linear", params)
    with pytest.raises(InvalidParameterError):
        run_protocol(protocol, params, method="eulerian")


@pytest.mark.parametrize("method", ["lyapunov_sequential", "time_domain"])
def test_a_run_validates_five_states_all_in_the_frame(method, monkeypatch):
    """The vacuum and the four stage states are checked; the rotation back,
    which keeps nu exactly, is not checked again.  At r 0.999999 that check
    read min nu - 1/2 = -6.9e-5 on the rotated covariance."""
    checked = []
    validate = GaussianState.__post_init__

    def counting(self):
        validate(self)
        checked.append(self)

    monkeypatch.setattr(GaussianState, "__post_init__", counting)
    params = PhysicalParams(1.0, 0.999999)
    protocol = builtin_protocol("linear", params)
    run = run_protocol(protocol, params, method=method)
    assert len(checked) == 5 and checked[-1] is run.frame_state
    s = protocol.transform.symplectic
    rotated = s.T @ run.frame_state.cov @ s
    assert (run.final_state.cov == 0.5 * (rotated + rotated.T)).all()
    assert not run.final_state.cov.flags.writeable
    assert run.final_state.n_modes == 5


@pytest.mark.parametrize("method", ["lyapunov_sequential", "time_domain"])
@pytest.mark.parametrize("stage_time", [-1.0, 0.0, math.nan, math.inf])
def test_stage_time_override_must_be_positive_and_finite(method, stage_time):
    """A run's stage times are its stages' durations: builtin_protocol's
    stage_time override is checked where the Protocol is built, so neither
    method is handed a bad one."""
    params = PhysicalParams(1.0, 0.5)
    with pytest.raises(InvalidParameterError, match="duration must be"):
        run_protocol(builtin_protocol("linear", params, stage_time=stage_time), params, method=method)


def test_tshape_phase_factors_flip_three_quadratures():
    """The T-shape stages drive i times the first three rows; the squares of
    the factors are the squeeze-direction pattern (-1, -1, -1, +1)."""
    factors = np.array(STAGE_PHASE_FACTORS["tshape"])
    assert_allclose(factors**2, [-1, -1, -1, 1], atol=1e-15)
    params = PhysicalParams(2.0, 0.5)
    st = generated_stage("tshape", 1, omega=params.beta, r=params.r)
    report = transformed_coupling(st, builtin_transform("tshape"))
    # beam-splitter coupling picks up the factor i, squeezing its conjugate
    assert abs(report.beam_splitter[0] - 1j * params.beta) < 1e-12
    assert abs(report.squeezing[0] - (-1j * params.r * params.beta)) < 1e-12


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_only_the_builtin_squeeze_pattern_prepares_the_cluster(kind):
    """A wrong protocol fails: of the 16 phase-factor patterns, each factor
    1 or i (one per squeeze-direction pattern factor^2 = +-1), exactly the
    built-in squares leave a state that passes is_cluster."""
    squares = {"linear": (1, 1, 1, 1), "square": (1, 1, 1, 1), "tshape": (-1, -1, -1, 1)}[kind]
    params = PhysicalParams(2.5, 0.5)
    transform = builtin_transform(kind)
    passing = []
    for factors in itertools.product((1.0, 1j), repeat=4):
        stages = tuple(
            stage_from_mode_vector(f * row, params.beta, params.r, 4.0)
            for f, row in zip(factors, transform.matrix)
        )
        protocol = Protocol(transform, stages, builtin_graph(kind))
        final = run_protocol(protocol, params).final_state
        if is_cluster(final, protocol.graph, params.xi, tol=1e-6).passed:
            passing.append(tuple(round((f * f).real) for f in factors))
    assert passing == [squares]
    assert tuple(round((f * f).real) for f in STAGE_PHASE_FACTORS[kind]) == squares
