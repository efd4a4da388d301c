"""Tests for the mode transforms, stage synthesis and protocol runners."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvcluster import (
    InvalidParameterError,
    NonHurwitzError,
    PhysicalParams,
    Protocol,
    PulseStage,
    builtin_graph,
    builtin_protocol,
    builtin_transform,
    nullifier_variances,
    purity,
    run_protocol,
    stage_from_mode_vector,
    stage_relaxation,
    symplectic_eigenvalues,
    transformed_coupling,
    vacuum_targets,
)
from cvcluster.protocols import PROTOCOL_KINDS, STAGE_PHASE_FACTORS
from cvcluster.tables import generated_stage, reference_stage

S2 = math.sqrt(2.0)
S10 = math.sqrt(10.0)


def exact_targets(kind, r):
    # e^{-2 atanh r} = (1 - r) / (1 + r)
    return vacuum_targets(kind) * (1.0 - r) / (1.0 + r)


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


# --------------------------------------------------------- transformed couplings


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_generated_stages_couple_to_single_mode(kind, index):
    params = PhysicalParams.from_ratios(2.5, 0.5)
    st = generated_stage(kind, index, omega=params.omega, r=params.r)
    report = transformed_coupling(st, builtin_transform(kind), params)
    assert report.target == index - 1
    beta = params.beta
    assert abs(abs(report.beam_splitter[report.target]) - beta) < 1e-12
    assert abs(abs(report.squeezing[report.target]) - params.r * beta) < 1e-12
    off_bs = np.delete(np.abs(report.beam_splitter), report.target)
    off_sq = np.delete(np.abs(report.squeezing), report.target)
    assert max(off_bs.max(), off_sq.max()) < 1e-10 * beta


def test_all_zero_stage_has_no_target():
    params = PhysicalParams.from_ratios(1.0, 0.5)
    st = PulseStage(np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4), 4.0)
    report = transformed_coupling(st, builtin_transform("linear"), params)
    assert report.target is None
    assert_allclose(report.beam_splitter, 0, atol=1e-15)


def test_reference_square_stage_one_is_inconsistent():
    """The literal first square table (squeezing channel missing the factor r
    on ensembles 3, 4) leaks squeezing onto a second combined mode."""
    params = PhysicalParams.from_ratios(1.0, 0.5)
    st = reference_stage("square", 1, omega=params.omega, r=params.r)
    report = transformed_coupling(st, builtin_transform("square"), params)
    beta = params.beta
    assert abs(report.beam_splitter[0] - beta) < 1e-12
    off_target_sq = abs(report.squeezing[2])
    assert abs(off_target_sq - 0.4 * (1 - params.r) * beta) < 1e-12
    assert report.target is None  # flagged: not a clean single-mode stage


# ------------------------------------------------------------------- protocols


def test_protocol_requires_four_distinct_targets():
    params = PhysicalParams.from_ratios(1.0, 0.5)
    transform = builtin_transform("linear")
    stages = [generated_stage("linear", i, params.omega, params.r) for i in (1, 1, 3, 4)]
    with pytest.raises(InvalidParameterError):
        Protocol(transform, tuple(stages), builtin_graph("linear"), params.xi)
    with pytest.raises(InvalidParameterError):
        Protocol(transform, tuple(stages[:3]), builtin_graph("linear"), params.xi)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_exact_solver_reaches_analytic_variances(kind):
    r = 0.5
    params = PhysicalParams.from_ratios(2.5, r)
    run = run_protocol(builtin_protocol(kind, params), params)
    variances = nullifier_variances(run.final_state, builtin_graph(kind))
    assert np.abs(variances - exact_targets(kind, r)).max() < 1e-8
    assert run.warnings == ()


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_final_four_mode_state_is_pure(kind):
    params = PhysicalParams.from_ratios(2.5, 0.5)
    run = run_protocol(builtin_protocol(kind, params), params)
    ensemble = run.ensemble_state
    assert abs(purity(ensemble.cov) - 1.0) < 1e-8
    assert np.abs(symplectic_eigenvalues(ensemble.cov) - 0.5).max() < 1e-8


def test_cavity_factorises_after_every_stage():
    params = PhysicalParams.from_ratios(2.5, 0.5)
    run = run_protocol(builtin_protocol("linear", params), params)
    for trace in run.stages:
        assert trace.cavity_cross_norm < 1e-10
    cav = run.final_state.marginal(("cavity",))
    assert_allclose(cav.cov, 0.5 * np.eye(2), atol=1e-10)


def test_vanishing_squeezing_leaves_vacuum():
    params = PhysicalParams.from_ratios(2.5, 1e-12)
    run = run_protocol(builtin_protocol("square", params), params)
    assert np.abs(run.final_state.cov - 0.5 * np.eye(10)).max() < 1e-8
    run0 = run_protocol(builtin_protocol("tshape", PhysicalParams.from_ratios(2.5, 0.0)),
                        PhysicalParams.from_ratios(2.5, 0.0))
    assert np.abs(run0.final_state.cov - 0.5 * np.eye(10)).max() < 1e-12


def test_time_domain_converges_to_exact_values():
    r = 0.5
    params = PhysicalParams.from_ratios(2.5, r)
    protocol = builtin_protocol("linear", params)
    target = exact_targets("linear", r)
    errors = []
    for stage_time in (4.0, 8.0, 12.0):
        run = run_protocol(protocol, params, method="time_domain", stage_time=stage_time)
        variances = nullifier_variances(run.final_state, protocol.graph)
        errors.append(np.abs(variances - target).max())
    assert errors[0] < 0.05
    assert errors[0] > errors[1] > errors[2]


def test_stage_order_does_not_matter():
    params = PhysicalParams.from_ratios(2.5, 0.5)
    base = builtin_protocol("linear", params)
    reference = run_protocol(base, params).final_state.cov
    order = (2, 0, 3, 1)
    permuted = Protocol(
        base.transform,
        tuple(base.stages[i] for i in order),
        base.graph,
        base.xi,
    )
    shuffled = run_protocol(permuted, params).final_state.cov
    assert np.abs(reference - shuffled).max() < 1e-10


def test_per_stage_trace_is_recorded():
    params = PhysicalParams.from_ratios(2.5, 0.5)
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
    """A stage's purity is that of the ensemble state, read without building it."""
    params = PhysicalParams.from_ratios(1.7, 0.6)
    run = run_protocol(builtin_protocol(kind, params), params, method=method)
    assert run.stages[-1].ensemble_purity == purity(run.ensemble_state.cov)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_targets_survive_any_hamiltonian_prefactor(kind):
    """Physical parameters rescale every coupling by one positive factor, so each
    stage keeps the target it had when its protocol was built."""
    params = PhysicalParams(g=3.0, delta=0.7, n_atoms=5, kappa=1.0, omega=0.4, r=0.5)
    assert params.hamiltonian_prefactor != 0.5
    protocol = builtin_protocol(kind, params)
    unit = PhysicalParams.from_ratios(1.0, 0.0)
    for k, stage in enumerate(protocol.stages):
        assert transformed_coupling(stage, protocol.transform, unit).target == k
        assert transformed_coupling(stage, protocol.transform, params).target == k
    assert [t.target_mode for t in run_protocol(protocol, params).stages] == [0, 1, 2, 3]


def test_squeeze_only_stage_is_rejected_as_unstable():
    """A stage driving only the squeezing channel amplifies without bound."""
    params = PhysicalParams.from_ratios(1.0, 0.5)
    transform = builtin_transform("linear")
    stages = []
    for j in range(4):
        v = transform.matrix[j]
        angles = np.where(np.abs(v) > 0, np.angle(v), 0.0)
        stages.append(
            PulseStage(
                omega_u=np.zeros(4),
                omega_s=2.0 * params.omega * np.abs(v),
                phi_u=np.zeros(4),
                phi_s=-angles,
                duration=4.0,
            )
        )
    protocol = Protocol(transform, tuple(stages), builtin_graph("linear"), params.xi)
    with pytest.raises(NonHurwitzError, match="stage 1"):
        run_protocol(protocol, params)


def test_slow_regime_warning_collected():
    params = PhysicalParams.from_ratios(0.4, 0.5)  # beta sqrt(1-r^2) = 0.346 < 1/2
    run = run_protocol(builtin_protocol("linear", params), params)
    assert len(run.warnings) == 4
    assert all("slow regime" in w for w in run.warnings)
    variances = nullifier_variances(run.final_state, builtin_graph("linear"))
    assert np.abs(variances - exact_targets("linear", 0.5)).max() < 1e-8


def test_stage_relaxation_infos():
    params = PhysicalParams.from_ratios(2.5, 0.5)
    infos = stage_relaxation(builtin_protocol("tshape", params), params)
    assert len(infos) == 4
    assert all(info.regime == "underdamped" for info in infos)
    assert all(abs(info.time_to_steady - 4.0) < 1e-12 for info in infos)


def test_stage_relaxation_rejects_a_stage_without_steady_state():
    """|sq| >= |bs| has no steady state: the same NonHurwitzError as the runner."""
    params = PhysicalParams.from_ratios(1.0, 0.5)
    protocol = builtin_protocol("linear", params)
    for swap, squeeze in ((1.0, 2.0), (1.0, 1.0), (0.0, 1.0)):
        stages = tuple(
            dataclasses.replace(s, omega_u=swap * s.omega_u, omega_s=squeeze * s.omega_u)
            for s in protocol.stages
        )
        broken = dataclasses.replace(protocol, stages=stages)
        with pytest.raises(NonHurwitzError, match="stage 1 has no steady state") as relaxation:
            stage_relaxation(broken, params)
        with pytest.raises(NonHurwitzError) as runner:
            run_protocol(broken, params)
        assert str(relaxation.value) == str(runner.value)
        assert relaxation.value.eigenvalue == runner.value.eigenvalue


@pytest.mark.parametrize("swap,squeeze", [(1.0, 1.0), (0.0, 1.0)])
def test_time_domain_evolves_a_stage_without_steady_state(swap, squeeze):
    """The time-domain method has no steady state to miss: it runs the
    broken protocols above to the end and flags every stage slow."""
    params = PhysicalParams.from_ratios(1.0, 0.5)
    protocol = builtin_protocol("linear", params)
    stages = tuple(
        dataclasses.replace(s, omega_u=swap * s.omega_u, omega_s=squeeze * s.omega_u)
        for s in protocol.stages
    )
    broken = dataclasses.replace(protocol, stages=stages)
    run = run_protocol(broken, params, method="time_domain")
    assert [trace.slow_regime for trace in run.stages] == [True] * 4
    assert len(run.warnings) == 4


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize(
    "beta,r",
    [(0.5, 0.0), (0.3, 0.5), (0.577350269189626, 0.5), (1.0, 0.0), (1.0, 0.9), (2.5, 0.5)],
)
def test_stage_relaxation_and_run_agree_on_the_slow_regime(kind, beta, r):
    """One rule decides slowness: the critical point (beta 0.5, r 0) is slow
    in both, as is every stage that is not underdamped."""
    params = PhysicalParams.from_ratios(beta, r)
    protocol = builtin_protocol(kind, params)
    infos = stage_relaxation(protocol, params)
    traces = run_protocol(protocol, params).stages
    assert [info.slow for info in infos] == [trace.slow_regime for trace in traces]


def test_unknown_method_rejected():
    params = PhysicalParams.from_ratios(1.0, 0.5)
    protocol = builtin_protocol("linear", params)
    with pytest.raises(InvalidParameterError):
        run_protocol(protocol, params, method="eulerian")
    with pytest.raises(InvalidParameterError):
        run_protocol(protocol, params, method="time_domain", stage_time=-1.0)


def test_tshape_phase_factors_flip_three_quadratures():
    """The T-shape stages drive i times the first three rows; the squares of
    the factors are the squeeze-direction pattern (-1, -1, -1, +1)."""
    factors = np.array(STAGE_PHASE_FACTORS["tshape"])
    assert_allclose(factors**2, [-1, -1, -1, 1], atol=1e-15)
    params = PhysicalParams.from_ratios(2.0, 0.5)
    st = generated_stage("tshape", 1, omega=params.omega, r=params.r)
    report = transformed_coupling(st, builtin_transform("tshape"), params)
    # beam-splitter coupling picks up the factor i, squeezing its conjugate
    assert abs(report.beam_splitter[0] - 1j * params.beta) < 1e-12
    assert abs(report.squeezing[0] - (-1j * params.r * params.beta)) < 1e-12
