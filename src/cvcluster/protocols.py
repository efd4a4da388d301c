"""Pulse protocols that dissipatively prepare four-mode cluster states.

Each protocol rotates the four ensemble modes c_j into orthonormal combined
modes d_j = sum_k U_jk c_k and prepares them one per pulse stage: the stage
couples the cavity to exactly one combined mode through a beam-splitter
term beta a^dag d and a squeezing term r beta a^dag d^dag, and cavity decay
then drags that mode into a squeezed vacuum while the other combined modes
stay untouched.  Four stages later every combined mode is squeezed and the
ensemble state, read back in the original basis, is the target cluster
state.

Stage synthesis: driving ensemble j with amplitude 2 Omega |v_j| (u channel),
2 r Omega |v_j| (s channel) and phases arg v_j, -arg v_j makes the cavity
couple to the single combined mode d = sum_j v_j c_j with coefficients
exactly (beta, r beta), beta = sqrt(N) g Omega / Delta.

The driven vector may differ from the transform row by a unit phase factor;
its square is what matters physically (factor^2 = +1 squeezes the q
quadrature of the row mode, factor^2 = -1 the p quadrature).  The built-in
factor patterns below are fixed by the entangled states the protocols
target, and within that constraint representatives are chosen to match the
hand-transcribed reference tables (see tables.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, NonHurwitzError
from .gaussian import (
    GaussianState,
    drift_diffusion,
    evolve,
    purity,
    steady_state,
    symplectic_from_unitary,
)
from .model import (
    ConvergenceInfo,
    PhysicalParams,
    PulseStage,
    build_effective_hamiltonian,
    cavity_damping,
    convergence_eigenvalues,
    reduced_drift_diffusion,
)
from .verify import GRAPH_KINDS as PROTOCOL_KINDS, ClusterGraph, builtin_graph, nullifier_variances

#: Mode labels used by every protocol state (index 0 = cavity).
MODE_LABELS = ("cavity", "e1", "e2", "e3", "e4")

#: Relative threshold below which off-target couplings count as zero.
DECOUPLING_TOL = 1e-10

_SQRT2 = math.sqrt(2.0)
_SQRT10 = math.sqrt(10.0)

_TRANSFORMS = {
    # d_1 = -(i c1 + c2)/sqrt(2), d_2 = -(i c1 - c2 - 2i c3 - 2 c4)/sqrt(10),
    # d_3 = -(c3 + i c4)/sqrt(2), d_4 = -(2 c1 + 2i c2 + c3 - i c4)/sqrt(10)
    "linear": np.array(
        [
            [-1j / _SQRT2, -1 / _SQRT2, 0, 0],
            [-1j / _SQRT10, 1 / _SQRT10, 2j / _SQRT10, 2 / _SQRT10],
            [0, 0, -1 / _SQRT2, -1j / _SQRT2],
            [-2 / _SQRT10, -2j / _SQRT10, -1 / _SQRT10, 1j / _SQRT10],
        ]
    ),
    # d_1 = -(i c1 + i c2 + 2 c3 + 2 c4)/sqrt(10), d_2 = -i (c1 - c2)/sqrt(2),
    # d_3 = -(2 c1 + 2 c2 + i c3 + i c4)/sqrt(10), d_4 = -i (c3 - c4)/sqrt(2)
    "square": np.array(
        [
            [-1j / _SQRT10, -1j / _SQRT10, -2 / _SQRT10, -2 / _SQRT10],
            [-1j / _SQRT2, 1j / _SQRT2, 0, 0],
            [-2 / _SQRT10, -2 / _SQRT10, -1j / _SQRT10, -1j / _SQRT10],
            [0, 0, -1j / _SQRT2, 1j / _SQRT2],
        ]
    ),
    # d_1 = (sqrt(3)/2) [i c1 - (c2 + c3 + c4)/3], d_2 = sqrt(6)/3 [c2 - (c3 + c4)/2],
    # d_3 = (c3 - c4)/sqrt(2), d_4 = (i c1 + c2 + c3 + c4)/2
    "tshape": np.array(
        [
            [1j * math.sqrt(3) / 2, -math.sqrt(3) / 6, -math.sqrt(3) / 6, -math.sqrt(3) / 6],
            [0, math.sqrt(6) / 3, -math.sqrt(6) / 6, -math.sqrt(6) / 6],
            [0, 0, _SQRT2 / 2, -_SQRT2 / 2],
            [1j / 2, 0.5, 0.5, 0.5],
        ]
    ),
}

#: Unit phase factor applied to each transform row to obtain the driven
#: stage vector.  The squares (+1, +1, +1, +1) for the linear and square
#: protocols and (-1, -1, -1, +1) for the T-shape protocol select which
#: quadrature of each combined mode ends up squeezed; they are the unique
#: patterns reproducing the target nullifier variances.
STAGE_PHASE_FACTORS = {
    "linear": (1.0, 1.0, 1.0, -1.0),
    "square": (1.0, 1.0, 1.0, 1.0),
    "tshape": (1j, 1j, 1j, 1.0),
}


@dataclass(frozen=True, eq=False)
class ModeTransform:
    """Unitary mapping ensemble modes to combined modes; rows are the d-modes.

    ``symplectic`` is its quadrature map on all of MODE_LABELS (cavity fixed).
    """

    name: str
    matrix: np.ndarray
    symplectic: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidParameterError(f"transform matrix must be 4 x 4, got {m.shape}")
        extended = np.eye(5, dtype=complex)
        extended[1:, 1:] = m
        s = symplectic_from_unitary(extended, tol=1e-12)
        m = m.copy()
        for arr in (m, s):
            arr.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "symplectic", s)


def builtin_transform(kind: str) -> ModeTransform:
    if kind not in _TRANSFORMS:
        raise InvalidParameterError(
            f"unknown transform kind {kind!r}, expected one of {PROTOCOL_KINDS}"
        )
    return ModeTransform(kind, _TRANSFORMS[kind])


def stage_from_mode_vector(v, omega: float, r: float, duration: float) -> PulseStage:
    """Pulse stage that couples the cavity to the combined mode sum_j v_j c_j.

    Requires |v| = 1.  Amplitudes: Omega_u_j = 2 Omega |v_j|,
    Omega_s_j = 2 r Omega |v_j|; phases: phi_u_j = arg v_j,
    phi_s_j = -arg v_j.  The resulting couplings are (beta, r beta).
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (4,):
        raise InvalidParameterError(f"mode vector must have 4 entries, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise InvalidParameterError(f"mode vector must be normalised, |v| = {float(norm)!r}")
    if omega <= 0:
        raise InvalidParameterError(f"omega must be positive, got {omega}")
    if not 0.0 <= r < 1.0:
        raise InvalidParameterError(f"r must lie in [0, 1), got {r}")
    angles = np.where(np.abs(v) > 0, np.angle(v), 0.0)
    return PulseStage(
        omega_u=2.0 * omega * np.abs(v),
        omega_s=2.0 * r * omega * np.abs(v),
        phi_u=angles,
        phi_s=-angles,
        duration=duration,
    )


@dataclass(frozen=True)
class CouplingReport:
    """Stage Hamiltonian expressed in a combined-mode basis.

    ``beam_splitter[j]`` multiplies a^dag d_j, ``squeezing[j]`` multiplies
    a^dag d_j^dag.  ``target`` is the unique driven mode index, or None when
    the stage drives nothing or addresses several modes at once.
    """

    beam_splitter: np.ndarray
    squeezing: np.ndarray
    target: int | None


def transformed_coupling(
    stage: PulseStage, transform: ModeTransform, params: PhysicalParams
) -> CouplingReport:
    """Per-combined-mode couplings of a stage, with target identification.

    A mode counts as the unique target when every other coupling magnitude
    is below DECOUPLING_TOL times the overall coupling scale.
    """
    h = build_effective_hamiltonian(stage, params)
    u = transform.matrix
    cavity_bs = h.F[0, 1:]
    cavity_sq = h.G[0, 1:]
    beam_splitter = u.conj() @ cavity_bs
    squeezing = u @ cavity_sq
    magnitudes = np.maximum(np.abs(beam_splitter), np.abs(squeezing))
    scale = magnitudes.max()
    target: int | None = None
    if scale > 0:
        candidates = np.flatnonzero(magnitudes > DECOUPLING_TOL * scale)
        if len(candidates) == 1:
            target = int(candidates[0])
    return CouplingReport(beam_splitter, squeezing, target)


@dataclass(frozen=True, eq=False)
class Protocol:
    """Ordered pulse schedule targeting one cluster state.

    Exactly four stages, each addressing a distinct combined mode of the
    transform; ``xi`` = atanh(r) is the squeezing every stage imprints.
    """

    transform: ModeTransform
    stages: tuple[PulseStage, ...]
    graph: ClusterGraph
    xi: float

    def __post_init__(self):
        stages = tuple(self.stages)
        if len(stages) != 4:
            raise InvalidParameterError(f"a protocol needs exactly 4 stages, got {len(stages)}")
        params = PhysicalParams.from_ratios(1.0, 0.0)
        targets = []
        for k, stage in enumerate(stages):
            report = transformed_coupling(stage, self.transform, params)
            if report.target is None:
                raise InvalidParameterError(f"stage {k + 1} does not address a single combined mode")
            targets.append(report.target)
        if len(set(targets)) != 4:
            raise InvalidParameterError(f"stages must target distinct combined modes, got {targets}")
        object.__setattr__(self, "stages", stages)


def builtin_protocol(
    kind: str, params: PhysicalParams, stage_time: float | None = None
) -> Protocol:
    """Four-stage schedule for the linear, square or T-shape cluster state.

    ``stage_time`` defaults to 4 / kappa, comfortably past the stage
    relaxation time in the underdamped regime.
    """
    transform = builtin_transform(kind)
    duration = stage_time if stage_time is not None else 4.0 / params.kappa
    factors = STAGE_PHASE_FACTORS[kind]
    stages = tuple(
        stage_from_mode_vector(factors[j] * transform.matrix[j], params.omega, params.r, duration)
        for j in range(4)
    )
    return Protocol(transform, stages, builtin_graph(kind), params.xi)


@dataclass(frozen=True)
class StageTrace:
    """Diagnostics recorded after each completed stage."""

    index: int
    target_mode: int
    beam_splitter: complex
    squeezing: complex
    slow_regime: bool
    nullifier_variances: np.ndarray
    ensemble_purity: float
    cavity_cross_norm: float


@dataclass(frozen=True)
class ProtocolRun:
    """Final five-mode state plus per-stage trace and warnings."""

    final_state: GaussianState
    stages: tuple[StageTrace, ...]
    warnings: tuple[str, ...]

    @property
    def ensemble_state(self) -> GaussianState:
        return self.final_state.marginal(MODE_LABELS[1:])


def _stage_coupling(
    stage: PulseStage, transform: ModeTransform, params: PhysicalParams
) -> tuple[int, complex, complex]:
    """Target mode of a protocol stage and its couplings (bs, sq) under ``params``.

    ``Protocol`` guarantees a single target, and ``params`` only rescales
    every coupling by the positive ``hamiltonian_prefactor``, so the target
    found at construction is the target here.
    """
    report = transformed_coupling(stage, transform, params)
    target = report.target
    return target, complex(report.beam_splitter[target]), complex(report.squeezing[target])


def _stage_convergence(k: int, bs: complex, sq: complex, kappa: float) -> ConvergenceInfo:
    """Relaxation spectrum of stage k + 1, whose target couplings are (bs, sq).

    The reduced pair is the two-mode model at beta = |bs|, r = |sq| / |bs|.
    Raises NonHurwitzError naming the stage when |sq| >= |bs|: the stage
    squeezes at least as strongly as it swaps, and the pair has no steady
    state.
    """
    if abs(sq) >= abs(bs):
        eigvals = np.linalg.eigvals(reduced_drift_diffusion(bs, sq, kappa).A)
        raise NonHurwitzError(
            f"stage {k + 1} has no steady state", eigvals[np.argmax(eigvals.real)]
        )
    beta = abs(bs)
    return convergence_eigenvalues(beta, abs(sq) / beta, kappa)


def run_protocol(
    protocol: Protocol,
    params: PhysicalParams,
    method: str = "lyapunov_sequential",
    stage_time: float | None = None,
) -> ProtocolRun:
    """Run all four stages starting from the global vacuum.

    ``lyapunov_sequential`` replaces each stage by the exact steady state
    of the damped cavity + target-mode pair in the combined-mode frame
    (exact because the stages decouple); ``time_domain`` integrates the
    full five-mode moment equations for ``stage_time`` per stage (default:
    each stage's own duration).

    Each stage validates exactly one state, the new five-mode state (on
    construction, or inside ``evolve``); its diagnostics read that state's
    arrays without building marginals.  Raises NonHurwitzError naming the
    stage when a stage cannot relax, and UnphysicalStateError when a stage
    leaves an unphysical state; collects slow-regime warnings for every
    stage that is not underdamped (beta_eff sqrt(1 - r_eff^2) <= kappa/2,
    or |sq| >= |bs|: no steady state).
    """
    if method not in ("lyapunov_sequential", "time_domain"):
        raise InvalidParameterError(f"unknown method {method!r}")
    state = GaussianState.vacuum(MODE_LABELS)
    s_ext = protocol.transform.symplectic
    kappa = params.kappa
    traces: list[StageTrace] = []
    warnings: list[str] = []
    for k, stage in enumerate(protocol.stages):
        target, bs, sq = _stage_coupling(stage, protocol.transform, params)
        try:
            slow = _stage_convergence(k, bs, sq, kappa).slow
        except NonHurwitzError:
            if method == "lyapunov_sequential":
                raise
            slow = True  # the time-domain method evolves it all the same
        if slow:
            warnings.append(
                f"stage {k + 1}: slow regime, effective coupling gap "
                f"{math.sqrt(max(abs(bs) ** 2 - abs(sq) ** 2, 0.0)):.4g} <= kappa/2 = {kappa / 2:.4g}"
            )
        if method == "lyapunov_sequential":
            try:
                sigma_pair = steady_state(reduced_drift_diffusion(bs, sq, kappa))
            except NonHurwitzError as exc:
                raise NonHurwitzError(
                    f"stage {k + 1} has no steady state", exc.eigenvalue
                ) from exc
            cov_d = s_ext @ state.cov @ s_ext.T
            mean_d = s_ext @ state.mean
            pair = [0, 1, 2 * (target + 1), 2 * (target + 1) + 1]
            rest = [i for i in range(10) if i not in pair]
            cov_d[np.ix_(pair, rest)] = 0.0
            cov_d[np.ix_(rest, pair)] = 0.0
            cov_d[np.ix_(pair, pair)] = sigma_pair
            mean_d[pair] = 0.0
            state = GaussianState(MODE_LABELS, s_ext.T @ mean_d, s_ext.T @ cov_d @ s_ext)
        else:
            duration = stage_time if stage_time is not None else stage.duration
            if duration <= 0:
                raise InvalidParameterError(f"stage_time must be positive, got {duration}")
            dd = drift_diffusion(
                build_effective_hamiltonian(stage, params), cavity_damping(kappa, 5)
            )
            state = evolve(state, dd, duration)
        traces.append(
            StageTrace(
                index=k + 1,
                target_mode=target,
                beam_splitter=bs,
                squeezing=sq,
                slow_regime=slow,
                nullifier_variances=nullifier_variances(state, protocol.graph),
                ensemble_purity=purity(state.cov[2:, 2:]),
                cavity_cross_norm=float(np.abs(state.cov[:2, 2:]).max()),
            )
        )
    return ProtocolRun(state, tuple(traces), tuple(warnings))


def stage_relaxation(protocol: Protocol, params: PhysicalParams):
    """Convergence info of every stage (analytic eigenvalues and time scale).

    Each stage's target couplings come from one ``transformed_coupling``
    call, as in ``run_protocol``.  Raises NonHurwitzError naming the stage,
    as ``run_protocol`` does, when a stage squeezes at least as strongly as
    it swaps (|sq| >= |bs|): its reduced pair has no steady state.
    """
    couplings = (_stage_coupling(stage, protocol.transform, params) for stage in protocol.stages)
    return [_stage_convergence(k, bs, sq, params.kappa) for k, (_, bs, sq) in enumerate(couplings)]
