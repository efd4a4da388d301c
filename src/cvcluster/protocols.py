"""Pulse protocols that dissipatively prepare four-mode cluster states.

Each protocol rotates the four ensemble modes c_j into orthonormal combined
modes d_j = sum_k U_jk c_k and prepares them one per pulse stage: the stage
couples the cavity to exactly one combined mode through a beam-splitter
term beta a^dag d and a squeezing term r beta a^dag d^dag, and cavity decay
then drags that mode into a squeezed vacuum while the other combined modes
stay untouched.  Four stages later every combined mode is squeezed and the
ensemble state, read back in the original basis, is the target cluster
state.  ``run_protocol`` follows that picture: it holds the state in the
combined-mode frame for all four stages, under either method, and rotates
it back to the ensemble basis once.

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
    UNITARITY_TOL,
    GaussianState,
    evolve,
    purity,
    steady_state,
    symplectic_from_unitary,
)
from .model import (
    PhysicalParams,
    PulseStage,
    convergence_eigenvalues,
    reduced_drift_diffusion,
)
from .verify import GRAPH_KINDS as PROTOCOL_KINDS
from .verify import ClusterGraph, builtin_graph, nullifier_coefficients

#: Legend of a protocol state's modes by position (0 = cavity), printed in results.
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

    ``symplectic`` is its quadrature map on all five modes (cavity, mode 0, fixed).
    """

    matrix: np.ndarray
    symplectic: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidParameterError(f"transform matrix must be 4 x 4, got {m.shape}")
        extended = np.eye(5, dtype=complex)
        extended[1:, 1:] = m
        s = symplectic_from_unitary(extended)
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
    return ModeTransform(_TRANSFORMS[kind])


def stage_from_mode_vector(v, omega: float, r: float, duration: float) -> PulseStage:
    """Pulse stage that couples the cavity to the combined mode sum_j v_j c_j.

    Requires |v| = 1 to UNITARITY_TOL.  Amplitudes: Omega_u_j = 2 Omega |v_j|,
    Omega_s_j = 2 r Omega |v_j|; phases: phi_u_j = arg v_j,
    phi_s_j = -arg v_j.  The resulting couplings are (beta, r beta).
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (4,):
        raise InvalidParameterError(f"mode vector must have 4 entries, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidParameterError("mode vector must be finite")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > UNITARITY_TOL:
        raise InvalidParameterError(f"mode vector must be normalised, |v| = {float(norm)!r}")
    if not (math.isfinite(omega) and omega > 0):
        raise InvalidParameterError(f"omega must be positive and finite, got {omega}")
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


def transformed_coupling(stage: PulseStage, transform: ModeTransform) -> CouplingReport:
    """Per-combined-mode couplings of a stage, with target identification.

    The stage's cavity-ensemble ``couplings`` (bs, sq) become U^* bs and
    U sq on the combined modes d = U c.  A mode counts as the unique target
    when every other coupling magnitude is below DECOUPLING_TOL times the
    overall coupling scale.
    """
    cavity_bs, cavity_sq = stage.couplings()
    u = transform.matrix
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
    transform with |sq| < |bs| on it: a stage with |sq| >= |bs| amplifies
    whatever the cavity loss, so both methods run every Protocol.  The
    checks need no operating point: a stage's couplings depend on the stage
    alone.
    """

    transform: ModeTransform
    stages: tuple[PulseStage, ...]
    graph: ClusterGraph

    def __post_init__(self):
        stages = tuple(self.stages)
        if len(stages) != 4:
            raise InvalidParameterError(f"a protocol needs exactly 4 stages, got {len(stages)}")
        targets = []
        for k, stage in enumerate(stages):
            report = transformed_coupling(stage, self.transform)
            if report.target is None:
                raise InvalidParameterError(f"stage {k + 1} does not address a single combined mode")
            bs, sq = abs(report.beam_splitter[report.target]), abs(report.squeezing[report.target])
            if sq >= bs:
                raise InvalidParameterError(
                    f"stage {k + 1} amplifies, no steady state: |sq| = {sq:.6g} >= |bs| = {bs:.6g}"
                )
            targets.append(report.target)
        if len(set(targets)) != 4:
            raise InvalidParameterError(f"stages must target distinct combined modes, got {targets}")
        object.__setattr__(self, "stages", stages)


def builtin_protocol(
    kind: str, params: PhysicalParams, stage_time: float | None = None
) -> Protocol:
    """Four-stage schedule for the linear, square or T-shape cluster state.

    ``stage_time``, every stage's duration, must be positive and finite; it
    defaults to 4, past the relaxation time of an underdamped stage.
    """
    transform = builtin_transform(kind)
    duration = stage_time if stage_time is not None else 4.0
    factors = STAGE_PHASE_FACTORS[kind]
    stages = tuple(
        stage_from_mode_vector(factors[j] * transform.matrix[j], params.beta, params.r, duration)
        for j in range(4)
    )
    return Protocol(transform, stages, builtin_graph(kind))


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
    """Final five-mode state, not re-checked (read nu from the checked combined-mode
    ``frame_state``; see ``apply_mode_transform``), plus trace and warnings."""

    final_state: GaussianState
    frame_state: GaussianState
    stages: tuple[StageTrace, ...]
    warnings: tuple[str, ...]


def _rotated_back(state: GaussianState, s: np.ndarray) -> GaussianState:
    """S^T sigma_d S as a state, without GaussianState's second uncertainty check."""
    cov = s.T @ state.cov @ s
    cov = 0.5 * (cov + cov.T)
    cov.flags.writeable = False
    final = object.__new__(GaussianState)
    object.__setattr__(final, "cov", cov)
    return final


def run_protocol(
    protocol: Protocol, params: PhysicalParams, method: str = "lyapunov_sequential"
) -> ProtocolRun:
    """Run all four stages starting from the global vacuum.  ``params`` is not
    read: it stays for ``bench/workloads.py``, which passes it, until the
    benchmark change of ROADMAP item 2 lets a later change delete it.

    The stages run in the combined-mode frame sigma_d = S sigma S^T, S =
    ``transform.symplectic`` (orthogonal, cavity fixed), under the generator
    ``reduced_drift_diffusion`` builds from each stage's coupling report.
    ``lyapunov_sequential`` sets the cavity + target-mode pair to its exact
    steady state (exact because the stages decouple); ``time_domain``
    evolves the whole generator, no term dropped, for each stage's
    duration.  The state is rotated back once, after the last stage.

    Five states are validated, all in the frame: the vacuum and each stage
    state.  The rotation back keeps nu exactly and is not checked: on its
    sigma, of condition number e^{4 xi}, a check sees only round-off.  The
    diagnostics read the frame: nullifier weights S w, the ensemble block's
    purity and the cavity cross block rotated back.  No stage is
    rejected by method: a Protocol holds no amplifying stage.  Raises
    NonHurwitzError naming the stage when ``steady_state`` finds the
    lyapunov pair not Hurwitz (|sq| within round-off of |bs|), and
    UnphysicalStateError when a stage leaves an unphysical state; collects
    slow-regime warnings for every stage that is not underdamped
    (beta_eff sqrt(1 - r_eff^2) <= 1/2, see ``convergence_eigenvalues``).
    """
    if method not in ("lyapunov_sequential", "time_domain"):
        raise InvalidParameterError(f"unknown method {method!r}")
    s = protocol.transform.symplectic
    nullifiers = np.array([nullifier_coefficients(protocol.graph, a) for a in range(4)])
    weights = s[2:, 2:] @ nullifiers.T
    state = GaussianState.vacuum(5)
    traces: list[StageTrace] = []
    warnings: list[str] = []
    for k, stage in enumerate(protocol.stages):
        report = transformed_coupling(stage, protocol.transform)
        target = report.target  # never None: the couplings depend on the stage alone
        bs, sq = complex(report.beam_splitter[target]), complex(report.squeezing[target])
        slow = convergence_eigenvalues(abs(bs), abs(sq) / abs(bs)).slow
        if slow:
            warnings.append(
                f"stage {k + 1}: slow regime, effective coupling gap "
                f"{math.sqrt(abs(bs) ** 2 - abs(sq) ** 2):.4g} <= kappa/2 = 0.5"
            )
        if method == "lyapunov_sequential":
            try:
                sigma_pair = steady_state(reduced_drift_diffusion(bs, sq))
            except NonHurwitzError as exc:
                raise NonHurwitzError(
                    f"stage {k + 1} has no steady state", exc.eigenvalue
                ) from exc
            pair = [0, 1, 2 * (target + 1), 2 * (target + 1) + 1]
            cov_d = state.cov.copy()
            cov_d[pair, :] = 0.0
            cov_d[:, pair] = 0.0
            cov_d[np.ix_(pair, pair)] = sigma_pair
            state = GaussianState(cov_d)
        else:
            dd = reduced_drift_diffusion(report.beam_splitter, report.squeezing)
            state = evolve(state, dd, stage.duration)
        ensembles = state.cov[2:, 2:]
        traces.append(
            StageTrace(
                index=k + 1,
                target_mode=target,
                beam_splitter=bs,
                squeezing=sq,
                slow_regime=slow,
                nullifier_variances=np.einsum("ia,ij,ja->a", weights, ensembles, weights),
                ensemble_purity=purity(ensembles),
                cavity_cross_norm=float(np.abs(state.cov[:2, 2:] @ s[2:, 2:]).max()),
            )
        )
    return ProtocolRun(_rotated_back(state, s), state, tuple(traces), tuple(warnings))
