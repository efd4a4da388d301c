"""Physical model: laser/cavity parameters to effective quadratic dynamics.

Four atomic ensembles sit in a single-mode ring cavity.  Each ensemble j is
driven by two laser fields with Rabi amplitudes Omega_u_j, Omega_s_j and
phases phi_u_j, phi_s_j.  In the dispersive regime the collective spin of
each ensemble behaves as a bosonic mode c_j, and the interaction reduces to

    H = (sqrt(N) g / 2 Delta) * sum_j [ Omega_u_j (e^{i phi_u_j} a^dag c_j + h.c.)
                                      + Omega_s_j (e^{i phi_s_j} a^dag c_j^dag + h.c.) ]

i.e. tunable beam-splitter and squeezing couplings between the cavity mode
``a`` and the ensemble modes.  All protocol-level quantities depend only on
the ratios beta/kappa and r, with beta = sqrt(N) g Omega / Delta; SI units
enter only through the two estimator helpers at the bottom.

Cavity decay convention: ``kappa`` is the field (amplitude) decay rate, half
the photon-number decay rate.  The matching Lindblad dissipator is therefore
2 kappa * D[a], and the cavity + single-combined-mode dynamics has drift
eigenvalues -kappa/2 +- sqrt((kappa/2)^2 - beta^2 (1 - r^2)), each twice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .gaussian import DriftDiffusion, QuadraticHamiltonian, drift_diffusion

TWO_PI = 2.0 * math.pi

#: Speed of light in vacuum, m/s (exact by the SI definition of the metre).
SPEED_OF_LIGHT = 299_792_458.0


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PhysicalParams:
    """Operating point of the cavity-ensemble system.

    g : atom-cavity coupling (rate); delta : laser detuning from the atomic
    lines (rate); n_atoms : atoms per ensemble; kappa : cavity field decay
    (rate); omega : Rabi-amplitude scale (rate); r : squeezing-drive to
    beam-splitter-drive ratio, in [0, 1).  r = 0 switches the squeezing
    drives off (useful for diagnostics; the protocols then prepare vacuum).
    """

    g: float
    delta: float
    n_atoms: int
    kappa: float
    omega: float
    r: float

    def __post_init__(self):
        for name in ("g", "delta", "n_atoms", "kappa", "omega", "r"):
            _require_finite(name, getattr(self, name))
        for name in ("g", "delta", "kappa", "omega"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_atoms < 1:
            raise InvalidParameterError(f"n_atoms must be at least 1, got {self.n_atoms}")
        if not 0.0 <= self.r < 1.0:
            raise InvalidParameterError(f"r must lie in [0, 1), got {self.r}")
        # finite inputs can still overflow the derived coupling scales
        for name in ("beta", "hamiltonian_prefactor"):
            _require_finite(name, getattr(self, name))

    @classmethod
    def from_ratios(cls, beta: float, r: float, kappa: float = 1.0) -> "PhysicalParams":
        """Dimensionless operating point with the given beta/kappa and r."""
        _require_finite("beta", beta)
        if beta <= 0:
            raise InvalidParameterError(f"beta must be positive, got {beta}")
        return cls(g=1.0, delta=1.0, n_atoms=1, kappa=kappa, omega=beta, r=r)

    @property
    def beta(self) -> float:
        """Collective coupling scale beta = sqrt(N) g Omega / Delta."""
        return math.sqrt(self.n_atoms) * self.g * self.omega / self.delta

    @property
    def xi(self) -> float:
        """Squeezing parameter atanh(r) of the prepared states."""
        return math.atanh(self.r)

    @property
    def hamiltonian_prefactor(self) -> float:
        """sqrt(N) g / (2 Delta), multiplying every Rabi amplitude."""
        return math.sqrt(self.n_atoms) * self.g / (2.0 * self.delta)


@dataclass(frozen=True, eq=False)
class PulseStage:
    """One piecewise-constant pulse: per-ensemble amplitudes and phases.

    Amplitudes are nonnegative rates, phases are stored reduced to
    [0, 2 pi).  ``verbatim`` marks hand-transcribed reference tables kept
    exactly as printed (including suspected misprints).
    """

    omega_u: np.ndarray
    omega_s: np.ndarray
    phi_u: np.ndarray
    phi_s: np.ndarray
    duration: float
    verbatim: bool = False

    def __post_init__(self):
        for name in ("omega_u", "omega_s", "phi_u", "phi_s"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (4,):
                raise InvalidParameterError(f"{name} must be a 4-vector, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise InvalidParameterError(f"{name} must be finite, got {arr.tolist()}")
            if name.startswith("omega") and (arr < 0).any():
                raise InvalidParameterError(f"{name} must be nonnegative")
            if name.startswith("phi"):
                arr = np.mod(arr, TWO_PI)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        _require_finite("duration", self.duration)
        if self.duration <= 0:
            raise InvalidParameterError(f"duration must be positive, got {self.duration}")


def build_effective_hamiltonian(stage: PulseStage, params: PhysicalParams) -> QuadraticHamiltonian:
    """Five-mode quadratic Hamiltonian of one pulse stage.

    Mode 0 is the cavity, modes 1..4 the ensembles.  Only cavity-ensemble
    entries are nonzero; the diagonal free energies vanish on resonance
    with the shifted lines.
    """
    pref = params.hamiltonian_prefactor
    f = np.zeros((5, 5), dtype=complex)
    g = np.zeros((5, 5), dtype=complex)
    for j in range(4):
        f[0, j + 1] = pref * stage.omega_u[j] * cmath.exp(1j * stage.phi_u[j])
        f[j + 1, 0] = np.conj(f[0, j + 1])
        g[0, j + 1] = pref * stage.omega_s[j] * cmath.exp(1j * stage.phi_s[j])
        g[j + 1, 0] = g[0, j + 1]
    return QuadraticHamiltonian(f, g)


def cavity_damping(kappa: float, n_modes: int = 5) -> np.ndarray:
    """Per-mode Lindblad rates for cavity loss, 2 kappa on mode 0.

    kappa is the field decay rate (half-width); the gamma * D[a]
    normalisation used by drift_diffusion therefore takes gamma = 2 kappa.
    """
    if kappa < 0:
        raise InvalidParameterError(f"kappa must be nonnegative, got {kappa}")
    rates = np.zeros(n_modes)
    rates[0] = 2.0 * kappa
    return rates


def reduced_drift_diffusion(
    bs_coupling: complex, sq_coupling: complex, kappa: float
) -> DriftDiffusion:
    """Moment generator of the damped cavity + one combined mode d.

    H = bs a^dag d + sq a^dag d^dag + h.c., with cavity loss 2 kappa D[a].
    """
    f = np.array([[0.0, bs_coupling], [np.conj(bs_coupling), 0.0]])
    g = np.array([[0.0, sq_coupling], [sq_coupling, 0.0]])
    return drift_diffusion(QuadraticHamiltonian(f, g), cavity_damping(kappa, 2))


def two_mode_drift_diffusion(beta: float, r: float, kappa: float) -> DriftDiffusion:
    """Moment generator of the damped cavity + combined mode model."""
    return reduced_drift_diffusion(beta, r * beta, kappa)


@dataclass(frozen=True)
class ConvergenceInfo:
    """Relaxation spectrum of one preparation stage."""

    lambda_plus: complex
    lambda_minus: complex
    time_to_steady: float
    regime: str  # "underdamped" | "critical" | "slow" | "no-preparation"

    @property
    def slow(self) -> bool:
        """Every stage that is not underdamped, the critical one included."""
        return self.regime != "underdamped"


def convergence_eigenvalues(beta: float, r: float, kappa: float) -> ConvergenceInfo:
    """Drift eigenvalues lambda_+- = -kappa/2 +- sqrt((kappa/2)^2 - beta^2 (1-r^2)).

    When beta sqrt(1-r^2) > kappa/2 the stage is underdamped, relaxes on
    the 2/kappa scale and a pulse length of 4/kappa is comfortably past
    steady state.  Otherwise the slow eigenvalue dictates the time scale
    (8 / |Re lambda_slow|) and the stage is flagged.
    """
    if kappa <= 0:
        raise InvalidParameterError(f"kappa must be positive, got {kappa}")
    if not 0.0 <= r < 1.0:
        raise InvalidParameterError(f"r must lie in [0, 1), got {r}")
    if beta < 0:
        raise InvalidParameterError(f"beta must be nonnegative, got {beta}")
    half = kappa / 2.0
    disc = half**2 - beta**2 * (1.0 - r**2)
    root = cmath.sqrt(disc)
    lam_p = -half + root
    lam_m = -half - root
    if disc < 0:
        return ConvergenceInfo(lam_p, lam_m, 4.0 / kappa, "underdamped")
    if disc == 0:
        return ConvergenceInfo(lam_p, lam_m, 8.0 / half, "critical")
    slow_re = abs(max(lam_p.real, lam_m.real))
    if slow_re == 0:
        return ConvergenceInfo(lam_p, lam_m, math.inf, "no-preparation")
    return ConvergenceInfo(lam_p, lam_m, 8.0 / slow_re, "slow")


def cavity_decay_from_finesse(finesse: float, round_trip_length: float) -> float:
    """Cavity decay rate (angular) from finesse and round-trip length.

    kappa = 2 pi * FSR / finesse with FSR = c / L.
    """
    if finesse <= 0 or round_trip_length <= 0:
        raise InvalidParameterError("finesse and round_trip_length must be positive")
    fsr = SPEED_OF_LIGHT / round_trip_length
    return TWO_PI * fsr / finesse


def effective_spontaneous_rate(gamma_over_2pi: float, drive_ratio: float) -> float:
    """Residual spontaneous-emission rate of the off-resonant drives (Hz).

    gamma_eff = (1/4) (gamma / 2 pi) (Omega / Delta)^2.
    """
    if gamma_over_2pi < 0 or drive_ratio < 0:
        raise InvalidParameterError("inputs must be nonnegative")
    return 0.25 * gamma_over_2pi * drive_ratio**2
