"""Physical model: the operating point (beta, r, kappa) to effective quadratic dynamics.

Four atomic ensembles sit in a single-mode ring cavity.  Each ensemble j is
driven by two laser fields with Rabi amplitudes Omega_u_j, Omega_s_j and
phases phi_u_j, phi_s_j.  In the dispersive regime the collective spin of
each ensemble behaves as a bosonic mode c_j, and the interaction reduces to

    H = (sqrt(N) g / 2 Delta) * sum_j [ Omega_u_j (e^{i phi_u_j} a^dag c_j + h.c.)
                                      + Omega_s_j (e^{i phi_s_j} a^dag c_j^dag + h.c.) ]

i.e. tunable beam-splitter and squeezing couplings between the cavity mode
``a`` and the ensemble modes.  Rabi amplitudes are measured in units of
Delta / (sqrt(N) g), so the prefactor is 1/2 and the coupling scale
beta = sqrt(N) g Omega / Delta is the amplitude scale Omega itself: the
stage builders take beta as Omega.  Every protocol quantity then depends
only on beta/kappa and r; SI units enter only through the two estimators.

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

    beta : collective coupling scale sqrt(N) g Omega / Delta (rate); r :
    squeezing-drive to beam-splitter-drive ratio, in [0, 1); kappa : cavity
    field decay (rate).  r = 0 switches the squeezing drives off (useful
    for diagnostics; the protocols then prepare vacuum).
    """

    beta: float
    r: float
    kappa: float

    def __post_init__(self):
        for name in ("beta", "r", "kappa"):
            _require_finite(name, getattr(self, name))
        for name in ("beta", "kappa"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.r < 1.0:
            raise InvalidParameterError(f"r must lie in [0, 1), got {self.r}")

    @classmethod
    def from_ratios(cls, beta: float, r: float, kappa: float = 1.0) -> "PhysicalParams":
        """The constructor, kappa 1 by default; the benchmark's sweep reference calls it."""
        return cls(beta, r, kappa)

    @property
    def xi(self) -> float:
        """Squeezing parameter atanh(r) of the prepared states."""
        return math.atanh(self.r)


@dataclass(frozen=True, eq=False)
class PulseStage:
    """One piecewise-constant pulse: per-ensemble amplitudes and phases.

    Amplitudes are nonnegative rates, phases are stored reduced to
    [0, 2 pi).
    """

    omega_u: np.ndarray
    omega_s: np.ndarray
    phi_u: np.ndarray
    phi_s: np.ndarray
    duration: float

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

    def couplings(self) -> tuple[np.ndarray, np.ndarray]:
        """Cavity-ensemble couplings (bs, sq): bs_j multiplies a^dag c_j and
        sq_j multiplies a^dag c_j^dag, each 1/2 (the module's prefactor in
        its units) times amplitude times e^{i phase}."""
        return (
            0.5 * self.omega_u * np.exp(1j * self.phi_u),
            0.5 * self.omega_s * np.exp(1j * self.phi_s),
        )


def _cavity_hamiltonian(bs: np.ndarray, sq: np.ndarray) -> QuadraticHamiltonian:
    """H = sum_j (bs_j a^dag m_j + sq_j a^dag m_j^dag) + h.c., cavity a = mode 0."""
    n = bs.size + 1
    f = np.zeros((n, n), dtype=complex)
    g = np.zeros((n, n), dtype=complex)
    f[0, 1:], f[1:, 0] = bs, bs.conj()
    g[0, 1:] = g[1:, 0] = sq
    return QuadraticHamiltonian(f, g)


def build_effective_hamiltonian(stage: PulseStage) -> QuadraticHamiltonian:
    """Five-mode quadratic Hamiltonian of one pulse stage.

    Mode 0 is the cavity, modes 1..4 the ensembles.  Only row and column 0,
    the stage's ``couplings``, are nonzero; the diagonal free energies
    vanish on resonance with the shifted lines.
    """
    return _cavity_hamiltonian(*stage.couplings())


def reduced_drift_diffusion(bs_coupling, sq_coupling, kappa: float) -> DriftDiffusion:
    """Moment generator of the damped cavity + combined modes d_j.

    H = sum_j (bs_j a^dag d_j + sq_j a^dag d_j^dag) + h.c., with cavity loss
    2 kappa D[a]: Lindblad rate 2 kappa on the cavity (mode 0), 0 on every
    d_j.  Scalars give one mode d, 4-vectors all four (a stage in the
    combined-mode frame).  ``drift_diffusion`` rejects a negative kappa and
    ``DriftDiffusion`` a NaN or infinite one.
    """
    bs = np.atleast_1d(bs_coupling).astype(complex)
    sq = np.atleast_1d(sq_coupling).astype(complex)
    rates = np.concatenate(([2.0 * kappa], np.zeros(bs.size)))
    return drift_diffusion(_cavity_hamiltonian(bs, sq), rates)


def two_mode_drift_diffusion(beta: float, r: float, kappa: float) -> DriftDiffusion:
    """Moment generator of the damped cavity + combined mode model."""
    return reduced_drift_diffusion(beta, r * beta, kappa)


@dataclass(frozen=True)
class ConvergenceInfo:
    """Relaxation spectrum of one preparation stage."""

    lambda_plus: complex
    lambda_minus: complex
    regime: str  # "underdamped" | "critical" | "slow" | "no-preparation"

    @property
    def slow(self) -> bool:
        """Every stage that is not underdamped, the critical one included."""
        return self.regime != "underdamped"


def convergence_eigenvalues(beta: float, r: float, kappa: float) -> ConvergenceInfo:
    """Drift eigenvalues lambda_+- = -kappa/2 +- sqrt((kappa/2)^2 - beta^2 (1-r^2)).

    The regime is "underdamped" when beta sqrt(1-r^2) > kappa/2 (complex
    pair), "critical" at equality, "slow" below it, and "no-preparation"
    when the slow eigenvalue is 0.  Raises InvalidParameterError when beta
    or kappa is so large that its square is not finite.
    """
    beta, kappa = float(beta), float(kappa)
    for name, value in (("beta", beta), ("kappa", kappa)):
        _require_finite(name, value)
        if not math.isfinite(value * value):
            raise InvalidParameterError(f"{name} = {value} is too large: its square is not finite")
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
        return ConvergenceInfo(lam_p, lam_m, "underdamped")
    if disc == 0:
        return ConvergenceInfo(lam_p, lam_m, "critical")
    if max(lam_p.real, lam_m.real) == 0:
        return ConvergenceInfo(lam_p, lam_m, "no-preparation")
    return ConvergenceInfo(lam_p, lam_m, "slow")


def cavity_decay_from_finesse(finesse: float, round_trip_length: float) -> float:
    """Cavity decay rate (angular) from finesse and round-trip length.

    kappa = 2 pi * FSR / finesse with FSR = c / L.
    """
    for name, value in (("finesse", finesse), ("round_trip_length", round_trip_length)):
        _require_finite(name, value)
        if value <= 0:
            raise InvalidParameterError(f"{name} must be positive, got {value}")
    fsr = SPEED_OF_LIGHT / round_trip_length
    return TWO_PI * fsr / finesse


def effective_spontaneous_rate(gamma_over_2pi: float, drive_ratio: float) -> float:
    """Residual spontaneous-emission rate of the off-resonant drives (Hz).

    gamma_eff = (1/4) (gamma / 2 pi) (Omega / Delta)^2.
    """
    for name, value in (("gamma_over_2pi", gamma_over_2pi), ("drive_ratio", drive_ratio)):
        _require_finite(name, value)
        if value < 0:
            raise InvalidParameterError(f"{name} must be nonnegative, got {value}")
    return 0.25 * gamma_over_2pi * drive_ratio**2
