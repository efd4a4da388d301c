"""Gaussian states of bosonic modes and their dissipative linear dynamics.

States are parametrised by the covariance matrix of the quadratures
q_j = (a_j + a_j^dag)/sqrt(2), p_j = -i(a_j - a_j^dag)/sqrt(2), stored in
the interleaved order (q_1, p_1, ..., q_n, p_n).  With this normalisation
the vacuum has covariance I/2, so every quadrature variance is 1/2.

Every state has zero mean, so none is stored.  The protocols start from the
vacuum, the Hamiltonians are quadratic (no linear drive terms), and the only
loss is to a vacuum bath, so the mean obeys d<x>/dt = A <x> from <x> = 0 and
stays 0.

Quadratic Hamiltonians H = sum_ij F_ij a_i^dag a_j
                         + 1/2 sum_ij (G_ij a_i^dag a_j^dag + h.c.)
together with single-mode loss channels gamma_i * D[a_i] generate linear
moment equations

    d sigma/dt = A sigma + sigma A^T + D

and this module builds (A, D), integrates them exactly through a matrix
exponential, and solves for the unique steady state when A is Hurwitz.
Both need numpy alone, so importing this module loads no scipy.

Every value is immutable after construction (frozen dataclasses over
read-only arrays) and every operation is a pure function, so states and
generators are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    NonHurwitzError,
    SimulationError,
    UnphysicalStateError,
)

#: Vacuum variance of a single quadrature.
VACUUM_VARIANCE = 0.5

#: Tolerance for Hermiticity / symmetry checks on Hamiltonian matrices.
MATRIX_SYMMETRY_TOL = 1e-12

#: Symplectic eigenvalues may undershoot 1/2 by at most this much.
UNCERTAINTY_TOL = 1e-9

#: Largest Frobenius-norm deviation of U U^dag from I for a unitary mode
#: transform, and of |v| from 1 for a normalised mode vector.
UNITARITY_TOL = 1e-12

#: A is Hurwitz when every eigenvalue real part lies below this threshold.
HURWITZ_THRESHOLD = -1e-12

#: Coefficients c_j of the [6/6] Pade approximant N(X)/N(-X) of e^X, with
#: N(X) = sum_j c_j X^j.
_PADE6 = (1.0, 1 / 2, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280)

#: Largest 1-norm of the matrix handed to the Pade approximant.  Below
#: Higham's theta_6 = 0.54 (SIAM J. Matrix Anal. Appl. 26 (2005) 1179) its
#: backward error is under the double-precision unit round-off.
_PADE6_NORM = 0.5


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Omega with [x_k, x_l] = i Omega_kl, interleaved order."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Quadratic bosonic Hamiltonian in the (F, G) parametrisation.

    ``F`` (Hermitian) multiplies a_i^dag a_j and describes beam-splitter
    couplings and free rotations; ``G`` (symmetric) multiplies
    1/2 a_i^dag a_j^dag + h.c. and describes squeezing-type couplings.
    Both carry units of rate.
    """

    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.F, dtype=complex)
        G = np.asarray(self.G, dtype=complex)
        if F.ndim != 2 or F.shape[0] != F.shape[1] or F.shape != G.shape:
            raise InvalidParameterError(
                f"F and G must be square matrices of equal shape, got {F.shape} and {G.shape}"
            )
        for name, m in (("F", F), ("G", G)):
            if not np.isfinite(m).all():
                raise InvalidParameterError(f"{name} must be finite")
        herm_dev = np.abs(F - F.conj().T).max(initial=0.0)
        if herm_dev > MATRIX_SYMMETRY_TOL:
            raise InvalidParameterError(f"F is not Hermitian (deviation {herm_dev:.3e})")
        sym_dev = np.abs(G - G.T).max(initial=0.0)
        if sym_dev > MATRIX_SYMMETRY_TOL:
            raise InvalidParameterError(f"G is not symmetric (deviation {sym_dev:.3e})")
        object.__setattr__(self, "F", _readonly(F))
        object.__setattr__(self, "G", _readonly(G))

    @property
    def n_modes(self) -> int:
        return self.F.shape[0]

    def real_form(self) -> np.ndarray:
        """Return the symmetric matrix H_R with H = 1/2 x^T H_R x.

        Writing a = (q + ip)/sqrt(2) and collecting terms gives, in
        q/p block form,

            H_qq = Re F + Re G      H_qp = -Im F + Im G
            H_pq = +Im F + Im G     H_pp = Re F - Re G

        which is then interleaved to match the quadrature ordering.
        """
        n = self.n_modes
        h = np.zeros((2 * n, 2 * n))
        h[0::2, 0::2] = self.F.real + self.G.real
        h[1::2, 1::2] = self.F.real - self.G.real
        h[0::2, 1::2] = -self.F.imag + self.G.imag
        h[1::2, 0::2] = self.F.imag + self.G.imag
        return h


@dataclass(frozen=True, eq=False)
class DriftDiffusion:
    """Moment-space generator: drift matrix A and diffusion matrix D."""

    A: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        D = np.asarray(self.D, dtype=float)
        if A.shape != D.shape or A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2:
            raise InvalidParameterError(f"A, D must be equal square 2n x 2n, got {A.shape}, {D.shape}")
        for name, m in (("drift matrix A", A), ("diffusion matrix D", D)):
            if not np.isfinite(m).all():
                raise InvalidParameterError(f"{name} must be finite")
        if np.abs(D - D.T).max(initial=0.0) > MATRIX_SYMMETRY_TOL:
            raise InvalidParameterError("diffusion matrix must be symmetric")
        if np.linalg.eigvalsh(D).min() < -1e-12:
            raise InvalidParameterError("diffusion matrix must be positive semidefinite")
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "D", _readonly(0.5 * (D + D.T)))

    @property
    def n_modes(self) -> int:
        return self.A.shape[0] // 2


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Zero-mean Gaussian state given by its quadrature covariances.

    Modes are addressed by position: mode m owns rows and columns 2m, 2m + 1
    (in a protocol state mode 0 is the cavity).  The covariance matrix is
    symmetrised on construction and checked by ``symplectic_eigenvalues``
    for its shape and the uncertainty relation (all symplectic eigenvalues
    at least 1/2 up to UNCERTAINTY_TOL).
    """

    cov: np.ndarray

    def __post_init__(self):
        symplectic_eigenvalues(self.cov)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "cov", _readonly(0.5 * (cov + cov.T)))

    @classmethod
    def vacuum(cls, n_modes: int) -> "GaussianState":
        """The vacuum of ``n_modes`` modes, an int of at least 1 (a bool is not a count)."""
        if isinstance(n_modes, bool) or not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
            raise InvalidParameterError(f"n_modes must be an int of at least 1, got {n_modes!r}")
        return cls(VACUUM_VARIANCE * np.eye(2 * n_modes))

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2


def drift_diffusion(h: QuadraticHamiltonian, damping) -> DriftDiffusion:
    """Moment-space generator for Hamiltonian ``h`` plus single-mode loss.

    ``damping[i]`` is the Lindblad rate gamma_i of the dissipator
    gamma_i * D[a_i] (so the field amplitude of a lone damped mode
    relaxes at gamma_i / 2 and its covariance settles to I/2):

        A = Omega H_R - 1/2 diag(gamma, each entry twice)
        D =            1/2 diag(gamma, each entry twice)
    """
    rates = np.asarray(damping, dtype=float)
    if rates.shape != (h.n_modes,):
        raise InvalidParameterError(f"damping must have length {h.n_modes}, got {rates.shape}")
    if (rates < 0).any():
        raise InvalidParameterError("damping rates must be nonnegative")
    half = 0.5 * np.repeat(rates, 2)
    a = symplectic_form(h.n_modes) @ h.real_form() - np.diag(half)
    return DriftDiffusion(a, np.diag(half))


def _expm_pade6(m: np.ndarray) -> np.ndarray:
    """e^m through the [6/6] Pade approximant; needs ||m||_1 <= _PADE6_NORM."""
    c = _PADE6
    ident = np.eye(m.shape[0])
    m2 = m @ m
    m4 = m2 @ m2
    even = c[0] * ident + c[2] * m2 + c[4] * m4 + c[6] * (m4 @ m2)
    odd = m @ (c[1] * ident + c[3] * m2 + c[5] * m4)
    return np.linalg.solve(even - odd, even + odd)


def evolve(state: GaussianState, dd: DriftDiffusion, t: float) -> GaussianState:
    """Propagate a Gaussian state for time ``t`` under ``dd``.

    Uses the closed-form solution

        sigma(t) = Phi(t) sigma(0) Phi(t)^T + Q(t),    Phi(t) = e^{At},
        Q(t)     = int_0^t e^{As} D e^{A^T s} ds.

    The pair (Phi, Q) is found by scaling and squaring.  With k the
    smallest count for which h = t/2^k brings the 1-norm of the Van Loan
    block B = [[A, D], [0, -A^T]] times h down to 0.5, e^{Bh} comes from a
    [6/6] Pade approximant and gives Phi(h) (its upper-left block) and
    Q(h) = E_12 Phi(h)^T (E_12 its upper-right block).  Then k doublings

        Q <- Phi Q Phi^T + Q,    Phi <- Phi Phi

    reach time t.  Every term of Q is positive semidefinite, so nothing
    cancels, whereas E_12 Phi^T taken over a long stage loses digits as
    E_12 grows and Phi decays.  Raises SimulationError when the doublings
    overflow, which round-off on undamped modes brings about at huge ``t``.
    """
    if t < 0:
        raise InvalidParameterError(f"evolution time must be nonnegative, got {t}")
    if dd.n_modes != state.n_modes:
        raise InvalidParameterError(
            f"generator acts on {dd.n_modes} modes but state has {state.n_modes}"
        )
    if t == 0:
        return state
    n2 = 2 * state.n_modes
    block = np.zeros((2 * n2, 2 * n2))
    block[:n2, :n2] = dd.A
    block[:n2, n2:] = dd.D
    block[n2:, n2:] = -dd.A.T
    scaled = float(np.linalg.norm(block, 1)) * t
    if not math.isfinite(scaled):
        raise InvalidParameterError(f"evolution time {t} times the generator norm is not finite")
    k = math.ceil(math.log2(scaled / _PADE6_NORM)) if scaled > _PADE6_NORM else 0
    eb = _expm_pade6(block * math.ldexp(t, -k))
    prop = eb[:n2, :n2]
    accumulated = eb[:n2, n2:] @ prop.T
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            accumulated = prop @ accumulated @ prop.T + accumulated
            prop = prop @ prop
        cov = prop @ state.cov @ prop.T + accumulated
    if not np.isfinite(cov).all():
        raise SimulationError(
            f"propagator for evolution time {t} overflowed after {k} squarings"
        )
    return GaussianState(cov)


def steady_state(dd: DriftDiffusion) -> np.ndarray:
    """Unique covariance solving A sigma + sigma A^T + D = 0.

    The equation is linear in sigma: flattened row by row it reads
    (A kron I + I kron A) vec sigma = -vec D, a (2n)^2 system solved by
    ``numpy.linalg.solve``.  Raises NonHurwitzError when A has spectrum
    outside the open left half-plane, reporting the offending eigenvalue;
    otherwise the system is nonsingular, since its eigenvalues are the
    pairwise sums of those of A.
    """
    eigvals = np.linalg.eigvals(dd.A)
    worst = eigvals[np.argmax(eigvals.real)]
    if worst.real >= HURWITZ_THRESHOLD:
        raise NonHurwitzError("drift matrix is not Hurwitz, no steady state", worst)
    n2 = dd.A.shape[0]
    ident = np.eye(n2)
    kron_sum = np.kron(dd.A, ident) + np.kron(ident, dd.A)
    sigma = np.linalg.solve(kron_sum, -dd.D.reshape(-1)).reshape(n2, n2)
    sigma = 0.5 * (sigma + sigma.T)
    residual = np.linalg.norm(dd.A @ sigma + sigma @ dd.A.T + dd.D)
    bound = 1e-10 * (np.linalg.norm(dd.A) * np.linalg.norm(sigma) + np.linalg.norm(dd.D))
    if residual > bound:
        raise SimulationError(
            f"Lyapunov solve residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return sigma


def symplectic_from_unitary(u: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic matrix induced on quadratures by a mode unitary.

    For d_j = sum_k U_jk c_k the quadratures mix as
    q'_j = sum_k (Re U_jk q_k - Im U_jk p_k),
    p'_j = sum_k (Im U_jk q_k + Re U_jk p_k).

    Raises InvalidParameterError when U is not square or not finite, or when
    |U U^dag - I| exceeds UNITARITY_TOL.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidParameterError(f"transform must be square, got {u.shape}")
    n = u.shape[0]
    if not np.isfinite(u).all():
        raise InvalidParameterError("transform must be finite")
    deviation = float(np.linalg.norm(u @ u.conj().T - np.eye(n)))
    if deviation > UNITARITY_TOL:
        raise InvalidParameterError(f"mode transform is not unitary (deviation {deviation:.3e})")
    s = np.zeros((2 * n, 2 * n))
    s[0::2, 0::2] = u.real
    s[0::2, 1::2] = -u.imag
    s[1::2, 0::2] = u.imag
    s[1::2, 1::2] = u.real
    return s


def apply_mode_transform(state: GaussianState, u: np.ndarray) -> GaussianState:
    """Re-express ``state`` in the mode basis d = U c.

    The induced quadrature map is symplectic and orthogonal, so
    symplectic eigenvalues (hence purity) are preserved exactly.  The result
    is checked again all the same, so even the identity fails from round-off
    on a ``ProtocolRun.final_state`` at r >= 0.9999: read its ``frame_state``.
    """
    s = symplectic_from_unitary(u)
    if s.shape[0] != 2 * state.n_modes:
        raise InvalidParameterError(
            f"transform is {s.shape[0] // 2}-mode but state has {state.n_modes} modes"
        )
    return GaussianState(s @ state.cov @ s.T)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a physical covariance matrix, ascending.

    These are the moduli of the spectrum of i Omega sigma, deduplicated;
    all equal to 1/2 exactly for pure states.  ``cov`` must be finite and 2n x 2n.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 or not cov.size:
        raise InvalidParameterError(f"covariance must be a 2n x 2n matrix, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise InvalidParameterError("covariance must be finite")
    cov = 0.5 * (cov + cov.T)
    mods = np.sort(np.abs(np.linalg.eigvals(symplectic_form(cov.shape[0] // 2) @ cov)))
    nu = 0.5 * (mods[0::2] + mods[1::2])
    if nu.min() < VACUUM_VARIANCE - UNCERTAINTY_TOL:
        raise UnphysicalStateError(
            f"covariance violates the uncertainty relation (min symplectic eigenvalue {float(nu.min())!r})"
        )
    return nu


def purity(cov: np.ndarray) -> float:
    """Purity of the Gaussian state: 1 / prod(2 nu_i) = 1 / sqrt(det(2 sigma))."""
    nu = symplectic_eigenvalues(cov)
    return float(1.0 / np.prod(2.0 * nu))
