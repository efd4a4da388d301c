"""Brute-force number-state oracle for the cavity + combined-mode model.

Integrates the two-mode master equation

    drho/dt = -i [beta (a^dag d + r a^dag d^dag) + h.c., rho]
              + 2 kappa (a rho a^dag - 1/2 {a^dag a, rho})

in a truncated Fock basis by applying the exact propagator of the
generator, to float64 roundoff, and extracts quadrature moments from the
density matrix.  Its only approximation is the truncation.  Entirely
independent of the Gaussian solver (no shared dynamics code), which makes
it a cross-check: for moderate r and adequate cutoffs every covariance
entry must match the Gaussian evolution.

The basis is the excitation-number simplex: the number states with
n_a / cutoff_a + n_d / cutoff_d <= 1, i.e. n_a + n_d <= N for equal
cutoffs N (231 of the 441 square-basis states at N = 20).  It suffices
because the pair term a^dag d^dag creates photons in both modes at once
and a^dag d only moves them between modes: the population falls off with
the total photon number n_a + n_d, so a square basis n_a, n_d <= N spends
nearly half its states on pairs like (15, 15) that stay empty long after
the states n_a + n_d = N fill.  The simplex is closed under a and d.  Its
boundary, the retained states that a^dag or d^dag maps out of it, carries
the population the truncation would lose next, and that population is
checked against ``leakage_guard``.

Only the parity sector of rho is integrated: the entries |m><n| whose ket
and bra have the same parity of n_a + n_d.  a^dag d, a^dag d^dag and their
conjugates change n_a + n_d by 0 or +-2, and the jump a rho a^dag lowers
ket and bra together, so the generator never couples an entry inside the
sector to one outside it (a weak symmetry of the Lindblad generator).  The
vacuum lies in the sector, so every entry outside it stays exactly zero,
and the sector alone is the same computation with the zeros left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CutoffTooSmallError, InvalidParameterError, UnphysicalStateError

#: Longest interval between leakage-guard checks; a power of two, so
#: t_final / _INTERVAL is exact.
_INTERVAL = 0.25


@dataclass(frozen=True)
class FockConfig:
    """Truncated-basis integration settings.

    ``cutoff_a`` / ``cutoff_d`` are the largest retained photon numbers of
    each mode, reached when the other mode is empty: the basis keeps the
    states with n_a / cutoff_a + n_d / cutoff_d <= 1.  ``leakage_guard``
    bounds the population allowed on the boundary of that simplex before
    the run aborts.  There is no time-step setting: the propagator is
    exact, and the guard is checked after each of ceil(t_final / 0.25)
    equal intervals.
    """

    beta: float
    r: float
    kappa: float
    t_final: float
    cutoff_a: int = 20
    cutoff_d: int = 20
    leakage_guard: float = 1e-6

    def __post_init__(self):
        for name in ("beta", "kappa", "t_final"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.cutoff_a < 4 or self.cutoff_d < 4:
            raise InvalidParameterError("cutoffs must be at least 4")
        if not 0.0 < self.leakage_guard < 1.0:
            raise InvalidParameterError("leakage_guard must lie in (0, 1)")
        if not 0.0 <= self.r < 1.0:
            raise InvalidParameterError(f"r must lie in [0, 1), got {self.r}")
        if self.beta < 0 or self.kappa < 0:
            raise InvalidParameterError("beta and kappa must be nonnegative")
        if self.t_final < 0:
            raise InvalidParameterError("t_final must be nonnegative")


def destroy(dim: int) -> sp.csr_matrix:
    """Annihilation operator on a dim-dimensional number basis."""
    return sp.diags(np.sqrt(np.arange(1, dim)), 1, format="csr").astype(complex)


def quadrature_operators(dims) -> list[sp.csr_matrix]:
    """Sparse (q_1, p_1, q_2, p_2, ...) operators on the tensor space."""
    ops = []
    eyes = [sp.identity(d, format="csr", dtype=complex) for d in dims]
    for mode, dim in enumerate(dims):
        a_local = destroy(dim)
        factors_a = [a_local if m == mode else eyes[m] for m in range(len(dims))]
        a = factors_a[0]
        for f in factors_a[1:]:
            a = sp.kron(a, f, format="csr")
        ops.append(((a + a.conj().T) / np.sqrt(2)).tocsr())
        ops.append((-1j * (a - a.conj().T) / np.sqrt(2)).tocsr())
    return ops


def covariance_from_density(rho: np.ndarray, dims) -> np.ndarray:
    """Quadrature covariance matrix of a density matrix over the given modes.

    Symmetrised second moments, same vacuum-variance-1/2 convention as the
    Gaussian layer.  Validates trace, Hermiticity and positivity first.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise InvalidParameterError(f"rho must be {total} x {total} for dims {dims}")
    return _moments(rho, dims)[1]


def _moments(rho: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Validated quadrature means and covariance of a density matrix."""
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise UnphysicalStateError(f"trace(rho) = {np.trace(rho)!r}, expected 1")
    if np.abs(rho - rho.conj().T).max() > 1e-8:
        raise UnphysicalStateError("rho is not Hermitian")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-9:
        raise UnphysicalStateError("rho has a significantly negative eigenvalue")

    def expectation(x) -> float:
        # tr(x rho) = sum over the nonzeros x[l, k] of x[l, k] rho[k, l]
        x = x.tocoo()
        return float((x.data * rho[x.col, x.row]).sum().real)

    quads = quadrature_operators(dims)
    means = np.array([expectation(x) for x in quads])
    n2 = len(quads)
    cov = np.empty((n2, n2))
    for i in range(n2):
        for j in range(i, n2):
            # Re <x_j x_i> is the symmetrised moment for Hermitian operators
            sym = expectation(quads[j] @ quads[i])
            cov[i, j] = cov[j, i] = sym - means[i] * means[j]
    return means, cov


def _simplex(cutoff_a: int, cutoff_d: int) -> tuple[np.ndarray, np.ndarray]:
    """The retained number states and their boundary.

    Returns the ascending square-basis indices n_a * (cutoff_d + 1) + n_d
    of the states with n_a * cutoff_d + n_d * cutoff_a <= cutoff_a *
    cutoff_d, and a mask over them of the boundary: the states that a^dag
    or d^dag maps out of the basis (n_a + n_d = N for equal cutoffs N).
    """

    def retained(n_a, n_d):
        return n_a * cutoff_d + n_d * cutoff_a <= cutoff_a * cutoff_d

    n_a, n_d = np.divmod(np.arange((cutoff_a + 1) * (cutoff_d + 1)), cutoff_d + 1)
    basis = np.flatnonzero(retained(n_a, n_d))
    n_a, n_d = n_a[basis], n_d[basis]
    boundary = ~(retained(n_a + 1, n_d) & retained(n_a, n_d + 1))
    return basis, boundary


def _liouvillian(config: FockConfig, basis: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """Generator on the parity sector of row-major vec(rho), and the sector.

    rho lives on the retained states ``basis`` (see ``_simplex``): ``a``,
    ``h`` and ``a^dag a`` are built on the square basis and restricted to
    them, which drops the transitions out of the simplex.  ``keep`` holds the ascending flat
    indices i * n + j of the n x n restricted rho whose ket i and bra j
    have the same parity of n_a + n_d.  Each superoperator term is
    restricted to ``[keep][:, keep]`` before the terms are summed: every
    term maps the sector into itself, so each row keeps the values and the
    column order of the whole-basis generator's row, and a matvec does the
    same floating-point sums as on the whole vector.
    """
    da, dd = config.cutoff_a + 1, config.cutoff_d + 1

    def restrict(op):
        return op.tocsr()[basis][:, basis]

    a = sp.kron(destroy(da), sp.identity(dd, format="csr", dtype=complex), format="csr")
    d = sp.kron(sp.identity(da, format="csr", dtype=complex), destroy(dd), format="csr")
    h = config.beta * (a.conj().T @ d + config.r * (a.conj().T @ d.conj().T))
    h = restrict(h + h.conj().T)
    number_a = restrict(a.conj().T @ a)
    a = restrict(a)
    gamma = 2.0 * config.kappa
    eye = sp.identity(basis.size, format="csr", dtype=complex)
    n_a, n_d = np.divmod(basis, dd)
    parity = (n_a + n_d) % 2
    keep = np.flatnonzero(parity[:, None] == parity[None, :])

    def sector(term):
        return term.tocsr()[keep][:, keep]

    # vec(A rho B) = (A kron B^T) vec(rho) in row-major vectorisation
    lindblad = (
        -1j * (sector(sp.kron(h, eye)) - sector(sp.kron(eye, h.T)))
        + gamma * sector(sp.kron(a, a.conj()))
        - 0.5 * gamma * (sector(sp.kron(number_a, eye)) + sector(sp.kron(eye, number_a.T)))
    )
    return lindblad.tocsr(), keep


@dataclass(frozen=True)
class FockResult:
    """Density matrix and Gaussian-layer-compatible moments.

    ``steps`` equal steps of ``dt``, each the exact propagator exp(dt L),
    took the state to ``t_final``.
    """

    rho: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    trace_error: float
    leakage: float
    steps: int
    dt: float


def integrate_two_mode(config: FockConfig) -> FockResult:
    """Evolve the two-mode vacuum under the damped coupled-mode dynamics.

    Applies the exact propagator exp(h L) of the generator L on the parity
    sector of the vectorised density matrix over the excitation-number
    simplex, ceil(t_final / 0.25) times with h = t_final / that count, and
    checks the leakage guard after each interval.  Each product is
    ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy and Higham, SIAM J.
    Sci. Comput. 33 (2011) 488), accurate to float64 roundoff, so the
    result carries truncation error only.  Aborts with CutoffTooSmallError
    when the boundary of the simplex accumulates more population than
    ``leakage_guard``.  ``rho`` is the full (cutoff_a + 1)(cutoff_d + 1)
    square density matrix, zero outside the sector and the simplex.
    """
    from scipy.sparse.linalg import expm_multiply

    basis, boundary = _simplex(config.cutoff_a, config.cutoff_d)
    lindblad, keep = _liouvillian(config, basis)
    n = basis.size
    on_boundary = np.searchsorted(keep, np.flatnonzero(boundary) * (n + 1))
    vec = np.zeros(keep.size, dtype=complex)
    vec[0] = 1.0  # keep[0] = 0 is |0, 0><0, 0|
    n_steps = math.ceil(config.t_final / _INTERVAL)
    dt = config.t_final / max(n_steps, 1)
    lindblad.data *= dt
    leakage = 0.0
    for step in range(1, n_steps + 1):
        vec = expm_multiply(lindblad, vec)
        leakage = float(vec[on_boundary].real.sum())
        if leakage > config.leakage_guard:
            raise CutoffTooSmallError(
                f"population reached the truncation boundary at t = {step * dt:.4g}; "
                "increase cutoff_a / cutoff_d",
                leakage,
            )
    rho_basis = np.zeros(n * n, dtype=complex)
    rho_basis[keep] = vec
    dims = (config.cutoff_a + 1, config.cutoff_d + 1)
    rho = np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
    rho[np.ix_(basis, basis)] = rho_basis.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    trace_error = abs(np.trace(rho).real - 1.0)
    mean, cov = _moments(rho, dims)
    return FockResult(
        rho=rho,
        mean=mean,
        covariance=cov,
        trace_error=trace_error,
        leakage=leakage,
        steps=n_steps,
        dt=dt,
    )
