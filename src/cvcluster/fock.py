"""Brute-force number-state oracle for the cavity + combined-mode model.

Integrates the two-mode master equation

    drho/dt = -i [beta (a^dag d + r a^dag d^dag) + h.c., rho]
              + 2 (a rho a^dag - 1/2 {a^dag a, rho})

in a truncated Fock basis by applying the exact propagator of the
generator, to float64 roundoff, and extracts quadrature moments from the
density matrix.  Its only approximation is the truncation.  The propagator
is the truncated Taylor series of Al-Mohy and Higham (SIAM J. Sci. Comput.
33 (2011) 488) at degree 55, with its sub-step count chosen once per run
from the exact 1-norm of the generator.  Entirely independent of the
Gaussian solver (no shared dynamics code), which makes it a cross-check:
for moderate r and an adequate cutoff every covariance entry must match
the Gaussian evolution.

The basis is the excitation-number simplex: the number states with
n_a + n_d <= N for the one cutoff N (231 of the 441 square-basis states
at N = 20).  It suffices because the pair term a^dag d^dag creates
photons in both modes at once and a^dag d only moves them between modes:
the population falls off with the total photon number n_a + n_d, so a
square basis n_a, n_d <= N spends nearly half its states on pairs like
(15, 15) that stay empty long after the states n_a + n_d = N fill.  The simplex is closed under a and d.  Its
boundary, the shell n_a + n_d = N that a^dag and d^dag map out of it,
carries the population the truncation would lose next, and that population
is checked against LEAKAGE_GUARD.

Only the parity sector of rho is integrated: the entries |m><n| whose ket
and bra have the same parity of n_a + n_d.  a^dag d, a^dag d^dag and their
conjugates change n_a + n_d by 0 or +-2, and the jump a rho a^dag lowers
ket and bra together, so the generator never couples an entry inside the
sector to one outside it (a weak symmetry of the Lindblad generator).  The
vacuum lies in the sector, so every entry outside it stays exactly zero,
and the sector alone is the same computation with the zeros left out.

The sector is integrated in real arithmetic, on one triangle.  This rests
on real couplings: beta and r are real numbers, and the vacuum
start is real.  In the gauge rho' = G^dag rho G with G = diag(i^{n_d}),
d -> i d and a -> a, so -i [h, rho] -> beta [K, rho'] with

    K = a^dag d - r a^dag d^dag - d^dag a + r a d,

which is real and antisymmetric, and the dissipator 2 (a rho' a^T -
1/2 {a^dag a, rho'}) is real as well.  The gauged generator is real and
commutes with transposition, so rho' stays real and symmetric, and its
upper triangle carries the whole state.  The full complex rho = G rho' G^dag
is rebuilt once, after the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CutoffTooSmallError, InvalidParameterError, UnphysicalStateError

#: Largest population allowed on the boundary of the retained basis before
#: a run aborts with CutoffTooSmallError.
LEAKAGE_GUARD = 1e-6

#: Longest interval between leakage-guard checks; a power of two, so
#: t_final / _INTERVAL is exact.
_INTERVAL = 0.25

#: Taylor degree m and theta_m, the largest 1-norm of a sub-step's
#: generator for which degree m reaches float64 roundoff (Al-Mohy and
#: Higham 2011, Table 3.1; scipy's ``_expm_multiply._theta[55]``).
_TAYLOR_DEGREE = 55
_THETA = 9.9


@dataclass(frozen=True)
class FockConfig:
    """Truncated-basis integration settings.

    ``cutoff`` N, an integer, is the largest retained total photon number:
    the basis keeps the states with n_a + n_d <= N.
    There is no time-step setting: the propagator is exact, and
    LEAKAGE_GUARD is checked after each of ceil(t_final / 0.25) equal
    intervals.
    """

    beta: float
    r: float
    t_final: float
    cutoff: int = 20

    def __post_init__(self):
        for name in ("beta", "t_final"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if isinstance(self.cutoff, bool) or not isinstance(self.cutoff, (int, np.integer)):
            raise InvalidParameterError(f"cutoff must be an integer, got {self.cutoff!r}")
        if self.cutoff < 4:
            raise InvalidParameterError("cutoff must be at least 4")
        if not 0.0 <= self.r < 1.0:
            raise InvalidParameterError(f"r must lie in [0, 1), got {self.r}")
        if self.beta < 0:
            raise InvalidParameterError("beta must be nonnegative")
        if self.t_final < 0:
            raise InvalidParameterError("t_final must be nonnegative")


def destroy(dim: int) -> sp.csr_matrix:
    """Annihilation operator on a dim-dimensional number basis."""
    return sp.diags(np.sqrt(np.arange(1, dim)), 1, format="csr")


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
    Gaussian layer.  Validates finiteness, trace, Hermiticity and positivity first.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total) or not np.isfinite(rho).all():
        raise InvalidParameterError(f"rho must be a finite {total} x {total} matrix for dims {dims}")
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise UnphysicalStateError(f"trace(rho) = {complex(np.trace(rho))!r}, expected 1")
    if np.abs(rho - rho.conj().T).max() > 1e-8:
        raise UnphysicalStateError("rho is not Hermitian")
    # zero rows of the Hermitian part only add zero eigenvalues, so skip them
    herm = 0.5 * (rho + rho.conj().T)
    live = np.flatnonzero(np.abs(herm).any(axis=1))
    if np.linalg.eigvalsh(herm[np.ix_(live, live)]).min() < -1e-9:
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
    return cov


def _simplex(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The retained number states and their boundary.

    Returns the ascending square-basis indices n_a * (N + 1) + n_d of the
    states in the shell n_a + n_d <= N, N = ``cutoff``, and a mask over them
    of the boundary n_a + n_d = N: the states that a^dag and d^dag map out
    of the basis.
    """
    total = np.add.outer(np.arange(cutoff + 1), np.arange(cutoff + 1)).reshape(-1)
    basis = np.flatnonzero(total <= cutoff)
    return basis, total[basis] == cutoff


def _liouvillian(config: FockConfig, basis: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """Real generator on the upper triangle of the gauged rho, and that triangle.

    The gauge rests on real couplings: beta and r are real, and the
    vacuum start is real.  With G = diag(i^{n_d}) and rho' = G^dag rho G,
    G^dag d G = i d and G^dag a G = a, so -i [h, rho] becomes beta [K, rho']
    with

        K = a^dag d - r a^dag d^dag - d^dag a + r a d,

    real and antisymmetric, while the dissipator 2 (a rho' a^T -
    1/2 {a^dag a, rho'}) stays real.  The generator of rho' is therefore real
    and maps symmetric matrices to symmetric ones, so rho' stays real and
    symmetric from the vacuum on, and only its upper triangle is integrated.

    rho' lives on the retained states ``basis`` (see ``_simplex``): ``K``,
    ``a`` and ``a^dag a`` are built on the square basis and restricted to
    them, which drops the transitions out of the simplex.  The generator
    acts on the parity sector of row-major vec(rho'), the entries whose
    ket and bra have the same parity of n_a + n_d, and on its upper half:
    ``upper`` holds the ascending flat indices i * n + j, i <= j, of those
    entries of the n x n restricted rho'.  Each row is the whole-basis
    generator's row with the columns of (i, j) and (j, i) summed into one.
    """
    dim = config.cutoff + 1

    def restrict(op):
        return op.tocsr()[basis][:, basis]

    a = sp.kron(destroy(dim), sp.identity(dim), format="csr")
    d = sp.kron(sp.identity(dim), destroy(dim), format="csr")
    k = a.T @ d - config.r * (a.T @ d.T)
    k = restrict(k - k.T)
    number_a = restrict(a.T @ a)
    a = restrict(a)
    n = basis.size
    eye = sp.identity(n, format="csr")
    # vec(A rho B) = (A kron B^T) vec(rho) in row-major vectorisation, K^T = -K
    lindblad = (
        config.beta * (sp.kron(k, eye) + sp.kron(eye, k))
        + 2.0 * sp.kron(a, a)
        - (sp.kron(number_a, eye) + sp.kron(eye, number_a))
    )
    n_a, n_d = np.divmod(basis, dim)
    parity = (n_a + n_d) % 2
    rows, cols = np.nonzero(np.triu(parity[:, None] == parity[None, :]))
    upper = rows * n + cols
    strict = np.flatnonzero(rows < cols)
    mirror = cols[strict] * n + rows[strict]
    # vec(rho') = fold @ upper half: entry k fills (i, j) and, off the diagonal, (j, i)
    fold = sp.csr_matrix(
        (np.ones(upper.size + strict.size),
         (np.r_[upper, mirror], np.r_[np.arange(upper.size), strict])),
        shape=(n * n, upper.size),
    )
    return (lindblad.tocsr()[upper] @ fold).tocsr(), upper


@dataclass(frozen=True)
class FockResult:
    """Density matrix and its Gaussian-layer-compatible covariance.

    The quadrature means are exactly 0: each quadrature links entries of
    opposite parity, which the integrated sector never fills.

    ``steps`` equal steps of ``dt``, each the exact propagator exp(dt L),
    took the state to ``t_final``.
    """

    rho: np.ndarray
    covariance: np.ndarray
    trace_error: float
    leakage: float
    steps: int
    dt: float


def _taylor_step(generator: sp.csr_matrix, vec: np.ndarray) -> np.ndarray:
    """exp(A) vec for A = ``generator``, with ||A||_1 <= theta_55.

    Sums the Taylor terms A^k vec / k! and stops by Al-Mohy and Higham's
    rule: once two successive terms together fall below 2^-53 of the sum
    in the infinity norm, or after 55 terms.
    """
    total = vec.copy()
    term = vec
    previous = np.abs(term).max()
    for k in range(1, _TAYLOR_DEGREE + 1):
        term = generator @ term
        term /= k
        current = np.abs(term).max()
        total += term
        if previous + current <= 2.0**-53 * np.abs(total).max():
            break
        previous = current
    return total


def integrate_two_mode(config: FockConfig) -> FockResult:
    """Evolve the two-mode vacuum under the damped coupled-mode dynamics.

    Applies the exact propagator exp(h L) of the real generator L on the
    upper triangle of the gauged parity sector of the vectorised density
    matrix over the excitation-number simplex (see ``_liouvillian``),
    ceil(t_final / 0.25) times with h = t_final / that count, and checks
    the leakage guard, read on the real diagonal, after each interval.
    Each interval is s sub-steps of the degree-55 truncated Taylor series
    of Al-Mohy and Higham (SIAM J. Sci. Comput. 33 (2011) 488), with
    s = max(1, ceil(||h L||_1 / theta_55)), theta_55 = 9.9, chosen once
    per run from the exact 1-norm of the sparse generator.  Each sub-step
    sums the series to float64 roundoff, so the result carries truncation
    error only.  Aborts with CutoffTooSmallError when the boundary of the
    simplex accumulates more population than LEAKAGE_GUARD.  ``rho`` is the full complex density matrix G rho' G^dag
    on the (N + 1)^2 square-basis states, N = ``cutoff``, zero outside the
    sector and the simplex.
    """
    basis, boundary = _simplex(config.cutoff)
    generator, upper = _liouvillian(config, basis)
    n = basis.size
    on_boundary = np.searchsorted(upper, np.flatnonzero(boundary) * (n + 1))
    vec = np.zeros(upper.size)
    vec[0] = 1.0  # upper[0] = 0 is |0, 0><0, 0|
    n_steps = math.ceil(config.t_final / _INTERVAL)
    dt = config.t_final / max(n_steps, 1)
    norm = float(abs(generator).sum(axis=0).max()) * dt
    substeps = max(1, math.ceil(norm / _THETA))
    generator.data *= dt / substeps
    leakage = 0.0
    for step in range(1, n_steps + 1):
        for _ in range(substeps):
            vec = _taylor_step(generator, vec)
        leakage = float(vec[on_boundary].sum())
        if leakage > LEAKAGE_GUARD:
            raise CutoffTooSmallError(
                f"population reached the truncation boundary at t = {step * dt:.4g}; "
                "increase cutoff",
                leakage,
            )
    rows, cols = np.divmod(upper, n)
    gauged = np.zeros((n, n))
    gauged[rows, cols] = vec
    gauged[cols, rows] = vec
    dim = config.cutoff + 1
    # rho = G rho' G^dag: entry (i, j) picks up i^{n_d(i) - n_d(j)}, exactly
    n_d = basis % dim
    phase = np.array([1, 1j, -1, -1j])[(n_d[:, None] - n_d[None, :]) % 4]
    rho = np.zeros((dim * dim,) * 2, dtype=complex)
    rho[np.ix_(basis, basis)] = phase * gauged
    trace_error = abs(np.trace(rho).real - 1.0)
    return FockResult(
        rho=rho,
        covariance=covariance_from_density(rho, (dim, dim)),
        trace_error=trace_error,
        leakage=leakage,
        steps=n_steps,
        dt=dt,
    )
