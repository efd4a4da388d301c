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

The sector is integrated in real arithmetic, on one triangle.  This rests
on real couplings: beta, r and kappa are real numbers, and the vacuum
start is real.  In the gauge rho' = G^dag rho G with G = diag(i^{n_d}),
d -> i d and a -> a, so -i [h, rho] -> beta [K, rho'] with

    K = a^dag d - r a^dag d^dag - d^dag a + r a d,

which is real and antisymmetric, and the dissipator 2 kappa (a rho' a^T -
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

#: Longest interval between leakage-guard checks; a power of two, so
#: t_final / _INTERVAL is exact.
_INTERVAL = 0.25


@dataclass(frozen=True)
class FockConfig:
    """Truncated-basis integration settings.

    ``cutoff_a`` / ``cutoff_d`` are the largest retained photon numbers of
    each mode, integers, reached when the other mode is empty: the basis
    keeps the states with n_a / cutoff_a + n_d / cutoff_d <= 1.
    ``leakage_guard`` bounds the population allowed on the boundary of that
    simplex before the run aborts.  There is no time-step setting: the propagator is
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
        for name in ("cutoff_a", "cutoff_d"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
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
        raise UnphysicalStateError(f"trace(rho) = {complex(np.trace(rho))!r}, expected 1")
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
    """Real generator on the upper triangle of the gauged rho, and that triangle.

    The gauge rests on real couplings: beta, r and kappa are real, and the
    vacuum start is real.  With G = diag(i^{n_d}) and rho' = G^dag rho G,
    G^dag d G = i d and G^dag a G = a, so -i [h, rho] becomes beta [K, rho']
    with

        K = a^dag d - r a^dag d^dag - d^dag a + r a d,

    real and antisymmetric, while the dissipator 2 kappa (a rho' a^T -
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
    da, dd = config.cutoff_a + 1, config.cutoff_d + 1

    def restrict(op):
        return op.tocsr()[basis][:, basis]

    a = sp.kron(destroy(da), sp.identity(dd), format="csr")
    d = sp.kron(sp.identity(da), destroy(dd), format="csr")
    k = a.T @ d - config.r * (a.T @ d.T)
    k = restrict(k - k.T)
    number_a = restrict(a.T @ a)
    a = restrict(a)
    gamma = 2.0 * config.kappa
    n = basis.size
    eye = sp.identity(n, format="csr")
    # vec(A rho B) = (A kron B^T) vec(rho) in row-major vectorisation, K^T = -K
    lindblad = (
        config.beta * (sp.kron(k, eye) + sp.kron(eye, k))
        + gamma * sp.kron(a, a)
        - 0.5 * gamma * (sp.kron(number_a, eye) + sp.kron(eye, number_a))
    )
    n_a, n_d = np.divmod(basis, dd)
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

    Applies the exact propagator exp(h L) of the real generator L on the
    upper triangle of the gauged parity sector of the vectorised density
    matrix over the excitation-number simplex (see ``_liouvillian``),
    ceil(t_final / 0.25) times with h = t_final / that count, and checks
    the leakage guard, read on the real diagonal, after each interval.
    Each product is ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33 (2011) 488), accurate to float64 roundoff, so the
    result carries truncation error only.  Aborts with CutoffTooSmallError
    when the boundary of the simplex accumulates more population than
    ``leakage_guard``.  ``rho`` is the full (cutoff_a + 1)(cutoff_d + 1)
    square complex density matrix G rho' G^dag, zero outside the sector and
    the simplex.
    """
    from scipy.sparse.linalg import expm_multiply

    basis, boundary = _simplex(config.cutoff_a, config.cutoff_d)
    generator, upper = _liouvillian(config, basis)
    n = basis.size
    on_boundary = np.searchsorted(upper, np.flatnonzero(boundary) * (n + 1))
    vec = np.zeros(upper.size)
    vec[0] = 1.0  # upper[0] = 0 is |0, 0><0, 0|
    n_steps = math.ceil(config.t_final / _INTERVAL)
    dt = config.t_final / max(n_steps, 1)
    generator.data *= dt
    leakage = 0.0
    for step in range(1, n_steps + 1):
        vec = expm_multiply(generator, vec)
        leakage = float(vec[on_boundary].sum())
        if leakage > config.leakage_guard:
            raise CutoffTooSmallError(
                f"population reached the truncation boundary at t = {step * dt:.4g}; "
                "increase cutoff_a / cutoff_d",
                leakage,
            )
    rows, cols = np.divmod(upper, n)
    gauged = np.zeros((n, n))
    gauged[rows, cols] = vec
    gauged[cols, rows] = vec
    # rho = G rho' G^dag: entry (i, j) picks up i^{n_d(i) - n_d(j)}, exactly
    n_d = basis % (config.cutoff_d + 1)
    phase = np.array([1, 1j, -1, -1j])[(n_d[:, None] - n_d[None, :]) % 4]
    dims = (config.cutoff_a + 1, config.cutoff_d + 1)
    rho = np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
    rho[np.ix_(basis, basis)] = phase * gauged
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
