"""Brute-force number-state oracle for the cavity + combined-mode model.

Integrates the two-mode master equation

    drho/dt = -i [beta (a^dag d + r a^dag d^dag) + h.c., rho]
              + 2 (a rho a^dag - 1/2 {a^dag a, rho})

in a truncated Fock basis by applying the exact propagator of the
generator, to float64 roundoff, checks the final density matrix, and
extracts quadrature moments from it.  Its only approximation is the
truncation.  The propagator is the truncated Taylor series of Al-Mohy
and Higham (SIAM J. Sci. Comput. 33 (2011) 488) at degree 55, with its
sub-step count chosen once per run from the exact 1-norm of the
generator, which fixes the run's work before its first step: more than
WORK_BUDGET is an InvalidParameterError.
Entirely independent of the Gaussian solver (no shared dynamics code),
which makes it a cross-check: for moderate r and an adequate cutoff every
covariance entry must match the Gaussian evolution.

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
upper triangle carries the whole state.

Only the quadrature products of the moments use the square basis.  The
generator's rows are built on the triangle directly, and after the last
step rho' is rebuilt on the n retained states alone, checked, and turned
into the complex rho = G rho' G^dag on them.
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

#: Largest work W = intervals x Taylor sub-steps x nnz(L) that a run may do,
#: checked before its first step.  One unit took 16-30 ns on one pinned CPU
#: of a 2-core x86-64 host: the budget is about a minute at most.
WORK_BUDGET = 2e9

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
    return _moments(rho, dims)


def _moments(rho: np.ndarray, dims, basis: np.ndarray | None = None) -> np.ndarray:
    """Symmetrised quadrature covariance of a checked density matrix.

    ``rho`` is given on the tensor-basis states ``basis`` (ascending
    indices, all of them when None) and is zero on the others.  Each
    product x_j x_i is formed on the whole tensor basis and only then
    restricted to ``basis``: restricting the quadratures first would drop
    the terms of x_j x_i that pass through states outside ``basis``.
    """

    def expectation(x) -> float:
        # tr(x rho) = sum over the nonzeros x[l, k] of x[l, k] rho[k, l]
        if basis is not None:
            x = x[basis][:, basis]
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

    rho' lives on the retained states ``basis`` (see ``_simplex``), and
    ``K`` and ``a`` are taken on them, without the transitions out of the
    simplex.  The generator acts on the parity sector of rho', the entries
    (i, j) whose ket and bra have the same parity of n_a + n_d, and on its
    upper half i <= j: ``upper`` holds their ascending flat indices
    i * n + j in the n x n rho'.  Row (i, j) is built on the sector
    directly: it collects beta K[i, m] from (m, j), beta K[j, m] from
    (i, m) (the term rho' K^T), 2 a[i, p] a[j, q] from (p, q), and
    -(n_a(i) + n_a(j)) from (i, j), each in the column of the entry's upper
    position (min, max).
    """
    cutoff, r = config.cutoff, config.r
    n_a, n_d = np.divmod(basis, cutoff + 1)
    root = np.sqrt(np.arange(cutoff + 2))

    def move(da: int, dd: int) -> np.ndarray:
        """Index of the state (n_a + da, n_d + dd) from each state, -1 off the simplex."""
        x, y = n_a + da, n_d + dd
        inside = (x >= 0) & (y >= 0) & (x + y <= cutoff)
        # rows x' < x of the simplex hold N + 1 - x' states each
        return np.where(inside, x * (cutoff + 1) - x * (x - 1) // 2 + y, -1)

    # K[i, m] = amplitude[i] at m = target[i], one pair per term of K
    k_terms = (
        (move(-1, 1), root[n_a] * root[n_d + 1]),
        (move(-1, -1), -(r * (root[n_a] * root[n_d]))),
        (move(1, -1), -(root[n_a + 1] * root[n_d])),
        (move(1, 1), r * (root[n_a + 1] * root[n_d + 1])),
    )
    a_target, a_amplitude = move(1, 0), root[n_a + 1]  # a[i, p], p = (n_a + 1, n_d)

    n = basis.size
    parity = (n_a + n_d) % 2
    rows, cols = np.nonzero(np.triu(parity[:, None] == parity[None, :]))
    upper = rows * n + cols
    # (i, j), i <= j, sits rank[j] - rank[i] entries into row i of the
    # triangle, where rank counts the states of the same parity before one
    start = np.searchsorted(rows, np.arange(n))
    odd = np.cumsum(parity)
    rank = np.where(parity == 1, odd - 1, np.arange(n) - odd)
    shape = (upper.size, upper.size)

    def entries(at, ket, bra, values) -> sp.csr_matrix:
        """``values`` in the rows ``at``, each in the column of (ket, bra) folded to (min, max)."""
        lo, hi = np.minimum(ket, bra), np.maximum(ket, bra)
        return sp.csr_matrix((values, (at, start[lo] + rank[hi] - rank[lo])), shape=shape)

    generator = entries(np.arange(upper.size), rows, cols, -(n_a[rows] + n_a[cols]).astype(float))
    # each further term adds at most one entry to a row; the sums drop exact zeros
    for target, amplitude in k_terms:
        # (K rho')[i, j] = K[i, m] rho'[m, j] and (rho' K^T)[i, j] = rho'[i, m] K[j, m]
        for here, there in ((rows, cols), (cols, rows)):
            m = target[here]
            keep = np.flatnonzero(m >= 0)
            generator = generator + entries(keep, m[keep], there[keep], config.beta * amplitude[here[keep]])
    p, q = a_target[rows], a_target[cols]
    keep = np.flatnonzero((p >= 0) & (q >= 0))
    jump = 2.0 * (a_amplitude[rows[keep]] * a_amplitude[cols[keep]])
    generator = generator + entries(keep, p[keep], q[keep], jump)
    return generator, upper


@dataclass(frozen=True)
class FockResult:
    """Density matrix on the retained states and its Gaussian-layer-compatible covariance.

    ``rho`` is the complex density matrix on the excitation-number simplex,
    in the order of ``basis``: the ascending square-basis indices
    n_a * (N + 1) + n_d of the retained states, N = ``cutoff``.  Every
    state outside them is empty.

    The quadrature means are exactly 0: each quadrature links entries of
    opposite parity, which the integrated sector never fills.

    ``steps`` equal steps of ``dt``, each the exact propagator exp(dt L),
    took the state to ``t_final``.
    """

    rho: np.ndarray
    basis: np.ndarray
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
    error only.  Raises InvalidParameterError before the first step when
    the work W = intervals x s x nnz(L) exceeds WORK_BUDGET, and aborts
    with CutoffTooSmallError when the boundary of the simplex accumulates
    more population than LEAKAGE_GUARD.  The final state must be finite,
    of trace 1 to 1e-8 and without an eigenvalue below -1e-9, or
    UnphysicalStateError is raised.  ``rho`` is the complex density matrix
    G rho' G^dag on the retained states ``basis`` only (see FockResult),
    zero outside the sector, and the covariance is read from it by the
    rule of ``covariance_from_density``, without its checks.
    """
    basis, boundary = _simplex(config.cutoff)
    with np.errstate(over="ignore"):  # beta from about 1e307 on: an infinite 1-norm
        generator, upper = _liouvillian(config, basis)
    intervals = config.t_final / _INTERVAL  # infinite from t_final 4.5e307 on
    norm = float(abs(generator).sum(axis=0).max())
    work = math.inf
    if math.isfinite(intervals) and math.isfinite(norm):
        n_steps = math.ceil(intervals)
        dt = config.t_final / max(n_steps, 1)
        substeps = max(1, math.ceil(norm * dt / _THETA))
        work = float(n_steps) * substeps * generator.nnz
    if not work <= WORK_BUDGET:
        cost = (
            f"about {work * 3e-8:.2g} s at 30 ns per unit" if math.isfinite(work)
            else "the work is unbounded (not finite)"
        )
        raise InvalidParameterError(
            f"oracle work W = {work:.3g} (intervals x Taylor sub-steps x nnz(L)) at beta {config.beta:g}, "
            f"t_final {config.t_final:g} and cutoff {config.cutoff} exceeds the budget {WORK_BUDGET:.3g}: "
            f"{cost}"
        )
    generator.data *= dt / substeps
    n = basis.size
    on_boundary = np.searchsorted(upper, np.flatnonzero(boundary) * (n + 1))
    vec = np.zeros(upper.size)
    vec[0] = 1.0  # upper[0] = 0 is |0, 0><0, 0|
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
    if not np.isfinite(vec).all():
        raise UnphysicalStateError("the oracle's density matrix is not finite")
    rows, cols = np.divmod(upper, n)
    gauged = np.zeros((n, n))
    gauged[rows, cols] = vec
    gauged[cols, rows] = vec
    trace = gauged.trace()
    if abs(trace - 1.0) > 1e-8:
        raise UnphysicalStateError(f"trace(rho) = {float(trace)!r}, expected 1")
    # rho' is symmetric by construction, so rho = G rho' G^dag is Hermitian,
    # and G is a diagonal unitary, so rho has the spectrum of rho'.  The
    # entries between parities are zero: each parity block is checked alone.
    dim = config.cutoff + 1
    n_a, n_d = np.divmod(basis, dim)
    parity = (n_a + n_d) % 2
    for block in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)):
        if np.linalg.eigvalsh(gauged[np.ix_(block, block)]).min() < -1e-9:
            raise UnphysicalStateError("rho has a significantly negative eigenvalue")
    # rho = G rho' G^dag: entry (i, j) picks up i^{n_d(i) - n_d(j)}, exactly
    phase = np.array([1, 1j, -1, -1j])[(n_d[:, None] - n_d[None, :]) % 4]
    rho = phase * gauged
    return FockResult(
        rho=rho,
        basis=basis,
        covariance=_moments(rho, (dim, dim), basis),
        trace_error=abs(trace - 1.0),
        leakage=leakage,
        steps=n_steps,
        dt=dt,
    )
