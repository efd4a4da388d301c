"""Tests for the truncated number-basis oracle."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.linalg import expm

from cvcluster import (
    CutoffTooSmallError,
    FockConfig,
    GaussianState,
    InvalidParameterError,
    UnphysicalStateError,
    covariance_from_density,
    evolve,
    integrate_two_mode,
    two_mode_drift_diffusion,
)
from cvcluster import fock
from cvcluster.fock import LEAKAGE_GUARD, _liouvillian, _simplex, destroy, quadrature_operators


def vacuum_rho(dim):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def simplex_states(cutoff):
    """The number states (n_a, n_d) the oracle keeps, in square-basis order."""
    return [
        (n_a, n_d)
        for n_a in range(cutoff + 1)
        for n_d in range(cutoff + 1)
        if n_a + n_d <= cutoff
    ]


def square_states(cutoff):
    return [(n_a, n_d) for n_a in range(cutoff + 1) for n_d in range(cutoff + 1)]


def reference_generator(config, states):
    """The generator on the whole row-major vec(rho) over the given number
    states, both parities kept, with the operators built on the square
    basis and then restricted to the states.  Returns (generator, square
    basis indices of the states, indices of the states that a^dag or d^dag
    maps outside them)."""
    dim = config.cutoff + 1
    index = np.array([n_a * dim + n_d for n_a, n_d in states])
    retained = set(states)
    boundary = [
        i
        for i, (n_a, n_d) in enumerate(states)
        if (n_a + 1, n_d) not in retained or (n_a, n_d + 1) not in retained
    ]
    n = len(states)
    a = sp.kron(destroy(dim), sp.identity(dim, format="csr", dtype=complex), format="csr")
    d = sp.kron(sp.identity(dim, format="csr", dtype=complex), destroy(dim), format="csr")
    h = config.beta * (a.conj().T @ d + config.r * (a.conj().T @ d.conj().T))
    h = (h + h.conj().T).tocsr()[index][:, index]
    number_a = (a.conj().T @ a).tocsr()[index][:, index]
    a = a[index][:, index]
    gamma = 2.0
    eye = sp.identity(n, format="csr", dtype=complex)
    lindblad = (
        -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
        + gamma * sp.kron(a, a.conj())
        - 0.5 * gamma * (sp.kron(number_a, eye) + sp.kron(eye, number_a.T))
    ).tocsr()
    return lindblad, index, boundary


def kron_liouvillian(config, basis):
    """Reference for ``_liouvillian``: the real gauged generator built with
    kron products on the whole n^2 vector over the retained states, from
    operators built on the square basis and then restricted to them, and
    only then cut down to the upper triangle of the parity sector, with the
    columns of (i, j) and (j, i) summed into one."""
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
    fold = sp.csr_matrix(
        (np.ones(upper.size + strict.size),
         (np.r_[upper, mirror], np.r_[np.arange(upper.size), strict])),
        shape=(n * n, upper.size),
    )
    return (lindblad.tocsr()[upper] @ fold).tocsr(), upper


def on_square_basis(config, index, vec):
    """rho over the retained states, as the square-basis matrix, not symmetrised."""
    dim = (config.cutoff + 1) ** 2
    rho = np.zeros((dim, dim), dtype=complex)
    rho[np.ix_(index, index)] = vec.reshape(index.size, index.size)
    return rho


def reference_expm(config, states):
    """Reference: the dense propagator scipy.linalg.expm(h L) of the whole
    generator over the given states, applied over the oracle's intervals
    (ceil(t_final / 0.25) of equal length h), with the leakage, the
    population on the states that a^dag or d^dag maps outside them, checked
    after each.  Returns (rho on the square basis, leakage)."""
    lindblad, index, boundary = reference_generator(config, states)
    steps = max(math.ceil(config.t_final / 0.25), 1)
    propagator = expm((config.t_final / steps) * lindblad.toarray())
    vec = vacuum_rho(index.size).reshape(-1)
    leakage = 0.0
    for _ in range(steps):
        vec = propagator @ vec
        leakage = float(vec.reshape(index.size, index.size).diagonal().real[boundary].sum())
        if leakage > LEAKAGE_GUARD:
            raise CutoffTooSmallError("reference reached the truncation boundary", leakage)
    return on_square_basis(config, index, vec), leakage


def reference_rk4(config, states, dt=0.01):
    """Reference: classic RK4 with equal steps of at most dt on the whole
    generator over the given states.  Returns rho on the square basis."""
    lindblad, index, _ = reference_generator(config, states)
    vec = vacuum_rho(index.size).reshape(-1)
    n_steps = math.ceil(config.t_final / dt)
    dt = config.t_final / max(n_steps, 1)
    for _ in range(n_steps):
        k1 = lindblad @ vec
        k2 = lindblad @ (vec + 0.5 * dt * k1)
        k3 = lindblad @ (vec + 0.5 * dt * k2)
        k4 = lindblad @ (vec + dt * k3)
        vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return on_square_basis(config, index, vec)


# -------------------------------------------------------- moment extraction


def test_vacuum_covariance():
    assert_allclose(covariance_from_density(vacuum_rho(6), (6,)), 0.5 * np.eye(2), atol=1e-12)


def test_single_photon_covariance():
    rho = np.zeros((6, 6), dtype=complex)
    rho[1, 1] = 1.0
    assert_allclose(covariance_from_density(rho, (6,)), 1.5 * np.eye(2), atol=1e-12)


def test_directly_exponentiated_squeezed_vacuum():
    """Squeezed vacuum built by operator exponentiation, xi = 0.2."""
    dim, xi = 30, 0.2
    a = destroy(dim).toarray()
    squeezer = expm(0.5 * xi * (a @ a - a.conj().T @ a.conj().T))
    psi = squeezer @ np.eye(dim)[:, 0]
    rho = np.outer(psi, psi.conj())
    rho /= np.trace(rho)
    cov = covariance_from_density(rho, (dim,))
    assert_allclose(
        cov, np.diag([np.exp(-2 * xi) / 2, np.exp(2 * xi) / 2]), atol=1e-6
    )


def test_two_mode_vacuum_covariance():
    assert_allclose(covariance_from_density(vacuum_rho(25), (5, 5)), 0.5 * np.eye(4), atol=1e-12)


def test_unphysical_density_matrices_rejected():
    with pytest.raises(UnphysicalStateError):
        covariance_from_density(0.5 * vacuum_rho(5), (5,))  # trace 1/2
    rho = vacuum_rho(5)
    rho[0, 1] = 0.3  # not Hermitian
    with pytest.raises(UnphysicalStateError):
        covariance_from_density(rho, (5,))
    rho = np.diag([1.4, -0.4, 0, 0, 0]).astype(complex)
    with pytest.raises(UnphysicalStateError):
        covariance_from_density(rho, (5,))
    rho = np.zeros((5, 5), dtype=complex)
    rho[np.ix_([1, 3], [1, 3])] = [[0.5, 0.7j], [-0.7j, 0.5]]  # eigenvalues 1.2, -0.2
    with pytest.raises(UnphysicalStateError, match="negative eigenvalue"):
        covariance_from_density(rho, (5,))  # between zero rows, which the check skips
    with pytest.raises(InvalidParameterError):
        covariance_from_density(vacuum_rho(5), (6,))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_density_matrix_rejected(value):
    """A NaN entry used to pass every check (nan > tol is False) and give an
    all-NaN covariance; +-inf failed later, as an unphysical state."""
    rho = vacuum_rho(5)
    rho[1, 2] = value
    with pytest.raises(InvalidParameterError, match="rho must be a finite 5 x 5 matrix"):
        covariance_from_density(rho, (5,))


# ------------------------------------------------------------- integration


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        FockConfig(beta=1, r=0.5, t_final=1, cutoff=3)
    with pytest.raises(InvalidParameterError):
        FockConfig(beta=1, r=1.0, t_final=1)


@pytest.mark.parametrize("value", [6.5, 6.0, True, "6", None])
@pytest.mark.parametrize("mode", ["cutoff_a", "cutoff_d"])
def test_config_rejects_non_integer_cutoffs(mode, value):
    """The one cutoff N is the cutoff of the cavity mode a and of the combined
    mode d alike: a value that is not an integer is rejected, and an integer N
    keeps n = 0..N of each mode in the basis."""
    with pytest.raises(InvalidParameterError, match="cutoff must be an integer"):
        FockConfig(beta=1.0, r=0.3, t_final=0.5, cutoff=value)
    config = FockConfig(beta=1.0, r=0.3, t_final=0.5, cutoff=6)
    basis, _ = _simplex(config.cutoff)
    n_a, n_d = np.divmod(basis, config.cutoff + 1)
    photons = n_a if mode == "cutoff_a" else n_d
    assert sorted(set(photons.tolist())) == list(range(config.cutoff + 1))


def test_config_accepts_numpy_integer_cutoffs():
    config = FockConfig(beta=1.0, r=0.3, t_final=0.5, cutoff=np.int64(8))
    result = integrate_two_mode(config)
    assert result.basis.tolist() == _simplex(8)[0].tolist()
    assert result.rho.shape == (45, 45)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["beta", "t_final"])
def test_config_rejects_non_finite_numbers(field, value):
    fields = {"beta": 1.0, "r": 0.5, "t_final": 1.0, field: value}
    with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
        FockConfig(**fields)


def never_step(generator, vec):
    raise AssertionError("a Taylor step ran")


@pytest.mark.parametrize(
    "beta,t_final,cutoff",
    [(1e30, 0.25, 6), (1e308, 0.25, 6), (1.0, 1e308, 4), (1.0, 1e300, 4), (1e6, 0.25, 20)],
)
def test_work_over_the_budget_is_refused_before_any_step(monkeypatch, beta, t_final, cutoff):
    """beta 1e30 once ran about 1e29 Taylor sub-steps per interval without
    end, and beta 1e308 (an infinite 1-norm) and t_final 1e308 (infinite
    intervals) once raised a raw OverflowError."""
    monkeypatch.setattr(fock, "_taylor_step", never_step)
    with pytest.raises(InvalidParameterError, match="exceeds the budget 2e[+]09") as err:
        integrate_two_mode(FockConfig(beta=beta, r=0.1, t_final=t_final, cutoff=cutoff))
    assert f"beta {beta:g}, t_final {t_final:g} and cutoff {cutoff}" in str(err.value)


@pytest.mark.parametrize("beta,cutoff,unbounded", [(1e308, 6, True), (1e6, 20, False)])
def test_refusal_gives_a_time_estimate_only_for_finite_work(monkeypatch, beta, cutoff, unbounded):
    """beta 1e308 makes W infinite, where the refusal once read "about inf s"."""
    monkeypatch.setattr(fock, "_taylor_step", never_step)
    with pytest.raises(InvalidParameterError) as err:
        integrate_two_mode(FockConfig(beta=beta, r=0.1, t_final=0.25, cutoff=cutoff))
    message = str(err.value)
    assert ("the work is unbounded (not finite)" in message) is unbounded
    assert (" s at 30 ns per unit" in message) is not unbounded
    assert "inf s" not in message


def test_no_squeezing_stays_vacuum():
    result = integrate_two_mode(
        FockConfig(beta=1.0, r=0.0, t_final=6.0, cutoff=8)
    )
    assert np.abs(result.covariance - 0.5 * np.eye(4)).max() < 1e-6
    assert result.trace_error < 1e-8


def test_zero_hamiltonian_stays_vacuum():
    result = integrate_two_mode(
        FockConfig(beta=0.0, r=0.0, t_final=2.0, cutoff=4)
    )
    assert np.abs(result.covariance - 0.5 * np.eye(4)).max() < 1e-12


def test_matches_gaussian_solver():
    """Independent cross-check of the two solvers on the same dynamics."""
    beta, r, t = 1.0, 0.3, 6.0
    result = integrate_two_mode(
        FockConfig(beta=beta, r=r, t_final=t, cutoff=12)
    )
    gaussian = evolve(
        GaussianState.vacuum(2), two_mode_drift_diffusion(beta, r), t
    )
    assert np.abs(result.covariance - gaussian.cov).max() < 1e-3
    # and the combined mode approaches the squeezed vacuum
    xi = np.arctanh(r)
    assert abs(result.covariance[2, 2] - np.exp(-2 * xi) / 2) < 1e-3
    assert abs(result.covariance[3, 3] - np.exp(2 * xi) / 2) < 1e-3
    assert result.trace_error < 1e-8


@pytest.mark.parametrize("t_final", [0.004, 0.07, 0.126])
def test_stage_time_off_the_step_grid(t_final):
    """A stage shorter than one interval takes one step of its own length."""
    beta, r = 1.0, 0.3
    result = integrate_two_mode(
        FockConfig(beta=beta, r=r, t_final=t_final, cutoff=6)
    )
    gaussian = evolve(
        GaussianState.vacuum(2), two_mode_drift_diffusion(beta, r), t_final
    )
    assert (result.steps, result.dt) == (1, t_final)
    assert np.abs(result.covariance - gaussian.cov).max() < 1e-8


@pytest.mark.parametrize("t_final", [2.0, 4.0, 6.0, 8.0, 12.0, 20.0])
def test_grid_times_take_nominal_steps(t_final):
    """t_final / 0.25 is exact, so a grid stage time takes no extra step."""
    config = FockConfig(beta=0.0, r=0.0, t_final=t_final, cutoff=4)
    result = integrate_two_mode(config)
    assert (result.steps, result.dt) == (round(t_final * 4), 0.25)


def test_stage_time_on_the_step_grid_keeps_nominal_steps():
    """The default stage time takes 16 exact steps of 0.25 and matches evolve."""
    beta, r, t_final = 1.0, 0.3, 4.0
    result = integrate_two_mode(
        FockConfig(beta=beta, r=r, t_final=t_final, cutoff=12)
    )
    gaussian = evolve(
        GaussianState.vacuum(2), two_mode_drift_diffusion(beta, r), t_final
    )
    assert (result.steps, result.dt) == (16, 0.25)
    assert np.abs(result.covariance - gaussian.cov).max() < 1e-5


def test_density_matrix_stays_hermitian():
    result = integrate_two_mode(
        FockConfig(beta=1.0, r=0.2, t_final=2.0, cutoff=8)
    )
    assert np.abs(result.rho - result.rho.conj().T).max() < 1e-10


@pytest.mark.parametrize(
    "beta,r,t_final,cutoff",
    [
        (1.0, 0.3, 0.126, 6),
        (1.0, 0.1, 2.0, 6),
        (0.8, 0.15, 1.234, 6),
        (1.2, 0.1, 3.0, 6),
    ],
)
def test_parity_sector_matches_full_basis(beta, r, t_final, cutoff):
    """Entries coupling different parities of n_a + n_d stay exactly zero,
    so the sector alone, stepped with the oracle's truncated Taylor series,
    gives the dense propagator's result on the whole simplex basis to
    float64 roundoff."""
    config = FockConfig(beta=beta, r=r, t_final=t_final, cutoff=cutoff)
    dims = (cutoff + 1, cutoff + 1)
    states = simplex_states(cutoff)
    rho, leakage = reference_expm(config, states)
    total = np.add.outer(np.arange(dims[0]), np.arange(dims[1])).reshape(-1)
    other_parity = (total[:, None] - total[None, :]) % 2 == 1
    outside = np.ones(dims[0] * dims[1], dtype=bool)
    outside[[n_a * dims[1] + n_d for n_a, n_d in states]] = False
    result = integrate_two_mode(config)
    assert result.basis.tolist() == [n_a * dims[1] + n_d for n_a, n_d in states]
    square = np.zeros_like(rho)
    square[np.ix_(result.basis, result.basis)] = result.rho
    for computed in (rho, square):
        assert np.all(computed[other_parity] == 0)
        assert np.all(computed[outside] == 0) and np.all(computed[:, outside] == 0)
    assert all(np.trace(rho @ x.toarray()) == 0 for x in quadrature_operators(dims))
    assert np.abs(square - rho).max() <= 1e-12
    assert np.abs(result.covariance - covariance_from_density(rho, dims)).max() <= 1e-12
    assert abs(result.leakage - leakage) <= 1e-12
    steps = math.ceil(t_final / 0.25)
    assert (result.steps, result.dt) == (steps, t_final / steps)


@pytest.mark.parametrize(
    "beta,r,t_final,cutoff",
    [(1.84, 0.40, 4.0, 20), (2.5, 0.5, 4.0, 20), (1.0, 0.3, 1.234, 12)],
)
def test_taylor_stepping_matches_expm_multiply(beta, r, t_final, cutoff):
    """The oracle's one Taylor schedule per run gives, entry by entry, the
    vector that scipy's expm_multiply gives when applied once per interval
    of the same generator, with its own norm search and trace shift."""
    from scipy.sparse.linalg import expm_multiply

    config = FockConfig(beta=beta, r=r, t_final=t_final, cutoff=cutoff)
    basis, _ = _simplex(cutoff)
    generator, upper = _liouvillian(config, basis)
    result = integrate_two_mode(config)
    generator = result.dt * generator
    vec = np.zeros(upper.size)
    vec[0] = 1.0
    for _ in range(result.steps):
        vec = expm_multiply(generator, vec)
    # the oracle's vector is rho' = G^dag rho G on the upper triangle
    rows, cols = np.divmod(upper, basis.size)
    n_d = basis % (cutoff + 1)
    phase = np.array([1, 1j, -1, -1j])[(n_d[rows] - n_d[cols]) % 4]
    assert np.array_equal(result.basis, basis)
    computed = result.rho[rows, cols] * phase.conj()
    assert np.all(computed.imag == 0)
    assert np.abs(computed.real - vec).max() <= 1e-13


@pytest.mark.parametrize(
    "beta,r,t_final,cutoff",
    [(1.0, 0.1, 2.0, 6), (1.0, 0.05, 2.0, 7)],
)
def test_reference_is_real_and_symmetric_in_the_gauge(beta, r, t_final, cutoff):
    """With G = diag(i^{n_d}), the complex reference's G^dag rho G is real
    and symmetric: the symmetry that lets the oracle integrate the real
    upper triangle of the gauged rho alone."""
    config = FockConfig(beta=beta, r=r, t_final=t_final, cutoff=cutoff)
    rho, _ = reference_expm(config, simplex_states(cutoff))
    n_d = np.arange((cutoff + 1) ** 2) % (cutoff + 1)
    gauge = np.array([1, 1j, -1, -1j])[n_d % 4]
    gauged = gauge.conj()[:, None] * rho * gauge[None, :]
    assert np.abs(gauged.imag).max() <= 1e-15
    assert np.abs(gauged - gauged.T).max() <= 1e-15


def test_generator_is_real_on_the_upper_triangle():
    """At cutoff 20 the generator acts on the 13,486 upper-triangle entries
    of the gauged parity sector (of 26,741 in the sector), in float64."""
    config = FockConfig(beta=1.5, r=0.3, t_final=4.0)
    basis, _ = _simplex(20)
    generator, upper = _liouvillian(config, basis)
    assert generator.dtype == np.float64
    assert generator.shape == (13_486, 13_486) and upper.size == 13_486
    assert generator.nnz == 117_140


@pytest.mark.parametrize(
    "beta,r,cutoff", [(2.5, 0.5, 6), (0.0, 0.4, 6), (1.0, 0.0, 12), (1.5, 0.3, 20)]
)
def test_sector_generator_matches_the_kron_build(beta, r, cutoff):
    """The generator built row by row on the upper sector is the kron-built
    generator, restricted and folded: the same triangle, the same nonzeros,
    and entries equal to 1e-14 (the kron build's a^dag a holds sqrt(n)^2,
    the sector build n).  beta 0 and r 0 check that zero terms leave no
    stored entry."""
    config = FockConfig(beta=beta, r=r, t_final=4.0, cutoff=cutoff)
    basis, _ = _simplex(cutoff)
    generator, upper = _liouvillian(config, basis)
    reference, reference_upper = kron_liouvillian(config, basis)
    assert np.array_equal(upper, reference_upper)
    assert generator.nnz == reference.nnz
    assert abs(generator - reference).max() <= 1e-14
    reference.sort_indices()
    generator.sort_indices()
    assert np.array_equal(generator.indptr, reference.indptr)
    assert np.array_equal(generator.indices, reference.indices)


def planted(cutoff, entries):
    """A Taylor step that ignores its input and returns the triangle vector
    of the gauged rho' whose entries (state, state, value) are given, states
    as (n_a, n_d); the mirror entry of an off-diagonal one is implied."""
    config = FockConfig(beta=1.0, r=0.1, t_final=0.25, cutoff=cutoff)
    basis, _ = _simplex(cutoff)
    _, upper = _liouvillian(config, basis)
    index = {state: i for i, state in enumerate(simplex_states(cutoff))}
    vec = np.zeros(upper.size)
    for ket, bra, value in entries:
        i, j = sorted((index[ket], index[bra]))
        vec[np.searchsorted(upper, i * basis.size + j)] = value
    return lambda generator, _: vec.copy()


@pytest.mark.parametrize(
    "entries,message",
    [
        # [[0.5, 0.7], [0.7, 0.5]] has the eigenvalues 1.2 and -0.2
        ([((0, 0), (0, 0), 0.5), ((1, 1), (1, 1), 0.5), ((0, 0), (1, 1), 0.7)], "negative eigenvalue"),
        ([((1, 0), (1, 0), 0.5), ((0, 1), (0, 1), 0.5), ((1, 0), (0, 1), 0.7)], "negative eigenvalue"),
        ([((0, 0), (0, 0), 1.5)], "trace"),
        ([((0, 0), (0, 0), 1.0), ((2, 0), (2, 0), math.nan)], "not finite"),
    ],
    ids=["even-block", "odd-block", "trace", "nan"],
)
def test_unphysical_final_state_is_refused(monkeypatch, entries, message):
    """The oracle checks its own final state: finite, of trace 1, and
    positive in each parity block of n_a + n_d."""
    monkeypatch.setattr(fock, "_taylor_step", planted(6, entries))
    with pytest.raises(UnphysicalStateError, match=message):
        integrate_two_mode(FockConfig(beta=1.0, r=0.1, t_final=0.25, cutoff=6))


@pytest.mark.parametrize("cutoff", [4, 6, 20])
def test_simplex_is_the_shell_up_to_the_cutoff(cutoff):
    """The basis keeps the (N + 1)(N + 2) / 2 states n_a + n_d <= N, and
    the N + 1 states n_a + n_d = N form its boundary."""
    basis, boundary = _simplex(cutoff)
    states = simplex_states(cutoff)
    assert basis.size == len(states) == (cutoff + 1) * (cutoff + 2) // 2
    assert basis.tolist() == [n_a * (cutoff + 1) + n_d for n_a, n_d in states]
    assert boundary.sum() == cutoff + 1
    assert all(boundary == [n_a + n_d == cutoff for n_a, n_d in states])


def test_simplex_matches_square_basis():
    """Dropping the states outside the simplex moves the covariance by no
    more than a few times the boundary population."""
    config = FockConfig(beta=1.0, r=0.2, t_final=2.0, cutoff=12)
    dims = (13, 13)
    square = reference_rk4(config, square_states(12))
    result = integrate_two_mode(config)
    assert len(simplex_states(12)) == 91
    assert np.abs(result.covariance - covariance_from_density(square, dims)).max() < 1e-8


def test_short_stage_density_matrix_is_physical():
    beta, r, t_final = 1.5, 0.3, 0.5
    result = integrate_two_mode(
        FockConfig(beta=beta, r=r, t_final=t_final, cutoff=8)
    )
    gaussian = evolve(
        GaussianState.vacuum(2), two_mode_drift_diffusion(beta, r), t_final
    )
    assert np.abs(result.covariance - gaussian.cov).max() < 1e-6
    assert np.linalg.eigvalsh(result.rho).min() >= -1e-12


def test_strong_coupling_density_matrix_is_physical():
    """beta near 3 over the default stage time 4: rho stays positive to roundoff."""
    beta, r, t_final = 2.9302, 0.3343, 4.0
    result = integrate_two_mode(
        FockConfig(beta=beta, r=r, t_final=t_final, cutoff=16)
    )
    gaussian = evolve(
        GaussianState.vacuum(2), two_mode_drift_diffusion(beta, r), t_final
    )
    assert np.linalg.eigvalsh(result.rho).min() >= -1e-12
    assert np.abs(result.covariance - gaussian.cov).max() < 1e-3


def test_leakage_guard_reports_the_full_basis_leakage():
    """The guard reads the boundary population the whole simplex basis has."""
    config = FockConfig(beta=1.0, r=0.8, t_final=6.0, cutoff=4)
    with pytest.raises(CutoffTooSmallError) as reference:
        reference_expm(config, simplex_states(4))
    with pytest.raises(CutoffTooSmallError) as err:
        integrate_two_mode(config)
    assert abs(err.value.leakage - reference.value.leakage) <= 1e-12


def test_leakage_guard_aborts_on_small_cutoff():
    with pytest.raises(CutoffTooSmallError) as err:
        integrate_two_mode(
            FockConfig(beta=1.0, r=0.8, t_final=6.0, cutoff=4)
        )
    assert err.value.leakage > 1e-6
