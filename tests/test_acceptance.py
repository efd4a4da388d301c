"""Acceptance suite: one test per headline requirement, with a printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import unitary_group

from cvcluster import (
    FockConfig,
    GaussianState,
    PhysicalParams,
    Protocol,
    apply_mode_transform,
    builtin_graph,
    builtin_protocol,
    builtin_transform,
    cavity_decay_from_finesse,
    convergence_eigenvalues,
    drift_diffusion,
    effective_spontaneous_rate,
    evolve,
    integrate_two_mode,
    nullifier_variances,
    purity,
    run_protocol,
    symplectic_eigenvalues,
    transformed_coupling,
    two_mode_drift_diffusion,
)
from cvcluster.gaussian import QuadraticHamiltonian
from cvcluster.tables import check_tables, compare_stages, generated_stage, reference_stage

R_VALUE = 0.5
BETA = 2.5
KINDS = ("linear", "square", "tshape")

# the independent identity e^{-2 atanh r} = (1 - r) / (1 + r) fixes the
# expected variances at r = 1/2 as exact fractions
SHRINK = (1.0 - R_VALUE) / (1.0 + R_VALUE)
EXACT = {
    "linear": np.array([1.0, 1.5, 1.5, 1.0]) * SHRINK,
    "square": np.array([1.5, 1.5, 1.5, 1.5]) * SHRINK,
    "tshape": np.array([2.0, 1.0, 1.0, 1.0]) * SHRINK,
}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def exact_run(kind):
    params = PhysicalParams(BETA, R_VALUE)
    return run_protocol(builtin_protocol(kind, params), params)


def test_criterion_1_linear_cluster_reproduction():
    start = time.perf_counter()
    run = exact_run("linear")
    variances = nullifier_variances(run.final_state, builtin_graph("linear"))
    elapsed = time.perf_counter() - start
    err = np.abs(variances - EXACT["linear"]).max()
    report(
        1,
        err < 1e-8 and elapsed < 1.0,
        f"linear variances {variances.round(10).tolist()}, max err {err:.2e}, {elapsed:.3f} s",
    )


def test_criterion_2_square_cluster_reproduction():
    run = exact_run("square")
    variances = nullifier_variances(run.final_state, builtin_graph("square"))
    err = np.abs(variances - 0.5).max()
    report(2, err < 1e-8, f"square variances {variances.round(10).tolist()}, max err {err:.2e}")


def test_criterion_3_tshape_cluster_reproduction():
    run = exact_run("tshape")
    variances = nullifier_variances(run.final_state, builtin_graph("tshape"))
    err = np.abs(variances - EXACT["tshape"]).max()
    report(3, err < 1e-8, f"tshape variances {variances.round(10).tolist()}, max err {err:.2e}")


def test_criterion_4_finite_time_convergence():
    params = PhysicalParams(BETA, R_VALUE)
    details = []
    ok = True
    for kind in KINDS:
        errors = []
        for stage_time in (4.0, 8.0, 12.0):
            protocol = builtin_protocol(kind, params, stage_time=stage_time)
            run = run_protocol(protocol, params, method="time_domain")
            variances = nullifier_variances(run.final_state, protocol.graph)
            errors.append(np.abs(variances - EXACT[kind]).max())
        ok = ok and errors[0] < 0.05 and errors[0] > errors[1] > errors[2]
        details.append(f"{kind}: {[f'{e:.2e}' for e in errors]}")
    report(4, ok, "max errors at stage_time 4/8/12 per kind: " + "; ".join(details))


def test_criterion_5_purity_of_final_states():
    ok = True
    details = []
    for kind in KINDS:
        ensemble = exact_run(kind).final_state.cov[2:, 2:]
        pur = purity(ensemble)
        nu_err = np.abs(symplectic_eigenvalues(ensemble) - 0.5).max()
        ok = ok and abs(pur - 1.0) < 1e-8 and nu_err < 1e-8
        details.append(f"{kind}: purity {pur:.10f}, max |nu - 1/2| {nu_err:.2e}")
    report(5, ok, "; ".join(details))


def test_criterion_6_eigenvalue_law_and_slow_regime_flag():
    kappa = 1.0
    worst = 0.0
    flags_agree = True
    for beta in (0.3, 0.6, 1.0, 2.5, 4.0):
        for r in (0.0, 0.2, 0.5, 0.8, 0.95):
            eigvals = np.linalg.eigvals(two_mode_drift_diffusion(beta, r).A)
            disc = (kappa / 2) ** 2 - beta**2 * (1 - r**2)
            for lam in (-kappa / 2 + np.sqrt(complex(disc)), -kappa / 2 - np.sqrt(complex(disc))):
                gaps = np.sort(np.abs(eigvals - lam))
                worst = max(worst, gaps[1])  # each analytic root must appear twice
            info = convergence_eigenvalues(beta, r)
            expected_slow = beta * math.sqrt(1 - r**2) <= kappa / 2
            flags_agree = flags_agree and (info.slow or info.regime == "critical") == expected_slow
    report(
        6,
        worst < 1e-10 and flags_agree,
        f"25-point grid, worst eigenvalue gap {worst:.2e}, slow-regime flags consistent: {flags_agree}",
    )


def test_criterion_7_fock_oracle_equivalence():
    start = time.perf_counter()
    beta, r, t_final = 1.0, 0.3, 6.0
    result = integrate_two_mode(
        FockConfig(beta=beta, r=r, t_final=t_final, cutoff=20)
    )
    gaussian = evolve(
        GaussianState.vacuum(2), two_mode_drift_diffusion(beta, r), t_final
    )
    elapsed = time.perf_counter() - start
    gap = np.abs(result.covariance - gaussian.cov).max()
    report(
        7,
        gap < 1e-3 and result.trace_error < 1e-8 and elapsed < 60.0,
        f"max covariance gap {gap:.2e}, trace error {result.trace_error:.2e}, {elapsed:.1f} s",
    )


def test_criterion_8a_tables_match_up_to_whitelist():
    rep = check_tables(omega=1.0, r=R_VALUE)
    unexpected = [(e.kind, e.index) for e in rep.unexpected]
    matched = sum(1 for e in rep.entries if e.matches)
    report(
        "8a",
        rep.ok,
        f"{matched}/12 stages match exactly, mismatches outside whitelist: {unexpected}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the transcribed linear stage-3 table swaps the ensemble-3/4 phases "
    "relative to the (unitary) transform row, so exact agreement of all four "
    "linear tables is impossible; the table is kept verbatim and whitelisted",
)
def test_criterion_8b_linear_tables_match_exactly():
    mismatches = {
        index: compare_stages(generated_stage("linear", index), reference_stage("linear", index))
        for index in (1, 2, 3, 4)
    }
    clean = {k: [str(m) for m in v] for k, v in mismatches.items() if v}
    report("8b", not clean, f"linear stages with differing entries: {clean or 'none'}")


def test_criterion_9_physical_estimators():
    kappa_hz = cavity_decay_from_finesse(1.7e5, 0.1) / (2 * math.pi)
    gamma_eff = effective_spontaneous_rate(6e6, 0.005)
    kappa_ok = abs(kappa_hz - 20e3) / 20e3 < 0.20
    gamma_ok = abs(gamma_eff - 40.0) / 40.0 < 0.10
    report(
        9,
        kappa_ok and gamma_ok,
        f"kappa/2pi = {kappa_hz:.1f} Hz (within 20% of 20 kHz: {kappa_ok}), "
        f"gamma_eff = {gamma_eff} Hz (within 10% of 40 Hz: {gamma_ok})",
    )


def test_criterion_10_property_suites():
    rng = np.random.default_rng(123)
    params = PhysicalParams(BETA, R_VALUE)

    # unitarity of the three built-in transforms to 1e-12
    unitarity = max(
        np.linalg.norm(builtin_transform(k).matrix @ builtin_transform(k).matrix.conj().T - np.eye(4))
        for k in KINDS
    )

    # symplectic-eigenvalue invariance under mode transforms to 1e-10
    state = GaussianState(exact_run("linear").final_state.cov[2:, 2:])
    base_nu = symplectic_eigenvalues(state.cov)
    invariance = 0.0
    for seed in range(3):
        u = unitary_group.rvs(4, random_state=seed)
        invariance = max(
            invariance,
            np.abs(symplectic_eigenvalues(apply_mode_transform(state, u).cov) - base_nu).max(),
        )
    for k in KINDS:
        u = builtin_transform(k).matrix
        invariance = max(
            invariance,
            np.abs(symplectic_eigenvalues(apply_mode_transform(state, u).cov) - base_nu).max(),
        )

    # uncertainty preservation along arbitrary dissipative evolutions
    min_nu = math.inf
    for _ in range(3):
        f = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = QuadraticHamiltonian(0.5 * (f + f.conj().T), 0.5 * (g + g.T))
        dd = drift_diffusion(h, rng.uniform(0, 2, 3))
        for t in np.linspace(0.1, 3.0, 7):
            out = evolve(GaussianState.vacuum(3), dd, float(t))
            min_nu = min(min_nu, symplectic_eigenvalues(out.cov).min())

    # stage decoupling: off-target couplings below 1e-10 * beta
    decoupling = 0.0
    for kind in KINDS:
        for index in range(1, 5):
            rep = transformed_coupling(
                generated_stage(kind, index, params.beta, params.r),
                builtin_transform(kind),
            )
            off = np.delete(np.abs(rep.beam_splitter), rep.target).max()
            off = max(off, np.delete(np.abs(rep.squeezing), rep.target).max())
            decoupling = max(decoupling, off / params.beta)

    # stage-permutation invariance of the exact solver to 1e-10
    base = builtin_protocol("tshape", params)
    ref_cov = run_protocol(base, params).final_state.cov
    permutation = 0.0
    for order in ((3, 2, 1, 0), (1, 3, 0, 2)):
        perm = Protocol(base.transform, tuple(base.stages[i] for i in order), base.graph)
        permutation = max(
            permutation, np.abs(run_protocol(perm, params).final_state.cov - ref_cov).max()
        )

    ok = (
        unitarity < 1e-12
        and invariance < 1e-10
        and min_nu >= 0.5 - 1e-9
        and decoupling < 1e-10
        and permutation < 1e-10
    )
    report(
        10,
        ok,
        f"unitarity {unitarity:.1e}, transform invariance {invariance:.1e}, "
        f"min symplectic eigenvalue {min_nu:.12f}, decoupling {decoupling:.1e}, "
        f"permutation gap {permutation:.1e}",
    )
