"""Tests for graphs, nullifier variances and cluster verification."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvcluster import (
    ClusterGraph,
    GaussianState,
    InvalidParameterError,
    PhysicalParams,
    analytic_targets,
    builtin_graph,
    builtin_protocol,
    is_cluster,
    nullifier_coefficients,
    nullifier_labels,
    nullifier_variances,
    run_protocol,
    vacuum_targets,
)

KINDS = ("linear", "square", "tshape")


def test_builtin_graph_neighborhoods():
    assert builtin_graph("linear").neighbors(1) == (0, 2)
    assert builtin_graph("square").neighbors(0) == (2, 3)
    assert builtin_graph("tshape").neighbors(3) == (0,)
    with pytest.raises(InvalidParameterError):
        builtin_graph("pentagon")


def test_graph_validation():
    bad = np.zeros((4, 4), dtype=bool)
    bad[0, 1] = True  # not symmetric
    with pytest.raises(InvalidParameterError):
        ClusterGraph(bad)
    loop = np.zeros((4, 4), dtype=bool)
    loop[2, 2] = True
    with pytest.raises(InvalidParameterError):
        ClusterGraph(loop)


def test_nullifier_labels_match_printed_combinations():
    assert nullifier_labels(builtin_graph("linear")) == [
        "p1 - q2",
        "p2 - q1 - q3",
        "p3 - q2 - q4",
        "p4 - q3",
    ]
    assert nullifier_labels(builtin_graph("square")) == [
        "p1 - q3 - q4",
        "p2 - q3 - q4",
        "p3 - q1 - q2",
        "p4 - q1 - q2",
    ]
    assert nullifier_labels(builtin_graph("tshape")) == [
        "p1 - q2 - q3 - q4",
        "p2 - q1",
        "p3 - q1",
        "p4 - q1",
    ]


def test_nullifier_coefficients_vector():
    w = nullifier_coefficients(builtin_graph("linear"), 1)
    expected = np.zeros(8)
    expected[3] = 1.0  # p2
    expected[0] = -1.0  # -q1
    expected[4] = -1.0  # -q3
    assert_allclose(w, expected)


@pytest.mark.parametrize("kind", KINDS)
def test_vacuum_variances(kind):
    vac = GaussianState.vacuum(("e1", "e2", "e3", "e4"))
    assert_allclose(nullifier_variances(vac, builtin_graph(kind)), vacuum_targets(kind), atol=1e-14)


def test_vacuum_targets_are_half_of_one_plus_degree():
    """(1 + deg a) / 2, exact in binary floating point."""
    assert vacuum_targets("linear").tolist() == [1.0, 1.5, 1.5, 1.0]
    assert vacuum_targets("square").tolist() == [1.5, 1.5, 1.5, 1.5]
    assert vacuum_targets("tshape").tolist() == [2.0, 1.0, 1.0, 1.0]
    with pytest.raises(InvalidParameterError):
        vacuum_targets("pentagon")


def test_cavity_is_marginalised_out():
    vac5 = GaussianState.vacuum(("cavity", "e1", "e2", "e3", "e4"))
    assert_allclose(
        nullifier_variances(vac5, builtin_graph("tshape")), [2.0, 1.0, 1.0, 1.0], atol=1e-14
    )


def test_cavity_anywhere_is_traced_out():
    """Nullifiers read the non-cavity quadratures in place: the same numbers as
    the formula applied to the marginal, wherever the cavity sits."""
    from cvcluster import QuadraticHamiltonian, drift_diffusion, evolve

    rng = np.random.default_rng(7)
    labels = ("e1", "cavity", "e2", "e3", "e4")
    f = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    dd = drift_diffusion(QuadraticHamiltonian(f + f.conj().T, g + g.T), rng.uniform(0.1, 2.0, 5))
    start = GaussianState(labels, rng.normal(size=10), 0.5 * np.eye(10))
    state = evolve(start, dd, 0.7)
    assert np.abs(state.mean).min() > 0 and np.abs(state.cov - 0.5 * np.eye(10)).max() > 0.1
    marginal = state.marginal(("e1", "e2", "e3", "e4"))
    for kind in KINDS:
        graph = builtin_graph(kind)
        expected = [
            w @ marginal.cov @ w + (w @ marginal.mean) ** 2
            for w in (nullifier_coefficients(graph, a) for a in range(4))
        ]
        assert nullifier_variances(state, graph).tolist() == expected


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidParameterError):
        nullifier_variances(GaussianState.vacuum(("a", "b", "c")), builtin_graph("linear"))


def test_mean_offset_contributes():
    n = 4
    mean = np.zeros(2 * n)
    mean[1] = 0.7  # displace p1, which enters only the first nullifier
    state = GaussianState(("e1", "e2", "e3", "e4"), mean, 0.5 * np.eye(2 * n))
    values = nullifier_variances(state, builtin_graph("linear"))
    assert values[0] == pytest.approx(1.0 + 0.7**2)
    assert values[1] == pytest.approx(1.5)


def test_analytic_targets_values():
    for kind in KINDS:
        assert_allclose(analytic_targets(kind, 0.0), vacuum_targets(kind), atol=1e-15)
    xi = math.atanh(0.5)
    assert_allclose(analytic_targets("linear", xi), [1 / 3, 0.5, 0.5, 1 / 3], atol=1e-14)
    assert analytic_targets("square", 20.0).max() < 1e-8
    with pytest.raises(InvalidParameterError):
        analytic_targets("linear", -0.1)


def test_analytic_targets_decrease_with_squeezing():
    grid = np.linspace(0.0, 2.0, 9)
    for kind in KINDS:
        values = np.array([analytic_targets(kind, x) for x in grid])
        assert (np.diff(values, axis=0) < 0).all()


def test_is_cluster_accepts_exact_protocol_output():
    params = PhysicalParams.from_ratios(2.5, 0.5)
    run = run_protocol(builtin_protocol("linear", params), params)
    report = is_cluster(run.final_state, "linear", params.xi, tol=1e-6)
    assert report.passed
    assert report.node_passed.all()


def test_is_cluster_rejects_vacuum_at_positive_squeezing():
    vac = GaussianState.vacuum(("e1", "e2", "e3", "e4"))
    report = is_cluster(vac, "square", 0.3, tol=10.0)
    assert not report.passed  # generous tolerance must not rescue an unsqueezed state


def test_is_cluster_accepts_time_domain_output():
    params = PhysicalParams.from_ratios(2.5, 0.5)
    run = run_protocol(
        builtin_protocol("tshape", params), params, method="time_domain", stage_time=4.0
    )
    report = is_cluster(run.final_state, "tshape", params.xi, tol=0.05)
    assert report.passed


def test_is_cluster_requires_positive_tolerance():
    vac = GaussianState.vacuum(("e1", "e2", "e3", "e4"))
    with pytest.raises(InvalidParameterError):
        is_cluster(vac, "linear", 0.1, tol=0.0)


def test_variances_nonnegative_for_random_states():
    from cvcluster import QuadraticHamiltonian, drift_diffusion, evolve

    rng = np.random.default_rng(31)
    graph = builtin_graph("square")
    for _ in range(10):
        f = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        f = 0.5 * (f + f.conj().T)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g = 0.5 * (g + g.T)
        dd = drift_diffusion(QuadraticHamiltonian(f, g), rng.uniform(0.1, 2.0, 4))
        state = evolve(GaussianState.vacuum(("e1", "e2", "e3", "e4")), dd, rng.uniform(0, 2))
        assert (nullifier_variances(state, graph) >= 0).all()
