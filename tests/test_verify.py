"""Tests for graphs, nullifier variances and cluster verification."""

import itertools
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
    nullifier_variances,
    run_protocol,
    vacuum_targets,
)

KINDS = ("linear", "square", "tshape")
PAIRS = tuple(itertools.combinations(range(4), 2))


def all_graphs():
    """The 64 graphs on four nodes, one per subset of the six node pairs."""
    for mask in range(2 ** len(PAIRS)):
        adj = np.zeros((4, 4), dtype=bool)
        for bit, (a, b) in enumerate(PAIRS):
            adj[a, b] = adj[b, a] = bool(mask >> bit & 1)
        yield ClusterGraph(adj)


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


@pytest.mark.parametrize("value", [0.5, -3.0, 2.0, math.nan, math.inf])
def test_graph_rejects_entries_other_than_zero_and_one(value):
    """A weight would otherwise turn into a unit edge and the nullifiers would
    test a different graph."""
    adj = builtin_graph("linear").adjacency.astype(float)
    adj[1, 2] = adj[2, 1] = value
    with pytest.raises(InvalidParameterError, match=r"entry \(1, 2\)"):
        ClusterGraph(adj)


def test_graph_accepts_integer_and_float_zero_one_entries():
    edges = builtin_graph("square").adjacency
    for adj in (edges.astype(int), edges.astype(float)):
        assert (ClusterGraph(adj).adjacency == edges).all()


def test_nullifier_coefficients_vector():
    w = nullifier_coefficients(builtin_graph("linear"), 1)
    expected = np.zeros(8)
    expected[3] = 1.0  # p2
    expected[0] = -1.0  # -q1
    expected[4] = -1.0  # -q3
    assert_allclose(w, expected)


@pytest.mark.parametrize("kind", KINDS)
def test_vacuum_variances(kind):
    vac = GaussianState.vacuum(4)
    graph = builtin_graph(kind)
    assert_allclose(nullifier_variances(vac, graph), vacuum_targets(graph), atol=1e-14)


def test_vacuum_targets_are_half_of_one_plus_degree():
    """(1 + deg a) / 2, exact in binary floating point."""
    assert vacuum_targets(builtin_graph("linear")).tolist() == [1.0, 1.5, 1.5, 1.0]
    assert vacuum_targets(builtin_graph("square")).tolist() == [1.5, 1.5, 1.5, 1.5]
    assert vacuum_targets(builtin_graph("tshape")).tolist() == [2.0, 1.0, 1.0, 1.0]


def test_every_four_node_graph_keys_its_own_targets():
    """Over all 64 graphs: the vacuum sits at vacuum_targets, the targets at
    squeezing xi are those times e^{-2 xi}, and the vacuum is no cluster."""
    vac = GaussianState.vacuum(4)
    xi = 0.3
    for graph in all_graphs():
        vacuum = vacuum_targets(graph)
        assert_allclose(nullifier_variances(vac, graph), vacuum, rtol=0, atol=1e-14)
        assert_allclose(analytic_targets(graph, xi), vacuum * math.exp(-2 * xi), rtol=1e-15)
        assert not is_cluster(vac, graph, xi, tol=10.0).passed


def test_cavity_is_marginalised_out():
    vac5 = GaussianState.vacuum(5)
    assert_allclose(
        nullifier_variances(vac5, builtin_graph("tshape")), [2.0, 1.0, 1.0, 1.0], atol=1e-14
    )


def test_nullifiers_read_the_last_four_modes():
    """A five-mode state's nullifiers are those of its last four modes, the
    ensemble block cov[2:, 2:], read in place."""
    from cvcluster import QuadraticHamiltonian, drift_diffusion, evolve

    rng = np.random.default_rng(7)
    f = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    dd = drift_diffusion(QuadraticHamiltonian(f + f.conj().T, g + g.T), rng.uniform(0.1, 2.0, 5))
    state = evolve(GaussianState.vacuum(5), dd, 0.7)
    assert np.abs(state.cov - 0.5 * np.eye(10)).max() > 0.1
    ensembles = GaussianState(state.cov[2:, 2:])
    for kind in KINDS:
        graph = builtin_graph(kind)
        expected = [
            w @ state.cov[2:, 2:] @ w for w in (nullifier_coefficients(graph, a) for a in range(4))
        ]
        assert_allclose(nullifier_variances(state, graph), expected, rtol=1e-15, atol=0)
        assert_allclose(nullifier_variances(ensembles, graph), expected, rtol=1e-15, atol=0)


def test_dimension_mismatch_rejected():
    for n_modes in (3, 6):
        with pytest.raises(InvalidParameterError, match=f"got {n_modes} modes"):
            nullifier_variances(GaussianState.vacuum(n_modes), builtin_graph("linear"))


@pytest.mark.parametrize("node", [-1, 4, 1.0, True])
def test_node_outside_0_to_3_is_rejected(node):
    """Unchecked, -1 would index node 3 from the end, 4 and 1.0 would reach
    numpy as a bad index, and True would act as node 1."""
    graph = builtin_graph("linear")
    for lookup in (graph.neighbors, lambda a: nullifier_coefficients(graph, a)):
        with pytest.raises(InvalidParameterError, match=rf"node must be an int in 0\.\.3, got {node!r}"):
            lookup(node)


def test_analytic_targets_values():
    for kind in KINDS:
        graph = builtin_graph(kind)
        assert_allclose(analytic_targets(graph, 0.0), vacuum_targets(graph), atol=1e-15)
    xi = math.atanh(0.5)
    linear = builtin_graph("linear")
    assert_allclose(analytic_targets(linear, xi), [1 / 3, 0.5, 0.5, 1 / 3], atol=1e-14)
    assert analytic_targets(builtin_graph("square"), 20.0).max() < 1e-8
    with pytest.raises(InvalidParameterError):
        analytic_targets(linear, -0.1)
    with pytest.raises(InvalidParameterError, match="xi"):
        analytic_targets(linear, math.nan)


def test_analytic_targets_decrease_with_squeezing():
    grid = np.linspace(0.0, 2.0, 9)
    for kind in KINDS:
        values = np.array([analytic_targets(builtin_graph(kind), x) for x in grid])
        assert (np.diff(values, axis=0) < 0).all()


def test_is_cluster_accepts_exact_protocol_output():
    params = PhysicalParams.from_ratios(2.5, 0.5)
    protocol = builtin_protocol("linear", params)
    run = run_protocol(protocol, params)
    report = is_cluster(run.final_state, protocol.graph, params.xi, tol=1e-6)
    assert report.passed
    assert report.node_passed.all()


@pytest.mark.parametrize("kind", KINDS)
def test_only_the_builtin_graph_passes_on_a_protocol_state(kind):
    """A wrong graph fails: of the 64 four-node graphs, exactly the one the
    protocol targets passes on its final state."""
    params = PhysicalParams.from_ratios(2.5, 0.5)
    final = run_protocol(builtin_protocol(kind, params), params).final_state
    passing = [
        graph.adjacency
        for graph in all_graphs()
        if is_cluster(final, graph, params.xi, tol=1e-6).passed
    ]
    assert len(passing) == 1
    assert (passing[0] == builtin_graph(kind).adjacency).all()


def test_is_cluster_rejects_vacuum_at_positive_squeezing():
    vac = GaussianState.vacuum(4)
    report = is_cluster(vac, builtin_graph("square"), 0.3, tol=10.0)
    assert not report.passed  # generous tolerance must not rescue an unsqueezed state


def test_is_cluster_accepts_time_domain_output():
    params = PhysicalParams.from_ratios(2.5, 0.5)
    protocol = builtin_protocol("tshape", params, stage_time=4.0)
    run = run_protocol(protocol, params, method="time_domain")
    report = is_cluster(run.final_state, protocol.graph, params.xi, tol=0.05)
    assert report.passed


def test_is_cluster_requires_positive_tolerance():
    vac = GaussianState.vacuum(4)
    for tol in (0.0, math.nan):  # NaN raises instead of failing every node
        with pytest.raises(InvalidParameterError, match="tolerance"):
            is_cluster(vac, builtin_graph("linear"), 0.1, tol=tol)


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
        state = evolve(GaussianState.vacuum(4), dd, rng.uniform(0, 2))
        assert (nullifier_variances(state, graph) >= 0).all()
