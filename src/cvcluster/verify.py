"""Cluster-state verification through nullifier variances.

A graph on the four ensemble modes defines one nullifier per node,
n_a = p_a - sum_{b in N(a)} q_b.  A state qualifies as the corresponding
cluster state when every nullifier variance sits at its finite-squeezing
target value and strictly below its vacuum value; all targets shrink as
e^{-2 xi} and vanish in the infinite-squeezing limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .gaussian import GaussianState

GRAPH_KINDS = ("linear", "square", "tshape")

_EDGES = {
    "linear": ((0, 1), (1, 2), (2, 3)),
    "square": ((0, 2), (0, 3), (1, 2), (1, 3)),
    "tshape": ((0, 1), (0, 2), (0, 3)),
}


@dataclass(frozen=True, eq=False)
class ClusterGraph:
    """Undirected four-node graph; node a's neighbors define its nullifier."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (4, 4):
            raise InvalidParameterError(f"adjacency must be 4 x 4, got {adj.shape}")
        if not (adj == adj.T).all():
            raise InvalidParameterError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise InvalidParameterError("adjacency must have a zero diagonal")
        adj = adj.copy()
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def n_nodes(self) -> int:
        return 4

    def neighbors(self, node: int) -> tuple[int, ...]:
        return tuple(int(b) for b in np.flatnonzero(self.adjacency[node]))


def builtin_graph(kind: str) -> ClusterGraph:
    """The linear chain, the square (1,2 facing 3,4), or the star on node 1."""
    if kind not in _EDGES:
        raise InvalidParameterError(f"unknown graph kind {kind!r}, expected one of {GRAPH_KINDS}")
    adj = np.zeros((4, 4), dtype=bool)
    for a, b in _EDGES[kind]:
        adj[a, b] = adj[b, a] = True
    return ClusterGraph(adj)


def nullifier_coefficients(graph: ClusterGraph, node: int) -> np.ndarray:
    """Quadrature coefficient vector w of n_a, in (q1, p1, ..., q4, p4) order."""
    w = np.zeros(8)
    w[2 * node + 1] = 1.0
    for b in graph.neighbors(node):
        w[2 * b] = -1.0
    return w


def nullifier_labels(graph: ClusterGraph) -> list[str]:
    """Human-readable combinations, e.g. 'p2 - q1 - q3' (1-based nodes)."""
    out = []
    for a in range(graph.n_nodes):
        terms = [f"p{a + 1}"] + [f"q{b + 1}" for b in graph.neighbors(a)]
        out.append(" - ".join(terms))
    return out


def nullifier_variances(state: GaussianState, graph: ClusterGraph) -> np.ndarray:
    """Second moment <n_a^2> of every nullifier (variance plus mean squared).

    Reads the quadratures of the non-cavity modes straight from the state's
    mean and covariance, so the cavity, wherever it sits, is traced out
    without building the marginal state.  For the zero-mean states produced
    by the protocols this is exactly the variance w^T sigma w.
    """
    idx = [i for i in range(2 * state.n_modes) if state.mode_labels[i // 2] != "cavity"]
    if len(idx) != 2 * graph.n_nodes:
        raise InvalidParameterError(
            f"state has {len(idx) // 2} non-cavity modes, graph needs {graph.n_nodes}"
        )
    cov = state.cov[np.ix_(idx, idx)]
    mean = state.mean[idx]
    out = np.empty(graph.n_nodes)
    for a in range(graph.n_nodes):
        w = nullifier_coefficients(graph, a)
        out[a] = w @ cov @ w + (w @ mean) ** 2
    return out


def analytic_targets(kind: str, xi: float) -> np.ndarray:
    """Expected nullifier variances at squeezing xi: vacuum values times e^{-2 xi}."""
    if xi < 0:
        raise InvalidParameterError(f"xi must be nonnegative, got {xi}")
    return vacuum_targets(kind) * math.exp(-2.0 * xi)


def vacuum_targets(kind: str) -> np.ndarray:
    """Nullifier variances of the vacuum: 1/2 per quadrature in n_a, (1 + deg a) / 2."""
    return 0.5 * (1 + builtin_graph(kind).adjacency.sum(axis=1))


@dataclass(frozen=True)
class VarianceReport:
    """Per-node nullifier variances against their analytic targets."""

    kind: str
    xi: float
    tolerance: float
    variances: np.ndarray
    targets: np.ndarray
    vacuum: np.ndarray
    node_passed: np.ndarray
    passed: bool

    def __post_init__(self):
        if (np.asarray(self.variances) < 0).any():
            raise InvalidParameterError("nullifier variances cannot be negative")


#: An unsqueezed nullifier must sit below vacuum by more than this before it
#: counts as squeezed; guards the strict inequality against rounding noise.
SQUEEZING_MARGIN = 1e-10


def is_cluster(state: GaussianState, kind: str, xi: float, tol: float) -> VarianceReport:
    """Pass iff every nullifier sits within ``tol`` of its target and is
    genuinely squeezed: strictly below its vacuum value by more than
    SQUEEZING_MARGIN, so rounding noise cannot fake squeezing and an
    unsqueezed state never passes however generous ``tol`` is."""
    if tol <= 0:
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")
    graph = builtin_graph(kind)
    variances = nullifier_variances(state, graph)
    targets = analytic_targets(kind, xi)
    vacuum = vacuum_targets(kind)
    node_passed = (np.abs(variances - targets) <= tol) & (variances < vacuum - SQUEEZING_MARGIN)
    return VarianceReport(
        kind=kind,
        xi=xi,
        tolerance=tol,
        variances=variances,
        targets=targets,
        vacuum=vacuum,
        node_passed=node_passed,
        passed=bool(node_passed.all()),
    )
