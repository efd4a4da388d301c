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

_EDGES = {
    "linear": ((0, 1), (1, 2), (2, 3)),
    "square": ((0, 2), (0, 3), (1, 2), (1, 3)),
    "tshape": ((0, 1), (0, 2), (0, 3)),
}

#: The built-in cluster states; each protocol kind prepares the graph of that name.
GRAPH_KINDS = tuple(_EDGES)


@dataclass(frozen=True, eq=False)
class ClusterGraph:
    """Undirected four-node graph; node a's neighbors define its nullifier."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        if adj.shape != (4, 4):
            raise InvalidParameterError(f"adjacency must be 4 x 4, got {adj.shape}")
        bad = np.argwhere((adj != 0) & (adj != 1))
        if bad.size:
            a, b = bad[0]
            raise InvalidParameterError(
                f"adjacency entry ({a}, {b}) must be 0, 1 or a bool, got {adj[a, b].item()!r}"
            )
        adj = adj.astype(bool)
        if not (adj == adj.T).all():
            raise InvalidParameterError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise InvalidParameterError("adjacency must have a zero diagonal")
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def n_nodes(self) -> int:
        return 4

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Nodes adjacent to ``node``, an int in 0..3 (a bool is not a node)."""
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)) or not 0 <= node < 4:
            raise InvalidParameterError(f"node must be an int in 0..3, got {node!r}")
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
    neighbors = graph.neighbors(node)  # validates node before it indexes w
    w = np.zeros(8)
    w[2 * node + 1] = 1.0
    for b in neighbors:
        w[2 * b] = -1.0
    return w


def nullifier_variances(state: GaussianState, graph: ClusterGraph) -> np.ndarray:
    """Variance w^T sigma w of every nullifier n_a = w . x.

    The graph's nodes are the state's last four modes, read in place, so a
    five-mode protocol state's mode 0, the cavity, is traced out.  Raises
    InvalidParameterError for a state of other than 4 or 5 modes.
    """
    if state.n_modes not in (4, 5):
        raise InvalidParameterError(
            f"nullifiers need a 4- or 5-mode state (cavity first), got {state.n_modes} modes"
        )
    cov = state.cov[-8:, -8:]
    out = np.empty(graph.n_nodes)
    for a in range(graph.n_nodes):
        w = nullifier_coefficients(graph, a)
        out[a] = w @ cov @ w
    return out


def analytic_targets(graph: ClusterGraph, xi: float) -> np.ndarray:
    """Expected nullifier variances at squeezing xi: vacuum values times e^{-2 xi}."""
    if not xi >= 0:
        raise InvalidParameterError(f"xi must be nonnegative, got {xi}")
    return vacuum_targets(graph) * math.exp(-2.0 * xi)


def vacuum_targets(graph: ClusterGraph) -> np.ndarray:
    """Nullifier variances of the vacuum: 1/2 per quadrature in n_a, (1 + deg a) / 2."""
    return 0.5 * (1 + graph.adjacency.sum(axis=1))


@dataclass(frozen=True)
class VarianceReport:
    """Per-node nullifier variances against their analytic targets."""

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


def is_cluster(state: GaussianState, graph: ClusterGraph, xi: float, tol: float) -> VarianceReport:
    """Pass iff every nullifier sits within ``tol`` of its target and is
    genuinely squeezed: strictly below its vacuum value by more than
    SQUEEZING_MARGIN, so rounding noise cannot fake squeezing and an
    unsqueezed state never passes however generous ``tol`` is."""
    if not tol > 0:
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")
    variances = nullifier_variances(state, graph)
    targets = analytic_targets(graph, xi)
    vacuum = vacuum_targets(graph)
    node_passed = (np.abs(variances - targets) <= tol) & (variances < vacuum - SQUEEZING_MARGIN)
    return VarianceReport(
        variances=variances,
        targets=targets,
        vacuum=vacuum,
        node_passed=node_passed,
        passed=bool(node_passed.all()),
    )
