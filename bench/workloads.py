"""Seeded inputs, the closed-loop client and the output checks of the benchmark.

Nothing here imports cvcluster at module level: the ``cli-cold`` client must
stay a light process that only spawns ``python -m cvcluster.cli``.  The
expected nullifier variances are computed from the graph edges below, not
from cvcluster.verify, so a check does not trust the code it checks.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable

PROTOCOLS = ("linear", "square", "tshape")

#: Cluster graph edges on the four ensemble nodes (0-based): the linear chain,
#: the square with nodes 1, 2 facing 3, 4, and the star on node 1.
EDGES = {
    "linear": ((0, 1), (1, 2), (2, 3)),
    "square": ((0, 2), (0, 3), (1, 2), (1, 3)),
    "tshape": ((0, 1), (0, 2), (0, 3)),
}

#: Allowed distance from the target variance, per method: the CLI's default
#: verdict tolerances at the commit that defined this benchmark.
RUN_TOL = {"lyapunov": 1e-6, "ode": 0.05}
PURITY_TOL = 1e-9
#: Acceptance criterion 7: number-basis vs Gaussian covariance gap and trace error.
ORACLE_MAX_GAP = 1e-3
ORACLE_MAX_TRACE_ERROR = 1e-8
#: A sweep row and a serial library call for the same point do the same arithmetic.
SWEEP_MATCH_TOL = 1e-12


def nullifier_targets(protocol: str, r: float) -> list[float]:
    """Target variance of every nullifier: (1 + deg a)/2 * (1 - r)/(1 + r)."""
    degree = [0, 0, 0, 0]
    for a, b in EDGES[protocol]:
        degree[a] += 1
        degree[b] += 1
    squeeze = (1.0 - r) / (1.0 + r)
    return [(1 + d) / 2 * squeeze for d in degree]


@dataclass(frozen=True)
class RunRequest:
    """One ``cvcluster run``; None leaves a flag at the CLI default."""

    protocol: str
    beta: float
    r: float
    stage_time: float | None = None
    method: str | None = None
    oracle: bool = False

    def argv(self, out: str) -> list[str]:
        args = ["run", "--protocol", self.protocol, "--beta", repr(self.beta), "--r", repr(self.r)]
        if self.stage_time is not None:
            args += ["--stage-time", repr(self.stage_time)]
        if self.method is not None:
            args += ["--method", self.method]
        if self.oracle:
            args.append("--oracle")
        return args + ["--out", out]


@dataclass(frozen=True)
class SweepRequest:
    """One ``cvcluster sweep`` over a 3 x 3 x 3 (beta, r, stage time) grid."""

    protocol: str
    betas: tuple[float, ...]
    rs: tuple[float, ...]
    stage_times: tuple[float, ...]

    def argv(self, out: str) -> list[str]:
        def joined(values):
            return ",".join(repr(v) for v in values)

        return [
            "sweep", "--protocol", self.protocol, "--method", "ode",
            "--beta", joined(self.betas), "--r", joined(self.rs),
            "--stage-time", joined(self.stage_times), "--out", out,
        ]

    def grid(self) -> list[tuple[float, float, float]]:
        return [(b, r, t) for b in self.betas for r in self.rs for t in self.stage_times]


#: Largest r of run-mix.  From r = 0.87, with stage times of 15.4 and more, the
#: ode method can raise UnphysicalStateError from round-off: the smallest
#: symplectic eigenvalue comes out 2.8e-9 below 1/2 (see bench/README.md).
RUN_MIX_R_MAX = 0.85


def _fast_point(rng: random.Random, r_max: float = 0.9) -> tuple[float, float]:
    """(beta, r) with r in [0.05, r_max] and beta sqrt(1 - r^2) in [0.6, 5]:
    every stage relaxes in the fast regime."""
    r = rng.uniform(0.05, r_max)
    return rng.uniform(0.6, 5.0) / math.sqrt(1.0 - r * r), r


def cli_cold_requests(rng: random.Random) -> list[RunRequest]:
    return [RunRequest(PROTOCOLS[i % 3], *_fast_point(rng)) for i in range(60)]


def run_mix_requests(rng: random.Random) -> list[RunRequest]:
    # every (protocol, method) pair equally often, so the mix is the same for every seed
    pairs = [(p, m) for p in PROTOCOLS for m in ("lyapunov", "ode")] * 40
    rng.shuffle(pairs)
    out = []
    for protocol, method in pairs:
        beta, r = _fast_point(rng, RUN_MIX_R_MAX)
        out.append(RunRequest(protocol, beta, r, rng.uniform(8.0, 16.0), method))
    return out


def sweep_requests(rng: random.Random) -> list[SweepRequest]:
    def axis(lo, hi):
        return tuple(sorted(rng.uniform(lo, hi) for _ in range(3)))

    # beta >= 1 and r <= 0.8 keep every grid point in the fast regime
    return [
        SweepRequest(PROTOCOLS[i % 3], axis(1.0, 5.0), axis(0.05, 0.8), axis(8.0, 16.0))
        for i in range(8)
    ]


def oracle_requests(rng: random.Random) -> list[RunRequest]:
    # At the default stage time 4 the ode verdict fails for beta <= 0.7, and
    # r = 0 squeezes nothing.  Above beta = 2 the RK4 density matrix picks up
    # eigenvalues near -1e-9 and the oracle raises UnphysicalStateError
    # (beta = 2.9302, r = 0.3343 does); see bench/README.md.
    return [
        RunRequest(PROTOCOLS[i % 3], rng.uniform(1.0, 2.0), rng.uniform(0.1, 0.5),
                   method="ode", oracle=True)
        for i in range(8)
    ]


def check_run(req: RunRequest, doc: dict) -> str | None:
    """None when the result document is right, else the reason it is not."""
    method = req.method or "lyapunov"
    final = doc["final"]
    got = final["nullifier_variances"]
    targets = nullifier_targets(req.protocol, req.r)
    if len(got) != len(targets):
        return f"{len(got)} nullifier variances, expected {len(targets)}"
    err = max(abs(g - t) for g, t in zip(got, targets))
    if not err <= RUN_TOL[method]:
        return f"nullifier variance off target by {err:.3g} (tol {RUN_TOL[method]})"
    if method == "lyapunov" and not abs(final["ensemble_purity"] - 1.0) <= PURITY_TOL:
        return f"ensemble purity {final['ensemble_purity']!r}, expected 1"
    if req.oracle:
        oracle = doc["oracle"]
        if not oracle["max_covariance_gap"] < ORACLE_MAX_GAP:
            return f"oracle covariance gap {oracle['max_covariance_gap']:.3g}"
        if not oracle["trace_error"] < ORACLE_MAX_TRACE_ERROR:
            return f"oracle trace error {oracle['trace_error']:.3g}"
    return None


@functools.cache
def sweep_reference(req: SweepRequest) -> tuple[float, ...]:
    """max |variance - target| of every grid point from serial library calls.

    Cached: a run cycles through a few grids, and the reference costs as much
    as the sweep itself."""
    from cvcluster.model import PhysicalParams
    from cvcluster.protocols import builtin_protocol, run_protocol
    from cvcluster.verify import builtin_graph, nullifier_variances

    graph = builtin_graph(req.protocol)
    errors = []
    for beta, r, t in req.grid():
        params = PhysicalParams.from_ratios(beta, r, kappa=1.0)
        protocol = builtin_protocol(req.protocol, params, stage_time=t)
        state = run_protocol(protocol, params, method="time_domain").final_state
        got = nullifier_variances(state, graph)
        errors.append(max(abs(g - e) for g, e in zip(got, nullifier_targets(req.protocol, r))))
    return tuple(errors)


def check_sweep(req: SweepRequest, doc: dict, reference=None) -> str | None:
    rows = doc["rows"]
    grid = req.grid()
    if len(rows) != len(grid):
        return f"{len(rows)} sweep rows, expected {len(grid)}"
    if reference is None:
        reference = sweep_reference(req)
    for i, (row, point, expected) in enumerate(zip(rows, grid, reference)):
        if (row["beta"], row["r"], row["stage_time"]) != point:
            return f"sweep row {i} is at {(row['beta'], row['r'], row['stage_time'])}, expected {point}"
        if not abs(row["max_abs_error"] - expected) <= SWEEP_MATCH_TOL:
            return f"sweep row {i} error {row['max_abs_error']!r}, serial call gives {expected!r}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random], list]
    check: Callable[..., str | None]
    #: each operation is a fresh ``python -m cvcluster.cli`` process
    cold: bool
    #: requests in a traced run, each run untraced and traced; a fixed count
    #: keeps per-operation counts exact
    trace_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-cold", cli_cold_requests, check_run, cold=True, trace_ops=6),
        Workload("run-mix", run_mix_requests, check_run, cold=False, trace_ops=240),
        Workload("sweep-grid", sweep_requests, check_sweep, cold=False, trace_ops=8),
        Workload("oracle", oracle_requests, check_run, cold=False, trace_ops=2),
    )
}


def requests(workload: str, seed: int) -> list:
    """The inputs of a workload; the same seed always gives the same list."""
    return WORKLOADS[workload].make(random.Random(f"{workload}:{seed}"))


def verdict(check: Callable[..., str | None], req, code, out_path) -> str | None:
    """Failure reason of one finished operation, or None when it succeeded."""
    if code != 0:
        return f"exit code {code}"
    try:
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return check(req, doc)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


@dataclass
class Tally:
    latencies: list[float]
    failures: list[str]
    #: CPU seconds of each operation, when measured
    cpu: list[float]

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(reqs, op, judge, seconds=None, count=None, cpu=None) -> Tally:
    """Closed loop with one operation in flight.

    Runs ``count`` operations, or, without a count, issues operations until
    ``seconds`` have passed (at least one).  ``op(req)`` returns an exit code;
    an exception or ``SystemExit`` from it is a failed operation, not the end
    of the run.  ``judge(req, code)`` returns a failure reason or None and is
    not timed.  ``cpu`` is an optional clock read around each operation.
    """
    tally = Tally([], [], [])
    start = time.perf_counter()
    i = 0
    while (i < count) if count is not None else (i == 0 or time.perf_counter() - start < seconds):
        req = reqs[i % len(reqs)]
        i += 1
        c0 = cpu() if cpu else 0.0
        t0 = time.perf_counter()
        error = None
        try:
            code = op(req)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the run goes on; the operation counts as failed
            error = f"{type(exc).__name__}: {exc}"
            if len(tally.failures) < 5:
                traceback.print_exc()
        tally.latencies.append(time.perf_counter() - t0)
        if cpu:
            tally.cpu.append(cpu() - c0)
        reason = error if error is not None else judge(req, code)
        if reason is not None:
            tally.failures.append(reason)
    return tally
