"""Command-line front end: run protocols, sweeps, table checks, estimators.

All protocol computations are dimensionless (rates in units of kappa,
times in units of 1/kappa); the ``physical`` subcommand exposes the two
SI-unit estimators.  Results are written as a single JSON document with a
schema name and version; floats serialise with full round-trip precision.

Exit codes: 0 pass, 1 verdict failure, 2 configuration error (including a
NaN or infinite input number and an unwritable ``--out``), 3 physics error
(any other SimulationError: an unstable stage, truncated-basis overflow, an
unphysical state, a NaN or infinite number in the result).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .errors import InvalidParameterError, SimulationError
from .gaussian import GaussianState, evolve, symplectic_eigenvalues
from .model import (
    PhysicalParams,
    cavity_decay_from_finesse,
    effective_spontaneous_rate,
    two_mode_drift_diffusion,
)
from .protocols import MODE_LABELS, PROTOCOL_KINDS, builtin_protocol, run_protocol
from .tables import check_tables
from .verify import is_cluster

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_PHYSICS_ERROR = 3

SCHEMA_NAME = "cvcluster/result"
SCHEMA_VERSION = 1

_METHODS = {"lyapunov": "lyapunov_sequential", "ode": "time_domain"}
_DEFAULT_TOL = {"lyapunov": 1e-6, "ode": 0.05}

#: Largest oracle cutoff N.  The oracle's memory grows as N^4: a one-interval
#: run (``--stage-time 0.25``) at N 50 peaks at 595 MB RSS on a 2-core x86-64
#: host.  Here, not in ``fock``, so that validation imports no scipy.
ORACLE_CUTOFF_MAX = 50

#: Longest oracle stage time (in units of 1/kappa) and largest oracle beta.
#: The oracle's run time grows linearly with each: one leakage-guard interval
#: per 0.25 of stage time, and Taylor sub-steps per interval in proportion to
#: beta.  At the stage-time cap and the default cutoff, beta and r, ``run
#: --protocol linear --oracle`` takes 2.8 s on a 2-core x86-64 host, and
#: 10-13 s at beta 10 (beta 1e6 did not end).
ORACLE_STAGE_TIME_MAX = 64.0
ORACLE_BETA_MAX = 10.0


def _require_finite(field: str, value: float) -> None:
    if not math.isfinite(value):
        raise InvalidParameterError(f"field {field!r}: must be a finite number, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Every run default; ``validate`` fills in the method's default ``tol``."""

    protocol: str
    r: float = 0.5
    beta: float = 2.5
    stage_time: float = 4.0
    method: str = "lyapunov"  # "lyapunov" | "ode"
    tol: float | None = None
    oracle: bool = False
    oracle_cutoff: int = 20

    def validate(self) -> "RunConfig":
        for field, kind, name in (
            ("protocol", str, "a string"),
            ("r", numbers.Real, "a number"),
            ("beta", numbers.Real, "a number"),
            ("stage_time", numbers.Real, "a number"),
            ("method", str, "a string"),
            ("tol", (numbers.Real, type(None)), "a number"),
            ("oracle", bool, "a boolean"),
            ("oracle_cutoff", numbers.Integral, "an integer"),
        ):
            value = getattr(self, field)
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise InvalidParameterError(f"field {field!r}: must be {name}, got {value!r}")
        if self.protocol not in PROTOCOL_KINDS:
            raise InvalidParameterError(f"field 'protocol': unknown value {self.protocol!r}")
        for field in ("r", "beta", "stage_time"):
            _require_finite(field, getattr(self, field))
        if not 0.0 <= self.r < 1.0:
            raise InvalidParameterError(f"field 'r': must lie in [0, 1), got {self.r}")
        if self.beta <= 0:
            raise InvalidParameterError(f"field 'beta': must be positive, got {self.beta}")
        if self.stage_time <= 0:
            raise InvalidParameterError(f"field 'stage_time': must be positive, got {self.stage_time}")
        if self.method not in _METHODS:
            raise InvalidParameterError(f"field 'method': must be one of {sorted(_METHODS)}")
        tol = _DEFAULT_TOL[self.method] if self.tol is None else self.tol
        _require_finite("tol", tol)
        if tol <= 0:
            raise InvalidParameterError(f"field 'tol': must be positive, got {tol}")
        if self.oracle_cutoff < 4:
            raise InvalidParameterError(f"field 'oracle_cutoff': must be at least 4, got {self.oracle_cutoff}")
        if self.oracle_cutoff > ORACLE_CUTOFF_MAX:
            raise InvalidParameterError(
                f"field 'oracle_cutoff': must be at most {ORACLE_CUTOFF_MAX}, got {self.oracle_cutoff}"
            )
        for field, cap in (("beta", ORACLE_BETA_MAX), ("stage_time", ORACLE_STAGE_TIME_MAX)):
            if self.oracle and getattr(self, field) > cap:
                raise InvalidParameterError(
                    f"field {field!r}: must be at most {cap:g} with the oracle, got {getattr(self, field)}"
                )
        return replace(self, tol=tol)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _document(kind: str, payload: dict) -> dict:
    return {
        "schema": f"cvcluster/{kind}",
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **payload,
    }


def _write(doc: dict, out: str | None) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SimulationError(f"result holds a NaN or infinite number: {exc}") from exc
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParameterError(f"field 'out': cannot write {out}: {exc}") from exc


def _run_once(config: RunConfig) -> tuple[dict, bool]:
    """Execute one protocol run; returns (result payload, verdict)."""
    params = PhysicalParams(config.beta, config.r)
    protocol = builtin_protocol(config.protocol, params, stage_time=config.stage_time)
    run = run_protocol(protocol, params, method=_METHODS[config.method])
    report = is_cluster(run.final_state, protocol.graph, params.xi, config.tol)
    ensemble_cov = run.final_state.cov[2:, 2:]
    payload = {
        "resolved_config": asdict(config),
        "warnings": list(run.warnings),
        "stages": [
            {
                "index": t.index,
                "target_mode": t.target_mode,
                "beam_splitter": _complex_pair(t.beam_splitter),
                "squeezing": _complex_pair(t.squeezing),
                "slow_regime": t.slow_regime,
                "nullifier_variances": t.nullifier_variances.tolist(),
                "ensemble_purity": t.ensemble_purity,
                "cavity_cross_norm": t.cavity_cross_norm,
            }
            for t in run.stages
        ],
        "final": {
            "mode_labels": list(MODE_LABELS),
            "covariance_row_major": run.final_state.cov.reshape(-1).tolist(),
            "ensemble_covariance_row_major": ensemble_cov.reshape(-1).tolist(),
            "nullifier_variances": report.variances.tolist(),
            "analytic_targets": report.targets.tolist(),
            "vacuum_variances": report.vacuum.tolist(),
            "ensemble_purity": run.stages[-1].ensemble_purity,
            "ensemble_symplectic_eigenvalues": symplectic_eigenvalues(run.frame_state.cov[2:, 2:]).tolist(),
        },
        "verdict": {
            "passed": report.passed,
            "tolerance": config.tol,
            "node_passed": report.node_passed.tolist(),
        },
    }
    return payload, report.passed


def _oracle_section(config: RunConfig) -> dict:
    """Cross-check the reduced cavity + target-mode model against the
    number-basis integrator at the configured beta, r and stage time.
    Imported here because ``fock`` loads scipy, which no other path needs."""
    from .fock import FockConfig, integrate_two_mode

    fock = integrate_two_mode(
        FockConfig(
            beta=config.beta,
            r=config.r,
            t_final=config.stage_time,
            cutoff=config.oracle_cutoff,
        )
    )
    dd = two_mode_drift_diffusion(config.beta, config.r)
    gaussian = evolve(GaussianState.vacuum(2), dd, config.stage_time)
    gap = float(np.abs(fock.covariance - gaussian.cov).max())
    return {
        "cutoff": config.oracle_cutoff,
        "t_final": config.stage_time,
        "steps": fock.steps,
        "dt": fock.dt,
        "max_covariance_gap": gap,
        "trace_error": fock.trace_error,
        "leakage": fock.leakage,
        "fock_covariance_row_major": fock.covariance.reshape(-1).tolist(),
        "gaussian_covariance_row_major": gaussian.cov.reshape(-1).tolist(),
    }


def _config_from_args(args) -> RunConfig:
    base = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(f"field 'config': cannot read {args.config}: {exc}") from exc
        # accept either a bare config object or a previous result document
        base = loaded.get("resolved_config", loaded) if isinstance(loaded, dict) else loaded
        if not isinstance(base, dict):
            raise InvalidParameterError("field 'config': document does not contain a config object")
        unknown = set(base) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise InvalidParameterError(f"field 'config': unknown fields {sorted(unknown)}")
    given = {name: getattr(args, name) for name in RunConfig.__dataclass_fields__}
    merged = {**base, **{name: value for name, value in given.items() if value is not None}}
    if merged.get("protocol") is None:
        raise InvalidParameterError("field 'protocol': required (flag --protocol or config file)")
    return RunConfig(**merged).validate()


def cmd_run(args) -> int:
    config = _config_from_args(args)
    payload, passed = _run_once(config)
    if config.oracle:
        payload["oracle"] = _oracle_section(config)
    else:
        payload["oracle"] = None
    _write(_document("result", payload), args.out)
    return EXIT_PASS if passed else EXIT_VERDICT_FAIL


def _sweep_point(config: RunConfig) -> dict:
    payload, passed = _run_once(config)
    final = payload["final"]
    errors = np.array(final["nullifier_variances"]) - np.array(final["analytic_targets"])
    return {
        "beta": config.beta,
        "r": config.r,
        "stage_time": config.stage_time,
        "max_abs_error": float(np.abs(errors).max()),
        "slow_regime": any(stage["slow_regime"] for stage in payload["stages"]),
        "passed": passed,
    }


def cmd_sweep(args) -> int:
    try:
        grid = {
            field: [float(x) for x in getattr(args, field).split(",") if x.strip()]
            for field in ("beta", "r", "stage_time")
        }
    except ValueError as exc:
        raise InvalidParameterError(f"grid values must be numbers: {exc}") from exc
    if not all(grid.values()):
        raise InvalidParameterError("field 'beta'/'r'/'stage_time': sweep grid must be nonempty")
    if args.protocol is None:
        raise InvalidParameterError("field 'protocol': required")
    base = RunConfig(args.protocol, method=args.method, tol=args.tol).validate()
    rows = [
        _sweep_point(replace(base, beta=b, r=r, stage_time=t).validate())
        for b in grid["beta"]
        for r in grid["r"]
        for t in grid["stage_time"]
    ]
    doc = _document(
        "sweep",
        {
            "resolved_config": {
                "protocol": base.protocol,
                **grid,
                "method": base.method,
                "tol": base.tol,
            },
            "rows": rows,
        },
    )
    _write(doc, args.out)
    return EXIT_PASS


def cmd_check_tables(args) -> int:
    report = check_tables(r=args.r)
    lines = []
    for entry in report.entries:
        tag = f"[{entry.kind} stage {entry.index}]"
        if entry.matches:
            lines.append(f"{tag} OK")
        elif entry.whitelisted:
            lines.append(f"{tag} WHITELISTED ({len(entry.mismatches)} differing entries)")
            for note in entry.notes:
                lines.append(f"    note: {note}")
            for mm in entry.mismatches:
                lines.append(f"    {mm}")
        else:
            lines.append(f"{tag} UNEXPECTED MISMATCH")
            for mm in entry.mismatches:
                lines.append(f"    {mm}")
    summary = "all mismatches whitelisted" if report.ok else "UNEXPECTED MISMATCHES PRESENT"
    lines.append(f"checked {len(report.entries)} stages: {summary}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        doc = _document(
            "table-check",
            {
                "ok": report.ok,
                "entries": [
                    {
                        "kind": e.kind,
                        "index": e.index,
                        "matches": e.matches,
                        "whitelisted": e.whitelisted,
                        "mismatches": [str(m) for m in e.mismatches],
                        "notes": list(e.notes),
                    }
                    for e in report.entries
                ],
            },
        )
        _write(doc, args.out)
    return EXIT_PASS if report.ok else EXIT_VERDICT_FAIL


def cmd_physical(args) -> int:
    payload = {}
    if (args.finesse is None) != (args.round_trip_length is None):
        raise InvalidParameterError("fields 'finesse' and 'round_trip_length' must be given together")
    if (args.gamma_over_2pi is None) != (args.drive_ratio is None):
        raise InvalidParameterError("fields 'gamma_over_2pi' and 'drive_ratio' must be given together")
    if args.finesse is None and args.gamma_over_2pi is None:
        raise InvalidParameterError("nothing to compute: give a finesse/length or a gamma/ratio pair")
    for field in ("finesse", "round_trip_length", "gamma_over_2pi", "drive_ratio"):
        value = getattr(args, field)
        if value is not None:
            _require_finite(field, value)
    if args.finesse is not None:
        kappa = cavity_decay_from_finesse(args.finesse, args.round_trip_length)
        payload["cavity"] = {
            "finesse": args.finesse,
            "round_trip_length_m": args.round_trip_length,
            "kappa_rad_per_s": kappa,
            "kappa_over_2pi_hz": kappa / (2.0 * math.pi),
        }
    if args.gamma_over_2pi is not None:
        payload["spontaneous_emission"] = {
            "gamma_over_2pi_hz": args.gamma_over_2pi,
            "drive_ratio": args.drive_ratio,
            "gamma_eff_hz": effective_spontaneous_rate(args.gamma_over_2pi, args.drive_ratio),
        }
    _write(_document("physical", payload), args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvcluster",
        description="Dissipative preparation of four-mode cluster states in a ring cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one protocol and verify the final state")
    run.add_argument("--protocol", choices=PROTOCOL_KINDS, default=None)
    run.add_argument("--r", type=float, default=None, help="squeezing drive ratio in [0, 1)")
    run.add_argument("--beta", type=float, default=None, help="coupling beta in units of kappa")
    run.add_argument("--stage-time", type=float, default=None, help="per-stage time, units 1/kappa")
    run.add_argument("--method", choices=sorted(_METHODS), default=None)
    run.add_argument("--tol", type=float, default=None, help="verdict tolerance per nullifier")
    run.add_argument(
        "--oracle",
        action="store_true",
        default=None,
        help="add the number-basis cross-check "
        f"(beta at most {ORACLE_BETA_MAX:g}, stage time at most {ORACLE_STAGE_TIME_MAX:g})",
    )
    run.add_argument(
        "--oracle-cutoff",
        type=int,
        default=None,
        help="largest total photon number n_a + n_d of the oracle's basis "
        f"(default {RunConfig.oracle_cutoff}, at most {ORACLE_CUTOFF_MAX})",
    )
    run.add_argument("--config", default=None, help="JSON config or previous result document")
    run.add_argument("--out", default=None, help="output path (stdout when omitted)")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="grid over beta, r and stage time")
    sweep.add_argument("--protocol", choices=PROTOCOL_KINDS, default=None)
    sweep.add_argument("--beta", default=str(RunConfig.beta), help="comma-separated values")
    sweep.add_argument("--r", default=str(RunConfig.r), help="comma-separated values")
    sweep.add_argument(
        "--stage-time", default=str(RunConfig.stage_time), help="comma-separated values"
    )
    sweep.add_argument("--method", choices=sorted(_METHODS), default="ode")
    sweep.add_argument("--tol", type=float, default=None)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)

    tables = sub.add_parser("check-tables", help="compare generated stages with reference tables")
    tables.add_argument("--r", type=float, default=0.5)
    tables.add_argument("--out", default=None)
    tables.set_defaults(func=cmd_check_tables)

    physical = sub.add_parser("physical", help="SI-unit estimators")
    physical.add_argument("--finesse", type=float, default=None)
    physical.add_argument("--round-trip-length", type=float, default=None, help="meters")
    physical.add_argument("--gamma-over-2pi", type=float, default=None, help="Hz")
    physical.add_argument("--drive-ratio", type=float, default=None, help="Omega / Delta")
    physical.add_argument("--out", default=None)
    physical.set_defaults(func=cmd_physical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SimulationError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS_ERROR


if __name__ == "__main__":
    sys.exit(main())
