"""Benchmark of the cvcluster package: one closed-loop client per workload.

    python3 bench/run.py --workload run-mix --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``
there.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced run
with ``--trace 1``.  ``--workload all`` runs every workload in turn and
prints each one's metrics under the names bench/README.md uses.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from tracing import IMPORT_METRICS, UNITS, Span, Tracer, parse_importtime, span_metrics
from workloads import WORKLOADS, measure, requests, verdict

BENCH_DIR = Path(__file__).resolve().parent
#: Fresh interpreters whose set-up time is measured per run; the median is reported.
SETUP_PROBES = 5
#: ``python -X importtime`` samples per traced run; the median is reported.
IMPORT_PROFILES = 3
CHILD_TIMEOUT_S = 120
#: One BLAS thread for the client and every process it starts.  cvcluster's
#: dense matrices are at most 10 x 10 (fock's 441 x 441 ones are sparse), too
#: small for BLAS threads to help, and OpenBLAS's default worker spins between
#: calls on the second core.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: How each workload's operation metrics read under the names of bench/README.md:
#: (name, end-to-end metric, scale, unit).
NAMED = {
    "cli-cold": (("cold_run_s", "op_ms_p50", 1e-3, "s"),),
    "run-mix": (
        ("run_ms_p50", "op_ms_p50", 1.0, "ms"),
        ("run_ms_p90", "op_ms_p90", 1.0, "ms"),
        ("runs_per_s", "ops_per_s", 1.0, "1/s"),
    ),
    "sweep-grid": (("sweep_s", "op_ms_p50", 1e-3, "s"),),
    "oracle": (("oracle_s", "op_ms_p50", 1e-3, "s"),),
}


class InProcessClient:
    """Calls ``cvcluster.cli.main`` in this process."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        import cvcluster.cli

        if src.resolve() not in Path(cvcluster.cli.__file__).resolve().parents:
            raise RuntimeError(f"cvcluster was imported from {cvcluster.cli.__file__}, not {src}")
        self.cli = cvcluster.cli

    def call(self, argv: list[str]):
        # looked up per call, so a tracer's wrapper of ``main`` is used
        return self.cli.main(argv)

    @staticmethod
    def cpu() -> float:
        return time.process_time()

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ColdClient:
    """Runs every operation as a fresh ``python -m cvcluster.cli`` process."""

    def __init__(self, root: Path, env: dict):
        self.root, self.env = root, env
        self.command = [sys.executable, "-m", "cvcluster.cli"]

    def call(self, argv: list[str]) -> int:
        return subprocess.run(
            self.command + argv, cwd=self.root, env=self.env,
            stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
        ).returncode

    @staticmethod
    def cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    @staticmethod
    def peak_rss_mb() -> float:
        # the largest waited-for child
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class TracedColdClient(ColdClient):
    """A cold client whose processes record spans with ``--traced-child``."""

    def __init__(self, root: Path, env: dict, work: Path):
        super().__init__(root, env)
        self.spans_path = work / "child-spans.json"
        self.command = [sys.executable, str(BENCH_DIR / "run.py"), "--traced-child", str(self.spans_path)]
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.ops = itertools.count()

    def call(self, argv: list[str]) -> int:
        self.spans_path.unlink(missing_ok=True)
        code = super().call(argv)
        op = next(self.ops)
        with open(self.spans_path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.spans += [Span(*s)._replace(op=op) for s in data["spans"]]
        self.missing = data["missing"]
        return code


def traced_child(spans_path: str, argv: list[str], root: Path) -> int:
    """One traced ``cvcluster`` invocation; spans go to ``spans_path`` at exit."""
    client = InProcessClient(root / "src")
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.record(client.call)(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)


def set_up(workload, seed: int, root: Path, env: dict, work: Path):
    """Inputs, a client, and one untimed warm-up call."""
    reqs = requests(workload.name, seed)
    client = ColdClient(root, env) if workload.cold else InProcessClient(root / "src")
    warm = reqs[0]
    if getattr(warm, "oracle", False):
        # the oracle call is the whole operation (seconds); warm up everything else
        warm = replace(warm, oracle=False)
    client.call(warm.argv(str(work / "warm-up.json")))
    return reqs, client


def setup_seconds(args, root: Path, env: dict) -> float:
    """Wall time from spawning a fresh interpreter until it is set up."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def import_profile(root: Path, env: dict) -> dict[str, float]:
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cvcluster.cli"],
        cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return parse_importtime(result.stderr)


def p90(values: list[float]) -> float:
    # inclusive: with few samples (cli-cold, oracle) it interpolates, never extrapolates
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def operations(client, check, out: Path):
    """The timed operation and its untimed judge, writing through ``out``."""

    def op(req):
        return client.call(req.argv(str(out)))

    def judge(req, code):
        reason = verdict(check, req, code, out)
        out.unlink(missing_ok=True)
        return reason

    return op, judge


def timed_run(args, workload, root: Path, env: dict, work: Path):
    reqs, client = set_up(workload, args.seed, root, env, work)
    op, judge = operations(client, workload.check, work / "out.json")
    tally = measure(reqs, op, judge, seconds=args.seconds)
    peak_rss = client.peak_rss_mb()
    setup = [setup_seconds(args, root, env) for _ in range(SETUP_PROBES)]
    latencies_ms = [s * 1e3 for s in tally.latencies]
    values = {
        "setup_s": statistics.median(setup),
        "op_ms_p50": statistics.median(latencies_ms),
        "op_ms_p90": p90(latencies_ms),
        "ops_per_s": tally.attempted / sum(tally.latencies),
        "peak_rss_mb": peak_rss,
        "ok_frac": (tally.attempted - len(tally.failures)) / tally.attempted,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, tally.attempted, tally.failures, {}


def traced_run(args, workload, root: Path, env: dict, work: Path):
    reqs, client = set_up(workload, args.seed, root, env, work)
    profiles = [import_profile(root, env) for _ in range(IMPORT_PROFILES)]
    out = work / "out.json"
    op, judge = operations(client, workload.check, out)
    tracer = None
    if workload.cold:
        recorder = TracedColdClient(root, env, work)
        traced_op, _ = operations(recorder, workload.check, out)
    else:
        recorder = tracer = Tracer()
        tracer.install()
        traced_op = tracer.record(op)

    # Each request runs untraced and traced back to back, the order alternating
    # pair by pair, so drift of the machine's speed cancels from the overhead.
    n = workload.trace_ops
    schedule = [(reqs[i % len(reqs)], (i + k) % 2 == 1) for i in range(n) for k in (0, 1)]
    try:
        tally = measure(schedule, lambda item: (traced_op if item[1] else op)(item[0]),
                        lambda item, code: judge(item[0], code), count=len(schedule), cpu=client.cpu)
    finally:
        if tracer is not None:
            tracer.uninstall()
    plain = [i for i, (_, traced) in enumerate(schedule) if not traced]
    traced = [i for i, (_, traced) in enumerate(schedule) if traced]

    values, absent = span_metrics(recorder.spans, n, recorder.missing)
    for name in IMPORT_METRICS:
        values[name] = statistics.median(p[name] for p in profiles)
    values["cli.sweep_cpu_per_wall"] = (
        sum(tally.cpu[i] for i in plain) / sum(tally.latencies[i] for i in plain))
    values["trace.overhead_ms"] = statistics.median(
        tally.latencies[t] - tally.latencies[u] for t, u in zip(traced, plain)) * 1e3
    values["trace.missing_spans"] = len(recorder.missing)
    missing = recorder.missing + absent
    if missing:
        print("missing spans: " + ", ".join(missing))
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in UNITS.items()}
    return metrics, tally.attempted, tally.failures, {"missing": missing, "spans": recorder.spans}


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def isolate() -> dict:
    """Pin this process, and so every thread and process it starts, to one
    CPU with one BLAS thread; return what the host offered.

    On a 2-core virtual machine the sweep's 8 pool threads hand the GIL from
    one CPU to the other, and each hand-off waits on the host's scheduler.
    Over four runs of one seed, alternating, ``sweep_s`` ranged from 0.157 s
    to 0.208 s unpinned and from 0.135 s to 0.144 s pinned.  With OpenBLAS's
    spinning worker and a busy second core it took 0.60 s instead of 0.17 s.
    Call it before numpy is imported: OpenBLAS reads the variables and starts
    its threads then.
    """
    allowed = sorted(os.sched_getaffinity(0))
    # the last CPU: CPU 0 tends to take more of the machine's interrupts
    os.sched_setaffinity(0, {allowed[-1]})
    os.environ.update(BLAS_THREADS)
    return {"nproc": len(allowed), "cpu_count": os.cpu_count(), "pinned_cpu": allowed[-1]}


def environment(args, root: Path, host: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **host,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def summary(workload: str, result: dict) -> str:
    """One line with the documented metric names of a ``--trace 0`` result."""
    metrics = result["metrics"]
    parts = [f"{name} {metrics[key]['value'] * scale:.6g} {unit}"
             for name, key, scale, unit in NAMED[workload]]
    parts.append(f"setup_s {metrics['setup_s']['value']:.4g} s")
    parts.append(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.4g} MB")
    parts.append(f"fail_frac {result['failed'] / result['attempted']:.4g} "
                 f"({result['failed']}/{result['attempted']})")
    return f"{workload}: " + " | ".join(parts)


def run_all(args, root: Path) -> int:
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        if args.trace:
            print(f"{name}: " + " | ".join(
                f"{k} {m['value']:.6g} {m['unit']}" for k, m in results[name]["metrics"].items()))
        else:
            print(summary(name, results[name]))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    root = Path.cwd()
    if not (root / "src" / "cvcluster" / "__init__.py").is_file():
        print(f"error: no cvcluster sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if argv[:1] == ["--traced-child"]:
        # started by a traced cli-cold run, which has isolated this process already
        return traced_child(argv[1], argv[2:], root)
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args, root)
    host = isolate()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    workload = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=root))
    try:
        if args.setup_probe:
            set_up(workload, args.seed, root, env, work)
            print("ready", flush=True)
            return 0
        run = traced_run if args.trace else timed_run
        metrics, attempted, failures, record = run(args, workload, root, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env_record = environment(args, root, host)
    print(json.dumps({"environment": env_record}))
    for reason in failures[:5]:
        print(f"failed operation: {reason}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    if args.trace:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"environment": env_record, "result": result, **record}, fh)
        print(f"spans written to {path.relative_to(root)}")
    else:
        print(summary(args.workload, result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
