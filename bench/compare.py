"""Compare two checkouts with the same benchmark code, in alternating pairs.

    python3 bench/compare.py BASE_DIR HEAD_DIR --workload run-mix --pairs 10

Each pair runs bench/run.py (this copy of it) once in each checkout with
the same seed, alternating which side runs first; pair i uses seed
``--first-seed + i``.  For every end-to-end metric it prints each side's
median and quartiles, the pairs the head won, and a verdict by the rules in
bench/README.md:

* ``gain``: the head wins at least 9 of 10 pairs and the medians differ by
  more than the base's own quartile spread;
* ``regression``: the head's median is worse by more than the metric's bound;
* ``unresolved``: the base's spread is wider than the bound and the head
  did not beat every base run;
* ``no change`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} of {result['attempted']} operations failed")
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base: list[float], head: list[float], better: str, bound: float) -> tuple[int, str]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    bq1, bmed, bq3 = quartiles(base)
    hmed = statistics.median(head)
    worse_by = sign * (bmed - hmed) / abs(bmed)
    if wins >= 0.9 * len(base) and abs(hmed - bmed) > bq3 - bq1:
        return wins, "gain"
    if worse_by > bound:
        return wins, "regression"
    best_base = max(base, key=lambda v: sign * v)
    if (bq3 - bq1) / abs(bmed) > bound and not all(sign * (h - best_base) > 0 for h in head):
        return wins, "unresolved"
    return wins, "no change"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    base_runs, head_runs = [], []
    for i in range(args.pairs):
        seed = args.first_seed + i
        sides = [(args.base, base_runs), (args.head, head_runs)]
        for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run_once(checkout.resolve(), args.workload, seed, spec["run_seconds"]))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [r[name] for r in base_runs]
        head = [r[name] for r in head_runs]
        wins, verdict = judge(base, head, metric["better"], metric["bound"])
        bq, hq = quartiles(base), quartiles(head)
        print(f"{args.workload} {name} [{metric['unit']}]: base {bq[1]:.6g} ({bq[0]:.6g}..{bq[2]:.6g}) "
              f"head {hq[1]:.6g} ({hq[0]:.6g}..{hq[2]:.6g}) head won {wins}/{args.pairs}: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
