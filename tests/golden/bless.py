"""Rewrite the golden CLI cases in this directory from the current code.

Run from the repository root:

    PYTHONPATH=src python tests/golden/bless.py [name ...]

With names, only those cases are rewritten; without, every case is, and
stale files are removed.

Each case runs ``cvcluster.cli.main`` in-process with ``--out`` appended and
is stored as ``<name>.json``: its argv (without ``--out``), exit code,
stdout, stderr and the written document without ``timestamp`` (null when
nothing was written).  ``tests/test_golden.py`` re-runs every stored case and
compares it with the stored result, so a change to any document shows up as
a diff of these files.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

CASES = {
    "run-linear-lyapunov": ["run", "--protocol", "linear", "--method", "lyapunov"],
    "run-linear-ode": ["run", "--protocol", "linear", "--method", "ode"],
    "run-square-lyapunov": ["run", "--protocol", "square", "--method", "lyapunov"],
    "run-square-ode": ["run", "--protocol", "square", "--method", "ode"],
    "run-tshape-lyapunov": ["run", "--protocol", "tshape", "--method", "lyapunov"],
    "run-tshape-ode": ["run", "--protocol", "tshape", "--method", "ode"],
    "run-linear-critical-no-squeezing": ["run", "--protocol", "linear", "--r", "0", "--beta", "0.5"],
    "run-square-ode-slow": [
        "run", "--protocol", "square", "--method", "ode", "--beta", "0.4", "--r", "0.3",
    ],
    "run-square-r-near-one": ["run", "--protocol", "square", "--r", "0.9999999999999", "--beta", "1"],
    "run-tshape-ode-oracle": [
        "run", "--protocol", "tshape", "--method", "ode", "--beta", "1.5", "--r", "0.3", "--oracle",
    ],
    "sweep-linear-lyapunov-2x2x2": [
        "sweep", "--protocol", "linear", "--method", "lyapunov",
        "--beta", "1,2.5", "--r", "0.3,0.6", "--stage-time", "4,8",
    ],
    "sweep-square-ode-3x3x3": [
        "sweep", "--protocol", "square", "--method", "ode",
        "--beta", "1,2,3", "--r", "0.2,0.5,0.8", "--stage-time", "2,4,8",
    ],
    "check-tables": ["check-tables"],
    "physical": [
        "physical", "--finesse", "1000", "--round-trip-length", "0.5",
        "--gamma-over-2pi", "6e6", "--drive-ratio", "0.1",
    ],
    "run-linear-ode-stage-time-1e300": [
        "run", "--protocol", "linear", "--method", "ode", "--stage-time", "1e300",
    ],
    "run-linear-r-1.5": ["run", "--protocol", "linear", "--r", "1.5"],
    "run-linear-r-0.9999": ["run", "--protocol", "linear", "--beta", "1", "--r", "0.9999"],
    "run-linear-oracle-over-budget": [
        "run", "--protocol", "linear", "--oracle", "--beta", "1e6", "--stage-time", "0.25",
    ],
}


def run_case(argv: list[str]) -> dict:
    """Run one CLI case in-process; returns the record stored for it."""
    from cvcluster.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "doc.json"
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        document = None
        if out.exists():
            document = json.loads(out.read_text(encoding="utf-8"))
            del document["timestamp"]
    return {
        "argv": list(argv),
        "exit_code": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "document": document,
    }


def main(names: list[str]) -> int:
    if not names:
        for path in GOLDEN_DIR.glob("*.json"):
            path.unlink()
    for name in names or CASES:
        record = run_case(CASES[name])
        text = json.dumps(record, indent=2, allow_nan=False) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}: exit {record['exit_code']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
