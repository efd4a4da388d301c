"""The benchmark's library calls.

``bench/workloads.py`` checks sweep rows against serial calls of
``PhysicalParams.from_ratios(beta, r, kappa=1.0)``, ``builtin_protocol`` and
``run_protocol(protocol, params, method=...)``.  The module is loaded
read-only, the way ``test_golden.py`` loads ``bless.py``, so that a change
that breaks those calls fails here and not first in the benchmark.
"""

import importlib.util
import json
import math
import pathlib
import sys

import pytest

from cvcluster import InvalidParameterError, PhysicalParams
from cvcluster.cli import main

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench"

_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up by name
_spec.loader.exec_module(workloads)


def test_sweep_reference_matches_the_cli_sweep(tmp_path):
    req = workloads.SweepRequest("square", (1.5, 2.5), (0.3, 0.5), (8.0,))
    out = tmp_path / "sweep.json"
    assert main(req.argv(str(out))) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert workloads.check_sweep(req, doc, workloads.sweep_reference(req)) is None


@pytest.mark.parametrize("beta,r", [(2.5, 0.5), (1.0, 0.0)])
def test_from_ratios_is_the_constructor_at_kappa_one(beta, r):
    assert PhysicalParams.from_ratios(beta, r, kappa=1.0) == PhysicalParams(beta, r)


@pytest.mark.parametrize("kappa", [2.0, math.nan])
def test_from_ratios_rejects_any_other_kappa(kappa):
    with pytest.raises(InvalidParameterError, match="kappa is the unit of rates and must be 1"):
        PhysicalParams.from_ratios(2.5, 0.5, kappa=kappa)
