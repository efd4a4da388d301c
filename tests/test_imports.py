"""Import cost: the default path needs numpy alone; scipy.sparse loads for the oracle."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvcluster

FOCK_NAMES = ("FockConfig", "FockResult", "covariance_from_density", "integrate_two_mode")

# Records the scipy modules loaded after each step of a fresh interpreter.
SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

steps = {}
import cvcluster
steps["import cvcluster"] = scipy_modules()
import cvcluster.cli
steps["import cvcluster.cli"] = scipy_modules()
codes = [cvcluster.cli.main(["run", "--protocol", "linear", "--out", sys.argv[1]])]
steps["run"] = scipy_modules()
codes.append(cvcluster.cli.main([
    "run", "--protocol", "linear", "--method", "ode", "--beta", "1.0", "--r", "0.3",
    "--stage-time", "2", "--tol", "0.2", "--oracle", "--oracle-cutoff", "12",
    "--out", sys.argv[2],
]))
print(json.dumps({"steps": steps, "codes": codes, "oracle_loads": scipy_modules()}))
"""


def test_default_path_loads_no_scipy(tmp_path):
    src = str(Path(cvcluster.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "run.json"), str(tmp_path / "oracle.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    record = json.loads(proc.stdout)
    assert record["steps"] == {"import cvcluster": [], "import cvcluster.cli": [], "run": []}
    assert record["codes"] == [0, 0]
    assert "scipy.sparse" in record["oracle_loads"]
    # the oracle steps its own Taylor series: no expm_multiply, no dense linalg
    assert not [m for m in record["oracle_loads"] if m.startswith(("scipy.sparse.linalg", "scipy.linalg"))]
    # and it finds the parity blocks of rho with numpy, not a graph search
    assert not [m for m in record["oracle_loads"] if m.startswith("scipy.sparse.csgraph")]
    assert json.loads((tmp_path / "oracle.json").read_text())["oracle"]["trace_error"] < 1e-8


def test_package_binds_the_oracle_names():
    import cvcluster.fock

    namespace = {}
    exec("from cvcluster import *", namespace)
    for name in FOCK_NAMES:
        assert name in cvcluster.__all__
        assert getattr(cvcluster, name) is getattr(cvcluster.fock, name)
        assert namespace[name] is getattr(cvcluster.fock, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        cvcluster.no_such_name
