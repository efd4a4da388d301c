"""Golden CLI cases: every stored run, sweep, table check and estimator call
must give the same exit code, stdout, stderr and document.

The cases live in ``tests/golden`` and are rewritten by
``tests/golden/bless.py``.  Keys, key order, strings, ints, bools and nulls
must match exactly; floats to 1e-12 * max(|golden|, 1), so that another BLAS
build does not fail the suite.
"""

import importlib.util
import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
FLOAT_RTOL = 1e-12

_spec = importlib.util.spec_from_file_location("golden_bless", GOLDEN_DIR / "bless.py")
bless = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bless)


def mismatches(golden, got, path="$"):
    """Every place where ``got`` differs from ``golden``, as readable lines."""
    if type(golden) is not type(got):
        return [f"{path}: {type(got).__name__} {got!r}, golden {type(golden).__name__} {golden!r}"]
    if isinstance(golden, dict):
        if list(golden) != list(got):
            return [f"{path}: keys {list(got)}, golden {list(golden)}"]
        return [line for key in golden for line in mismatches(golden[key], got[key], f"{path}.{key}")]
    if isinstance(golden, list):
        if len(golden) != len(got):
            return [f"{path}: length {len(got)}, golden {len(golden)}"]
        return [line for i, (g, v) in enumerate(zip(golden, got)) for line in mismatches(g, v, f"{path}[{i}]")]
    if isinstance(golden, float):
        if abs(got - golden) <= FLOAT_RTOL * max(abs(golden), 1.0):
            return []
        return [f"{path}: {got!r}, golden {golden!r}"]
    return [] if got == golden else [f"{path}: {got!r}, golden {golden!r}"]


def test_every_case_is_stored():
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.json")) == sorted(bless.CASES)


@pytest.mark.parametrize("name", sorted(bless.CASES))
def test_cli_case_matches_its_golden_record(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["argv"] == bless.CASES[name]
    got = bless.run_case(golden["argv"])
    assert mismatches(golden, got) == []


def test_mismatches_compare_floats_relatively_and_the_rest_exactly():
    assert mismatches({"a": 1.0, "b": [1e6]}, {"a": 1.0 + 5e-13, "b": [1e6 * (1 + 5e-13)]}) == []
    assert mismatches({"a": 1e6}, {"a": 1e6 + 1e-5}) == ["$.a: 1000000.00001, golden 1000000.0"]
    assert mismatches({"a": 1, "b": 2}, {"b": 2, "a": 1}) != []
    assert mismatches({"a": 1}, {"a": 1.0}) != []
    assert mismatches({"a": True}, {"a": 1}) != []
    assert mismatches({"a": "x"}, {"a": "y"}) != []
    assert mismatches({"a": None}, {"a": 0.0}) != []
