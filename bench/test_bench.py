"""Tests of the benchmark's own inputs, checks, client loop and tracer.

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import pytest

from tracing import SPAN_METRICS, Span, Tracer, parse_importtime, self_times_ns, span_metrics
from workloads import (
    WORKLOADS,
    RunRequest,
    SweepRequest,
    check_run,
    check_sweep,
    measure,
    nullifier_targets,
    requests,
    verdict,
)

ROOT = Path(__file__).resolve().parent.parent


def run_doc(req, variances=None, purity=1.0, oracle=None):
    return {
        "final": {
            "nullifier_variances": variances or nullifier_targets(req.protocol, req.r),
            "ensemble_purity": purity,
        },
        "oracle": oracle,
    }


def test_targets_follow_graph_degrees():
    # linear chain at r = 1/3: (1 + deg)/2 * (1 - r)/(1 + r) with degrees 1, 2, 2, 1
    assert nullifier_targets("linear", 1 / 3) == pytest.approx([0.5, 0.75, 0.75, 0.5])
    assert nullifier_targets("tshape", 0.0) == pytest.approx([2.0, 1.0, 1.0, 1.0])


def test_correct_run_passes_and_wrong_variance_fails():
    req = RunRequest("square", beta=2.0, r=0.4)
    assert check_run(req, run_doc(req)) is None
    wrong = nullifier_targets("square", 0.4)
    wrong[2] += 1e-5
    assert "off target" in check_run(req, run_doc(req, wrong))


def test_ode_run_uses_its_own_tolerance():
    req = RunRequest("linear", beta=2.0, r=0.4, stage_time=10.0, method="ode")
    close = [v + 0.01 for v in nullifier_targets("linear", 0.4)]
    assert check_run(req, run_doc(req, close, purity=0.9)) is None
    far = [v + 0.06 for v in nullifier_targets("linear", 0.4)]
    assert check_run(req, run_doc(req, far)) is not None


def test_impure_lyapunov_run_fails():
    req = RunRequest("tshape", beta=2.0, r=0.4)
    assert "purity" in check_run(req, run_doc(req, purity=0.999))


def test_oracle_bounds():
    req = RunRequest("linear", beta=2.0, r=0.3, method="ode", oracle=True)
    good = {"max_covariance_gap": 1e-6, "trace_error": 1e-15}
    assert check_run(req, run_doc(req, oracle=good)) is None
    assert "gap" in check_run(req, run_doc(req, oracle={**good, "max_covariance_gap": 2e-3}))
    assert "trace" in check_run(req, run_doc(req, oracle={**good, "trace_error": 1e-7}))


def sweep_doc(req, reference):
    return {"rows": [{"beta": b, "r": r, "stage_time": t, "max_abs_error": e}
                     for (b, r, t), e in zip(req.grid(), reference)]}


def test_reordered_sweep_row_fails():
    req = SweepRequest("linear", (1.0, 2.0, 3.0), (0.1, 0.2, 0.3), (8.0, 9.0, 10.0))
    reference = [0.001 * i for i in range(27)]
    doc = sweep_doc(req, reference)
    assert check_sweep(req, doc, reference) is None
    doc["rows"][3], doc["rows"][4] = doc["rows"][4], doc["rows"][3]
    assert "row 3" in check_sweep(req, doc, reference)


def test_sweep_error_mismatch_and_missing_row_fail():
    req = SweepRequest("square", (1.0, 2.0, 3.0), (0.1, 0.2, 0.3), (8.0, 9.0, 10.0))
    reference = [0.001 * i for i in range(27)]
    doc = sweep_doc(req, [e + (1e-9 if i == 7 else 0.0) for i, e in enumerate(reference)])
    assert "row 7" in check_sweep(req, doc, reference)
    doc = sweep_doc(req, reference)
    doc["rows"].pop()
    assert "26 sweep rows" in check_sweep(req, doc, reference)


def test_verdict_counts_exit_code_and_unreadable_output(tmp_path):
    req = RunRequest("linear", beta=2.0, r=0.4)
    out = tmp_path / "out.json"
    assert verdict(check_run, req, 1, out) == "exit code 1"
    assert "unreadable" in verdict(check_run, req, 0, out)
    out.write_text(json.dumps(run_doc(req)))
    assert verdict(check_run, req, 0, out) is None
    out.write_text(json.dumps({"final": {}}))
    assert "unreadable" in verdict(check_run, req, 0, out)


def test_failures_are_counted_and_the_run_goes_on():
    outcomes = iter([0, 1, "raise", "exit", 0, 0])

    def op(req):
        outcome = next(outcomes)
        if outcome == "raise":
            raise ValueError("boom")
        if outcome == "exit":
            raise SystemExit(2)
        return outcome

    def judge(req, code):
        return None if code == 0 else f"exit code {code}"

    tally = measure(["a", "b"], op, judge, count=6)
    assert tally.attempted == 6
    assert tally.failures == ["exit code 1", "ValueError: boom", "exit code 2"]


def test_timed_loop_runs_at_least_one_operation():
    tally = measure(["a"], lambda req: 0, lambda req, code: None, seconds=0.0)
    assert tally.attempted == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert requests(workload, 7) == requests(workload, 7)
    assert requests(workload, 7) != requests(workload, 8)


def test_run_mix_balances_protocols_and_methods():
    reqs = requests("run-mix", 3)
    pairs = [(r.protocol, r.method) for r in reqs]
    assert {pairs.count(p) for p in set(pairs)} == {len(reqs) // 6}
    assert all(0.6 <= r.beta * (1 - r.r**2) ** 0.5 <= 5.0 + 1e-12 for r in reqs)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   cvcluster.errors",
        "import time:       500 |       2000 |       numpy",
        "import time:       300 |       4000 |     cvcluster.fock",
        "import time:       200 |       6000 |   cvcluster",
        "import time:        50 |       6050 | cvcluster.cli",
    ])
    got = parse_importtime(text)
    assert got["import.total_ms"] == 6.05
    assert got["import.numpy_ms"] == 2.0
    assert got["import.scipy_sparse_ms"] == 0.0
    assert got["import.cvcluster_self_ms"] == pytest.approx(0.65)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(1, "cli.main", 0, 100, None, 0, None),
        # two pool threads whose spans overlap in time
        Span(2, "protocols.run_protocol", 10, 50, 1, 0, None),
        Span(3, "protocols.run_protocol", 30, 70, 1, 0, None),
        Span(4, "gaussian.evolve", 40, 45, 3, 0, None),
    ]
    assert self_times_ns(spans) == [40, 40, 35, 5]


def test_missing_target_is_reported_not_raised(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "TARGETS", (("fock.gone", "cvcluster_no_such_module", "f"),))
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == ["fock.gone"]
    monkeypatch.setattr(tracing, "SPAN_METRICS", {"fock.gone_ms": ("fock.gone", "self_ms")})
    values, absent = tracing.span_metrics([], 1, tracer.missing)
    assert values["fock.gone_ms"] == 0.0 and absent == ["fock.gone_ms"]


@pytest.fixture
def cli():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cvcluster.cli

        yield cvcluster.cli
    finally:
        sys.path.remove(str(ROOT / "src"))


def traced_counts(cli, reqs, out):
    tracer = Tracer()
    tracer.install()
    call = tracer.record(cli.main)
    try:
        for req in reqs:
            assert call(req.argv(str(out))) == 0
            assert check_run(req, json.loads(out.read_text())) is None
    finally:
        tracer.uninstall()
    assert {s.op for s in tracer.spans} == set(range(len(reqs)))
    values, absent = span_metrics(tracer.spans, len(reqs), tracer.missing)
    assert not absent and not tracer.missing
    return {k: values[k] for k, (_, stat) in SPAN_METRICS.items() if stat != "self_ms"}


def test_traced_counts_repeat_exactly_and_tracer_uninstalls(cli, tmp_path):
    main, run_protocol = cli.main, cli.run_protocol
    reqs = requests("run-mix", 5)[:6]
    first = traced_counts(cli, reqs, tmp_path / "out.json")
    assert first == traced_counts(cli, reqs, tmp_path / "out.json")
    assert first["protocols.transformed_coupling_calls"] == 8
    assert first["gaussian.evolve_calls"] + first["gaussian.steady_state_calls"] == 4
    assert cli.main is main and cli.run_protocol is run_protocol


def test_benchmark_json_matches_the_code():
    import re

    import run
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
