"""Reference-table fixtures and generator cross-checks."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvcluster import InvalidParameterError, tables
from cvcluster.tables import (
    KNOWN_DISCREPANCIES,
    check_tables,
    compare_stages,
    generated_stage,
    reference_stage,
)

PI = math.pi
EXACT_STAGES = [("linear", 1), ("linear", 2), ("linear", 4), ("square", 2), ("tshape", 4)]


def test_reference_linear_stage_three_literal_values():
    st = reference_stage("linear", 3, omega=1.0, r=0.5)
    assert_allclose(st.omega_u, [0, 0, math.sqrt(2), math.sqrt(2)], atol=1e-15)
    assert st.phi_u[2] == pytest.approx(1.5 * PI)
    assert st.phi_s[2] == pytest.approx(0.5 * PI)
    assert st.phi_u[3] == pytest.approx(PI)
    assert st.phi_s[3] == pytest.approx(PI)


def test_reference_square_stage_two_literal_values():
    st = reference_stage("square", 2, omega=1.0, r=0.5)
    assert_allclose(st.omega_u[2:], 0, atol=1e-15)
    assert_allclose(st.omega_s[2:], 0, atol=1e-15)
    assert st.phi_u[0] == pytest.approx(1.5 * PI)
    assert st.phi_s[0] == pytest.approx(0.5 * PI)
    assert st.phi_u[1] == pytest.approx(0.5 * PI)
    assert st.phi_s[1] == pytest.approx(1.5 * PI)


def test_reference_tshape_stage_four_literal_values():
    omega, r = 2.0, 0.3
    st = reference_stage("tshape", 4, omega=omega, r=r)
    assert_allclose(st.omega_u, omega * np.ones(4), atol=1e-15)
    assert_allclose(st.omega_s, r * omega * np.ones(4), atol=1e-15)
    assert st.phi_u[0] == pytest.approx(0.5 * PI)
    assert st.phi_s[0] == pytest.approx(1.5 * PI)
    assert_allclose(st.phi_u[1:], 0, atol=1e-15)
    assert_allclose(st.phi_s[1:], 0, atol=1e-15)


def test_reference_stage_unknown_key():
    with pytest.raises(InvalidParameterError):
        reference_stage("linear", 5)
    with pytest.raises(InvalidParameterError):
        reference_stage("hexagon", 1)


@pytest.mark.parametrize("kind,index", EXACT_STAGES)
def test_generated_matches_reference_exactly(kind, index):
    mismatches = compare_stages(
        generated_stage(kind, index, omega=1.7, r=0.35),
        reference_stage(kind, index, omega=1.7, r=0.35),
    )
    assert mismatches == []


def test_check_tables_builds_one_protocol_per_kind(monkeypatch):
    built = []
    original = tables.builtin_protocol

    def counting(kind, *args, **kwargs):
        built.append(kind)
        return original(kind, *args, **kwargs)

    monkeypatch.setattr(tables, "builtin_protocol", counting)
    report = check_tables()
    assert sorted(built) == ["linear", "square", "tshape"]
    assert len(report.entries) == 12
    for entry in report.entries:
        assert compare_stages(
            generated_stage(entry.kind, entry.index), reference_stage(entry.kind, entry.index)
        ) == list(entry.mismatches)


def test_mismatching_stages_are_exactly_the_whitelisted_ones():
    report = check_tables(omega=1.0, r=0.5)
    mismatched = {(e.kind, e.index) for e in report.entries if not e.matches}
    assert mismatched == set(KNOWN_DISCREPANCIES)
    assert report.ok
    assert report.unexpected == ()


def test_linear_stage_three_mismatch_is_phase_only():
    """Amplitudes agree; the phases of ensembles 3 and 4 are swapped in the
    reference relative to the transform row."""
    mismatches = compare_stages(
        generated_stage("linear", 3), reference_stage("linear", 3)
    )
    assert mismatches
    assert all(m.field in ("phi_u", "phi_s") for m in mismatches)
    assert sorted({m.ensemble for m in mismatches}) == [3, 4]


def test_square_missing_r_shows_in_squeezing_amplitudes():
    for index in (1, 3, 4):
        mismatches = compare_stages(
            generated_stage("square", index, r=0.5), reference_stage("square", index, r=0.5)
        )
        omega_s_entries = [m for m in mismatches if m.field == "omega_s"]
        assert sorted({m.ensemble for m in omega_s_entries}) == [3, 4]
        for m in omega_s_entries:
            # reference lacks the factor r, so it is 1/r times the generated value
            assert m.reference == pytest.approx(m.generated / 0.5)


def test_tshape_stage_one_amplitude_misprint():
    mismatches = compare_stages(
        generated_stage("tshape", 1), reference_stage("tshape", 1)
    )
    amp = {m.field: m for m in mismatches if m.ensemble == 1}
    assert amp["omega_u"].reference == 0.0
    assert amp["omega_u"].generated == pytest.approx(math.sqrt(3))


def test_every_whitelist_entry_has_notes():
    for key, notes in KNOWN_DISCREPANCIES.items():
        assert notes, f"whitelist entry {key} lacks an explanation"


@pytest.mark.parametrize("index", [0, 5, -1])
def test_generated_stage_rejects_index_outside_one_to_four(index):
    with pytest.raises(InvalidParameterError):
        generated_stage("linear", index)
