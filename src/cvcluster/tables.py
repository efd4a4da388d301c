"""Hand-transcribed reference pulse tables and generator cross-checks.

The reference tables list, for every protocol stage, the per-ensemble Rabi
amplitudes (in units of the scale Omega, squeezing channel optionally
carrying the ratio r) and phases.  They are stored verbatim, including
entries that coefficient matching shows to be misprints; those stages are
whitelisted in KNOWN_DISCREPANCIES with a short analysis, and
``check_tables`` reports any mismatch outside that whitelist.

The generated schedules (the stages of the built-in protocols) are the
source of truth; the tables exist only for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .model import PhysicalParams, PulseStage
from .protocols import PROTOCOL_KINDS, builtin_protocol

_PI = math.pi
_S2 = math.sqrt(2.0)
_S3 = math.sqrt(3.0)
_S6 = math.sqrt(6.0)
_S10 = math.sqrt(10.0)

#: Amplitudes and phases closer than this count as equal in compare_stages.
AMP_TOL = 1e-12

# Per stage: omega_u coefficients (units of Omega), omega_s as
# (coefficient, carries_r) pairs, phases in radians.  Phases the source
# table does not give are stored as 0.
_TABLES = {
    ("linear", 1): dict(
        omega_u=(_S2, _S2, 0.0, 0.0),
        omega_s=((_S2, True), (_S2, True), (0.0, False), (0.0, False)),
        phi_u=(1.5 * _PI, _PI, 0.0, 0.0),
        phi_s=(0.5 * _PI, _PI, 0.0, 0.0),
    ),
    ("linear", 2): dict(
        omega_u=(2 / _S10, 2 / _S10, 4 / _S10, 4 / _S10),
        omega_s=((2 / _S10, True), (2 / _S10, True), (4 / _S10, True), (4 / _S10, True)),
        phi_u=(1.5 * _PI, 0.0, 0.5 * _PI, 0.0),
        phi_s=(0.5 * _PI, 0.0, 1.5 * _PI, 0.0),
    ),
    ("linear", 3): dict(
        omega_u=(0.0, 0.0, _S2, _S2),
        omega_s=((0.0, True), (0.0, True), (_S2, True), (_S2, True)),
        phi_u=(0.0, 0.0, 1.5 * _PI, _PI),
        phi_s=(0.0, 0.0, 0.5 * _PI, _PI),
    ),
    ("linear", 4): dict(
        omega_u=(4 / _S10, 4 / _S10, 2 / _S10, 2 / _S10),
        omega_s=((4 / _S10, True), (4 / _S10, True), (2 / _S10, True), (2 / _S10, True)),
        phi_u=(0.0, 0.5 * _PI, 0.0, 1.5 * _PI),
        phi_s=(0.0, 1.5 * _PI, 0.0, 0.5 * _PI),
    ),
    ("square", 1): dict(
        omega_u=(2 / _S10, 2 / _S10, 4 / _S10, 4 / _S10),
        omega_s=((2 / _S10, True), (2 / _S10, True), (4 / _S10, False), (4 / _S10, False)),
        phi_u=(1.5 * _PI, 1.5 * _PI, _PI, _PI),
        phi_s=(0.5 * _PI, 0.5 * _PI, _PI, _PI),
    ),
    ("square", 2): dict(
        omega_u=(_S2, _S2, 0.0, 0.0),
        omega_s=((_S2, True), (_S2, True), (0.0, False), (0.0, False)),
        phi_u=(1.5 * _PI, 0.5 * _PI, 0.0, 0.0),
        phi_s=(0.5 * _PI, 1.5 * _PI, 0.0, 0.0),
    ),
    ("square", 3): dict(
        omega_u=(4 / _S10, 4 / _S10, 2 / _S10, 2 / _S10),
        omega_s=((4 / _S10, True), (4 / _S10, True), (2 / _S10, False), (2 / _S10, False)),
        phi_u=(1.5 * _PI, 1.5 * _PI, 1.5 * _PI, 1.5 * _PI),
        phi_s=(_PI, _PI, 0.5 * _PI, 0.5 * _PI),
    ),
    ("square", 4): dict(
        omega_u=(0.0, 0.0, _S2, _S2),
        omega_s=((0.0, True), (0.0, True), (_S2, False), (_S2, False)),
        phi_u=(0.0, 0.0, 1.5 * _PI, 0.5 * _PI),
        phi_s=(0.0, 0.0, 0.5 * _PI, 1.5 * _PI),
    ),
    ("tshape", 1): dict(
        omega_u=(0.0, _S3 / 3, _S3 / 3, _S3 / 3),
        omega_s=((0.0, True), (_S3 / 3, True), (_S3 / 3, True), (_S3 / 3, True)),
        phi_u=(0.5 * _PI, _PI, _PI, _PI),
        phi_s=(1.5 * _PI, _PI, _PI, _PI),
    ),
    ("tshape", 2): dict(
        omega_u=(0.0, 2 * _S6 / 3, _S6 / 3, _S6 / 3),
        omega_s=((0.0, False), (2 * _S6 / 3, False), (_S6 / 3, True), (_S6 / 3, True)),
        phi_u=(1.5 * _PI, 0.5 * _PI, 0.0, 0.0),
        phi_s=(0.5 * _PI, 1.5 * _PI, 0.0, 0.0),
    ),
    ("tshape", 3): dict(
        omega_u=(0.0, 0.0, _S2, _S2),
        omega_s=((0.0, True), (0.0, True), (_S2, True), (_S2, True)),
        phi_u=(0.0, 0.0, _PI, _PI),
        phi_s=(0.0, 0.0, _PI, _PI),
    ),
    ("tshape", 4): dict(
        omega_u=(1.0, 1.0, 1.0, 1.0),
        omega_s=((1.0, True), (1.0, True), (1.0, True), (1.0, True)),
        phi_u=(0.5 * _PI, 0.0, 0.0, 0.0),
        phi_s=(1.5 * _PI, 0.0, 0.0, 0.0),
    ),
}

#: Stages whose printed values are inconsistent with coefficient matching.
#: Every mismatch reported by check_tables outside this set is unexpected.
KNOWN_DISCREPANCIES: dict[tuple[str, int], tuple[str, ...]] = {
    ("linear", 3): (
        "phi entries for ensembles 3 and 4 are swapped relative to the transform "
        "row (the row has the imaginary unit on c4, not c3); as printed the stage "
        "would drive a mode overlapping the other combined modes, breaking the "
        "stage decoupling and the orthonormality that the transform itself satisfies",
    ),
    ("square", 1): (
        "omega_s for ensembles 3, 4 lacks the factor r required for coefficient matching",
    ),
    ("square", 3): (
        "omega_s for ensembles 3, 4 lacks the factor r required for coefficient matching",
        "phi_u for ensembles 1, 2 printed as 3*pi/2; coefficient matching gives pi "
        "(the printed phi_s values agree with pi, not with 3*pi/2)",
    ),
    ("square", 4): (
        "omega_s for ensembles 3, 4 lacks the factor r required for coefficient matching",
    ),
    ("tshape", 1): (
        "omega_u, omega_s for ensemble 1 printed as 0; the combined mode has a "
        "c1 component of modulus sqrt(3)/2, so coefficient matching gives "
        "sqrt(3)*Omega and r*sqrt(3)*Omega (the printed ensemble-1 phases are "
        "pointless for a switched-off drive, supporting the misprint reading)",
        "printed phases drive the +row mode, which squeezes the quadrature "
        "orthogonal to the one the target state needs; the consistent stage "
        "drives i times the row",
    ),
    ("tshape", 2): (
        "omega_s for ensemble 2 lacks the factor r required for coefficient matching",
        "the u-channel amplitude symbol for ensembles 3, 4 is misprinted in the source",
        "phases for ensembles 3, 4 are not given in the source table (stored as 0); "
        "the consistent stage uses 3*pi/2 on the u channel and pi/2 on the s channel",
    ),
    ("tshape", 3): (
        "phi for ensembles 3, 4 printed as (pi, pi); driving the difference mode "
        "c3 - c4 requires a pi phase difference between the two ensembles "
        "(the consistent i*row stage uses pi/2 and 3*pi/2 on the u channel)",
    ),
}


def reference_stage(kind: str, index: int, omega: float = 1.0, r: float = 0.5) -> PulseStage:
    """Literal reference table for one stage, materialised at (omega, r).

    Values are kept exactly as printed, suspected misprints included.
    """
    key = (kind, index)
    if key not in _TABLES:
        raise InvalidParameterError(
            f"no reference table for kind {kind!r} stage {index}; "
            f"kinds are {PROTOCOL_KINDS} with stages 1..4"
        )
    row = _TABLES[key]
    omega_s = np.array([coef * (r if uses_r else 1.0) * omega for coef, uses_r in row["omega_s"]])
    return PulseStage(
        omega_u=np.array(row["omega_u"]) * omega,
        omega_s=omega_s,
        phi_u=np.array(row["phi_u"]),
        phi_s=np.array(row["phi_s"]),
        duration=4.0,  # the built-in default stage time; no comparison reads it
    )


def generated_stage(kind: str, index: int, omega: float = 1.0, r: float = 0.5) -> PulseStage:
    """Stage ``index`` (1..4) of the built-in protocol at (omega, r)."""
    if not 1 <= index <= 4:
        raise InvalidParameterError(f"stage index must lie in 1..4, got {index}")
    params = PhysicalParams(omega, r)
    return builtin_protocol(kind, params).stages[index - 1]


@dataclass(frozen=True)
class StageMismatch:
    """One differing table entry (ensemble index is 1-based)."""

    field: str
    ensemble: int
    generated: float
    reference: float

    def __str__(self):
        return (
            f"{self.field}[{self.ensemble}]: generated {self.generated:.6g}, "
            f"reference {self.reference:.6g}"
        )


def _phase_gap(a: float, b: float) -> float:
    return abs((a - b + _PI) % (2.0 * _PI) - _PI)


def compare_stages(generated: PulseStage, reference: PulseStage) -> list[StageMismatch]:
    """Entrywise comparison; phases are checked mod 2 pi and only where the
    corresponding amplitude is nonzero in both stages."""
    mismatches = []
    for field in ("omega_u", "omega_s"):
        ga, ra = getattr(generated, field), getattr(reference, field)
        for j in range(4):
            if abs(ga[j] - ra[j]) > AMP_TOL:
                mismatches.append(StageMismatch(field, j + 1, ga[j], ra[j]))
    for amp_field, phase_field in (("omega_u", "phi_u"), ("omega_s", "phi_s")):
        gp, rp = getattr(generated, phase_field), getattr(reference, phase_field)
        ga, ra = getattr(generated, amp_field), getattr(reference, amp_field)
        for j in range(4):
            if ga[j] > AMP_TOL and ra[j] > AMP_TOL and _phase_gap(gp[j], rp[j]) > AMP_TOL:
                mismatches.append(StageMismatch(phase_field, j + 1, gp[j], rp[j]))
    return mismatches


@dataclass(frozen=True)
class TableCheckEntry:
    kind: str
    index: int
    mismatches: tuple[StageMismatch, ...]
    whitelisted: bool
    notes: tuple[str, ...]

    @property
    def matches(self) -> bool:
        return not self.mismatches

    @property
    def unexpected(self) -> bool:
        return bool(self.mismatches) and not self.whitelisted


@dataclass(frozen=True)
class TableCheckReport:
    entries: tuple[TableCheckEntry, ...]

    @property
    def unexpected(self) -> tuple[TableCheckEntry, ...]:
        return tuple(e for e in self.entries if e.unexpected)

    @property
    def ok(self) -> bool:
        return not self.unexpected


def check_tables(omega: float = 1.0, r: float = 0.5) -> TableCheckReport:
    """Compare every generated stage against its reference table.

    Any r in (0, 1) exposes the missing-r entries; the default is 0.5.
    """
    params = PhysicalParams(omega, r)
    entries = []
    for kind in PROTOCOL_KINDS:
        stages = builtin_protocol(kind, params).stages
        for index, stage in enumerate(stages, start=1):
            mismatches = compare_stages(stage, reference_stage(kind, index, omega, r))
            notes = KNOWN_DISCREPANCIES.get((kind, index), ())
            entries.append(
                TableCheckEntry(
                    kind=kind,
                    index=index,
                    mismatches=tuple(mismatches),
                    whitelisted=(kind, index) in KNOWN_DISCREPANCIES,
                    notes=notes,
                )
            )
    return TableCheckReport(tuple(entries))
