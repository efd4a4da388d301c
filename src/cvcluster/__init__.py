"""Dissipative preparation of four-mode continuous-variable cluster states.

Gaussian covariance-matrix simulation of four atomic-ensemble modes coupled
to a damped ring-cavity mode, the pulse protocols that squeeze the combined
modes one stage at a time, nullifier-variance verification of the resulting
linear, square and T-shape cluster states, and an independent truncated
number-basis oracle for the reduced two-mode dynamics.

The oracle's names load ``cvcluster.fock``, and with it scipy, on first
use, so ``import cvcluster`` needs numpy alone.
"""

from .errors import (
    CutoffTooSmallError,
    InvalidParameterError,
    NonHurwitzError,
    SimulationError,
    UnphysicalStateError,
)
from .gaussian import (
    DriftDiffusion,
    GaussianState,
    QuadraticHamiltonian,
    apply_mode_transform,
    drift_diffusion,
    evolve,
    purity,
    steady_state,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_from_unitary,
)
from .model import (
    ConvergenceInfo,
    PhysicalParams,
    PulseStage,
    build_effective_hamiltonian,
    cavity_decay_from_finesse,
    convergence_eigenvalues,
    effective_spontaneous_rate,
    two_mode_drift_diffusion,
)
from .protocols import (
    MODE_LABELS,
    PROTOCOL_KINDS,
    STAGE_PHASE_FACTORS,
    CouplingReport,
    ModeTransform,
    Protocol,
    ProtocolRun,
    StageTrace,
    builtin_protocol,
    builtin_transform,
    run_protocol,
    stage_from_mode_vector,
    transformed_coupling,
)
from .tables import (
    KNOWN_DISCREPANCIES,
    TableCheckReport,
    check_tables,
    compare_stages,
    generated_stage,
    reference_stage,
)
from .verify import (
    ClusterGraph,
    VarianceReport,
    analytic_targets,
    builtin_graph,
    is_cluster,
    nullifier_coefficients,
    nullifier_variances,
    vacuum_targets,
)

__version__ = "0.1.0"

_FOCK_NAMES = ("FockConfig", "FockResult", "covariance_from_density", "integrate_two_mode")


def __getattr__(name):
    if name in _FOCK_NAMES:
        from . import fock

        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CutoffTooSmallError",
    "InvalidParameterError",
    "NonHurwitzError",
    "SimulationError",
    "UnphysicalStateError",
    "FockConfig",
    "FockResult",
    "covariance_from_density",
    "integrate_two_mode",
    "DriftDiffusion",
    "GaussianState",
    "QuadraticHamiltonian",
    "apply_mode_transform",
    "drift_diffusion",
    "evolve",
    "purity",
    "steady_state",
    "symplectic_eigenvalues",
    "symplectic_form",
    "symplectic_from_unitary",
    "ConvergenceInfo",
    "PhysicalParams",
    "PulseStage",
    "build_effective_hamiltonian",
    "cavity_decay_from_finesse",
    "convergence_eigenvalues",
    "effective_spontaneous_rate",
    "two_mode_drift_diffusion",
    "MODE_LABELS",
    "PROTOCOL_KINDS",
    "STAGE_PHASE_FACTORS",
    "CouplingReport",
    "ModeTransform",
    "Protocol",
    "ProtocolRun",
    "StageTrace",
    "builtin_protocol",
    "builtin_transform",
    "run_protocol",
    "stage_from_mode_vector",
    "transformed_coupling",
    "KNOWN_DISCREPANCIES",
    "TableCheckReport",
    "check_tables",
    "compare_stages",
    "generated_stage",
    "reference_stage",
    "ClusterGraph",
    "VarianceReport",
    "analytic_targets",
    "builtin_graph",
    "is_cluster",
    "nullifier_coefficients",
    "nullifier_variances",
    "vacuum_targets",
]
