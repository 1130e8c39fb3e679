"""Simulator for a spin-1/2 particle hopping on a two- or three-site lattice
while exchange-coupled to two static spins pinned at the outer sites.

Exact dynamics, strong-hopping effective three-spin-chain dynamics,
entanglement generation and quantum state transfer, with a CLI that emits
deterministic CSV tables.
"""

from .analysis import (
    ConservationReport,
    DeviationReport,
    compare_exact_effective,
    conservation_monitor,
    estimate_period,
    log_negativity,
)
from .dynamics import (
    HAMILTONIAN_KINDS,
    AnalyticSolution,
    TimeGrid,
    Trajectory,
    analytic,
    doublet_leakage,
    evolve_on_grid,
    hamiltonian_for,
    observables,
    run_trajectory,
)
from .linalg import (
    hermitian_eigensystem,
    partial_transpose,
    trace_norm_hermitian,
)
from .model import (
    EFFECTIVE_VARIANTS,
    BasisLayout,
    ModelSpec,
    build_effective_hamiltonian,
    build_hamiltonian,
    encode_state,
    static_pair_state,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolution",
    "BasisLayout",
    "ConservationReport",
    "DeviationReport",
    "EFFECTIVE_VARIANTS",
    "HAMILTONIAN_KINDS",
    "ModelSpec",
    "TimeGrid",
    "Trajectory",
    "analytic",
    "build_effective_hamiltonian",
    "build_hamiltonian",
    "compare_exact_effective",
    "conservation_monitor",
    "doublet_leakage",
    "encode_state",
    "estimate_period",
    "evolve_on_grid",
    "hamiltonian_for",
    "hermitian_eigensystem",
    "log_negativity",
    "observables",
    "partial_transpose",
    "run_trajectory",
    "static_pair_state",
    "trace_norm_hermitian",
]
