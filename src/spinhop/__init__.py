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
    AnalyticSolution,
    TimeGrid,
    Trajectory,
    analytic,
    evolve_on_grid,
    observables,
    run_trajectory,
)
from .linalg import (
    hermitian_eigensystem,
    partial_transpose,
)
from .model import (
    HAMILTONIAN_KINDS,
    BasisLayout,
    ModelSpec,
    build_hamiltonian,
    encode_state,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolution",
    "BasisLayout",
    "ConservationReport",
    "DeviationReport",
    "HAMILTONIAN_KINDS",
    "ModelSpec",
    "TimeGrid",
    "Trajectory",
    "analytic",
    "build_hamiltonian",
    "compare_exact_effective",
    "conservation_monitor",
    "encode_state",
    "estimate_period",
    "evolve_on_grid",
    "hermitian_eigensystem",
    "log_negativity",
    "observables",
    "partial_transpose",
    "run_trajectory",
]
