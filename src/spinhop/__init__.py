"""Simulator for a spin-1/2 particle hopping on a two- or three-site lattice
while exchange-coupled to two static spins pinned at the outer sites.

Exact dynamics, strong-hopping effective three-spin-chain dynamics,
entanglement generation and quantum state transfer, with a CLI that emits
deterministic CSV tables.  The package exports what the CLI, the paper's
checks and the README quickstart call; every other name stays at its
module path.
"""

from .analysis import (
    compare_exact_effective,
    conservation_monitor,
    estimate_period,
    log_negativity,
)
from .dynamics import (
    TimeGrid,
    analytic,
    observables,
    run_trajectory,
)
from .linalg import hermitian_eigensystem
from .model import (
    BasisLayout,
    ModelSpec,
    encode_state,
)

__version__ = "0.1.0"

__all__ = [
    "BasisLayout",
    "ModelSpec",
    "TimeGrid",
    "analytic",
    "compare_exact_effective",
    "conservation_monitor",
    "encode_state",
    "estimate_period",
    "hermitian_eigensystem",
    "log_negativity",
    "observables",
    "run_trajectory",
]
