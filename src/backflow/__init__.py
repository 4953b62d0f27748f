"""Exact diagnostics for information backflow in small open quantum systems.

The package simulates a qubit coupled to a finite spin-chain environment
(or any user-supplied finite model), evolves two initial product states
under the joint Hamiltonian, and tracks the trace distance between the
reduced system states together with the correlation and environment
terms that bound its growth.
"""

from .diagnostics import (
    BoundTerms,
    correlation_distance,
    correlation_operator,
    distinguishability_bound,
    mutual_information,
    trace_distance,
)
from .evolution import (
    TimeGrid,
    TrajectoryRecord,
    evolve,
    run_trajectory,
)
from .linalg import (
    Bipartition,
    haar_random_state,
    hermitian_eig,
    partial_trace,
    purity,
    trace_norm,
    von_neumann_entropy,
)
from .measure import (
    MeasureReport,
    PairFamily,
    blp_integral,
    blp_measure,
    down_up_crossings,
    interval_contributions,
)
from .model import (
    ChainModel,
    ChainParams,
    Model,
    ModelFileError,
    build_chain_model,
    carrier_indices,
    load_generic_model,
    pauli_on_site,
    plus_minus_pair,
    total_sz_diagonal,
)
from .verify import CheckResult, bound_suite, random_generic_model, structural_suite

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "BoundTerms",
    "ChainModel",
    "ChainParams",
    "CheckResult",
    "MeasureReport",
    "Model",
    "ModelFileError",
    "PairFamily",
    "TimeGrid",
    "TrajectoryRecord",
    "blp_integral",
    "blp_measure",
    "build_chain_model",
    "carrier_indices",
    "correlation_distance",
    "correlation_operator",
    "distinguishability_bound",
    "down_up_crossings",
    "evolve",
    "haar_random_state",
    "hermitian_eig",
    "interval_contributions",
    "load_generic_model",
    "mutual_information",
    "partial_trace",
    "pauli_on_site",
    "plus_minus_pair",
    "purity",
    "random_generic_model",
    "run_trajectory",
    "structural_suite",
    "total_sz_diagonal",
    "trace_distance",
    "trace_norm",
    "von_neumann_entropy",
    "__version__",
]
