"""Numerical quantum-to-classical rate-distortion toolkit.

Computes the single-letter rate-distortion trade-off for measuring a quantum
source into classical data: Monte-Carlo sweeps over random POVMs, constrained
minimization of the (conditional) quantum mutual information, and a classical
Blahut-Arimoto oracle for effectively classical distortion observables.
"""

from .distortion import (
    DistortionObservable,
    classical_cost_observable,
    distortion,
    distortion_qsi,
    eigenbasis_observable,
    example_observable,
)
from .information import (
    InvalidDistribution,
    conditional_mutual_information_cq,
    mutual_information_cq,
    shannon_entropy,
    von_neumann_entropy,
)
from .operators import (
    DimensionMismatch,
    EigDecomposition,
    NotPositiveSemidefinite,
    eig_hermitian,
    partial_trace,
    sqrt_psd,
    tensor,
    trace_distance,
)
from .problem import ProblemSpec, ProblemSpecError, load_problem, parse_problem
from .solver import (
    RdCurve,
    RdPoint,
    SolverOptions,
    blahut_arimoto,
    classical_strategy_rate,
    lower_envelope,
    minimize_rate,
    minimize_rate_curve,
    sample_sweep,
)
from .states import (
    CqState,
    DensityOperator,
    Povm,
    Purification,
    apply_measurement_map,
    dephase,
    example_source,
    induced_cq_state,
    pinch_povm,
    purify,
    purify_joint,
    sample_random_povm,
    sweep_povm,
)

__version__ = "0.1.0"

__all__ = [
    "CqState",
    "DensityOperator",
    "DimensionMismatch",
    "DistortionObservable",
    "EigDecomposition",
    "InvalidDistribution",
    "NotPositiveSemidefinite",
    "Povm",
    "ProblemSpec",
    "ProblemSpecError",
    "Purification",
    "RdCurve",
    "RdPoint",
    "SolverOptions",
    "apply_measurement_map",
    "blahut_arimoto",
    "classical_cost_observable",
    "classical_strategy_rate",
    "conditional_mutual_information_cq",
    "dephase",
    "distortion",
    "distortion_qsi",
    "eig_hermitian",
    "eigenbasis_observable",
    "example_observable",
    "example_source",
    "induced_cq_state",
    "load_problem",
    "lower_envelope",
    "minimize_rate",
    "minimize_rate_curve",
    "mutual_information_cq",
    "parse_problem",
    "partial_trace",
    "pinch_povm",
    "purify",
    "purify_joint",
    "sample_random_povm",
    "sample_sweep",
    "shannon_entropy",
    "sqrt_psd",
    "sweep_povm",
    "tensor",
    "trace_distance",
    "von_neumann_entropy",
]
