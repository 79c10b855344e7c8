"""Quantum action toolkit.

Euclidean transition amplitudes for polynomial potentials, trial-action
fitting of the quantum action, closed-form large-T asymptotics (ground
state, transformation law, WKB correspondence, hydrogen radial sector),
and classical-vs-quantum Poincare section comparison.
"""
import os

# one BLAS thread, set before numpy loads: a threaded BLAS sums in an order that
# depends on its thread count, and outputs must depend on the config alone
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
from .errors import NumericalError
from .model import (
    ActionSpec,
    PolynomialPotential,
    ScaleTransform,
    apply_scale_transform,
)
from .propagator import (
    Grid,
    PropagatorTable,
    SpectralData,
    discretize_hamiltonian,
    euclidean_propagate,
    ho_euclidean_action,
    ho_exact_propagator,
    spectral_decompose,
    tensor_pairs,
)
from .trajectory import (
    PhaseState,
    TrajectorySolution,
    hamiltonian_energy,
    integrate_realtime,
    solve_euclidean_bvp,
)
from .qfit import (
    FitProblem,
    FitResult,
    default_pairs,
    fit_flow,
    fit_quantum_action,
    flow_rows,
)
from .asymptotics import (
    GroundStateInfo,
    HydrogenSector,
    InversionResult,
    WkbReport,
    ground_state_from_quantum_action,
    ground_state_spectral,
    hydrogen_sector,
    hydrogen_table,
    invert_transformation_law,
    quantum_action_log_norm_sq,
    transformation_law_residual,
    transformation_law_residual_grid,
    wkb_compare,
)
from .chaos import (
    PoincareSection,
    SectionSpec,
    compare_sections,
    generate_section,
    orbit_thickness,
    section_initial_conditions,
    section_occupancy,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSpec",
    "FitProblem",
    "FitResult",
    "Grid",
    "GroundStateInfo",
    "HydrogenSector",
    "InversionResult",
    "NumericalError",
    "PhaseState",
    "PoincareSection",
    "PolynomialPotential",
    "PropagatorTable",
    "ScaleTransform",
    "SectionSpec",
    "SpectralData",
    "TrajectorySolution",
    "WkbReport",
    "apply_scale_transform",
    "compare_sections",
    "default_pairs",
    "discretize_hamiltonian",
    "euclidean_propagate",
    "fit_flow",
    "fit_quantum_action",
    "flow_rows",
    "generate_section",
    "ground_state_from_quantum_action",
    "ground_state_spectral",
    "hamiltonian_energy",
    "ho_euclidean_action",
    "ho_exact_propagator",
    "hydrogen_sector",
    "hydrogen_table",
    "integrate_realtime",
    "invert_transformation_law",
    "orbit_thickness",
    "quantum_action_log_norm_sq",
    "section_initial_conditions",
    "section_occupancy",
    "solve_euclidean_bvp",
    "spectral_decompose",
    "tensor_pairs",
    "transformation_law_residual",
    "transformation_law_residual_grid",
    "wkb_compare",
]
