"""Quantum action toolkit.

Euclidean transition amplitudes for polynomial potentials, trial-action
fitting of the quantum action, closed-form large-T asymptotics (ground
state, transformation law, WKB correspondence, hydrogen radial sector),
and classical-vs-quantum Poincare section comparison.

Importing the package loads none of its layers: ``from qaction import X``
imports X's defining module on first use (PEP 562).
"""
import importlib
import os

# one BLAS thread, set before numpy loads: a threaded BLAS sums in an order that
# depends on its thread count, and outputs must depend on the config alone
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "NumericalError": "errors",
    **dict.fromkeys(
        ("ActionSpec", "PolynomialPotential", "ScaleTransform", "apply_scale_transform"), "model"
    ),
    **dict.fromkeys(
        (
            "Grid", "PropagatorTable", "SpectralData", "discretize_hamiltonian", "euclidean_propagate",
            "ho_euclidean_action", "ho_exact_propagator", "spectral_decompose", "tensor_pairs",
        ),
        "propagator",
    ),
    **dict.fromkeys(
        ("PhaseState", "TrajectorySolution", "hamiltonian_energy", "integrate_realtime", "solve_euclidean_bvp"),
        "trajectory",
    ),
    **dict.fromkeys(
        ("FitProblem", "FitResult", "default_pairs", "fit_flow", "fit_quantum_action", "flow_rows"), "qfit"
    ),
    **dict.fromkeys(
        (
            "GroundStateInfo", "HydrogenSector", "InversionResult", "WkbReport",
            "ground_state_from_quantum_action", "ground_state_spectral", "hydrogen_sector", "hydrogen_table",
            "invert_transformation_law", "quantum_action_log_norm_sq", "transformation_law_residual",
            "transformation_law_residual_grid", "wkb_compare",
        ),
        "asymptotics",
    ),
    **dict.fromkeys(
        (
            "PoincareSection", "SectionSpec", "compare_sections", "generate_section", "orbit_thickness",
            "section_initial_conditions", "section_occupancy",
        ),
        "chaos",
    ),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
