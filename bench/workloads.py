"""Inputs of the three benchmark workloads.

A workload is an ordered list of ``Step`` values, each one ``qaction``
command with its JSON config. Every input is fixed except the Poincare
``start_index``, which is the program's only seed and is taken from the
benchmark's ``--seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

QUARTIC_E0 = 0.667986259155777  # V = x^4, m = hbar = 1 (Hioe & Montroll 1975)
SOFT_LAMBDA = 0.25
SOFT_QUARTIC_E0 = SOFT_LAMBDA ** (1.0 / 3.0) * QUARTIC_E0  # E0 scales as lambda^(1/3)
HYDROGEN_L_MAX = 10
# trial action for sections-2d, made from the coupled-2d fit by make_trial_action.py
TRIAL_ACTION_FILE = "bench/data/coupled_fit.json"


def make_action(dim: int, terms: dict, mass: float = 1.0) -> dict:
    """An action in the JSON shape of ``ActionSpec.to_json_dict``, from {exponents: coefficient}."""
    return {
        "mass": mass,
        "hbar": 1.0,
        "potential": {"dim": dim, "terms": [{"exp": list(e), "coef": c} for e, c in terms.items()]},
    }


HO = make_action(1, {(2,): 0.5})
HO_QUANTUM = make_action(1, {(0,): 0.5, (2,): 0.5})
QUARTIC = make_action(1, {(4,): 1.0})
SOFT_QUARTIC = make_action(1, {(4,): SOFT_LAMBDA})
UNCOUPLED = make_action(2, {(2, 0): 0.5, (0, 2): 0.5})
COUPLED_V22 = 0.05
COUPLED = make_action(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): COUPLED_V22})
# the eight boundary points of acceptance criterion 8
COUPLED_FIT_POINTS = [
    [0.1, 0.1], [0.9, 0.9], [1.5, 1.5], [0.9, 0.1],
    [0.1, 0.9], [1.5, 0.7], [0.7, 1.5], [1.5, -0.7],
]


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload.

    ``expect_exit`` is the exit code the program gives today; a step with a
    non-zero one is the workload's kept failing operation: it is run and
    counted as failed, and its wall time stays out of every timing.
    """

    name: str
    command: str
    config: dict
    expect_exit: int = 0


def pipeline_1d() -> list:
    ho_grid = {"extents": [8.0], "npoints": [12801]}
    ho_pairs = {"points_per_axis": 11, "span": [-2.0, 2.0]}
    return [
        Step("ho-short", "propagate", {"action": HO, "grid": ho_grid, "T": 0.5, "pairs": ho_pairs}),
        Step("ho-long", "propagate", {"action": HO, "grid": ho_grid, "T": 4.0, "pairs": ho_pairs}),
        Step("quartic", "propagate", {
            "action": QUARTIC,
            "grid": {"extents": [7.0], "npoints": [11201]},
            "T": 0.05,
            "pairs": {"points_per_axis": 11, "span": [-1.5, 1.5], "max_separation": 0.6},
        }),
        Step("ho-fit", "fit", {
            "classical": HO,
            "grid": {"extents": [8.0], "npoints": [1601]},
            "T": 8.0,
            "pairs": {"points": [-2.0 + 0.5 * k for k in range(9)]},
            "ansatz": [[0], [2]],
            "fit_mass": True,
            "n_nodes": 1025,
            "restarts": 1,
        }),
        Step("soft-fit", "fit", {
            "classical": SOFT_QUARTIC,
            "grid": {"extents": [7.0], "npoints": [5601]},
            "T": 10.0,
            "pairs": [[0.0, 0.125 * k] for k in range(10)],
            "ansatz": [[0], [2], [4]],
            "fit_mass": False,
            "n_nodes": 257,
            "restarts": 1,
        }),
        Step("ho-analytic", "analytic", {
            "action": HO,
            "grid": {"extents": [3.0], "npoints": [481]},
            "quantum": HO_QUANTUM,
            "e_gr": 0.5,
            "hydrogen_l_max": HYDROGEN_L_MAX,
        }),
        Step("quartic-analytic", "analytic", {
            "action": QUARTIC,
            "grid": {"extents": [2.5], "npoints": [401]},
            "e_gr": QUARTIC_E0,
            "hydrogen_l_max": HYDROGEN_L_MAX,
        }),
        # cmd_analytic inverts the transformation law even when the quantum
        # action makes that unnecessary, and the inversion at the default
        # spectral e_gr fails on this wide grid
        Step("ho-analytic-wide", "analytic", {
            "action": HO,
            "grid": {"extents": [8.0], "npoints": [801]},
            "quantum": HO_QUANTUM,
            "hydrogen_l_max": HYDROGEN_L_MAX,
        }, expect_exit=3),
    ]


def coupled_2d() -> list:
    return [
        Step("uncoupled-dense", "propagate", {
            "action": UNCOUPLED,
            "grid": {"extents": [6.6, 6.6], "npoints": [45, 45]},
            "T": 3.0,
            "pairs": {"points_per_axis": 5, "span": [-1.5, 1.5]},
        }),
        Step("coupled-fit", "fit", {
            "classical": COUPLED,
            "grid": {"extents": [6.3, 6.3], "npoints": [64, 64]},
            "T": 3.0,
            "pairs": {"points": COUPLED_FIT_POINTS},
            "ansatz": [[[0, 0]], [[2, 0], [0, 2]], [[2, 2]]],
            "fit_mass": True,
            "n_nodes": 257,
            "restarts": 1,
        }),
    ]


# Orbits run in lockstep, so a section costs as much as its slowest orbit.
# With sixteen orbits the step count varies by under 2% between seeds; with
# six it varied by 20% at E=30. Two crossings keep a round short enough for
# several rounds, and so a median, within one run.
SECTION_ORBITS = 16
SECTION_CROSSINGS = 2


def sections_2d(seed: int) -> list:
    def section(action: dict, energy: float, with_fit: bool) -> dict:
        cfg = {
            "action": action,
            "energy": energy,
            "n_orbits": SECTION_ORBITS,
            "max_crossings": SECTION_CROSSINGS,
            "dt": 1e-3,
            "start_index": seed,
            "boxes": [32, 32],
        }
        if with_fit:
            cfg["fit_result"] = TRIAL_ACTION_FILE
        return cfg

    return [
        Step("uncoupled-e2", "poincare", section(UNCOUPLED, 2.0, False)),
        Step("coupled-e2", "poincare", section(COUPLED, 2.0, True)),
        Step("coupled-e30", "poincare", section(COUPLED, 30.0, True)),
    ]


WORKLOADS = {
    "pipeline-1d": lambda seed: pipeline_1d(),
    "coupled-2d": lambda seed: coupled_2d(),
    "sections-2d": sections_2d,
}
