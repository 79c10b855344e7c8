import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from qaction import Grid, _lapack, chaos, propagator, trajectory
from qaction.asymptotics import MAX_L
from qaction.cli import _parse_action, _parse_pairs, main
from qaction.errors import NumericalError
from qaction.model import MAX_DEGREE
from qaction.propagator import MAX_PAIRS
from qaction.qfit import FLOW_CSV_HEADER

HO = {
    "mass": 1.0,
    "hbar": 1.0,
    "potential": {"dim": 1, "terms": [{"exp": [2], "coef": 0.5}]},
}
HO_QUANTUM = {
    "mass": 1.0,
    "hbar": 1.0,
    "potential": {
        "dim": 1,
        "terms": [{"exp": [0], "coef": 0.5}, {"exp": [2], "coef": 0.5}],
    },
}
COUPLED = {
    "mass": 1.0,
    "hbar": 1.0,
    "potential": {
        "dim": 2,
        "terms": [
            {"exp": [2, 0], "coef": 0.5},
            {"exp": [0, 2], "coef": 0.5},
            {"exp": [2, 2], "coef": 0.05},
        ],
    },
}

COUPLED_TRIAL = {
    "mass": 1.0,
    "hbar": 1.0,
    "potential": {
        "dim": 2,
        "terms": [
            {"exp": [0, 0], "coef": 1.0},
            {"exp": [2, 0], "coef": 0.52},
            {"exp": [0, 2], "coef": 0.52},
            {"exp": [2, 2], "coef": 0.04},
        ],
    },
}

UNCOUPLED = {
    "mass": 1.0,
    "hbar": 1.0,
    "potential": {
        "dim": 2,
        "terms": [{"exp": [2, 0], "coef": 0.5}, {"exp": [0, 2], "coef": 0.5}],
    },
}


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture
def prop_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        "prop.json",
        {
            "action": HO,
            "grid": {"extents": [8.0], "npoints": [401]},
            "T": 1.0,
            "pairs": {"points": [-1.0, 0.0, 1.0]},
        },
    )


def test_propagate_outputs_and_determinism(tmp_path, prop_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["propagate", "--config", prop_cfg, "--out", str(out1)]) == 0
    assert main(["propagate", "--config", prop_cfg, "--out", str(out2)]) == 0
    for name in ("propagator.csv", "spectrum.csv"):
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes()
        assert b1
    header, rows = read_rows(out1 / "propagator.csv")
    assert header == ["xi", "xf", "T", "G"]
    assert len(rows) == 9
    mid = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert abs(float(mid[0][3]) - 0.36800) < 5e-3
    spec_header, spec_rows = read_rows(out1 / "spectrum.csv")
    assert spec_header == ["n", "E"]
    assert abs(float(spec_rows[0][1]) - 0.5) < 1e-3


def test_propagate_json_format(tmp_path, prop_cfg):
    out = tmp_path / "j"
    assert main(["propagate", "--config", prop_cfg, "--out", str(out), "--format", "json"]) == 0
    data = json.loads((out / "propagator.json").read_text())
    assert set(data) == {"header", "rows"}
    assert len(data["rows"]) == 9


def test_propagate_auto_pairs(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "auto.json",
        {
            "action": HO,
            "grid": {"extents": [8.0], "npoints": [401]},
            "T": 1.0,
            "pairs": "auto",
        },
    )
    out = tmp_path / "auto"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out / "propagator.csv")
    assert len(rows) >= 25


def test_analytic_with_quantum_action(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "analytic.json",
        {
            "action": HO,
            "grid": {"extents": [6.0], "npoints": [301]},
            "quantum": HO_QUANTUM,
            "e_gr": 0.5,
            "hydrogen_l_max": 3,
        },
    )
    out = tmp_path / "an"
    assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
    wkb = json.loads((out / "wkb.json").read_text())
    assert wkb["distance_quantum"] < wkb["distance_classical"]
    assert wkb["ground_state_source"] == "quantum-action"
    assert wkb["turning_point"] == pytest.approx(1.0, abs=1e-6)

    _, hyd = read_rows(out / "hydrogen.csv")
    assert [float(v) for v in hyd[0]] == [1.0, 0.5, 0.5, -0.125]
    assert [float(v) for v in hyd[1]] == pytest.approx([2.0, 2.0, 2.0 / 3.0, -1.0 / 18.0])
    assert [float(v) for v in hyd[2]] == [3.0, 4.5, 0.75, -0.03125]

    _, law = read_rows(out / "transformation_law.csv")
    assert all(float(r[0]) != 0.0 for r in law)
    assert max(abs(float(r[1])) for r in law) < 1e-9

    _, gs = read_rows(out / "ground_state.csv")
    assert len(gs) == 301
    peak = max(gs, key=lambda r: float(r[1]))
    assert abs(float(peak[0])) < 0.03


def test_analytic_quantum_action_skips_inversion(tmp_path):
    """With a quantum action the law is never inverted, so the inversion's
    failure at the spectral e_gr on this wide grid cannot abort the run."""
    cfg = write_cfg(
        tmp_path,
        "wide.json",
        {"action": HO, "grid": {"extents": [8.0], "npoints": [801]}, "quantum": HO_QUANTUM},
    )
    out = tmp_path / "wide"
    assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
    wkb = json.loads((out / "wkb.json").read_text())
    assert wkb["ground_state_source"] == "quantum-action"
    assert wkb["ground_state_energy_used"] == pytest.approx(0.5, abs=1e-3)


def test_analytic_skips_a_middle_node_rounded_off_zero(tmp_path):
    """linspace puts the middle of 99 nodes over [-2, 2] at -2.2e-16, where
    V_t rounds to its minimum; that node is skipped, not a fault."""
    cfg = write_cfg(
        tmp_path,
        "mid.json",
        {"action": HO, "grid": {"extents": [2.0], "npoints": [99]}, "quantum": HO_QUANTUM, "e_gr": 0.5},
    )
    out = tmp_path / "mid"
    assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
    _, law = read_rows(out / "transformation_law.csv")
    assert len(law) == 98
    assert min(abs(float(r[0])) for r in law) > 0.01
    assert max(abs(float(r[1])) for r in law) < 1e-9


def test_analytic_double_well_quantum_exit_2_leaves_no_files(tmp_path):
    """The law's sgn(x) form needs the trial minimum at the origin."""
    double_well = dict(HO_QUANTUM, potential={
        "dim": 1, "terms": [{"exp": [2], "coef": -1.0}, {"exp": [4], "coef": 1.0}],
    })
    cfg = write_cfg(
        tmp_path,
        "dw.json",
        {"action": HO, "grid": {"extents": [3.0], "npoints": [241]}, "quantum": double_well, "e_gr": 0.5},
    )
    out = tmp_path / "dw"
    assert main(["analytic", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_analytic_inversion_branch(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "inv.json",
        {"action": HO, "grid": {"extents": [3.0], "npoints": [241]}},
    )
    out = tmp_path / "inv"
    assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
    wkb = json.loads((out / "wkb.json").read_text())
    assert abs(wkb["ground_state_energy_used"] - 0.5) < 1e-3
    _, law = read_rows(out / "transformation_law.csv")
    # near the boundary the round trip amplifies the spectral e_gr error
    # exponentially, so only the interior is meaningful
    inner = [abs(float(r[1])) for r in law if abs(float(r[0])) <= 1.5]
    assert inner and max(inner) < 1e-3


def test_fit_command_deterministic(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "fit.json",
        {
            "classical": HO,
            "grid": {"extents": [8.0], "npoints": [801]},
            "T": 2.0,
            "pairs": {"points": [-1.0, 0.0, 1.0]},
            "ansatz": [[0], [2]],
            "fit_mass": False,
            "n_nodes": 129,
            "restarts": 1,
        },
    )
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert main(["fit", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["fit", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()
    data = json.loads((out1 / "fit.json").read_text())
    assert data["converged"] is True
    assert data["failed_pairs"] == []
    # one search parameter: the x^2 coefficient (mass fixed, constant pinned)
    assert data["gradient_norm"] < 1e-8
    assert len(data["parameter_uncertainties"]) == 1
    assert data["parameter_uncertainties"][0] > 0.0
    terms = {tuple(t["exp"]): t["coef"] for t in data["quantum"]["potential"]["terms"]}
    assert terms[(2,)] == pytest.approx(0.5, abs=5e-3)
    assert data["rms_residual"] < 1e-3


def test_fit_flow_outputs(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "flow.json",
        {
            "classical": HO,
            "grid": {"extents": [8.0], "npoints": [801]},
            "T_list": [2.0, 3.0],
            "pairs": {"points": [-1.0, 0.0, 1.0]},
            "ansatz": [[0], [2]],
            "fit_mass": False,
            "n_nodes": 129,
            "restarts": 1,
        },
    )
    out = tmp_path / "flow"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "fit.json").read_text())
    assert len(data["results"]) == 2
    header, rows = read_rows(out / "flow.csv")
    assert header == list(FLOW_CSV_HEADER)
    assert len(rows) == 2
    assert float(rows[0][0]) == 2.0 and float(rows[1][0]) == 3.0


def test_fit_requires_one_time_key(tmp_path):
    base = {
        "classical": HO,
        "grid": {"extents": [8.0], "npoints": [801]},
        "pairs": {"points": [-1.0, 0.0, 1.0]},
        "ansatz": [[0], [2]],
    }
    both = dict(base, T=2.0, T_list=[2.0, 3.0])
    neither = dict(base)
    assert main(["fit", "--config", write_cfg(tmp_path, "both.json", both)]) == 2
    assert main(["fit", "--config", write_cfg(tmp_path, "neither.json", neither)]) == 2


def test_poincare_classical_only(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "poinc.json",
        {"action": COUPLED, "energy": 2.0, "n_orbits": 2, "max_crossings": 6},
    )
    out = tmp_path / "p"
    assert main(["poincare", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "section_classical.csv").exists()
    assert not (out / "section_quantum.csv").exists()
    comparison = json.loads((out / "comparison.json").read_text())
    assert set(comparison) == {"occupancy_classical", "points_classical", "thickness_classical"}
    assert comparison["points_classical"] == 12
    assert 0.0 < comparison["occupancy_classical"] < 1.0


def test_poincare_with_fit_result_gnuplot(tmp_path):
    """Also: the plane's allowed extent is found once per action, not once per use."""
    chaos._plane_extent.cache_clear()
    fit_path = tmp_path / "fitres.json"
    fit_path.write_text(json.dumps({"quantum": COUPLED_TRIAL}))
    cfg = write_cfg(
        tmp_path,
        "poincq.json",
        {
            "action": COUPLED,
            "energy": 2.0,
            "n_orbits": 2,
            "max_crossings": 6,
            "fit_result": str(fit_path),
        },
    )
    out = tmp_path / "pq"
    assert main(["poincare", "--config", cfg, "--out", str(out), "--format", "gnuplot"]) == 0
    for name in ("section_classical.dat", "section_quantum.dat"):
        header, *lines = (out / name).read_text().splitlines()
        assert header == "# orbit x px"
        data = [line.split() for line in lines if line]
        assert data
        for orbit, x, px in data:  # one int and two floats, as gnuplot reads them
            int(orbit), float(x), float(px)
    comparison = json.loads((out / "comparison.json").read_text())
    assert set(comparison) == {
        "occupancy_classical",
        "occupancy_quantum",
        "symmetric_difference",
        "points_classical",
        "points_quantum",
        "thickness_classical",
        "thickness_quantum",
    }
    assert chaos._plane_extent.cache_info().misses == 2


def test_poincare_missing_fit_result(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "badfit.json",
        {
            "action": COUPLED,
            "energy": 2.0,
            "n_orbits": 2,
            "max_crossings": 6,
            "fit_result": str(tmp_path / "nope.json"),
        },
    )
    assert main(["poincare", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_config_errors_exit_2(tmp_path):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text('{"action": {"mass": 1.0,')
    assert main(["propagate", "--config", str(bad_json)]) == 2

    missing = write_cfg(tmp_path, "missing.json", {"action": HO, "T": 1.0, "pairs": "auto"})
    assert main(["propagate", "--config", missing]) == 2

    assert main(["propagate", "--config", str(tmp_path / "absent.json")]) == 2

    sliding = {
        "action": {
            "mass": 1.0,
            "hbar": 1.0,
            "potential": {"dim": 1, "terms": [{"exp": [2], "coef": -0.5}]},
        },
        "grid": {"extents": [8.0], "npoints": [401]},
        "T": 1.0,
        "pairs": {"points": [0.0]},
    }
    assert main(["propagate", "--config", write_cfg(tmp_path, "slide.json", sliding)]) == 2

    neg_t = {
        "action": HO,
        "grid": {"extents": [8.0], "npoints": [401]},
        "T": -1.0,
        "pairs": {"points": [0.0]},
    }
    assert main(["propagate", "--config", write_cfg(tmp_path, "negt.json", neg_t)]) == 2

    off_node = {
        "action": HO,
        "grid": {"extents": [8.0], "npoints": [401]},
        "T": 1.0,
        "pairs": [[0.123456, 0.0]],
    }
    assert main(["propagate", "--config", write_cfg(tmp_path, "off.json", off_node)]) == 2

    empty = {
        "action": HO,
        "grid": {"extents": [8.0], "npoints": [401]},
        "T": 1.0,
        "pairs": [],
    }
    assert main(["propagate", "--config", write_cfg(tmp_path, "empty.json", empty)]) == 2


def test_numerical_failure_exit_3_leaves_no_files(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "diverge.json",
        {"action": HO, "grid": {"extents": [4.0], "npoints": [321]}, "e_gr": 1.0},
    )
    out = tmp_path / "nothing"
    assert main(["analytic", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


def test_format_choices_enforced(tmp_path, prop_cfg):
    with pytest.raises(SystemExit):
        main(["propagate", "--config", prop_cfg, "--format", "gnuplot"])


def _clear_spectral_caches():
    for cached in (propagator.decompose_for_time, propagator._ground_state, propagator._sector_hamiltonians):
        cached.cache_clear()


def test_off_node_pair_rejected_before_eigensolve(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached with an off-node pair")

    _clear_spectral_caches()
    monkeypatch.setattr(propagator, "spectral_decompose", no_solve)
    monkeypatch.setattr(propagator, "_window_count", no_solve)
    cfg = write_cfg(
        tmp_path,
        "off2d.json",
        {
            "action": UNCOUPLED,
            "grid": {"extents": [6.6, 6.6], "npoints": [45, 45]},
            "T": 3.0,
            "pairs": [[[0.05, 0.0], [0.0, 0.0]]],
        },
    )
    out = tmp_path / "off2d"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def _count_solves(monkeypatch):
    """Per eigensolver (the 1-D tridiagonal one, the 2-D block one, and any
    values-only solve), the states each call solved for, and per window count
    (a Sturm count in 1-D, a block Sturm count in 2-D) the order of the
    matrix it counted."""
    calls = {}

    def size(name, args, kwargs):
        if name == "_negative_pivots":
            return args[0].shape[0]
        if name == "eigh_tridiagonal":  # the LAPACK binding's (d, e, k)
            return args[2]
        if name == "_block_eigh":  # (H, k)
            return args[1]
        return len(args[0])

    def count(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name].append(size(name, args, kwargs))
            return func(*args, **kwargs)

        calls[name] = []
        monkeypatch.setattr(module, name, wrapper)

    count(np.linalg, "eigvalsh")
    count(_lapack, "eigh_tridiagonal")
    count(propagator, "_block_eigh")
    count(propagator, "_negative_pivots")
    _clear_spectral_caches()
    return calls


def test_dense_propagate_solves_once_per_time(tmp_path, monkeypatch):
    """V is even in x and y, so H splits into four mirror sectors of 23x23,
    23x22, 22x23 and 22x22 nodes. E_0 comes from one k = 1 solve of the
    all-even block, the ground state, for every T. Per new T each sector is
    counted (one block Sturm count) and solved once, for exactly its counted
    states; no values-only solve, and neither the repeated T nor the
    spectrum.csv lookup solves anything again."""
    calls = _count_solves(monkeypatch)
    rows = {}
    for T in (3.0, 1.5, 3.0):
        cfg = write_cfg(
            tmp_path,
            "dense.json",
            {
                "action": UNCOUPLED,
                "grid": {"extents": [6.6, 6.6], "npoints": [45, 45]},
                "T": T,
                "pairs": {"points_per_axis": 3, "span": [-1.5, 1.5]},
            },
        )
        out = tmp_path / f"dense-{T}"
        assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
        rows[T] = len(read_rows(out / "spectrum.csv")[1])
    assert {name: len(sizes) for name, sizes in calls.items()} == {
        "eigvalsh": 0, "eigh_tridiagonal": 0, "_block_eigh": 9, "_negative_pivots": 8
    }
    assert calls["_block_eigh"][0] == 1
    assert calls["_negative_pivots"] == [529, 506, 506, 484] * 2
    assert rows[3.0] == 78 == sum(calls["_block_eigh"][1:5])
    assert rows[1.5] == sum(calls["_block_eigh"][5:]) > 78


def test_tridiagonal_propagate_solves_once(tmp_path, monkeypatch):
    """V = x^4 at T = 0.05 has 108 states in the window on this grid, 54 even
    and 54 odd. The ground state (k = 1) gives E_0; then each mirror sector
    (201 and 200 nodes) is counted and solved once, for exactly its count.
    spectrum.csv lists exactly the window."""
    calls = _count_solves(monkeypatch)
    cfg = write_cfg(
        tmp_path,
        "quartic.json",
        {
            "action": dict(HO, potential={"dim": 1, "terms": [{"exp": [4], "coef": 1.0}]}),
            "grid": {"extents": [7.0], "npoints": [401]},
            "T": 0.05,
            "pairs": [[0.0, 0.35]],
        },
    )
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "quartic")]) == 0
    assert calls == {"eigvalsh": [], "eigh_tridiagonal": [1, 54, 54], "_block_eigh": [], "_negative_pivots": [201, 200]}
    assert len(read_rows(tmp_path / "quartic" / "spectrum.csv")[1]) == 108


@pytest.mark.parametrize(
    "action, grid, solver",
    [(HO, {"extents": [8.0], "npoints": [401]}, "eigh_tridiagonal"),
     (UNCOUPLED, {"extents": [6.6, 6.6], "npoints": [45, 45]}, "_block_eigh")],
    ids=["1d", "2d-dense"],
)
def test_auto_pairs_and_the_window_share_one_ground_state_solve(tmp_path, monkeypatch, action, grid, solver):
    """"auto" pairs are read off the ground state, whose energy also sets
    the Boltzmann window: the lowest state of the all-even block is solved
    once, and every later solve is one block's window."""
    calls = _count_solves(monkeypatch)
    cfg = write_cfg(tmp_path, "auto.json", {"action": action, "grid": grid, "T": 3.0, "pairs": "auto"})
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "auto")]) == 0
    assert calls["eigh_tridiagonal" if solver == "_block_eigh" else "_block_eigh"] == []
    assert calls[solver][0] == 1 and 1 not in calls[solver][1:]
    assert len(calls[solver]) == 1 + len(calls["_negative_pivots"])


def test_analytic_without_e_gr_solves_the_ground_state_once(tmp_path, monkeypatch):
    """The e_gr lookup and the WKB reference share one k = 1 eigensolve."""
    calls = []

    def counted(d, e, k):
        calls.append(k)
        return eigh_tridiagonal(d, e, k)

    eigh_tridiagonal = _lapack.eigh_tridiagonal
    _clear_spectral_caches()
    monkeypatch.setattr(_lapack, "eigh_tridiagonal", counted)
    cfg = write_cfg(tmp_path, "inv.json", {"action": HO, "grid": {"extents": [3.0], "npoints": [241]}})
    assert main(["analytic", "--config", cfg, "--out", str(tmp_path / "inv")]) == 0
    assert calls == [1]


def test_a_non_positive_amplitude_exits_3_naming_its_pair(tmp_path, capsys):
    """At T = 0.2 the ends of the box are so far apart that the spectral sum
    cancels below its rounding: the message names that pair and what to
    change, not a spectral cutoff, which no setting controls."""
    _clear_spectral_caches()
    cfg = write_cfg(tmp_path, "far.json", {
        "action": HO, "grid": {"extents": [8.0], "npoints": [401]}, "T": 0.2,
        "pairs": [[0.0, 1.0], [-8.0, 8.0], [8.0, -8.0]],
    })
    out = tmp_path / "far"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "of the pair [-8.0] -> [8.0] at T=0.2 is not positive" in err
    assert "closer together or a longer T" in err and "cutoff" not in err


def test_truncated_spectrum_exit_3_leaves_no_files(tmp_path, monkeypatch):
    """The weight quoted for a 1-D block comes from bisection on its Sturm
    count, with no call of the block solver."""
    def no_block_solve(*args, **kwargs):
        raise AssertionError("the 2-D block solver reached on a 1-D block")

    _clear_spectral_caches()
    monkeypatch.setattr(propagator, "_block_eigh", no_block_solve)
    cfg = write_cfg(
        tmp_path,
        "short.json",
        {"action": HO, "grid": {"extents": [8.0], "npoints": [17]}, "T": 1e-3, "pairs": [[0.0, 1.0]]},
    )
    out = tmp_path / "short"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


def test_a_block_solve_that_loses_a_state_exits_3_leaving_no_files(tmp_path, monkeypatch):
    """A 2-D block solve whose values reach above the window its count was
    made for has lost a state (the isotropic oscillator's degenerate pairs
    are the ones at risk): propagate refuses it rather than write a table
    short of that state."""
    solve = propagator._block_eigh

    def dropping(H, k):
        vals, vecs = solve(H, k + 1)
        return np.delete(vals, 1), np.delete(vecs, 1, axis=0)

    _clear_spectral_caches()
    monkeypatch.setattr(propagator, "_block_eigh", dropping)
    cfg = write_cfg(tmp_path, "iso.json", {
        "action": UNCOUPLED, "grid": {"extents": [6.3, 6.3], "npoints": [64, 64]}, "T": 3.0, "pairs": "auto"
    })
    out = tmp_path / "iso"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


def test_a_1d_block_whose_count_and_solve_disagree_exits_3_leaving_no_files(tmp_path, monkeypatch):
    """A Sturm count one over the odd block's true count asks ?stebz for a
    state above the window, and the solve returns it: the lost-state check
    that guards 2-D blocks refuses it in 1-D too, naming the block, rather
    than write a table with a state the window does not hold."""
    action, grid, T = _parse_action(HO, "action"), Grid((8.0,), (2001,)), 0.5
    inertia = propagator._inertia
    _clear_spectral_caches()
    # the odd block of 2001 nodes has 1000; the even one has 1001
    monkeypatch.setattr(propagator, "_inertia", lambda H, sigma: inertia(H, sigma) + (H.shape[0] == 1000))
    with pytest.raises(NumericalError, match=r"mirror block \(-1,\) at T=0.5 reached above the window"):
        propagator.decompose_for_time(action, grid, T)
    cfg = write_cfg(tmp_path, "miscount.json", {
        "action": HO, "grid": {"extents": [8.0], "npoints": [2001]}, "T": T, "pairs": "auto"
    })
    out = tmp_path / "miscount"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


def test_overflowing_potential_on_the_grid_exit_2_leaves_no_files(tmp_path):
    """V = x^2 / 2 overflows to inf at the walls of [-1e155, 1e155]: the 1-D
    eigensolve refuses it, with the binding as with scipy's wrapper."""
    for routines in (_lapack._routines, lambda: None):
        _clear_spectral_caches()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_lapack, "_routines", routines)
            cfg = write_cfg(
                tmp_path, "wide.json", {"action": HO, "grid": {"extents": [1e155], "npoints": [101]}, "T": 1.0, "pairs": "auto"}
            )
            out = tmp_path / "wide"
            assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
            assert not out.exists()


def test_overflowing_potential_on_a_2d_grid_exit_2_leaves_no_files(tmp_path):
    """V overflows to inf at the walls of [-1e155, 1e155]^2: the banded
    Cholesky factor of the 2-D Lanczos solver refuses it, with the binding as
    with scipy's wrapper, before any state is solved."""
    for routines in (_lapack._routines, lambda: None):
        _clear_spectral_caches()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_lapack, "_routines", routines)
            cfg = write_cfg(tmp_path, "wide2d.json", {
                "action": UNCOUPLED, "grid": {"extents": [1e155, 1e155], "npoints": [33, 33]}, "T": 1.0, "pairs": "auto"
            })
            out = tmp_path / "wide2d"
            assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
            assert not out.exists()


def test_span_pairs_snap_mirror_symmetrically():
    # on 45 nodes over [-6.6, 6.6], -0.75 and 0.75 lie halfway between nodes
    grid = Grid((6.6, 6.6), (45, 45))
    pairs = _parse_pairs({"points_per_axis": 5, "span": [-1.5, 1.5]}, grid)
    assert len(pairs) == 625
    indices = {grid.index_of(xi) for xi, _ in pairs}
    assert indices == {44 * 45 + 44 - i for i in indices}


@pytest.mark.parametrize("span", [[None, 1.0], [[-1.0, 1.0], ["a", 1.0]], [[-1.0, 1.0], [-1.0, None]]])
def test_non_numeric_span_exit_2_leaves_no_files(tmp_path, span):
    cfg = write_cfg(
        tmp_path,
        "span.json",
        {
            "action": UNCOUPLED,
            "grid": {"extents": [6.6, 6.6], "npoints": [45, 45]},
            "T": 3.0,
            "pairs": {"points_per_axis": 3, "span": span},
        },
    )
    out = tmp_path / "span"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_overflowing_derivative_coefficient_exit_2_leaves_no_files(tmp_path):
    """dV/dy of 1e308 y^4 overflows: the action is refused before any orbit."""
    huge = {
        "mass": 1.0,
        "hbar": 1.0,
        "potential": {
            "dim": 2,
            "terms": [{"exp": [2, 0], "coef": 0.5}, {"exp": [0, 4], "coef": 1e308}],
        },
    }
    cfg = write_cfg(
        tmp_path, "huge.json", {"action": huge, "energy": 2.0, "n_orbits": 2, "max_crossings": 6}
    )
    out = tmp_path / "huge"
    assert main(["poincare", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


# -- cold start: no command loads scipy ---------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _fresh_python(probe: str):
    """The JSON value that the script ``probe`` prints last, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _fresh_run(argv=None, package="scipy") -> tuple:
    """(exit code, loaded modules of ``package``) of a new interpreter that
    imports ``qaction.cli`` and, given ``argv``, runs that command."""
    code, mods = _fresh_python(
        "import json, sys\n"
        "from qaction.cli import main\n"
        f"code = main({argv!r}) if {argv!r} is not None else 0\n"
        f"mods = sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r}))\n"
        "print(json.dumps([code, mods]))\n"
    )
    return code, mods


def test_import_cli_loads_no_scipy():
    assert _fresh_run() == (0, [])


def test_poincare_loads_no_scipy(tmp_path):
    fit_path = tmp_path / "fitres.json"
    fit_path.write_text(json.dumps({"quantum": COUPLED_TRIAL}))
    cfg = write_cfg(
        tmp_path,
        "poinc.json",
        {"action": COUPLED, "energy": 2.0, "n_orbits": 2, "max_crossings": 4, "fit_result": str(fit_path)},
    )
    out = tmp_path / "p"
    assert _fresh_run(["poincare", "--config", cfg, "--out", str(out)]) == (0, [])
    assert (out / "section_quantum.csv").exists()


def test_import_cli_loads_no_numpy():
    assert _fresh_run(None, "numpy") == (0, [])


@pytest.mark.parametrize("fmt", ["csv", "json", "gnuplot"])
def test_poincare_with_a_fit_result_loads_no_numpy(tmp_path, fmt):
    """The section path, orbit thicknesses and every table format included,
    runs on floats: no numpy module is loaded."""
    fit_path = tmp_path / "fitres.json"
    fit_path.write_text(json.dumps({"quantum": COUPLED_TRIAL}))
    cfg = write_cfg(
        tmp_path,
        "poinc.json",
        {"action": COUPLED, "energy": 2.0, "n_orbits": 2, "max_crossings": 96, "fit_result": str(fit_path)},
    )
    out = tmp_path / "p"
    assert _fresh_run(["poincare", "--config", cfg, "--out", str(out), "--format", fmt], "numpy") == (0, [])
    comparison = json.loads((out / "comparison.json").read_text())
    thickness = comparison["thickness_classical"] + comparison["thickness_quantum"]
    assert len(thickness) == 4 and all(t is not None and t > 0.0 for t in thickness)
    suffix = {"csv": ".csv", "json": ".json", "gnuplot": ".dat"}[fmt]
    assert (out / f"section_quantum{suffix}").exists()


def test_propagate_analytic_and_fit_skip_scipy_optimize(tmp_path, prop_cfg):
    """Every command solves through numpy's LAPACK and loads no scipy at all:
    the 1-D ones, and a 2-D propagate and fit."""
    analytic_cfg = write_cfg(
        tmp_path,
        "analytic.json",
        {"action": HO, "grid": {"extents": [6.0], "npoints": [301]}, "quantum": HO_QUANTUM, "e_gr": 0.5},
    )
    ground_cfg = write_cfg(tmp_path, "ground.json", {"action": HO, "grid": {"extents": [3.0], "npoints": [241]}})
    fit_cfg = write_cfg(tmp_path, "fit.json", dict(FIT_BASE, T=2.0, fit_mass=False, n_nodes=129))
    runs = (("propagate", prop_cfg), ("analytic", analytic_cfg), ("analytic", ground_cfg), ("fit", fit_cfg))
    for i, (command, cfg) in enumerate(runs):
        assert _fresh_run([command, "--config", cfg, "--out", str(tmp_path / str(i))]) == (0, [])
    coupled_cfg = write_cfg(tmp_path, "fit2d.json", {
        "classical": COUPLED,
        "grid": {"extents": [3.1, 3.1], "npoints": [32, 32]},
        "T": 2.0,
        "pairs": {"points": [[0.1, 0.1], [0.9, 0.9], [0.9, 0.1], [1.5, -0.7]]},
        "ansatz": [[0, 0], [[2, 0], [0, 2]], [2, 2]],
        "fit_mass": False,
        "n_nodes": 65,
    })
    propagate_cfg = write_cfg(tmp_path, "prop2d.json", {
        "action": COUPLED,
        "grid": {"extents": [6.3, 6.3], "npoints": [64, 64]},
        "T": 3.0,
        "pairs": {"points_per_axis": 3, "span": [-1.0, 1.0]},
    })
    assert _fresh_run(["fit", "--config", coupled_cfg, "--out", str(tmp_path / "fit2d")]) == (0, [])
    assert _fresh_run(["propagate", "--config", propagate_cfg, "--out", str(tmp_path / "prop2d")]) == (0, [])


def test_poincare_loads_no_propagator_fit_or_asymptotics_layer(tmp_path):
    """A section run, even with a fit result, needs only the model, the step
    loops and the section code: no eigensolve, no fit, no LAPACK binding."""
    fit_path = tmp_path / "fitres.json"
    fit_path.write_text(json.dumps({"quantum": COUPLED_TRIAL}))
    cfg = write_cfg(
        tmp_path,
        "poinc.json",
        {"action": COUPLED, "energy": 2.0, "n_orbits": 2, "max_crossings": 4, "fit_result": str(fit_path)},
    )
    code, mods = _fresh_run(["poincare", "--config", cfg, "--out", str(tmp_path / "p")], "qaction")
    assert code == 0 and "qaction.chaos" in mods
    unused = {"qaction.propagator", "qaction.qfit", "qaction.asymptotics", "qaction._lapack"}
    assert unused.isdisjoint(mods), sorted(unused.intersection(mods))


def test_propagate_loads_no_trajectory_fit_or_chaos_layer(tmp_path, prop_cfg):
    """Explicit pairs need only the eigensolve; "auto" pairs may load the fit
    module for ``default_pairs``, and still no section code."""
    code, mods = _fresh_run(["propagate", "--config", prop_cfg, "--out", str(tmp_path / "e")], "qaction")
    assert code == 0 and "qaction.propagator" in mods
    unused = {"qaction.qfit", "qaction.asymptotics", "qaction.trajectory", "qaction.chaos"}
    assert unused.isdisjoint(mods), sorted(unused.intersection(mods))
    auto_cfg = write_cfg(tmp_path, "auto.json", {
        "action": HO, "grid": {"extents": [8.0], "npoints": [401]}, "T": 1.0, "pairs": "auto",
    })
    code, mods = _fresh_run(["propagate", "--config", auto_cfg, "--out", str(tmp_path / "a")], "qaction")
    assert code == 0 and "qaction.qfit" in mods and "qaction.chaos" not in mods


def test_import_qaction_loads_no_layer_and_pins_blas():
    loaded, numpy_loaded, blas = _fresh_python(
        "import json, os, sys\n"
        "import qaction\n"
        "mods = sorted(m for m in sys.modules if m.startswith('qaction.'))\n"
        "blas = [os.environ.get(v) for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')]\n"
        "print(json.dumps([mods, 'numpy' in sys.modules, blas]))\n"
    )
    assert loaded == [] and not numpy_loaded
    assert blas == ["1", "1", "1"]


def test_each_public_name_loads_its_own_module_on_first_use():
    """``from qaction import Grid`` loads the propagator alone, and every name
    of ``__all__`` is the object its defining module holds."""
    first, mismatched = _fresh_python(
        "import json, sys\n"
        "from qaction import Grid\n"
        "first = sorted(m for m in sys.modules if m.startswith('qaction.'))\n"
        "import qaction\n"
        "mismatched = [n for n in qaction.__all__\n"
        "              if getattr(sys.modules[getattr(qaction, n).__module__], n) is not getattr(qaction, n)]\n"
        "print(json.dumps([first, mismatched]))\n"
    )
    assert first == ["qaction.errors", "qaction.model", "qaction.propagator"]
    assert mismatched == []


def test_package_namespace_lists_refuses_and_resolves_submodules():
    """``dir`` covers ``__all__`` before any layer is loaded, an unknown name
    raises AttributeError, and ``qaction.chaos`` imports the submodule."""
    listed, refused, before, resolved = _fresh_python(
        "import json, sys\n"
        "import qaction\n"
        "listed = set(qaction.__all__) <= set(dir(qaction)) and 'chaos' in dir(qaction)\n"
        "try:\n"
        "    qaction.no_such_name\n"
        "    refused = False\n"
        "except AttributeError:\n"
        "    refused = True\n"
        "before = 'qaction.chaos' in sys.modules\n"
        "resolved = qaction.chaos is sys.modules['qaction.chaos']\n"
        "print(json.dumps([listed, refused, before, resolved]))\n"
    )
    assert listed and refused and resolved
    assert not before


def test_analytic_loads_no_numpy_ma(tmp_path):
    """The WKB comparison sorts its nodes without ``np.unique``, whose first
    call imports ``numpy.ma`` (5 ms)."""
    cfg = write_cfg(tmp_path, "analytic.json", dict(ANALYTIC_BASE, quantum=HO_QUANTUM, e_gr=0.5))
    out = tmp_path / "a"
    assert _fresh_run(["analytic", "--config", cfg, "--out", str(out)], "numpy.ma") == (0, [])
    assert (out / "wkb.json").exists()


def _spawn_propagate(cfg: str, out: Path, blas_threads: str, preexec_fn=None) -> int:
    """Exit code of ``propagate`` in a new interpreter started with that BLAS thread count."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env["OPENBLAS_NUM_THREADS"] = blas_threads
    argv = [sys.executable, "-m", "qaction.cli", "propagate", "--config", cfg, "--out", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300, preexec_fn=preexec_fn)
    return done.returncode


@pytest.mark.parametrize(
    "payload",
    [
        {"action": COUPLED, "grid": {"extents": [6.0, 6.0], "npoints": [33, 33]}, "T": 1.0,
         "pairs": {"points_per_axis": 3, "span": [-1.0, 1.0]}},
        {"action": HO, "grid": {"extents": [8.0], "npoints": [12801]}, "T": 0.5,
         "pairs": {"points_per_axis": 11, "span": [-2.0, 2.0]}},
    ],
    ids=["dense-2d", "cancelling-1d"],
)
def test_propagate_output_does_not_depend_on_the_blas_thread_count(tmp_path, payload):
    """Threaded BLAS sums in a thread-dependent order; both configs wrote
    different bits under one and two threads before the package pinned one."""
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    for threads in ("1", "2"):
        assert _spawn_propagate(cfg, tmp_path / threads, threads) == 0
    for name in ("propagator.csv", "spectrum.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_propagate_output_does_not_depend_on_the_usable_cpu_count(tmp_path):
    """On one usable CPU the two 1-D blocks are solved one after the other,
    on more they are solved on two threads; the files are the same bytes."""
    cfg = write_cfg(tmp_path, "cfg.json", {
        "action": HO, "grid": {"extents": [8.0], "npoints": [12801]}, "T": 0.5,
        "pairs": {"points_per_axis": 11, "span": [-2.0, 2.0]},
    })
    one_cpu = min(os.sched_getaffinity(0))
    assert _spawn_propagate(cfg, tmp_path / "one", "1", lambda: os.sched_setaffinity(0, {one_cpu})) == 0
    assert _spawn_propagate(cfg, tmp_path / "all", "1") == 0
    for name in ("propagator.csv", "spectrum.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_a_failing_block_solve_fails_alike_on_one_and_two_cpus(tmp_path, monkeypatch, capsys):
    """The odd block's solve raises: on two CPUs it raises in a worker thread,
    and the caller sees the same exception and exit code as on one, with no
    files written and no thread left running."""
    solve, raised_on_main = _lapack.eigh_tridiagonal, []

    def failing(d, e, k):
        if len(d) == 150:  # the odd block of 301 nodes; the even one has 151
            raised_on_main.append(threading.current_thread() is threading.main_thread())
            raise NumericalError("the odd block failed")
        return solve(d, e, k)

    monkeypatch.setattr(_lapack, "eigh_tridiagonal", failing)
    payload = {"action": HO, "grid": {"extents": [8.0], "npoints": [301]}, "T": 0.5, "pairs": {"points": [0.0]}}
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    action, grid = _parse_action(HO, "action"), Grid((8.0,), (301,))
    outcomes = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        threads = threading.active_count()
        _clear_spectral_caches()
        with pytest.raises(NumericalError) as exc:
            propagator.decompose_for_time(action, grid, 0.5)
        out = tmp_path / str(cpus)
        code = main(["propagate", "--config", cfg, "--out", str(out)])
        outcomes.append((type(exc.value), str(exc.value), code, capsys.readouterr().err, out.exists()))
        assert threading.active_count() == threads
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2:] == (3, "numerical failure: the odd block failed\n", False)
    assert raised_on_main == [True, True, False, False]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_exactly_singular_inertia_factor_exits_3_leaving_no_files(tmp_path, threads):
    """At T = 1e20 the window edge sits on E_0 to rounding. On this grid the
    block Sturm count meets no exact zero there (the sparse LU it replaced
    did, and moved sigma off it; test_propagator pins that move); either way
    the run fails on its amplitudes, which underflow, and writes nothing."""
    cfg = write_cfg(
        tmp_path,
        "ho2d.json",
        {
            "action": UNCOUPLED,
            "grid": {"extents": [6.0, 6.0], "npoints": [31, 31]},
            "T": 1e20,
            "pairs": {"points_per_axis": 3, "span": [-1.0, 1.0]},
        },
    )
    out = tmp_path / "nothing"
    assert _spawn_propagate(cfg, out, threads) == 3
    assert not out.exists()


# -- time and grid input outside the validated range -------------------------

FIT_BASE = {
    "classical": HO,
    "grid": {"extents": [8.0], "npoints": [401]},
    "pairs": {"points": [-1.0, 0.0, 1.0]},
    "ansatz": [[0], [2]],
}
ANALYTIC_BASE = {"action": HO, "grid": {"extents": [6.0], "npoints": [301]}}
PROPAGATE_BASE = {
    "action": HO,
    "grid": {"extents": [8.0], "npoints": [401]},
    "T": 1.0,
    "pairs": {"points": [0.0]},
}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("propagate", dict(PROPAGATE_BASE, T=math.inf)),
        ("propagate", dict(PROPAGATE_BASE, T=math.nan)),
        ("propagate", dict(PROPAGATE_BASE, grid={"extents": [math.inf], "npoints": [401]})),
        ("propagate", dict(PROPAGATE_BASE, grid={"extents": [math.nan], "npoints": [401]})),
        ("propagate", dict(PROPAGATE_BASE, grid={"extents": [8.0], "npoints": [401.5]})),
        ("propagate", dict(PROPAGATE_BASE, grid={"extents": [8.0], "npoints": [math.inf]})),
        ("fit", dict(FIT_BASE, T=math.inf)),
        ("fit", dict(FIT_BASE, T_list=[2.0, math.inf])),
        ("fit", dict(FIT_BASE, T_list=[2.0, 3.0], grid={"extents": [8.0], "npoints": [401.5]})),
        ("analytic", {"action": HO, "grid": {"extents": [math.inf], "npoints": [301]}}),
        ("analytic", {"action": HO, "grid": {"extents": [6.0], "npoints": [301]}, "e_gr": math.inf}),
    ],
)
def test_non_finite_or_fractional_input_exit_2_before_eigensolve(tmp_path, monkeypatch, command, payload):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached with invalid input")

    _clear_spectral_caches()
    monkeypatch.setattr(_lapack, "eigh_tridiagonal", no_solve)
    monkeypatch.setattr(propagator, "_block_eigh", no_solve)
    monkeypatch.setattr(propagator, "_window_count", no_solve)
    cfg = write_cfg(tmp_path, "bad.json", payload)
    out = tmp_path / "bad"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


# -- JSON booleans are not numbers -------------------------------------------

GRID_1001 = {"extents": [8.0], "npoints": [1001]}
POINCARE_BASE = {"action": COUPLED, "energy": 2.0, "n_orbits": 2, "max_crossings": 6}
HO_COEF_TRUE = dict(HO, potential={"dim": 1, "terms": [{"exp": [2], "coef": True}]})


def _ho_with_terms(*terms):
    return dict(HO, potential={"dim": 1, "terms": list(terms)})

SPAN_PAIRS = {"points_per_axis": 3, "span": [-1.0, 1.0]}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("poincare", dict(POINCARE_BASE, n_orbits=True)),
        ("poincare", dict(POINCARE_BASE, plane={"axis": True})),
        ("propagate", dict(PROPAGATE_BASE, T=True)),
        ("fit", dict(FIT_BASE, T=True)),
        ("fit", dict(FIT_BASE, T=2.0, ansatz=[[0], [True]])),
        ("fit", dict(FIT_BASE, T=2.0, n_nodes=True)),
        ("analytic", {"action": HO, "grid": {"extents": [6.0], "npoints": [301]}, "e_gr": True}),
        ("propagate", dict(PROPAGATE_BASE, pairs=dict(SPAN_PAIRS, max_separation=True))),
        # nor are lists and objects
        ("propagate", dict(PROPAGATE_BASE, pairs=dict(SPAN_PAIRS, max_separation=[1]))),
        ("propagate", dict(PROPAGATE_BASE, pairs=dict(SPAN_PAIRS, max_separation={"a": 1}))),
        ("propagate", dict(PROPAGATE_BASE, grid={"extents": [True], "npoints": [401]})),
        ("propagate", dict(PROPAGATE_BASE, action=dict(HO, mass=True))),
        ("propagate", dict(PROPAGATE_BASE, action=HO_COEF_TRUE)),
        ("fit", dict(FIT_BASE, T=2.0, classical=dict(HO, mass=True))),
        ("analytic", {"action": HO_COEF_TRUE, "grid": {"extents": [6.0], "npoints": [301]}}),
        # exponents, dim and point counts are integers, not floats or bools
        ("propagate", dict(PROPAGATE_BASE, action=_ho_with_terms({"exp": [2.5], "coef": 0.5}))),
        ("propagate", dict(PROPAGATE_BASE, action=_ho_with_terms(
            {"exp": [2], "coef": 0.5}, {"exp": [True], "coef": 0.5}))),
        ("propagate", dict(PROPAGATE_BASE, action=dict(HO, potential=dict(HO["potential"], dim=1.5)))),
        ("propagate", dict(PROPAGATE_BASE, grid={"extents": [8.0], "npoints": [401.0]})),
        # a JSON integer too large for a float
        ("propagate", dict(PROPAGATE_BASE, action=dict(HO, mass=10**400))),
        ("poincare", dict(POINCARE_BASE, energy=10**400)),
        # a fit_result's action is read under the same rule
        ("poincare", dict(POINCARE_BASE, fit_result={"quantum": dict(COUPLED_TRIAL, mass=True)})),
        ("poincare", dict(POINCARE_BASE, fit_result={"quantum": dict(COUPLED_TRIAL, potential={
            "dim": 2, "terms": [{"exp": [2, 0], "coef": "0.5"}, {"exp": [0, 2], "coef": 0.5}]})})),
        # fewer mesh nodes than the trajectory solver takes, as a count or a pair
        ("fit", dict(FIT_BASE, T=2.0, n_nodes=10)),
        ("fit", dict(FIT_BASE, T=2.0, n_nodes=[16, 31])),
    ],
)
def test_boolean_for_a_number_exits_2_leaving_no_files(tmp_path, monkeypatch, command, payload):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached with invalid input")

    _clear_spectral_caches()
    monkeypatch.setattr(_lapack, "eigh_tridiagonal", no_solve)
    monkeypatch.setattr(propagator, "_block_eigh", no_solve)
    monkeypatch.setattr(propagator, "_window_count", no_solve)
    if "fit_result" in payload:
        payload = dict(payload, fit_result=write_cfg(tmp_path, "fit.json", payload["fit_result"]))
    cfg = write_cfg(tmp_path, "bool.json", payload)
    out = tmp_path / "bool"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_subnormal_mass_exits_2_leaving_no_files(tmp_path):
    """1/m overflows for m = 1e-310; the generated step loop would hold it as a literal."""
    cfg = write_cfg(tmp_path, "tiny.json", dict(POINCARE_BASE, action=dict(UNCOUPLED, mass=1e-310)))
    out = tmp_path / "tiny"
    assert main(["poincare", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [dict(POINCARE_BASE, boxes=[8, 2**63]), dict(POINCARE_BASE, start_index=10**400)],
    ids=["boxes", "start_index"],
)
def test_poincare_value_outside_its_range_exits_2_leaving_no_files(tmp_path, payload):
    cfg = write_cfg(tmp_path, "range.json", payload)
    out = tmp_path / "range"
    assert main(["poincare", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        dict(POINCARE_BASE, dt=1e-320),
        dict(POINCARE_BASE, dt=9.9e-7),
        dict(POINCARE_BASE, n_orbits=10**5),
        dict(POINCARE_BASE, n_orbits=4097),
    ],
    ids=["dt-1e-320", "dt-below-1e-6", "n_orbits-1e5", "n_orbits-4097"],
)
def test_poincare_dt_or_orbit_count_outside_its_range_exits_2_before_any_step(tmp_path, monkeypatch, payload):
    """A step of 1e-320 once stepped past a 20 s alarm, and so did 10^5 orbits."""

    def no_step_loop(*args):
        raise AssertionError("a refused config reached the step loop")

    monkeypatch.setattr(chaos, "_step_loop", no_step_loop)
    cfg = write_cfg(tmp_path, "range.json", payload)
    out = tmp_path / "range"
    assert main(["poincare", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "grid",
    [
        {"extents": [8.0], "npoints": [10**400]},
        {"extents": [8.0], "npoints": [2**63]},
        {"extents": [8.0, 8.0], "npoints": [256, 257]},
    ],
    ids=["npoints-1e400", "npoints-2e63", "total"],
)
def test_grid_beyond_its_node_bound_exits_2_leaving_no_files(tmp_path, monkeypatch, grid):
    """A grid holds at most 2^16 nodes, per axis and in total; 10^400 and
    2^63 points once crashed with OverflowError and IndexError."""
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached with an oversized grid")

    _clear_spectral_caches()
    monkeypatch.setattr(propagator, "_window_count", no_solve)
    dim = len(grid["npoints"])
    payload = dict(PROPAGATE_BASE, grid=grid, pairs={"points": [0.0]} if dim == 1 else [[[0.0, 0.0], [0.0, 0.0]]])
    cfg = write_cfg(tmp_path, "big.json", dict(payload, action=HO if dim == 1 else UNCOUPLED))
    out = tmp_path / "big"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("propagate", dict(PROPAGATE_BASE, action=_ho_with_terms({"exp": [2], "coef": 0.5}, {"exp": [10**400], "coef": 1.0}))),
        ("propagate", dict(PROPAGATE_BASE, action=_ho_with_terms({"exp": [2], "coef": 0.5}, {"exp": [100000], "coef": 1.0}))),
        ("fit", dict(FIT_BASE, T=2.0, ansatz=[[0], [2], [MAX_DEGREE + 2]])),
        ("propagate", dict(PROPAGATE_BASE, pairs={"points_per_axis": 2**63, "span": [-1.0, 1.0]})),
        ("propagate", dict(PROPAGATE_BASE, grid=GRID_1001, pairs={"points_per_axis": 257, "span": [-8.0, 8.0]})),
        ("propagate", dict(PROPAGATE_BASE, pairs={"points": [0.0] * 257})),
        ("propagate", dict(PROPAGATE_BASE, pairs=[[0.0, 0.0]] * (MAX_PAIRS + 1))),
        ("propagate", dict(PROPAGATE_BASE, action=UNCOUPLED, grid={"extents": [6.3, 6.3], "npoints": [64, 64]},
                           pairs={"points_per_axis": 17, "span": [-6.0, 6.0]})),
        ("fit", dict(FIT_BASE, T=2.0, n_nodes=2**40)),
        ("fit", dict(FIT_BASE, T=2.0, n_nodes=[2**16, 2**17 - 1])),
        ("analytic", dict(ANALYTIC_BASE, hydrogen_l_max=MAX_L + 1)),
        ("analytic", dict(ANALYTIC_BASE, hydrogen_l_max=2**63)),
        ("analytic", dict(ANALYTIC_BASE, hydrogen_l_max=10**400)),
    ],
    ids=[
        "exponent-1e400", "exponent-100000", "ansatz-degree", "points_per_axis-2e63",
        "pairs-257-per-axis", "pairs-257-points", "pairs-list-65537", "pairs-2d-17-per-axis",
        "n_nodes-2e40", "n_nodes-pair-beyond-2e16", "l_max-1001", "l_max-2e63", "l_max-1e400",
    ],
)
def test_value_beyond_its_bound_exits_2_before_eigensolve(tmp_path, monkeypatch, command, payload):
    """A term's degree is bounded in the action and in the ansatz, a span's
    point count by the grid's node bound, and the pair count of every pairs
    form by MAX_PAIRS, a fit's node count by MAX_NODES and the hydrogen rows
    by MAX_L; an exponent of 10^400 once crashed with OverflowError, one of
    100000 with RecursionError in the generated kernel, 2^63 points per axis
    with IndexError, 2^40 fit nodes with _ArrayMemoryError, and 2^63 hydrogen
    rows ran past 20 s after the ground-state solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached with a value beyond its bound")

    _clear_spectral_caches()
    monkeypatch.setattr(propagator, "_window_count", no_solve)
    monkeypatch.setattr(propagator, "spectral_decompose", no_solve)
    cfg = write_cfg(tmp_path, "bound.json", payload)
    out = tmp_path / "bound"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_pair_count_up_to_its_bound_is_built_without_an_eigensolve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached while building pairs")

    monkeypatch.setattr(propagator, "_window_count", no_solve)
    monkeypatch.setattr(propagator, "spectral_decompose", no_solve)
    pairs = _parse_pairs({"points_per_axis": 256, "span": [-8.0, 8.0]}, Grid((8.0,), (1001,)))
    assert len(pairs) == MAX_PAIRS == 65536


def test_a_million_pairs_exit_2_at_once(tmp_path):
    """1001 points per axis on 1001 nodes asked for 1,002,001 pairs, which
    took 47 s and 463 MB to fail with exit 3; the count is refused first."""
    cfg = write_cfg(tmp_path, "million.json", dict(
        PROPAGATE_BASE, grid=GRID_1001, pairs={"points_per_axis": 1001, "span": [-8.0, 8.0]},
    ))
    out = tmp_path / "million"
    t0 = time.perf_counter()
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 2.0
    assert not out.exists()


def test_poincare_leaves_no_file_in_the_temporary_directory(tmp_path, monkeypatch):
    """The compiled step loop is built in a temporary directory, removed
    again; on an empty cache, the run leaves only that library there."""
    trajectory._STEP_LOOPS.clear()
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cfg = write_cfg(tmp_path, "poinc.json", POINCARE_BASE)
    assert main(["poincare", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    assert list(scratch.iterdir()) == []
    kept = [p.name for p in (tmp_path / "cache").glob("qaction/*")]
    assert len(kept) == (1 if shutil.which("cc") or shutil.which("gcc") else 0)
    assert all(name.startswith("loops-") and name.endswith(".so") for name in kept)
    assert sorted(p.name for p in (tmp_path / "p").iterdir()) == ["comparison.json", "section_classical.csv"]


def test_poincare_with_a_fit_result_calls_the_compiler_once_per_loop(tmp_path, monkeypatch):
    """The classical and the quantum step loops are built one compiler call
    each, and each runs compiled; the same loops built again, on a cache
    that keeps both builds, call no compiler."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    builds = []
    popen = subprocess.Popen

    def counted(argv, **kwargs):
        builds.append(argv)
        return popen(argv, **kwargs)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(subprocess, "Popen", counted)
    fit_path = tmp_path / "fitres.json"
    fit_path.write_text(json.dumps({"quantum": COUPLED_TRIAL}))
    cfg = write_cfg(tmp_path, "poinc.json", dict(POINCARE_BASE, fit_result=str(fit_path)))
    calls = []
    for run in ("p", "again"):
        trajectory._STEP_LOOPS.clear()
        assert main(["poincare", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        calls.append(len(builds) - sum(calls))
        backends = [loop.backend for loop in trajectory._STEP_LOOPS.values()]
        assert backends == (["c", "c"] if compiler else ["python", "python"])
    assert calls == ([2, 0] if compiler else [0, 0])


@pytest.mark.skipif(shutil.which("cc") is None and shutil.which("gcc") is None, reason="no C compiler on PATH")
def test_a_fit_run_after_a_classical_run_builds_only_the_quantum_loop(tmp_path, monkeypatch):
    """A poincare run with a fit, on the cache of a classical-only run of
    the same action, compiles one source holding one function, and loads
    the classical library that the first run kept, unchanged."""
    import ctypes

    sources, loaded = [], []
    popen, cdll = subprocess.Popen, ctypes.CDLL

    def counted(argv, **kwargs):
        with open(argv[-1]) as fh:
            sources.append(fh.read())
        return popen(argv, **kwargs)

    def recorded(path, *args, **kwargs):
        loaded.append(path)
        return cdll(path, *args, **kwargs)

    cache = tmp_path / "cache" / "qaction"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(subprocess, "Popen", counted)
    monkeypatch.setattr(ctypes, "CDLL", recorded)
    trajectory._STEP_LOOPS.clear()
    cfg = write_cfg(tmp_path, "classical.json", POINCARE_BASE)
    assert main(["poincare", "--config", cfg, "--out", str(tmp_path / "classical")]) == 0
    (classical,) = cache.iterdir()
    stamp = classical.stat().st_mtime_ns
    fit_path = tmp_path / "fitres.json"
    fit_path.write_text(json.dumps({"quantum": COUPLED_TRIAL}))
    cfg = write_cfg(tmp_path, "fit.json", dict(POINCARE_BASE, fit_result=str(fit_path)))
    trajectory._STEP_LOOPS.clear()
    del sources[:], loaded[:]
    assert main(["poincare", "--config", cfg, "--out", str(tmp_path / "fit")]) == 0
    assert len(sources) == 1 and sources[0].count("long long loop") == 1
    assert loaded[0] == str(classical) and classical.stat().st_mtime_ns == stamp
    assert len(list(cache.iterdir())) == 2


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_a_second_poincare_process_loads_the_kept_loops_and_writes_the_same_bytes(tmp_path):
    """Two runs of one config on one cache write byte-identical outputs, and
    only the first calls the compiler (a ``cc`` on PATH logs each call)."""
    bin_dir, log = tmp_path / "bin", tmp_path / "cc.log"
    bin_dir.mkdir()
    wrapper = bin_dir / "cc"
    wrapper.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\nexec "{shutil.which("cc")}" "$@"\n')
    wrapper.chmod(0o755)
    fit_path = tmp_path / "fitres.json"
    fit_path.write_text(json.dumps({"quantum": COUPLED_TRIAL}))
    cfg = write_cfg(tmp_path, "poinc.json", dict(POINCARE_BASE, fit_result=str(fit_path)))
    env = dict(
        os.environ,
        PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
        PATH=str(bin_dir) + os.pathsep + os.environ["PATH"],
        XDG_CACHE_HOME=str(tmp_path / "cache"),
    )
    outputs, calls = [], []
    for run in ("first", "second"):
        argv = [sys.executable, "-m", "qaction.cli", "poincare", "--config", cfg, "--out", str(tmp_path / run)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
        calls.append(len(log.read_text().splitlines()))
    assert calls == [2, 2]
    assert sorted(outputs[0]) == ["comparison.json", "section_classical.csv", "section_quantum.csv"]
    assert outputs[0] == outputs[1]
    assert [p.name.startswith("loops-") for p in (tmp_path / "cache" / "qaction").iterdir()] == [True, True]


def test_boolean_still_accepted_where_a_flag_is_expected(tmp_path):
    cfg = write_cfg(tmp_path, "flag.json", dict(FIT_BASE, T=2.0, fit_mass=False, n_nodes=65))
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0


# -- the benchmark's traced path ---------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_tracer_runs_a_command_and_counts_every_method(tmp_path):
    """``bench/tracer.py`` wraps PolynomialPotential methods by name; a method
    it counts must exist, or the benchmark's traced run crashes. The spans
    that ``bench/run.py`` maps to per-layer metrics must still be recorded,
    or a renamed or rerouted call would read 0 there."""
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    cfg = write_cfg(
        tmp_path,
        "analytic.json",
        {"action": HO, "grid": {"extents": [6.0], "npoints": [301]}, "quantum": HO_QUANTUM, "e_gr": 0.5},
    )
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(trace), "analytic",
         "--config", cfg, "--out", str(tmp_path / "out"), "--workers", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(trace.read_text())
    assert record["exit"] == 0
    assert set(tracer.COUNTED_METHODS.values()) <= set(record["counters"])
    assert record["counters"]["model.point_eval_calls"] > 0
    spans = {}
    for name, _, _, _, _, attrs in record["spans"]:
        spans.setdefault(name, []).append(attrs)
    assert spans["spectral_decompose"] == [{"k": 1, "dim": 1, "size": 301}]
    assert len(spans["discretize_hamiltonian"]) == 2  # the even and odd blocks
    assert len(spans["wkb_compare"]) == 1
    assert len(spans["ground_state_from_quantum_action"]) == 1


def test_bench_tracer_sees_the_classical_only_summary_under_main(tmp_path):
    """``bench/run.py`` counts ``section_occupancy`` and ``orbit_thickness``
    toward its comparison time only when their parent span is ``main``; the
    classical-only summary must call them directly from the command."""
    cfg = write_cfg(tmp_path, "poinc.json", POINCARE_BASE)
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(trace), "poincare",
         "--config", cfg, "--out", str(tmp_path / "out"), "--workers", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(trace.read_text())["spans"]
    parents = {name: spans[parent][0] for name, _, _, _, parent, _ in spans if parent is not None}
    assert parents["section_occupancy"] == parents["orbit_thickness"] == "main"


def test_fit_from_a_start_whose_small_step_meets_a_penalty_exits_0(tmp_path):
    """Every step from x^2 coefficient 5 drives the x^4 coefficient below 0;
    the loop stops at its start rather than take the step onto the penalty,
    and reports that stop as not converged, with a warning that names it."""
    for fit_mass in (True, False):
        cfg = write_cfg(tmp_path, "fit.json", {
            "classical": HO,
            "grid": {"extents": [8.0], "npoints": [801]},
            "T": 2.0,
            "pairs": {"points": [-1.0, -0.5, 0.0, 0.5, 1.0]},
            "ansatz": [[0], [2], [4]],
            "fit_mass": fit_mass,
            "n_nodes": 129,
            "initial": _ho_with_terms({"exp": [2], "coef": 5.0}),
        })
        out = tmp_path / f"fit-{fit_mass}"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "fit.json").read_text())
        assert not result["converged"] and result["failed_pairs"] == []
        assert result["gradient_norm"] > 1.0 and result["rms_residual"] == pytest.approx(0.6426, rel=1e-3)
        assert result["warning"] == "fit stopped at the confinement boundary before meeting its gradient or step test"


def test_non_confining_initial_exits_2_before_eigensolve(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached with a non-confining start")

    _clear_spectral_caches()
    monkeypatch.setattr(propagator, "_window_count", no_solve)
    initial = _ho_with_terms({"exp": [2], "coef": -0.5}, {"exp": [4], "coef": -1.0})
    cfg = write_cfg(tmp_path, "fit.json", dict(FIT_BASE, T=2.0, ansatz=[[0], [2], [4]], initial=initial))
    out = tmp_path / "fit"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("extents", [[1e200], [1e-300], [1e-320], [1.0, 1e200]])
def test_grid_spacing_out_of_range_exits_2_leaving_no_files(tmp_path, capsys, extents):
    """1e200 exited 1 (OverflowError), 1e-300 exited 1 (ZeroDivisionError),
    and 1e-320 exited 2 blaming an off-node point."""
    dim = len(extents)
    payload = dict(
        PROPAGATE_BASE,
        action=HO if dim == 1 else UNCOUPLED,
        grid={"extents": extents, "npoints": [101] * dim},
        pairs=[[[0.0] * dim, [0.0] * dim]],
    )
    out = tmp_path / "spacing"
    assert main(["propagate", "--config", write_cfg(tmp_path, "spacing.json", payload), "--out", str(out)]) == 2
    assert not out.exists()
    assert "grid spacing" in capsys.readouterr().err


def test_a_121_pair_propagate_builds_the_grid_axes_once(tmp_path, monkeypatch):
    """``Grid.index_of`` built every axis again for each point: 255 builds
    of 1601 nodes here. The axes are built once, with the grid."""
    import numpy as np

    linspace, built = np.linspace, []

    def counted(start, stop, num=50, **kwargs):
        built.append((start, stop, num))
        return linspace(start, stop, num, **kwargs)

    _clear_spectral_caches()
    monkeypatch.setattr(np, "linspace", counted)
    payload = dict(PROPAGATE_BASE, grid={"extents": [8.0], "npoints": [1601]}, pairs={"points_per_axis": 11, "span": [-2.0, 2.0]})
    out = tmp_path / "long"
    assert main(["propagate", "--config", write_cfg(tmp_path, "long.json", payload), "--out", str(out)]) == 0
    header, rows = read_rows(out / "propagator.csv")
    assert len(rows) == 121
    assert built.count((-8.0, 8.0, 1601)) == 1


@pytest.mark.parametrize("extents, npoints", [([8.0], [33]), ([8.0, 8.0], [33, 33])])
def test_max_separation_keeps_exactly_the_pairs_within_it(extents, npoints):
    grid = Grid(tuple(extents), tuple(npoints))  # nodes every 0.5
    span = {"points_per_axis": 5, "span": [-1.0, 1.0]}
    every = _parse_pairs(span, grid)
    for sep in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
        kept = _parse_pairs(dict(span, max_separation=sep), grid)
        assert list(kept) == [p for p in every if max(abs(a - b) for a, b in zip(*p)) <= sep]
    # on the line, 5 points 0.5 apart: 5 pairs at distance 0 and 8 at 0.5
    if len(extents) == 1:
        assert len(_parse_pairs(dict(span, max_separation=0.5), grid)) == 13


def test_negative_max_separation_exits_2_leaving_no_files(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached with a negative max_separation")

    _clear_spectral_caches()
    monkeypatch.setattr(propagator, "_window_count", no_solve)
    payload = dict(PROPAGATE_BASE, pairs={"points_per_axis": 5, "span": [-1.0, 1.0], "max_separation": -0.5})
    out = tmp_path / "sep"
    assert main(["propagate", "--config", write_cfg(tmp_path, "sep.json", payload), "--out", str(out)]) == 2
    assert not out.exists()
