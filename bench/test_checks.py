"""Tests of the benchmark's correctness checks and of their references.

    python3 -m pytest bench/test_checks.py

Each check must pass an output that sits just inside its tolerance and
reject one perturbed just beyond it. The outputs here are built from the
references themselves, so these tests need neither ``qaction`` nor a run of
the benchmark.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

import checks
import workloads


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_json(path, payload):
    path.write_text(json.dumps(payload))


def failure(check, *args):
    """The check's message, or None when it passes."""
    try:
        check(*args)
    except checks.CheckError as exc:
        return str(exc)
    return None


def rejects(check, *args) -> bool:
    return failure(check, *args) is not None


# -- the independent references --------------------------------------------------


def test_mehler_kernel_value_and_semigroup():
    assert checks.mehler_kernel(0.0, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * math.sinh(1.0)), rel=1e-15)
    assert checks.mehler_kernel(0.3, -1.1, 0.7) == checks.mehler_kernel(-1.1, 0.3, 0.7)
    z = np.linspace(-12.0, 12.0, 24001)
    inner = [checks.mehler_kernel(0.4, v, 0.6) * checks.mehler_kernel(v, -0.9, 1.1) for v in z]
    assert np.trapezoid(inner, z) == pytest.approx(checks.mehler_kernel(0.4, -0.9, 1.7), rel=1e-8)


def test_dirichlet_eigensystem_free_particle_is_exact():
    n, L = 45, 6.6
    vals, vecs = checks.dirichlet_eigensystem(np.zeros(n), L, mass=2.0)
    h = 2.0 * L / (n - 1)
    k = np.arange(1, n + 1)
    exact = (1.0 / (2.0 * 2.0 * h * h)) * 2.0 * (1.0 - np.cos(k * np.pi / (n + 1)))
    assert np.max(np.abs(vals - exact)) < 1e-12
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    assert np.max(np.abs((vecs * vecs) @ w - 1.0)) < 1e-12


def test_dirichlet_eigensystem_oscillator_levels():
    x = np.linspace(-8.0, 8.0, 1601)
    vals, _ = checks.dirichlet_eigensystem(0.5 * x * x, 8.0)
    assert np.max(np.abs(vals[:3] - (np.arange(3) + 0.5))) < 5e-5


def test_next_crossing_rotates_by_the_return_time():
    # V = x^2/2 + y^2: the plane returns after 2 pi / sqrt(2), over which
    # (x, p_x) turns by that angle on its circle
    action = workloads.make_action(2, {(2, 0): 0.5, (0, 2): 1.0})
    x, px = 0.7, -0.4
    angle = 2.0 * math.pi / math.sqrt(2.0)
    want = (x * math.cos(angle) + px * math.sin(angle), px * math.cos(angle) - x * math.sin(angle))
    got = checks.next_crossing(action, x, px, e_abs=2.0)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10


# -- pipeline-1d checks ------------------------------------------------------------


def ho_propagate(tmp_path, factor_of_last):
    cfg = workloads.pipeline_1d()[0].config
    rows = []
    for xi in (-2.0, 0.0, 2.0):
        for xf in (-2.0, 0.4, 2.0):
            rows.append([xi, xf, cfg["T"], checks.mehler_kernel(xi, xf, cfg["T"])])
    rows[-1][-1] *= factor_of_last
    write_csv(tmp_path / "propagator.csv", ["xi", "xf", "T", "G"], rows)
    return cfg


def test_mehler_check_tolerance(tmp_path):
    assert not rejects(checks.check_mehler, ho_propagate(tmp_path, 1.0 + 0.9e-4), tmp_path)
    assert rejects(checks.check_mehler, ho_propagate(tmp_path, 1.0 + 1.1e-4), tmp_path)
    assert rejects(checks.check_mehler, ho_propagate(tmp_path, 1.0 - 1.1e-4), tmp_path)


def quartic_outputs(tmp_path, e0, mirror_factor):
    write_csv(tmp_path / "spectrum.csv", ["n", "E"], [[0, e0], [1, 2.39]])
    rows = [[-0.3, -0.3, 0.05, 1.7], [-0.3, 0.3, 0.05, 0.2], [0.3, -0.3, 0.05, 0.2 * mirror_factor]]
    write_csv(tmp_path / "propagator.csv", ["xi", "xf", "T", "G"], rows)
    return {}


def test_quartic_spectrum_and_symmetry_checks(tmp_path):
    e0 = workloads.QUARTIC_E0
    assert not rejects(checks.check_quartic_spectrum, quartic_outputs(tmp_path, e0 + 0.9e-6, 1.0), tmp_path)
    assert rejects(checks.check_quartic_spectrum, quartic_outputs(tmp_path, e0 + 1.1e-6, 1.0), tmp_path)
    assert rejects(checks.check_quartic_spectrum, quartic_outputs(tmp_path, e0 - 1.1e-6, 1.0), tmp_path)
    assert rejects(checks.check_quartic_spectrum, quartic_outputs(tmp_path, e0, 1.0 + 2e-12), tmp_path)


def fit_output(tmp_path, dim_terms, mass=1.0, **extra):
    payload = {
        "quantum": workloads.make_action(len(next(iter(dim_terms))), dim_terms, mass=mass),
        "converged": True,
        "failed_pairs": [],
        "iterations": 1,
    }
    payload.update(extra)
    write_json(tmp_path / "fit.json", payload)
    return {}


@pytest.mark.parametrize("key", ["m", "v2", "v0", "potential_minimum"])
def test_ho_fit_check_each_parameter(tmp_path, key):
    def fit(delta):
        vals = {"m": 1.0, "v2": 0.5, "v0": 0.5, "potential_minimum": 0.5}
        vals[key] += delta
        return fit_output(tmp_path, {(0,): vals["v0"], (2,): vals["v2"]}, mass=vals["m"],
                          potential_minimum=vals["potential_minimum"])

    assert not rejects(checks.check_ho_fit, fit(0.9e-3), tmp_path)
    assert rejects(checks.check_ho_fit, fit(1.1e-3), tmp_path)
    assert rejects(checks.check_ho_fit, fit(-1.1e-3), tmp_path)


def test_soft_quartic_fit_check(tmp_path):
    e0 = workloads.SOFT_QUARTIC_E0
    assert e0 == pytest.approx(0.420805, abs=1e-6)
    for delta, bad in ((0.9e-3, False), (1.1e-3, True), (-1.1e-3, True)):
        cfg = fit_output(tmp_path, {(4,): 0.25}, potential_minimum=e0 + delta)
        assert rejects(checks.check_soft_quartic_fit, cfg, tmp_path) == bad


def analytic_outputs(tmp_path, psi_delta=0.0, d_quantum=0.01, hydrogen_ulps=0):
    x = np.linspace(-3.0, 3.0, 481)
    h = x[1] - x[0]
    w = np.full(len(x), h)
    w[0] = w[-1] = 0.5 * h
    psi = np.exp(-0.5 * x * x)
    psi /= math.sqrt(float(np.dot(w, psi * psi)))
    psi[240] += psi_delta
    write_csv(tmp_path / "ground_state.csv", ["x", "psi"], zip(x.tolist(), psi.tolist()))
    write_json(tmp_path / "wkb.json", {"distance_quantum": d_quantum, "distance_classical": 0.2})
    rows = [[l, l * l / 2.0, l / (l + 1.0), -1.0 / (2.0 * (l + 1) ** 2)] for l in range(1, 11)]
    for _ in range(hydrogen_ulps):
        rows[6][2] = float(np.nextafter(rows[6][2], 1.0))
    write_csv(tmp_path / "hydrogen.csv", ["l", "mu", "nu", "E_l"], rows)
    return workloads.pipeline_1d()[5].config


def test_ho_analytic_check(tmp_path):
    assert not rejects(checks.check_ho_analytic, analytic_outputs(tmp_path, psi_delta=0.9e-9), tmp_path)
    assert rejects(checks.check_ho_analytic, analytic_outputs(tmp_path, psi_delta=1.1e-9), tmp_path)
    assert rejects(checks.check_ho_analytic, analytic_outputs(tmp_path, d_quantum=0.2), tmp_path)
    assert rejects(checks.check_ho_analytic, analytic_outputs(tmp_path, hydrogen_ulps=1), tmp_path)


def test_failed_command_must_leave_no_output(tmp_path):
    assert not rejects(checks.check_no_output, {}, tmp_path / "absent")
    (tmp_path / "partial.csv").write_text("x\n")
    assert rejects(checks.check_no_output, {}, tmp_path)


# -- coupled-2d checks -------------------------------------------------------------


def separable_outputs(tmp_path, amp_factor=1.0, spectrum_delta=0.0):
    cfg = workloads.coupled_2d()[0].config
    L, n = cfg["grid"]["extents"][0], cfg["grid"]["npoints"][0]
    nodes = np.linspace(-L, L, n)
    vals, vecs = checks.dirichlet_eigensystem(0.5 * nodes**2, L)

    def amp(a, b):
        i, f = int(np.argmin(np.abs(nodes - a))), int(np.argmin(np.abs(nodes - b)))
        return float(np.sum(vecs[:, i] * vecs[:, f] * np.exp(-vals * cfg["T"])))

    pts = [float(nodes[i]) for i in (17, 22, 27)]
    rows = [[xi, yi, xf, yf, cfg["T"], amp(xi, xf) * amp(yi, yf)]
            for xi in pts for yi in pts for xf in pts for yf in pts]
    rows[-1][-1] *= amp_factor
    write_csv(tmp_path / "propagator.csv", ["xi", "yi", "xf", "yf", "T", "G"], rows)
    sums = np.sort(np.add.outer(vals, vals).ravel())[:128]
    sums[-1] += spectrum_delta
    write_csv(tmp_path / "spectrum.csv", ["n", "E"], list(enumerate(sums.tolist())))
    return cfg


def test_separable_propagator_check(tmp_path):
    assert not rejects(checks.check_separable_propagator, separable_outputs(tmp_path, 1.0 + 0.5e-10), tmp_path)
    assert rejects(checks.check_separable_propagator, separable_outputs(tmp_path, 1.0 + 1.1e-10), tmp_path)
    assert rejects(checks.check_separable_propagator, separable_outputs(tmp_path, spectrum_delta=1.1e-10), tmp_path)


def test_coupled_fit_check(tmp_path):
    def fit(v2x=0.5, v2y=0.5, v22=0.049, **extra):
        return fit_output(tmp_path, {(0, 0): 1.0, (2, 0): v2x, (0, 2): v2y, (2, 2): v22}, **extra)

    assert not rejects(checks.check_coupled_fit, fit(), tmp_path)
    assert rejects(checks.check_coupled_fit, fit(v22=0.05), tmp_path)
    assert rejects(checks.check_coupled_fit, fit(v2y=float(np.nextafter(0.5, 1.0))), tmp_path)
    assert rejects(checks.check_coupled_fit, fit(converged=False), tmp_path)
    assert rejects(checks.check_coupled_fit, fit(failed_pairs=[3]), tmp_path)


# -- sections-2d checks ------------------------------------------------------------


def reference_orbit(action, x, px, e_abs, crossings):
    pts = [(x, px)]
    while len(pts) < crossings:
        pts.append(checks.next_crossing(action, *pts[-1], e_abs))
    return np.array(pts)


COUPLED_SECTION = {"n_orbits": 1, "max_crossings": 3, "energy": 2.0}


def test_section_check_accepts_reference_crossings():
    orbit = reference_orbit(workloads.COUPLED, 0.6, 0.3, 2.0, 3)
    checks.check_section_orbits([orbit], COUPLED_SECTION, workloads.COUPLED, seed=1, ellipse=False)


def test_section_check_rejects_a_displaced_crossing():
    orbit = reference_orbit(workloads.COUPLED, 0.6, 0.3, 2.0, 3)
    orbit[1, 0] += 1.1e-8
    msg = failure(checks.check_section_orbits, [orbit], COUPLED_SECTION, workloads.COUPLED, 1, False)
    assert msg is not None and "DOP853" in msg
    orbit[1, 0] -= 1.1e-8 - 0.9e-8
    assert not rejects(checks.check_section_orbits, [orbit], COUPLED_SECTION, workloads.COUPLED, 1, False)


def test_section_check_counts_points():
    orbit = reference_orbit(workloads.COUPLED, 0.6, 0.3, 2.0, 3)
    assert rejects(checks.check_section_orbits, [orbit[:2]], COUPLED_SECTION, workloads.COUPLED, 1, False)


def test_section_check_uncoupled_energy():
    # equal frequencies: every crossing returns to the first
    orbit = np.array([[0.5, 0.4]] * 3)
    orbit[2, 1] += 0.9e-9 / 0.4  # p_x^2/2 moves by just under 1e-9
    checks.check_section_orbits([orbit], COUPLED_SECTION, workloads.UNCOUPLED, 1, True)
    orbit[2, 1] += 0.2e-9 / 0.4  # and now by just over
    msg = failure(checks.check_section_orbits, [orbit], COUPLED_SECTION, workloads.UNCOUPLED, 1, True)
    assert msg is not None and "varies" in msg
