"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single PASS/FAIL line with
the measured numbers (run with -s to see them as they happen). Budgets are
asserted alongside the numerical targets, so a pathologically slow
environment fails loudly instead of silently degrading coverage.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qaction import (
    ActionSpec,
    Grid,
    PhaseState,
    PolynomialPotential,
    ScaleTransform,
    SectionSpec,
    apply_scale_transform,
    euclidean_propagate,
    fit_quantum_action,
    generate_section,
    ground_state_from_quantum_action,
    ground_state_spectral,
    hamiltonian_energy,
    ho_exact_propagator,
    hydrogen_sector,
    integrate_realtime,
    invert_transformation_law,
    section_initial_conditions,
    section_occupancy,
    tensor_pairs,
    transformation_law_residual,
    wkb_compare,
)
from qaction.cli import main as cli_main
from qaction.qfit import FitProblem

HO = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5}), hbar=1.0)
HO_QUANTUM = ActionSpec(
    mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5, (0,): 0.5}), hbar=1.0
)
QUARTIC = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(4,): 1.0}), hbar=1.0)
COUPLED = ActionSpec(
    mass=1.0,
    potential=PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05}),
    hbar=1.0,
)


def report(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_ho_kernel():
    t0 = time.perf_counter()
    grid = Grid((8.0,), (12801,))
    pts = [(-2.0 + 0.4 * k,) for k in range(11)]
    pairs = tensor_pairs(pts, pts)
    worst = 0.0
    for T in (0.5, 1.0, 2.0, 4.0):
        table = euclidean_propagate(HO, grid, T, pairs)
        for (xi, xf), amp in zip(table.pairs, table.amplitudes):
            exact = ho_exact_propagator(1.0, 1.0, 1.0, xi[0], xf[0], T)
            worst = max(worst, abs(amp - exact) / exact)
    mid = euclidean_propagate(HO, grid, 1.0, [((0.0,), (0.0,))]).amplitudes[0]
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and abs(mid - 0.36800) < 1e-4 and elapsed < 10.0
    report(
        1,
        ok,
        f"max rel err {worst:.2e} over 121 pairs x 4 times, "
        f"G(0,0,1)={mid:.5f}, {elapsed:.1f}s",
    )


def test_criterion_2_ho_fit_recovers_spectrum():
    t0 = time.perf_counter()
    grid = Grid((8.0,), (1601,))
    pts = [(-2.0 + 0.5 * k,) for k in range(9)]
    table = euclidean_propagate(HO, grid, 8.0, tensor_pairs(pts, pts))
    prob = FitProblem(classical=HO, table=table, ansatz=((0,), (2,)), fit_mass=True)
    fit = fit_quantum_action(prob, n_nodes=1025)
    m = fit.quantum.mass
    v0 = fit.quantum.potential.coefficient((0,))
    v2 = fit.quantum.potential.coefficient((2,))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(m - 1.0) < 1e-3
        and abs(v2 - 0.5) < 1e-3
        and abs(v0 - 0.5) < 1e-3
        and abs(fit.potential_minimum - 0.5) < 1e-3
        and elapsed < 300.0
    )
    report(
        2,
        ok,
        f"T=8: m={m:.6f}, v2={v2:.6f}, v0={v0:.6f} -> hw/2, "
        f"min V~={fit.potential_minimum:.6f} = E_gr, {elapsed:.1f}s",
    )


def test_criterion_3_short_time_classical_limit():
    t0 = time.perf_counter()
    grid = Grid((7.0,), (11201,))
    pts = [(-1.5 + 0.3 * k,) for k in range(11)]
    pairs = [
        (a, b) for a, b in tensor_pairs(pts, pts) if abs(a[0] - b[0]) <= 0.6 + 1e-9
    ]
    table = euclidean_propagate(QUARTIC, grid, 0.05, pairs)
    prob = FitProblem(classical=QUARTIC, table=table, ansatz=((2,), (4,)), fit_mass=True)
    fit = fit_quantum_action(prob, n_nodes=257)
    m = fit.quantum.mass
    v4 = fit.quantum.potential.coefficient((4,))
    elapsed = time.perf_counter() - t0
    ok = abs(m - 1.0) < 0.02 and abs(v4 - 1.0) < 0.02 and elapsed < 300.0
    report(
        3,
        ok,
        f"T=0.05 quartic: m={m:.5f}, v4={v4:.5f} (classical 1, 1 within 2%), "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_transformation_law():
    t0 = time.perf_counter()
    # (i) harmonic inversion
    grid_ho = Grid((3.0,), (481,))
    inv_ho = invert_transformation_law(HO, 0.5, grid_ho)
    u_err = float(np.max(np.abs(inv_ho.U - grid_ho.axes()[0] ** 2)))

    # (ii) quartic reconstruction against the spectral ground state
    e_quartic = ground_state_spectral(QUARTIC, Grid((8.0,), (8001,))).energy
    grid_q = Grid((2.5,), (401,))
    inv_q = invert_transformation_law(QUARTIC, e_quartic, grid_q)
    overlap = inv_q.ground_state().overlap(ground_state_spectral(QUARTIC, grid_q))

    # (iii) residual of a fitted T=10 trial action, staged fit on lam=0.25
    lam = 0.25
    soft = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(4,): lam}), hbar=1.0)
    e_soft = ground_state_spectral(soft, Grid((8.0,), (8001,))).energy
    table = euclidean_propagate(
        soft, Grid((7.0,), (5601,)), 10.0, [((0.0,), (0.125 * k,)) for k in range(19)]
    )
    stage1 = fit_quantum_action(
        FitProblem(classical=soft, table=table, ansatz=((0,), (2,), (4,)), fit_mass=False),
        n_nodes=257,
    )
    fit = fit_quantum_action(
        FitProblem(
            classical=soft,
            table=table,
            ansatz=((0,), (2,), (4,), (6,), (8,), (10,)),
            fit_mass=False,
        ),
        initial=stage1.quantum,
        n_nodes=(1025, 2049),
        max_nfev=500,
    )
    xs = np.linspace(0.2, 2.0, 181)
    xs = np.concatenate([-xs[::-1], xs])
    law = transformation_law_residual(soft, e_soft, fit.quantum, xs)
    law_max = float(np.max(np.abs(law)))
    elapsed = time.perf_counter() - t0
    ok = (
        u_err < 1e-8
        and overlap >= 1.0 - 1e-6
        and law_max < 1e-2
        and elapsed < 120.0
    )
    report(
        4,
        ok,
        f"HO U err {u_err:.1e}, quartic overlap defect {1.0 - overlap:.1e}, "
        f"fitted-law max {law_max:.1e} on 0.2<=|x|<=2, {elapsed:.0f}s",
    )


def test_criterion_5_wkb():
    t0 = time.perf_counter()
    ho_state = ground_state_from_quantum_action(HO_QUANTUM, Grid((8.0,), (8001,)))
    rep_ho = wkb_compare(HO, ho_state, 0.5)
    e_quartic = ground_state_spectral(QUARTIC, Grid((8.0,), (8001,))).energy
    grid_q = Grid((2.5,), (401,))
    inv_q = invert_transformation_law(QUARTIC, e_quartic, grid_q)
    rep_q = wkb_compare(QUARTIC, inv_q.ground_state(), e_quartic)
    elapsed = time.perf_counter() - t0
    ok = (
        rep_ho.distance_quantum < 1e-6
        and rep_ho.distance_classical > rep_ho.distance_quantum
        and rep_q.distance_classical > rep_q.distance_quantum
        and elapsed < 60.0
    )
    report(
        5,
        ok,
        f"HO quantum-form L2 {rep_ho.distance_quantum:.1e} vs classical "
        f"{rep_ho.distance_classical:.2f}; quartic {rep_q.distance_quantum:.1e} vs "
        f"{rep_q.distance_classical:.2f}, {elapsed:.1f}s",
    )


def test_criterion_6_hydrogen_sector():
    t0 = time.perf_counter()
    ok = True
    for l in range(1, 11):
        s = hydrogen_sector(l)
        ok &= s.energy == Fraction(-1, 2 * (l + 1) ** 2)
        ok &= s.energy == -s.ionization_energy / (l + 1) ** 2
        ok &= s.r_min == s.bohr_radius * l * (l + 1)
        ok &= s.trial_potential_value(s.r_min) == s.energy
        r = float(s.r_min)
        ok &= s.wavefunction(r) > s.wavefunction(0.999 * r)
        ok &= s.wavefunction(r) > s.wavefunction(1.001 * r)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(
        6,
        ok,
        f"l=1..10 exact rational identities, wavefunction peak at the "
        f"trial minimum, {elapsed * 1e3:.0f}ms",
    )


def test_criterion_7_scale_symmetry():
    t0 = time.perf_counter()
    grid = Grid((8.0,), (1601,))
    pairs = [((0.0,), (0.5,)), ((-1.0,), (1.0,))]
    base_amp = euclidean_propagate(HO, grid, 2.0, pairs).amplitudes
    amp_dev = 0.0
    for alpha in (0.5, 2.0):
        moved, t_new = apply_scale_transform(HO, 2.0, ScaleTransform(alpha))
        amp = euclidean_propagate(moved, grid, t_new, pairs).amplitudes
        amp_dev = max(amp_dev, float(np.max(np.abs(amp / base_amp - 1.0))))

    pts = [(x,) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    table = euclidean_propagate(HO, grid, 2.0, tensor_pairs(pts, pts))
    prob = FitProblem(classical=HO, table=table, ansatz=((0,), (2,)), fit_mass=True)
    base = fit_quantum_action(prob, n_nodes=(257, 513))
    fit_dev = 0.0
    for alpha in (0.5, 2.0):
        moved, t_new = apply_scale_transform(HO, 2.0, ScaleTransform(alpha))
        table_s = euclidean_propagate(moved, grid, t_new, tensor_pairs(pts, pts))
        prob_s = FitProblem(
            classical=moved, table=table_s, ansatz=((0,), (2,)), fit_mass=True
        )
        scaled = fit_quantum_action(prob_s, n_nodes=(257, 513))
        fit_dev = max(fit_dev, abs(scaled.quantum.mass - base.quantum.mass / alpha))
        fit_dev = max(
            fit_dev,
            abs(
                scaled.quantum.potential.coefficient((2,))
                - alpha * base.quantum.potential.coefficient((2,))
            ),
        )
    elapsed = time.perf_counter() - t0
    ok = amp_dev < 1e-6 and fit_dev < 1e-6 and elapsed < 600.0
    report(
        7,
        ok,
        f"alpha in {{0.5, 2}}: amplitude dev {amp_dev:.1e}, fit-parameter dev "
        f"{fit_dev:.1e}, {elapsed:.0f}s",
    )


def test_criterion_8_chaos_pipeline():
    t0 = time.perf_counter()
    # (i) uncoupled limit: crossings stay on the conserved-energy ellipse
    unc = ActionSpec(
        mass=1.0, potential=PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5}), hbar=1.0
    )
    spec = SectionSpec(energy=2.0, dt=1e-3, max_crossings=50)
    ics = section_initial_conditions(unc, spec, 6)
    sec = generate_section(unc, spec, ics)
    ellipse_dev = 0.0
    for ic, pts in zip(ics, sec.orbits):
        pts = np.asarray(pts)
        e_x = ic.momentum[0] ** 2 / 2.0 + 0.5 * ic.position[0] ** 2
        ellipse_dev = max(
            ellipse_dev,
            float(np.max(np.abs(pts[:, 1] ** 2 / 2.0 + 0.5 * pts[:, 0] ** 2 - e_x))),
        )

    # (ii) occupancy grows from the regular to the chaotic regime
    occ = {}
    for energy in (2.0, 30.0):
        spec = SectionSpec(energy=energy, dt=1e-3, max_crossings=200)
        section = generate_section(COUPLED, spec, section_initial_conditions(COUPLED, spec, 8))
        occ[energy] = section_occupancy(section, (32, 32))

    # (iii) fitted trial action weakens the coupling
    grid = Grid((6.3, 6.3), (64, 64))
    pts = [
        (0.1, 0.1), (0.9, 0.9), (1.5, 1.5), (0.9, 0.1),
        (0.1, 0.9), (1.5, 0.7), (0.7, 1.5), (1.5, -0.7),
    ]
    table = euclidean_propagate(COUPLED, grid, 3.0, tensor_pairs(pts, pts))
    prob = FitProblem(
        classical=COUPLED,
        table=table,
        ansatz=(((0, 0),), ((2, 0), (0, 2)), ((2, 2),)),
        fit_mass=True,
    )
    fit = fit_quantum_action(prob, n_nodes=257)
    v22 = fit.quantum.potential.coefficient((2, 2))

    # (iv) symplectic energy drift over 1e7 real-time steps
    s0 = PhaseState((1.5, 0.3), (0.0, 2.0))
    e0 = hamiltonian_energy(COUPLED, s0)
    states = integrate_realtime(COUPLED, s0, 1e4, 1e-3, store_every=100_000)
    drift = max(abs(hamiltonian_energy(COUPLED, s) - e0) for s in states) / abs(e0)

    elapsed = time.perf_counter() - t0
    ok = (
        ellipse_dev < 1e-6
        and occ[30.0] > occ[2.0]
        and v22 < 0.05
        and drift < 1e-8
        and elapsed < 1800.0
    )
    report(
        8,
        ok,
        f"ellipse dev {ellipse_dev:.1e}; occupancy {occ[2.0]:.3f} -> "
        f"{occ[30.0]:.3f}; fitted v22={v22:.4f} < 0.05; drift {drift:.1e} "
        f"over 1e7 steps, {elapsed:.0f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    ho_json = {
        "mass": 1.0,
        "hbar": 1.0,
        "potential": {"dim": 1, "terms": [{"exp": [2], "coef": 0.5}]},
    }
    coupled_json = {
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
    configs = {
        "propagate": {
            "action": ho_json,
            "grid": {"extents": [8.0], "npoints": [401]},
            "T": 1.0,
            "pairs": {"points": [-1.0, 0.0, 1.0]},
        },
        "fit": {
            "classical": ho_json,
            "grid": {"extents": [8.0], "npoints": [801]},
            "T": 2.0,
            "pairs": {"points": [-1.0, 0.0, 1.0]},
            "ansatz": [[0], [2]],
            "fit_mass": False,
            "n_nodes": 129,
            "restarts": 1,
        },
        "analytic": {
            "action": ho_json,
            "grid": {"extents": [3.0], "npoints": [241]},
            "e_gr": 0.5,
            "hydrogen_l_max": 5,
        },
        "poincare": {
            "action": coupled_json,
            "energy": 2.0,
            "n_orbits": 2,
            "max_crossings": 6,
        },
    }
    identical = True
    checked = 0
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}_{run}"
            code = cli_main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, f"{command} exited {code}"
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            checked += 1
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                identical = False
    elapsed = time.perf_counter() - t0
    ok = identical and checked >= 9
    report(
        9,
        ok,
        f"4 commands rerun, {checked} output files byte-identical, {elapsed:.0f}s",
    )
