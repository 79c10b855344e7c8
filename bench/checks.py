"""Correctness checks of the benchmark's outputs, made apart from ``qaction``.

Nothing here imports the program. Each check compares an output file with a
closed form (the Mehler kernel, the hydrogen identities, the normalized
Gaussian), with a reference computed here (a dense 1-D eigensolve of the
same difference operator, a DOP853 integration between section crossings),
or with a property the method must have (xi <-> xf symmetry of a spectral
table, energy conservation of a separable orbit). None compares with a
stored copy of an earlier output.

A check raises ``CheckError`` with a message naming the offending value.
"""
from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

import workloads

MEHLER_RTOL = 1e-4
QUARTIC_E0_TOL = 1e-6
SYMMETRY_RTOL = 1e-12
FIT_TOL = 1e-3
GAUSSIAN_TOL = 1e-9
SEPARABLE_RTOL = 1e-10
SPECTRUM_TOL = 1e-10
ELLIPSE_TOL = 1e-9
CROSSING_TOL = 1e-8
DOP853_TOL = 1e-12
TRANSITIONS_SAMPLED_PER_SECTION = 4


class CheckError(AssertionError):
    """An output disagrees with its independent reference."""


def _fail(msg: str):
    raise CheckError(msg)


def read_csv(path: Path) -> tuple:
    """(header, rows as float arrays) of a csv table written by the program."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _terms(action: dict) -> dict:
    return {tuple(t["exp"]): float(t["coef"]) for t in action["potential"]["terms"]}


def _coef(action: dict, exp) -> float:
    return _terms(action).get(tuple(exp), 0.0)


def _potential(action: dict):
    """Vectorized V(points) of an action in the program's JSON shape."""
    terms = _terms(action)

    def v(*coords):
        total = 0.0
        for exp, c in terms.items():
            term = c
            for x, e in zip(coords, exp):
                term = term * np.asarray(x, dtype=float) ** e
            total = total + term
        return total

    return v


def _gradient(action: dict):
    terms = _terms(action)

    def grad(x: float, y: float) -> tuple:
        gx = gy = 0.0
        for (ex, ey), c in terms.items():
            if ex:
                gx += c * ex * x ** (ex - 1) * y**ey
            if ey:
                gy += c * ey * x**ex * y ** (ey - 1)
        return gx, gy

    return grad


# -- independent references ----------------------------------------------------


def mehler_kernel(x_i: float, x_f: float, T: float, mass: float = 1.0, omega: float = 1.0,
                  hbar: float = 1.0) -> float:
    """Euclidean harmonic-oscillator kernel G(x_f, T; x_i) in closed form."""
    s, c = math.sinh(omega * T), math.cosh(omega * T)
    action = mass * omega / (2.0 * s) * ((x_i * x_i + x_f * x_f) * c - 2.0 * x_i * x_f)
    return math.sqrt(mass * omega / (2.0 * math.pi * hbar * s)) * math.exp(-action / hbar)


def dirichlet_eigensystem(potential_values: np.ndarray, extent: float, mass: float = 1.0,
                          hbar: float = 1.0) -> tuple:
    """All eigenpairs of -(hbar^2/2m) d^2/dx^2 + V on nodes of [-L, L].

    Central differences over every node with zero walls just outside, the
    operator ``qaction`` discretizes per axis, solved densely. Eigenvectors
    are rows, normalized under trapezoidal quadrature.
    """
    n = len(potential_values)
    h = 2.0 * extent / (n - 1)
    c = hbar * hbar / (2.0 * mass * h * h)
    H = np.diag(2.0 * c + np.asarray(potential_values, dtype=float))
    H -= c * (np.eye(n, k=1) + np.eye(n, k=-1))
    vals, vecs = np.linalg.eigh(H)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    vecs = vecs.T / np.sqrt((vecs.T**2) @ w)[:, None]
    return vals, vecs


def next_crossing(action: dict, x: float, px: float, e_abs: float) -> tuple:
    """(x, p_x) at the next upward crossing of y = 0, by DOP853.

    Starts on the plane y = 0 with p_y > 0 fixed by the energy, runs to the
    downward transit and then to the upward one, each located by the
    integrator's event root finding at rtol = atol = 1e-12.
    """
    m = float(action["mass"])
    v = _potential(action)
    grad = _gradient(action)
    room = 2.0 * m * (e_abs - float(v(x, 0.0))) - px * px
    if room <= 0.0:
        _fail(f"crossing ({x}, {px}) lies outside the allowed region")

    def rhs(t, s):
        gx, gy = grad(s[0], s[1])
        return [s[2] / m, s[3] / m, -gx, -gy]

    state = np.array([x, 0.0, px, math.sqrt(room)])
    for direction in (-1.0, 1.0):
        def plane(t, s):
            return s[1]

        plane.terminal = True
        plane.direction = direction
        # skip the start, which sits on the plane
        kick = solve_ivp(rhs, (0.0, 1e-3), state, method="DOP853", rtol=DOP853_TOL, atol=DOP853_TOL)
        sol = solve_ivp(rhs, (0.0, 1e3), kick.y[:, -1], method="DOP853", events=plane,
                        rtol=DOP853_TOL, atol=DOP853_TOL)
        if sol.status != 1:
            _fail(f"no plane transit found from ({x}, {px})")
        state = sol.y_events[0][0]
    return float(state[0]), float(state[2])


# -- pipeline-1d -----------------------------------------------------------------


def check_mehler(cfg: dict, out: Path):
    _, rows = read_csv(out / "propagator.csv")
    mass = float(cfg["action"]["mass"])
    omega = math.sqrt(2.0 * _coef(cfg["action"], (2,)) / mass)
    for xi, xf, T, g in rows:
        exact = mehler_kernel(xi, xf, T, mass=mass, omega=omega)
        if not abs(g - exact) <= MEHLER_RTOL * exact:
            _fail(f"G({xi}, {xf}; {T}) = {g!r}, Mehler kernel {exact!r}")


def check_quartic_spectrum(cfg: dict, out: Path):
    _, spectrum = read_csv(out / "spectrum.csv")
    e0 = spectrum[0, 1]
    if not abs(e0 - workloads.QUARTIC_E0) <= QUARTIC_E0_TOL:
        _fail(f"quartic E0 = {e0!r}, literature {workloads.QUARTIC_E0!r}")
    _, rows = read_csv(out / "propagator.csv")
    table = {(xi, xf): g for xi, xf, _, g in rows}
    for (xi, xf), g in table.items():
        mirror = table.get((xf, xi))
        if mirror is None:
            _fail(f"pair ({xf}, {xi}) missing from a table holding ({xi}, {xf})")
        if not abs(g - mirror) <= SYMMETRY_RTOL * g:
            _fail(f"G({xi}, {xf}) = {g!r} but G({xf}, {xi}) = {mirror!r}")


def check_ho_fit(cfg: dict, out: Path):
    fit = read_json(out / "fit.json")
    got = {
        "m": fit["quantum"]["mass"],
        "v2": _coef(fit["quantum"], (2,)),
        "v0": _coef(fit["quantum"], (0,)),
        "potential_minimum": fit["potential_minimum"],
    }
    want = {"m": 1.0, "v2": 0.5, "v0": 0.5, "potential_minimum": 0.5}
    for key, value in got.items():
        if not abs(value - want[key]) <= FIT_TOL:
            _fail(f"HO fit {key} = {value!r}, exact {want[key]}")


def check_soft_quartic_fit(cfg: dict, out: Path):
    vmin = read_json(out / "fit.json")["potential_minimum"]
    if not abs(vmin - workloads.SOFT_QUARTIC_E0) <= FIT_TOL:
        _fail(f"soft-quartic potential_minimum = {vmin!r}, E0 {workloads.SOFT_QUARTIC_E0!r}")


def check_wkb(cfg: dict, out: Path):
    wkb = read_json(out / "wkb.json")
    if not wkb["distance_quantum"] < wkb["distance_classical"]:
        _fail(f"quantum WKB form {wkb['distance_quantum']!r} no closer than "
              f"classical {wkb['distance_classical']!r}")


def check_hydrogen(cfg: dict, out: Path):
    _, rows = read_csv(out / "hydrogen.csv")
    l_max = cfg["hydrogen_l_max"]
    if [int(r[0]) for r in rows] != list(range(1, l_max + 1)):
        _fail(f"hydrogen rows are not l = 1..{l_max}")
    for l, mu, nu, e in rows:
        l = int(l)
        want = (float(Fraction(l * l, 2)), float(Fraction(l, l + 1)), float(Fraction(-1, 2 * (l + 1) ** 2)))
        if (mu, nu, e) != want:
            _fail(f"hydrogen row l={l}: (mu, nu, E) = {(mu, nu, e)}, exact {want}")


def check_ho_ground_state(cfg: dict, out: Path):
    _, rows = read_csv(out / "ground_state.csv")
    x, psi = rows[:, 0], rows[:, 1]
    h = x[1] - x[0]
    w = np.full(len(x), h)
    w[0] = w[-1] = 0.5 * h
    gauss = np.exp(-0.5 * x * x)
    gauss /= math.sqrt(float(np.dot(w, gauss * gauss)))
    worst = float(np.max(np.abs(psi - gauss)))
    if not worst <= GAUSSIAN_TOL:
        _fail(f"HO ground state differs from the normalized Gaussian by {worst:.3e}")


def check_ho_analytic(cfg: dict, out: Path):
    check_ho_ground_state(cfg, out)
    check_wkb(cfg, out)
    check_hydrogen(cfg, out)


def check_quartic_analytic(cfg: dict, out: Path):
    check_wkb(cfg, out)
    check_hydrogen(cfg, out)


# -- coupled-2d ------------------------------------------------------------------


def check_separable_propagator(cfg: dict, out: Path):
    action = cfg["action"]
    if any(ex and ey for ex, ey in _terms(action)):
        _fail("separable reference needs an uncoupled potential")
    mass, T = float(action["mass"]), float(cfg["T"])
    v = _potential(action)
    axes = []
    for a, (L, n) in enumerate(zip(cfg["grid"]["extents"], cfg["grid"]["npoints"])):
        nodes = np.linspace(-L, L, n)
        coords = [nodes if b == a else 0.0 for b in range(2)]
        vals, vecs = dirichlet_eigensystem(v(*coords) - v(0.0, 0.0) * (a == 1), L, mass=mass)
        axes.append((nodes, vals, vecs))

    def amp_1d(axis: int, xi: float, xf: float) -> float:
        nodes, vals, vecs = axes[axis]
        i, f = int(np.argmin(np.abs(nodes - xi))), int(np.argmin(np.abs(nodes - xf)))
        return float(np.sum(vecs[:, i] * vecs[:, f] * np.exp(-vals * T)))

    _, rows = read_csv(out / "propagator.csv")
    for xi, yi, xf, yf, _, g in rows:
        ref = amp_1d(0, xi, xf) * amp_1d(1, yi, yf)
        if not abs(g - ref) <= SEPARABLE_RTOL * ref:
            _fail(f"G(({xi}, {yi}), ({xf}, {yf})) = {g!r}, separable product {ref!r}")

    _, spectrum = read_csv(out / "spectrum.csv")
    sums = np.sort(np.add.outer(axes[0][1], axes[1][1]).ravel())[: len(spectrum)]
    worst = float(np.max(np.abs(spectrum[:, 1] - sums)))
    if not worst <= SPECTRUM_TOL:
        _fail(f"2-D spectrum differs from the sorted 1-D pair sums by {worst:.3e}")


def check_coupled_fit(cfg: dict, out: Path):
    fit = read_json(out / "fit.json")
    if not fit["converged"] or fit["failed_pairs"]:
        _fail(f"coupled fit converged={fit['converged']}, failed pairs {fit['failed_pairs']}")
    vx, vy = _coef(fit["quantum"], (2, 0)), _coef(fit["quantum"], (0, 2))
    if vx != vy:
        _fail(f"tied coefficients differ: x^2 {vx!r}, y^2 {vy!r}")
    v22 = _coef(fit["quantum"], (2, 2))
    if not v22 < workloads.COUPLED_V22:
        _fail(f"fitted x^2 y^2 coefficient {v22!r} not below the classical {workloads.COUPLED_V22}")


# -- sections-2d -----------------------------------------------------------------


def _minimum_at_origin(action: dict) -> float:
    """V_min of a potential whose non-constant terms are even with positive coefficients."""
    for exp, c in _terms(action).items():
        if any(e % 2 for e in exp) or (any(exp) and c <= 0.0):
            _fail(f"cannot place the minimum of term {exp}: {c}")
    return _coef(action, (0, 0))


def read_section(path: Path, n_orbits: int) -> list:
    """Crossings (k, 2) per orbit from a section csv."""
    _, rows = read_csv(path)
    return [rows[rows[:, 0] == k][:, 1:] for k in range(n_orbits)]


def check_section_orbits(orbits: list, cfg: dict, action: dict, seed: int, ellipse: bool):
    """Point counts, separable energy conservation and DOP853 returns of one section."""
    n_points = sum(len(o) for o in orbits)
    if n_points != cfg["n_orbits"] * cfg["max_crossings"] or any(
        len(o) != cfg["max_crossings"] for o in orbits
    ):
        _fail(f"section holds {[len(o) for o in orbits]} crossings per orbit, "
              f"want {cfg['max_crossings']} on each of {cfg['n_orbits']} orbits")
    m = float(action["mass"])
    if ellipse:
        vx = _coef(action, (2, 0))
        for k, pts in enumerate(orbits):
            e_x = pts[:, 1] ** 2 / (2.0 * m) + vx * pts[:, 0] ** 2
            spread = float(np.max(e_x) - np.min(e_x))
            if not spread <= ELLIPSE_TOL:
                _fail(f"orbit {k}: p_x^2/2 + x^2/2 varies by {spread:.3e}")
    e_abs = _minimum_at_origin(action) + float(cfg["energy"])
    transitions = [(k, j) for k, pts in enumerate(orbits) for j in range(len(pts) - 1)]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(transitions), size=min(TRANSITIONS_SAMPLED_PER_SECTION, len(transitions)), replace=False)
    for k, j in (transitions[i] for i in picks):
        pts = orbits[k]
        x, px = next_crossing(action, pts[j, 0], pts[j, 1], e_abs)
        err = max(abs(x - pts[j + 1, 0]), abs(px - pts[j + 1, 1]))
        if not err <= CROSSING_TOL:
            _fail(f"orbit {k}: DOP853 from crossing {j} misses crossing {j + 1} by {err:.3e}")


def check_sections(cfg: dict, out: Path, seed: int):
    plane = cfg.get("plane", {})
    if plane.get("axis", 1) != 1 or plane.get("value", 0.0) != 0.0 or plane.get("orientation", 1) != 1:
        _fail("the DOP853 reference handles the plane y = 0 crossed upward only")
    sections = [("section_classical.csv", cfg["action"])]
    if "fit_result" in cfg:
        sections.append(("section_quantum.csv", read_json(Path(cfg["fit_result"]))["quantum"]))
    uncoupled = all(not (ex and ey) for ex, ey in _terms(cfg["action"]))
    for name, action in sections:
        orbits = read_section(out / name, cfg["n_orbits"])
        check_section_orbits(orbits, cfg, action, seed, ellipse=uncoupled)
    comparison = read_json(out / "comparison.json")
    want = cfg["n_orbits"] * cfg["max_crossings"]
    counts = [v for k, v in comparison.items() if k.startswith("points_")]
    if not counts or any(c != want for c in counts):
        _fail(f"comparison.json point counts {counts}, want {want}")


def check_no_output(cfg: dict, out: Path):
    """A failing command leaves no partial output."""
    left = sorted(p.name for p in out.iterdir()) if out.exists() else []
    if left:
        _fail(f"failed command left files behind: {left}")


CHECKS = {
    "ho-short": check_mehler,
    "ho-long": check_mehler,
    "quartic": check_quartic_spectrum,
    "ho-fit": check_ho_fit,
    "soft-fit": check_soft_quartic_fit,
    "ho-analytic": check_ho_analytic,
    "quartic-analytic": check_quartic_analytic,
    "ho-analytic-wide": check_ho_analytic,
    "uncoupled-dense": check_separable_propagator,
    "coupled-fit": check_coupled_fit,
}


def check_step(step, out: Path, exit_code: int, seed: int):
    """Check one command's outputs; a non-zero exit must leave none."""
    if exit_code != 0:
        check_no_output(step.config, out)
    elif step.command == "poincare":
        check_sections(step.config, out, seed)
    else:
        CHECKS[step.name](step.config, out)
