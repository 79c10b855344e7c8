import dataclasses
import itertools
import math
import os
import shutil
import tempfile
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaction import (
    ActionSpec,
    NumericalError,
    PhaseState,
    PolynomialPotential,
    SectionSpec,
    generate_section,
    hamiltonian_energy,
    ho_euclidean_action,
    ho_exact_propagator,
    integrate_realtime,
    solve_euclidean_bvp,
)
from qaction.chaos import _henon_refine, _orbit_crossings
from qaction import trajectory
from qaction.trajectory import (
    MAX_NODES,
    MAX_STEPS,
    _build_step_loop,
    _c_loop,
    _python_loop,
    _step_loop,
    _step_statements,
)

COMPILER = shutil.which("cc") or shutil.which("gcc")

COTH1_OVER_2 = 0.5 / math.tanh(1.0)


def test_ho_zero_path(ho):
    sol = solve_euclidean_bvp(ho, (0.0,), (0.0,), 3.0)
    assert sol.converged
    npt.assert_allclose(sol.path, 0.0, atol=1e-12)
    assert abs(sol.action) < 1e-12


def test_ho_action_closed_form(ho):
    sol = solve_euclidean_bvp(ho, (0.0,), (1.0,), 1.0, n_nodes=1025)
    assert sol.converged
    assert sol.residual < 1e-10
    assert abs(sol.action - COTH1_OVER_2) < 1e-6
    npt.assert_allclose(sol.path[0], [0.0])
    npt.assert_allclose(sol.path[-1], [1.0])


def test_free_particle_straight_line():
    free = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {}), hbar=1.0)
    sol = solve_euclidean_bvp(free, (0.0,), (2.0,), 2.0)
    assert sol.converged
    assert abs(sol.action - 1.0) < 1e-10
    npt.assert_allclose(sol.path[:, 0], np.linspace(0.0, 2.0, len(sol.times)), atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2])
def test_one_newton_step_evaluates_the_gradient_twice(monkeypatch, dim):
    """A linear problem converges in one Newton step. The defect and its
    scale share one gradient evaluation, and the accepted line-search trial's
    defect is the next iterate's: one evaluation at the start, one at the trial."""
    terms = {(2,): 0.5} if dim == 1 else {(2, 0): 0.5, (0, 2): 0.5}
    action = ActionSpec(mass=1.0, potential=PolynomialPotential(dim, terms), hbar=1.0)
    calls = []
    gradient_points = PolynomialPotential.gradient_points

    def counted(self, points):
        calls.append(len(points))
        return gradient_points(self, points)

    monkeypatch.setattr(PolynomialPotential, "gradient_points", counted)
    sol = solve_euclidean_bvp(action, (0.5, -0.2)[:dim], (1.0, 0.3)[:dim], 1.0, n_nodes=65)
    assert sol.converged and sol.residual < 1e-15
    assert calls == [63, 63]


def test_action_quadrature_order(ho):
    errs = []
    for n in (257, 513, 1025):
        sol = solve_euclidean_bvp(ho, (0.0,), (1.0,), 1.0, n_nodes=n)
        errs.append(abs(sol.action - COTH1_OVER_2))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_euclidean_energy_constant(ho):
    sol = solve_euclidean_bvp(ho, (0.0,), (1.0,), 1.0, n_nodes=1025)
    # continuum value -cosh(1)^2 / (2 sinh(1)^2) + 1/2
    eps = -0.5 * (math.cosh(1.0) / math.sinh(1.0)) ** 2 + 0.5
    assert abs(sol.euclidean_energy - eps) < 1e-5
    assert sol.energy_spread < 1e-6 * abs(sol.euclidean_energy) + 1e-10


def test_energy_spread_second_order(ho):
    s1 = solve_euclidean_bvp(ho, (0.0,), (1.0,), 1.0, n_nodes=257)
    s2 = solve_euclidean_bvp(ho, (0.0,), (1.0,), 1.0, n_nodes=513)
    assert 3.0 < s1.energy_spread / s2.energy_spread < 5.0


def test_bvp_matches_propagator_prefactor(ho):
    """For the HO, -ln G + ln Z with the closed-form prefactor equals the
    trajectory action."""
    xi, xf, T = -0.5, 1.0, 1.5
    g = ho_exact_propagator(1.0, 1.0, 1.0, xi, xf, T)
    z = math.sqrt(1.0 / (2.0 * math.pi * math.sinh(T)))
    sol = solve_euclidean_bvp(ho, (xi,), (xf,), T, n_nodes=2049)
    assert abs((-math.log(g) + math.log(z)) - sol.action) < 1e-6
    assert abs(sol.action - ho_euclidean_action(1.0, 1.0, xi, xf, T)) < 1e-6


def test_large_time_bvp_converges(quartic):
    sol = solve_euclidean_bvp(quartic, (0.0,), (1.5,), 10.0, n_nodes=513)
    assert sol.converged
    assert sol.residual < 1e-10


def test_double_well_continuation():
    dw = ActionSpec(
        mass=1.0, potential=PolynomialPotential(1, {(2,): -1.0, (4,): 0.25}), hbar=1.0
    )
    sol = solve_euclidean_bvp(dw, (-1.0,), (1.0,), 8.0, n_nodes=257)
    assert sol.converged
    assert sol.residual < 1e-10


def test_2d_bvp_swap_symmetry(coupled_2d):
    a = solve_euclidean_bvp(coupled_2d, (0.3, 0.2), (-0.4, 0.5), 1.0)
    b = solve_euclidean_bvp(coupled_2d, (0.2, 0.3), (0.5, -0.4), 1.0)
    assert a.converged and b.converged
    assert abs(a.action - b.action) < 1e-10


@pytest.mark.parametrize("T", [0.7, 4.0])
def test_separable_2d_bvp_is_its_two_1d_bvps(T):
    """The 2-D Jacobian band layout, without its cross band, is the 1-D one per axis."""
    m = 1.3
    sep = ActionSpec(m, PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (4, 0): 0.1, (0, 4): 0.2}))
    axes = [ActionSpec(m, PolynomialPotential(1, {(2,): 0.5, (4,): c})) for c in (0.1, 0.2)]
    x_i, x_f = (-0.8, 1.1), (1.2, 0.3)
    both = solve_euclidean_bvp(sep, x_i, x_f, T)
    alone = [solve_euclidean_bvp(a, (x_i[k],), (x_f[k],), T) for k, a in enumerate(axes)]
    assert both.converged and all(sol.converged for sol in alone)
    for k, sol in enumerate(alone):
        npt.assert_allclose(both.path[:, k], sol.path[:, 0], rtol=0, atol=1e-9)
    assert both.action == pytest.approx(alone[0].action + alone[1].action, rel=1e-12, abs=0)


def test_bvp_validation(ho):
    with pytest.raises(ValueError):
        solve_euclidean_bvp(ho, (0.0,), (1.0,), -1.0)
    with pytest.raises(ValueError):
        solve_euclidean_bvp(ho, (0.0,), (1.0,), 1.0, n_nodes=16)
    with pytest.raises(ValueError):
        solve_euclidean_bvp(ho, (0.0, 0.0), (1.0, 1.0), 1.0)
    # refused before a mesh is built: 2^40 nodes once failed with _ArrayMemoryError (8 TiB)
    with mock.patch.object(np, "linspace", side_effect=AssertionError("mesh allocated")):
        for n_nodes in (MAX_NODES + 1, 2**40):
            with pytest.raises(ValueError, match="mesh node count"):
                solve_euclidean_bvp(ho, (0.0,), (1.0,), 1.0, n_nodes=n_nodes)


@pytest.mark.parametrize("fixture", ["quartic", "coupled_2d"])
def test_action_is_the_stationary_variational_sum(fixture, request):
    """sol.action is sum_k dt [m/2 ((x_{k+1} - x_k)/dt)^2 + (V_k + V_{k+1})/2],
    and that sum is stationary in every interior node of the converged path."""
    action = request.getfixturevalue(fixture)
    dim, T, n = action.dimension, 1.5, 257
    x_i, x_f = (0.3, 0.2)[:dim], (-0.4, 0.5)[:dim]
    sol = solve_euclidean_bvp(action, x_i, x_f, T, n_nodes=n)
    assert sol.converged
    m, pot, path = action.mass, action.potential, sol.path
    dt = T / (n - 1)
    v = pot.evaluate_points(path)
    steps = np.diff(path, axis=0)
    total = sum(
        dt * (0.5 * m * float(np.dot(d, d)) / dt**2 + 0.5 * (v[k] + v[k + 1]))
        for k, d in enumerate(steps)
    )
    assert sol.action == pytest.approx(total, rel=1e-13)
    # dS/dx_k = m (2 x_k - x_{k-1} - x_{k+1}) / dt + dt grad V(x_k)
    inner = path[1:-1]
    grad_v = pot.gradient_points(inner)
    grad = m * (2.0 * inner - path[:-2] - path[2:]) / dt + dt * grad_v
    scale = m * (np.abs(path[2:]) + 2.0 * np.abs(inner) + np.abs(path[:-2])) / dt**2
    scale = 1.0 + float(np.max(scale + np.abs(grad_v)))
    assert float(np.max(np.abs(grad))) <= 1e-10 * dt * scale


def test_phase_state_validation():
    with pytest.raises(ValueError):
        PhaseState((0.0, 1.0), (0.0,))
    with pytest.raises(ValueError):
        PhaseState((math.nan,), (0.0,))


def test_ho_period_return(ho):
    dt = 2.0 * math.pi / 6400.0
    states = integrate_realtime(ho, PhaseState((1.0,), (0.0,)), 2.0 * math.pi, dt)
    end = states[-1]
    assert abs(end.position[0] - 1.0) < 1e-8
    assert abs(end.momentum[0]) < 1e-8


def test_stationary_at_minimum(quartic):
    states = integrate_realtime(quartic, PhaseState((0.0,), (0.0,)), 1.0, 1e-3)
    end = states[-1]
    assert end.position == (0.0,)
    assert end.momentum == (0.0,)


def test_time_reversal(coupled_2d):
    s0 = PhaseState((0.7, -0.3), (0.4, 1.1))
    fwd = integrate_realtime(coupled_2d, s0, 5.0, 1e-3, store_every=10**9)[-1]
    back = integrate_realtime(
        coupled_2d,
        PhaseState(fwd.position, tuple(-p for p in fwd.momentum)),
        5.0,
        1e-3,
        store_every=10**9,
    )[-1]
    npt.assert_allclose(back.position, s0.position, atol=1e-9)
    npt.assert_allclose(tuple(-p for p in back.momentum), s0.momentum, atol=1e-9)


def test_energy_conservation_short_run(coupled_2d):
    s0 = PhaseState((1.0, 0.5), (0.3, -0.2))
    e0 = hamiltonian_energy(coupled_2d, s0)
    states = integrate_realtime(coupled_2d, s0, 50.0, 1e-3, store_every=5000)
    drift = max(abs(hamiltonian_energy(coupled_2d, s) - e0) for s in states)
    assert drift / abs(e0) < 1e-10


def test_integrate_realtime_validation(ho):
    s0 = PhaseState((1.0,), (0.0,))
    with pytest.raises(ValueError):
        integrate_realtime(ho, s0, 1.0, 0.02)
    with pytest.raises(ValueError):
        integrate_realtime(ho, s0, -1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate_realtime(ho, s0, 1.0, 1e-3, store_every=0)
    # store_every is an integer: 2.5 once raised TypeError from range, True was read as 1
    for store_every in (2.5, True):
        with pytest.raises(ValueError, match="store_every"):
            integrate_realtime(ho, s0, 1.0, 1e-3, store_every=store_every)
    with pytest.raises(ValueError):
        integrate_realtime(ho, PhaseState((1.0, 0.0), (0.0, 0.0)), 1.0, 1e-3)


def test_kernel_gradient_matches_closed_form(coupled_2d):
    pot = coupled_2d.potential
    pts = np.array([[0.3, -0.7], [1.2, 0.4], [0.0, 0.0]])
    x, y = pts[:, 0], pts[:, 1]
    # grad [x^2/2 + y^2/2 + 0.05 x^2 y^2] = (x + 0.1 x y^2, y + 0.1 x^2 y)
    expected = np.stack([x + 0.1 * x * y**2, y + 0.1 * x**2 * y], axis=1)
    npt.assert_allclose(pot.gradient_points(pts), expected, atol=1e-14)
    for p, g in zip(pts, expected):
        npt.assert_allclose(pot.kernel().gradient(*p.tolist()), g, atol=1e-14)


def test_1d_run_matches_its_2d_embedding(ho):
    # the 1-D path holds y = py = 0 in the shared 2-D stepper, so an x-only
    # orbit of the separable 2-D oscillator must repeat it to the bit
    planar = ActionSpec(
        mass=1.0, potential=PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5}), hbar=1.0
    )
    line = integrate_realtime(ho, PhaseState((0.8,), (-0.2,)), 1.0, 1e-3, store_every=100)
    plane = integrate_realtime(
        planar, PhaseState((0.8, 0.0), (-0.2, 0.0)), 1.0, 1e-3, store_every=100
    )
    assert len(line) == len(plane) == 11
    for a, b in zip(line, plane):
        assert a.position == b.position[:1] and a.momentum == b.momentum[:1]
        assert b.position[1] == 0.0 and b.momentum[1] == 0.0


def test_sampling_and_rows(ho):
    s0 = PhaseState((1.0,), (0.0,))
    states = integrate_realtime(ho, s0, 0.01, 1e-3, store_every=4)
    every = integrate_realtime(ho, s0, 0.01, 1e-3)
    # steps 0, 4 and 8, then the final step 10
    assert len(states) == 4
    assert states == [every[k] for k in (0, 4, 8, 10)]
    assert states[0] == s0


# -- the generated step loop against a plain Forest-Ruth loop ----------------

THETA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))


def reference_states(action, state, dt, n):
    """States after steps 1..n of a plain Forest-Ruth loop on kernel().gradient."""
    grad = action.potential.kernel().gradient
    if action.dimension == 1:
        grad_x = grad
        grad = lambda x, y: (*grad_x(x), 0.0)
    m_inv = 1.0 / action.mass
    c1, c2 = THETA / 2.0 * dt * m_inv, (1.0 - THETA) / 2.0 * dt * m_inv
    d1, d2 = THETA * dt, (1.0 - 2.0 * THETA) * dt
    x, y, px, py = state
    out = []
    for _ in range(n):
        for c, d in ((c1, d1), (c2, d2), (c2, d1)):
            x += c * px
            y += c * py
            gx, gy = grad(x, y)
            px -= d * gx
            py -= d * gy
        x += c1 * px
        y += c1 * py
        out.append((x, y, px, py))
    return out


def bits(state):
    return tuple(v.hex() for v in state)


def step_loops(*key):
    """The step loop of ``key`` on both back-ends: the cached one, compiled
    where a C compiler is on PATH, and one built with the compiler hidden."""
    loop = _step_loop(*key)
    assert loop.backend == ("c" if COMPILER else "python")
    with mock.patch("shutil.which", return_value=None):
        python = _build_step_loop(key)
    assert python.backend == "python"
    return loop, python


@st.composite
def actions_and_states(draw):
    dimension = draw(st.sampled_from([1, 2]))
    terms = {
        exp: draw(st.floats(-2.0, 2.0))
        for exp in itertools.product(range(5), repeat=dimension)
        if sum(exp) <= 4 and draw(st.booleans())
    }
    action = ActionSpec(mass=draw(st.floats(0.1, 10.0)), potential=PolynomialPotential(dimension, terms))
    coordinate = st.floats(-1.5, 1.5)
    position = draw(st.tuples(*[coordinate] * dimension))
    momentum = draw(st.tuples(*[coordinate] * dimension))
    state = (*position, 0.0)[:2] + (*momentum, 0.0)[:2]
    return action, state, draw(st.floats(1e-5, 1e-2))


@settings(max_examples=80, deadline=None)
@given(actions_and_states(), st.integers(1, 60))
def test_step_loop_matches_plain_forest_ruth_bitwise(case, n):
    action, state, dt = case
    pot = action.potential
    expected = reference_states(action, state, dt, n)
    for loop in step_loops(pot.dimension, pot.terms, action.mass, dt, 1):
        k, before, after = loop(n, math.nan, *state)
        assert k == n
        assert bits(after) == bits(expected[-1])
        assert bits(before) == bits(expected[-2] if n > 1 else state)
    if action.dimension == 2:
        s0 = PhaseState(state[:2], state[2:])
        if not all(map(math.isfinite, expected[-1])):
            # the orbit of a non-confining potential diverged: no PhaseState holds it
            with pytest.raises(ValueError, match="finite"):
                integrate_realtime(action, s0, n * dt, dt, store_every=7)
            return
        end = integrate_realtime(action, s0, n * dt, dt, store_every=7)[-1]
        assert bits(end.position + end.momentum) == bits(expected[-1])


# -- crossings: where the loop returns and what the section records ----------


@pytest.mark.parametrize("py0", [0.9, -0.9], ids=["up", "down"])
def test_step_landing_on_the_plane_takes_the_side_it_left(coupled_2d, py0):
    """With c set to the exact y of step k, g_new == 0 there; the crossing is
    up or down by the side the step left, whichever side it lands on."""
    start = (0.3, 0.0, 0.5, py0)
    k = 40
    ref = reference_states(coupled_2d, start, 1e-3, k)
    c = ref[k - 1][1]
    pot = coupled_2d.potential
    for loop in step_loops(2, pot.terms, 1.0, 1e-3, 1):
        steps, before, after = loop(10**6, c, *start)
        assert steps == k and after[1] == c
        assert bits(before) == bits(ref[k - 2]) and bits(after) == bits(ref[k - 1])
        # moving on from the plane is no second crossing
        assert loop(5, c, *after)[0] == 5

    orient = 1 if py0 > 0 else -1
    spec = SectionSpec(
        energy=0.0, dt=1e-3, max_crossings=1, plane_value=c, orientation=orient, energy_convention="absolute",
    )
    s0 = PhaseState(start[:2], start[2:])
    (point,) = _orbit_crossings(coupled_2d, spec, hamiltonian_energy(coupled_2d, s0), s0)
    x, y, px, py = ref[k - 2]
    x_c, px_c, _ = _henon_refine(x, y, px, py, 1.0, pot.kernel().gradient, 1, c)
    assert (point[0], point[1]) == (x_c, px_c)


def test_max_steps_counts_every_step_across_returns(coupled_2d):
    start = (0.3, 0.0, 0.5, 0.9)
    crossings = 3
    last, up_crossings = None, 0
    states = [start] + reference_states(coupled_2d, start, 1e-3, 30000)
    for step in range(1, len(states)):
        if states[step - 1][1] < 0.0 <= states[step][1]:
            up_crossings += 1
            if up_crossings == crossings:
                last = step
                break
    assert last is not None
    s0 = PhaseState(start[:2], start[2:])
    spec = SectionSpec(
        energy=hamiltonian_energy(coupled_2d, s0), dt=1e-3,
        max_crossings=crossings, energy_convention="absolute", max_steps=last,
    )
    assert len(generate_section(coupled_2d, spec, (s0,)).orbits[0]) == crossings
    with pytest.raises(NumericalError, match="did not reach"):
        generate_section(coupled_2d, dataclasses.replace(spec, max_steps=last - 1), (s0,))


# -- the compiled back-end and its Python fallback ---------------------------


def test_step_count_beyond_its_bound_is_refused_before_stepping(coupled_2d, monkeypatch):
    """round(T/dt) may reach MAX_STEPS = 2**62 and no further: ctypes would wrap
    a count beyond a C long long silently (2**64 + 3 arrives as 3)."""
    calls = []

    def fake_loop(*key):
        def loop(n, c, x, y, px, py):
            calls.append(n)
            return n, (x, y, px, py), (x, y, px, py)
        return loop

    monkeypatch.setattr(trajectory, "_step_loop", fake_loop)
    s0 = PhaseState((0.3, 0.0), (0.5, 0.9))
    dt = 2.0**-10  # T/dt below is exact
    T = MAX_STEPS * dt
    assert len(integrate_realtime(coupled_2d, s0, T, dt, store_every=MAX_STEPS)) == 2
    assert calls == [MAX_STEPS]
    too_many = [(math.nextafter(T, math.inf), dt), (1e17, 1e-3), (math.inf, dt), (math.nan, dt), (1.0, 5e-324)]
    for T_bad, dt_bad in too_many:
        with pytest.raises(ValueError):
            integrate_realtime(coupled_2d, s0, T_bad, dt_bad)
    assert calls == [MAX_STEPS]


def test_kept_loops_are_dropped_past_their_bound_and_requests_still_served(monkeypatch):
    """Each key's loop is built once while it is kept; the key past the
    bound drops the kept ones, and a dropped key is built again on request."""
    built = []

    def fake_build(key):
        built.append(key)
        return f"loop {key[0]}"

    monkeypatch.setattr(trajectory, "_STEP_LOOPS", {})
    monkeypatch.setattr(trajectory, "_build_step_loop", fake_build)
    bound = trajectory._MAX_KEPT_LOOPS
    keys = [(k, (), 1.0, 1e-3, 1) for k in range(bound + 1)]
    assert [_step_loop(*key) for key in keys[:bound]] == [f"loop {k}" for k in range(bound)]
    assert [_step_loop(*keys[k]) for k in (0, 0, 5)] == ["loop 0", "loop 0", "loop 5"]
    assert built == keys[:bound]
    assert _step_loop(*keys[bound]) == f"loop {bound}" and len(trajectory._STEP_LOOPS) == 1
    assert _step_loop(*keys[3]) == "loop 3"
    assert built[bound:] == [keys[bound], keys[3]] and len(trajectory._STEP_LOOPS) == 2


def _coupled_run(loop):
    return loop(5000, math.nan, 1.5, 0.3, 0.0, 2.0)


def test_hidden_compiler_runs_the_python_loop_with_the_same_bits(coupled_2d, monkeypatch):
    key = (2, coupled_2d.potential.terms, 1.0, 1e-3, 1)
    expected = _coupled_run(_step_loop(*key))
    monkeypatch.setattr(shutil, "which", lambda name: None)
    loop = _build_step_loop(key)
    assert loop.backend == "python"
    assert _coupled_run(loop) == expected


def test_failed_build_runs_the_python_loop(coupled_2d, monkeypatch, tmp_path):
    key = (2, coupled_2d.potential.terms, 1.0, 1e-3, 1)
    expected = _coupled_run(_step_loop(*key))
    false = shutil.which("false")
    monkeypatch.setattr(shutil, "which", lambda name: false)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    loop = _build_step_loop(key)
    assert loop.backend == "python"
    assert _coupled_run(loop) == expected
    assert list(tmp_path.iterdir()) == []


def test_build_past_its_timeout_runs_the_python_loop(coupled_2d, monkeypatch, tmp_path):
    hanging = tmp_path / "cc"
    hanging.write_text("#!/bin/sh\nexec sleep 30\n")
    hanging.chmod(0o755)
    monkeypatch.setattr(shutil, "which", lambda name: str(hanging))
    monkeypatch.setattr(trajectory, "C_BUILD_TIMEOUT_S", 0.2)
    loop = _build_step_loop((2, coupled_2d.potential.terms, 1.0, 1e-3, 1))
    assert loop.backend == "python"


def test_compiled_loop_that_differs_from_python_is_refused(coupled_2d):
    """The probe compares bits: a loop built for another dt is not taken."""
    terms = coupled_2d.potential.terms
    other_dt = _python_loop(_step_statements(2, terms, 1.0, 2e-3), "y")
    assert _c_loop(_step_statements(2, terms, 1.0, 1e-3), "y", other_dt) is None


@pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")
def test_c_build_leaves_no_file_behind(coupled_2d, monkeypatch, tmp_path):
    """A build on an empty cache runs in a temporary directory of the system,
    removed again, and leaves only its library in the cache."""
    import subprocess

    scratch, popen, outputs = tmp_path / "tmp", subprocess.Popen, []
    scratch.mkdir()

    def recorded(argv, **kwargs):
        outputs.append(argv[argv.index("-o") + 1])
        return popen(argv, **kwargs)

    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr(subprocess, "Popen", recorded)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    loop = _build_step_loop((2, coupled_2d.potential.terms, 1.0, 1e-3, 0))
    assert loop.backend == "c"
    assert [os.path.dirname(os.path.dirname(path)) for path in outputs] == [str(scratch)]
    assert list(scratch.iterdir()) == []
    (kept,) = (tmp_path / "cache" / "qaction").iterdir()
    assert kept.name.startswith("loops-") and kept.suffix == ".so"


# -- the user cache of compiled loops -----------------------------------------


def _cache_key(coupled_2d, dt):
    """A key whose source no other test builds: its cache path is its own."""
    return (2, coupled_2d.potential.terms, 1.0, dt, 1)


def _no_compiler(*args, **kwargs):
    raise AssertionError("the compiler was called")


@pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_a_damaged_kept_library_is_built_again_with_the_same_bits(coupled_2d, monkeypatch, tmp_path, damage):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    key = _cache_key(coupled_2d, 1.25e-3 if damage == "truncated" else 1.5e-3)
    expected = _coupled_run(_build_step_loop(key))
    (kept,) = (tmp_path / "qaction").iterdir()
    assert kept.name.startswith("loops-") and kept.suffix == ".so"
    assert kept.stat().st_mode & 0o777 == 0o600
    good = kept.read_bytes()
    kept.unlink()  # a new file: the loaded library's mapping stays intact
    bad = good[: len(good) // 2] if damage == "truncated" else b"not a shared library"
    kept.write_bytes(bad)
    loop = _build_step_loop(key)
    assert loop.backend == "c" and _coupled_run(loop) == expected
    assert [p.name for p in (tmp_path / "qaction").iterdir()] == [kept.name]
    assert kept.read_bytes() != bad
    monkeypatch.setattr("subprocess.Popen", _no_compiler)
    loop = _build_step_loop(key)
    assert loop.backend == "c" and _coupled_run(loop) == expected


@pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("flaw", ["group-writable", "not owned"])
def test_a_cache_others_may_write_or_own_is_not_used(coupled_2d, monkeypatch, tmp_path, flaw):
    cache = tmp_path / "xdg" / "qaction"
    cache.mkdir(parents=True)
    if flaw == "group-writable":
        cache.chmod(0o777)
    else:
        monkeypatch.setattr("os.getuid", lambda uid=os.getuid(): uid + 1)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    loop = _build_step_loop(_cache_key(coupled_2d, 1.75e-3))
    assert loop.backend == "c"
    assert list(cache.iterdir()) == [] and list(scratch.iterdir()) == []


@pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("xdg, home", [(None, None), ("relative", None), (None, "relative"), ("", "")])
def test_no_absolute_cache_path_writes_nothing(coupled_2d, monkeypatch, tmp_path, xdg, home):
    """XDG_CACHE_HOME and HOME count only as absolute paths; with neither,
    nothing is kept, in the working directory or anywhere else."""
    for name, value in (("XDG_CACHE_HOME", xdg), ("HOME", home)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    cwd, scratch = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    scratch.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    loop = _build_step_loop(_cache_key(coupled_2d, 2.25e-3))
    assert loop.backend == "c"
    assert list(cwd.iterdir()) == [] and list(scratch.iterdir()) == []


@pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")
def test_no_getuid_keeps_nothing(coupled_2d, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delattr("os.getuid")
    assert _build_step_loop(_cache_key(coupled_2d, 2.5e-3)).backend == "c"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("kept", [trajectory._MAX_KEPT_LOOPS - 1, trajectory._MAX_KEPT_LOOPS])
def test_the_library_past_the_bound_clears_the_cache(coupled_2d, monkeypatch, tmp_path, kept):
    """Up to ``_MAX_KEPT_LOOPS`` files are kept, a part file that a killed
    run left among them; before one more is kept, every one goes, and
    nothing else in the directory."""
    cache = tmp_path / "qaction"
    cache.mkdir(mode=0o700)
    for i in range(kept):
        (cache / (f"loops-{i:064x}.so" if i else "loops-killed.part")).write_bytes(b"")
    (cache / "other.txt").write_text("not a loop")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _build_step_loop(_cache_key(coupled_2d, 2.75e-3)).backend == "c"
    left = sorted(p.name for p in cache.glob("loops-*"))
    if kept < trajectory._MAX_KEPT_LOOPS:
        assert len(left) == kept + 1 and "loops-killed.part" in left
    else:
        assert len(left) == 1 and left[0].endswith(".so") and left[0] != f"loops-{1:064x}.so"
    assert (cache / "other.txt").exists()
