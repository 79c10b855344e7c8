import math

import numpy as np
import pytest

from qaction import (
    ActionSpec,
    FitProblem,
    Grid,
    PolynomialPotential,
    PropagatorTable,
    ScaleTransform,
    apply_scale_transform,
    euclidean_propagate,
    fit_flow,
    fit_quantum_action,
    flow_rows,
    quantum_action_log_norm_sq,
    solve_euclidean_bvp,
    tensor_pairs,
)
from qaction import qfit
from qaction.qfit import (
    FLOW_CSV_HEADER,
    _confinement_violation,
    _EvalDetail,
    _Evaluator,
    _fit_diagnostics,
    _trial_from_theta,
)


@pytest.fixture(scope="module")
def ho_spec():
    return ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5}), hbar=1.0)


@pytest.fixture(scope="module")
def ho_table_t1(ho_spec):
    grid = Grid((8.0,), (3201,))
    pts = [(x,) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    return euclidean_propagate(ho_spec, grid, 1.0, tensor_pairs(pts, pts))


def _fixed_offset_objective(det, log_z):
    """The rms log residual of an evaluation taken with the offset ``log_z``
    in place of its free optimum."""
    return math.sqrt(float(np.mean((det.vector + det.log_z_free - log_z) ** 2)))


def test_true_action_residual_below_1e5(ho_spec, ho_table_t1):
    """With the exact trial action and the closed-form offset the log
    residual is pure discretization noise."""
    prob = FitProblem(classical=ho_spec, table=ho_table_t1, ansatz=((0,), (2,)))
    z = math.sqrt(1.0 / (2.0 * math.pi * math.sinh(1.0)))
    r = _fixed_offset_objective(_Evaluator(prob, 1025).detail(ho_spec), math.log(z))
    assert r < 1e-5


def test_wrong_stiffness_residual_much_larger(ho_spec, ho_table_t1):
    prob = FitProblem(classical=ho_spec, table=ho_table_t1, ansatz=((0,), (2,)))
    z = math.sqrt(1.0 / (2.0 * math.pi * math.sinh(1.0)))
    r_true = _fixed_offset_objective(_Evaluator(prob, 1025).detail(ho_spec), math.log(z))
    doubled = ActionSpec(
        mass=1.0, potential=PolynomialPotential(1, {(2,): 1.0}), hbar=1.0
    )
    r_bad = _Evaluator(prob, 1025).detail(doubled).objective
    assert r_bad > 1e2 * r_true


def _subtable(table, pairs):
    """The rows of ``table`` at ``pairs``."""
    index = dict(zip(table.pairs, table.amplitudes))
    return PropagatorTable(
        grid=table.grid, T=table.T, pairs=tuple(pairs), amplitudes=np.array([index[p] for p in pairs])
    )


def test_single_pair_residual_vanishes(ho_spec, ho_table_t1):
    prob = FitProblem(
        classical=ho_spec,
        table=_subtable(ho_table_t1, [((0.0,), (0.5,))]),
        ansatz=((0,), (2,)),
    )
    assert _Evaluator(prob, 257).detail(ho_spec).objective < 1e-13


def test_free_offset_is_optimal(ho_spec, ho_table_t1):
    prob = FitProblem(classical=ho_spec, table=ho_table_t1, ansatz=((0,), (2,)))
    det = _Evaluator(prob, 513).detail(ho_spec)
    r_free = det.objective
    z0 = math.log(math.sqrt(1.0 / (2.0 * math.pi * math.sinh(1.0))))
    scan = [_fixed_offset_objective(det, z0 + d) for d in np.linspace(-0.01, 0.01, 11)]
    assert r_free <= min(scan) + 1e-12


def test_log_norm_gauge_ho(ho_spec):
    # Phi = x^2/2 so the integral is sqrt(pi)
    val = quantum_action_log_norm_sq(ho_spec, Grid((16.0,), (3201,)))
    assert abs(val - 0.5 * math.log(math.pi)) < 1e-8


@pytest.fixture(scope="module")
def ho_tensor_table_t2(ho_spec):
    """Pairs with several distinct start points; single-start ladders leave
    (mass, stiffness) degenerate along a constant-amplitude manifold."""
    grid = Grid((8.0,), (1601,))
    pts = [(x,) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    return euclidean_propagate(ho_spec, grid, 2.0, tensor_pairs(pts, pts))


def test_ho_fit_recovers_parameters(ho_spec, ho_tensor_table_t2):
    prob = FitProblem(
        classical=ho_spec, table=ho_tensor_table_t2, ansatz=((0,), (2,)), fit_mass=True
    )
    res = fit_quantum_action(prob, n_nodes=(257, 513))
    assert res.converged
    assert abs(res.quantum.mass - 1.0) < 1e-3
    assert abs(res.quantum.potential.coefficient((2,)) - 0.5) < 1e-3
    assert res.rms_residual < 1e-5
    assert res.failed_pairs == ()


def test_fit_starts_from_perturbed_initial(ho_spec, ho_tensor_table_t2):
    prob = FitProblem(
        classical=ho_spec, table=ho_tensor_table_t2, ansatz=((0,), (2,)), fit_mass=True
    )
    start = ActionSpec(
        mass=1.3, potential=PolynomialPotential(1, {(2,): 0.4}), hbar=1.0
    )
    res = fit_quantum_action(prob, initial=start, n_nodes=(257, 513))
    assert abs(res.quantum.mass - 1.0) < 1e-3
    assert abs(res.quantum.potential.coefficient((2,)) - 0.5) < 1e-3


def test_fit_from_far_start(ho_spec, ho_tensor_table_t2):
    prob = FitProblem(
        classical=ho_spec, table=ho_tensor_table_t2, ansatz=((0,), (2,)), fit_mass=True
    )
    start = ActionSpec(mass=3.0, potential=PolynomialPotential(1, {(2,): 0.1}), hbar=1.0)
    res = fit_quantum_action(prob, initial=start, n_nodes=(257, 513))
    assert res.converged
    assert abs(res.quantum.mass - 1.0) < 1e-3
    assert abs(res.quantum.potential.coefficient((2,)) - 0.5) < 1e-3


def test_ho_fit_converges_in_few_evaluations(ho_spec):
    """Gauss-Newton on exact Jacobians: the large-T HO fit of the benchmark
    (81 pairs, fitted mass, 1025 nodes) needs at most 20 evaluations."""
    pts = [(-2.0 + 0.5 * k,) for k in range(9)]
    table = euclidean_propagate(ho_spec, Grid((8.0,), (1601,)), 8.0, tensor_pairs(pts, pts))
    prob = FitProblem(classical=ho_spec, table=table, ansatz=((0,), (2,)), fit_mass=True)
    res = fit_quantum_action(prob, n_nodes=1025)
    assert res.converged
    assert res.iterations <= 20
    assert abs(res.quantum.mass - 1.0) < 1e-3
    assert abs(res.quantum.potential.coefficient((2,)) - 0.5) < 1e-3
    assert abs(res.quantum.potential.coefficient((0,)) - 0.5) < 1e-3
    # at the optimum the gradient vanishes and the uncertainties are finite
    assert res.gradient_norm < 1e-8
    assert len(res.parameter_uncertainties) == 2
    assert all(0.0 < u < 1e-3 for u in res.parameter_uncertainties)


def _jacobian_and_differences(problem, theta, n_nodes, h=1e-5):
    """Envelope Jacobian of the projected residual and its central differences."""
    ev = _Evaluator(problem, n_nodes)
    det = ev.detail(_trial_from_theta(problem, theta))
    assert det.failed == ()
    fd = np.empty_like(det.jacobian)
    for j in range(len(theta)):
        step = np.zeros_like(theta)
        step[j] = h
        up = ev.detail(_trial_from_theta(problem, theta + step)).vector
        down = ev.detail(_trial_from_theta(problem, theta - step)).vector
        fd[:, j] = (up - down) / (2.0 * h)
    return det.jacobian, fd


def _assert_columns_close(jac, fd, rtol=1e-6):
    for j in range(jac.shape[1]):
        assert np.max(np.abs(jac[:, j] - fd[:, j])) <= rtol * np.max(np.abs(fd[:, j]))


@pytest.mark.parametrize("n_nodes", [257, (129, 257)])
def test_jacobian_matches_differences_1d(ho_spec, ho_tensor_table_t2, n_nodes):
    prob = FitProblem(
        classical=ho_spec, table=ho_tensor_table_t2, ansatz=((0,), (2,)), fit_mass=True
    )
    jac, fd = _jacobian_and_differences(prob, np.array([math.log(1.2), 0.4]), n_nodes)
    assert jac.shape == (25, 2)
    _assert_columns_close(jac, fd)


def test_jacobian_matches_differences_tied_2d(coupled_2d):
    grid = Grid((3.0, 3.0), (31, 31))
    pts = [(0.0, 0.0), (0.6, 0.2), (-0.4, 0.6), (0.8, -0.8)]
    table = euclidean_propagate(coupled_2d, grid, 1.5, tensor_pairs(pts, pts))
    prob = FitProblem(
        classical=coupled_2d,
        table=table,
        ansatz=(((0, 0),), ((2, 0), (0, 2)), ((2, 2),)),
        fit_mass=True,
    )
    jac, fd = _jacobian_and_differences(prob, np.array([math.log(1.1), 0.45, 0.08]), 129)
    assert jac.shape == (16, 3)
    _assert_columns_close(jac, fd)


def test_flow_approaches_ground_energy_gauge(ho_spec):
    grid = Grid((8.0,), (1601,))
    ladder = [((0.0,), (0.25 * k,)) for k in range(9)]

    def make_problem(T):
        table = euclidean_propagate(ho_spec, grid, T, ladder)
        return FitProblem(
            classical=ho_spec, table=table, ansatz=((0,), (2,)), fit_mass=False
        )

    results = fit_flow(make_problem, [2.0, 4.0, 8.0], n_nodes=257)
    v0_err = [abs(r.quantum.potential.coefficient((0,)) - 0.5) for r in results]
    assert v0_err[0] > v0_err[1] > v0_err[2]
    assert v0_err[2] < 1e-3
    rows = flow_rows(results)
    assert len(rows) == 3
    assert len(rows[0]) == len(FLOW_CSV_HEADER)
    assert rows[0][0] == 2.0
    assert rows[0][4] == 0.0  # no v22 monomial in a 1-D ansatz


def test_flow_duplicate_time_is_stable(ho_spec):
    grid = Grid((8.0,), (1601,))
    ladder = [((0.0,), (0.25 * k,)) for k in range(9)]

    def make_problem(T):
        table = euclidean_propagate(ho_spec, grid, T, ladder)
        return FitProblem(
            classical=ho_spec, table=table, ansatz=((0,), (2,)), fit_mass=False
        )

    a, b = fit_flow(make_problem, [2.0, 2.0], n_nodes=257)
    assert abs(a.quantum.mass - b.quantum.mass) < 1e-12
    assert (
        abs(a.quantum.potential.coefficient((2,)) - b.quantum.potential.coefficient((2,)))
        < 1e-12
    )


def test_flow_validation(ho_spec, ho_table_t1):
    def make_problem(T):
        return FitProblem(classical=ho_spec, table=ho_table_t1, ansatz=((0,), (2,)))

    with pytest.raises(ValueError):
        fit_flow(make_problem, [1.0])
    with pytest.raises(ValueError):
        fit_flow(make_problem, [2.0, 1.0])
    with pytest.raises(ValueError):
        # make_problem returns tables at T=1 regardless of the request
        fit_flow(make_problem, [1.0, 2.0], n_nodes=257)


def test_symmetric_pairs_keep_antisymmetric_terms_silent():
    """Pair data closed under x<->y swap and per-axis parity cannot source
    swap-odd or parity-odd monomials; their fitted coefficients sit at the
    optimizer noise floor."""
    pot = PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05})
    act = ActionSpec(mass=1.0, potential=pot, hbar=1.0)
    grid = Grid((3.0, 3.0), (61, 61))

    def orbit(p):
        x, y = p
        pts = set()
        for a in (x, -x):
            for b in (y, -y):
                pts.add((a, b))
                pts.add((b, a))
        return sorted(pts)

    finals = sorted(set(orbit((0.2, 0.0)) + orbit((0.3, 0.1)) + orbit((0.5, 0.5))))
    pairs = [((0.0, 0.0), f) for f in finals]
    table = euclidean_propagate(act, grid, 2.0, pairs)
    prob = FitProblem(
        classical=act,
        table=table,
        ansatz=(((0, 0),), ((2, 0), (0, 2)), ((2, 2),), ((1, 1),), ((3, 1), (1, 3))),
        fit_mass=True,
    )
    res = fit_quantum_action(prob, n_nodes=129)
    bound = max(10.0 * res.rms_residual, 1e-8)
    assert abs(res.quantum.potential.coefficient((1, 1))) < bound
    assert abs(res.quantum.potential.coefficient((3, 1))) < bound
    assert abs(res.quantum.potential.coefficient((1, 3))) < bound
    # tied groups stay tied exactly
    assert res.quantum.potential.coefficient((2, 0)) == res.quantum.potential.coefficient((0, 2))
    # J is rank-deficient: the mass trades against the x^2 + y^2 and x^2 y^2
    # coefficients at no cost, so these three are undetermined; the two
    # antisymmetric coefficients stay determined
    mass, quadratic, quartic, xy, x3y = res.parameter_uncertainties
    assert mass == quadratic == quartic == math.inf
    assert 0.0 < xy < 1e-8 and 0.0 < x3y < 1e-8


def test_fit_quotes_the_minimum_of_a_tilted_trial():
    """No node of the coupled-fit grid (64 x 64 over [-6.3, 6.3]^2) sits at
    the tilted trial's minimum. The quoted potential_minimum is Newton's from
    the lowest node; a parabola per axis through the grid values read 1.6e-5
    above it."""
    terms = {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05, (1, 0): -0.4, (0, 1): 0.3, (1, 1): 0.1}
    tilted = ActionSpec(mass=1.0, potential=PolynomialPotential(2, terms), hbar=1.0)
    grid = Grid((6.3, 6.3), (64, 64))
    pts = [grid.snap(p) for p in ((0.0, 0.0), (0.6, -0.4), (-0.5, 0.7), (0.9, 0.3))]
    pairs = tuple(tensor_pairs(pts, pts))
    # amplitudes exp(-S) of the trial itself, so the fit starts at its optimum
    amps = [
        math.exp(-solve_euclidean_bvp(tilted, np.array(a), np.array(b), 1.0, n_nodes=129).action)
        for a, b in pairs
    ]
    table = PropagatorTable(grid=grid, T=1.0, pairs=pairs, amplitudes=np.array(amps))
    ansatz = (((0, 0),), ((2, 0), (0, 2)), ((2, 2),), ((1, 0),), ((0, 1),), ((1, 1),))
    prob = FitProblem(classical=tilted, table=table, ansatz=ansatz, fit_mass=False)
    res = fit_quantum_action(prob, n_nodes=129)
    assert res.rms_residual < 1e-8
    assert res.quantum.potential.coefficient((1, 0)) == pytest.approx(-0.4, abs=1e-6)
    z, vmin = res.quantum.potential.minimum(grid.nodes())
    assert np.min(np.abs(grid.nodes() - z).sum(axis=-1)) > 1e-2
    assert abs(res.potential_minimum - vmin) <= 1e-12


def test_scale_covariance_of_fit(ho_spec, ho_tensor_table_t2):
    """Fitting the alpha-transformed problem returns the transformed optimum."""
    grid = Grid((8.0,), (1601,))
    pts = [(x,) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    prob = FitProblem(
        classical=ho_spec, table=ho_tensor_table_t2, ansatz=((0,), (2,)), fit_mass=True
    )
    base = fit_quantum_action(prob, n_nodes=(257, 513))

    alpha = 2.0
    moved, t_new = apply_scale_transform(ho_spec, 2.0, ScaleTransform(alpha))
    table_s = euclidean_propagate(moved, grid, t_new, tensor_pairs(pts, pts))
    prob_s = FitProblem(classical=moved, table=table_s, ansatz=((0,), (2,)), fit_mass=True)
    scaled = fit_quantum_action(prob_s, n_nodes=(257, 513))

    assert abs(scaled.quantum.mass - base.quantum.mass / alpha) < 1e-6
    assert (
        abs(
            scaled.quantum.potential.coefficient((2,))
            - alpha * base.quantum.potential.coefficient((2,))
        )
        < 1e-6
    )


def test_problem_validation(ho_spec, ho_table_t1):
    with pytest.raises(ValueError):
        FitProblem(classical=ho_spec, table=ho_table_t1, ansatz=(((0,), (2,)),))
    with pytest.raises(ValueError):
        FitProblem(classical=ho_spec, table=ho_table_t1, ansatz=((2,), (2,)))
    with pytest.raises(ValueError):
        FitProblem(
            classical=ho_spec, table=ho_table_t1, ansatz=((-2,),)
        )
    # exponents are integers, not floats or bools, and the ansatz is not empty
    for ansatz in (((2.0,),), ((0,), (True,)), ((0,), [[2], 4]), ()):
        with pytest.raises(ValueError):
            FitProblem(classical=ho_spec, table=ho_table_t1, ansatz=ansatz)


def test_evaluation_cap(ho_spec, ho_tensor_table_t2):
    """Stopping at the cap is not convergence; the cap is a positive integer."""
    prob = FitProblem(classical=ho_spec, table=ho_tensor_table_t2, ansatz=((0,), (2,)), fit_mass=True)
    start = ActionSpec(mass=1.3, potential=PolynomialPotential(1, {(2,): 0.4}), hbar=1.0)
    res = fit_quantum_action(prob, initial=start, n_nodes=129, max_nfev=1)
    assert (res.iterations, res.converged, res.stop) == (1, False, "its evaluation limit")
    for max_nfev in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="max_nfev"):
            fit_quantum_action(prob, max_nfev=max_nfev)


def test_too_few_pairs_rejected(ho_spec, ho_table_t1):
    prob = FitProblem(
        classical=ho_spec,
        table=_subtable(ho_table_t1, [((0.0,), (0.5,)), ((0.0,), (1.0,)), ((0.5,), (1.0,))]),
        ansatz=((0,), (2,), (4,)),
        fit_mass=True,
    )
    with pytest.raises(ValueError):
        fit_quantum_action(prob)


def test_n_nodes_pair_validation(ho_spec, ho_table_t1):
    prob = FitProblem(classical=ho_spec, table=ho_table_t1, ansatz=((0,), (2,)))
    with pytest.raises(ValueError):
        _Evaluator(prob, (257, 511))
    with pytest.raises(ValueError):
        _Evaluator(prob, (257, 513, 1025))
    for n_nodes in (257.0, True, (129.0, 257)):
        with pytest.raises(ValueError):
            _Evaluator(prob, n_nodes)


def test_dimension_mismatch_rejected(ho_table_t1, coupled_2d):
    with pytest.raises(ValueError):
        FitProblem(classical=coupled_2d, table=ho_table_t1, ansatz=(((0, 0),),))


def test_diagnostics_of_a_tall_jacobian_stay_in_its_own_size():
    """The rank check on J of the largest pair table allocates of order J,
    not N x N (32 GiB at N = 2^16), and still finds a zero column."""
    import tracemalloc

    n = 2**16
    jac = np.random.default_rng(0).standard_normal((n, 3))
    jac[:, 2] = 0.0
    det = _EvalDetail(0.0, (), 1e-3 * np.ones(n), jac)
    tracemalloc.start()
    try:
        _, sigma, count = _fit_diagnostics(det, np.arange(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * jac.nbytes
    assert count == n
    assert math.isfinite(sigma[0]) and math.isfinite(sigma[1]) and sigma[2] == math.inf


def test_a_table_holding_every_pair_twice_quotes_the_uncertainties_of_each_pair_once():
    """A pair, its mirror and a repeat are one solve and one datum: entering
    every pair twice leaves the data count and the uncertainties as they are."""
    act = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5, (4,): 0.1}), hbar=1.0)
    grid = Grid((6.0,), (601,))
    pts = [(x,) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    once = [(a, b) for a, b in tensor_pairs(pts, pts) if a <= b]
    twice = once + [(b, a) for a, b in once]  # each mirror, and each diagonal pair again
    results = []
    for pairs in (once, twice):
        prob = FitProblem(
            classical=act, table=euclidean_propagate(act, grid, 1.0, pairs), ansatz=((0,), (2,)), fit_mass=True
        )
        results.append(fit_quantum_action(prob, n_nodes=129))
    single, double = results
    assert single.data_count == double.data_count == len(once) == 15
    assert double.to_json_dict()["data_count"] == 15
    assert all(0.0 < u < math.inf for u in single.parameter_uncertainties)
    assert double.parameter_uncertainties == pytest.approx(single.parameter_uncertainties, rel=1e-8)


@pytest.mark.parametrize(
    "dim, terms, leading, violation",
    [
        (1, {(2,): 0.5}, ((2, 0.5),), 0.0),
        (1, {(2,): 0.5, (4,): -2.0}, ((4, -2.0),), 3.0),
        (1, {(3,): 1.0}, ((3, 1.0),), 1.0),
        # no pure power: the constant is no leading power, so it adds nothing
        (1, {(0,): -3.0}, ((0, 0.0),), 1.0),
        (2, {(2, 0): 0.5, (0, 4): -1.5, (2, 2): 1.0}, ((2, 0.5), (4, -1.5)), 2.5),
        (2, {(0, 0): -1.0, (2, 2): 1.0}, ((0, 0.0), (0, 0.0)), 1.0),
        (2, {(2, 0): 1.0, (4, 0): -1.0, (0, 2): 1.0, (1, 3): -5.0}, ((4, -1.0), (2, 1.0)), 2.0),
    ],
)
def test_confinement_rule_reads_each_axis_leading_pure_power(dim, terms, leading, violation):
    pot = PolynomialPotential(dim, terms)
    assert pot.leading_powers() == leading
    assert pot.is_confining() == (violation == 0.0)
    assert _confinement_violation(pot) == violation


@pytest.fixture(scope="module")
def ho_table_801_t2(ho_spec):
    grid = Grid((8.0,), (801,))
    pts = [(x,) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    return euclidean_propagate(ho_spec, grid, 2.0, tensor_pairs(pts, pts))


def _count_penalties(monkeypatch) -> list:
    penalties, penalty = [], _Evaluator._penalty

    def counted(self, value, failed):
        penalties.append(value)
        return penalty(self, value, failed)

    monkeypatch.setattr(_Evaluator, "_penalty", counted)
    return penalties


def test_a_step_below_resolution_onto_a_penalty_is_not_taken(ho_spec, ho_table_801_t2, monkeypatch):
    """From x^2 coefficient 5 every step drives the x^4 coefficient below 0
    and is rejected, until the step falls below resolution; that step lands
    on a confinement penalty, and taking it made the fit raise "every
    boundary pair failed" (exit 3). The loop stops at its start instead, on
    the confinement boundary, and does not count that stop as converged."""
    prob = FitProblem(classical=ho_spec, table=ho_table_801_t2, ansatz=((0,), (2,), (4,)))
    start = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 5.0}))
    penalties = _count_penalties(monkeypatch)
    res = fit_quantum_action(prob, initial=start, n_nodes=129)
    assert penalties and all(p > qfit.PENALTY_FAILED for p in penalties)
    assert (res.converged, res.stop, res.failed_pairs) == (False, "the confinement boundary", ())
    assert res.gradient_norm > 1.0
    assert res.quantum.mass == 1.0
    assert res.quantum.potential.coefficient((2,)) == 5.0 and res.quantum.potential.coefficient((4,)) == 0.0
    assert res.rms_residual == pytest.approx(0.6426, rel=1e-3)


def test_fit_through_rejected_steps_and_penalties_reaches_the_optimum(ho_spec, ho_table_801_t2, monkeypatch):
    prob = FitProblem(classical=ho_spec, table=ho_table_801_t2, ansatz=((0,), (2,), (4,)))
    start = ActionSpec(mass=0.2, potential=PolynomialPotential(1, {(2,): 0.5, (4,): 2.0}))
    penalties = _count_penalties(monkeypatch)
    res = fit_quantum_action(prob, initial=start, n_nodes=129)
    assert len(penalties) >= 3
    assert res.converged and res.failed_pairs == ()
    assert abs(res.quantum.potential.coefficient((2,)) - 0.5) < 1e-4
    assert res.rms_residual < 1e-5


@pytest.mark.parametrize(
    "ansatz, initial",
    [
        (((0,), (2,), (4,)), {(2,): -0.5, (4,): -1.0}),
        (((0,), (2,), (4,)), {(2,): 0.5, (3,): 1.0, (4,): -1.0}),
        # the classical start has no x^4 term to carry over
        (((0,), (4,)), None),
    ],
)
def test_a_start_that_is_not_confining_is_refused_before_any_solve(ho_spec, ho_table_801_t2, monkeypatch, ansatz, initial):
    """Such a start is a penalty with a zero Jacobian: the loop stopped on it
    at once and the fit raised "every boundary pair failed" (exit 3)."""
    def no_solve(*args, **kwargs):
        raise AssertionError("trajectory solve reached from a non-confining start")

    monkeypatch.setattr(qfit, "solve_euclidean_bvp", no_solve)
    prob = FitProblem(classical=ho_spec, table=ho_table_801_t2, ansatz=ansatz)
    start = None if initial is None else ActionSpec(mass=1.0, potential=PolynomialPotential(1, initial))
    with pytest.raises(ValueError, match="not confining"):
        fit_quantum_action(prob, initial=start, n_nodes=129)
