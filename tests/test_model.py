import itertools
import json
import math
import pickle

import numpy as np
import numpy.testing as npt
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaction import (
    ActionSpec,
    Grid,
    PolynomialPotential,
    ScaleTransform,
    apply_scale_transform,
)
from qaction.model import _bisect_root, _symmetric_eigh


def test_evaluate_coupled_2d_at_unit_point():
    pot = PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05})
    assert pot((1.0, 1.0)) == pytest.approx(1.05, abs=1e-15)


def test_evaluate_origin_without_constant_term_is_zero():
    pot = PolynomialPotential(2, {(2, 0): 0.3, (2, 2): 0.7})
    assert pot((0.0, 0.0)) == 0.0


def test_evaluate_ho_at_two():
    pot = PolynomialPotential(1, {(2,): 0.5})
    assert pot((2.0,)) == pytest.approx(2.0, abs=1e-15)
    # a bare real is a 1-D point, numpy scalars and arrays of one coordinate too
    for point in (2.0, 2, np.float32(2.0), np.int64(2), [2.0], np.array([2.0])):
        assert pot(point) == pot((2.0,))


def test_evaluation_linear_in_coefficients():
    a = PolynomialPotential(1, {(2,): 0.4, (4,): 0.1})
    b = PolynomialPotential(1, {(0,): 0.2, (2,): 0.25})
    s = PolynomialPotential(1, {(0,): 0.2, (2,): 0.65, (4,): 0.1})
    for x in (-2.0, -0.3, 0.0, 1.7):
        assert s((x,)) == pytest.approx(a((x,)) + b((x,)), rel=1e-15)


def test_arity_mismatch_rejected():
    pot = PolynomialPotential(1, {(2,): 0.5})
    with pytest.raises(ValueError):
        pot((1.0, 1.0))
    for point in (np.ones((1, 1)), [[1.0]], (1.0, "1.0"), [1j], np.array([1.0 + 0j])):
        with pytest.raises(ValueError):
            pot(point)
    pot2 = PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5})
    for point in (np.ones((1, 2)), np.ones((2, 1)), [[1.0, 1.0]], [[1.0], [1.0]], (1.0, 1.0, 1.0), 1.0, np.ones(3)):
        with pytest.raises(ValueError):
            pot2(point)
    assert pot2(np.array([1.0, 2.0])) == pot2([np.float32(1.0), np.int64(2)]) == pot2((1.0, 2.0)) == 2.5
    with pytest.raises(ValueError):
        PolynomialPotential(1, {(2, 0): 0.5})


def test_confining_flag_validates_leading_terms():
    PolynomialPotential(1, {(2,): 0.5}, confining=True)
    with pytest.raises(ValueError):
        PolynomialPotential(1, {(2,): -0.5}, confining=True)
    with pytest.raises(ValueError):
        PolynomialPotential(1, {(3,): 0.5}, confining=True)
    # a 2-D potential confined along one axis only is rejected
    with pytest.raises(ValueError):
        PolynomialPotential(2, {(2, 0): 0.5}, confining=True)


def test_confining_potential_grows_along_each_axis():
    pot = PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05})
    assert pot.is_confining()
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = 1.0
        assert pot(tuple(1e3 * e)) > pot(tuple(1e2 * e))


def test_action_spec_validation():
    pot = PolynomialPotential(1, {(2,): 0.5})
    with pytest.raises(ValueError):
        ActionSpec(mass=0.0, potential=pot, hbar=1.0)
    with pytest.raises(ValueError):
        ActionSpec(mass=1.0, potential=pot, hbar=-1.0)
    # positive and finite, but 1/m overflows
    with pytest.raises(ValueError, match="reciprocal"):
        ActionSpec(mass=1e-310, potential=pot, hbar=1.0)


@pytest.mark.parametrize(
    "terms",
    [{(2.5,): 1.0}, {(2,): 0.5, (True,): 0.5}, {(2,): "0.5"}, {(2,): True}, {(2,): 10**400}],
)
def test_non_integer_exponent_or_non_number_coefficient_rejected(terms):
    with pytest.raises(ValueError):
        PolynomialPotential(1, terms)


def test_one_input_rule_for_numbers_and_integers():
    pot = PolynomialPotential(1, {(2,): 0.5})
    for mass in (True, "1.0", [1.0], 10**400, math.nan):
        with pytest.raises(ValueError):
            ActionSpec(mass=mass, potential=pot)
    for dim in (1.0, 1.5, True):
        with pytest.raises(ValueError):
            PolynomialPotential(dim, {(2,): 0.5})
    for npoints in (401.0, True):
        with pytest.raises(ValueError):
            Grid((8.0,), (npoints,))
    # numpy scalars are numbers and integers too
    spec = ActionSpec(mass=np.float32(2.0), potential=PolynomialPotential(np.int64(1), {(np.int64(2),): 1}))
    assert (spec.mass, spec.potential.terms) == (2.0, (((2,), 1.0),))
    assert Grid((np.float64(8.0),), (np.int32(401),)).npoints == (401,)
    for mass in (np.float16(2.0), np.float32(2.0), np.longdouble(2.0), np.int8(2), np.uint64(2)):
        assert ActionSpec(mass=mass, potential=pot).mass == 2.0
    for dim in (np.int8(1), np.uint16(1), np.int64(1)):
        assert PolynomialPotential(dim, {(2,): 0.5}).dimension == 1
    # numpy's bool and complex values are neither numbers nor integers here
    for mass in (np.bool_(True), 1 + 0j, np.complex128(1.0), np.str_("1.0")):
        with pytest.raises(ValueError):
            ActionSpec(mass=mass, potential=pot)
    for dim in (np.bool_(True), np.float64(1.0), 1 + 0j):
        with pytest.raises(ValueError):
            PolynomialPotential(dim, {(2,): 0.5})


@pytest.mark.parametrize(
    "terms",
    [
        {(2, 0): 0.5, (0, 4): 1e308},  # dV/dy overflows
        {(2, 0): 0.5, (0, 2): 0.5, (0, 3): 5e307},  # only d2V/dy2 overflows
        {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 6e307},  # only d2V/dxdy overflows
    ],
)
def test_overflowing_derivative_coefficient_rejected(terms):
    with pytest.raises(ValueError, match="overflows"):
        PolynomialPotential(2, terms)


def test_derivative_and_gradient():
    pot = PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05})
    gx = pot.derivative(0)
    # d/dx [x^2/2 + 0.05 x^2 y^2] = x + 0.1 x y^2
    assert gx((2.0, 3.0)) == pytest.approx(2.0 + 0.1 * 2.0 * 9.0)
    npt.assert_allclose(pot.gradient_points([1.0, -1.0]), [1.0 + 0.1, -1.0 - 0.1], rtol=1e-15)


def test_scale_transform_ho_example():
    ho = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5}), hbar=1.0)
    scaled, t_new = apply_scale_transform(ho, 2.0, ScaleTransform(2.0))
    assert scaled.mass == pytest.approx(0.5)
    assert scaled.potential.coefficient((2,)) == pytest.approx(1.0)
    assert t_new == pytest.approx(1.0)


def test_scale_transform_identity_and_inverse():
    ho = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5}), hbar=1.0)
    same, t_same = apply_scale_transform(ho, 3.0, ScaleTransform(1.0))
    assert same.mass == ho.mass and t_same == 3.0
    fwd, t_fwd = apply_scale_transform(ho, 3.0, ScaleTransform(0.5))
    back, t_back = apply_scale_transform(fwd, t_fwd, ScaleTransform(0.5).inverse())
    assert back.mass == pytest.approx(ho.mass, rel=1e-15)
    assert back.potential.coefficient((2,)) == pytest.approx(0.5, rel=1e-15)
    assert t_back == pytest.approx(3.0, rel=1e-15)
    with pytest.raises(ValueError):
        ScaleTransform(-1.0)


@pytest.mark.parametrize("alpha", [True, "2", math.inf, math.nan])
def test_scale_transform_alpha_is_a_number(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ScaleTransform(alpha)


def test_json_round_trip_canonical_order():
    pot = PolynomialPotential(2, {(2, 2): 0.05, (0, 2): 0.5, (2, 0): 0.5})
    act = ActionSpec(mass=2.0, potential=pot, hbar=0.5)
    data = json.loads(json.dumps(act.to_json_dict()))
    exps = [tuple(t["exp"]) for t in data["potential"]["terms"]]
    assert exps == sorted(exps)
    back = ActionSpec.from_json_dict(data)
    assert back == act


def test_constant_term_never_affects_forces():
    base = PolynomialPotential(1, {(2,): 0.5})
    lifted = PolynomialPotential(1, {(2,): 0.5, (0,): 3.7})
    x = (1.3,)
    npt.assert_allclose(lifted.gradient_points(x), base.gradient_points(x), rtol=0, atol=0)
    assert lifted(x) == pytest.approx(base(x) + 3.7)


@st.composite
def confining_potentials(draw, dimension):
    """Even leading power on each axis plus random lower-order terms."""
    degree = draw(st.sampled_from([2, 4, 6]))
    terms = {}
    for exp in itertools.product(range(degree), repeat=dimension):
        if sum(exp) < degree and draw(st.booleans()):
            terms[exp] = draw(st.floats(-1.0, 1.0))
    for axis in range(dimension):
        lead = [0] * dimension
        lead[axis] = degree
        terms[tuple(lead)] = draw(st.floats(0.1, 2.0))
    return PolynomialPotential(dimension, terms, confining=True)


def naive_derivative(pot, point, orders, magnitude=False):
    """Monomial-by-monomial sum of d^orders V at point (or of its term sizes)."""
    total = 0.0
    for exp, coef in pot.terms:
        term = abs(coef) if magnitude else coef
        for x, e, k in zip(point, exp, orders):
            if e < k:
                term = 0.0
                break
            x = abs(x) if magnitude else x
            term *= math.perm(e, k) * x ** (e - k)
        total += term
    return total


def potentials_and_points(dimension):
    coordinate = st.floats(-2.0, 2.0)
    return st.tuples(
        confining_potentials(dimension), st.tuples(*[coordinate] * dimension)
    )


@pytest.mark.parametrize("dimension", [1, 2])
def test_kernel_matches_naive_sum_and_finite_differences(dimension):
    step = 1e-5

    @settings(max_examples=60, deadline=None)
    @given(potentials_and_points(dimension))
    def check(case):
        pot, point = case
        scale = 1.0 + naive_derivative(pot, point, (0,) * dimension, magnitude=True)
        assert abs(pot(point) - naive_derivative(pot, point, (0,) * dimension)) <= 1e-13 * scale
        grad = pot.gradient_points(point)
        hess = pot.hessian_points(point)
        for a in range(dimension):
            unit = np.eye(dimension)[a] * step
            orders = tuple(int(i == a) for i in range(dimension))
            assert abs(grad[a] - naive_derivative(pot, point, orders)) <= 1e-12 * scale
            central = (pot(point + unit) - pot(point - unit)) / (2.0 * step)
            assert abs(grad[a] - central) <= 1e-6 * scale
            hess_central = (
                pot.gradient_points(point + unit) - pot.gradient_points(point - unit)
            ) / (2.0 * step)
            for b in range(dimension):
                orders = tuple(int(i == a) + int(i == b) for i in range(dimension))
                assert hess[a, b] == hess[b, a]
                assert abs(hess[a, b] - naive_derivative(pot, point, orders)) <= 1e-12 * scale
                assert abs(hess[a, b] - hess_central[b]) <= 1e-5 * scale

    check()


@pytest.mark.parametrize("dimension", [1, 2])
def test_scalar_and_array_evaluation_agree_bitwise(dimension):
    @settings(max_examples=60, deadline=None)
    @given(potentials_and_points(dimension))
    def check(case):
        pot, point = case
        assert pot(point) == pot.evaluate_points([point])[0]

    check()


def test_constant_entries_broadcast_over_arrays():
    pot = PolynomialPotential(2, {(0, 0): 1.5, (2, 0): 0.5})
    pts = np.zeros((3, 4, 2))
    npt.assert_array_equal(pot.evaluate_points(pts), np.full((3, 4), 1.5))
    npt.assert_array_equal(pot.gradient_points(pts)[..., 1], np.zeros((3, 4)))
    hess = pot.hessian_points(pts)
    assert hess.shape == (3, 4, 2, 2)
    npt.assert_array_equal(hess[..., 0, 0], np.ones((3, 4)))
    npt.assert_array_equal(hess[..., 0, 1], np.zeros((3, 4)))
    free = PolynomialPotential(1, {})
    npt.assert_array_equal(free.evaluate_points(np.ones((5, 1))), np.zeros(5))


def test_potential_pickles_after_its_kernel_is_built():
    pot = PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05}, confining=True)
    value = pot((0.3, -1.1))
    back = pickle.loads(pickle.dumps(pot))
    assert back == pot and hash(back) == hash(pot)
    assert back((0.3, -1.1)) == value
    action = ActionSpec(mass=1.0, potential=pot, hbar=1.0)
    assert pickle.loads(pickle.dumps(action)) == action


@settings(max_examples=200, deadline=None)
@given(
    coefs=st.tuples(st.floats(0.01, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    root=st.floats(-3.0, 3.0),
    below=st.floats(1e-3, 5.0),
    above=st.floats(1e-3, 5.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_bisect_root_of_bracketed_monotone_polynomial(coefs, root, below, above, sign):
    """f = sign (p(x) - p(root)) with p = c1 x + c3 x^3 + c5 x^5 is monotone."""
    c1, c3, c5 = coefs

    def p(x):
        return c1 * x + c3 * x**3 + c5 * x**5

    def f(x):
        return sign * (p(x) - p(root))

    a, b = root - below, root + above
    x = _bisect_root(f, a, b)
    assert a <= x <= b
    fx = f(x)
    neighbours = (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
    assert fx == 0.0 or any(f(n) == 0.0 or (f(n) < 0.0) != (fx < 0.0) for n in neighbours)
    assert abs(x - scipy.optimize.brentq(f, a, b, xtol=1e-15)) <= 1e-14


def test_bisect_root_rejects_an_unbracketed_interval():
    with pytest.raises(ValueError):
        _bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


# -- the potential minimum ---------------------------------------------------


def _trust_exact_minimum(pot):
    """The minimum scipy's trust-region Newton finds from the origin start."""
    z = np.zeros(pot.dimension)
    curvature, directions = np.linalg.eigh(pot.hessian_points(z))
    if curvature[0] < 0.0:
        z = 1e-3 * directions[:, 0]
    res = scipy.optimize.minimize(
        pot, z, jac=pot.gradient_points, hess=pot.hessian_points,
        method="trust-exact", options={"gtol": 1e-12},
    )
    assert res.success, res.message
    return res.x


def _real_cubic_root(p, q):
    """The one real root of t^3 + p t + q = 0 for p > 0 (Cardano)."""
    s = math.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    return float(np.cbrt(-q / 2.0 + s) + np.cbrt(-q / 2.0 - s))


GRIDS = {1: Grid((7.0,), (5601,)), 2: Grid((6.3, 6.3), (64, 64))}


@pytest.mark.parametrize(
    "terms, closed_form",
    [
        # tilted quadratic: the minimum solves H z = -b
        (
            {(2, 0): 1.0, (0, 2): 0.7, (1, 1): 0.2, (1, 0): 0.3, (0, 1): -0.4},
            np.linalg.solve([[2.0, 0.2], [0.2, 1.4]], [-0.3, 0.4]),
        ),
        # double well, origin a saddle, tilted off both axes
        ({(2, 0): -0.5, (4, 0): 0.1, (0, 2): 0.5, (1, 1): 0.2, (0, 1): 0.05}, None),
        # the coupled oscillator
        ({(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05}, np.zeros(2)),
        # tilted quartic: the minimum is the real root of 4 x^3 + 0.4 x - 0.3
        ({(4,): 1.0, (2,): 0.2, (1,): -0.3}, np.array([_real_cubic_root(0.1, -0.075)])),
    ],
)
def test_minimum_matches_trust_region_newton(terms, closed_form):
    pot = PolynomialPotential(len(next(iter(terms))), terms)
    z, v = pot.minimum()
    if pot.dimension == 2:  # on the 1-D quartic trust-exact stops short at |V'| = 8e-11
        assert np.max(np.abs(z - _trust_exact_minimum(pot))) <= 1e-10
    assert np.max(np.abs(pot.gradient_points(z))) <= 1e-12
    assert np.linalg.eigvalsh(pot.hessian_points(z))[0] > 0.0
    assert v == pot(z)
    if closed_form is not None:
        # a single minimum: the start from the lowest grid node finds it too,
        # and its value is not below the true one beyond rounding
        for z, v in (pot.minimum(), pot.minimum(GRIDS[pot.dimension].nodes())):
            assert np.max(np.abs(z - closed_form)) <= 1e-14
            assert v >= pot(closed_form) - 2.0 * np.spacing(abs(pot(closed_form)))


def test_minimum_leaves_a_saddle_on_a_symmetry_line():
    """Started on y = 0, where V is even in y, gradient steps never leave the
    line; the minimum must still not be the line's saddle at y = 0."""
    pot = PolynomialPotential(
        2, {(2, 0): -1.0, (0, 2): -0.5, (4, 0): 0.3, (0, 4): 0.2, (2, 2): 0.1, (1, 0): 0.01}
    )
    z, v = pot.minimum()
    assert abs(z[1]) > 0.5
    assert np.max(np.abs(pot.gradient_points(z))) <= 1e-12
    assert np.linalg.eigvalsh(pot.hessian_points(z))[0] > 0.0
    assert v < pot((z[0], 0.0))


_ENTRIES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(_ENTRIES, _ENTRIES, _ENTRIES),
        st.tuples(_ENTRIES, st.just(0.0), _ENTRIES),  # already diagonal
        st.tuples(_ENTRIES, _ENTRIES).map(lambda ab: (ab[0], ab[1], ab[0])),  # equal diagonals
    )
)
@example((-2.0, 0.5, -3.0))  # negative definite
@example((1.0, 2.0, 1.0))  # indefinite, equal diagonals
@example((2.0, 0.0, 1.0))  # diagonal, out of order
@example((1.0, 0.0, 1.0))  # a multiple of the identity
@example((0.0, 0.0, 0.0))
@example((1.0, 1e-9, 1.0 + 1e-12))  # nearly degenerate
@example((0.0, 7.2e-171, 7.2e-171))  # entries whose squares underflow
def test_symmetric_eigh_matches_lapack(upper):
    """The closed-form 2x2 eigensolve of the minimum search against numpy's
    eigh: values to a few ulp of the matrix norm, orthonormal vectors, and a
    residual at rounding level."""
    a, b, c = upper
    h = np.array([[a, b], [b, c]])
    values, vectors = _symmetric_eigh(upper)
    reference = np.linalg.eigh(h)[0]
    eps, norm = np.finfo(float).eps, np.max(np.abs(h))  # the largest entry: a norm whose square cannot underflow
    tol = 8.0 * eps * norm + 1e-300
    assert values[0] <= values[1]
    assert np.max(np.abs(np.array(values) - reference)) <= tol
    v = np.array(vectors).T  # one eigenvector per column, as eigh returns them
    assert np.max(np.abs(v.T @ v - np.eye(2))) <= 4.0 * eps
    assert np.max(np.abs(h @ v - v * np.array(values))) <= 2.0 * tol


def test_symmetric_eigh_of_a_1x1_matrix():
    assert _symmetric_eigh((-3.5,)) == ((-3.5,), ((1.0,),))


@st.composite
def tilted_wells(draw, dimension):
    """Positive quadratic and quartic on each axis plus random terms of
    degree one to three, so every minimum is generically non-degenerate."""
    terms = {}
    for exp in itertools.product(range(4), repeat=dimension):
        if 0 < sum(exp) < 4 and exp not in terms and draw(st.booleans()):
            terms[exp] = draw(st.floats(-1.0, 1.0))
    for axis in range(dimension):
        for power in (2, 4):
            exp = tuple(power if a == axis else 0 for a in range(dimension))
            terms[exp] = draw(st.floats(0.1, 2.0))
    return PolynomialPotential(dimension, terms, confining=True)


@pytest.mark.parametrize("dimension", [1, 2])
def test_minimum_from_the_lowest_grid_node(dimension):
    grid = Grid((4.0,) * dimension, (81,) * dimension)
    nodes = grid.nodes()

    @settings(max_examples=100, deadline=None)
    @given(tilted_wells(dimension))
    def check(pot):
        z, v = pot.minimum(nodes)
        assert np.max(np.abs(pot.gradient_points(z))) <= 1e-12
        assert np.linalg.eigvalsh(pot.hessian_points(z))[0] > 0.0
        # no higher than the lowest node, up to the search's rounding allowance
        lowest = float(pot.evaluate_points(nodes).min())
        assert v <= lowest + 4e-15 * (1.0 + abs(lowest))

    check()
