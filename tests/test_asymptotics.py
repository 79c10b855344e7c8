import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from qaction import (
    ActionSpec,
    Grid,
    GroundStateInfo,
    NumericalError,
    PolynomialPotential,
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
from qaction.asymptotics import MAX_L

QUARTIC_E0 = 0.6679862592  # Richardson-extrapolated ground energy of V = x^4


@pytest.fixture(scope="module")
def ho_quantum():
    """The exact quantum action of the HO: classical shape plus hbar*omega/2."""
    return ActionSpec(
        mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5, (0,): 0.5}), hbar=1.0
    )


def test_ho_ground_state_extraction(ho_quantum):
    grid = Grid((8.0,), (1601,))
    info = ground_state_from_quantum_action(ho_quantum, grid)
    assert info.energy == pytest.approx(0.5, abs=1e-12)
    xs = grid.axes()[0]
    ref = np.exp(-0.5 * xs**2)
    ref /= math.sqrt(float(np.dot(grid.weights_flat(), ref**2)))
    npt.assert_allclose(info.psi, ref, atol=1e-10)
    assert info.source == "quantum-action"


def test_shifted_potential_covariance(ho_quantum):
    grid = Grid((8.0,), (1601,))
    base = ground_state_from_quantum_action(ho_quantum, grid)
    shifted = ActionSpec(
        mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5, (0,): 2.5}), hbar=1.0
    )
    info = ground_state_from_quantum_action(shifted, grid)
    assert info.energy == pytest.approx(base.energy + 2.0, abs=1e-12)
    npt.assert_allclose(info.psi, base.psi, atol=1e-12)


def test_offset_minimum_peak_coincidence():
    # quartic-confined well with its minimum pushed right of the origin
    pot = PolynomialPotential(1, {(4,): 0.2, (2,): 0.5, (1,): -0.9})
    act = ActionSpec(mass=1.0, potential=pot, hbar=1.0)
    grid = Grid((6.0,), (1201,))
    info = ground_state_from_quantum_action(act, grid)
    xs = grid.axes()[0]
    vs = pot.evaluate_points(xs[:, None])
    h = grid.spacing[0]
    assert abs(xs[np.argmax(info.psi)] - xs[np.argmin(vs)]) <= h + 1e-12
    assert info.energy <= vs.min() + 1e-12


def test_extraction_requires_confining_1d(coupled_2d):
    grid = Grid((6.0,), (321,))
    sliding = ActionSpec(
        mass=1.0, potential=PolynomialPotential(1, {(2,): -0.5}, confining=False), hbar=1.0
    )
    with pytest.raises(ValueError):
        ground_state_from_quantum_action(sliding, grid)
    with pytest.raises(ValueError):
        ground_state_from_quantum_action(coupled_2d, Grid((6.0, 6.0), (32, 32)))


def test_ground_state_info_validation(ho):
    grid = Grid((8.0,), (1601,))
    good = ground_state_spectral(ho, grid)
    with pytest.raises(ValueError):
        GroundStateInfo(grid=grid, energy=0.5, psi=-good.psi)
    with pytest.raises(ValueError):
        GroundStateInfo(grid=grid, energy=0.5, psi=2.0 * good.psi)
    other = ground_state_spectral(ho, Grid((8.0,), (801,)))
    with pytest.raises(ValueError):
        good.overlap(other)


def test_law_residual_vanishes_for_ho(ho, ho_quantum):
    for x in (-1.3, -0.4, 0.7, 2.0):
        assert abs(transformation_law_residual(ho, 0.5, ho_quantum, x)) < 1e-12
    xs = np.array([0.5, 1.5])
    res = transformation_law_residual(ho, 0.5, ho_quantum, xs)
    npt.assert_allclose(res, 0.0, atol=1e-12)


def test_law_residual_classical_limit():
    hb = 1e-9
    classical = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5}), hbar=hb)
    quantum = ActionSpec(
        mass=2.0, potential=PolynomialPotential(1, {(2,): 0.3, (0,): 0.1}), hbar=hb
    )
    x = 1.2
    res = transformation_law_residual(classical, 0.25, quantum, x)
    lhs = 2.0 * (0.5 * x**2 - 0.25)
    u = 2.0 * 2.0 * 0.3 * x**2
    assert abs(res - (lhs - u)) < 1e-6


def test_law_residual_errors(ho, ho_quantum):
    with pytest.raises(ValueError):
        transformation_law_residual(ho, 0.5, ho_quantum, 0.0)
    odd = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5, (1,): 0.1}), hbar=1.0)
    with pytest.raises(ValueError):
        transformation_law_residual(odd, 0.5, ho_quantum, 1.0)
    other_hbar = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5}), hbar=2.0)
    with pytest.raises(ValueError):
        transformation_law_residual(ho, 0.5, other_hbar, 1.0)


@pytest.mark.parametrize("npoints", [601, 2401, 9601])
def test_extraction_refuses_an_even_trial_with_its_minimum_off_the_origin(npoints):
    """V = x^4/4 - x^2 has mirrored minima at +-sqrt(2), and the state would
    peak in whichever one Newton's start rounds toward (+sqrt(2) on the first
    two grids, -sqrt(2) on the third). An even trial, as the law needs, must
    have its global minimum at the origin."""
    double_well = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(4,): 0.25, (2,): -1.0}))
    with pytest.raises(ValueError, match="minimum at the origin"):
        ground_state_from_quantum_action(double_well, Grid((4.0,), (npoints,)))


@pytest.mark.parametrize(
    "terms",
    [
        {(4,): 1.0, (2,): -1.0},  # double well, minima at +-1/sqrt(2)
        {(6,): 1.0, (4,): -1.5, (2,): 0.5},  # origin a local minimum, global one at +-0.888
        {(6,): 1.0, (4,): -1.0},  # origin a flat local maximum
    ],
)
def test_law_residual_rejects_a_trial_minimum_off_the_origin(ho, terms):
    """The law's sgn(x) form assumes the trial's global minimum at 0; any
    even trial that dips below V_t(0) elsewhere must not get a value."""
    trial = ActionSpec(mass=1.0, potential=PolynomialPotential(1, terms), hbar=1.0)
    with pytest.raises(ValueError, match="origin"):
        transformation_law_residual(ho, 0.5, trial, 2.0)


@pytest.mark.parametrize(
    "terms",
    [
        {(4,): 1.0},  # flat minimum at the origin
        {(6,): 1.0, (4,): -1.0, (2,): 0.3},  # a local minimum off the origin above V_t(0)
        {(0,): 2.0, (4,): 1.0, (6,): 1.0},
    ],
)
def test_law_residual_accepts_a_global_minimum_at_the_origin(ho, terms):
    trial = ActionSpec(mass=1.0, potential=PolynomialPotential(1, terms), hbar=1.0)
    assert math.isfinite(transformation_law_residual(ho, 0.5, trial, 2.0))


def test_law_residual_rejects_a_non_confining_trial(ho):
    trial = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5, (4,): -1.0}), hbar=1.0)
    with pytest.raises(ValueError, match="confining"):
        transformation_law_residual(ho, 0.5, trial, 0.3)


def test_invert_ho_gives_x_squared(ho):
    grid = Grid((3.0,), (481,))
    inv = invert_transformation_law(ho, 0.5, grid)
    xs = grid.axes()[0]
    npt.assert_allclose(inv.U, xs**2, atol=1e-8)
    npt.assert_allclose(inv.W, xs, atol=1e-8)
    npt.assert_allclose(inv.Phi, 0.5 * xs**2, atol=1e-8)


def test_invert_constant_potential():
    const = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(0,): 2.0}), hbar=1.0)
    inv = invert_transformation_law(const, 2.0, Grid((3.0,), (321,)))
    npt.assert_allclose(inv.U, 0.0, atol=1e-14)


def test_invert_energy_guards(ho):
    grid = Grid((4.0,), (641,))
    with pytest.raises(NumericalError, match="above"):
        invert_transformation_law(ho, 1.0, grid)
    with pytest.raises(NumericalError, match="below"):
        invert_transformation_law(ho, 0.0, grid)


def test_invert_grid_validation(ho):
    with pytest.raises(ValueError):
        invert_transformation_law(ho, 0.5, Grid((3.0,), (480,)))
    with pytest.raises(ValueError):
        invert_transformation_law(ho, 0.5, Grid((3.0, 3.0), (33, 33)))


def test_quartic_round_trip(quartic):
    grid = Grid((2.5,), (801,))
    inv = invert_transformation_law(quartic, QUARTIC_E0, grid)
    xs_out, res = transformation_law_residual_grid(inv)
    assert np.max(np.abs(res)) < 1e-6
    assert np.all(np.abs(xs_out) > 0.0)


def test_quartic_reconstruction_overlap(quartic):
    grid = Grid((2.5,), (401,))
    inv = invert_transformation_law(quartic, QUARTIC_E0, grid)
    spectral = ground_state_spectral(quartic, grid)
    assert inv.ground_state().overlap(spectral) >= 1.0 - 1e-6
    assert abs(inv.e_gr - spectral.energy) < 1e-3


def test_wkb_ho_quantum_form_exact(ho, ho_quantum):
    grid = Grid((8.0,), (8001,))
    rep = wkb_compare(ho, ground_state_from_quantum_action(ho_quantum, grid), 0.5)
    assert rep.distance_quantum < 1e-6
    assert rep.distance_classical > rep.distance_quantum
    assert rep.turning_point == pytest.approx(1.0, abs=1e-8)
    assert 0.0 < rep.excluded_fraction < 0.01


def test_wkb_quartic_inversion_form(quartic):
    grid = Grid((2.5,), (401,))
    inv = invert_transformation_law(quartic, QUARTIC_E0, grid)
    rep = wkb_compare(quartic, inv.ground_state(), QUARTIC_E0)
    assert rep.distance_quantum < 1e-3
    assert rep.distance_classical > rep.distance_quantum


def test_wkb_energy_window(ho, ho_quantum):
    state = ground_state_from_quantum_action(ho_quantum, Grid((8.0,), (801,)))
    with pytest.raises(ValueError):
        wkb_compare(ho, state, -0.1)
    with pytest.raises(ValueError):
        wkb_compare(ho, state, 1e9)


def test_hydrogen_l1_atomic_units():
    s = hydrogen_sector(1)
    assert s.mu == Fraction(1, 2)
    assert s.nu == Fraction(1, 2)
    assert s.energy == Fraction(-1, 8)
    assert s.r_min == 2
    assert s.bohr_radius == 1
    assert s.ionization_energy == Fraction(1, 2)


def test_hydrogen_l2():
    s = hydrogen_sector(2)
    assert s.energy == Fraction(-1, 18)
    assert s.r_min == 6
    assert s.mu == 2
    assert s.nu == Fraction(2, 3)


def test_hydrogen_exact_identities_through_l10():
    for l in range(1, 11):
        s = hydrogen_sector(l)
        assert s.energy == -s.ionization_energy / (l + 1) ** 2
        assert s.trial_potential_value(s.r_min) == s.energy
        assert s.r_min == s.bohr_radius * l * (l + 1)


def test_hydrogen_limits():
    energies = [hydrogen_sector(l).energy for l in range(1, 30)]
    assert all(e < 0 for e in energies)
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert hydrogen_sector(200).nu > Fraction(99, 100)


def test_hydrogen_wavefunction_peak():
    s = hydrogen_sector(3)
    r = float(s.r_min)
    assert s.wavefunction(r) > s.wavefunction(r * 0.99)
    assert s.wavefunction(r) > s.wavefunction(r * 1.01)


def test_hydrogen_units_scaling():
    s = hydrogen_sector(1, hbar=2, mass=3, e2=Fraction(1, 2))
    assert s.mu == Fraction(4, 6) * 1  # hbar^2 l^2 / 2m = 4/6
    assert s.nu == Fraction(1, 4)
    assert s.energy == -s.nu**2 / (4 * s.mu)


def test_hydrogen_validation():
    with pytest.raises(ValueError):
        hydrogen_sector(0)
    with pytest.raises(ValueError):
        hydrogen_sector(1.5)
    # integers only: neither a bool nor an integral float
    for l in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="angular momentum"):
            hydrogen_sector(l)
    with pytest.raises(ValueError):
        hydrogen_sector(1, e2=0)
    with pytest.raises(ValueError):
        hydrogen_table(0)
    with pytest.raises(ValueError, match=rf"\[1, {MAX_L}\]"):
        hydrogen_table(MAX_L + 1)


def test_hydrogen_table_rows():
    rows = hydrogen_table(3)
    assert rows == [
        [1, 0.5, 0.5, -0.125],
        [2, 2.0, pytest.approx(2.0 / 3.0), pytest.approx(-1.0 / 18.0)],
        [3, 4.5, 0.75, -0.03125],
    ]


def test_ground_state_norm_is_the_fits_log_z_pin():
    """-2 ln psi(0) is ln N^2, the integral quantum_action_log_norm_sq pins
    ln Z with; both read one settling action Phi (zero at the minimum x = 0)."""
    trial = ActionSpec(
        mass=1.0,
        potential=PolynomialPotential(1, {(0,): 0.42, (2,): 0.02, (4,): 0.25}, confining=True),
    )
    grid = Grid((7.0,), (5601,))
    state = ground_state_from_quantum_action(trial, grid)
    log_psi0 = math.log(state.psi[grid.index_of((0.0,))])
    assert abs(-2.0 * log_psi0 - quantum_action_log_norm_sq(trial, grid)) < 1e-14
