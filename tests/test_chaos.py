import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaction import (
    ActionSpec,
    NumericalError,
    PhaseState,
    PoincareSection,
    PolynomialPotential,
    SectionSpec,
    compare_sections,
    generate_section,
    hamiltonian_energy,
    orbit_thickness,
    section_initial_conditions,
    section_occupancy,
)
from qaction.chaos import _R2_ALPHA, MAX_ORBITS, MAX_START_INDEX, _allowed_boxes, _plane_extent
from qaction.trajectory import MAX_STEPS


@pytest.fixture(scope="module")
def coupled():
    pot = PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05})
    return ActionSpec(mass=1.0, potential=pot, hbar=1.0)


@pytest.fixture(scope="module")
def uncoupled_section():
    """Incommensurate uncoupled oscillator (wy = sqrt(2) wx): fully regular."""
    act = ActionSpec(
        mass=1.0, potential=PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 1.0}), hbar=1.0
    )
    spec = SectionSpec(energy=1.5, dt=2e-3, max_crossings=40, energy_convention="absolute")
    ics = section_initial_conditions(act, spec, 3)
    return act, ics, generate_section(act, spec, ics)


@pytest.fixture(scope="module")
def coupled_section_low(coupled):
    spec = SectionSpec(energy=2.0, dt=2e-3, max_crossings=60)
    return generate_section(coupled, spec, section_initial_conditions(coupled, spec, 4))


@pytest.fixture(scope="module")
def coupled_section_high(coupled):
    spec = SectionSpec(energy=30.0, dt=2e-3, max_crossings=60)
    return generate_section(coupled, spec, section_initial_conditions(coupled, spec, 4))


def test_uncoupled_crossings_on_invariant_ellipse(uncoupled_section):
    # x-motion decouples, so every crossing keeps px^2/2 + x^2/2 of its orbit
    _, ics, sec = uncoupled_section
    assert sec.n_points == 120
    for ic, pts in zip(ics, sec.orbits):
        pts = np.asarray(pts)
        e_x = ic.momentum[0] ** 2 / 2.0 + ic.position[0] ** 2 / 2.0
        dev = np.max(np.abs(pts[:, 1] ** 2 / 2.0 + pts[:, 0] ** 2 / 2.0 - e_x))
        assert dev < 1e-10


def test_uncoupled_orbits_are_thin(uncoupled_section):
    _, _, sec = uncoupled_section
    th = orbit_thickness(sec, n_angle_bins=8)
    assert len(th) == 3
    assert all(math.isfinite(t) for t in th)
    assert max(th) < 1e-10


def test_thickness_needs_enough_points(uncoupled_section):
    act, _, sec = uncoupled_section
    tiny = PoincareSection(
        spec=sec.spec,
        action_used=act,
        e_absolute=sec.e_absolute,
        orbits=(np.array([[0.0, 0.1], [0.1, 0.0], [0.05, 0.05]]),),
    )
    assert math.isnan(orbit_thickness(tiny)[0])


def test_section_rows_and_header(uncoupled_section):
    _, _, sec = uncoupled_section
    assert sec.csv_header() == ["orbit", "x", "px"]
    rows = list(sec.to_rows())
    assert len(rows) == sec.n_points
    assert rows[0][0] == 0 and rows[-1][0] == 2
    assert all(len(r) == 3 for r in rows)


def test_mirror_symmetry_is_exact(coupled):
    ics = section_initial_conditions(coupled, SectionSpec(energy=2.0), 1)
    mirrored = tuple(
        PhaseState(tuple(-x for x in s.position), tuple(-p for p in s.momentum))
        for s in ics
    )
    spec = SectionSpec(energy=2.0, dt=2e-3, max_crossings=20, orientation=-1)
    sec_a = generate_section(coupled, spec, ics)
    sec_b = generate_section(coupled, dataclasses.replace(spec, orientation=1), mirrored)
    for a, b in zip(sec_a.orbits, sec_b.orbits):
        assert np.max(np.abs(np.asarray(a) + np.asarray(b))) == 0.0


def test_plane_axis_0_is_the_swapped_plane_axis_1(coupled):
    """The coupled V is symmetric under x <-> y, so the section on x = c is
    the section on y = c with the coordinates swapped: the initial conditions
    bitwise, the crossings up to the rounding of the swapped step."""
    spec_y = SectionSpec(energy=2.0, dt=2e-3, max_crossings=20, plane_value=0.3, orientation=-1)
    spec_x = dataclasses.replace(spec_y, plane_axis=0)
    ics_y = section_initial_conditions(coupled, spec_y, 2)
    ics_x = section_initial_conditions(coupled, spec_x, 2)
    assert ics_x == tuple(PhaseState(s.position[::-1], s.momentum[::-1]) for s in ics_y)
    assert all(s.position[0] == 0.3 and s.momentum[0] < 0.0 for s in ics_x)
    sec_y = generate_section(coupled, spec_y, ics_y)
    sec_x = generate_section(coupled, spec_x, ics_x)
    assert sec_x.n_points == sec_y.n_points == 40
    assert sec_x.extent() == sec_y.extent()
    for a, b in zip(sec_x.orbits, sec_y.orbits):
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-10
    assert section_occupancy(sec_x, (16, 16)) == section_occupancy(sec_y, (16, 16))


def test_occupancy_grows_with_energy(coupled_section_low, coupled_section_high):
    occ_low = section_occupancy(coupled_section_low, (16, 16))
    occ_high = section_occupancy(coupled_section_high, (16, 16))
    assert 0.0 < occ_low < 1.0
    assert occ_high > occ_low


def test_compare_identical_sections(coupled_section_low):
    cmp = compare_sections(coupled_section_low, coupled_section_low, (16, 16))
    assert set(cmp) == {
        "occupancy_classical", "occupancy_quantum", "symmetric_difference", "points_classical",
        "points_quantum", "thickness_classical", "thickness_quantum",
    }
    assert cmp["symmetric_difference"] == 0.0
    assert cmp["occupancy_classical"] == cmp["occupancy_quantum"]
    assert cmp["points_classical"] == cmp["points_quantum"] == coupled_section_low.n_points
    assert cmp["thickness_classical"] == cmp["thickness_quantum"] == orbit_thickness(coupled_section_low)


def test_compare_rejects_mismatched_sections(coupled, coupled_section_low):
    ics = section_initial_conditions(coupled, SectionSpec(energy=2.0), 1)
    flipped = generate_section(
        coupled, SectionSpec(energy=2.0, dt=2e-3, max_crossings=10, orientation=-1), ics
    )
    with pytest.raises(ValueError, match="orientation"):
        compare_sections(coupled_section_low, flipped)
    other_conv = PoincareSection(
        spec=SectionSpec(energy=2.0, energy_convention="absolute"),
        action_used=coupled,
        e_absolute=2.0,
        orbits=(np.array([[0.1, 0.0]]),),
    )
    with pytest.raises(ValueError, match="convention"):
        compare_sections(coupled_section_low, other_conv)


def test_initial_conditions_deterministic(coupled):
    spec = SectionSpec(energy=2.0)
    a = section_initial_conditions(coupled, spec, 5)
    b = section_initial_conditions(coupled, spec, 5)
    assert a == b
    shifted = section_initial_conditions(coupled, spec, 5, start_index=7)
    assert shifted != a
    e_abs = 2.0 + coupled.potential((0.0, 0.0))
    for s in a:
        assert s.position[1] == 0.0
        assert s.momentum[1] > 0.0
        assert abs(hamiltonian_energy(coupled, s) - e_abs) < 1e-10
    down = section_initial_conditions(coupled, SectionSpec(energy=2.0, orientation=-1), 3)
    assert all(s.momentum[1] < 0.0 for s in down)


def test_initial_conditions_validation(coupled, ho):
    spec = SectionSpec(energy=2.0)
    with pytest.raises(ValueError):
        section_initial_conditions(ho, spec, 4)
    with pytest.raises(ValueError):
        section_initial_conditions(coupled, spec, 0)
    with pytest.raises(ValueError):
        section_initial_conditions(coupled, spec, 4, fill_fraction=1.0)
    for start_index in (-1, 2**32 + 1, 10**400, 1.0, True):
        with pytest.raises(ValueError, match="start_index"):
            section_initial_conditions(coupled, spec, 4, start_index=start_index)
    assert len(section_initial_conditions(coupled, spec, 2, start_index=2**32)) == 2
    with pytest.raises(ValueError, match="does not reach"):
        section_initial_conditions(
            coupled, SectionSpec(energy=0.5, plane_value=10.0, energy_convention="absolute"), 2
        )
    for energy, convention in ((0.0, "above-minimum"), (-0.5, "absolute")):
        with pytest.raises(ValueError, match="exceed"):
            section_initial_conditions(coupled, SectionSpec(energy=energy, energy_convention=convention), 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, MAX_START_INDEX))
def test_every_start_index_keeps_the_bits_of_its_draws(coupled, start_index):
    """Draw k sits at frac(0.5 + alpha*k), taken exactly with the float alpha,
    to within 2**-20 at every declared start index; at 2**53 the 16 orbits
    once collapsed to one, as alpha*k kept no fractional bit. On the plane
    y = 0 of this V every draw is kept, so draw i is k = start_index + i."""
    spec = SectionSpec(energy=2.0)
    states = section_initial_conditions(coupled, spec, 16, start_index=start_index)
    assert len(set(states)) == 16
    e_abs = 2.0 + coupled.potential((0.0, 0.0))
    x_max, _ = _plane_extent(coupled, 1, 0.0, e_abs)
    for i, s in enumerate(states):
        room = 2.0 * (e_abs - coupled.potential(s.position))
        u = (s.position[0] / (0.9 * x_max) + 1.0) / 2.0
        w = (s.momentum[0] / (0.9 * math.sqrt(room)) + 1.0) / 2.0
        for drawn, alpha in zip((u, w), _R2_ALPHA):
            exact = (Fraction(1, 2) + Fraction(alpha) * (start_index + i)) % 1
            off = abs(Fraction(drawn) - exact)
            assert min(off, 1 - off) <= Fraction(1, 2**20)


def test_section_spec_validation(coupled):
    with pytest.raises(ValueError):
        SectionSpec(energy=math.nan)
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, dt=0.02)
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, max_crossings=0)
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, plane_axis=2)
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, orientation=0)
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, energy_convention="shifted")
    assert not any(f.name == "initial_conditions" for f in dataclasses.fields(SectionSpec))


@pytest.mark.parametrize("dt", [5e-324, 1e-320, 9.99e-7, 0.0, -1e-3])
def test_a_step_below_its_bound_is_refused(dt):
    """A step of 1e-320 once ran past a 20 s alarm: the spec bounds dt below as well as above."""
    with pytest.raises(ValueError, match=r"time step must lie in \[1e-6, 1e-2\]"):
        SectionSpec(energy=2.0, dt=dt)
    assert SectionSpec(energy=2.0, dt=1e-6).dt == 1e-6


def test_an_orbit_count_beyond_its_bound_is_refused(coupled):
    spec = SectionSpec(energy=2.0)
    for n_orbits in (0, MAX_ORBITS + 1, 10**5):
        with pytest.raises(ValueError, match=r"n_orbits must lie in \[1, 4096\]"):
            section_initial_conditions(coupled, spec, n_orbits)
    for n_orbits in (2.5, 2.0, True):  # a fractional count once drew 3 orbits for 2.5
        with pytest.raises(ValueError, match="n_orbits must be an integer"):
            section_initial_conditions(coupled, spec, n_orbits)
    assert len(section_initial_conditions(coupled, spec, np.int64(3))) == 3
    assert len(section_initial_conditions(coupled, spec, MAX_ORBITS)) == MAX_ORBITS == 4096


@pytest.mark.parametrize("max_steps", [0, -1, MAX_STEPS + 1, 2**64 + 3])
def test_max_steps_beyond_its_bound_is_refused(max_steps):
    """The C step loop takes a long long, and ctypes wraps a larger count
    silently (2**64 + 3 arrives as 3), so the spec, made before any step, bounds it."""
    with pytest.raises(ValueError, match=r"max_steps must lie in \[1, 2\*\*62\]"):
        SectionSpec(energy=2.0, max_steps=max_steps)
    assert SectionSpec(energy=2.0, max_steps=MAX_STEPS).max_steps == 2**62


def test_generate_section_guards(coupled):
    spec = SectionSpec(energy=2.0)
    off_shell = PhaseState((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="energy shell"):
        generate_section(coupled, spec, (off_shell,))
    resting = PhaseState((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="exceed"):
        generate_section(coupled, SectionSpec(energy=0.0, energy_convention="absolute"), (resting,))
    with pytest.raises(ValueError, match="at least one"):
        generate_section(coupled, spec, ())
    for bad in (PhaseState((0.0,), (2.0,)), ((0.0, 0.0), (0.0, 2.0))):
        with pytest.raises(ValueError, match="2-D PhaseState"):
            generate_section(coupled, spec, (bad,))
    ics = section_initial_conditions(coupled, spec, 1)
    with pytest.raises(NumericalError, match="steps"):
        generate_section(coupled, SectionSpec(energy=2.0, max_crossings=50, max_steps=40), ics)


def test_section_point_outside_region_rejected(coupled):
    spec = SectionSpec(energy=2.0)
    with pytest.raises(NumericalError, match="allowed region"):
        PoincareSection(
            spec=spec,
            action_used=coupled,
            e_absolute=2.0,
            orbits=(np.array([[0.0, 10.0]]),),
        )


def test_occupancy_validation(coupled, coupled_section_low):
    spec = SectionSpec(energy=2.0)
    empty = PoincareSection(
        spec=spec, action_used=coupled, e_absolute=2.0, orbits=(np.empty((0, 2)),)
    )
    with pytest.raises(ValueError):
        section_occupancy(empty)
    with pytest.raises(ValueError):
        section_occupancy(coupled_section_low, (1, 5))
    for boxes in ((8, 2**63), (4097, 8), (8.0, 8), (8, 8, 8)):
        with pytest.raises(ValueError, match="boxes"):
            section_occupancy(coupled_section_low, boxes)
    assert 0.0 < section_occupancy(coupled_section_low, (2, 4096)) <= 1.0


def test_each_orbit_gives_the_same_crossings_alone(coupled):
    spec = SectionSpec(energy=30.0, dt=2e-3, max_crossings=10)
    ics = section_initial_conditions(coupled, spec, 3)
    together = generate_section(coupled, spec, ics)
    for ic, pts in zip(ics, together.orbits):
        alone = generate_section(coupled, spec, (ic,))
        assert np.array_equal(alone.orbits[0], pts)


@pytest.mark.parametrize(
    "field, value",
    [
        ("plane_axis", 1.0),
        ("max_crossings", 2.5),
        ("orientation", True),
        ("max_steps", 1e7),
        ("energy", True),
        ("dt", "0.001"),
        ("plane_value", math.nan),
    ],
)
def test_section_spec_reads_numbers_and_integers_by_the_one_rule(coupled, field, value):
    """A fractional max_crossings used to step max_steps per orbit before failing,
    and a float plane axis to fail with a TypeError inside the stepper."""
    with pytest.raises(ValueError, match=field):
        SectionSpec(**{"energy": 2.0, field: value})


def _numpy_thickness(section, n_angle_bins=32):
    """orbit_thickness written with numpy's hypot, arctan2, std and mean."""
    x_max, p_max = section.extent()
    out = []
    for pts in section.orbits:
        pts = np.asarray(pts)
        u, v = pts[:, 0] / x_max, pts[:, 1] / p_max
        r = np.hypot(u, v)
        bins = np.clip(((np.arctan2(v, u) + np.pi) / (2.0 * np.pi) * n_angle_bins).astype(int), 0, n_angle_bins - 1)
        out.append(np.mean([np.std(r[bins == b]) for b in range(n_angle_bins) if np.count_nonzero(bins == b) >= 3]))
    return out


@pytest.mark.parametrize("energy", [2.0, 30.0])
def test_orbit_thickness_matches_a_numpy_reference(coupled, energy):
    spec = SectionSpec(energy=energy, dt=2e-3, max_crossings=200)
    section = generate_section(coupled, spec, section_initial_conditions(coupled, spec, 3))
    assert all(len(pts) == 200 for pts in section.orbits)
    for n_angle_bins in (8, 32):
        th = orbit_thickness(section, n_angle_bins)
        np.testing.assert_allclose(th, _numpy_thickness(section, n_angle_bins), rtol=1e-14, atol=0.0)
        assert all(t > 0.0 for t in th)


@pytest.mark.parametrize("boxes", [(2, 2), (48, 48), (17, 33), (2, 4096), (4096, 2), (331, 1024)])
def test_allowed_boxes_match_a_broadcast_count(coupled, coupled_section_high, boxes):
    """Bisecting each column's room into the sorted kinetic terms counts the
    box centers of the old (nx, npx) comparison table, exactly."""
    section = coupled_section_high
    x_max, p_max = section.extent()
    nx, npx = boxes
    cx = -x_max + (np.arange(nx) + 0.5) * (2.0 * x_max / nx)
    cp = -p_max + (np.arange(npx) + 0.5) * (2.0 * p_max / npx)
    room = section.e_absolute - coupled.potential.evaluate_points(np.column_stack((cx, np.zeros(nx))))
    expected = int(np.count_nonzero(cp[None, :] ** 2 / (2.0 * coupled.mass) <= room[:, None]))
    assert _allowed_boxes(section, boxes, x_max, p_max) == expected
