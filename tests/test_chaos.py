import dataclasses
import math

import numpy as np
import pytest

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
    ics = section_initial_conditions(act, 1.5, 3, energy_convention="absolute")
    spec = SectionSpec(
        energy=1.5,
        initial_conditions=ics,
        dt=2e-3,
        max_crossings=40,
        energy_convention="absolute",
    )
    return act, ics, generate_section(act, spec)


@pytest.fixture(scope="module")
def coupled_section_low(coupled):
    ics = section_initial_conditions(coupled, 2.0, 4)
    spec = SectionSpec(energy=2.0, initial_conditions=ics, dt=2e-3, max_crossings=60)
    return generate_section(coupled, spec)


@pytest.fixture(scope="module")
def coupled_section_high(coupled):
    ics = section_initial_conditions(coupled, 30.0, 4)
    spec = SectionSpec(energy=30.0, initial_conditions=ics, dt=2e-3, max_crossings=60)
    return generate_section(coupled, spec)


def test_uncoupled_crossings_on_invariant_ellipse(uncoupled_section):
    # x-motion decouples, so every crossing keeps px^2/2 + x^2/2 of its orbit
    _, ics, sec = uncoupled_section
    assert sec.n_points == 120
    for ic, pts in zip(ics, sec.orbits):
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
    ics = section_initial_conditions(coupled, 2.0, 1)
    mirrored = tuple(
        PhaseState(tuple(-x for x in s.position), tuple(-p for p in s.momentum))
        for s in ics
    )
    sec_a = generate_section(
        coupled,
        SectionSpec(energy=2.0, initial_conditions=ics, dt=2e-3, max_crossings=20, orientation=-1),
    )
    sec_b = generate_section(
        coupled,
        SectionSpec(energy=2.0, initial_conditions=mirrored, dt=2e-3, max_crossings=20, orientation=1),
    )
    for a, b in zip(sec_a.orbits, sec_b.orbits):
        assert np.max(np.abs(a + b)) == 0.0


def test_occupancy_grows_with_energy(coupled_section_low, coupled_section_high):
    occ_low = section_occupancy(coupled_section_low, (16, 16))
    occ_high = section_occupancy(coupled_section_high, (16, 16))
    assert 0.0 < occ_low < 1.0
    assert occ_high > occ_low


def test_compare_identical_sections(coupled_section_low):
    cmp = compare_sections(coupled_section_low, coupled_section_low, (16, 16))
    assert cmp.symmetric_difference == 0.0
    assert cmp.occupancy_a == cmp.occupancy_b
    assert cmp.points_a == cmp.points_b == coupled_section_low.n_points
    d = cmp.to_json_dict()
    assert d["symmetric_difference"] == 0.0
    assert d["points_classical"] == cmp.points_a


def test_compare_rejects_mismatched_sections(coupled, coupled_section_low):
    ics = section_initial_conditions(coupled, 2.0, 1)
    flipped = generate_section(
        coupled,
        SectionSpec(energy=2.0, initial_conditions=ics, dt=2e-3, max_crossings=10, orientation=-1),
    )
    with pytest.raises(ValueError, match="orientation"):
        compare_sections(coupled_section_low, flipped)
    other_conv = PoincareSection(
        spec=SectionSpec(
            energy=2.0,
            initial_conditions=ics,
            energy_convention="absolute",
        ),
        action_used=coupled,
        e_absolute=2.0,
        orbits=(np.array([[0.1, 0.0]]),),
    )
    with pytest.raises(ValueError, match="convention"):
        compare_sections(coupled_section_low, other_conv)


def test_initial_conditions_deterministic(coupled):
    a = section_initial_conditions(coupled, 2.0, 5)
    b = section_initial_conditions(coupled, 2.0, 5)
    assert a == b
    shifted = section_initial_conditions(coupled, 2.0, 5, start_index=7)
    assert shifted != a
    e_abs = 2.0 + coupled.potential((0.0, 0.0))
    for s in a:
        assert s.position[1] == 0.0
        assert s.momentum[1] > 0.0
        assert abs(hamiltonian_energy(coupled, s) - e_abs) < 1e-10
    down = section_initial_conditions(coupled, 2.0, 3, orientation=-1)
    assert all(s.momentum[1] < 0.0 for s in down)


def test_initial_conditions_validation(coupled, ho):
    with pytest.raises(ValueError):
        section_initial_conditions(ho, 2.0, 4)
    with pytest.raises(ValueError):
        section_initial_conditions(coupled, 2.0, 0)
    with pytest.raises(ValueError):
        section_initial_conditions(coupled, 2.0, 4, fill_fraction=1.0)
    for start_index in (-1, 2**53 + 1, 10**400, 1.0, True):
        with pytest.raises(ValueError, match="start_index"):
            section_initial_conditions(coupled, 2.0, 4, start_index=start_index)
    assert len(section_initial_conditions(coupled, 2.0, 2, start_index=2**53)) == 2
    with pytest.raises(ValueError, match="does not reach"):
        section_initial_conditions(
            coupled, 0.5, 2, plane_value=10.0, energy_convention="absolute"
        )


def test_section_spec_validation(coupled):
    ok = PhaseState((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        SectionSpec(energy=math.nan, initial_conditions=(ok,))
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, initial_conditions=(ok,), dt=0.02)
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, initial_conditions=(ok,), max_crossings=0)
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, initial_conditions=(ok,), plane_axis=2)
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, initial_conditions=(ok,), orientation=0)
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, initial_conditions=(ok,), energy_convention="shifted")
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, initial_conditions=())
    with pytest.raises(ValueError):
        SectionSpec(energy=1.0, initial_conditions=(PhaseState((0.0,), (1.0,)),))


def test_generate_section_guards(coupled):
    off_shell = PhaseState((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="energy shell"):
        generate_section(
            coupled, SectionSpec(energy=2.0, initial_conditions=(off_shell,))
        )
    resting = PhaseState((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="exceed"):
        generate_section(
            coupled,
            SectionSpec(
                energy=0.0, initial_conditions=(resting,), energy_convention="absolute"
            ),
        )
    ics = section_initial_conditions(coupled, 2.0, 1)
    with pytest.raises(NumericalError, match="steps"):
        generate_section(
            coupled,
            SectionSpec(energy=2.0, initial_conditions=ics, max_crossings=50, max_steps=40),
        )


def test_section_point_outside_region_rejected(coupled):
    ics = section_initial_conditions(coupled, 2.0, 1)
    spec = SectionSpec(energy=2.0, initial_conditions=ics)
    with pytest.raises(NumericalError, match="allowed region"):
        PoincareSection(
            spec=spec,
            action_used=coupled,
            e_absolute=2.0,
            orbits=(np.array([[0.0, 10.0]]),),
        )


def test_occupancy_validation(coupled, coupled_section_low):
    ics = section_initial_conditions(coupled, 2.0, 1)
    spec = SectionSpec(energy=2.0, initial_conditions=ics)
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
    ics = section_initial_conditions(coupled, 30.0, 3)
    spec = SectionSpec(energy=30.0, initial_conditions=ics, dt=2e-3, max_crossings=10)
    together = generate_section(coupled, spec)
    for ic, pts in zip(ics, together.orbits):
        alone = generate_section(coupled, dataclasses.replace(spec, initial_conditions=(ic,)))
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
    ics = section_initial_conditions(coupled, 2.0, 1)
    with pytest.raises(ValueError, match=field):
        SectionSpec(**{"energy": 2.0, "initial_conditions": ics, field: value})
