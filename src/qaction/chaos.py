"""Poincare sections of classical versus fitted trial dynamics in two dimensions.

Orbits of H = p^2/2m + V are integrated in real time with the symplectic
stepper and their oriented crossings of a section plane are recorded. Each
crossing is sharpened by one Runge-Kutta sub-step that uses the section
coordinate itself as the independent variable, so stored points sit on the
plane exactly. Classical and trial sections are compared at equal energy
above the respective potential minimum: the fitted constant shifts the trial
potential by the ground energy, and that shift must not read as dynamics.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

from .errors import NumericalError
from .model import ActionSpec, _as_integer, _as_number, _bisect_root, _json_floats
from .trajectory import MAX_STEPS, PhaseState, _step_loop, hamiltonian_energy

_CONVENTIONS = ("above-minimum", "absolute")
# R2 additive recurrence (plastic-number based): deterministic low-discrepancy
# placement in the section plane, the "seed" of a section
_PLASTIC = 1.3247179572447460260
_R2_ALPHA = (1.0 / _PLASTIC, 1.0 / _PLASTIC**2)
MAX_START_INDEX = 2**32  # fewer than 2**32 draws past it keep alpha*k < 2**33: 20+ fractional bits
MAX_BOXES = 4096  # boxes per axis of an occupancy partition
MAX_ORBITS = 4096  # orbits of one section


@dataclass(frozen=True)
class SectionSpec:
    """Section plane, energy, and integration policy for one section run."""

    energy: float
    dt: float = 1e-3
    max_crossings: int = 200
    plane_axis: int = 1
    plane_value: float = 0.0
    orientation: int = 1
    energy_convention: str = "above-minimum"
    max_steps: int = 50_000_000

    def __post_init__(self):
        for name in ("energy", "dt", "plane_value"):
            object.__setattr__(self, name, _as_number(getattr(self, name), f"section {name}"))
        for name in ("max_crossings", "plane_axis", "orientation", "max_steps"):
            object.__setattr__(self, name, _as_integer(getattr(self, name), f"section {name}"))
        if not 1e-6 <= self.dt <= 1e-2:
            raise ValueError(f"time step must lie in [1e-6, 1e-2], got {self.dt}")
        if self.max_crossings < 1:
            raise ValueError("need at least one crossing per orbit")
        if not 1 <= self.max_steps <= MAX_STEPS:
            raise ValueError(f"section max_steps must lie in [1, 2**62], got {self.max_steps}")
        if self.plane_axis not in (0, 1):
            raise ValueError("plane axis must be 0 or 1")
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")
        if self.energy_convention not in _CONVENTIONS:
            raise ValueError(f"unknown energy convention {self.energy_convention!r}")


def _on_plane(plane_axis: int, c, u) -> tuple:
    """(x, y) of the point with plane coordinate c and in-plane coordinate u."""
    return (c, u) if plane_axis == 0 else (u, c)


def _shell_energy(action: ActionSpec, spec: SectionSpec) -> float:
    """Absolute energy of the section's shell, which must exceed the potential minimum."""
    _, vmin = action.potential.minimum()
    e_abs = spec.energy if spec.energy_convention == "absolute" else vmin + spec.energy
    if e_abs <= vmin:
        raise ValueError("section energy must exceed the potential minimum")
    return e_abs


@functools.lru_cache(maxsize=16)
def _plane_extent(action: ActionSpec, plane_axis: int, plane_value: float, e_abs: float) -> tuple:
    """Half-widths (x_max, p_max) of the allowed region inside the plane."""
    pot = action.potential

    def v_line(u: float) -> float:
        return pot(_on_plane(plane_axis, plane_value, u))

    if v_line(0.0) >= e_abs:
        raise ValueError("section energy does not reach the plane through the origin")
    span = 1.0
    while v_line(span) < e_abs or v_line(-span) < e_abs:
        span *= 2.0
        if span > 1e8:
            raise NumericalError("allowed region of the section plane is unbounded")
    hi = _bisect_root(lambda u: v_line(u) - e_abs, 0.0, span)
    lo = _bisect_root(lambda u: v_line(u) - e_abs, -span, 0.0)
    x_max = max(abs(hi), abs(lo))
    p_max = math.sqrt(2.0 * action.mass * (e_abs - v_line(0.0)))
    return x_max, p_max


def section_initial_conditions(
    action: ActionSpec,
    spec: SectionSpec,
    n_orbits: int,
    fill_fraction: float = 0.9,
    start_index: int = 1,
) -> tuple:
    """Low-discrepancy initial conditions on the energy shell in the plane of ``spec``.

    Points (x, p_x) follow the two-dimensional additive golden-like
    recurrence inside the allowed region, scaled by fill_fraction so the
    out-of-plane momentum stays bounded away from zero; that momentum takes
    the orientation sign and absorbs the remaining energy exactly.
    start_index offsets the recurrence and plays the role of a seed.
    """
    if action.dimension != 2:
        raise ValueError("sections require a 2-D action")
    if not 1 <= _as_integer(n_orbits, "n_orbits") <= MAX_ORBITS:
        raise ValueError(f"n_orbits must lie in [1, {MAX_ORBITS}], got {n_orbits}")
    if not 0.0 < fill_fraction < 1.0:
        raise ValueError("fill_fraction must lie strictly between 0 and 1")
    start_index = _as_integer(start_index, "start_index")
    if not 0 <= start_index <= MAX_START_INDEX:
        raise ValueError(f"start_index must lie in [0, 2**32], got {start_index}")
    e_abs = _shell_energy(action, spec)
    pax, c = spec.plane_axis, spec.plane_value
    x_max, _ = _plane_extent(action, pax, c, e_abs)
    pot = action.potential
    m = action.mass
    states = []
    k = start_index
    while len(states) < n_orbits:
        u = (0.5 + _R2_ALPHA[0] * k) % 1.0
        w = (0.5 + _R2_ALPHA[1] * k) % 1.0
        k += 1
        pos = _on_plane(pax, c, fill_fraction * x_max * (2.0 * u - 1.0))
        room = 2.0 * m * (e_abs - pot(pos))
        if room <= 0.0:
            continue
        px = fill_fraction * math.sqrt(room) * (2.0 * w - 1.0)
        p_plane = math.sqrt(room - px * px)
        states.append(PhaseState(pos, _on_plane(pax, spec.orientation * p_plane, px)))
    return tuple(states)


@dataclass(frozen=True, eq=False)
class PoincareSection:
    """Oriented plane crossings (x, p_x) grouped by orbit."""

    spec: SectionSpec
    action_used: ActionSpec
    e_absolute: float
    orbits: tuple  # one tuple of (x, p_x) float pairs per initial condition

    def __post_init__(self):
        pot = self.action_used.potential
        m = self.action_used.mass
        pax, c = self.spec.plane_axis, self.spec.plane_value
        for pts in self.orbits:
            for x, px in pts:
                if px * px / (2.0 * m) > self.e_absolute - pot(_on_plane(pax, c, x)) + 1e-8:
                    raise NumericalError("section point outside the allowed region")

    def extent(self) -> tuple:
        """Half-widths (x_max, p_max) of the allowed region in the section plane."""
        return _plane_extent(self.action_used, self.spec.plane_axis, self.spec.plane_value, self.e_absolute)

    @property
    def n_points(self) -> int:
        return sum(len(p) for p in self.orbits)

    def to_rows(self):
        for orbit_id, pts in enumerate(self.orbits):
            for x, px in pts:
                yield [orbit_id, float(x), float(px)]

    def csv_header(self) -> list:
        return ["orbit", "x", "px"]


def _henon_refine(x, y_from, px, py, m, grad, plane_axis, c):
    """One RK4 step using the plane coordinate as the independent variable;
    x and px are in-plane, y and py across the plane."""

    def deriv(xx, yy, ppx, ppy):
        g = grad(*_on_plane(plane_axis, yy, xx))
        fx, fy = -g[1 - plane_axis], -g[plane_axis]
        return ppx / ppy, m * fx / ppy, m * fy / ppy

    h = c - y_from
    k1 = deriv(x, y_from, px, py)
    k2 = deriv(x + 0.5 * h * k1[0], y_from + 0.5 * h, px + 0.5 * h * k1[1], py + 0.5 * h * k1[2])
    k3 = deriv(x + 0.5 * h * k2[0], y_from + 0.5 * h, px + 0.5 * h * k2[1], py + 0.5 * h * k2[2])
    k4 = deriv(x + h * k3[0], y_from + h, px + h * k3[1], py + h * k3[2])
    x_c = x + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    px_c = px + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    py_c = py + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return x_c, px_c, py_c


def _orbit_crossings(action: ActionSpec, spec: SectionSpec, e_abs: float, start: PhaseState) -> tuple:
    """Refined oriented crossings (x, p_x) of one orbit, stepped on its own."""
    pot = action.potential
    m = action.mass
    grad = pot.kernel().gradient
    loop = _step_loop(action.dimension, pot.terms, m, spec.dt, spec.plane_axis)
    axis = 1 - spec.plane_axis
    pax = spec.plane_axis
    c = spec.plane_value
    orient = spec.orientation
    state = (*start.position, *start.momentum)
    used = 0
    last_transit = 0  # +1 upward, -1 downward, 0 none yet
    points = []
    while True:
        k, prev, state = loop(spec.max_steps - used, c, *state)
        used += k
        if not (prev[pax] < c <= state[pax] or state[pax] <= c < prev[pax]):
            raise NumericalError(
                f"section did not reach {spec.max_crossings} crossings per "
                f"orbit within {spec.max_steps} steps"
            )
        direction = 1 if prev[pax] < c else -1  # the side left: a down step can land on c
        if direction == orient:
            if last_transit == orient:
                raise NumericalError(
                    "two same-orientation crossings without an "
                    "opposite transit; reduce dt (grazing orbit)"
                )
            if abs(prev[2 + pax]) < 1e-10:
                raise NumericalError("crossing with vanishing plane momentum; reduce dt")
            x_c, px_c, py_c = _henon_refine(
                prev[axis], prev[pax], prev[2 + axis], prev[2 + pax], m, grad, pax, c,
            )
            e_cross = (px_c**2 + py_c**2) / (2.0 * m) + pot(_on_plane(pax, c, x_c))
            if abs(e_cross - e_abs) > 1e-8 * max(1.0, abs(e_abs)):
                raise NumericalError("energy at a refined crossing drifted beyond 1e-8")
            points.append((x_c, px_c))
            if len(points) == spec.max_crossings:
                return tuple(points)
        last_transit = direction


def generate_section(action: ActionSpec, spec: SectionSpec, initial_conditions) -> PoincareSection:
    """Integrate every initial condition and collect oriented plane crossings.

    The initial conditions are 2-D phase states on the shell of ``spec``, at
    least one. Each orbit is stepped on its own until it has
    ``max_crossings`` crossings, within ``max_steps`` steps. Crossings are
    detected as sign changes of the plane coordinate between consecutive
    symplectic steps with the required momentum orientation;
    opposite-orientation transits are tracked so a missed (grazing) return
    is reported instead of silently double-counting.
    """
    if action.dimension != 2:
        raise ValueError("sections require a 2-D action")
    ics = tuple(initial_conditions)
    if not ics:
        raise ValueError("at least one initial condition required")
    if not all(isinstance(s, PhaseState) and s.dim == 2 for s in ics):
        raise ValueError("initial conditions must be 2-D PhaseState values")
    e_abs = _shell_energy(action, spec)
    for s in ics:
        if abs(hamiltonian_energy(action, s) - e_abs) > 1e-10 * max(1.0, abs(e_abs)):
            raise ValueError(
                f"initial condition {s} misses the energy shell "
                f"H={e_abs} beyond 1e-10"
            )
    orbits = tuple(_orbit_crossings(action, spec, e_abs, s) for s in ics)
    return PoincareSection(spec=spec, action_used=action, e_absolute=e_abs, orbits=orbits)


def _box_counts(boxes) -> tuple:
    """(nx, npx) of a box partition: two integers in [2, MAX_BOXES]."""
    counts = tuple(_as_integer(b, "boxes") for b in boxes)
    if len(counts) != 2 or not all(2 <= b <= MAX_BOXES for b in counts):
        raise ValueError(f"boxes must be two integers in [2, {MAX_BOXES}], got {list(boxes)}")
    return counts


def _occupied_boxes(section: PoincareSection, boxes, x_max, p_max) -> set:
    nx, npx = boxes
    return {
        (min(max(int((x + x_max) / (2.0 * x_max) * nx), 0), nx - 1),
         min(max(int((px + p_max) / (2.0 * p_max) * npx), 0), npx - 1))
        for pts in section.orbits
        for x, px in pts
    }


def _allowed_boxes(section: PoincareSection, boxes, x_max, p_max) -> int:
    """Boxes whose center lies inside the energetically allowed plane region:
    per column, the sorted kinetic terms of the box centers within its room."""
    nx, npx = boxes
    spec, pot, m = section.spec, section.action_used.potential, section.action_used.mass
    centers = [-p_max + (j + 0.5) * (2.0 * p_max / npx) for j in range(npx)]
    kinetic = sorted(c * c / (2.0 * m) for c in centers)
    return sum(
        bisect.bisect_right(kinetic, section.e_absolute - pot(_on_plane(spec.plane_axis, spec.plane_value, cx)))
        for cx in (-x_max + (i + 0.5) * (2.0 * x_max / nx) for i in range(nx))
    )


def section_occupancy(section: PoincareSection, boxes: tuple = (48, 48)) -> float:
    """Fraction of energetically allowed boxes visited by the section."""
    if section.n_points == 0:
        raise ValueError("cannot measure occupancy of an empty section")
    nx, npx = _box_counts(boxes)
    x_max, p_max = section.extent()
    occ = _occupied_boxes(section, (nx, npx), x_max, p_max)
    allowed = _allowed_boxes(section, (nx, npx), x_max, p_max)
    return len(occ) / allowed


def orbit_thickness(section: PoincareSection, n_angle_bins: int = 32) -> list:
    """Transverse spread of each orbit's crossing cloud, in scaled units.

    Points are scaled by the allowed-region half-widths; the spread is the
    average over angular bins of the radial standard deviation, a proxy for
    how far the cloud departs from a thin closed curve.
    """
    x_max, p_max = section.extent()
    out = []
    for pts in section.orbits:
        if len(pts) < 8:
            out.append(math.nan)
            continue
        bins = [[] for _ in range(n_angle_bins)]
        for x, px in pts:
            u, v = x / x_max, px / p_max
            b = int((math.atan2(v, u) + math.pi) / (2.0 * math.pi) * n_angle_bins)
            bins[min(max(b, 0), n_angle_bins - 1)].append(math.hypot(u, v))
        spreads = []
        for r in bins:  # each bin's standard deviation, by two exactly rounded sums
            if len(r) >= 3:
                mean = math.fsum(r) / len(r)
                spreads.append(math.sqrt(math.fsum((a - mean) * (a - mean) for a in r) / len(r)))
        out.append(math.fsum(spreads) / len(spreads) if spreads else math.nan)
    return out


def _section_summary(section: PoincareSection, boxes: tuple, side: str) -> dict:
    """Occupancy, point count and orbit thicknesses of one side of a comparison."""
    return {
        f"occupancy_{side}": section_occupancy(section, boxes),
        f"points_{side}": section.n_points,
        f"thickness_{side}": _json_floats(orbit_thickness(section)),
    }


def compare_sections(
    classical: PoincareSection, quantum: PoincareSection, boxes: tuple = (48, 48)
) -> dict:
    """Occupancies, point counts, orbit thicknesses and the symmetric
    difference of the occupied box sets, as the JSON object of a comparison.

    Both sections must use the same plane, orientation, and energy
    convention; the box partition for the symmetric difference spans the
    union of the two allowed regions so box indices are commensurate.
    """
    sa, sb = classical.spec, quantum.spec
    if sa.energy_convention != sb.energy_convention:
        raise ValueError(
            f"energy conventions differ: {sa.energy_convention!r} vs "
            f"{sb.energy_convention!r}"
        )
    if (sa.plane_axis, sa.plane_value, sa.orientation) != (
        sb.plane_axis,
        sb.plane_value,
        sb.orientation,
    ):
        raise ValueError("sections use different planes or orientations")
    if classical.n_points == 0 or quantum.n_points == 0:
        raise ValueError("cannot compare empty sections")
    boxes = _box_counts(boxes)
    (xa, pa), (xb, pb) = classical.extent(), quantum.extent()
    x_max, p_max = max(xa, xb), max(pa, pb)
    occ_a = _occupied_boxes(classical, boxes, x_max, p_max)
    occ_b = _occupied_boxes(quantum, boxes, x_max, p_max)
    return {
        **_section_summary(classical, boxes, "classical"),
        **_section_summary(quantum, boxes, "quantum"),
        "symmetric_difference": len(occ_a ^ occ_b) / len(occ_a | occ_b),
    }
