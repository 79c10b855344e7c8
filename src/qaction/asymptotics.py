"""Closed-form large-T consequences of a fitted quantum action.

For a confining trial action the T -> infinity limit of the two-point
amplitude yields the ground energy (minimum of the trial potential) and the
ground wavefunction psi(x) = N^-1 exp(-integral of sqrt(2 m (V - Vmin))/hbar).
The same limit relates the classical potential to the trial one through a
first-order differential law, invertible by outward integration of the
Riccati equation W^2 - hbar W' sgn(x) = 2m(V - E_gr). A WKB form with the
(2m[V - E_gr])^(-1/4) prefactor becomes exact under the substitution of the
trial mass and potential, with the prefactor degenerating to a constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import NumericalError
from .model import ActionSpec, PolynomialPotential, _as_integer, _bisect_root
from .propagator import Grid, _ground_state

MAX_L = 1000  # most rows of the hydrogen table
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
# the same rule mapped onto [0, 1], for integrals along a ray
_RAY_S = 0.5 * (_GL_NODES + 1.0)
_RAY_W = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True)
class GroundStateInfo:
    """Ground energy and normalized non-negative wavefunction on a grid."""

    grid: Grid
    energy: float
    psi: np.ndarray
    source: str = "quantum-action"

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if psi.shape != (self.grid.size,):
            raise ValueError("psi must be flat over the grid")
        if np.any(psi < 0.0):
            raise ValueError("ground-state wavefunction must be non-negative")
        w = self.grid.weights_flat()
        norm = float(np.dot(w, psi * psi))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"psi is not normalized: integral {norm}")
        object.__setattr__(self, "psi", psi)

    def overlap(self, other: "GroundStateInfo") -> float:
        if other.grid != self.grid:
            raise ValueError("overlap requires matching grids")
        w = self.grid.weights_flat()
        return float(np.dot(w, self.psi * other.psi))


def _require_1d_even(pot: PolynomialPotential, what: str):
    if pot.dimension != 1:
        raise ValueError(f"{what} requires a 1-D potential")
    for exp, coef in pot.terms:
        if exp[0] % 2 == 1 and coef != 0.0:
            raise ValueError(
                f"{what} is only supported for parity-symmetric potentials; "
                f"odd term {exp} present"
            )


def _require_minimum_at_origin(pot: PolynomialPotential, what: str):
    """Raise unless the even 1-D trial V(x) = p(x^2) has its global minimum at 0.

    A confining p is lowest at t = 0 or at a positive critical point, so
    V(sqrt(t)) >= V(0) at each positive root of p' settles it.
    """
    if not pot.is_confining():
        raise ValueError(f"{what} needs a confining trial potential")
    dp = np.zeros(max(e for (e,), _ in pot.terms) // 2)
    for (e,), coef in pot.terms:
        if e:
            dp[e // 2 - 1] += coef * (e // 2)
    t = np.polynomial.polynomial.polyroots(dp).real
    x = np.sqrt(t[t > 0.0])
    if x.size and np.any(pot.evaluate_points(x[:, None]) < pot((0.0,))):
        raise ValueError(f"{what} needs the trial minimum at the origin")


def _gauss_cells(fn: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> np.ndarray:
    """Per-cell 15-point Gauss-Legendre integrals between consecutive edges."""
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return half * (vals @ _GL_WEIGHTS)


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a float array, by the same sort and adjacent compare,
    without the ``numpy.ma`` import that ``np.unique`` makes on first use."""
    values = np.sort(values)
    return values[np.concatenate([[True], values[1:] != values[:-1]])]


def _settling_action(action: ActionSpec, grid: Grid) -> tuple:
    """(Phi at every node, V_min): Phi(x) is the zero-energy action
    integral of sqrt(2 m (V - V_min)) from the potential minimum to x.

    Each node's integral runs along the straight ray from the minimum, by
    15-point Gauss-Legendre (exact in 1-D; a declared convention in 2-D).
    The minimum is Newton's from the lowest grid node.
    """
    pot = action.potential
    nodes = grid.nodes()
    r0, vmin = pot.minimum(nodes)
    r0 = np.asarray(r0)
    d = nodes.reshape(grid.size, grid.dim) - r0
    dist = np.sqrt(np.sum(d * d, axis=1))
    ray = r0[None, None, :] + _RAY_S[None, :, None] * d[:, None, :]
    vals = pot.evaluate_points(ray.reshape(-1, grid.dim)).reshape(grid.size, len(_RAY_S))
    integ = np.sqrt(np.maximum(2.0 * action.mass * (vals - vmin), 0.0))
    return dist * (integ @ _RAY_W), vmin


def quantum_action_log_norm_sq(action: ActionSpec, grid: Grid) -> float:
    """ln of the trapezoid integral of exp(-2 Phi/hbar) over the grid, Phi
    the settling action of ``_settling_action``. The fit pins
    ln Z = -ln of this integral, the 1/N^2 of the large-T ground state.
    """
    phi, _ = _settling_action(action, grid)
    w = grid.weights_flat()
    return float(np.log(np.dot(w, np.exp(-2.0 * phi / action.hbar))))


def _state_from_phi(grid: Grid, energy: float, phi: np.ndarray, hbar: float) -> GroundStateInfo:
    """The large-T ground state exp(-Phi/hbar), trapezoid-normalized on the grid."""
    psi = np.exp(-phi / hbar)
    w = grid.weights_flat()
    psi /= math.sqrt(float(np.dot(w, psi * psi)))
    return GroundStateInfo(grid=grid, energy=energy, psi=psi, source="quantum-action")


def ground_state_from_quantum_action(quantum: ActionSpec, grid: Grid) -> GroundStateInfo:
    """Ground energy and wavefunction implied by a 1-D confining trial action.

    The energy is the minimum of the trial potential, by Newton from the
    lowest grid node; the wavefunction is exp(-Phi/hbar) with Phi the
    settling action from that minimum, the same Phi whose norm pins the
    fit's ln Z. An even trial must have its global minimum at the origin,
    as the transformation law requires: a double well has two mirrored
    minima, and the state would peak in whichever one rounding favours.
    """
    if quantum.dimension != 1 or grid.dim != 1:
        raise ValueError("ground-state extraction is defined for 1-D actions")
    if not quantum.potential.is_confining():
        raise ValueError("trial potential must be confining")
    if all(e % 2 == 0 for (e,), _ in quantum.potential.terms):
        _require_minimum_at_origin(quantum.potential, "ground-state extraction")
    phi, e_gr = _settling_action(quantum, grid)
    return _state_from_phi(grid, e_gr, phi, quantum.hbar)


def ground_state_spectral(action: ActionSpec, grid: Grid) -> GroundStateInfo:
    """Reference ground state from direct diagonalization on the same grid
    (solved once per action and grid)."""
    sd = _ground_state(action, grid)
    psi = sd.eigenvectors[0]
    floor = -1e-10 * float(np.max(np.abs(psi)))
    if np.any(psi < floor):
        raise NumericalError("spectral ground state has a sign change")
    psi = np.maximum(psi, 0.0)
    w = grid.weights_flat()
    psi = psi / math.sqrt(float(np.dot(w, psi * psi)))
    return GroundStateInfo(grid=grid, energy=float(sd.eigenvalues[0]), psi=psi, source="spectral")


# -- transformation law ------------------------------------------------------


def transformation_law_residual(
    classical: ActionSpec, e_gr: float, quantum: ActionSpec, x
):
    """Defect of the large-T law linking classical and trial potentials.

    Returns 2m(V - E_gr) - [U - (hbar/2) U' sgn(x)/sqrt(U)] with
    U = 2 m_t (V_t - V_t_min), evaluated with analytic polynomial
    derivatives. The sgn(x) form holds for a trial whose global minimum is
    at the origin, so any other trial raises, as does the singular point
    where U vanishes.
    """
    _require_1d_even(classical.potential, "transformation law")
    _require_1d_even(quantum.potential, "transformation law")
    if classical.hbar != quantum.hbar:
        raise ValueError("classical and quantum actions must share hbar")
    hb = classical.hbar
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    _require_minimum_at_origin(quantum.potential, "transformation law")
    _, vmin_t = quantum.potential.minimum()
    u = 2.0 * quantum.mass * (quantum.potential.evaluate_points(xs[:, None]) - vmin_t)
    du = 2.0 * quantum.mass * quantum.potential.gradient_points(xs[:, None])[:, 0]
    if np.any(u <= 0.0):
        raise ValueError("law is singular where the trial potential meets its minimum")
    lhs = 2.0 * classical.mass * (
        classical.potential.evaluate_points(xs[:, None]) - e_gr
    )
    res = lhs - u + 0.5 * hb * du / np.sqrt(u) * np.sign(xs)
    return float(res[0]) if np.isscalar(x) or np.shape(x) == () else res


@dataclass(frozen=True)
class InversionResult:
    """Reconstructed quantum potential product U = 2 m_t (V_t - V_t_min)."""

    grid: Grid
    classical: ActionSpec
    e_gr: float
    U: np.ndarray
    W: np.ndarray  # odd square root, sign following x
    Phi: np.ndarray  # accumulated integral of |W| from the origin

    def ground_state(self) -> GroundStateInfo:
        return _state_from_phi(self.grid, self.e_gr, self.Phi, self.classical.hbar)


def invert_transformation_law(classical: ActionSpec, e_gr: float, grid: Grid) -> InversionResult:
    """Solve W^2 - hbar W' = 2m(V - E_gr) outward from W(0) = 0.

    Fourth-order Runge-Kutta, four steps per grid cell, with a cubic series
    start; the first step and the guards reflect that the outward direction
    amplifies any error in E_gr exponentially (the growth rate is twice the
    log-derivative of the ground state), so the grid extent must stay within
    the region where the wavefunction is numerically resolvable.
    """
    _require_1d_even(classical.potential, "transformation-law inversion")
    if grid.dim != 1:
        raise ValueError("inversion requires a 1-D grid")
    if grid.npoints[0] % 2 == 0:
        raise ValueError("inversion grid needs a node at the origin (odd point count)")
    m, hb = classical.mass, classical.hbar
    pot = classical.potential

    def f(x: float) -> float:
        return 2.0 * m * (pot((x,)) - e_gr)

    xs = grid.axes()[0]
    n = grid.npoints[0]
    mid = n // 2
    substeps = 4
    h = grid.spacing[0] / substeps

    # cubic series around the origin: W = a1 x + a3 x^3 + ...
    f0 = f(0.0)
    f2 = m * pot.hessian_points(np.zeros(1))[0, 0]  # x^2 coefficient of f
    a1 = -f0 / hb
    a3 = (a1 * a1 - f2) / (3.0 * hb)

    def rhs(x: float, w: float) -> float:
        return (w * w - f(x)) / hb

    w_half = np.empty(mid + 1)
    phi_half = np.empty(mid + 1)
    w_half[0] = 0.0
    phi_half[0] = 0.0
    x = 0.0
    w = 0.0
    phi = 0.0
    first = True
    for node in range(1, mid + 1):
        for _ in range(substeps):
            if first:
                x = h
                w = a1 * x + a3 * x**3
                phi = 0.5 * a1 * x**2 + 0.25 * a3 * x**4
                first = False
                continue
            k1 = rhs(x, w)
            k2 = rhs(x + 0.5 * h, w + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h, w + 0.5 * h * k2)
            k4 = rhs(x + h, w + h * k3)
            # Phi integrates W through the same stages, in lockstep
            phi += h * w + h * h / 6.0 * (k1 + k2 + k3)
            w += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            x += h
            if w < -1e-7 * (1.0 + abs(f0)):
                raise NumericalError(
                    "reconstructed W turned negative: the supplied energy lies "
                    "below the ground level of this potential"
                )
            if w * w > 1e8 * (1.0 + abs(f(x))):
                raise NumericalError(
                    "reconstructed W diverged: the supplied energy lies above "
                    "the ground level (node encountered)"
                )
        w_half[node] = w
        phi_half[node] = phi

    w_half = np.maximum(w_half, 0.0)
    U = np.empty(n)
    W = np.empty(n)
    Phi = np.empty(n)
    U[mid:] = w_half * w_half
    U[:mid] = U[-1:mid:-1]
    W[mid:] = w_half
    W[:mid] = -w_half[:0:-1]
    Phi[mid:] = phi_half
    Phi[:mid] = phi_half[:0:-1]
    return InversionResult(grid=grid, classical=classical, e_gr=e_gr, U=U, W=W, Phi=Phi)


def transformation_law_residual_grid(inv: InversionResult) -> tuple:
    """Round-trip defect of a reconstructed U using high-order finite differences.

    Returns (x values, residuals) on nodes at least two cells from the
    boundary and more than four from the origin.
    """
    xs = inv.grid.axes()[0]
    h = inv.grid.spacing[0]
    n = len(xs)
    du = np.full(n, np.nan)
    du[2:-2] = (inv.U[:-4] - 8.0 * inv.U[1:-3] + 8.0 * inv.U[3:-1] - inv.U[4:]) / (12.0 * h)
    m, hb = inv.classical.mass, inv.classical.hbar
    f = 2.0 * m * (inv.classical.potential.evaluate_points(xs[:, None]) - inv.e_gr)
    mid = n // 2
    mask = np.zeros(n, dtype=bool)
    mask[2:-2] = True
    mask[mid - 4 : mid + 5] = False
    with np.errstate(divide="ignore", invalid="ignore"):
        res = f - inv.U + 0.5 * hb * du / np.sqrt(inv.U) * np.sign(xs)
    return xs[mask], res[mask]


# -- WKB comparison ----------------------------------------------------------


@dataclass(frozen=True)
class WkbReport:
    """L2 distances of WKB forms to the spectral ground state."""

    e_gr: float
    turning_point: float
    distance_quantum: float
    distance_classical: float
    excluded_fraction: float


def wkb_compare(classical: ActionSpec, state: GroundStateInfo, e_gr: float) -> WkbReport:
    """Compare classical-WKB and quantum-substituted forms to the true state.

    ``state`` is the quantum-substituted ground state, from a trial action
    or from an inverted transformation law; the comparison runs on its grid.
    The classical branch uses |2m(V-E_gr)|^(-1/4) with the cosine phase
    inside the well and the decaying exponential with connection factor 1/2
    outside; nodes with |2m(V-E_gr)| < 1e-3 near the turning points are
    excluded and the amplitude is chosen by least squares on the rest. The
    quantum branch substitutes the trial mass and potential, whose prefactor
    is constant, and is compared without exclusions.
    """
    _require_1d_even(classical.potential, "WKB comparison")
    grid = state.grid
    if grid.dim != 1:
        raise ValueError("WKB comparison requires a 1-D grid")
    ref = ground_state_spectral(classical, grid)
    w = grid.weights_flat()
    d_quantum = math.sqrt(float(np.dot(w, (state.psi - ref.psi) ** 2)))

    m, hb = classical.mass, classical.hbar
    pot = classical.potential
    xs = grid.axes()[0]
    kappa2 = 2.0 * m * (pot.evaluate_points(xs[:, None]) - e_gr)
    if kappa2[len(xs) // 2] >= 0.0 or kappa2[-1] <= 0.0:
        raise ValueError("energy must sit between the well bottom and the wall")
    b = _bisect_root(lambda x: 2.0 * m * (pot((x,)) - e_gr), 0.0, float(xs[-1]))

    def mom(x):  # |p| inside the well
        return np.sqrt(np.maximum(-2.0 * m * (pot.evaluate_points(x[:, None]) - e_gr), 0.0))

    def kap(x):  # decay rate outside
        return np.sqrt(np.maximum(2.0 * m * (pot.evaluate_points(x[:, None]) - e_gr), 0.0))

    absx = np.abs(xs)
    psi_wkb = np.empty_like(xs)
    inside = absx < b
    # phase integral from |x| to the turning point, vectorized per cell
    xin = _sorted_distinct(np.concatenate([absx[inside], [0.0, b]]))
    cum_in = np.concatenate([[0.0], np.cumsum(_gauss_cells(mom, xin))])
    theta_of = dict(zip(xin.tolist(), (cum_in[-1] - cum_in).tolist()))
    theta = np.array([theta_of[v] for v in absx[inside].tolist()])
    outside = ~inside
    xout = _sorted_distinct(np.concatenate([[b], absx[outside]]))
    cum_out = np.concatenate([[0.0], np.cumsum(_gauss_cells(kap, xout))])
    decay_of = dict(zip(xout.tolist(), cum_out.tolist()))
    decay = np.array([decay_of[v] for v in absx[outside].tolist()])
    with np.errstate(divide="ignore"):  # nodes on a turning point are excluded below
        psi_wkb[inside] = np.abs(kappa2[inside]) ** -0.25 * np.cos(theta / hb - 0.25 * math.pi)
        psi_wkb[outside] = 0.5 * np.abs(kappa2[outside]) ** -0.25 * np.exp(-decay / hb)

    included = np.abs(kappa2) >= 1e-3
    ww = w[included]
    num = float(np.dot(ww, psi_wkb[included] * ref.psi[included]))
    den = float(np.dot(ww, psi_wkb[included] ** 2))
    amp = num / den if den > 0 else 0.0
    d_classical = math.sqrt(float(np.dot(ww, (amp * psi_wkb[included] - ref.psi[included]) ** 2)))
    return WkbReport(
        e_gr=e_gr,
        turning_point=b,
        distance_quantum=d_quantum,
        distance_classical=d_classical,
        excluded_fraction=1.0 - float(np.count_nonzero(included)) / len(xs),
    )


# -- hydrogen radial sector --------------------------------------------------


@dataclass(frozen=True)
class HydrogenSector:
    """Exact trial action of the radial Coulomb problem at angular momentum l.

    All entries are exact rationals: the trial potential mu/r^2 - nu/r with
    mu = hbar^2 l^2 / 2m and nu = e^2 l/(l+1) reproduces the sector energy
    -E_ion/(l+1)^2 as its own minimum, located at r = a0 l(l+1), which is
    also the maximum of the radial wavefunction (r/a0)^l exp(-r/((l+1)a0)).
    """

    l: int
    mu: Fraction
    nu: Fraction
    energy: Fraction
    ionization_energy: Fraction
    bohr_radius: Fraction
    r_min: Fraction

    def trial_potential_value(self, r: Fraction) -> Fraction:
        r = Fraction(r)
        return self.mu / r**2 - self.nu / r

    def wavefunction(self, r: float) -> float:
        a0 = float(self.bohr_radius)
        return (r / a0) ** self.l * math.exp(-r / ((self.l + 1) * a0))


def hydrogen_sector(l: int, hbar=1, mass=1, e2=1) -> HydrogenSector:
    """Exact radial-sector quantities for angular momentum l >= 1."""
    l = _as_integer(l, "angular momentum")
    if l < 1:
        raise ValueError(f"angular momentum must be an integer >= 1, got {l}")
    hb, m, q2 = Fraction(hbar), Fraction(mass), Fraction(e2)
    if hb <= 0 or m <= 0 or q2 <= 0:
        raise ValueError("hbar, mass and e^2 must be positive")
    mu = hb**2 * l**2 / (2 * m)
    nu = q2 * Fraction(l, l + 1)
    return HydrogenSector(
        l=l,
        mu=mu,
        nu=nu,
        energy=-(nu**2) / (4 * mu),
        ionization_energy=m * q2**2 / (2 * hb**2),
        bohr_radius=hb**2 / (m * q2),
        r_min=2 * mu / nu,
    )


def hydrogen_table(l_max: int):
    """Rows (l, mu, nu, E_l) as floats for l = 1 .. l_max, in units hbar = m = e^2 = 1."""
    if not 1 <= l_max <= MAX_L:
        raise ValueError(f"l_max must lie in [1, {MAX_L}], got {l_max}")
    rows = []
    for l in range(1, l_max + 1):
        s = hydrogen_sector(l)
        rows.append([l, float(s.mu), float(s.nu), float(s.energy)])
    return rows
