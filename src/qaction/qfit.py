"""Global fit of a trial action to Euclidean amplitudes at fixed transition time.

A single trial action (mass plus polynomial coefficients) is adjusted until
G = Z exp(-S/hbar) holds across a whole table of boundary pairs, where S is
the extremal Euclidean action of the trial dynamics for each pair. Residuals
live in log space, the offset ln Z enters linearly and is eliminated
analytically (variable projection), and the remaining parameters are fitted
by this module's own Levenberg-Marquardt loop. The quoted action is the
discrete action that the trajectory solver makes stationary, so its
parameter derivatives are plain sums along the converged path (envelope
theorem) and every objective evaluation returns its exact Jacobian with no
extra solve.

When the ansatz carries a constant term, its coefficient is not searchable:
shifting it trades exactly against ln Z. The fit pins it after convergence
by the large-T normalization ln Z = -2 ln N, with N the norm of
exp(-Phi/hbar) built from the optimized potential shape, the same
normalization as the large-T ground state of ``asymptotics``; this is what
makes the fitted constant converge to the ground energy as T grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .asymptotics import ground_state_spectral, quantum_action_log_norm_sq
from .errors import NumericalError
from .model import MAX_DEGREE, ActionSpec, PolynomialPotential, _as_integer, _json_floats
from .propagator import Grid, PropagatorTable, tensor_pairs
from .trajectory import MAX_NODES, MIN_NODES, solve_euclidean_bvp

PENALTY_FAILED = 1.0e3  # per-pair residual charged when the inner BVP fails


def _normalize_ansatz(ansatz, dim: int) -> tuple:
    """Coerce an ansatz into disjoint groups of exponent tuples.

    Each entry is either one exponent tuple or a tuple of exponent tuples
    whose coefficients are tied to a single fit parameter (how symmetric
    combinations like x^2 + y^2 are kept symmetric). Lists are read as
    tuples, so a JSON ansatz normalizes as it stands.
    """
    groups = []
    seen = set()
    for entry in ansatz:
        if not isinstance(entry, (tuple, list)) or not entry:
            raise ValueError(f"ansatz entry {entry!r} must be a non-empty exponent list or group")
        norm = []
        for exp in entry if isinstance(entry[0], (tuple, list)) else (entry,):
            if not isinstance(exp, (tuple, list)):
                raise ValueError(f"ansatz entry {entry!r} mixes exponents and exponent lists")
            exp = tuple(_as_integer(p, "an ansatz exponent") for p in exp)
            if len(exp) != dim or any(p < 0 for p in exp):
                raise ValueError(f"ansatz exponent {exp} invalid for dimension {dim}")
            if sum(exp) > MAX_DEGREE:
                raise ValueError(f"ansatz exponent {exp} has a degree above {MAX_DEGREE}")
            if exp in seen:
                raise ValueError(f"ansatz exponent {exp} appears twice")
            seen.add(exp)
            norm.append(exp)
        groups.append(tuple(sorted(norm)))
    if not groups:
        raise ValueError("the ansatz needs at least one entry")
    zero = (0,) * dim
    for g in groups:
        if zero in g and len(g) > 1:
            raise ValueError("the constant term must form its own ansatz group")
    return tuple(groups)


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Amplitude table plus the trial-action ansatz to fit against it."""

    classical: ActionSpec
    table: PropagatorTable
    ansatz: tuple
    fit_mass: bool = True

    def __post_init__(self):
        if self.classical.dimension != self.table.grid.dim:
            raise ValueError("classical action and table grid dimensions differ")
        if not self.table.pairs:
            raise ValueError("at least one boundary pair required")
        object.__setattr__(
            self, "ansatz", _normalize_ansatz(self.ansatz, self.classical.dimension)
        )
        object.__setattr__(self, "_log_g", np.log(self.table.amplitudes))

    @property
    def T(self) -> float:
        return self.table.T

    @property
    def dimension(self) -> int:
        return self.classical.dimension

    @property
    def constant_index(self):
        zero = (0,) * self.dimension
        for i, g in enumerate(self.ansatz):
            if g == (zero,):
                return i
        return None

    @property
    def n_free(self) -> int:
        return len(self.ansatz) + (1 if self.fit_mass else 0)


def _confinement_violation(pot: PolynomialPotential) -> float:
    """0 when confining; otherwise 1 plus the negative part of each axis's
    leading pure coefficient, a positive score for penalty walls."""
    if pot.is_confining():
        return 0.0
    return 1.0 + sum(max(0.0, -coef) for _, coef in pot.leading_powers())


def _theta_vector(problem: FitProblem, source: ActionSpec) -> np.ndarray:
    """Search vector (log-mass, then one coefficient per non-constant group)."""
    theta = []
    if problem.fit_mass:
        theta.append(math.log(source.mass))
    const = problem.constant_index
    for i, group in enumerate(problem.ansatz):
        if i == const:
            continue
        coefs = [source.potential.coefficient(exp) for exp in group]
        theta.append(float(np.mean(coefs)))
    return np.array(theta, dtype=float)


def _trial_from_theta(problem: FitProblem, theta: np.ndarray, v0: float = 0.0) -> ActionSpec:
    mass = problem.classical.mass
    k = 0
    if problem.fit_mass:
        mass = math.exp(theta[0])
        k = 1
    const = problem.constant_index
    terms = []
    for i, group in enumerate(problem.ansatz):
        if i == const:
            coef = v0
        else:
            coef = float(theta[k])
            k += 1
        terms.extend((exp, coef) for exp in group)
    pot = PolynomialPotential(problem.dimension, tuple(terms))
    return ActionSpec(mass=mass, potential=pot, hbar=problem.classical.hbar)


def _solve_pair(action, x_i, x_f, T, n_nodes, init_path, values):
    """values(sol) of one boundary pair's solution, plus its path; None on failure.

    A (coarse, fine) node pair solves on both meshes, the fine one started
    from the interpolated coarse path, and returns (4 fine - coarse)/3 of
    the values, removing their leading O(dt^2) error.
    """
    sols = []
    try:
        for n in n_nodes if isinstance(n_nodes, tuple) else (n_nodes,):
            if sols:
                prev, t = sols[0], np.linspace(0.0, T, n)
                init_path = np.stack(
                    [np.interp(t, prev.times, prev.path[:, a]) for a in range(prev.dim)], axis=1
                )
            sol = solve_euclidean_bvp(action, x_i, x_f, T, n_nodes=n, init_path=init_path)
            if not sol.converged:
                return None
            sols.append(sol)
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError):
        return None
    out = [values(sol) for sol in sols]
    out = out[0] if len(out) == 1 else (4.0 * out[1] - out[0]) / 3.0
    return (out, sols[0].path) if np.all(np.isfinite(out)) else None


def _normalize_n_nodes(n_nodes):
    """Either a node count or a (coarse, fine) pair with halved step, each
    count in the trajectory solver's [MIN_NODES, MAX_NODES]."""
    pair = isinstance(n_nodes, (tuple, list))
    if pair and len(n_nodes) != 2:
        raise ValueError("n_nodes pair must have exactly two entries")
    counts = tuple(_as_integer(n, "n_nodes") for n in (n_nodes if pair else (n_nodes,)))
    if not MIN_NODES <= min(counts) <= max(counts) <= MAX_NODES:
        raise ValueError(f"mesh node counts must lie in [{MIN_NODES}, {MAX_NODES}], got {n_nodes}")
    if not pair:
        return counts[0]
    if counts[1] != 2 * counts[0] - 1:
        raise ValueError("fine node count must be 2*coarse - 1 (halved step)")
    return counts


@dataclass
class _EvalDetail:
    log_z_free: float  # optimal offset before any gauge fixing
    failed: tuple
    vector: np.ndarray  # r_j minus log_z_free, penalties where failed
    jacobian: np.ndarray  # d vector / d theta, one row per pair

    @property
    def objective(self) -> float:
        return math.sqrt(float(np.mean(self.vector**2)))

    @property
    def residuals(self) -> np.ndarray:
        """The residuals of ``vector`` with nan where the pair failed."""
        res = self.vector.copy()
        res[list(self.failed)] = np.nan
        return res


class _Evaluator:
    """Maps a trial action to the log residuals over the pair set and their
    Jacobian in the search parameters (log-mass, then one coefficient per
    non-constant ansatz group).

    Mirrored pairs share one boundary-value solve (the Euclidean action is
    reversal-invariant) and every solve warm-starts from the path found at
    the previous parameter point. On a converged path dS/d ln m is the
    kinetic part of the action and dS/dc_g the trapezoid sum of the group's
    basis polynomial (coefficient 1 on each tied exponent).
    """

    def __init__(self, problem: FitProblem, n_nodes):
        self.problem = problem
        self.n_nodes = _normalize_n_nodes(n_nodes)
        keys = []
        index = {}
        key_of_pair = []
        for xi, xf in problem.table.pairs:
            key = (xi, xf) if xi <= xf else (xf, xi)
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
            key_of_pair.append(index[key])
        self.keys = keys
        self.key_of_pair = np.array(key_of_pair)
        self.paths = [None] * len(keys)
        const = problem.constant_index
        self.bases = [
            PolynomialPotential(problem.dimension, {exp: 1.0 for exp in group})
            for i, group in enumerate(problem.ansatz)
            if i != const
        ]
        self.n_params = len(self.bases) + (1 if problem.fit_mass else 0)
        self.n_evaluations = 0

    def _values(self, mass: float, sol) -> np.ndarray:
        """The action of a converged path, then its gradient in the search parameters."""
        dt = float(sol.times[1])
        out = [sol.action]
        if self.problem.fit_mass:
            out.append(0.5 * mass * float(np.sum(np.diff(sol.path, axis=0) ** 2)) / dt)
        for basis in self.bases:
            b = basis.evaluate_points(sol.path)
            out.append(dt * (float(np.sum(b)) - 0.5 * (b[0] + b[-1])))
        return np.array(out)

    def _penalty(self, value: float, failed: tuple) -> _EvalDetail:
        n = len(self.problem.table.pairs)
        return _EvalDetail(math.nan, failed, np.full(n, value), np.zeros((n, self.n_params)))

    def detail(self, trial: ActionSpec) -> _EvalDetail:
        self.n_evaluations += 1
        viol = _confinement_violation(trial.potential)
        if viol > 0.0:
            return self._penalty(1e9 * viol, tuple(range(len(self.problem.table.pairs))))
        values = np.full((len(self.keys), 1 + self.n_params), np.nan)
        for i, k in enumerate(self.keys):
            out = _solve_pair(
                trial, np.array(k[0]), np.array(k[1]), self.problem.T, self.n_nodes,
                self.paths[i], lambda sol: self._values(trial.mass, sol),
            )
            if out is not None:
                values[i], self.paths[i] = out
        values = values[self.key_of_pair] / self.problem.classical.hbar
        okp = np.isfinite(values[:, 0])
        failed = tuple(int(i) for i in np.nonzero(~okp)[0])
        if not okp.any():
            return self._penalty(PENALTY_FAILED, failed)
        r = self.problem._log_g + values[:, 0]
        jac = values[:, 1:]
        z_free = float(np.mean(r[okp]))
        jac = jac - np.mean(jac[okp], axis=0)
        vector = np.where(okp, r - z_free, PENALTY_FAILED)
        return _EvalDetail(z_free, failed, vector, np.where(okp[:, None], jac, 0.0))


@dataclass(frozen=True, eq=False)
class FitResult:
    """Optimized trial action with its offset and residual diagnostics."""

    quantum: ActionSpec
    T: float
    log_z: float
    rms_residual: float
    per_pair_residuals: tuple
    iterations: int
    stop: str  # where the loop stopped short of its gradient or step test; None when it met one
    failed_pairs: tuple
    potential_minimum: float
    gradient_norm: float
    parameter_uncertainties: tuple
    data_count: int  # distinct boundary pairs that solved: the data the uncertainties rest on

    def __post_init__(self):
        if self.rms_residual < 0.0:
            raise ValueError("rms residual cannot be negative")
        if not self.quantum.potential.is_confining():
            raise ValueError("fitted potential must be confining")

    @property
    def converged(self) -> bool:
        return self.stop is None

    def to_json_dict(self) -> dict:
        return {
            "quantum": self.quantum.to_json_dict(),
            "T": self.T,
            "logZ": self.log_z,
            "rms_residual": self.rms_residual,
            "converged": self.converged,
            "iterations": self.iterations,
            "failed_pairs": list(self.failed_pairs),
            "potential_minimum": self.potential_minimum,
            "per_pair_residuals": _json_floats(self.per_pair_residuals),
            "gradient_norm": self.gradient_norm,
            "parameter_uncertainties": _json_floats(self.parameter_uncertainties),
            "data_count": self.data_count,
        }


def _fit_diagnostics(det: _EvalDetail, key_of_pair: np.ndarray) -> tuple:
    """(||J^T r||_inf over the table rows that solved, then sqrt diag
    sigma^2 (J^T J)^+ and the count n of the data they rest on).

    A datum is one ``_Evaluator`` key: a pair, its mirror and any repeat
    of either are one solve, so they make one row, their mean residual
    with their shared Jacobian row. sigma^2 = sum r^2 / (n - p - 1) over
    the n keys that solved: the fitted offset ln Z costs one more degree
    of freedom than the p search parameters. The pseudo-inverse drops the
    directions along which J^T J is below rounding (1e-15 of its largest
    eigenvalue), so J below sqrt(1e-15) of its largest singular value: the
    data do not determine them, and a parameter with weight on one has an
    infinite uncertainty.
    """
    res = det.residuals
    ok = np.isfinite(res)
    r, jac, keys = res[ok], det.jacobian[ok], key_of_pair[ok]
    counts = np.bincount(keys)
    solved = counts > 0
    n, p = int(np.count_nonzero(solved)), jac.shape[1]
    if p == 0:
        return 0.0, (), n
    gradient_norm = float(np.max(np.abs(jac.T @ r)))
    r = np.bincount(keys, weights=r)[solved] / counts[solved]
    rows = np.zeros((len(counts), p))
    rows[keys] = jac
    jac = rows[solved]
    dof = n - p - 1
    sigma2 = float(np.dot(r, r)) / dof if dof > 0 else math.nan
    var = sigma2 * np.diag(np.linalg.pinv(jac.T @ jac))
    # padded to at least p rows, so that vt spans every direction; U is N x p, never N x N
    padded = np.vstack([jac, np.zeros((max(p - len(jac), 0), p))])
    _, s, vt = np.linalg.svd(padded, full_matrices=False)
    null = vt[s <= math.sqrt(1e-15) * s[0]]
    var[np.any(np.abs(null) > math.sqrt(np.finfo(float).eps), axis=0)] = math.inf
    return gradient_norm, tuple(float(v) for v in np.sqrt(np.maximum(var, 0.0))), n


def _levenberg_marquardt(evaluate, y, max_nfev):
    """Minimize |r(y)|^2 / 2 from y; ``evaluate(y)`` gives (detail, dr/dy).

    Solves (J^T J + mu I) step = -J^T r with Nielsen's damping update
    (Madsen, Nielsen & Tingleff 2004, sec. 3.2), mu starting near zero so
    that steps near the optimum are Gauss-Newton steps. A step below
    sqrt(eps) of y ends the loop, since the cost cannot rank points that
    close: it is taken as it stands unless its trial has a failed pair (a
    penalty fails every pair), and then it stops where it is, on the confinement
    boundary. Returns (y, detail, stop): stop is None once ||J^T r||_inf falls
    to 1e-12 or a step taken ends the loop, else it names where the loop stopped.
    """
    det, jac = evaluate(y)
    nfev, nu = 1, 2.0
    mu = 1e-9 * float(np.max(np.sum(jac**2, axis=0), initial=0.0))
    while True:
        g = jac.T @ det.vector
        if np.max(np.abs(g), initial=0.0) <= 1e-12:
            return y, det, None
        if nfev >= max_nfev:
            return y, det, "its evaluation limit"
        step = np.linalg.solve(jac.T @ jac + mu * np.eye(len(y)), -g)
        trial, trial_jac = evaluate(y + step)
        nfev += 1
        if np.max(np.abs(step)) <= 1.5e-8 * (1.0 + np.max(np.abs(y))):
            return (y, det, "the confinement boundary") if trial.failed else (y + step, trial, None)
        gain = (det.vector @ det.vector - trial.vector @ trial.vector) / (step @ (mu * step - g))
        if gain > 0.0:
            y, det, jac = y + step, trial, trial_jac
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu


def fit_quantum_action(
    problem: FitProblem,
    *,
    initial: ActionSpec = None,
    n_nodes=257,
    max_nfev: int = None,
) -> FitResult:
    """Levenberg-Marquardt fit of the log residuals.

    Starts at the classical parameters (or ``initial``) and runs
    ``_levenberg_marquardt`` for at most ``max_nfev`` evaluations (100 per
    search parameter when None) on the search vector scaled by its starting
    magnitudes, with the mean projected out of residuals and Jacobian so the
    offset ln Z stays analytic. One evaluation is one set of warm-started
    boundary-value solves and yields the residuals and their exact Jacobian
    together. Failed pairs and non-confining trials cost penalty residuals,
    so the damping rejects such steps; a start that is not confining raises
    ValueError before any solve. ``converged`` means the gradient or step
    test was met before the evaluation cap, else ``stop`` says where it ended.
    ``potential_minimum`` is the fitted potential's minimum, by Newton from the lowest grid node.
    """
    if len(problem.table.pairs) < 2 * problem.n_free:
        raise ValueError(
            f"{len(problem.table.pairs)} pairs cannot determine {problem.n_free} "
            "free parameters (need at least twice as many)"
        )
    if max_nfev is not None and _as_integer(max_nfev, "max_nfev") < 1:
        raise ValueError(f"max_nfev must be at least 1, got {max_nfev}")
    theta0 = _theta_vector(problem, initial if initial is not None else problem.classical)
    if not _trial_from_theta(problem, theta0).potential.is_confining():
        # a penalty with a zero Jacobian: the loop could never leave it
        raise ValueError("the fit's start (initial, or else the classical action, on the ansatz) is not confining")
    scales = np.maximum(np.abs(theta0), 0.25)
    ev = _Evaluator(problem, n_nodes)

    def evaluate(y):
        det = ev.detail(_trial_from_theta(problem, y * scales))
        return det, det.jacobian * scales

    cap = 100 * len(theta0) if max_nfev is None else max_nfev
    y, det, stop = _levenberg_marquardt(evaluate, theta0 / scales, cap)
    theta = y * scales
    shape = _trial_from_theta(problem, theta)

    if not math.isfinite(det.log_z_free):
        raise NumericalError(
            "every boundary pair failed its trajectory solve at the optimum; "
            "the trial ansatz cannot represent this problem"
        )
    hb, T = problem.classical.hbar, problem.T
    grid = problem.table.grid
    _, vmin = shape.potential.minimum(grid.nodes())
    if problem.constant_index is not None:
        log_z = -quantum_action_log_norm_sq(shape, grid)
        v0 = hb * (log_z - det.log_z_free) / T
        quantum = _trial_from_theta(problem, theta, v0=v0)
        vmin += v0
    else:
        log_z = det.log_z_free
        quantum = shape
    gradient_norm, uncertainties, data_count = _fit_diagnostics(det, ev.key_of_pair)
    return FitResult(
        quantum=quantum,
        T=T,
        log_z=log_z,
        rms_residual=det.objective,
        per_pair_residuals=tuple(float(v) for v in det.residuals),
        iterations=ev.n_evaluations,
        stop=stop,
        failed_pairs=det.failed,
        potential_minimum=vmin,
        gradient_norm=gradient_norm,
        parameter_uncertainties=uncertainties,
        data_count=data_count,
    )


def fit_flow(
    make_problem: Callable[[float], FitProblem],
    t_list: Sequence[float],
    *,
    initial: ActionSpec = None,
    **fit_kwargs,
) -> list:
    """Repeated fits over increasing T, each warm-started from the previous.

    ``make_problem(T)`` must return the FitProblem (with its amplitude
    table) for that transition time. ``initial`` seeds only the first fit.
    """
    t_list = [float(t) for t in t_list]
    if len(t_list) < 2:
        raise ValueError("flow needs at least two transition times")
    if any(b < a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("transition times must be non-decreasing")
    results = []
    prev = initial
    for t in t_list:
        problem = make_problem(t)
        if problem.T != t:
            raise ValueError(f"make_problem returned T={problem.T} for requested {t}")
        result = fit_quantum_action(problem, initial=prev, **fit_kwargs)
        results.append(result)
        prev = result.quantum
    return results


FLOW_CSV_HEADER = ["T", "m", "v0", "v2", "v22", "v4", "rms"]


def flow_rows(results) -> list:
    """Flow-table rows T,m,v0,v2,v22,v4,rms (absent monomials report 0)."""
    rows = []
    for r in results:
        pot = r.quantum.potential
        if r.quantum.dimension == 1:
            v0, v2, v22, v4 = (
                pot.coefficient((0,)),
                pot.coefficient((2,)),
                0.0,
                pot.coefficient((4,)),
            )
        else:
            v0, v2, v22, v4 = (
                pot.coefficient((0, 0)),
                pot.coefficient((2, 0)),
                pot.coefficient((2, 2)),
                pot.coefficient((4, 0)),
            )
        rows.append([r.T, r.quantum.mass, v0, v2, v22, v4, r.rms_residual])
    return rows


def default_pairs(classical: ActionSpec, grid: Grid):
    """Tensor pair grid of 11 points per axis spanning where the ground state
    exceeds 1e-4 of its peak.

    Points are snapped to grid nodes so the resulting pairs are valid
    amplitude-table entries.
    """
    gs = ground_state_spectral(classical, grid)
    psi = gs.psi.reshape(grid.npoints)
    mask = psi > 1e-4 * float(psi.max())
    spans = []
    for axis, ax in enumerate(grid.axes()):
        proj = mask.any(axis=tuple(i for i in range(grid.dim) if i != axis))
        sel = ax[proj]
        spans.append((float(sel[0]), float(sel[-1])))
    pts = grid.subdivision_nodes(spans, 11)
    return tensor_pairs(pts, pts)
