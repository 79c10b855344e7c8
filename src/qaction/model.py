"""Core model types: polynomial potentials, action specifications, scale maps.

Everything downstream (spectral solvers, trajectory relaxation, fitters)
consumes these types. All of them are immutable after construction and
hashable, so they can be used as cache keys and shared freely.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

from .errors import NumericalError

if TYPE_CHECKING:
    import numpy as np

Exponents = tuple[int, ...]
# highest total degree of a term: the paper stops at 4, acceptance criterion 4 at 10, and the kernels spell x^n as n products
MAX_DEGREE = 32


def _as_number(value, what: str) -> float:
    """``value`` as a finite float.

    A number is a real that is not a bool: strings, lists, objects and
    bools are refused, and so is an integer too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
    if not math.isfinite(out):
        raise ValueError(f"{what} must be finite, got {out}")
    return out


def _as_integer(value, what: str) -> int:
    """``value`` as an int; an integer is an int or numpy integer that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _json_floats(values) -> list:
    """``values`` as a JSON list: a non-finite float becomes None (null)."""
    return [v if math.isfinite(v) else None for v in values]


def _canonical_terms(dimension: int, terms) -> tuple[tuple[Exponents, float], ...]:
    """Validate and sort a terms mapping into the canonical internal tuple."""
    if isinstance(terms, Mapping):
        items = terms.items()
    else:
        items = tuple(terms)
    out = {}
    for exp, coef in items:
        exp = tuple(_as_integer(e, "a potential exponent") for e in exp)
        if len(exp) != dimension:
            raise ValueError(
                f"exponent {exp} has arity {len(exp)}, potential dimension is {dimension}"
            )
        if any(e < 0 for e in exp):
            raise ValueError(f"exponent {exp} has a negative entry")
        if sum(exp) > MAX_DEGREE:
            raise ValueError(f"exponent {exp} has a degree above {MAX_DEGREE}")
        coef = _as_number(coef, f"the coefficient of {exp}")
        if exp in out:
            raise ValueError(f"duplicate exponent {exp}")
        if coef != 0.0:
            out[exp] = coef
    return tuple(sorted(out.items()))


def _derivative_terms(terms, axis: int) -> tuple:
    """Canonical terms of d/dx_axis of canonical terms (order is preserved)."""
    out = []
    for exp, coef in terms:
        e = exp[axis]
        if e:
            out.append((exp[:axis] + (e - 1,) + exp[axis + 1 :], coef * e))
    return tuple(out)


def _derivative_tables(dimension: int, terms) -> tuple:
    """Terms of each first derivative, and of the second derivatives d2/dx_a dx_b
    for a <= b row by row, as the kernel generates them."""
    grads = [_derivative_terms(terms, a) for a in range(dimension)]
    hess = [_derivative_terms(grads[a], b) for a in range(dimension) for b in range(a, dimension)]
    return grads, hess


def _bisect_root(f: Callable, a: float, b: float) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Bisects until the midpoint equals an endpoint, so f changes sign between
    the result and its neighbouring float; the one of the two with the
    smaller |f| is returned.
    """
    fa, fb = f(a), f(b)
    if (fa < 0.0 and fb < 0.0) or (fa > 0.0 and fb > 0.0):
        raise ValueError(f"f({a!r}) and f({b!r}) have the same sign")
    while fa != 0.0 and fb != 0.0:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return a if abs(fa) <= abs(fb) else b
        fm = f(mid)
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return a if fa == 0.0 else b


def _symmetric_eigh(upper: tuple) -> tuple:
    """(ascending eigenvalues, one unit eigenvector each) of the symmetric
    1x1 or 2x2 matrix whose upper triangle is ``upper``, row by row."""
    if len(upper) == 1:
        return upper, ((1.0,),)
    a, b, c = upper
    if b == 0.0:
        return ((a, c), ((1.0, 0.0), (0.0, 1.0))) if a <= c else ((c, a), ((0.0, 1.0), (1.0, 0.0)))
    half_gap, mean = 0.5 * a - 0.5 * c, 0.5 * a + 0.5 * c
    r = math.hypot(half_gap, b)
    # the eigenvector of mean + r, from the row of H - (mean + r) I that does not cancel
    top = (half_gap + r, b) if half_gap >= 0.0 else (b, r - half_gap)
    big = max(abs(top[0]), abs(top[1]))  # from unit scale, a subnormal entry loses no bits in hypot
    norm = math.hypot(top[0] / big, top[1] / big)
    u = (top[0] / big / norm, top[1] / big / norm)
    return (mean - r, mean + r), ((-u[1], u[0]), u)


class PolynomialKernel(NamedTuple):
    """Generated evaluators of one polynomial, taking one coordinate per axis.

    Each accepts Python floats or equally shaped numpy arrays and does the
    same left-to-right products and sums on both, so a point gives the same
    bits either way. ``gradient`` returns one component per axis and
    ``hessian`` the upper triangle row by row; a constant entry comes back
    as a plain float, so array callers broadcast it.
    """

    value: Callable
    gradient: Callable
    hessian: Callable


def _polynomial_source(terms, names) -> str:
    monomials = [
        "*".join([repr(coef)] + [name for name, e in zip(names, exp) for _ in range(e)])
        for exp, coef in terms
    ]
    return " + ".join(monomials) or "0.0"


@functools.lru_cache(maxsize=256)
def _compile(dimension: int, terms: tuple) -> PolynomialKernel:
    """Kernel of validated canonical terms.

    Kept outside the potential so potentials stay plain picklable values.
    The generated source holds only float literals and the
    coordinate names, so ``eval`` without builtins is safe.
    """
    names = ("x", "y")[:dimension]
    grads, hess = _derivative_tables(dimension, terms)

    def generate(body: str):
        return eval(f"lambda {', '.join(names)}: {body}", {"__builtins__": {}})

    def generate_tuple(tables):
        return generate("(" + "".join(_polynomial_source(t, names) + ", " for t in tables) + ")")

    return PolynomialKernel(
        value=generate(_polynomial_source(terms, names)),
        gradient=generate_tuple(grads),
        hessian=generate_tuple(hess),
    )


@dataclass(frozen=True)
class PolynomialPotential:
    """Sparse monomial representation of V(x) or V(x, y).

    ``terms`` maps exponent tuples to coefficients, e.g. ``{(2,): 0.5}`` for
    x^2/2 and ``{(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05}`` for a coupled 2-D
    oscillator. With ``confining=True`` construction checks that the leading
    pure power along each axis is even with a strictly positive coefficient.
    Construction rejects a term whose first or second derivative coefficient
    overflows, so every generated evaluator holds finite literals.
    """

    dimension: int
    terms: tuple = ()
    confining: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dimension", _as_integer(self.dimension, "dimension"))
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        object.__setattr__(self, "terms", _canonical_terms(self.dimension, self.terms))
        grads, hess = _derivative_tables(self.dimension, self.terms)
        if not all(math.isfinite(coef) for table in grads + hess for _, coef in table):
            raise ValueError("a first or second derivative coefficient of the potential overflows")
        if self.confining and not self.is_confining():
            raise ValueError(
                "potential declared confining but a leading axis coefficient "
                "is missing, odd-degree, or non-positive"
            )

    # -- structure ---------------------------------------------------------

    def leading_powers(self) -> tuple:
        """Per axis, (degree, coefficient) of the highest pure power of that
        axis's coordinate (degree >= 1), or (0, 0.0) when V has none."""
        pure = [(exp, coef) for exp, coef in self.terms if sum(e > 0 for e in exp) == 1]
        return tuple(max(((exp[a], c) for exp, c in pure if exp[a]), default=(0, 0.0)) for a in range(self.dimension))

    def is_confining(self) -> bool:
        """Leading pure power along every axis is even and positive."""
        return all(deg >= 2 and deg % 2 == 0 and coef > 0.0 for deg, coef in self.leading_powers())

    def coefficient(self, exp: Exponents) -> float:
        exp = tuple(int(e) for e in exp)
        for e, c in self.terms:
            if e == exp:
                return c
        return 0.0

    # -- evaluation --------------------------------------------------------

    def kernel(self) -> "PolynomialKernel":
        """Compiled value, gradient and Hessian of this potential (cached)."""
        return _compile(self.dimension, self.terms)

    def _coordinates(self, points, trailing: tuple) -> tuple:
        """(an empty output of shape points.shape[:-1] + trailing, the coordinate arrays of points)."""
        import numpy as np

        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dimension:
            raise ValueError(f"points trailing axis {pts.shape[-1]} != dimension {self.dimension}")
        return np.empty(pts.shape[:-1] + trailing), tuple(pts[..., a] for a in range(self.dimension))

    def __call__(self, point) -> float:
        """V at one point: a sequence of ``dimension`` reals, or a bare real in 1-D."""
        coords = (point,) if isinstance(point, numbers.Real) else tuple(point)
        if len(coords) != self.dimension or not all(isinstance(c, numbers.Real) for c in coords):
            raise ValueError(f"point must hold {self.dimension} real coordinate(s), got {point!r}")
        return self.kernel().value(*map(float, coords))

    def evaluate_points(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an array of shape (..., dimension)."""
        out, coords = self._coordinates(points, ())
        out[...] = self.kernel().value(*coords)
        return out

    def derivative(self, axis: int) -> "PolynomialPotential":
        if not 0 <= axis < self.dimension:
            raise ValueError(f"axis {axis} out of range for dimension {self.dimension}")
        return PolynomialPotential(self.dimension, _derivative_terms(self.terms, axis))

    def gradient_points(self, points: np.ndarray) -> np.ndarray:
        """Gradient at each point, shape (..., dimension)."""
        out, coords = self._coordinates(points, (self.dimension,))
        for a, component in enumerate(self.kernel().gradient(*coords)):
            out[..., a] = component
        return out

    def hessian_points(self, points: np.ndarray) -> np.ndarray:
        """Hessian at each point, shape (..., dimension, dimension)."""
        n = self.dimension
        out, coords = self._coordinates(points, (n, n))
        entries = iter(self.kernel().hessian(*coords))
        for a in range(n):
            for b in range(a, n):
                out[..., a, b] = out[..., b, a] = next(entries)
        return out

    def minimum(self, points=None) -> tuple:
        """Local minimum (point, value) by Newton on the analytic gradient and Hessian.

        Starts at the lowest of ``points`` (shape (..., dimension)), or at the
        origin when none are given, moved 1e-3 along the most negative
        curvature when the start is a maximum or saddle. In the Hessian's
        eigenbasis a step is Newton's along positive curvature and the
        negative gradient elsewhere, plus a unit step down a negative
        curvature, so saddles are left. Each step is halved until V does not
        rise beyond rounding. Stops at |grad V|_inf <= 1e-12. The point is a
        tuple of floats.
        """
        kernel = self.kernel()
        z = (0.0,) * self.dimension
        if points is not None:
            import numpy as np

            pts = np.asarray(points, dtype=float).reshape(-1, self.dimension)
            z = tuple(pts[int(np.argmin(self.evaluate_points(pts)))].tolist())
        curvature, directions = _symmetric_eigh(kernel.hessian(*z))
        if curvature[0] < 0.0:
            z = tuple(zi + 1e-3 * di for zi, di in zip(z, directions[0]))
        v = kernel.value(*z)
        for _ in range(200):
            g = kernel.gradient(*z)
            curvature, directions = _symmetric_eigh(kernel.hessian(*z))
            if curvature[0] >= 0.0 and max(map(abs, g)) <= 1e-12:
                return z, v
            along = [sum(di * gi for di, gi in zip(d, g)) for d in directions]
            coords = [-a / (c if c > 0.0 else 1.0) for a, c in zip(along, curvature)]
            if curvature[0] < 0.0:
                coords[0] -= math.copysign(1.0, along[0])
            step = [sum(x * d[i] for x, d in zip(coords, directions)) for i in range(self.dimension)]
            for _ in range(60):
                trial = tuple(zi + si for zi, si in zip(z, step))
                v_trial = kernel.value(*trial)
                if v_trial <= v + 4e-15 * (1.0 + abs(v)):  # a rise within rounding is none
                    break
                step = [0.5 * si for si in step]
            else:
                break
            z, v = trial, v_trial
        raise NumericalError("potential minimum search did not converge")

    def scaled(self, alpha: float) -> "PolynomialPotential":
        """All coefficients multiplied by alpha (alpha > 0 preserves confinement)."""
        d = {exp: alpha * coef for exp, coef in self.terms}
        return PolynomialPotential(self.dimension, d, confining=self.confining and alpha > 0)


@dataclass(frozen=True)
class ActionSpec:
    """Mass, potential and hbar defining a (classical or trial) action."""

    mass: float
    potential: PolynomialPotential
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mass", _as_number(self.mass, "mass"))
        object.__setattr__(self, "hbar", _as_number(self.hbar, "hbar"))
        # 1/m must be finite too: the step loop writes dt/m as a float literal
        if not (self.mass > 0 and math.isfinite(1.0 / self.mass)):
            raise ValueError(f"mass must be positive with a finite reciprocal, got {self.mass}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def dimension(self) -> int:
        return self.potential.dimension

    def to_json_dict(self) -> dict:
        return {
            "mass": self.mass,
            "hbar": self.hbar,
            "potential": {
                "dim": self.potential.dimension,
                "terms": [
                    {"exp": list(exp), "coef": coef} for exp, coef in self.potential.terms
                ],
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, confining: bool = False) -> "ActionSpec":
        pot = data["potential"]
        terms = [(t["exp"], t["coef"]) for t in pot["terms"]]
        return cls(
            mass=data["mass"],
            potential=PolynomialPotential(pot["dim"], terms, confining=confining),
            hbar=data.get("hbar", 1.0),
        )


@dataclass(frozen=True)
class ScaleTransform:
    """m -> m/alpha, V -> alpha*V, T -> T/alpha; transition amplitudes are invariant."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_number(self.alpha, "alpha"))
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def inverse(self) -> "ScaleTransform":
        return ScaleTransform(1.0 / self.alpha)


def apply_scale_transform(action: ActionSpec, T: float, transform: ScaleTransform):
    """Return the transformed (ActionSpec, T) pair."""
    a = transform.alpha
    scaled = ActionSpec(
        mass=action.mass / a,
        potential=action.potential.scaled(a),
        hbar=action.hbar,
    )
    return scaled, T / a
