"""The LAPACK binding: the Sturm window count, numpy's LAPACK against scipy's
wrappers, and scipy imported nowhere else."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaction import (
    ActionSpec,
    Grid,
    PolynomialPotential,
    _lapack,
    discretize_hamiltonian,
    solve_euclidean_bvp,
    spectral_decompose,
)
from qaction.propagator import _Block, _inertia


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(1, 40))
    value = st.floats(-5.0, 5.0, allow_subnormal=False)
    d = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    e = np.array(draw(st.lists(value, min_size=n - 1, max_size=n - 1)))
    return _Block(d, e, np.zeros(0), 0.0)


@settings(max_examples=200, deadline=None)
@given(tridiagonals(), st.data())
def test_sturm_count_equals_the_eigenvalues_below_the_shift(H, data):
    """Shifts between distinct eigenvalues, far outside the spectrum, and
    anywhere off the eigenvalues by more than rounding."""
    E = np.linalg.eigvalsh(np.diag(H.d) + np.diag(H.ex, 1) + np.diag(H.ex, -1))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(E))))
    gaps = np.diff(E) > 2.0 * tol
    shifts = [*(0.5 * (E[:-1] + E[1:]))[gaps], E[0] - 100.0, E[-1] + 100.0]
    drawn = data.draw(st.floats(-20.0, 20.0))
    if np.min(np.abs(E - drawn)) > tol:
        shifts.append(drawn)
    for sigma in shifts:
        assert _inertia(H, float(sigma)) == np.count_nonzero(E < sigma), sigma


def _on_both(run) -> tuple:
    """(``run()`` on numpy's LAPACK, ``run()`` on scipy's wrappers)."""
    ours = run()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_lapack, "_routines", lambda: None)
        return ours, run()


def _bits(*arrays) -> list:
    return [np.asarray(a).tobytes() for a in arrays]


@settings(max_examples=25, deadline=None)
@given(st.integers(16, 400), st.floats(0.1, 2.0), st.floats(0.0, 0.5), st.sampled_from([0, 1, -1]), st.data())
def test_tridiagonal_decomposition_matches_scipy_bitwise(n, a, c, parity, data):
    """The lowest k states of a whole axis or a mirror sector."""
    action = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): a, (4,): c}))
    grid = Grid((6.0,), (n,))
    sector = None if parity == 0 else (parity,)
    H = discretize_hamiltonian(action, grid, sector)
    m = H.shape[0]
    k = data.draw(st.integers(1, m - 2))
    ours, theirs = _on_both(lambda: spectral_decompose(H, k, grid, sector))
    assert _bits(ours.eigenvalues, ours.eigenvectors) == _bits(theirs.eigenvalues, theirs.eigenvectors)


def test_bvp_solves_match_scipy_bitwise():
    """One BVP in 1-D (?gtsv) and one in 2-D (?gbsv)."""
    quartic = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5, (4,): 0.1}))
    coupled = ActionSpec(mass=1.0, potential=PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05}))
    runs = [
        lambda: solve_euclidean_bvp(quartic, -1.0, 1.5, 3.0, n_nodes=257),
        lambda: solve_euclidean_bvp(coupled, (0.1, 0.9), (1.5, -0.7), 8.0, n_nodes=129),
    ]
    for run in runs:
        ours, theirs = _on_both(run)
        assert ours.converged and theirs.converged
        assert _bits(ours.path, ours.action, ours.residual) == _bits(theirs.path, theirs.action, theirs.residual)


def test_singular_or_non_finite_banded_system_raises():
    """The Newton loop reads both as a failed step, as it read scipy's."""
    ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])  # rows 0 and 1 of A are equal
    for routines in (_lapack._routines, lambda: None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_lapack, "_routines", routines)
            with pytest.raises(np.linalg.LinAlgError):
                _lapack.solve_banded(1, ab, np.ones(3))
            with pytest.raises(ValueError):
                _lapack.solve_banded(1, ab, np.array([1.0, math.nan, 1.0]))


def test_non_finite_tridiagonal_raises_before_any_solve():
    """inf or nan on either diagonal is refused as scipy's check refused it,
    not handed to ?stebz's bisection."""
    for routines in (_lapack._routines, lambda: None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_lapack, "_routines", routines)
            for bad in (math.inf, -math.inf, math.nan):
                for axis in (0, 1):
                    d, e = np.linspace(0.0, 5.0, 10), np.full(9, -1.0)
                    (d, e)[axis][3] = bad
                    with pytest.raises(ValueError, match="non-finite|infs or NaNs"):
                        _lapack.eigh_tridiagonal(d, e, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(16, 40), st.integers(16, 40), st.floats(0.0, 0.3), st.data())
def test_banded_cholesky_and_block_solve_match_scipy_bitwise(nx, ny, c, data):
    """?pbtrf and ?pbtrs on a 2-D block shifted positive definite, as the
    Lanczos solver factors one, and a whole Lanczos block solve, on numpy's
    LAPACK and on scipy's wrappers."""
    action = ActionSpec(mass=1.0, potential=PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 1.0, (2, 2): c}))
    grid = Grid((5.0, 6.0), (nx, ny))
    sector = data.draw(st.sampled_from([None, (1, 1), (1, -1), (-1, -1)]))
    H = discretize_hamiltonian(action, grid, sector)
    ab = H.lower_band()
    ab[0] -= ab[0].min() - 1.0 - 4.0 * np.abs(ab[1:]).max()  # diagonally dominant: positive definite
    b = np.sin(np.arange(H.shape[0]))

    def factor_and_solve():
        factor = _lapack.cholesky_banded(ab)
        return factor, _lapack.cho_solve_banded(factor, b)

    ours, theirs = _on_both(factor_and_solve)
    assert _bits(*ours) == _bits(*theirs)
    k = data.draw(st.integers(1, max(1, H.shape[0] // 10)))
    ours, theirs = _on_both(lambda: spectral_decompose(H, k, grid, sector))
    assert _bits(ours.eigenvalues, ours.eigenvectors) == _bits(theirs.eigenvalues, theirs.eigenvectors)


def test_banded_cholesky_refuses_what_is_not_positive_definite_or_finite():
    """And ?pbtrs refuses a right-hand side that does not fit the factor."""
    ab = np.array([[1.0, -1.0, 1.0], [2.0, 0.0, 0.0]])  # A = [[1, 2, 0], [2, -1, 0], [0, 0, 1]]
    for routines in (_lapack._routines, lambda: None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_lapack, "_routines", routines)
            with pytest.raises(np.linalg.LinAlgError):
                _lapack.cholesky_banded(ab)
            with pytest.raises(ValueError):
                _lapack.cholesky_banded(np.array([[1.0, math.inf], [0.0, 0.0]]))
            factor = _lapack.cholesky_banded(np.array([[4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]))
            with pytest.raises(ValueError, match="right-hand side"):
                _lapack.cho_solve_banded(factor, np.ones(4))


def test_scipy_is_imported_only_in_the_bindings_fallbacks():
    """Every ``import scipy...`` under src/ sits in ``_lapack``, in a branch
    taken only when numpy's LAPACK has no ILP64 names (``lapack is None``)."""
    src = Path(__file__).resolve().parent.parent / "src" / "qaction"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        fallbacks = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.If) and ast.unparse(node.test) == "lapack is None"
        ]
        inside = {id(n) for branch in fallbacks for stmt in branch.body for n in ast.walk(stmt)}
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
                [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append((path.name, node.lineno, id(node) in inside))
    assert found and all(name == "_lapack.py" and ok for name, _, ok in found), found
