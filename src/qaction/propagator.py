"""Euclidean transition amplitudes on Dirichlet grids.

The Hamiltonian is discretized with second-order central differences on a
symmetric box, diagonalized, and amplitudes are assembled from the spectral
sum G(xf, T; xi) = sum_n psi_n(xf) psi_n(xi) exp(-E_n T / hbar).
Eigenfunctions are normalized by the plain sum over nodes times h^dim, the
inner product under which the stencil's eigenvectors are orthogonal, so they
carry the continuum 1/sqrt(h) scale per dimension and the sum needs no extra
factor.

The box is symmetric, so when every term of V has an even exponent along an
axis, mirroring that axis commutes with H, and H is the direct sum of its
even and odd blocks there: 2 blocks in 1-D, 4 in 2-D for the potentials of
the paper (an axis along which some term is odd stays whole, and with no even
axis H is one block, solved as it stands). Each block lives on the x <= 0
half of its split axes, with V taken there and mirrored, so the sectors are
exact mirrors even though ``linspace`` nodes miss exact mirrors by up to
1.8e-15. The ground state is positive (the stencil couples neighbours
negatively: Perron-Frobenius), hence even, so E_0 is the lowest state of the
all-even block, solved once per grid. Before any other solve, each block's
states within the Boltzmann window above E_0 are counted by Sylvester's law
of inertia, and each block is then solved for exactly that many.

Every block is one banded type, ``_Block``, from ``discretize_hamiltonian``,
counted and solved with no scipy, through the LAPACK numpy already loads
(``_lapack``). It is counted by the block Sturm recurrence over lines of
constant x, a scalar one in 1-D, where a line is one node. A 1-D block is
solved by ?stebz and ?stein; they hold no GIL, so two CPUs solve the two
blocks at once. A 2-D block is solved by shift-invert Lanczos on a banded
Cholesky factor of H - (min V - 1) I, or densely by numpy's eigh when the
window holds over a tenth of the block. The weight a too-short window
quotes comes from the Sturm count too, by bisection.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .model import ActionSpec, _as_integer, _as_number

# spectral terms lighter than this fraction of the leading one are dropped
BOLTZMANN_CUTOFF = 1e-14
# the most nodes a grid may hold, per axis and in total
MAX_GRID_NODES = 2**16
# the most boundary pairs of one table; the largest in use, the 2-D "auto" pairs, number 11^4 = 14641
MAX_PAIRS = 2**16


@dataclass(frozen=True)
class Grid:
    """Symmetric tensor grid [-L, L]^dim with N points per axis (N >= 16),
    at most ``MAX_GRID_NODES`` in all, and a spacing h = 2L/(N - 1) whose
    h^2 and 1/h^2 are finite and positive. The axes are built once, read-only."""

    extents: tuple
    npoints: tuple

    def __post_init__(self):
        ext = self.extents if isinstance(self.extents, (tuple, list)) else (self.extents,)
        npt = self.npoints if isinstance(self.npoints, (tuple, list)) else (self.npoints,)
        ext = tuple(_as_number(x, "a grid extent") for x in ext)
        npt = tuple(_as_integer(n, "a grid point count") for n in npt)
        if len(ext) != len(npt):
            raise ValueError("extents and npoints must have the same length")
        if len(ext) not in (1, 2):
            raise ValueError("only 1-D and 2-D grids are supported")
        if not all(x > 0 for x in ext):
            raise ValueError(f"extents must be positive, got {list(ext)}")
        if any(n < 16 for n in npt):
            raise ValueError("at least 16 points per axis required")
        if math.prod(npt) > MAX_GRID_NODES:
            raise ValueError(f"a grid holds at most {MAX_GRID_NODES} nodes, per axis and in total")
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "npoints", npt)
        for h in self.spacing:
            # the stencil divides by h^2
            if not (0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
                raise ValueError(f"grid spacing {h!r} is out of range: h^2 and 1/h^2 must be finite and positive")
        axes = tuple(np.linspace(-L, L, n) for L, n in zip(ext, npt))
        for ax in axes:
            ax.flags.writeable = False
        object.__setattr__(self, "_axes", axes)

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def size(self) -> int:
        return int(np.prod(self.npoints))

    @property
    def spacing(self) -> tuple:
        return tuple(2.0 * L / (n - 1) for L, n in zip(self.extents, self.npoints))

    def axes(self) -> list:
        return list(self._axes)

    def weights_flat(self) -> np.ndarray:
        """Trapezoidal quadrature weights on the flattened grid."""
        ws = []
        for h, n in zip(self.spacing, self.npoints):
            w = np.full(n, h)
            w[0] = w[-1] = 0.5 * h
            ws.append(w)
        if self.dim == 1:
            return ws[0]
        return np.multiply.outer(ws[0], ws[1]).ravel()

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape (*npoints, dim)."""
        return np.stack(np.meshgrid(*self.axes(), indexing="ij"), axis=-1)

    def _nearest_nodes(self, points) -> tuple:
        """(points as a (count, dim) float array, per-axis index array of the
        node nearest to each row).

        Points outside the box go to the nearest edge node. A point halfway
        between two nodes goes to the one nearer the grid centre, so a
        mirrored point gets the mirrored node. A NaN coordinate is given the
        centre's index, a node it does not lie on.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points have shape {pts.shape}, expected (count, {self.dim})")
        idx = []
        for x, L, n, h in zip(pts.T, self.extents, self.npoints, self.spacing):
            x = np.clip(np.nan_to_num(x), -L, L)
            centre = (n - 1) / 2.0
            half = centre % 1.0  # 0.5 when no node sits at the centre
            # offset from the centre in node spacings, rounded half toward the centre
            offset = np.ceil(np.abs(x) / h - half - 0.5) + half
            idx.append((centre + np.copysign(offset, x)).astype(np.intp))
        return pts, idx

    def _point(self, point) -> np.ndarray:
        """One point as the single row of a (1, dim) array."""
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        if pt.shape != (self.dim,):
            raise ValueError(f"point has shape {pt.shape}, expected ({self.dim},)")
        return pt[None]

    def index_of(self, point) -> int:
        """Flat index of a point that must lie within 1e-6 h of a grid node."""
        return int(self.indices_of(self._point(point))[0])

    def indices_of(self, points) -> np.ndarray:
        """Flat index of each row of ``points`` (shape (count, dim)), each of
        which must lie within 1e-6 h of a grid node; the error names the
        first row that does not."""
        pts, idx = self._nearest_nodes(points)
        off = np.zeros(len(pts), dtype=bool)
        for x, ax, i, h in zip(pts.T, self._axes, idx, self.spacing):
            off |= ~(np.abs(x - ax[i]) <= 1e-6 * h)
        if off.any():
            raise ValueError(f"point {tuple(pts[np.argmax(off)])} does not lie on a grid node")
        return np.ravel_multi_index(idx, self.npoints)

    def snap(self, point) -> tuple:
        """Nearest grid node to a point, as coordinates taken from ``axes()``."""
        pts, idx = self._nearest_nodes(self._point(point))
        if np.isnan(pts).any():
            raise ValueError(f"point {tuple(pts[0])} has no nearest grid node")
        return tuple(float(ax[i[0]]) for ax, i in zip(self._axes, idx))

    def subdivision_nodes(self, spans, count: int) -> list:
        """Tensor points of the distinct snapped nodes of ``count`` evenly
        spaced points over each axis span [lo, hi]."""
        cuts = zip(*(np.linspace(lo, hi, count) for lo, hi in spans))
        snapped = [self.snap(p) for p in cuts]
        return list(itertools.product(*(sorted({p[a] for p in snapped}) for a in range(self.dim))))


@dataclass(frozen=True)
class SpectralData:
    """Lowest eigenpairs of the grid Hamiltonian.

    Eigenvectors are stored flattened and normalized so that h^dim times
    the plain sum of psi^2 over the nodes equals one; under that inner
    product they are orthonormal.
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (k, grid.size)


@dataclass(frozen=True)
class PropagatorTable:
    """Euclidean amplitudes for a fixed transition time over boundary pairs."""

    grid: Grid
    T: float
    pairs: tuple  # ((xi tuple, xf tuple), ...)
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.shape != (len(self.pairs),):
            raise ValueError("one amplitude per pair required")
        bad = ~(np.isfinite(amps) & (amps > 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            xi, xf = self.pairs[i]
            raise NumericalError(
                f"amplitude {amps[i]:.3g} of the pair {list(xi)} -> {list(xf)} at T={self.T:g} is not "
                "positive: the spectral sum cancels below its rounding; use boundary points closer together "
                "or a longer T"
            )
        object.__setattr__(self, "amplitudes", amps)

    def to_rows(self):
        for (xi, xf), g in zip(self.pairs, self.amplitudes):
            yield list(xi) + list(xf) + [self.T, float(g)]

    def csv_header(self) -> list:
        if self.grid.dim == 1:
            return ["xi", "xf", "T", "G"]
        return ["xi", "yi", "xf", "yf", "T", "G"]


def _sectors(action: ActionSpec) -> list:
    """Mirror sectors of H, one parity per axis, the all-even sector first.

    An axis along which every term of V has an even exponent splits into its
    even (+1) and odd (-1) halves; any other axis stays whole (0).
    """
    split = [all(exp[a] % 2 == 0 for exp, _ in action.potential.terms) for a in range(action.dimension)]
    return list(itertools.product(*((1, -1) if s else (0,) for s in split)))


def _axis_sector(n: int, parity: int) -> tuple:
    """(m, take, coef): the m nodes one axis of n keeps in a sector, and how a
    vector u over them returns to the whole axis, as coef * u[take] up to one
    overall factor.

    Parity 0 keeps the whole axis (take and coef are None). Parity +1 or -1
    keeps the x <= 0 half; the centre node of an odd n belongs to the even
    half, where its basis vector is that node alone, while every other one
    is (node +- mirror) / sqrt(2).
    """
    if parity == 0:
        return n, None, None
    i = np.arange(n)
    take = np.minimum(i, n - 1 - i)
    coef = np.where(i > n - 1 - i, float(parity), 1.0)
    if n % 2:
        if parity > 0:
            coef[n // 2] = math.sqrt(2.0)
        else:
            take[n // 2], coef[n // 2] = 0, 0.0
    return n // 2 + (n % 2 if parity > 0 else 0), take, coef


def _kinetic_stencil(hb2m: float, h: float, n: int, parity: int) -> tuple:
    """(main, off): the diagonal and off-diagonal of one axis's kinetic block
    -(hbar^2/2m) d^2/dx^2 in a sector of that axis (``_axis_sector``)."""
    m = _axis_sector(n, parity)[0]
    main = np.full(m, 2.0 * hb2m / h**2)
    off = np.full(m - 1, -hb2m / h**2)
    if parity and n % 2 == 0:
        main[-1] += parity * off[-1]  # the last node's mirror is its neighbour
    elif parity > 0:
        off[-1] *= math.sqrt(2.0)  # the centre node couples to both halves
    return main, off


class _Block(NamedTuple):
    """A block of H over mx x my nodes, x major, with my = 1 in 1-D: diagonal d (V plus
    the kinetic mains), the off-diagonals ex and ey of each axis's kinetic block (ey is
    empty in 1-D), and vmin, the least V over the block's nodes."""

    d: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    vmin: float

    @property
    def shape(self) -> tuple:
        return (len(self.d), len(self.d))

    def lower_band(self) -> np.ndarray:
        """H in LAPACK's lower band storage, ab[i - j, j] = H[i, j], with my sub-diagonals."""
        my = len(self.ey) + 1
        ab = np.zeros((my + 1, len(self.d)))
        ab[0], ab[my, :-my] = self.d, np.repeat(self.ex, my)
        ab[1].reshape(-1, my)[:, :-1] = self.ey
        return ab

    def toarray(self) -> np.ndarray:
        ab, i = self.lower_band(), np.arange(len(self.d))
        A = np.diag(self.d)
        for k in {1, len(ab) - 1}:
            A[i[k:], i[:-k]] = A[i[:-k], i[k:]] = ab[k, :-k]
        return A


def discretize_hamiltonian(action: ActionSpec, grid: Grid, sector: tuple = None) -> _Block:
    """H = -(hbar^2/2m) Laplacian + V with Dirichlet walls, built without
    scipy as a ``_Block``: its diagonal, each axis's off-diagonal and min V.

    Given one of the action's mirror sectors (one parity per axis, as from
    ``_sectors``), it is the block of H on that sector instead: the Kronecker
    sum of each axis's kinetic block plus V on the sector's nodes, the whole
    axis for parity 0 and its x <= 0 half otherwise.
    """
    if action.dimension != grid.dim:
        raise ValueError(f"action dimension {action.dimension} != grid dimension {grid.dim}")
    if sector is None:
        sector = (0,) * grid.dim
    elif tuple(sector) not in _sectors(action):
        raise ValueError(f"{sector} is not a mirror sector of this potential")
    hb2m = action.hbar**2 / (2.0 * action.mass)
    stencils = [_kinetic_stencil(hb2m, h, n, parity) for h, n, parity in zip(grid.spacing, grid.npoints, sector)]
    nodes = [axis[: _axis_sector(n, p)[0]] for axis, n, p in zip(grid.axes(), grid.npoints, sector)]
    V = action.potential.evaluate_points(np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1)).ravel()
    # a 1-D line is one node, with no y coupling and a zero y main, which leaves d = main + V bit for bit
    (mainx, offx), (mainy, offy) = stencils if grid.dim == 2 else (*stencils, (np.zeros(1), np.zeros(0)))
    return _Block(np.add.outer(mainx, mainy).ravel() + V, offx, offy, float(V.min()))


def _block_eigh(H: _Block, k: int) -> tuple:
    """(values, vectors as rows) of the lowest k states of a block: by numpy's dense
    eigh when k is over a tenth of its n nodes, else by shift-invert Lanczos with full
    reorthogonalization and thick restart (Wu & Simon, SIAM J. Matrix Anal. Appl. 22
    (2000) 602) on a ?pbtrf factor of H - sigma I. The shift sits just below the wanted
    end of the spectrum (Ericsson & Ruhe, Math. Comp. 35 (1980) 1251): sigma = min V - 1,
    since every block is K + V with its kinetic part K positive semidefinite, folded or
    not, so H - sigma I >= I. ``decompose_for_time`` holds the values to the window's
    count: an exactly degenerate state enters the Krylov space only through rounding.
    """
    # on the coupled oscillator's blocks (2-core Xeon, numpy 2.4.6) the two met near k = n/14 at 256 nodes (3.8 ms),
    # n/9 at 529 (16 ms) and n/7 at 1024 (89 ms); at k = n/10 Lanczos took 4.4, 13.0 and 49.7 ms
    from . import _lapack

    n = H.shape[0]
    if 10 * k > n:
        vals, vecs = np.linalg.eigh(H.toarray())
        return vals[:k], vecs[:, :k].T
    ab, sigma = H.lower_band(), H.vmin - 1.0
    ab[0] -= sigma
    factor = _lapack.cholesky_banded(ab)
    m = min(n // 2, 2 * k + 20)  # the basis, of which k + (m - k) // 2 Ritz vectors survive a restart
    V, T, kept = np.zeros((m + 1, n)), np.zeros((m + 1, m + 1)), 0
    V[0] = (start := np.sin(0.618 * np.arange(n))) / np.linalg.norm(start)
    for _ in range(200):
        for j in range(kept, m):
            w, c = _lapack.cho_solve_banded(factor, V[j]), 0.0
            for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal to rounding
                dc = V[: j + 1] @ w
                w -= dc @ V[: j + 1]
                c += dc
            T[j, : j + 1] = T[: j + 1, j] = c
            T[j + 1, j] = T[j, j + 1] = beta = np.linalg.norm(w)
            V[j + 1] = w / beta
        theta, S = np.linalg.eigh(T[:m, :m])  # ascending theta = 1 / (E - sigma): the wanted states last
        if np.all(np.abs(beta * S[-1, m - k :]) <= 1e-15 * theta[m - k :]):
            return sigma + 1.0 / theta[::-1][:k], S[:, ::-1][:, :k].T @ V[:m]
        # thick restart: the kept Ritz vectors and the residual; the next steps fill in T's couplings
        kept = k + (m - k) // 2
        V[:kept], V[kept] = S[:, m - kept :].T @ V[:m], V[m]
        T[:kept, :kept] = np.diag(theta[m - kept :])
    raise NumericalError(f"shift-invert Lanczos found no {k} converged states of a {n}-node block")


@functools.lru_cache(maxsize=16)
def _sector_hamiltonians(action: ActionSpec, grid: Grid) -> tuple:
    """(sector, ``discretize_hamiltonian`` block) for each mirror sector, the all-even one first."""
    return tuple((s, discretize_hamiltonian(action, grid, s)) for s in _sectors(action))


def _negative_pivots(H, sigma: float):
    """Count of the negative pivots of H - sigma I factored unpivoted, or None
    when a pivot is exactly zero.

    The recurrence runs over lines of constant x, S_i = A_i - sigma I - ex_{i-1}^2 S_{i-1}^-1,
    whose negative eigenvalues add up to the count (Haynsworth's inertia additivity). With
    one node per line (1-D) it is the scalar Sturm recurrence q_i = (d_i - sigma) -
    ex_{i-1}^2 / q_{i-1}, run on Python floats; otherwise each S_i is solved by numpy's eigh.
    """
    my = len(H.ey) + 1
    if my == 1:
        count, q = 0, 1.0
        for shifted, e2 in zip((H.d - sigma).tolist(), [0.0] + (H.ex * H.ex).tolist()):
            q = shifted - e2 / q
            if q == 0.0:
                return None
            count += q < 0.0
        return count
    line, count, inverse = np.diag(H.ey, 1) + np.diag(H.ey, -1), 0, np.zeros((my, my))
    for shifted, e in zip((H.d - sigma).reshape(-1, my), [0.0, *H.ex]):
        w, Q = np.linalg.eigh(line + np.diag(shifted) - e * e * inverse)
        if not w.all():
            return None
        count += np.count_nonzero(w < 0.0)
        inverse = (Q / w) @ Q.T
    return count


def _inertia(H, sigma: float) -> int:
    """Count of the eigenvalues of H below sigma, made without solving for them: by Sylvester's
    law of inertia, the negative pivots of H - sigma I factored unpivoted (a Sturm count)."""
    for _ in range(2):
        count = _negative_pivots(H, sigma)
        if count is not None:
            return count
        # an exactly zero pivot: move off it by a relative 1e-12, and by at least 1e-14 of
        # H's largest entry, since a smaller move can vanish in the rounding of H - sigma I
        scale = max(np.abs(a).max(initial=0.0) for a in (H.d, H.ex, H.ey))
        sigma += max(1e-12 * abs(sigma), 1e-14 * scale)
    raise NumericalError(f"no pivot-free factorization of H - sigma I near sigma = {sigma:g}")


def _first_dropped(blocks: list, lo: float, hi: float, tol: float) -> float:
    """The lowest (n - 1)th of the n eigenvalues of each of these blocks, the first state one of
    them cannot resolve, to within tol above it, by bisection on their Sturm counts inside
    (lo, hi]: no block has more than n - 2 states below lo, and one has more below hi."""
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if any(_inertia(H, mid) > H.shape[0] - 2 for H in blocks):
            hi = mid
        else:
            lo = mid
    return hi


def _window_count(action: ActionSpec, grid: Grid, gap: float) -> tuple:
    """Per mirror sector, the count of its states below E_0 + gap."""
    sigma = float(_ground_state(action, grid).eigenvalues[0]) + gap
    return tuple(_inertia(H, sigma) for _, H in _sector_hamiltonians(action, grid))


def spectral_decompose(H, k: int, grid: Grid, sector: tuple = None) -> SpectralData:
    """Lowest-k eigenpairs, normalized to unit h^dim-weighted sum of squares,
    each with its largest entry positive.

    H is ``discretize_hamiltonian``'s matrix, or with a ``sector`` that
    sector's block, and each eigenvector is returned over the whole grid,
    mirrored by its parity, so that mirrored nodes carry bitwise equal or
    opposite values.
    """
    n = H.shape[0]
    if not 1 <= k <= n - 2:
        raise ValueError(f"need 1 <= k <= {n - 2}, got {k}")
    sector = sector or (0,) * grid.dim
    axes = [_axis_sector(npt, p) for npt, p in zip(grid.npoints, sector)]
    if math.prod(m for m, _, _ in axes) != n:
        raise ValueError("grid does not match Hamiltonian size")
    from . import _lapack

    vals, vecs = _lapack.eigh_tridiagonal(H.d, H.ex, k) if grid.dim == 1 else _block_eigh(H, k)
    shape = [m for m, _, _ in axes]
    for a, (_, take, coef) in enumerate(axes):
        if take is not None:
            vecs = np.take(vecs.reshape([k] + shape), take, axis=a + 1)
            vecs *= coef.reshape((-1,) + (1,) * (grid.dim - 1 - a))
            shape[a] = len(take)
            vecs = vecs.reshape(k, -1)
    # rescale rows in place: a vectorized rescale would hold a second k x n array
    scale = 1.0 / math.sqrt(math.prod(grid.spacing))
    for v in vecs:
        v *= math.copysign(scale, v[np.argmax(np.abs(v))]) / np.linalg.norm(v)
    return SpectralData(grid=grid, eigenvalues=np.asarray(vals, dtype=float), eigenvectors=vecs)


@functools.lru_cache(maxsize=16)
def _ground_state(action: ActionSpec, grid: Grid) -> SpectralData:
    """The lowest state alone, solved on the all-even block that holds it."""
    sector, H = _sector_hamiltonians(action, grid)[0]
    return spectral_decompose(H, 1, grid, sector)


@functools.lru_cache(maxsize=4)  # each entry holds a window's eigenvectors
def decompose_for_time(action: ActionSpec, grid: Grid, T: float) -> SpectralData:
    """The states whose Boltzmann weight exp(-(E - E_0) T / hbar) is at least 1e-14.

    Each block with states in the window is solved once, for exactly its counted
    states (1-D blocks on one thread each, up to the usable CPUs), and the solves
    are merged in block order by energy (a stable sort). Raises NumericalError,
    before any solve, when a block has more states in the window than it resolves
    (n - 2 of n nodes), quoting the first dropped state's weight, and after the
    solves when a block's top value lies above the window it was counted for.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"transition time must be positive and finite, got {T}")
    gap = -action.hbar * math.log(BOLTZMANN_CUTOFF) / T
    counts = list(_window_count(action, grid, gap))
    e0 = float(_ground_state(action, grid).eigenvalues[0])
    blocks = _sector_hamiltonians(action, grid)
    counts[0] = max(counts[0], 1)  # the window can be narrower than the rounding of E_0
    short = [H for (_, H), count in zip(blocks, counts) if count > H.shape[0] - 2]
    if short:
        # the first state a block drops is its (n - 1)th, the second from the top; the
        # quoted weight's exponent is exact to 1e-9, far below its three digits
        dropped = _first_dropped(short, e0, e0 + gap, 1e-9 * action.hbar / T)
        raise NumericalError(
            f"the grid resolves {sum(H.shape[0] - 2 for _, H in blocks)} states, too few for the "
            f"Boltzmann window at T={T:g}: dropped states carry weight up to "
            f"{math.exp(-(dropped - e0) * T / action.hbar):.3g} of the ground state's "
            f"(cutoff {BOLTZMANN_CUTOFF:g}); use a finer grid or a longer T"
        )
    jobs = [(H, count, grid, sector) for (sector, H), count in zip(blocks, counts) if count]
    # 2-D blocks stay serial (README, "Block threads")
    workers = min(len(jobs), len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    if grid.dim == 1 and workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(spectral_decompose, *zip(*jobs)))  # block order, whichever finishes first
    else:
        parts = [spectral_decompose(*job) for job in jobs]
    lost = [job[3] for job, p in zip(jobs, parts) if p.eigenvalues[-1] > e0 + gap + 1e-12 * abs(e0 + gap)]
    if lost:
        raise NumericalError(
            f"the solve of mirror block {lost[0]} at T={T:g} reached above the window it was counted for: "
            "its count and its solve disagree, or the solve lost a state"
        )
    E = np.concatenate([p.eigenvalues for p in parts])
    order = np.argsort(E, kind="stable")
    # row by row: concatenating the parts first would hold every solved vector twice
    rows = [v for p in parts for v in p.eigenvectors]
    vecs = np.empty((len(E), grid.size))
    for out, i in zip(vecs, order):
        out[:] = rows[i]
    return SpectralData(grid=grid, eigenvalues=E[order], eigenvectors=vecs)


def euclidean_propagate(action: ActionSpec, grid: Grid, T: float, pairs) -> PropagatorTable:
    """Spectral Euclidean amplitudes for boundary pairs lying on grid nodes."""
    pairs = _normalize_pairs(pairs, grid.dim)
    if not 1 <= len(pairs) <= MAX_PAIRS:
        raise ValueError(f"a table holds 1 to {MAX_PAIRS} boundary pairs, got {len(pairs)}")
    # off-node pairs fail here, before any eigensolve
    nodes = grid.indices_of([p[0] for p in pairs] + [p[1] for p in pairs])  # initial points first
    idx_i, idx_f = nodes[: len(pairs)], nodes[len(pairs) :]
    sd = decompose_for_time(action, grid, T)
    psis = sd.eigenvectors
    boltz = np.exp(-sd.eigenvalues * T / action.hbar)
    amps = np.array(
        [float(np.sum(psis[:, i] * psis[:, f] * boltz)) for i, f in zip(idx_i, idx_f)]
    )
    return PropagatorTable(grid=grid, T=T, pairs=tuple(pairs), amplitudes=amps)


def _normalize_pairs(pairs, dim: int):
    out = []
    for pair in pairs:
        xi, xf = pair
        xi = tuple(float(v) for v in np.atleast_1d(xi))
        xf = tuple(float(v) for v in np.atleast_1d(xf))
        if len(xi) != dim or len(xf) != dim:
            raise ValueError(f"pair {pair} does not match grid dimension {dim}")
        out.append((xi, xf))
    return out


def tensor_pairs(initial_points, final_points):
    """All (initial, final) combinations of two point collections, at most ``MAX_PAIRS``."""
    init = [tuple(np.atleast_1d(p)) for p in initial_points]
    fin = [tuple(np.atleast_1d(p)) for p in final_points]
    if len(init) * len(fin) > MAX_PAIRS:
        raise ValueError(f"a table holds at most {MAX_PAIRS} boundary pairs, got {len(init)} x {len(fin)}")
    return [(a, b) for a in init for b in fin]


# -- harmonic-oscillator closed forms (oracle) ------------------------------


def ho_euclidean_action(m: float, omega: float, x_i: float, x_f: float, T: float) -> float:
    """Classical Euclidean action of the harmonic oscillator two-point path."""
    s = math.sinh(omega * T)
    c = math.cosh(omega * T)
    return m * omega / (2.0 * s) * ((x_i**2 + x_f**2) * c - 2.0 * x_i * x_f)


def ho_exact_propagator(m: float, omega: float, hbar: float, x_i: float, x_f: float, T: float) -> float:
    """Closed-form Euclidean harmonic-oscillator kernel,
    sqrt(m w / 2 pi hbar sinh(wT)) exp(-S_E/hbar)."""
    if T <= 0:
        raise ValueError(f"transition time must be positive, got {T}")
    if m <= 0 or omega <= 0 or hbar <= 0:
        raise ValueError("m, omega, hbar must be positive")
    s_e = ho_euclidean_action(m, omega, x_i, x_f, T)
    pref = math.sqrt(m * omega / (2.0 * math.pi * hbar * math.sinh(omega * T)))
    return pref * math.exp(-s_e / hbar)
