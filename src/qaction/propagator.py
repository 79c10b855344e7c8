"""Euclidean transition amplitudes on Dirichlet grids.

The Hamiltonian is discretized with second-order central differences on a
symmetric box, diagonalized, and amplitudes are assembled from the spectral
sum G(xf, T; xi) = sum_n psi_n(xf) psi_n(xi) exp(-E_n T / hbar).
Eigenfunctions are normalized by the plain sum over nodes times h^dim, the
inner product under which the stencil's eigenvectors are orthogonal, so they
carry the continuum 1/sqrt(h) scale per dimension and the sum needs no extra
factor.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import ActionSpec, _as_integer, _as_number

# spectral terms lighter than this fraction of the leading one are dropped
BOLTZMANN_CUTOFF = 1e-14
# 2-D grids up to this many nodes are diagonalized densely, larger ones by shift-invert
DENSE_MAX_NODES = 2048


@dataclass(frozen=True)
class Grid:
    """Symmetric tensor grid [-L, L]^dim with N points per axis (N >= 16)."""

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
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "npoints", npt)

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple:
        return self.npoints

    @property
    def size(self) -> int:
        return int(np.prod(self.npoints))

    @property
    def spacing(self) -> tuple:
        return tuple(2.0 * L / (n - 1) for L, n in zip(self.extents, self.npoints))

    def axes(self) -> list:
        return [np.linspace(-L, L, n) for L, n in zip(self.extents, self.npoints)]

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
        """Node coordinates, shape (*shape, dim)."""
        return np.stack(np.meshgrid(*self.axes(), indexing="ij"), axis=-1)

    def _nearest_node(self, point) -> tuple:
        """(point as floats, per-axis index of the node nearest to it).

        Points outside the box go to the nearest edge node. A point halfway
        between two nodes goes to the one nearer the grid centre, so a
        mirrored point gets the mirrored node.
        """
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        if pt.shape != (self.dim,):
            raise ValueError(f"point has shape {pt.shape}, expected ({self.dim},)")
        idx = []
        for x, L, n, h in zip(pt.tolist(), self.extents, self.npoints, self.spacing):
            x = min(max(x, -L), L)
            centre = (n - 1) / 2.0
            half = centre % 1.0  # 0.5 when no node sits at the centre
            # offset from the centre in node spacings, rounded half toward the centre
            offset = math.ceil(abs(x) / h - half - 0.5) + half
            idx.append(int(centre + math.copysign(offset, x)))
        return pt, idx

    def index_of(self, point) -> int:
        """Flat index of a point that must lie within 1e-6 h of a grid node."""
        pt, idx = self._nearest_node(point)
        if any(abs(x - ax[i]) > 1e-6 * h for x, ax, i, h in zip(pt, self.axes(), idx, self.spacing)):
            raise ValueError(f"point {tuple(pt)} does not lie on a grid node")
        return int(np.ravel_multi_index(idx, self.npoints))

    def snap(self, point) -> tuple:
        """Nearest grid node to a point, as coordinates taken from ``axes()``."""
        _, idx = self._nearest_node(point)
        return tuple(float(ax[i]) for ax, i in zip(self.axes(), idx))

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

    def overlap_matrix(self) -> np.ndarray:
        return math.prod(self.grid.spacing) * (self.eigenvectors @ self.eigenvectors.T)


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
        if not np.all(np.isfinite(amps)) or np.any(amps <= 0.0):
            raise NumericalError(
                "non-positive amplitude in propagator table; increase the "
                "spectral cutoff or reduce the boundary-point separation"
            )
        object.__setattr__(self, "amplitudes", amps)

    def to_rows(self):
        for (xi, xf), g in zip(self.pairs, self.amplitudes):
            yield list(xi) + list(xf) + [self.T, float(g)]

    def csv_header(self) -> list:
        if self.grid.dim == 1:
            return ["xi", "xf", "T", "G"]
        return ["xi", "yi", "xf", "yf", "T", "G"]


def discretize_hamiltonian(action: ActionSpec, grid: Grid):
    """Sparse Hermitian H = -(hbar^2/2m) Laplacian + V with Dirichlet walls (CSR)."""
    import scipy.sparse as sp

    if action.dimension != grid.dim:
        raise ValueError(
            f"action dimension {action.dimension} != grid dimension {grid.dim}"
        )
    hb2m = action.hbar**2 / (2.0 * action.mass)
    mats = []
    for h, n in zip(grid.spacing, grid.npoints):
        main = np.full(n, 2.0 * hb2m / h**2)
        off = np.full(n - 1, -hb2m / h**2)
        mats.append(sp.diags([off, main, off], [-1, 0, 1], format="csr"))
    if grid.dim == 1:
        H = mats[0]
    else:
        nx, ny = grid.npoints
        H = sp.kron(mats[0], sp.identity(ny, format="csr")) + sp.kron(
            sp.identity(nx, format="csr"), mats[1]
        )
    H = H + sp.diags(action.potential.evaluate_points(grid.nodes()).ravel())
    return sp.csr_matrix(H)


def _lowest_eigsh(H, k: int):
    import scipy.sparse.linalg as spla

    # Gershgorin bound (= min V for this stencil) less one: below the spectrum, so LM finds the lowest
    offdiag = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(H.diagonal())
    sigma = float((H.diagonal() - offdiag).min()) - 1.0
    v0 = np.full(H.shape[0], 1.0 / math.sqrt(H.shape[0]))  # fixed start vector for determinism
    try:
        return spla.eigsh(H, k=k, sigma=sigma, which="LM", v0=v0, maxiter=5000)
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(f"sparse eigensolver did not converge: {exc}") from exc


@functools.lru_cache(maxsize=16)
def _window_count(action: ActionSpec, grid: Grid, gap: float) -> int:
    """Count of the grid states below E_0 + gap, made without solving for them: by Sylvester's law
    of inertia, the negative pivots of H - sigma I factored unpivoted (a Sturm count if tridiagonal)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    H = discretize_hamiltonian(action, grid)
    sigma = float(_lowest_eigsh(H, 1)[0][0]) + gap
    for _ in range(2):
        A = (H - sigma * sp.identity(grid.size)).tocsc()
        lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        if np.array_equal(lu.perm_r, np.arange(grid.size)):
            return int(np.count_nonzero(lu.U.diagonal() < 0.0))
        sigma += 1e-12 * abs(sigma)  # SuperLU swapped rows at an exactly zero pivot
    raise NumericalError(f"no pivot-free factorization of H - sigma I near sigma = {sigma:g}")


def spectral_decompose(H, k: int, grid: Grid) -> SpectralData:
    """Lowest-k eigenpairs, normalized to unit h^dim-weighted sum of squares,
    each with its largest entry positive."""
    import scipy.linalg

    n = H.shape[0]
    if not 1 <= k <= n - 2:
        raise ValueError(f"need 1 <= k <= {n - 2}, got {k}")
    if grid.size != n:
        raise ValueError("grid does not match Hamiltonian size")
    if grid.dim == 1:
        d = H.diagonal()
        e = H.diagonal(1)
        vals, vecs = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
        vecs = vecs.T
    elif n <= DENSE_MAX_NODES:
        vals, vecs = scipy.linalg.eigh(H.toarray(), subset_by_index=[0, k - 1])
        vecs = vecs.T
    else:
        vals, vecs = _lowest_eigsh(H, k)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order].T
    # rescale rows in place: a vectorized rescale would hold a second k x n array
    scale = 1.0 / math.sqrt(math.prod(grid.spacing))
    for v in vecs:
        v *= math.copysign(scale, v[np.argmax(np.abs(v))]) / np.linalg.norm(v)
    return SpectralData(grid=grid, eigenvalues=np.asarray(vals, dtype=float), eigenvectors=vecs)


@functools.lru_cache(maxsize=16)
def _cached_decomposition(action: ActionSpec, grid: Grid, k: int) -> SpectralData:
    H = discretize_hamiltonian(action, grid)
    return spectral_decompose(H, k, grid)


def _truncation_error(kept: int, dropped_gap: float, T: float, hbar: float) -> NumericalError:
    weight = math.exp(-dropped_gap * T / hbar)
    return NumericalError(
        f"the grid's {kept} lowest states do not cover the Boltzmann window at T={T:g}: "
        f"dropped states carry weight up to {weight:.3g} of the ground state's "
        f"(cutoff {BOLTZMANN_CUTOFF:g}); use a finer grid or a longer T"
    )


def decompose_for_time(action: ActionSpec, grid: Grid, T: float) -> SpectralData:
    """Decomposition with enough states that dropped Boltzmann weights < 1e-14.

    The states with E - E_0 < -hbar ln(1e-14) / T are counted first, without a
    solve. A dense 2-D grid solves for exactly those, other grids for the first
    of 32, 64, 128, ... above the count, doubled while the last state solved
    lies inside. Raises NumericalError when the grid has too few states.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"transition time must be positive and finite, got {T}")
    gap_needed = -action.hbar * math.log(BOLTZMANN_CUTOFF) / T
    kmax = grid.size - 2
    count = _window_count(action, grid, gap_needed)
    if grid.dim == 2 and grid.size <= DENSE_MAX_NODES:
        if count > kmax:
            import scipy.linalg
            E = scipy.linalg.eigh(discretize_hamiltonian(action, grid).toarray(), eigvals_only=True)
            raise _truncation_error(kmax, E[kmax] - E[0], T, action.hbar)
        return _cached_decomposition(action, grid, max(count, 1))
    k = min(32 << (count // 32).bit_length(), kmax)
    while True:
        sd = _cached_decomposition(action, grid, k)
        gap = sd.eigenvalues[-1] - sd.eigenvalues[0]
        if gap >= gap_needed:
            return sd
        if k >= kmax:
            raise _truncation_error(kmax, gap, T, action.hbar)
        k = min(2 * k, kmax)


def euclidean_propagate(action: ActionSpec, grid: Grid, T: float, pairs) -> PropagatorTable:
    """Spectral Euclidean amplitudes for boundary pairs lying on grid nodes."""
    pairs = _normalize_pairs(pairs, grid.dim)
    if not pairs:
        raise ValueError("at least one boundary pair required")
    # off-node pairs fail here, before any eigensolve
    idx_i = [grid.index_of(p[0]) for p in pairs]
    idx_f = [grid.index_of(p[1]) for p in pairs]
    sd = decompose_for_time(action, grid, T)
    E = sd.eigenvalues
    weights = np.exp(-(E - E[0]) * T / action.hbar)
    keep = weights >= BOLTZMANN_CUTOFF
    psis = sd.eigenvectors[keep]
    boltz = np.exp(-E[keep] * T / action.hbar)
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
    """All (initial, final) combinations of two point collections."""
    init = [tuple(np.atleast_1d(p)) for p in initial_points]
    fin = [tuple(np.atleast_1d(p)) for p in final_points]
    return [(a, b) for a in init for b in fin]


# -- harmonic-oscillator closed forms (oracle) ------------------------------


def ho_euclidean_action(m: float, omega: float, x_i: float, x_f: float, T: float) -> float:
    """Classical Euclidean action of the harmonic oscillator two-point path."""
    s = math.sinh(omega * T)
    c = math.cosh(omega * T)
    return m * omega / (2.0 * s) * ((x_i**2 + x_f**2) * c - 2.0 * x_i * x_f)


def ho_exact_propagator(
    m: float,
    omega: float,
    hbar: float,
    x_i: float,
    x_f: float,
    T: float,
    time_kind: str = "euclidean",
):
    """Closed-form harmonic-oscillator kernel, Euclidean or real time.

    Euclidean: sqrt(m w / 2 pi hbar sinh(wT)) exp(-S_E/hbar), real:
    sqrt(m w / 2 pi i hbar sin(wT)) exp(i S/hbar). Real time raises at
    caustics sin(wT) = 0.
    """
    if T <= 0:
        raise ValueError(f"transition time must be positive, got {T}")
    if m <= 0 or omega <= 0 or hbar <= 0:
        raise ValueError("m, omega, hbar must be positive")
    if time_kind == "euclidean":
        s_e = ho_euclidean_action(m, omega, x_i, x_f, T)
        pref = math.sqrt(m * omega / (2.0 * math.pi * hbar * math.sinh(omega * T)))
        return pref * math.exp(-s_e / hbar)
    if time_kind == "real":
        s = math.sin(omega * T)
        if abs(s) < 1e-12:
            raise NumericalError(f"caustic: sin(omega T) vanishes at T={T}")
        action = m * omega / (2.0 * s) * ((x_i**2 + x_f**2) * math.cos(omega * T) - 2.0 * x_i * x_f)
        pref = np.sqrt(m * omega / (2.0j * math.pi * hbar * s))
        return complex(pref * np.exp(1j * action / hbar))
    raise ValueError(f"time_kind must be 'euclidean' or 'real', got {time_kind!r}")
