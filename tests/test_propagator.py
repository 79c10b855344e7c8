import decimal
import functools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qaction import (
    ActionSpec,
    Grid,
    NumericalError,
    PolynomialPotential,
    ScaleTransform,
    apply_scale_transform,
    discretize_hamiltonian,
    euclidean_propagate,
    ho_exact_propagator,
    spectral_decompose,
    tensor_pairs,
)
from qaction import _lapack, propagator
from qaction.propagator import (
    BOLTZMANN_CUTOFF,
    MAX_GRID_NODES,
    MAX_PAIRS,
    _ground_state,
    _inertia,
    _negative_pivots,
    _sector_hamiltonians,
    _Block,
    _sectors,
    _window_count,
    decompose_for_time,
)

# 1681 nodes: four mirror blocks of 400 to 441 nodes
DENSE_GRID = Grid((5.0, 5.0), (41, 41))
HO_2D = ActionSpec(mass=1.0, potential=PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5}), hbar=1.0)


def test_free_particle_kinetic_stencil():
    grid = Grid((1.0,), (21,))
    act = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {}), hbar=1.0)
    H = discretize_hamiltonian(act, grid).toarray()
    h = grid.spacing[0]
    npt.assert_allclose(np.diag(H), 1.0 / h**2, rtol=1e-14)
    npt.assert_allclose(np.diag(H, 1), -0.5 / h**2, rtol=1e-14)
    npt.assert_allclose(H, H.T, rtol=0, atol=0)


def test_dimension_mismatch_rejected(ho):
    with pytest.raises(ValueError):
        discretize_hamiltonian(ho, Grid((5.0, 5.0), (32, 32)))


def test_ho_ground_energy_at_spec_grid(ho):
    grid = Grid((10.0,), (513,))
    sd = spectral_decompose(discretize_hamiltonian(ho, grid), 1, grid)
    assert abs(sd.eigenvalues[0] - 0.5) < 1e-4


def test_ho_lowest_four_levels(ho):
    grid = Grid((10.0,), (769,))
    sd = spectral_decompose(discretize_hamiltonian(ho, grid), 4, grid)
    npt.assert_allclose(sd.eigenvalues, [0.5, 1.5, 2.5, 3.5], atol=1e-3, rtol=0)
    assert np.all(np.diff(sd.eigenvalues) > 0)


def test_2d_hamiltonian_hermitian(coupled_2d):
    """H is symmetric bit for bit, and is the Kronecker sum of the two axes'
    kinetic blocks plus V, whole or on a mirror sector."""
    grid = Grid((6.0, 6.0), (48, 47))
    for sector in (None, (1, -1), (-1, 1)):
        H = discretize_hamiltonian(coupled_2d, grid, sector)
        A = H.toarray()
        assert np.array_equal(A, A.T)
        sx, sy = (Grid((6.0,), (n,)) for n in grid.npoints)
        px, py = sector or (0, 0)
        free = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {}))
        kx = discretize_hamiltonian(free, sx, (px,) if px else None).toarray()
        ky = discretize_hamiltonian(free, sy, (py,) if py else None).toarray()
        V = A.diagonal() - np.add.outer(kx.diagonal(), ky.diagonal()).ravel()
        kron = np.kron(kx, np.eye(len(ky))) + np.kron(np.eye(len(kx)), ky)
        npt.assert_allclose(A, kron + np.diag(V), rtol=0, atol=0)
        nodes = grid.nodes()[: len(kx), : len(ky)]
        npt.assert_allclose(V, coupled_2d.potential.evaluate_points(nodes).ravel(), rtol=1e-12, atol=1e-12)
        ab = H.lower_band()
        assert ab.shape == (len(ky) + 1, H.shape[0])
        assert all(np.array_equal(ab[k, : H.shape[0] - k], A.diagonal(-k)) for k in range(len(ky) + 1))


def test_2d_uncoupled_ho_levels():
    pot = PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5})
    act = ActionSpec(mass=1.0, potential=pot, hbar=1.0)
    grid = Grid((4.5, 4.5), (128, 128))
    sd = spectral_decompose(discretize_hamiltonian(act, grid), 3, grid)
    npt.assert_allclose(sd.eigenvalues, [1.0, 2.0, 2.0], atol=1e-3, rtol=0)


def test_quartic_ground_energy_self_convergence(quartic):
    coarse = Grid((5.0,), (401,))
    fine = Grid((5.0,), (801,))
    e_coarse = spectral_decompose(discretize_hamiltonian(quartic, coarse), 1, coarse).eigenvalues[0]
    e_fine = spectral_decompose(discretize_hamiltonian(quartic, fine), 1, fine).eigenvalues[0]
    assert abs(e_coarse - e_fine) < 1e-3


def test_eigenvectors_orthonormal(ho):
    grid = Grid((8.0,), (401,))
    sd = spectral_decompose(discretize_hamiltonian(ho, grid), 5, grid)
    npt.assert_allclose(grid.spacing[0] * (sd.eigenvectors @ sd.eigenvectors.T), np.eye(5), atol=1e-10)


def test_dense_window_states_orthonormal_where_they_reach_the_wall():
    """The coupled window at T = 1.5 holds states that reach the box edge,
    where trapezoid weights would miss their plain-sum orthogonality."""
    coupled = ActionSpec(
        mass=1.0, potential=PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05})
    )
    sd = decompose_for_time(coupled, DENSE_GRID, 1.5)
    k = len(sd.eigenvalues)
    assert k > 100
    overlap = math.prod(DENSE_GRID.spacing) * (sd.eigenvectors @ sd.eigenvectors.T)
    assert np.max(np.abs(overlap - np.eye(k))) < 1e-12


def test_spectral_decompose_validates_k(ho):
    grid = Grid((8.0,), (64,))
    H = discretize_hamiltonian(ho, grid)
    with pytest.raises(ValueError):
        spectral_decompose(H, 0, grid)
    with pytest.raises(ValueError):
        spectral_decompose(H, 63, grid)


def test_ho_kernel_value_at_origin(ho, ho_grid):
    table = euclidean_propagate(ho, ho_grid, 1.0, [((0.0,), (0.0,))])
    assert abs(table.amplitudes[0] - 0.36800) < 1e-4


def test_ho_exact_propagator_examples():
    assert ho_exact_propagator(1.0, 1.0, 1.0, 0.0, 0.0, 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi * math.sinh(1.0)), rel=1e-12
    )
    small = ho_exact_propagator(1.0, 1.0, 1.0, 0.0, 0.0, 1e-6)
    assert small == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 1e-6), rel=1e-5)
    with pytest.raises(ValueError):
        ho_exact_propagator(1.0, 1.0, 1.0, 0.0, 0.0, -1.0)


def test_exchange_symmetry(quartic):
    grid = Grid((5.0,), (801,))
    pairs = [((-0.7,), (1.2,)), ((1.2,), (-0.7,))]
    table = euclidean_propagate(quartic, grid, 0.8, pairs)
    assert abs(table.amplitudes[0] - table.amplitudes[1]) < 1e-10


def test_amplitudes_positive(quartic):
    grid = Grid((5.0,), (801,))
    pts = [(x,) for x in (-1.0, -0.25, 0.0, 0.5, 1.5)]
    table = euclidean_propagate(quartic, grid, 2.0, tensor_pairs(pts, pts))
    assert np.all(table.amplitudes > 0.0)


def test_semigroup_property(ho, ho_grid):
    """G(T1+T2) = integral dy G(x,y;T1) G(y,z;T2); tails beyond |y|=3 are
    below 1e-7 of the direct amplitude and are dropped."""
    xs = ho_grid.axes()[0]
    keep = np.abs(xs) <= 3.0
    ys = xs[keep]
    x, z = 0.0, 0.5
    t1, t2 = 0.6, 0.4
    left = euclidean_propagate(ho, ho_grid, t1, [((x,), (y,)) for y in ys]).amplitudes
    right = euclidean_propagate(ho, ho_grid, t2, [((y,), (z,)) for y in ys]).amplitudes
    h = ho_grid.spacing[0]
    composed = float(np.sum(h * left * right))
    direct = euclidean_propagate(ho, ho_grid, t1 + t2, [((x,), (z,))]).amplitudes[0]
    assert abs(composed - direct) / direct < 1e-6


def test_scale_invariance_of_amplitudes(ho, ho_grid):
    pairs = [((0.0,), (0.5,)), ((-1.0,), (1.0,))]
    base = euclidean_propagate(ho, ho_grid, 2.0, pairs).amplitudes
    for alpha in (0.5, 2.0):
        scaled, t_new = apply_scale_transform(ho, 2.0, ScaleTransform(alpha))
        moved = euclidean_propagate(scaled, ho_grid, t_new, pairs).amplitudes
        npt.assert_allclose(moved, base, rtol=1e-6)


def test_grid_convergence_order(ho):
    """Halving h changes the (0,0) amplitude at second order."""
    amps = {}
    for n in (201, 401, 801):
        grid = Grid((8.0,), (n,))
        amps[n] = euclidean_propagate(ho, grid, 1.0, [((0.0,), (0.0,))]).amplitudes[0]
    exact = ho_exact_propagator(1.0, 1.0, 1.0, 0.0, 0.0, 1.0)
    e_coarse = abs(amps[201] - exact)
    e_mid = abs(amps[401] - exact)
    e_fine = abs(amps[801] - exact)
    order_a = math.log2(e_coarse / e_mid)
    order_b = math.log2(e_mid / e_fine)
    assert 1.8 < order_a < 2.2
    assert 1.8 < order_b < 2.2


def test_propagate_rejects_bad_inputs(ho, ho_grid):
    with pytest.raises(ValueError):
        euclidean_propagate(ho, ho_grid, -1.0, [((0.0,), (0.0,))])
    with pytest.raises(ValueError):
        euclidean_propagate(ho, ho_grid, 1.0, [((9.0,), (0.0,))])


def test_pair_count_beyond_its_bound_is_refused_before_eigensolve(ho, ho_grid, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached with too many pairs")

    monkeypatch.setattr(propagator, "decompose_for_time", no_solve)
    for pairs in ([], [((0.0,), (0.0,))] * (MAX_PAIRS + 1)):
        with pytest.raises(ValueError, match="boundary pairs"):
            euclidean_propagate(ho, ho_grid, 1.0, pairs)
    with pytest.raises(ValueError, match="boundary pairs"):
        tensor_pairs([(0.0,)] * 257, [(0.0,)] * 256)
    assert len(tensor_pairs([(0.0,)] * 256, [(0.0,)] * 256)) == MAX_PAIRS


def test_table_rejects_nonpositive_amplitude(ho, ho_grid):
    from qaction import PropagatorTable

    with pytest.raises(NumericalError):
        PropagatorTable(
            grid=ho_grid, T=1.0, pairs=(((0.0,), (0.0,)),), amplitudes=np.array([-0.1])
        )


def test_dense_window_holds_exactly_the_kept_states(coupled_2d):
    T = 1.5
    sd = decompose_for_time(coupled_2d, DENSE_GRID, T)
    H = discretize_hamiltonian(coupled_2d, DENSE_GRID).toarray()
    full_vals, _ = scipy.linalg.eigh(H)
    in_window = full_vals - full_vals[0] <= -math.log(BOLTZMANN_CUTOFF) / T
    assert len(sd.eigenvalues) == np.count_nonzero(in_window) < DENSE_GRID.size - 2
    npt.assert_allclose(sd.eigenvalues, full_vals[in_window], rtol=0, atol=1e-10)


def test_dense_separable_amplitudes_factorize(ho):
    """On a tensor grid, H = H_x + H_y for V = (x^2 + y^2)/2, so G is the
    product of the 1-D amplitudes along each axis."""
    axis_grid = Grid((5.0,), (41,))
    T = 1.5
    pts = (-1.0, 0.0, 0.5, 1.25)
    axis_amp = dict(
        zip(
            [(a, b) for a in pts for b in pts],
            euclidean_propagate(ho, axis_grid, T, tensor_pairs(pts, pts)).amplitudes,
        )
    )
    pairs = [((-1.0, 0.5), (1.25, 0.0)), ((0.0, 0.0), (0.0, 0.0)), ((0.5, -1.0), (-1.0, 1.25))]
    amps = euclidean_propagate(HO_2D, DENSE_GRID, T, pairs).amplitudes
    product = [axis_amp[(xi[0], xf[0])] * axis_amp[(xi[1], xf[1])] for xi, xf in pairs]
    npt.assert_allclose(amps, product, rtol=1e-10, atol=0)


def test_truncated_window_raises(ho, monkeypatch):
    """T = 1e-3 needs every state up to E_0 + 3.2e4. A block of n nodes
    resolves n - 2 states, so the 8-node mirror sectors of a 16-node axis
    resolve 12 states in 1-D and 4 x 62 = 248 in 2-D. The weight quoted is
    that of the first dropped state, the lowest (n - 1)th state of a sector.
    The reference takes each sector's levels from a dense solve of the whole
    H: in 1-D the states alternate in parity, and this 2-D V is separable, so
    a sector's levels are the sums of 1-D levels of its two parities."""
    T = 1e-3
    axis = Grid((8.0,), (16,))
    E = scipy.linalg.eigvalsh(discretize_hamiltonian(ho, axis).toarray())
    halves = (E[0::2], E[1::2])
    weight = math.exp(-(min(h[6] for h in halves) - E[0]) * T)
    assert weight == math.exp(-(E[12] - E[0]) * T)
    with monkeypatch.context() as m, pytest.raises(
        NumericalError, match=rf"resolves 12 states, .* weight up to {re.escape(f'{weight:.3g}')} of"
    ):
        m.setattr(propagator, "_block_eigh", None)  # a 1-D block is solved as tridiagonal
        decompose_for_time(ho, axis, T)
    grid = Grid((8.0, 8.0), (16, 16))
    full = scipy.linalg.eigvalsh(discretize_hamiltonian(HO_2D, grid).toarray())
    sectors = [np.sort(np.add.outer(ex, ey).ravel()) for ex in halves for ey in halves]
    npt.assert_allclose(np.sort(np.concatenate(sectors)), full, rtol=0, atol=1e-10)
    weight = math.exp(-(min(s[62] for s in sectors) - full[0]) * T)
    with pytest.raises(NumericalError, match=rf"resolves 248 states, .* weight up to {re.escape(f'{weight:.3g}')} of"):
        decompose_for_time(HO_2D, grid, T)


def test_window_narrower_than_rounding_keeps_the_ground_state():
    """At T = 1e20 the window is far below the rounding of E_0, and the
    inertia count reads 0 on this grid; the ground state is solved anyway."""
    grid = Grid((6.0, 6.0), (36, 36))
    assert sum(_window_count(HO_2D, grid, -math.log(BOLTZMANN_CUTOFF) / 1e20)) == 0
    assert len(decompose_for_time(HO_2D, grid, 1e20).eigenvalues) == 1


def test_window_blocks_on_two_threads_give_the_serial_bits(ho, monkeypatch):
    """With two usable CPUs the even and odd blocks of a 1-D grid are solved on
    two threads. The even one is held back here, so the odd one finishes
    first; the parts are still merged in block order, bit for bit as on one CPU."""
    grid = Grid((8.0,), (2001,))
    solve = propagator.spectral_decompose
    finished = []

    def traced(H, k, grid, sector=None):
        on_main = threading.current_thread() is threading.main_thread()
        if not on_main and sector == (1,):
            time.sleep(0.2)
        sd = solve(H, k, grid, sector)
        finished.append((sector, on_main))
        return sd

    monkeypatch.setattr(propagator, "spectral_decompose", traced)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        for cached in (decompose_for_time, _ground_state, _sector_hamiltonians):
            cached.cache_clear()
        finished.clear()
        runs[cpus] = decompose_for_time(ho, grid, 0.5), list(finished)
    (serial, serial_order), (pooled, pooled_order) = runs[1], runs[2]
    # the ground state first, on the main thread, then the window's blocks
    assert serial_order == [((1,), True), ((1,), True), ((-1,), True)]
    assert pooled_order == [((1,), True), ((-1,), False), ((1,), False)]
    assert len(serial.eigenvalues) > 40
    assert serial.eigenvalues.tobytes() == pooled.eigenvalues.tobytes()
    assert serial.eigenvectors.tobytes() == pooled.eigenvectors.tobytes()


# 3600 nodes: four mirror sectors of 900, each solved by shift-invert Lanczos
SPARSE_GRID = Grid((6.3, 6.3), (60, 60))
QUARTIC = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(4,): 1.0}), hbar=1.0)
HO_1D = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5}), hbar=1.0)
# odd in x, even in y: two sectors of 41 x 21 and 41 x 20 nodes on a 41 x 41 grid
TILTED = ActionSpec(
    mass=1.0, potential=PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (1, 2): 0.1, (2, 2): 0.05})
)


def test_mirror_sectors_follow_the_parity_of_every_term(coupled_2d):
    assert _sectors(coupled_2d) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert _sectors(TILTED) == [(0, 1), (0, -1)]
    assert _sectors(ActionSpec(mass=1.0, potential=PolynomialPotential(2, {(2, 0): 1.0, (1, 1): 0.1}))) == [(0, 0)]
    assert [H.shape[0] for _, H in _sector_hamiltonians(TILTED, Grid((5.0, 5.0), (41, 41)))] == [861, 820]
    with pytest.raises(ValueError, match="mirror sector"):
        discretize_hamiltonian(TILTED, Grid((5.0, 5.0), (41, 41)), (1, 1))


@pytest.mark.parametrize(
    "action, grid, n_levels",
    [
        (None, Grid((6.0,), (301,)), 40),
        (None, Grid((6.0, 6.0), (30, 30)), 40),
        (TILTED, Grid((5.0, 5.0), (41, 41)), 16),
    ],
    ids=["1d", "2d-dense", "2d-sparse"],
)
def test_window_count_equals_the_eigenvalues_below_the_shift(ho, coupled_2d, action, grid, n_levels):
    """The per-sector inertia counts add up to a full spectrum's count, also
    for shifts within 1e-9 of an eigenvalue, on either side of it. Midpoints
    are taken only between distinct levels: the x <-> y pairs are degenerate
    to 1e-13. The last grid's sectors are counted by the block Sturm recurrence."""
    action = action or (ho if grid.dim == 1 else coupled_2d)
    E = scipy.linalg.eigvalsh(discretize_hamiltonian(action, grid).toarray())
    levels = E[:n_levels]
    midpoints = (0.5 * (levels[:-1] + levels[1:]))[np.diff(levels) > 1e-6]
    shifts = np.concatenate([levels - 1e-9, levels + 1e-9, midpoints])
    for sigma in shifts:
        assert sum(_window_count(action, grid, sigma - E[0])) == np.count_nonzero(E < sigma), sigma


def test_window_count_moves_off_a_zero_pivot(ho):
    """An exactly zero pivot of the Sturm recurrence raises sigma by a
    relative 1e-12 and counts again; a second zero raises NumericalError."""
    (_, even), _ = _sector_hamiltonians(ho, Grid((6.0,), (301,)))
    sigma = float(even.d[0])  # the first pivot, d_0 - sigma, is exactly zero
    assert _negative_pivots(even, sigma) is None
    E = np.linalg.eigvalsh(even.toarray())
    count = _inertia(even, sigma)
    assert count == _negative_pivots(even, sigma + 1e-12 * sigma) == np.count_nonzero(E < sigma) > 0
    # after the move the second pivot is exactly zero
    twice = _Block(np.array([1.0, 1.0 + 1e-12]), np.array([0.0]), np.zeros(0), 0.0)
    with pytest.raises(NumericalError, match="pivot-free"):
        _inertia(twice, 1.0)


@pytest.mark.parametrize("sigma", [6.601987256385616e-187, 1e-300, 0.0])
def test_zero_pivot_move_survives_a_shift_far_below_the_entries(sigma):
    """Pivot 6 of this block is (1 - sigma) - 1/(1 - sigma), exactly 0 while
    sigma is below rounding of 1; a move of 1e-12 sigma left it 0 (found by
    the Sturm property test), so the move is at least 1e-14 of H's scale."""
    H = _Block(np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
               np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0]), np.zeros(0), 0.0)
    assert _negative_pivots(H, sigma) is None
    assert _inertia(H, sigma) == np.count_nonzero(np.linalg.eigvalsh(H.toarray()) < sigma) == 3


def test_window_count_moves_off_a_zero_in_a_schur_block(coupled_2d, monkeypatch):
    """An exactly zero eigenvalue of a Schur block S_i of the block Sturm
    count raises sigma by a relative 1e-12 and counts again; a second zero
    raises NumericalError. First on a block whose lines are diagonal, where
    the zeros are exact; then on the coupled oscillator, with numpy's eigh
    made to return a zero."""
    block = _Block(np.array([1.0, 5.0, 1.0 + 1e-12, 5.0]), np.zeros(1), np.zeros(1), 0.0)
    assert _negative_pivots(block, 1.0) is None
    with pytest.raises(NumericalError, match="pivot-free"):
        _inertia(block, 1.0)  # S_0 = diag(0, 4), then S_1 = diag(0, 4 - 1e-12)
    block = _Block(np.array([1.0, 5.0, 3.0, 5.0]), np.zeros(1), np.zeros(1), 0.0)
    assert _inertia(block, 1.0) == 1

    grid, gap = Grid((6.0, 6.0), (30, 30)), 10.0
    expected = _window_count(coupled_2d, grid, gap)
    eigh, zeros, diagonals = np.linalg.eigh, [], []

    def zeroing(S):
        w, Q = eigh(S)
        diagonals.append(S.diagonal().copy())
        if zeros:
            zeros.pop()
            w[0] = 0.0
        return w, Q

    monkeypatch.setattr(np.linalg, "eigh", zeroing)
    zeros[:] = [True]  # the first line of the all-even block, then the same line again
    assert _window_count(coupled_2d, grid, gap) == expected
    # the first line has no line before it, so its S_0 is A_0 - sigma I and its diagonal d[:my] - sigma, exactly
    (_, even), *_ = _sector_hamiltonians(coupled_2d, grid)
    first = even.d[: len(even.ey) + 1]
    sigma = float(_ground_state(coupled_2d, grid).eigenvalues[0]) + gap
    scale = max(np.abs(a).max() for a in (even.d, even.ex, even.ey))
    moved = sigma + max(1e-12 * abs(sigma), 1e-14 * scale)
    assert diagonals[0].tobytes() == (first - sigma).tobytes()
    assert diagonals[1].tobytes() == (first - moved).tobytes()
    zeros[:] = [True, True]
    with pytest.raises(NumericalError, match="pivot-free"):
        _window_count(coupled_2d, grid, gap)


def _record_solves(monkeypatch) -> list:
    """(sector, k) of every spectral_decompose call from here on, with the window caches cleared."""
    solved = []

    def recorded(H, k, grid, sector=None):
        solved.append((sector, k))
        return spectral_decompose(H, k, grid, sector)

    decompose_for_time.cache_clear()
    _ground_state.cache_clear()
    monkeypatch.setattr(propagator, "spectral_decompose", recorded)
    return solved


@pytest.mark.parametrize(
    "action, grid, sizes",
    [
        (QUARTIC, Grid((7.0,), (1601,)), {0.05: [51, 50], 0.1: [30, 30], 4.0: [2, 2]}),
        (HO_1D, Grid((8.0,), (12801,)), {0.5: [26, 26]}),
        (HO_2D, SPARSE_GRID, {2.2: [36, 36, 36, 28], 8.0: [6, 3, 3, 3]}),
        (None, Grid((6.3, 6.3), (64, 64)), {3.0: [19, 15, 15, 13]}),
    ],
    ids=["1d-quartic", "1d-ho", "ho-60x60", "coupled-64x64"],
)
def test_blocks_solve_exactly_their_counted_states(coupled_2d, action, grid, sizes, monkeypatch):
    """Each block, 1-D or 2-D, is solved once, for exactly the states its
    inertia count puts in the window, after the one k = 1 solve of the
    ground state, and every state solved is kept. The 1-D blocks may be
    solved on two threads, so their order is not checked; in 2-D every block
    here is Lanczos. The 60 x 60 grid is separable, so its counts follow from
    1-D levels: a sector's levels are the sums of even (+1) or odd (-1)
    levels along each axis."""
    action = action or coupled_2d
    sectors = _sectors(action)
    solved = _record_solves(monkeypatch)
    for T, expected in sizes.items():
        sd = decompose_for_time(action, grid, T)
        assert sorted(solved[-len(sectors):]) == sorted(zip(sectors, expected))
        assert len(sd.eigenvalues) == sum(expected)
    assert solved[0] == (sectors[0], 1) and len(solved) == 1 + len(sectors) * len(sizes)
    if action is HO_2D:
        ho = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5}))
        E = scipy.linalg.eigvalsh(discretize_hamiltonian(ho, Grid((6.3,), (60,))).toarray())
        levels = {1: E[0::2], -1: E[1::2]}
        sums = [np.add.outer(levels[px], levels[py]) for px, py in sectors]
        for T, expected in sizes.items():
            top = 2 * E[0] - math.log(BOLTZMANN_CUTOFF) / T
            assert [np.count_nonzero(s < top) for s in sums] == expected


def test_lanczos_finds_every_exactly_degenerate_state(monkeypatch):
    """The isotropic oscillator's x <-> y pairs are degenerate to rounding:
    9 pairs in the window of the all-even block and 6 in the all-odd one.
    Lanczos takes each second copy in only through rounding; every block's
    solve still matches a dense solve of that block, state for state. A
    solve that drops a state is refused, naming its block."""
    grid, T = Grid((6.3, 6.3), (64, 64)), 3.0
    counts = _window_count(HO_2D, grid, -math.log(BOLTZMANN_CUTOFF) / T)
    assert counts == (21, 17, 17, 15)
    pairs = []
    for (sector, H), k in zip(_sector_hamiltonians(HO_2D, grid), counts):
        E = np.linalg.eigvalsh(H.toarray())[:k]
        pairs.append(np.count_nonzero(np.diff(E) < 1e-9))
        npt.assert_allclose(spectral_decompose(H, k, grid, sector).eigenvalues, E, rtol=0, atol=1e-11)
    assert pairs == [9, 0, 0, 6]
    solve = propagator._block_eigh

    def dropping(H, k):
        vals, vecs = solve(H, k + 1)
        return np.delete(vals, 1), np.delete(vecs, 1, axis=0)

    decompose_for_time.cache_clear()
    monkeypatch.setattr(propagator, "_block_eigh", dropping)
    with pytest.raises(NumericalError, match=r"mirror block \(1, 1\) at T=3 reached above the window"):
        decompose_for_time(HO_2D, grid, T)


def test_a_wide_window_takes_the_dense_branch(coupled_2d, monkeypatch):
    """At T = 1 each 1024-node block of the coupled 64 x 64 grid holds 108
    to 125 window states, over a tenth of the block: numpy's dense eigh
    solves it, with no banded factorization, and matches eigvalsh."""
    grid, T = Grid((6.3, 6.3), (64, 64)), 1.0
    counts = _window_count(coupled_2d, grid, -math.log(BOLTZMANN_CUTOFF) / T)
    assert counts == (125, 116, 116, 108)
    decompose_for_time.cache_clear()
    _ground_state(coupled_2d, grid)  # k = 1: Lanczos

    def no_factor(ab):
        raise AssertionError("Lanczos reached with a window over a tenth of the block")

    monkeypatch.setattr(_lapack, "cholesky_banded", no_factor)
    sd = decompose_for_time(coupled_2d, grid, T)
    E = [np.linalg.eigvalsh(H.toarray())[:k] for (_, H), k in zip(_sector_hamiltonians(coupled_2d, grid), counts)]
    npt.assert_allclose(sd.eigenvalues, np.sort(np.concatenate(E)), rtol=0, atol=1e-11)


def _sturm_count_in_decimal(H, sigma: float) -> int:
    """The eigenvalues of a 1-D block below sigma, by the Sturm recurrence in 40-digit arithmetic."""
    with decimal.localcontext(prec=40):
        count, q = 0, decimal.Decimal(1)
        for d, e in zip(H.d.tolist(), [0.0, *H.ex.tolist()]):
            q = (decimal.Decimal(d) - decimal.Decimal(sigma)) - decimal.Decimal(e) ** 2 / q
            count += q < 0
        return count


def test_lanczos_shift_below_min_v_solves_a_fine_1d_block():
    """sigma = min V - 1 sits just below E_0 on the 6401-node even block of
    the HO on 12801 nodes, and shift-invert Lanczos finds E_0 to 1e-12, as a
    Sturm count in 40 digits shows. A shift at the block's Gershgorin bound,
    -1.3e5 here, found no converged state in 200 restarts. ?stebz, called
    with LAPACK's default tolerance ulp ||H|| = 2.8e-10, agrees to it."""
    (_, even), _ = _sector_hamiltonians(HO_1D, Grid((8.0,), (12801,)))
    assert even.shape[0] == 6401 and even.vmin == 0.0
    vals, vecs = propagator._block_eigh(even, 1)
    e0 = float(vals[0])
    assert [_sturm_count_in_decimal(even, e0 * (1.0 + s * 1e-12)) for s in (-1, 1)] == [0, 1]
    assert vecs.shape == (1, 6401)
    stebz = _lapack.eigh_tridiagonal(even.d, even.ex, 1)[0][0]
    assert abs(stebz - e0) <= 2.8e-10


def test_lanczos_restarts_at_most_twice_on_every_mirror_block(coupled_2d, monkeypatch):
    """On the odd 127 x 127 grid the folded centre line of an even axis puts
    the Gershgorin bound far below E_0, and with a shift there three blocks
    took 5 or 6 restarts for k = 18. With sigma = min V - 1 each takes at
    most 2: the first m = 56 steps and m - kept = 19 per restart, kept =
    k + (m - k) // 2. The k values found are the lowest: k of them lie below
    the top one."""
    grid, k = Grid((6.3, 6.3), (127, 127)), 18
    m = 2 * k + 20
    kept = k + (m - k) // 2
    solve, calls = _lapack.cho_solve_banded, []

    def counted(c, b):
        calls[-1] += 1
        return solve(c, b)

    monkeypatch.setattr(_lapack, "cho_solve_banded", counted)
    for _, H in _sector_hamiltonians(coupled_2d, grid):
        calls.append(0)
        vals, _ = propagator._block_eigh(H, k)
        assert _inertia(H, float(vals[-1]) + 1e-9) == k
    assert len(calls) == 4 and max(calls) <= m + 2 * (m - kept) == 94, calls


def test_sparse_sectors_reproduce_the_separable_spectrum_and_amplitudes(ho):
    """V = (x^2 + y^2)/2 on the shift-invert sectors of SPARSE_GRID: the
    window's levels are the sums of the 1-D levels on one axis, and G is the
    product of the 1-D amplitudes."""
    T = 3.0
    axis = Grid((6.3,), (60,))
    E = scipy.linalg.eigvalsh(discretize_hamiltonian(ho, axis).toarray())
    sums = np.sort(np.add.outer(E, E).ravel())
    sd = decompose_for_time(HO_2D, SPARSE_GRID, T)
    npt.assert_allclose(sd.eigenvalues, sums[: len(sd.eigenvalues)], rtol=0, atol=1e-10)
    assert sums[len(sd.eigenvalues)] - sums[0] > -math.log(BOLTZMANN_CUTOFF) / T
    xs = axis.axes()[0][[20, 27, 30, 38]]
    axis_amp = euclidean_propagate(ho, axis, T, tensor_pairs([(x,) for x in xs], [(x,) for x in xs])).amplitudes
    axis_amp = dict(zip([(a, b) for a in xs for b in xs], axis_amp))
    pairs = [((xs[0], xs[2]), (xs[3], xs[1])), ((xs[1], xs[1]), (xs[2], xs[2])), ((xs[3], xs[0]), (xs[0], xs[3]))]
    amps = euclidean_propagate(HO_2D, SPARSE_GRID, T, pairs).amplitudes
    product = [axis_amp[(xi[0], xf[0])] * axis_amp[(xi[1], xf[1])] for xi, xf in pairs]
    npt.assert_allclose(amps, product, rtol=1e-10, atol=0)


def _small_case(dim: int):
    """(npoints, extent, a, c, T) on a small grid, odd or even per axis."""
    return st.tuples(
        st.tuples(*[st.integers(16, 40 if dim == 1 else 22)] * dim),
        st.floats(4.0, 6.0),
        st.floats(0.5, 2.0),
        st.floats(0.05, 0.3),
        st.floats(4.0, 10.0),
    )


def _small_action(dim: int, odd_in_x: bool, a: float, c: float) -> ActionSpec:
    """A confining V, even along every axis, or with a term odd in x (x^3 in
    1-D, x y^2 in 2-D, which leaves V even in y)."""
    if dim == 1:
        terms = {(2,): a, (4,): c, (3,): c if odd_in_x else 0.0}
    else:
        terms = {(2, 0): a, (0, 2): 1.0, (2, 2): c, (1, 2): c if odd_in_x else 0.0}
    return ActionSpec(mass=1.0, potential=PolynomialPotential(dim, terms))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(1, False), (2, False), (2, True)]), st.data())
def test_mirrored_pairs_get_bitwise_equal_amplitudes(kind, data):
    """Mirroring both ends of a pair along every axis on which V is even
    leaves G unchanged bit for bit: each sector's vectors are mirrored
    exactly, and the mirrored pair meets the same products in the same order."""
    dim, odd_in_x = kind
    npoints, L, a, c, T = data.draw(_small_case(dim))
    grid = Grid((L,) * dim, npoints)
    flips = [not (odd_in_x and axis == 0) for axis in range(dim)]
    node = st.tuples(*[st.integers(0, n - 1) for n in npoints])
    ends = [data.draw(node) for _ in range(8)]

    def point(index, mirror):
        return tuple(
            ax[n - 1 - i if mirror and flip else i]
            for ax, n, i, flip in zip(grid.axes(), npoints, index, flips)
        )

    pairs = [(point(i, m), point(f, m)) for m in (False, True) for i, f in zip(ends[::2], ends[1::2])]
    try:
        amps = euclidean_propagate(_small_action(dim, odd_in_x, a, c), grid, T, pairs).amplitudes
    except NumericalError:
        assume(False)  # the window overflows this small grid
    assert np.array_equal(amps[:4], amps[4:])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2]), st.data())
def test_an_odd_term_keeps_its_axis_whole(dim, data):
    """With a term odd in x only y splits; in 1-D H stays one block, solved
    and summed as on the whole grid for exactly its window count, so the
    amplitudes keep their bits."""
    npoints, L, a, c, T = data.draw(_small_case(dim))
    grid = Grid((L,) * dim, npoints)
    action = _small_action(dim, True, a, c)
    assert _sectors(action) == ([(0,)] if dim == 1 else [(0, 1), (0, -1)])
    try:
        sd = decompose_for_time(action, grid, T)
    except NumericalError:
        assume(False)  # the window overflows this small grid
    H = discretize_hamiltonian(action, grid)
    E = scipy.linalg.eigvalsh(H.toarray())
    npt.assert_allclose(sd.eigenvalues, E[: len(sd.eigenvalues)], rtol=0, atol=1e-10)
    assert (E[len(sd.eigenvalues)] - E[0]) * T > -math.log(BOLTZMANN_CUTOFF)
    if dim == 1:
        (count,) = _window_count(action, grid, -math.log(BOLTZMANN_CUTOFF) / T)
        whole = spectral_decompose(H, count, grid)
        psis, boltz = whole.eigenvectors, np.exp(-whole.eigenvalues * T)
        nodes = grid.axes()[0][:: max(1, grid.size // 5)]
        pairs = tensor_pairs([(x,) for x in nodes], [(x,) for x in nodes])
        expected = [
            float(np.sum(psis[:, grid.index_of(i)] * psis[:, grid.index_of(f)] * boltz)) for i, f in pairs
        ]
        assert euclidean_propagate(action, grid, T, pairs).amplitudes.tolist() == expected


@st.composite
def _oracle_cases(draw):
    """(action, grid, T): a mass, an even V or one with a term odd in x, odd or even
    point counts and extents; 2-D grids of 24 to 32 nodes per axis at T >= 3, where
    the mirror blocks' windows are under a tenth of their nodes and go to Lanczos."""
    dim, odd = draw(st.sampled_from([1, 2])), draw(st.booleans())
    coef = st.floats(0.3, 1.0)
    if dim == 1:
        npoints, extents, T = (draw(st.integers(24, 64)),), (draw(st.floats(3.0, 7.0)),), draw(st.floats(1.0, 6.0))
        terms = {(2,): draw(coef), (4,): draw(st.floats(0.05, 0.3)), (3,): draw(st.floats(-0.2, 0.2)) if odd else 0.0}
    else:
        npoints = tuple(draw(st.lists(st.integers(24, 32), min_size=2, max_size=2)))
        extents = tuple(draw(st.lists(st.floats(4.0, 7.0), min_size=2, max_size=2)))
        T = draw(st.floats(3.0, 6.0))
        terms = {(2, 0): draw(coef), (0, 2): draw(coef), (2, 2): draw(st.floats(0.02, 0.1)),
                 (1, 2): draw(st.floats(-0.1, 0.1)) if odd else 0.0}
    action = ActionSpec(mass=draw(st.floats(0.5, 2.0)), potential=PolynomialPotential(dim, terms))
    return action, Grid(extents, npoints), T


@settings(max_examples=12, deadline=None)
@given(_oracle_cases(), st.data())
def test_amplitudes_match_the_dense_kernel_of_the_whole_grid(case, data):
    """G from the mirror blocks, window counts, solvers and parity embedding
    equals G_ref = [exp(-T H / hbar)]_if / h^dim, with H the whole grid's dense
    matrix and no sectors, to 1e-9 max(1, kappa) relative, where kappa =
    sum_n |psi_n(x) psi_n(y)| exp(-E_n T / hbar) / |G| over every state of H is
    the cancellation the sum must survive. The ends of each pair are nodes
    where the ground state is at least 1e-2 of its peak: further out, G falls
    to the rounding of the kernel's largest entries and to the window's
    dropped weight, which are set relative to the ground state. A window
    that the grid cannot resolve is drawn again."""
    action, grid, T = case
    A = discretize_hamiltonian(action, grid).toarray()
    volume = math.prod(grid.spacing)
    E, U = np.linalg.eigh(A)
    bulk = np.flatnonzero(np.abs(U[:, 0]) >= 1e-2 * np.abs(U[:, 0]).max())
    ends = data.draw(st.lists(st.tuples(st.sampled_from(bulk), st.sampled_from(bulk)), min_size=1, max_size=8))
    i, f = np.array(ends).T
    nodes = grid.nodes().reshape(grid.size, grid.dim)
    try:
        G = euclidean_propagate(action, grid, T, [(nodes[a], nodes[b]) for a, b in ends]).amplitudes
    except NumericalError as exc:
        assume("too few for the Boltzmann window" not in str(exc))  # the window overflows this grid
        raise
    reference = scipy.linalg.expm(-(T / action.hbar) * A)[i, f] / volume
    magnitude = np.abs(U[i] * U[f]) @ np.exp(-E * T / action.hbar) / volume
    kappa = magnitude / np.abs(reference)
    npt.assert_array_less(np.abs(G - reference), 1e-9 * np.maximum(1.0, kappa) * np.abs(reference))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2]), st.booleans(), st.data())
def test_every_block_is_the_kronecker_sum_of_the_stencil_on_its_mirror_basis(dim, odd, data):
    """The whole grid's ``toarray()`` is, bit for bit, the Kronecker sum over
    the axes of (hbar^2/2m h^2) tridiag(-1, 2, -1) plus V at the nodes. Each
    mirror block is P^T H P to rounding, P the orthonormal basis of its
    sector: (e_i +- e_{n-1-i}) / sqrt(2) on the x <= 0 half of a split axis,
    the centre node alone when it is even, and the whole axis otherwise; its
    vmin is the least V on the nodes it keeps, which the odd half of an odd
    axis leaves the centre out of."""
    npoints = tuple(data.draw(st.lists(st.integers(16, 24), min_size=dim, max_size=dim)))
    extents = tuple(data.draw(st.lists(st.floats(2.0, 7.0), min_size=dim, max_size=dim)))
    mass, hbar = data.draw(st.floats(0.5, 2.0)), data.draw(st.floats(0.5, 2.0))
    terms = {(2,) * dim: 0.5, (1,) + (2,) * (dim - 1): 0.3 if odd else 0.0}
    action = ActionSpec(mass=mass, potential=PolynomialPotential(dim, terms), hbar=hbar)
    grid = Grid(extents, npoints)
    stencils = []
    for n, h in zip(npoints, grid.spacing):
        ones = np.ones(n - 1)
        stencils.append(hbar**2 / (2.0 * mass) / h**2 * (2.0 * np.eye(n) - np.diag(ones, 1) - np.diag(ones, -1)))
    eyes = [np.eye(n) for n in npoints]
    kinetic = sum(
        functools.reduce(np.kron, [stencils[a] if b == a else eyes[b] for b in range(dim)]) for a in range(dim)
    )
    V = action.potential.evaluate_points(grid.nodes()).ravel()
    H = kinetic + np.diag(V)
    assert np.array_equal(discretize_hamiltonian(action, grid).toarray(), H)

    def basis(n, parity):
        if parity == 0:
            return np.eye(n)
        columns = [(np.eye(n)[i] + parity * np.eye(n)[n - 1 - i]) / math.sqrt(2.0) for i in range(n // 2)]
        return np.array(columns + ([np.eye(n)[n // 2]] if n % 2 and parity > 0 else [])).T

    for sector in _sectors(action):
        P = functools.reduce(np.kron, [basis(n, p) for n, p in zip(npoints, sector)])
        block = discretize_hamiltonian(action, grid, sector)
        npt.assert_allclose(block.toarray(), P.T @ H @ P, rtol=0, atol=1e-13 * np.abs(H).max())
        npt.assert_allclose(block.vmin, (P.T @ (V[:, None] * P)).diagonal().min(), rtol=0, atol=1e-13 * np.abs(V).max())


def test_grid_node_count_is_bounded():
    assert Grid((8.0,), (MAX_GRID_NODES,)).size == MAX_GRID_NODES
    assert Grid((8.0, 8.0), (256, 256)).size == MAX_GRID_NODES
    for npoints in [(MAX_GRID_NODES + 1,), (256, 257), (16, 2**63), (10**400,)]:
        with pytest.raises(ValueError, match=f"at most {MAX_GRID_NODES} nodes"):
            Grid((8.0,) * len(npoints), npoints)


def _node_indices(grid, point):
    flat = grid.index_of(point)
    return (flat,) if grid.dim == 1 else divmod(flat, grid.npoints[1])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda dim: st.tuples(
            st.tuples(*[st.floats(0.5, 10.0)] * dim),
            st.tuples(*[st.integers(16, 64)] * dim),
            st.tuples(*[st.floats(-12.0, 12.0)] * dim),
        )
    )
)
def test_snap_lands_on_a_node_idempotently_and_mirrors(case):
    extents, npoints, point = case
    grid = Grid(extents, npoints)
    snapped = grid.snap(point)
    index = _node_indices(grid, snapped)
    assert grid.snap(snapped) == snapped
    for x, s, L, h in zip(point, snapped, extents, grid.spacing):
        # nearest node inside the box, nearest edge node outside it
        assert abs(s - min(max(x, -L), L)) <= 0.5 * h * (1.0 + 1e-9)
    mirrored = _node_indices(grid, grid.snap(tuple(-x for x in point)))
    assert mirrored == tuple(n - 1 - i for n, i in zip(npoints, index))
    # index_of accepts a point within 1e-6 h of a node on every axis
    near = tuple(s + 1e-7 * h for s, h in zip(snapped, grid.spacing))
    assert _node_indices(grid, near) == index
    with pytest.raises(ValueError, match="grid node"):
        grid.index_of(tuple(s + 1e-5 * h * (1 if s <= 0 else -1) for s, h in zip(snapped, grid.spacing)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_index_of_and_indices_of_find_the_nearest_node_or_name_the_first_point_off_one(data):
    """On nodes, within 1e-6 h of them, halfway between two, off them, outside
    the box and not a number, on odd and even point counts: the one-point and
    the many-point lookups give the node that a search of ``axes()`` finds
    nearest, and fail naming the first point that lies on none."""
    dim = data.draw(st.integers(1, 2))
    grid = Grid(data.draw(st.tuples(*[st.sampled_from([1.0, 2.5, 7.5])] * dim)),
                data.draw(st.tuples(*[st.integers(16, 41)] * dim)))
    kinds = ["node", "near", "edge"]
    kinds += ["halfway", "off", "outside", "inf", "nan"] if data.draw(st.booleans()) else []

    def coordinate(axis):
        ax, h, L = grid.axes()[axis], grid.spacing[axis], grid.extents[axis]
        x, sign = float(ax[data.draw(st.integers(0, len(ax) - 1))]), data.draw(st.sampled_from([1.0, -1.0]))
        return {
            "node": x, "near": x + sign * 1e-7 * h, "edge": sign * (L + 1e-7 * h), "halfway": x + sign * 0.5 * h,
            "off": x + sign * 1e-5 * h, "outside": sign * (L + data.draw(st.floats(0.1, 9.0))), "inf": sign * math.inf,
            "nan": math.nan,
        }[data.draw(st.sampled_from(kinds))]

    def searched(point):
        """Per-axis index of the node nearest to ``point`` by a search of
        ``axes()``, or None when the point lies more than 1e-6 h from it."""
        idx = [int(np.argmin(np.abs(ax - x))) for x, ax in zip(point, grid.axes())]
        on = all(abs(x - ax[i]) <= 1e-6 * h for x, ax, i, h in zip(point, grid.axes(), idx, grid.spacing))
        return idx if on else None

    points = [tuple(coordinate(a) for a in range(dim)) for _ in range(data.draw(st.integers(1, 12)))]
    nodes = [searched(p) for p in points]
    off = [p for p, idx in zip(points, nodes) if idx is None]
    if not off:
        flat = [int(np.ravel_multi_index(idx, grid.npoints)) for idx in nodes]
        assert grid.indices_of(points).tolist() == flat
        assert [grid.index_of(p) for p in points] == flat
        assert [grid.snap(p) for p in points] == [tuple(float(ax[i]) for ax, i in zip(grid.axes(), idx)) for idx in nodes]
        return
    message = f"point {tuple(np.asarray(off[0], dtype=float))} does not lie on a grid node"
    for lookup in (grid.indices_of, grid.index_of):
        with pytest.raises(ValueError) as raised:
            lookup(points if lookup == grid.indices_of else off[0])
        assert str(raised.value) == message
    for point in points:
        if any(math.isnan(x) for x in point):
            with pytest.raises(ValueError, match="has no nearest grid node"):
                grid.snap(point)


def test_an_off_node_table_names_its_first_initial_point_before_any_final_one(ho):
    grid = Grid((8.0,), (401,))  # nodes every 0.04
    pairs = [((0.0,), (0.13,)), ((0.17,), (0.0,))]
    with pytest.raises(ValueError, match=r"point \([^,]*0\.17\)?,\) does not lie on a grid node"):
        euclidean_propagate(ho, grid, 1.0, pairs)
    with pytest.raises(ValueError, match=r"point \([^,]*nan\)?,\) does not lie on a grid node"):
        euclidean_propagate(ho, grid, 1.0, [((math.nan,), (0.0,))])


def test_snap_sends_ties_toward_the_centre():
    odd = Grid((2.0,), (17,))  # nodes every 0.25, one at 0
    assert [odd.snap((x,))[0] for x in (0.125, -0.125, 0.375, -0.375)] == [0.0, 0.0, 0.25, -0.25]
    even = Grid((7.5,), (16,))  # nodes at the half-integers
    assert [even.snap((x,))[0] for x in (1.0, -1.0, 0.0, -0.0)] == [0.5, -0.5, 0.5, -0.5]
    assert odd.snap((9.0,)) == (2.0,) and odd.snap((-9.0,)) == (-2.0,)


def test_subdivision_nodes_are_mirror_symmetric():
    # 45 nodes on [-6.6, 6.6]: -0.75 and 0.75 fall halfway between nodes
    grid = Grid((6.6, 6.6), (45, 45))
    points = grid.subdivision_nodes([(-1.5, 1.5), (-1.5, 1.5)], 5)
    assert len(points) == 25
    xs = sorted({p[0] for p in points})
    npt.assert_allclose(xs, [-1.5, -0.6, 0.0, 0.6, 1.5], atol=1e-12)
    assert [grid.index_of((x, 0.0)) // 45 for x in xs] == [17, 20, 22, 24, 27]


def test_1d_hamiltonian_is_its_two_diagonals_built_without_scipy():
    """A 1-D ``discretize_hamiltonian`` returns the block type of 2-D with one
    node per line, no y off-diagonal, so it is tridiagonal, and a fresh
    interpreter that builds it loads no scipy."""
    probe = (
        "import json, sys\n"
        "from qaction import ActionSpec, Grid, PolynomialPotential, discretize_hamiltonian\n"
        "ho = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5}))\n"
        "H = discretize_hamiltonian(ho, Grid((8.0,), (101,)), (1,))\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([type(H).__name__, H.shape, H.toarray().shape, mods]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["_Block", [51, 51], [51, 51], []]
    H = discretize_hamiltonian(ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5})), Grid((8.0,), (101,)))
    assert isinstance(H, _Block) and H.ey.size == 0
    npt.assert_array_equal(H.toarray(), np.diag(H.d) + np.diag(H.ex, 1) + np.diag(H.ex, -1))


@pytest.mark.parametrize("extents", [(1e200,), (1e-300,), (1e-320,), (1.0, 1e200)])
def test_grid_refuses_a_spacing_whose_square_leaves_the_float_range(extents):
    """The stencil divides by h^2: h^2 overflowing (1e200) or underflowing
    (1e-300, 1e-320) raised OverflowError and ZeroDivisionError, or blamed
    an off-node point, further on."""
    with pytest.raises(ValueError, match="grid spacing"):
        Grid(extents, (101,) * len(extents))


def test_grid_axes_are_built_once_and_read_only():
    grid = Grid((8.0, 3.0), (1601, 31))
    first, second = grid.axes(), grid.axes()
    assert all(a is b for a, b in zip(first, second))
    npt.assert_array_equal(first[0], np.linspace(-8.0, 8.0, 1601))
    with pytest.raises(ValueError, match="read-only"):
        first[0][0] = 1.0
    assert grid == Grid((8.0, 3.0), (1601, 31)) and hash(grid) == hash(Grid((8.0, 3.0), (1601, 31)))
