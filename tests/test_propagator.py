import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
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
from qaction.propagator import BOLTZMANN_CUTOFF, _window_count, decompose_for_time

# 1681 nodes: decomposed by the dense 2-D branch
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
    grid = Grid((6.0, 6.0), (48, 48))
    H = discretize_hamiltonian(coupled_2d, grid)
    assert (H - H.T).nnz == 0


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
    npt.assert_allclose(sd.overlap_matrix(), np.eye(5), atol=1e-10)


def test_dense_window_states_orthonormal_where_they_reach_the_wall():
    """The coupled window at T = 1.5 holds states that reach the box edge,
    where trapezoid weights would miss their plain-sum orthogonality."""
    coupled = ActionSpec(
        mass=1.0, potential=PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05})
    )
    sd = decompose_for_time(coupled, DENSE_GRID, 1.5)
    k = len(sd.eigenvalues)
    assert k > 100
    assert np.max(np.abs(sd.overlap_matrix() - np.eye(k))) < 1e-12


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
    with pytest.raises(NumericalError):
        ho_exact_propagator(1.0, 1.0, 1.0, 0.0, 1.0, math.pi, time_kind="real")


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


def test_truncated_window_raises(ho):
    """T = 1e-3 needs every state up to E_0 + 3.2e4; 16 nodes have 14 usable.
    On the dense 2-D grid the weight quoted is that of the first dropped state."""
    with pytest.raises(NumericalError, match=r"weight up to 0\.\d+ of the ground state"):
        decompose_for_time(ho, Grid((8.0,), (16,)), 1e-3)
    with pytest.raises(NumericalError, match=r"254 lowest states .* weight up to 0\.937 of the ground state"):
        decompose_for_time(HO_2D, Grid((8.0, 8.0), (16, 16)), 1e-3)


def test_window_narrower_than_rounding_keeps_the_ground_state():
    """At T = 1e20 the window is far below the rounding of E_0, and the
    inertia count reads 0 on this grid; the ground state is solved anyway."""
    grid = Grid((6.0, 6.0), (30, 30))
    assert _window_count(HO_2D, grid, -math.log(BOLTZMANN_CUTOFF) / 1e20) == 0
    assert len(decompose_for_time(HO_2D, grid, 1e20).eigenvalues) == 1


# 2116 nodes: decomposed by the shift-invert branch
SPARSE_GRID = Grid((6.3, 6.3), (46, 46))
QUARTIC = ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(4,): 1.0}), hbar=1.0)


@pytest.mark.parametrize(
    "grid, n_levels",
    [(Grid((6.0,), (301,)), 40), (Grid((6.0, 6.0), (30, 30)), 40), (SPARSE_GRID, 16)],
    ids=["1d", "2d-dense", "2d-sparse"],
)
def test_window_count_equals_the_eigenvalues_below_the_shift(ho, coupled_2d, grid, n_levels):
    """The inertia count agrees with a full spectrum, also for shifts within
    1e-9 of an eigenvalue, on either side of it. Midpoints are taken only
    between distinct levels: the x <-> y pairs are degenerate to 1e-13."""
    action = ho if grid.dim == 1 else coupled_2d
    E = scipy.linalg.eigvalsh(discretize_hamiltonian(action, grid).toarray())
    levels = E[:n_levels]
    midpoints = (0.5 * (levels[:-1] + levels[1:]))[np.diff(levels) > 1e-6]
    shifts = np.concatenate([levels - 1e-9, levels + 1e-9, midpoints])
    for sigma in shifts:
        assert _window_count(action, grid, sigma - E[0]) == np.count_nonzero(E < sigma), sigma


def test_window_count_moves_off_a_zero_pivot(ho, monkeypatch):
    """A row swap in the factorization raises sigma by a relative 1e-12 and
    factors again; a second swap raises NumericalError."""
    import scipy.sparse.linalg as spla

    grid, gap = Grid((6.0,), (301,)), 10.0
    expected = _window_count(ho, grid, gap)
    splu, swaps, diagonals = spla.splu, [], []

    def swapping(A, **kwargs):
        lu = splu(A, **kwargs)
        diagonals.append(A.diagonal())
        if swaps:
            swaps.pop()
            return SimpleNamespace(U=lu.U, perm_r=lu.perm_r[::-1])
        return lu

    monkeypatch.setattr(spla, "splu", swapping)
    _window_count.cache_clear()
    swaps[:] = [True]
    assert _window_count(ho, grid, gap) == expected
    sigma = 0.5 + gap  # E_0 of the oscillator to about 1e-3
    npt.assert_allclose(diagonals[0] - diagonals[1], 1e-12 * sigma, rtol=2e-2)
    _window_count.cache_clear()
    swaps[:] = [True, True]
    with pytest.raises(NumericalError, match="pivot-free"):
        _window_count(ho, grid, gap)


@pytest.mark.parametrize(
    "action, grid, times",
    [
        (QUARTIC, Grid((7.0,), (1601,)), (0.05, 0.1, 4.0)),
        (HO_2D, SPARSE_GRID, (4.0, 8.0)),
    ],
    ids=["1d-quartic", "2d-sparse"],
)
def test_window_sizing_matches_doubling_from_32(action, grid, times):
    """Off the dense branch the count picks the k that doubling from 32 ends
    on (128, 64 and 32 here), so the final solve is the same call and its
    output the same bits."""
    H = discretize_hamiltonian(action, grid)
    kmax = grid.size - 2
    for T in times:
        gap_needed = -action.hbar * math.log(BOLTZMANN_CUTOFF) / T
        k = min(32, kmax)
        while True:
            old = spectral_decompose(H, k, grid)
            if old.eigenvalues[-1] - old.eigenvalues[0] >= gap_needed or k >= kmax:
                break
            k = min(2 * k, kmax)
        new = decompose_for_time(action, grid, T)
        assert len(new.eigenvalues) == k
        assert np.array_equal(new.eigenvalues, old.eigenvalues)
        assert np.array_equal(new.eigenvectors, old.eigenvectors)


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
