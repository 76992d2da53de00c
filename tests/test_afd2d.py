"""Product-system decomposition and pure greedy selection on the 2-torus."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afdkit import (
    DegenerateInputError,
    FourierCoeffs1D,
    FourierCoeffs2D,
    GridSpec,
    Record,
    Step,
    TensorAtomSpec,
    TruncationWarning,
    afd2d_tm_decompose,
    grid_points,
    inner_product_2d,
    msp_product_tm,
    pga_decompose,
    pga_step,
    reconstruct_pga,
    reconstruct_product_tm,
    szego_coeffs,
    tensor_atom_coeffs,
    tm_matrix,
)
from afdkit import afd2d
from afdkit.afd1d import _tm_grid_size
from afdkit.afd2d import _blaschke_toeplitz, _product_tm_objective
from afdkit.hardy import (
    PAIR_BLOCK,
    PAIR_RANK,
    PAIR_SEEDS,
    _PairTable,
    _kernel_table,
    _pair_argmax,
    _row_blocks,
    grid_radii,
    power_rows,
)
from conftest import (
    dn_energy,
    kernel_ip,
    product_coeff,
    random_hardy_2d,
    reference_blaschke,
    reference_blaschke_coeffs,
)

GRID = GridSpec(radial_count=10, angular_count=20, refine_levels=1, max_radius=0.6)
ORDER = 32


def tensor_signal(pairs_and_coeffs, order=ORDER):
    f = FourierCoeffs2D.zeros(order, hardy=True)
    for c, (a, b) in pairs_and_coeffs:
        f = f + complex(c) * tensor_atom_coeffs(TensorAtomSpec.of(a, b), order)
    return f


def spread_pairs(seed, grid, n_pairs):
    """Well-separated on-grid parameter pairs.

    Radii come from the middle band of the Chebyshev ladder, where cells are
    wide enough that a dominant atom is the best grid point of its own
    correlation peak.
    """
    rng = np.random.default_rng(seed)
    radii = grid_radii(grid)
    n_rad, n_ang = radii.size, grid.angular_count
    lo, hi = int(0.5 * n_rad), int(0.85 * n_rad)
    out = []
    rad_ids = rng.choice(np.arange(lo, hi), size=2 * n_pairs, replace=False)
    stride = n_ang // (2 * n_pairs)
    ang_ids = (rng.permutation(2 * n_pairs) * stride + rng.integers(0, n_ang)) % n_ang
    for i in range(n_pairs):
        a = radii[rad_ids[2 * i]] * np.exp(2j * np.pi * ang_ids[2 * i] / n_ang)
        b = radii[rad_ids[2 * i + 1]] * np.exp(2j * np.pi * ang_ids[2 * i + 1] / n_ang)
        out.append((complex(a), complex(b)))
    return out


class TestProductFrame:
    @pytest.mark.parametrize("seed", range(3))
    def test_tensor_system_orthonormal(self, seed):
        """4 x 4 tensor products of two rational systems have identity Gram."""
        rng = np.random.default_rng(seed)
        a_params = list(rng.uniform(0, 0.8, 4) * np.exp(2j * np.pi * rng.uniform(size=4)))
        b_params = list(rng.uniform(0, 0.8, 4) * np.exp(2j * np.pi * rng.uniform(size=4)))
        rows_a = tm_matrix(a_params, 256)
        rows_b = tm_matrix(b_params, 256)
        tensors = np.array(
            [np.outer(ra, rb).ravel() for ra in rows_a for rb in rows_b]
        )
        gram = np.conj(tensors) @ tensors.T
        assert np.max(np.abs(gram - np.eye(16))) < 1e-8


class TestProductCoeff:
    def test_atom_against_itself(self):
        a, b = 0.4, 0.3j
        f = tensor_signal([(1.0, (a, b))])
        val = product_coeff(f, szego_coeffs(a, ORDER), szego_coeffs(b, ORDER))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_monomials(self):
        f = FourierCoeffs2D.from_terms(8, {(1, 1): 1.0}, hardy=True)
        one = FourierCoeffs1D.from_terms(8, {0: 1.0}, hardy=True)
        assert product_coeff(f, one, one) == 0

    def test_tensor_factorization(self):
        f = tensor_signal([(1.0, (0.5, 0.3))], order=128)
        val = product_coeff(f, szego_coeffs(0.2, 128), szego_coeffs(0.4, 128))
        expected = kernel_ip(0.5, 0.2) * kernel_ip(0.3, 0.4)
        assert val == pytest.approx(expected, abs=1e-10)


class TestDnEnergy:
    def test_first_step_single_entry(self):
        f = random_hardy_2d(0, ORDER)
        a, b = 0.3, 0.2 - 0.1j
        expected = abs(inner_product_2d(f, tensor_atom_coeffs(TensorAtomSpec.of(a, b), ORDER))) ** 2
        assert dn_energy(f, [], (a, b)) == pytest.approx(expected, abs=1e-10)

    def test_atom_recovery_value(self):
        a, b = 0.5, 0.4j
        f = tensor_signal([(1.0, (a, b))])
        assert dn_energy(f, [], (a, b)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_against_least_squares_oracle(self, seed):
        """Second-step block energy equals the joint-span projection increment."""
        f = random_hardy_2d(seed, 24)
        a, b = 0.45 + 0.1j, -0.3 + 0.25j
        got = dn_energy(f, [(0.0, 0.0)], (a, b))

        def atom_1d(p, order=24):
            if p == 0:
                data = np.zeros(order + 1, dtype=complex)
                data[0] = 1.0
                return data
            return np.conj(p) ** np.arange(order + 1)

        cols = []
        for pa in (0.0, a):
            for pb in (0.0, b):
                cols.append(np.outer(atom_1d(pa), atom_1d(pb)).ravel())
        A4 = np.array(cols).T
        vec = f.data.ravel()
        proj4 = A4 @ np.linalg.lstsq(A4, vec, rcond=None)[0]
        A1 = A4[:, :1]
        proj1 = A1 @ np.linalg.lstsq(A1, vec, rcond=None)[0]
        oracle = float(np.linalg.norm(proj4) ** 2 - np.linalg.norm(proj1) ** 2)
        assert got == pytest.approx(oracle, rel=1e-8)


class TestMspProductTm:
    def test_atom_recovery(self):
        (a, b), = spread_pairs(1, GRID, 1)
        f = tensor_signal([(1.0, (a, b))])
        sel = msp_product_tm(f, [], GRID)
        assert sel.a == pytest.approx(a, abs=1e-14)
        assert sel.b == pytest.approx(b, abs=1e-14)

    def test_monomial_balanced_radii(self):
        grid = GridSpec(radial_count=12, angular_count=12, refine_levels=1, max_radius=0.8)
        f = FourierCoeffs2D.from_terms(ORDER, {(1, 1): 1.0}, hardy=True)
        sel = msp_product_tm(f, [], grid)
        assert abs(abs(sel.a) ** 2 - 0.5) < 0.06
        assert abs(abs(sel.b) ** 2 - 0.5) < 0.06

    def test_separable_remainder_flags_flat_axis(self):
        # one kernel factor in z only: the first selection finds it exactly,
        # and the second step, whose objective is flat in a, still selects
        radii = grid_radii(GRID)
        a0 = complex(radii[7])
        b1 = complex(radii[6] * np.exp(2j * np.pi * 5 / 20))
        b2 = complex(radii[5] * np.exp(2j * np.pi * 14 / 20))
        g = 0.9 * szego_coeffs(b1, ORDER).data + 0.05 * szego_coeffs(b2, ORDER).data
        f = FourierCoeffs2D(np.outer(szego_coeffs(a0, ORDER).data, g), hardy=True)
        sel1 = msp_product_tm(f, [], GRID)
        assert sel1.a == pytest.approx(a0, abs=1e-14)
        msp_product_tm(f, [(sel1.a, sel1.b)], GRID)

    def test_zero_remainder_rejected(self):
        with pytest.raises(DegenerateInputError):
            msp_product_tm(FourierCoeffs2D.zeros(8, hardy=True), [], GRID)

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_equivalence(self, seed):
        grid = GridSpec(radial_count=4, angular_count=6, refine_levels=0, max_radius=0.5)
        f = random_hardy_2d(seed, 16)
        history = [(0.3, -0.2j)]
        sel = msp_product_tm(f, history, grid)
        pts = grid_points(grid)
        table = np.array([[dn_energy(f, history, (pa, pb)) for pb in pts] for pa in pts])
        ia, ib = np.unravel_index(np.argmax(table), table.shape)
        assert sel.a == complex(pts[ia]) and sel.b == complex(pts[ib])
        assert sel.value == pytest.approx(table[ia, ib], rel=1e-9)


def reference_objective(f, history, order):
    """The block-energy objective through explicit candidate basis rows.

    Each row holds the truncated coefficients of e_a times the Blaschke
    prefix of its axis history, sampled and transformed with one FFT per
    candidate.  Kept as the oracle for ``afd2d._product_tm_objective``.
    """
    C = f.data
    size = _tm_grid_size(order)
    z = np.exp(2j * np.pi * np.arange(size) / size)
    a_hist = [p[0] for p in history]
    b_hist = [p[1] for p in history]
    prefix_a, prefix_b = reference_blaschke(a_hist, size), reference_blaschke(b_hist, size)
    left_fixed = np.conj(tm_matrix(a_hist, order)) @ C
    right_fixed = C @ np.conj(tm_matrix(b_hist, order)).T

    def rows(points, prefix):
        pts = np.asarray(points, dtype=complex).ravel()
        samples = np.sqrt(1.0 - np.abs(pts) ** 2)[:, None] / (1.0 - np.conj(pts)[:, None] * z[None, :])
        return (np.fft.fft(samples * prefix[None, :], axis=1) / size)[:, : order + 1]

    def objective(a_pts, b_pts):
        U, V = rows(a_pts, prefix_a), rows(b_pts, prefix_b)
        main = np.abs(np.conj(U) @ C @ np.conj(V).T) ** 2
        gain_a = np.sum(np.abs(np.conj(U) @ right_fixed) ** 2, axis=1)
        gain_b = np.sum(np.abs(left_fixed @ np.conj(V).T) ** 2, axis=0)
        return main + gain_a[:, None] + gain_b[None, :]

    return objective


class TestProductTmObjective:
    """The reproducing-kernel objective against the FFT-row oracle."""

    GRID = GridSpec(radial_count=4, angular_count=6, refine_levels=0, max_radius=0.9)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_hist=st.integers(0, 3),
        radii=st.lists(st.floats(0.0, 0.9), min_size=6, max_size=6),
        angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=6, max_size=6),
    )
    def test_table_matches_fft_rows(self, seed, n_hist, radii, angles):
        order = 64
        f = random_hardy_2d(seed, order)
        pts = [complex(r * np.exp(1j * t)) for r, t in zip(radii, angles)]
        history = list(zip(pts[:n_hist], pts[3 : 3 + n_hist]))
        grid_pts = grid_points(self.GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = reference_objective(f, history, order)(grid_pts, grid_pts)
            got = np.asarray(_product_tm_objective(f, history, self.GRID)(grid_pts, grid_pts))
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)
        top2 = np.sort(ref.ravel())[-2:]
        if top2[1] - top2[0] > 1e-9 * top2[1]:
            assert np.argmax(got) == np.argmax(ref)

    def test_refinement_points_match_fft_rows(self):
        f = random_hardy_2d(3, 64)
        history = [(0.5 - 0.2j, 0.1j), (-0.3, 0.7)]
        a_pts = np.array([0.2 + 0.3j, 0.85j, -0.6])
        b_pts = np.array([0.0, 0.45 - 0.45j])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = reference_objective(f, history, 64)(a_pts, b_pts)
            got = _product_tm_objective(f, history, self.GRID)(a_pts, b_pts)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)

    def test_cached_pga_table_is_bitwise_uncached(self, monkeypatch):
        grid = GridSpec(radial_count=5, angular_count=8, refine_levels=0, max_radius=0.85)
        g = random_hardy_2d(11, 32)
        captured = []

        def capture(objective, spec):
            captured.append(objective)
            return 0.0, 0.0, 0.0

        monkeypatch.setattr(afd2d, "grid_argmax_pairs", capture)
        pga_step(g, grid)
        pts = grid_points(grid)
        Ku = np.sqrt(1.0 - np.abs(pts) ** 2)[:, None] * pts[:, None] ** np.arange(33)
        uncached = np.abs(Ku @ g.data @ Ku.T)
        cached = np.asarray(captured[0](pts, pts))
        assert cached.tobytes() == uncached.tobytes()
        assert np.asarray(captured[0](pts, pts)).tobytes() == cached.tobytes()


def weighted_pga_table(C, a_pts, b_pts):
    """The pga2d table as weights times bare power rows, (wa (x) wb) |P_a C P_b^T|.

    Returns the table and its rounding scale sqrt(wa wb) sum |C_kl| |a|^k |b|^l.
    """
    order = C.shape[0] - 1
    a, b = (np.asarray(p, dtype=complex).ravel() for p in (a_pts, b_pts))
    Pa, Pb = power_rows(a, order), power_rows(b, order)
    weights = np.sqrt(1.0 - np.abs(a) ** 2)[:, None] * np.sqrt(1.0 - np.abs(b) ** 2)[None, :]
    return weights * np.abs(Pa @ C @ Pb.T), weights * (np.abs(Pa) @ np.abs(C) @ np.abs(Pb).T)


def weighted_tm_table(f, history, a_pts, b_pts):
    """The afd2d-tm table as (wa (x) wb) |P_a H P_b^T|^2 plus the weighted gains.

    Returns the table and its rounding scale: the square of the pga2d scale
    with H for C, plus the gains with every product taken in moduli.
    """
    C, order = f.data, f.order
    A = _blaschke_toeplitz(reference_blaschke_coeffs([p[0] for p in history], order))
    B = _blaschke_toeplitz(reference_blaschke_coeffs([p[1] for p in history], order))
    rows_a = tm_matrix([p[0] for p in history], order)
    rows_b = tm_matrix([p[1] for p in history], order)
    H = A @ C @ B.T
    Ga = A @ (C @ np.conj(rows_b).T)
    Gb = B @ (np.conj(rows_a) @ C).T
    a, b = (np.asarray(p, dtype=complex).ravel() for p in (a_pts, b_pts))
    Pa, Pb = power_rows(a, order), power_rows(b, order)
    wa, wb = 1.0 - np.abs(a) ** 2, 1.0 - np.abs(b) ** 2
    main = (wa[:, None] * wb[None, :]) * np.abs(Pa @ H @ Pb.T) ** 2
    gain_a = wa * np.sum(np.abs(Pa @ Ga) ** 2, axis=1)
    gain_b = wb * np.sum(np.abs(Pb @ Gb) ** 2, axis=1)
    scale = (wa[:, None] * wb[None, :]) * (np.abs(Pa) @ np.abs(H) @ np.abs(Pb).T) ** 2
    scale += (wa * np.sum((np.abs(Pa) @ np.abs(Ga)) ** 2, axis=1))[:, None]
    scale += (wb * np.sum((np.abs(Pb) @ np.abs(Gb)) ** 2, axis=1))[None, :]
    return main + gain_a[:, None] + gain_b[None, :], scale


class TestKernelRowTables:
    """The 2-d selector tables through kernel rows against the weighted power-row expressions."""

    GRID = GridSpec(radial_count=6, angular_count=10, refine_levels=0, max_radius=0.9)

    @staticmethod
    def point_sets(kind, rng, grid):
        """Full grid, 1-25 off-grid refinement points per axis, or one point on one axis."""

        def off_grid(n):
            return grid.max_radius * rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))

        pts = grid_points(grid)
        if kind == "grid":
            return pts, pts
        if kind == "refine":
            return off_grid(rng.integers(1, 26)), off_grid(rng.integers(1, 26))
        return (off_grid(1), pts) if kind == "flat_b" else (pts, off_grid(1))

    @staticmethod
    def check(got, ref, scale):
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)
        top2 = np.sort(ref.ravel())[-2:]
        if top2.size < 2 or top2[1] - top2[0] > 1e-9 * top2[1]:
            assert np.argmax(got) == np.argmax(ref)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.sampled_from([16, 32, 64]),
        kind=st.sampled_from(["grid", "refine", "flat_a", "flat_b"]),
    )
    def test_pga_table_within_tolerance(self, seed, order, kind):
        rng = np.random.default_rng(seed)
        C = random_hardy_2d(seed, order).data
        a_pts, b_pts = self.point_sets(kind, rng, self.GRID)
        self.check(_kernel_table(C, a_pts, b_pts, self.GRID), *weighted_pga_table(C, a_pts, b_pts))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.sampled_from([16, 32, 64]),
        n_hist=st.integers(0, 3),
        kind=st.sampled_from(["grid", "refine", "flat_a", "flat_b"]),
    )
    def test_product_tm_table_within_tolerance(self, seed, order, n_hist, kind):
        rng = np.random.default_rng(seed)
        f = random_hardy_2d(seed, order)
        angles = 2.0 * np.pi * rng.uniform(0.0, 1.0, (n_hist, 2))
        params = 0.9 * rng.uniform(0.0, 1.0, (n_hist, 2)) * np.exp(1j * angles)
        history = [(complex(a), complex(b)) for a, b in params]
        a_pts, b_pts = self.point_sets(kind, rng, self.GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = np.asarray(_product_tm_objective(f, history, self.GRID)(a_pts, b_pts))
            self.check(got, *weighted_tm_table(f, history, a_pts, b_pts))

    def test_full_grid_table_peak_memory(self):
        """A whole afd2d-tm and a whole pga2d selection never hold a table of all pairs.

        Each holds at most one reduction workspace (24 bytes per pair of a
        block of rows) and two P x (N + 1) complex matrices: the kernel rows
        of the first axis times the middle factor, and one temporary.  The
        grid's kernel rows are cached outside the measurement.
        """
        grid = GridSpec(radial_count=24, angular_count=48, max_radius=0.85)
        size, order = grid_points(grid).size, 64
        f = random_hardy_2d(5, order)
        history = [(0.3 - 0.2j, 0.1j), (-0.4, 0.5 + 0.1j)]
        bound = 24 * PAIR_BLOCK * size + 2 * 16 * size * (order + 1) + 2**20
        for select in (lambda: msp_product_tm(f, history, grid), lambda: pga_step(f, grid)):
            select()  # fills the grid's kernel-row cache outside the measurement
            tracemalloc.start()
            try:
                select()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound < size**2 * (16 + 8)


def reduction_grids():
    """Grids whose point count P is below, equal to and not a multiple of ``PAIR_BLOCK``."""
    return [
        GridSpec(radial_count=4, angular_count=6, refine_levels=0, max_radius=0.9),
        GridSpec(radial_count=1, angular_count=PAIR_BLOCK - 1, refine_levels=0, max_radius=0.9),
        GridSpec(radial_count=3, angular_count=PAIR_BLOCK // 2, refine_levels=0, max_radius=0.9),
    ]


def random_history(rng, n_hist):
    angles = 2.0 * np.pi * rng.uniform(0.0, 1.0, (n_hist, 2))
    params = 0.9 * rng.uniform(0.0, 1.0, (n_hist, 2)) * np.exp(1j * angles)
    return [(complex(a), complex(b)) for a, b in params]


class TestPairReduction:
    """The blocked first argmax of ``hardy._PairTable`` against the dense table."""

    def test_grids_straddle_the_block_size(self):
        sizes = [grid_points(grid).size for grid in reduction_grids()]
        assert sizes[0] < PAIR_BLOCK == sizes[1] and sizes[2] > PAIR_BLOCK and sizes[2] % PAIR_BLOCK

    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_equal_the_dense_table(self, seed):
        # P = 1,153 = 9 * PAIR_BLOCK + 1 on the bench grid: fixed blocks would
        # leave the last row to BLAS's matrix-vector path, which rounds
        # differently from the full product
        grid = GridSpec(radial_count=24, angular_count=48, max_radius=0.85)
        pts = grid_points(grid)
        blocks = _row_blocks(pts.size)
        sizes = [blk.stop - blk.start for blk in blocks]
        assert pts.size % PAIR_BLOCK == 1 and min(sizes) > 1 and max(sizes) <= PAIR_BLOCK
        assert blocks[0].start == 0 and blocks[-1].stop == pts.size
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        f = random_hardy_2d(seed, 64)
        history = random_history(np.random.default_rng(seed), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tables = [_kernel_table(f.data, pts, pts, grid)]
            tables.append(_product_tm_objective(f, history, grid)(pts, pts))
        for table in tables:
            dense = np.asarray(table)
            assert all(table.block(blk).tobytes() == dense[blk].tobytes() for blk in blocks)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.integers(16, 64),
        n_hist=st.integers(0, 3),
        grid_index=st.integers(0, 2),
    )
    def test_bounds_hold_and_argmax_matches_dense(self, seed, order, n_hist, grid_index):
        rng = np.random.default_rng(seed)
        grid = reduction_grids()[grid_index]
        pts = grid_points(grid)
        f = random_hardy_2d(seed, order)
        history = random_history(rng, n_hist)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = _product_tm_objective(f, history, grid)(pts, pts)
            ref, scale = weighted_tm_table(f, history, pts, pts)
        dense = np.asarray(table)
        row_bound, col_bound = table.bounds()
        assert np.all(dense <= row_bound[:, None]) and np.all(dense <= col_bound[None, :])
        self.check_reduction(table, ref, scale)
        C = f.data
        self.check_reduction(_kernel_table(C, pts, pts, grid), *weighted_pga_table(C, pts, pts))

    @staticmethod
    def check_reduction(table, ref, scale):
        (i, j), value = _pair_argmax(table)
        top2 = np.sort(ref.ravel())[-2:]
        if top2[1] - top2[0] > 1e-9 * top2[1]:
            assert (i, j) == np.unravel_index(int(np.argmax(ref)), ref.shape)
        assert abs(value - ref[i, j]) <= 1e-13 * scale[i, j]

    @pytest.mark.parametrize("order", [16, 64])
    def test_tight_bound_keeps_the_maximum(self, order):
        # a tensor atom at radii where |K_a|^2 = 1 - |a|^(2N+2) rounds to 1:
        # its own pair meets the row and column bounds up to rounding
        grid = reduction_grids()[2]
        pts = grid_points(grid)
        radii = np.abs(pts)
        inner = np.flatnonzero((radii > 0) & (radii ** (2 * order + 2) < 1e-17))
        for k in range(0, inner.size, 7):
            ia, ib = int(inner[k]), int(inner[-1 - k])
            f = tensor_signal([(1.0, (pts[ia], pts[ib]))], order)
            table = _product_tm_objective(f, [], grid)(pts, pts)
            dense = np.asarray(table)
            row_bound, col_bound = table.bounds()
            assert np.all(dense <= row_bound[:, None]) and np.all(dense <= col_bound[None, :])
            assert _pair_argmax(table)[0] == (ia, ib)

    def test_tie_goes_to_the_first_pair_before_the_seed_rows(self):
        # rows 1..31 have the largest bounds and row P - 1 the next: they are
        # the seed rows, and row P - 1 holds a maximum of exactly 1.  Row 0
        # ties with it and is lexicographically first; every row survives
        # the seed value, so the rows span three blocks.
        size = 2 * PAIR_BLOCK + 3
        rows_a = np.tile([0.0, 1.0 + 0j], (size, 1))
        rows_a[1:PAIR_SEEDS] = [0.0, 2.0]
        rows_a[0] = [1.0, 0.0]
        rows_a[-1] = [1.0, 1.0]
        rows_b = np.array([[1.0, 0.0], [0.0, 0.25]], dtype=complex)
        table = _PairTable(rows_a, np.eye(2, dtype=complex), rows_b, (np.zeros(size), np.zeros(2)))
        seeds = np.argsort(table.bounds()[0])[-PAIR_SEEDS:]
        assert size - 1 in seeds and 0 not in seeds
        assert _pair_argmax(table) == ((0, 0), 1.0)
        assert np.unravel_index(int(np.argmax(np.asarray(table))), table.shape) == (0, 0)

    def test_tie_across_blocks_without_bounds(self):
        size = PAIR_BLOCK + 10
        rows_a = np.full((size, 1), 0.5 + 0j)
        rows_a[[3, PAIR_BLOCK + 5]] = 1.0
        table = _PairTable(rows_a, np.eye(1, dtype=complex), np.array([[1.0], [0.5]], dtype=complex))
        assert _pair_argmax(table) == ((3, 0), 1.0)

    @pytest.mark.parametrize("seed", range(2))
    def test_no_row_is_scored_twice(self, seed, monkeypatch):
        # the seed rows are scored once, in full, and only the other rows
        # that survive their maximum are scored after them
        scored = []
        block = _PairTable.block

        def recorded(table, rows=slice(None), cols=slice(None), work=None):
            scored.extend(np.arange(table.shape[0])[rows].tolist())
            return block(table, rows, cols, work)

        rng = np.random.default_rng(seed)
        tables = []
        for grid in reduction_grids()[1:] + [BENCH_GRID]:
            pts = grid_points(grid)
            f = random_hardy_2d(seed, 48)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tables.append(_kernel_table(f.data, pts, pts, grid))
                tables.append(_product_tm_objective(f, random_history(rng, 2), grid)(pts, pts))
        # every row ties: the seeds and all the other rows are scored
        tables.append(_PairTable(np.ones((2 * PAIR_BLOCK + 3, 1), dtype=complex), np.eye(1, dtype=complex),
                                 np.array([[1.0], [0.5]], dtype=complex)))
        monkeypatch.setattr(_PairTable, "block", recorded)
        survivors = []
        for table in tables:
            scored.clear()
            pick = _pair_argmax(table)
            assert len(scored) == len(set(scored)) >= min(PAIR_SEEDS, table.shape[0])
            survivors.append(len(scored) - PAIR_SEEDS)
            dense = block(table)
            if table.gains is None:
                assert pick[0] == np.unravel_index(int(np.argmax(dense)), dense.shape)
            assert abs(pick[1] - dense.max()) <= 1e-12 * dense.max()
        assert survivors[-1] == tables[-1].shape[0] - PAIR_SEEDS and max(survivors[1::2]) > 0


BENCH_GRID = GridSpec(radial_count=24, angular_count=48, max_radius=0.85)


class TestPairScreen:
    """The low-rank screen of a table without gains (pga2d) against the dense table."""

    @staticmethod
    def middle(kind, seed, order):
        """A random Hardy block, the block of a sum of 1-3 tensor atoms, or a degenerate one.

        The degenerate blocks have one nonzero row, every row one of three
        random rows, or rank one, u v^H.
        """
        rng = np.random.default_rng(seed)
        if kind == "random":
            return random_hardy_2d(seed, order).data
        if kind in ("row", "repeated", "outer"):
            rows = rng.standard_normal((3, order + 1)) + 1j * rng.standard_normal((3, order + 1))
            if kind == "repeated":
                return rows[rng.integers(0, 3, order + 1)]
            u = rows[0] if kind == "outer" else np.eye(order + 1)[rng.integers(order + 1)]
            return np.outer(u, rows[1].conj())
        params = 0.9 * rng.uniform(0.0, 1.0, (kind, 2)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (kind, 2)))
        coeffs = rng.standard_normal(kind) + 1j * rng.standard_normal(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return tensor_signal(list(zip(coeffs, params)), order).data

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.integers(0, 64),
        kind=st.sampled_from(["random", 1, 2, 3]),
        scale=st.sampled_from([1e-200, 1e-30, 1.0, 1e30, 1e200]),
        grid_index=st.integers(0, 3),
    )
    def test_screen_bounds_every_row_and_keeps_the_dense_argmax(self, seed, order, kind, scale, grid_index):
        self.check_screen(scale * self.middle(kind, seed, order), (reduction_grids() + [BENCH_GRID])[grid_index])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.one_of(st.integers(0, 15), st.integers(16, 64)),
        kind=st.sampled_from(["row", "repeated", "outer"]),
        scale=st.sampled_from([1e-200, 1.0, 1e200]),
        grid_index=st.integers(0, 3),
    )
    def test_screen_on_degenerate_middles(self, seed, order, kind, scale, grid_index):
        self.check_screen(scale * self.middle(kind, seed, order), (reduction_grids() + [BENCH_GRID])[grid_index])

    @pytest.mark.parametrize("order", [0, 1, 7, 14, 15])
    @pytest.mark.parametrize("kind", ["random", 1, "row", "outer"])
    def test_tails_vanish_below_the_rank(self, order, kind):
        # q = N + 1: W spans everything, and each tail is the allowance eps |x| max|y|
        grid = reduction_grids()[2]
        pts = grid_points(grid)
        table = _kernel_table(self.middle(kind, order, order), pts, pts, grid)
        _, tails, basis = table.screen(np.empty(3 * PAIR_BLOCK * pts.size))
        assert basis.shape == (order + 1, order + 1) == (order + 1, min(PAIR_RANK, order + 1))
        reach = np.sqrt(np.sum(np.abs(table.left) ** 2, axis=1) * table.norms_sq[1].max())
        assert np.all(tails <= 1.01 * 2.0**-40 * (order + 1) * reach)
        self.check_screen(table.middle, grid)

    @staticmethod
    def check_screen(C, grid):
        """The screen against the dense table: its argmax, its row bounds and its tails.

        The tails must dominate |x W_perp| max |W_perp^H y| with W_perp from
        a full QR that completes the screen's W, x and y scaled as the
        screen scales them.
        """
        pts = grid_points(grid)
        table = _kernel_table(C, pts, pts, grid)
        dense = np.asarray(table)
        idx = np.unravel_index(int(np.argmax(dense)), dense.shape)
        (i, j), value = _pair_argmax(table)
        assert (i, j) == idx and np.float64(value).tobytes() == dense[idx].tobytes()
        bound, tails, basis = table.screen(np.empty(3 * min(PAIR_BLOCK, pts.size) * pts.size))
        if bound is None:
            assert not 2.0**-500 < np.abs(C).max() < 2.0**500
            return
        assert np.all(dense.max(axis=1) <= bound)
        unit = 2.0 ** np.frexp(np.abs(C).max())[1]
        perp = np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1] :]
        tail_a = np.linalg.norm(table.left / unit @ perp, axis=1)
        tail_b = np.linalg.norm(table.rows_b @ perp.conj(), axis=1)
        assert np.all(tails >= unit * tail_a * tail_b.max())

    @pytest.mark.parametrize("seed", range(2))
    def test_row_subsets_keep_the_dense_bits(self, seed):
        # whole rows keep the dense bits for any two or more of them; a
        # subset of the columns need not
        pts = grid_points(BENCH_GRID)
        rng = np.random.default_rng(seed)
        f = random_hardy_2d(seed, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tables = [_kernel_table(f.data, pts, pts, BENCH_GRID),
                      _product_tm_objective(f, random_history(rng, 2), BENCH_GRID)(pts, pts)]
        for table in tables:
            dense = np.asarray(table)
            for count in (2, 3, 17, 65, pts.size - 1):
                rows = np.sort(rng.choice(pts.size, count, replace=False))
                assert table.block(rows).tobytes() == dense[rows].tobytes()

    def test_screen_leaves_few_rows(self):
        # blocks with the spectrum of the bench images, 1 / ((1 + k)(1 + l))
        pts = grid_points(BENCH_GRID)
        decay = 1.0 + np.arange(65)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            C = (rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65))) / np.outer(decay, decay)
            table = _kernel_table(C, pts, pts, BENCH_GRID)
            bound = table.screen(np.empty(3 * PAIR_BLOCK * pts.size))[0]
            seed_value = table.block(np.argsort(bound)[-PAIR_SEEDS:]).max()
            assert np.mean(bound >= seed_value) < 0.01

    @pytest.mark.parametrize("lone", [0, 20, 39])
    def test_a_lone_row_is_scored_with_a_neighbour(self, lone):
        # the 32 seed rows hold 0.9 under bounds that their float32 allowance
        # lifts above 1; one other row holds the maximum and alone reaches
        # the seed value.  BLAS would score it alone by its matrix-vector path
        shapes = []

        class Recorded(_PairTable):
            def block(self, rows=slice(None), cols=slice(None), work=None):
                values = super().block(rows, cols, work)
                shapes.append(values.shape)
                return values

        rows_a = np.tile([0.1, 0.0 + 0j], (40, 1))
        rows_a[np.delete(np.arange(40), lone)[:PAIR_SEEDS]] = [0.9, 1e8]
        rows_a[lone] = [1.0, 0.0]
        table = Recorded(rows_a, np.eye(2, dtype=complex), np.array([[1.0, 0.0], [0.5, 0.0]], dtype=complex))
        assert _pair_argmax(table) == ((lone, 0), 1.0)
        assert min(rows for rows, _ in shapes) == 2
        assert sum(rows for rows, _ in shapes) == PAIR_SEEDS + 2


class TestAfd2dDecompose:
    def test_single_atom_zero_residual(self):
        (a, b), = spread_pairs(2, GRID, 1)
        f = tensor_signal([(1.0, (a, b))])
        record = afd2d_tm_decompose(f, 3, GRID)
        assert len(record.steps) == 1
        assert record.steps[0].residual_energy < 1e-10

    def test_two_atom_recovery(self):
        grid = GridSpec(radial_count=16, angular_count=32, refine_levels=0, max_radius=0.8)
        pairs = spread_pairs(3, grid, 2)
        f = tensor_signal([(1.0, pairs[0]), (1 / 16, pairs[1])], order=48)
        record = afd2d_tm_decompose(f, 2, grid)
        assert record.steps[-1].residual_energy / record.initial_energy < 1e-6

    def test_block_sizes_and_bessel(self):
        f = random_hardy_2d(7, ORDER)
        record = afd2d_tm_decompose(f, 6, GRID)
        assert [len(s.block) for s in record.steps] == [2 * n - 1 for n in range(1, 7)]
        total = sum(s.block_energy for s in record.steps)
        assert total <= record.initial_energy + 1e-12
        resids = record.residual_energies()
        assert all(resids[i + 1] <= resids[i] for i in range(len(resids) - 1))

    def test_ledger_against_direct_projection(self):
        f = random_hardy_2d(8, ORDER)
        record = afd2d_tm_decompose(f, 5, GRID)
        direct = (f - reconstruct_product_tm(record, ORDER)).energy()
        assert abs(direct - record.steps[-1].residual_energy) < 1e-8

    def test_tm_rows_built_once_per_step(self, monkeypatch):
        calls = []

        def counting(params, *args):
            calls.append(len(params))
            return tm_matrix(params, *args)

        monkeypatch.setattr(afd2d, "tm_matrix", counting)
        record = afd2d_tm_decompose(random_hardy_2d(12, ORDER), 5, GRID)
        assert len(record.steps) == 5
        # one call per axis per step, each with the Blaschke row, from step 1's phi = 1 on
        assert calls == [n for n in range(1, 7) for _ in range(2)]

    def test_lossy_basis_still_warns(self):
        grid = GridSpec(radial_count=6, angular_count=8, refine_levels=0, max_radius=0.95)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = tensor_signal([(1.0, (0.95, 0.95))], order=8)
        with pytest.warns(TruncationWarning):
            afd2d_tm_decompose(f, 2, grid)

    def test_block_energy_is_partial_sum_increment(self):
        f = random_hardy_2d(9, ORDER)
        record = afd2d_tm_decompose(f, 4, GRID)
        prev = FourierCoeffs2D.zeros(ORDER, hardy=True)
        for n in range(1, 5):
            sub = type(record)(initial_energy=record.initial_energy, steps=record.steps[:n])
            sn = reconstruct_product_tm(sub, ORDER)
            inc = (sn - prev).energy()
            assert abs(inc - record.steps[n - 1].block_energy) < 1e-10
            prev = sn


def reference_reconstruct_product_tm(record, order):
    """Double-loop partial sum: one outer product of factor rows per block entry."""
    out = np.zeros((order + 1, order + 1), dtype=complex)
    if not record.steps:
        return out
    pairs = [(s.a, s.b) for s in record.steps]
    rows_a = tm_matrix([p[0] for p in pairs], order)
    rows_b = tm_matrix([p[1] for p in pairs], order)
    for step_idx, step in enumerate(record.steps, start=1):
        entries = step.block
        for j in range(step_idx - 1):
            out += entries[j] * np.outer(rows_a[j], rows_b[step_idx - 1])
        for l in range(step_idx):
            out += entries[step_idx - 1 + l] * np.outer(rows_a[step_idx - 1], rows_b[l])
    return out


class TestReconstructProductTmOracle:
    """The table product rows_a^T T rows_b against one outer product per entry."""

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(16, 48),
        n_steps=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    def test_matches_double_loop(self, order, n_steps, seed):
        rng = np.random.default_rng(seed)
        record = Record(initial_energy=1.0)
        for n in range(1, n_steps + 1):
            a, b = 0.4 * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
            block = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
            record.steps.append(Step(a=complex(a), b=complex(b), block=block, block_energy=0.0, residual_energy=0.0))
        got = reconstruct_product_tm(record, order).data
        want = reference_reconstruct_product_tm(record, order)
        scale = sum(np.sum(np.abs(step.block)) for step in record.steps)
        assert got.shape == (order + 1, order + 1)
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


class TestPga:
    def test_atom_recovery(self):
        (a, b), = spread_pairs(4, GRID, 1)
        f = tensor_signal([(1.0, (a, b))])
        spec, coeff = pga_step(f, GRID)
        assert spec.left.a == pytest.approx(a) and spec.right.a == pytest.approx(b)
        assert coeff == pytest.approx(1.0, abs=1e-9)

    def test_constant_selects_center(self):
        f = FourierCoeffs2D.from_terms(ORDER, {(0, 0): 1.0}, hardy=True)
        spec, coeff = pga_step(f, GRID)
        assert spec.left.a == 0 and spec.right.a == 0
        assert coeff == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_equivalence(self, seed):
        grid = GridSpec(radial_count=4, angular_count=6, refine_levels=0, max_radius=0.5)
        f = random_hardy_2d(seed + 20, 16)
        spec, _ = pga_step(f, grid)
        pts = grid_points(grid)
        best, best_val = None, -1.0
        for pa in pts:
            for pb in pts:
                v = abs(
                    inner_product_2d(
                        f, tensor_atom_coeffs(TensorAtomSpec.of(complex(pa), complex(pb)), 16)
                    )
                )
                if v > best_val + 1e-15:
                    best, best_val = (complex(pa), complex(pb)), v
        assert (spec.left.a, spec.right.a) == best

    @pytest.mark.parametrize("seed", range(3))
    def test_ledger_identity(self, seed):
        f = random_hardy_2d(seed + 30, 24)
        record = pga_decompose(f, 10, GRID)
        d = [record.initial_energy] + record.residual_energies()
        for i, step in enumerate(record.steps):
            assert abs(d[i] - d[i + 1] - abs(step.coeff) ** 2) < 1e-10
        assert all(d[i + 1] <= d[i] + 1e-15 for i in range(len(d) - 1))

    def test_two_separated_atoms_converge(self):
        # far-apart high-radius tensor atoms are nearly orthogonal; the
        # 1e-3 budget after 4 steps was frozen from a reference run
        grid = GridSpec(radial_count=12, angular_count=24, refine_levels=2, max_radius=0.8)
        radii = grid_radii(grid)
        a1 = complex(radii[10])
        b1 = complex(radii[9] * np.exp(2j * np.pi * 6 / 24))
        a2 = complex(radii[9] * np.exp(2j * np.pi * 12 / 24))
        b2 = complex(radii[10] * np.exp(2j * np.pi * 18 / 24))
        f = tensor_signal([(1.0, (a1, b1)), (0.5, (a2, b2))], order=64)
        record = pga_decompose(f, 4, grid)
        assert record.steps[-1].residual_energy / record.initial_energy < 1e-3

    def test_reconstruction_matches_remainder(self):
        f = random_hardy_2d(40, 24)
        record = pga_decompose(f, 5, GRID)
        recon = reconstruct_pga(record, 24)
        assert (f - recon).energy() == pytest.approx(
            record.steps[-1].residual_energy, abs=1e-9
        )
