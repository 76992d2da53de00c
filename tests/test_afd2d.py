"""Product-system decomposition and pure greedy selection on the 2-torus."""

import importlib.util
import pathlib
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
from afdkit import afd2d, hardy
from afdkit.afd1d import _tm_grid_size
from afdkit.afd2d import _blaschke_toeplitz, _product_tm_objective
from afdkit.cli import load_image_2d, synth_field_2d
from afdkit.hardy import (
    PAIR_BLOCK,
    PAIR_FLOOR,
    PAIR_LANES,
    PAIR_MARGIN,
    PAIR_RANK,
    PAIR_SEEDS,
    _PairTable,
    _grid_rings,
    _kernel_table,
    _pair_argmax,
    _row_blocks,
    _scan_rows,
    grid_radii,
    quadrant_split,
)
from afdkit.poga import ProductSzegoDictionary2D, poga_decompose
from conftest import (
    dn_energy,
    from_terms,
    kernel_ip,
    product_coeff,
    random_hardy_2d,
    reference_blaschke,
    reference_blaschke_coeffs,
)

GRID = GridSpec(radial_count=10, angular_count=20, refine_levels=1, max_radius=0.6)
ORDER = 32
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def tensor_signal(pairs_and_coeffs, order=ORDER):
    f = FourierCoeffs2D.zeros(order)
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
        f = from_terms(FourierCoeffs2D, 8, {(1, 1): 1.0})
        one = from_terms(FourierCoeffs1D, 8, {0: 1.0})
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
        f = from_terms(FourierCoeffs2D, ORDER, {(1, 1): 1.0})
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
        f = FourierCoeffs2D(np.outer(szego_coeffs(a0, ORDER).data, g))
        sel1 = msp_product_tm(f, [], GRID)
        assert sel1.a == pytest.approx(a0, abs=1e-14)
        msp_product_tm(f, [(sel1.a, sel1.b)], GRID)

    def test_zero_remainder_rejected(self):
        with pytest.raises(DegenerateInputError):
            msp_product_tm(FourierCoeffs2D.zeros(8), [], GRID)

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
    Pa, Pb = (p[:, None] ** np.arange(order + 1)[None, :] for p in (a, b))
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
    Pa, Pb = (p[:, None] ** np.arange(order + 1)[None, :] for p in (a, b))
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


def check_gain_bounds(table, dense, grid=None):
    """The bounds of a table with gains against its ``dense`` values; returns the row bounds.

    Every row maximum is at most its row bound, and every entry (i, j) at
    most (terms[i, ring of j] + gains[1][j]) (1 + PAIR_MARGIN) + PAIR_FLOOR,
    the rings those of ``grid`` (the columns' grid), or one ring off it.
    """
    rings = _grid_rings(grid, table.middle.shape[0] - 1)[0] if grid else np.zeros(table.shape[1], dtype=np.intp)
    row_bound, (terms, labels) = table.bounds()
    assert np.array_equal(labels, rings) and terms.shape == (table.shape[0], rings[-1] + 1)
    assert np.all(dense.max(axis=1) <= row_bound)
    assert np.all(dense <= (terms[:, rings] + table.gains[1]) * (1.0 + PAIR_MARGIN) + PAIR_FLOOR)
    return row_bound


def whole_column_pairs(table, seeds, seed_value):
    """Pairs scored when one bound per column of a bench-grid table with gains prunes the columns.

    Column j's bound is the ring majorant of M Kb[j]^T on the rings of the
    rows, squared, plus the ring's largest row gain and the column's gain,
    inflated as the row bounds are.  The seeds are scored in full, then the
    other rows and the columns whose bounds reach the seed value.
    """
    labels, peaks = _grid_rings(BENCH_GRID, table.middle.shape[0] - 1)
    major = (np.abs(table.rows_b @ table.middle.T) @ peaks.T) ** 2
    major += np.maximum.reduceat(table.gains[0], np.flatnonzero(np.diff(labels, prepend=-1)))
    col_bound = (major.max(axis=1) + table.gains[1]) * (1.0 + PAIR_MARGIN) + PAIR_FLOOR
    rows = np.count_nonzero(np.delete(table.bounds()[0], seeds) >= seed_value)
    return seeds.size * table.shape[1] + rows * np.count_nonzero(col_bound >= seed_value)


def bench_image(tmp_path, template=0):
    """The ``pp`` part of bench image ``template`` at seed 0, order 64."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = tmp_path / ("image%d.pgm" % template)
    inputs.write_pgm(path, inputs.image_2d(template, 0, 64))
    return load_image_2d(str(path), 64).pp


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
        check_gain_bounds(table, np.asarray(table), grid)
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
        # its own pair meets its row bound and its entrywise bound up to rounding
        grid = reduction_grids()[2]
        pts = grid_points(grid)
        radii = np.abs(pts)
        inner = np.flatnonzero((radii > 0) & (radii ** (2 * order + 2) < 1e-17))
        for k in range(0, inner.size, 7):
            ia, ib = int(inner[k]), int(inner[-1 - k])
            f = tensor_signal([(1.0, (pts[ia], pts[ib]))], order)
            table = _product_tm_objective(f, [], grid)(pts, pts)
            check_gain_bounds(table, np.asarray(table), grid)
            assert _pair_argmax(table)[0] == (ia, ib)

    def test_tie_goes_to_the_first_pair_before_the_seed_rows(self):
        # rows 1..31 have the largest bounds and row P - 1 the next: they are
        # the seed rows, and row P - 1 holds a maximum of exactly 1.  Row 0
        # ties with it and is lexicographically first; every row survives
        # the seed value, so the rows span three blocks.  Off the grid the
        # columns form one ring, so a row's bound is (|x_0| + |x_1|)^2 plus
        # the largest column gain, 0.75: 2.44 and 3.0 for the seed rows,
        # 1.75 for row 0 and 1.3125 for the others, and no value is above 1.
        size = 2 * PAIR_BLOCK + 3
        rows_a = np.tile([0.5, 0.25 + 0j], (size, 1))
        rows_a[1:PAIR_SEEDS] = [0.9, 0.4]
        rows_a[0] = [1.0, 0.0]
        rows_a[-1] = [1.0, 0.5]
        rows_b = np.eye(2, dtype=complex)
        table = _PairTable(rows_a, np.eye(2, dtype=complex), rows_b, (np.zeros(size), np.array([0.0, 0.75])))
        row_bound = check_gain_bounds(table, np.asarray(table))
        seeds = np.argsort(row_bound)[-PAIR_SEEDS:]
        assert size - 1 in seeds and 0 not in seeds
        assert np.all(row_bound >= 1.0)
        assert _pair_argmax(table) == ((0, 0), 1.0)
        assert np.unravel_index(int(np.argmax(np.asarray(table))), table.shape) == (0, 0)

    def test_tie_across_blocks_with_other_column_lanes(self):
        # two lanes of 4 columns with gains 0 and 0.75, and a value of at
        # most 1.  The two seed rows, 258 and one of 227..257 (the largest
        # bounds), hold 1 at row 258; row 5 holds it in column 5 and row
        # 150 in column 1.  Every other row reaches the seed value, in
        # three blocks: the first (rows 0..85, terms at most 0.25) reaches
        # 1 only on the second lane, the second (row 150's term is 1) and
        # the third (terms 1.69) on both.  The tie still goes to (5, 5), the
        # first pair
        calls = []

        class Recorded(_PairTable):
            def block(self, rows=slice(None), cols=slice(None), work=None):
                calls.append(np.arange(self.shape[1])[cols].tolist())
                return super().block(rows, cols, work)

        size, width = 2 * PAIR_BLOCK + 3, 2 * PAIR_LANES
        rows_a = np.zeros((size, width), dtype=complex)
        rows_a[:, [0, PAIR_LANES]] = 0.25
        rows_a[size - PAIR_SEEDS : -1, [0, PAIR_LANES]] = [0.9, 0.4]
        rows_a[-1, [0, PAIR_LANES]] = [1.0, 0.5]
        rows_a[5] = np.eye(width)[PAIR_LANES + 1] * 0.5
        rows_a[150] = np.eye(width)[1]
        gains = (np.zeros(size), np.repeat([0.0, 0.75], PAIR_LANES))
        table = Recorded(rows_a, np.eye(width, dtype=complex), np.eye(width, dtype=complex), gains)
        dense = _PairTable.block(table)
        check_gain_bounds(table, dense)
        assert _pair_argmax(table) == ((5, PAIR_LANES + 1), 1.0)
        assert calls == [list(range(width)), list(range(PAIR_LANES, width))] + [list(range(width))] * 2
        assert np.unravel_index(int(np.argmax(dense)), dense.shape) == (5, PAIR_LANES + 1)

    def test_tie_across_blocks_without_bounds(self):
        size = PAIR_BLOCK + 10
        rows_a = np.full((size, 1), 0.5 + 0j)
        rows_a[[3, PAIR_BLOCK + 5]] = 1.0
        table = _PairTable(rows_a, np.eye(1, dtype=complex), np.array([[1.0], [0.5]], dtype=complex))
        assert _pair_argmax(table) == ((3, 0), 1.0)

    @pytest.mark.parametrize("seed", range(2))
    def test_no_row_is_scored_twice(self, seed, monkeypatch):
        # the two seed rows are scored once, in full, by the first block
        # call, and only the other rows that survive their maximum are
        # scored after them, a table with gains in lanes of columns; every
        # table, with gains or without, probed or not, seeds two rows (all
        # of a table of fewer), and the search writes nothing to the table
        calls = []
        block = _PairTable.block

        def recorded(table, rows=slice(None), cols=slice(None), work=None):
            calls.append(np.arange(table.shape[0])[rows].tolist())
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
        for table, probe in [(t, True) for t in tables] + [(t, False) for t in tables if t.gains is None]:
            calls.clear()
            table.probe = probe
            state = dict(vars(table))
            pick = _pair_argmax(table)
            assert vars(table).keys() == state.keys() and all(vars(table)[k] is v for k, v in state.items())
            scored = sum(calls, [])
            assert len(scored) == len(set(scored))
            assert len(calls[0]) == min(2, table.shape[0])
            survivors.append(len(scored) - len(calls[0]))
            dense = block(table)
            if table.gains is None:
                assert pick[0] == np.unravel_index(int(np.argmax(dense)), dense.shape)
            assert abs(pick[1] - dense.max()) <= 1e-12 * dense.max()
        assert survivors[len(tables) - 1] == tables[-1].shape[0] - 2 == survivors[-1]
        assert max(survivors[1 : len(tables) - 1 : 2]) > 0

    def test_bench_image_picks_are_dense_on_fewer_pairs(self, tmp_path, monkeypatch):
        # pp of the first bench image at seed 0, 5 afd2d-tm steps on the bench
        # grid: each pick and its value bits are the dense table's when no
        # near tie is at the top, no pair is scored twice, and the lanes of
        # the blocks score no more pairs over the 5 steps (601k, 724k with 32
        # seed rows) than whole-column bounds would after the same two seed
        # rows (1.20M; at steps 1, 4 and 5 they score more)
        f = bench_image(tmp_path)
        block, reduce, steps = _PairTable.block, hardy._pair_argmax, []

        def recorded(table, rows=slice(None), cols=slice(None), work=None):
            values = block(table, rows, cols, work)
            if steps and steps[-1][2] is None:  # inside the reduction, not in the refinement after it
                steps[-1][1].append((np.arange(table.shape[0])[rows], np.arange(table.shape[1])[cols], values.max()))
            return values

        def pair_argmax(table):
            steps.append([table, [], None])
            steps[-1][2] = reduce(table)
            return steps[-1][2]

        monkeypatch.setattr(_PairTable, "block", recorded)
        monkeypatch.setattr(hardy, "_pair_argmax", pair_argmax)
        afd2d_tm_decompose(f, 5, BENCH_GRID)
        assert len(steps) == 5
        scored = whole = 0
        for table, calls, (pick, value) in steps:
            dense = block(table)
            top2 = np.sort(dense.ravel())[-2:]
            if top2[1] - top2[0] > 1e-9 * top2[1]:
                idx = np.unravel_index(int(np.argmax(dense)), dense.shape)
                assert pick == idx and np.float64(value).tobytes() == dense[idx].tobytes()
            for _, cols, _ in calls:  # whole lanes of columns, the last one cut at the table's edge
                lanes = (np.unique(cols // PAIR_LANES)[:, None] * PAIR_LANES + np.arange(PAIR_LANES)).ravel()
                assert np.array_equal(cols, lanes[lanes < table.shape[1]])
            pairs = np.concatenate([(rows[:, None] * table.shape[1] + cols).ravel() for rows, cols, _ in calls])
            assert np.unique(pairs).size == pairs.size
            scored += pairs.size
            whole += whole_column_pairs(table, calls[0][0], calls[0][2])
        assert scored <= whole

    def test_pga2d_probes_its_first_search_only(self, tmp_path, monkeypatch):
        # pp of the first bench image at seed 0, 5 pga2d steps on the bench
        # grid: the first search's probe spares the screen, and the last
        # four neither form the ring majorants nor probe, as the remainder
        # is no longer the input; each pick and its value bits are the
        # dense table's
        f = bench_image(tmp_path)
        reduce, steps = hardy._pair_argmax, []

        def pair_argmax(table):
            steps.append([table, [], None])
            steps[-1][2] = reduce(table)
            return steps[-1][2]

        def traced(name, method):
            return lambda table, *args: steps[-1][1].append(name) or method(table, *args)

        monkeypatch.setattr(_PairTable, "bounds", traced("bounds", _PairTable.bounds))
        monkeypatch.setattr(_PairTable, "screen", traced("screen", _PairTable.screen))
        monkeypatch.setattr(hardy, "_pair_argmax", pair_argmax)
        pga_decompose(f, 5, BENCH_GRID)
        assert [calls for _, calls, _ in steps] == [["bounds"]] + [["screen"]] * 4
        assert [table.probe for table, _, _ in steps] == [True] + [False] * 4
        for table, _, (pick, value) in steps:
            dense = np.asarray(table)
            idx = np.unravel_index(int(np.argmax(dense)), dense.shape)
            assert pick == idx and np.float64(value).tobytes() == dense[idx].tobytes()


BENCH_GRID = GridSpec(radial_count=24, angular_count=48, max_radius=0.85)


class TestScanRows:
    """``hardy._scan_rows``, the row scan of every 2-d selector, against dense row tables."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 300),
        width=st.integers(1, 6),
        seeds=st.integers(1, 32),
        rho=st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
        inflated=st.floats(0.0, 1.0),
        ties=st.booleans(),
        unusable=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_scores_each_row_once_and_certifies_the_best(self, seed, n, width, seeds, rho, inflated, ties,
                                                         unusable):
        # row bounds exact or, for a share ``inflated`` of the rows, inflated up to 4x; values from four
        # levels (ties) or continuous, and rows of -inf (no usable entry, bound 0), as poga2d's gains hold
        rng = np.random.default_rng(seed)
        values = rng.choice([0.0, 0.25, 0.5, 1.0], (n, width)) if ties else rng.random((n, width))
        values[rng.random(n) < unusable] = -np.inf
        bound = np.where(rng.random(n) < inflated, rng.uniform(1.0, 4.0, n), 1.0) * np.maximum(values.max(axis=1), 0.0)
        calls, best = [], [-np.inf]

        def score(rows):
            calls.append(rows.copy())
            best[0] = max(best[0], values[rows].max())
            return best[0]

        rest = _scan_rows(bound, seeds, score, rho)
        scored = np.concatenate(calls)
        assert np.unique(scored).size == scored.size  # no row scored twice
        assert all(np.all(np.diff(rows) > 0) for rows in calls)
        others = np.setdiff1d(np.arange(n), calls[0])
        assert calls[0].size == min(seeds, n) and bound[calls[0]].min() >= bound[others].max(initial=-np.inf)
        assert all(rows.size <= PAIR_BLOCK for rows in calls[1:])
        dense = values.max()
        assert best[0] == dense if rho == 1.0 else best[0] >= rho * dense
        left = np.setdiff1d(np.arange(n), scored)
        assert rest == bound[left].max(initial=-np.inf) >= values[left].max(initial=-np.inf)
        assert np.all(rho * bound[left] < best[0])


# The most pairs each 2-d selector may score (entries ``_PairTable.block`` returns, refinement and frame
# tables included) on the ``pp`` part of ``synth_field_2d(64, seed, 256)``, 5 terms on the bench grid, seeds
# 0 and 1: the counts of the shared row scan, the same under 1 and 2 BLAS threads.  Each is at most the
# count of the separate loops it replaced; afd2d-tm at seed 0 scored 152,235 there, without the drop of the
# rows that no longer reach the running best before each block.
PINNED_PAIRS = {"afd2d-tm": (151_539, 28_753), "pga2d": (19_586, 42_771), "poga2d": (5_502_116, 5_505_575)}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("selector", sorted(PINNED_PAIRS))
def test_selectors_score_no_more_pairs_than_pinned(selector, seed, monkeypatch):
    block, scored = _PairTable.block, []

    def counted(table, rows=slice(None), cols=slice(None), work=None):
        values = block(table, rows, cols, work)
        scored.append(values.size)
        return values

    grid = GridSpec(radial_count=24, angular_count=48, refine_levels=2, max_radius=0.85)
    f = quadrant_split(synth_field_2d(64, seed, 256), 64).pp
    monkeypatch.setattr(_PairTable, "block", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if selector == "afd2d-tm":
            record = afd2d_tm_decompose(f, 5, grid)
        elif selector == "pga2d":
            record = pga_decompose(f, 5, grid)
        else:
            record = poga_decompose(f, 5, ProductSzegoDictionary2D(64, grid))
    assert len(record.steps) == 5
    assert 0 < sum(scored) <= PINNED_PAIRS[selector][seed]


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
        # whole rows keep the dense bits for any two or more of them, and so
        # do whole lanes of PAIR_LANES columns; other column subsets need not
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
                n_lanes = -(-pts.size // PAIR_LANES)
                lanes = np.sort(rng.choice(n_lanes, min(count, n_lanes), replace=False))
                cols = (lanes[:, None] * PAIR_LANES + np.arange(PAIR_LANES)).ravel()
                cols = cols[cols < pts.size]
                assert table.block(rows, cols).tobytes() == dense[np.ix_(rows, cols)].tobytes()

    @pytest.mark.parametrize("template", range(4))
    def test_one_row_blocks_keep_the_dense_bits(self, template, tmp_path):
        # BLAS multiplies a lone row by its matrix-vector path, whose bits
        # differ from the full product's: ``block`` multiplies it beside a
        # neighbour, for a row given as a slice or an index, with gains or
        # without, over all columns or whole lanes, at the first and the
        # last row too (whose neighbour comes before it)
        pts = grid_points(BENCH_GRID)
        rng = np.random.default_rng(template)
        f = bench_image(tmp_path, template)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tables = [_kernel_table(f.data, pts, pts, BENCH_GRID),
                      _product_tm_objective(f, random_history(rng, template % 3), BENCH_GRID)(pts, pts)]
        n_lanes = -(-pts.size // PAIR_LANES)
        for table in tables:
            dense = np.asarray(table)
            work = np.empty(3 * 2 * pts.size)
            for row in [0, pts.size - 1] + rng.choice(pts.size, 20, replace=False).tolist():
                lanes = np.sort(rng.choice(n_lanes, 40, replace=False))
                cols = (lanes[:, None] * PAIR_LANES + np.arange(PAIR_LANES)).ravel()
                cols = cols[cols < pts.size]
                for rows in (slice(row, row + 1), np.array([row])):
                    assert table.block(rows, work=work).tobytes() == dense[[row]].tobytes()
                    assert table.block(rows, cols, work=work).tobytes() == dense[[row]][:, cols].tobytes()
        single = _kernel_table(f.data, pts[:1], pts, BENCH_GRID)  # no neighbour: the row is the table
        assert single.block(np.array([0])).tobytes() == np.asarray(single).tobytes()

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
        # the two seed rows hold 0.9 under majorants |x_0| + |x_1| of 1.1,
        # which the screen keeps: their third entry, which no column sees,
        # lifts its float32 allowance far above.  Their bounds are the
        # largest, probed (three rows reach the probe's value, so the screen
        # is spared) or not (the screen alone).  The maximum's row holds 1
        # and alone reaches the seed value, so it goes to ``block`` alone,
        # which multiplies it beside a neighbour (before it at the last
        # row) and returns its own values with the dense bits
        shapes = []

        class Recorded(_PairTable):
            def block(self, rows=slice(None), cols=slice(None), work=None):
                values = super().block(rows, cols, work)
                shapes.append((np.arange(self.shape[0])[rows].tolist(), values))
                return values

        rows_a = np.tile([0.1, 0.0, 0.0 + 0j], (40, 1))
        seeds = sorted(np.delete(np.arange(40), lone)[[0, -1]])
        rows_a[seeds] = [1.0, -0.1, 1e8]
        rows_a[lone] = [1.0, 0.0, 0.0]
        rows_b = np.array([[1.0, 1.0, 0.0], [0.5, 0.5, 0.0]], dtype=complex)
        for probe in (True, False):
            shapes.clear()
            table = Recorded(rows_a, np.eye(3, dtype=complex), rows_b, probe=probe)
            dense = _PairTable.block(table)
            assert _pair_argmax(table) == ((lone, 0), 1.0)
            assert [rows for rows, _ in shapes] == [seeds, [lone]]
            assert shapes[1][1].tobytes() == dense[[lone]].tobytes()


class TestRingMajorant:
    """The ring-majorant row and entrywise bounds of ``_PairTable.bounds`` against the dense table."""

    GRIDS = reduction_grids() + [BENCH_GRID]

    @staticmethod
    def points(grid, rng, off_grid):
        """The grid's points, or 1-300 points of its disc off the grid."""
        if not off_grid:
            return grid_points(grid)
        n = int(rng.integers(1, 301))
        return grid.max_radius * rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.integers(0, 64),
        kind=st.sampled_from(["random", 1, 2, 3, "row", "repeated", "outer"]),
        scale=st.sampled_from([1e-200, 1e-30, 1.0, 1e30, 1e200]),
        grid_index=st.integers(0, 3),
        off_grid=st.booleans(),
    )
    def test_bounds_hold_and_argmax_is_dense_without_gains(self, seed, order, kind, scale, grid_index, off_grid):
        # probed (the majorant, then the screen if more than PAIR_SEEDS rows
        # reach the probe's value) and unprobed (the screen alone, or no
        # bound at all), the pick and its bits are the dense table's
        rng = np.random.default_rng(seed)
        grid = self.GRIDS[grid_index]
        a_pts, b_pts = self.points(grid, rng, off_grid), self.points(grid, rng, off_grid)
        table = _kernel_table(scale * TestPairScreen.middle(kind, seed, order), a_pts, b_pts, grid)
        dense = np.asarray(table)
        row_bound, terms = table.bounds()
        assert terms is None and np.all(dense.max(axis=1) <= row_bound)
        idx = np.unravel_index(int(np.argmax(dense)), dense.shape)
        for probe in (True, False):
            table.probe = probe
            (i, j), value = _pair_argmax(table)
            assert (i, j) == idx and np.float64(value).tobytes() == dense[idx].tobytes()
            assert table.probe is probe

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.integers(0, 64),
        n_hist=st.integers(0, 3),
        scale=st.sampled_from([1e-200, 1e-30, 1.0, 1e30, 1e200]),
        grid_index=st.integers(0, 3),
        off_grid=st.booleans(),
    )
    def test_bounds_hold_with_gains(self, seed, order, n_hist, scale, grid_index, off_grid):
        rng = np.random.default_rng(seed)
        grid = self.GRIDS[grid_index]
        a_pts, b_pts = self.points(grid, rng, off_grid), self.points(grid, rng, off_grid)
        f = scale * random_hardy_2d(seed, order)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = _product_tm_objective(f, random_history(rng, n_hist), grid)(a_pts, b_pts)
        with np.errstate(over="ignore"):
            check_gain_bounds(table, np.asarray(table), None if off_grid else grid)

    @pytest.mark.parametrize("grid_index", range(4))
    @pytest.mark.parametrize("order", [0, 16, 64])
    def test_ring_labels_put_each_point_on_its_radius(self, grid_index, order):
        grid = self.GRIDS[grid_index]
        pts = grid_points(grid)
        labels, peaks = _grid_rings(grid, order)
        assert _grid_rings(grid, order)[0] is labels and not labels.flags.writeable and not peaks.flags.writeable
        radii = np.concatenate([[0.0], grid_radii(grid)])
        assert np.all(np.diff(radii) > 0) and np.all(np.diff(labels) >= 0)
        assert labels.shape == pts.shape and np.all(np.abs(np.abs(pts) - radii[labels]) <= 1e-15)
        exact = np.sqrt(1.0 - radii**2)[:, None] * radii[:, None] ** np.arange(order + 1)
        assert peaks.shape == exact.shape and np.allclose(peaks, exact, rtol=1e-13, atol=0.0)


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
        prev = FourierCoeffs2D.zeros(ORDER)
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
        spec, coeff, _ = pga_step(f, GRID)
        assert spec.left.a == pytest.approx(a) and spec.right.a == pytest.approx(b)
        assert coeff == pytest.approx(1.0, abs=1e-9)

    def test_constant_selects_center(self):
        f = from_terms(FourierCoeffs2D, ORDER, {(0, 0): 1.0})
        spec, coeff, _ = pga_step(f, GRID)
        assert spec.left.a == 0 and spec.right.a == 0
        assert coeff == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_equivalence(self, seed):
        grid = GridSpec(radial_count=4, angular_count=6, refine_levels=0, max_radius=0.5)
        f = random_hardy_2d(seed + 20, 16)
        spec, _, _ = pga_step(f, grid)
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

    def test_step_remainder_bits(self):
        g = random_hardy_2d(41, 24)
        for probe in (True, False, False, False):
            spec, coeff, rest = pga_step(g, GRID, _probe=probe)
            assert rest.data.tobytes() == (g - coeff * tensor_atom_coeffs(spec, g.order)).data.tobytes()
            g = rest

    def test_tensor_atom_built_once_per_step(self, monkeypatch):
        calls = []

        def counting(spec, order):
            calls.append(spec)
            return tensor_atom_coeffs(spec, order)

        monkeypatch.setattr(afd2d, "tensor_atom_coeffs", counting)
        record = pga_decompose(random_hardy_2d(42, 24), 5, GRID)
        assert len(record.steps) == 5
        assert calls == [step.atom for step in record.steps]

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

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.integers(8, 39),
        radial=st.integers(1, 6),
        angular=st.integers(12, 30),
        max_radius=st.floats(0.3, 0.8),
        n_atoms=st.integers(1, 6),
        n_terms=st.integers(1, 10),
    )
    def test_rate_law(self, seed, order, radial, angular, max_radius, n_atoms, n_terms):
        # DeVore & Temlyakov (1996): the pure greedy remainder of f = sum c_k e_k, e_k dictionary atoms
        # with sum |c_k| = M, has ||g_m|| <= M (1 + m)^(-1/6).  The atoms are grid tensor atoms, the
        # dictionary of the unrefined search; P = 13..181 grid points.  300 runs of this setting met
        # it with a least bound-to-norm ratio of 2.23 at m >= 1, and 1 at m = 0 for one atom
        grid = GridSpec(radial_count=radial, angular_count=angular, refine_levels=0, max_radius=max_radius)
        pts = grid_points(grid)
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(n_atoms) + 1j * rng.standard_normal(n_atoms)
        pairs = [(pts[i], pts[j]) for i, j in rng.integers(pts.size, size=(n_atoms, 2))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = tensor_signal(list(zip(coeffs, pairs)), order)
            record = pga_decompose(f, n_terms, grid)
        M = float(np.sum(np.abs(coeffs)))
        norms = np.sqrt([record.initial_energy] + record.residual_energies())
        assert np.all(norms <= M * (1.0 + np.arange(norms.size)) ** (-1.0 / 6.0) * (1.0 + 1e-9))

    def test_reconstruction_matches_remainder(self):
        f = random_hardy_2d(40, 24)
        record = pga_decompose(f, 5, GRID)
        recon = reconstruct_pga(record, 24)
        assert (f - recon).energy() == pytest.approx(
            record.steps[-1].residual_energy, abs=1e-9
        )
