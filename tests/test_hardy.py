"""Coefficient representations, transforms, quadrant splits, grid argmax."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from afdkit import (
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    FourierCoeffs1D,
    FourierCoeffs2D,
    GridSpec,
    QuadrantParts,
    Record,
    Step,
    analytic_part,
    grid_argmax,
    grid_argmax_pairs,
    grid_points,
    msp_1d,
    inner_product_1d,
    inner_product_2d,
    next_pow2,
    quadrant_split,
    szego_coeffs,
    tensor_atom_coeffs,
    TensorAtomSpec,
    SzegoDictionary1D,
    afd2d_tm_decompose,
    afd_decompose_1d,
    pga_decompose,
    poga_decompose,
)
from afdkit.hardy import (
    _PairTable,
    _grid_kernel_norms_sq,
    _kernel_table,
    _local_candidates,
    _ring_powers,
    eval_series,
    greedy,
    kernel_rows,
    real_field_2d,
)
from conftest import (
    coeff,
    from_terms,
    full_range,
    kernel_ip,
    random_hardy_1d,
    random_real_full_1d,
    random_real_full_2d,
    real_samples,
    reference_analytic_part,
    reference_boundary_samples,
    reference_full_range,
    reference_ifft2_real_field_2d,
    reference_local_candidates,
    reference_quadrant_split,
    reference_real_field_2d,
)

KERNEL_IP_05_03 = 0.9719242142269592  # sqrt(.75) sqrt(.91) / (1 - .15)


class TestRoundTrips:
    def test_samples_1d_full(self):
        f = random_real_full_1d(1, 20)
        for size in (64, 128):
            back = analytic_part(real_samples(f, size), 20)
            assert np.max(np.abs(back.data - f[20:])) < 1e-12

    def test_samples_1d_hardy(self):
        # a Hardy signal with a real mean is the analytic part of the real signal 2 Re f - c_0
        f = random_hardy_1d(2, 33)
        want = f.data.copy()
        want[0] = want[0].real
        back = analytic_part(2.0 * f.boundary_samples(128).real - want[0].real, 33)
        assert np.max(np.abs(back.data - want)) < 1e-12

    def test_samples_2d(self):
        f = random_real_full_2d(3, 15)
        parts = quadrant_split(real_samples(f, 64), 15)
        assert np.max(np.abs(parts.pp.data - f[15:, 15:])) < 1e-12
        assert np.max(np.abs(parts.pm.data - f[15:, 15::-1])) < 1e-12

    def test_too_few_samples_rejected(self):
        with pytest.raises(DimensionMismatchError):
            analytic_part(np.zeros(40), 20)
        with pytest.raises(DimensionMismatchError):
            quadrant_split(np.zeros((40, 40)), 20)
        analytic_part(np.zeros(41), 20)
        quadrant_split(np.zeros((41, 41)), 20)

    def test_parseval(self):
        f = random_real_full_1d(4, 30)
        samples = real_samples(f, 128)
        ap = analytic_part(samples, 30)
        # |c_{-k}| = |c_k|, so the signal's energy is 2 ||f^+||^2 - |c_0|^2
        energy = 2.0 * ap.energy() - abs(coeff(ap, 0)) ** 2
        assert abs(float(np.mean(samples**2)) - energy) < 1e-10 * energy


def _reference_boundary_samples(f, size):
    """The per-dimension scatter and inverse FFT that the shared class replaced."""
    n = f.order
    if f.data.ndim == 1:
        spectrum = np.zeros(size, dtype=complex)
        spectrum[: n + 1] = f.data
        return np.fft.ifft(spectrum) * size
    spectrum = np.zeros((size, size), dtype=complex)
    spectrum[: n + 1, : n + 1] = f.data
    return np.fft.ifft2(spectrum) * size * size


COEFF_TYPES = [FourierCoeffs1D, FourierCoeffs2D]


def _random_coeffs(cls, seed, order):
    rng = np.random.default_rng(seed)
    shape = (order + 1,) * cls.ndim
    return cls(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestFftViewsBitwise:
    """The FFT views equal the per-dimension expressions bit for bit.

    Non-power-of-two sides are where the scaling differs: one ``size ** 2``
    factor rounds differently from multiplying by ``size`` once per axis.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        cls=st.sampled_from(COEFF_TYPES),
        order=st.integers(0, 24),
        extra=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    @example(cls=FourierCoeffs2D, order=16, extra=20, seed=37)  # a 37 x 37 image
    @example(cls=FourierCoeffs2D, order=16, extra=53, seed=70)  # a 70 x 70 image
    def test_boundary_samples(self, cls, order, extra, seed):
        f = _random_coeffs(cls, seed, order)
        size = f.data.shape[0] + extra
        got = f.boundary_samples(size)
        assert np.array_equal(got, _reference_boundary_samples(f, size))

    @settings(max_examples=80, deadline=None)
    @given(
        ndim=st.sampled_from([1, 2]),
        order=st.integers(1, 70),
        extra=st.integers(0, 39),
        seed=st.integers(0, 2**16),
        pixels=st.booleans(),
    )
    @example(ndim=1, order=256, extra=511, seed=4, pixels=False)  # a bench signal, 1,024 samples
    @example(ndim=2, order=64, extra=127, seed=5, pixels=True)  # a bench image, 256 x 256
    @example(ndim=2, order=64, extra=0, seed=6, pixels=True)  # an odd side, 129
    def test_from_samples(self, ndim, order, extra, seed, pixels):
        # the Hardy parts from samples have the bits of the full-range transform,
        # one ``np.fft.fftn`` kept at -N..N, then split; the 2-d transform takes
        # its second pass over the kept columns only, odd sides included
        rng = np.random.default_rng(seed)
        shape = (2 * order + 1 + extra,) * ndim
        samples = rng.integers(0, 256, shape) / 255.0 if pixels else rng.standard_normal(shape)  # pixels as ingested
        if ndim == 1:
            assert same_bits(analytic_part(samples, order).data, reference_analytic_part(samples, order).data)
            return
        got, want = quadrant_split(samples, order), reference_quadrant_split(samples, order)
        for name in ("pp", "pm", "F", "G"):
            assert same_bits(getattr(got, name).data, getattr(want, name).data)
        assert same_bits(np.array(got.c00), np.array(want.c00))


@pytest.mark.parametrize("cls", COEFF_TYPES, ids=["1d", "2d"])
class TestSharedSurface:
    def test_constructor_rejects_wrong_ndim(self, cls):
        with pytest.raises(DimensionMismatchError):
            cls(np.zeros((3,) * (cls.ndim + 1)))
        with pytest.raises(DimensionMismatchError):
            cls(np.zeros((0,) * cls.ndim))

    def test_mixed_dimensions_do_not_add(self, cls):
        other = COEFF_TYPES[2 - cls.ndim]
        with pytest.raises(TypeError):
            cls.zeros(3) + other.zeros(3)
        with pytest.raises(TypeError):
            cls.zeros(3) - np.zeros((4,) * cls.ndim)

    def test_repr_names_the_subclass(self, cls):
        assert repr(cls.zeros(2)) == "%s(order=2)" % cls.__name__
        assert type(2.0 * cls.zeros(2)) is cls


def test_non_square_2d_rejected():
    with pytest.raises(DimensionMismatchError):
        FourierCoeffs2D(np.zeros((3, 5)))
    with pytest.raises(DimensionMismatchError):
        quadrant_split(np.zeros((9, 10)), 2)
    with pytest.raises(DimensionMismatchError):
        analytic_part(np.zeros((9, 9)), 2)


class TestInnerProducts:
    def test_orthonormal_monomial(self):
        f = from_terms(FourierCoeffs1D, 8, {1: 1.0})
        assert inner_product_1d(f, f) == pytest.approx(1.0)

    def test_distinct_frequencies(self):
        one = from_terms(FourierCoeffs1D, 8, {0: 1.0})
        z = from_terms(FourierCoeffs1D, 8, {1: 1.0})
        assert inner_product_1d(one, z) == 0

    def test_kernel_pair_closed_form(self):
        ip = inner_product_1d(szego_coeffs(0.5, 256), szego_coeffs(0.3, 256))
        assert ip == pytest.approx(KERNEL_IP_05_03, abs=1e-12)
        assert ip == pytest.approx(kernel_ip(0.5, 0.3), abs=1e-12)

    def test_order_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product_1d(szego_coeffs(0.1, 8), szego_coeffs(0.1, 9))

    def test_2d_monomial(self):
        e00 = from_terms(FourierCoeffs2D, 4, {(0, 0): 1.0})
        assert inner_product_2d(e00, e00) == pytest.approx(1.0)

    def test_2d_disjoint(self):
        zt = from_terms(FourierCoeffs2D, 4, {(1, 0): 1.0})
        zs = from_terms(FourierCoeffs2D, 4, {(0, 1): 1.0})
        assert inner_product_2d(zt, zs) == 0

    def test_2d_tensor_factorization(self):
        f = tensor_atom_coeffs(TensorAtomSpec.of(0.5, 0.5), 256)
        g = tensor_atom_coeffs(TensorAtomSpec.of(0.3, 0.3), 256)
        assert inner_product_2d(f, g) == pytest.approx(KERNEL_IP_05_03**2, abs=1e-10)


def hilbert_transform(samples, order):
    """Hilbert transform of real samples through their analytic part.

    ``analytic_part`` realizes (f + iHf)/2 + c_0/2 with c_0 real, so Hf = 2 Im f^+.
    """
    return 2.0 * analytic_part(samples, order).boundary_samples(samples.size).imag


# cos t and sin t on the smallest power-of-two grid for order 2, where every FFT is exact
COS = real_samples(full_range(1, 2, {1: 0.5, -1: 0.5}), 8)
SIN = real_samples(full_range(1, 2, {1: -0.5j, -1: 0.5j}), 8)


class TestHilbert:
    """The analytic part against the Fourier multiplier -i sgn(k) of the Hilbert transform."""

    def test_cos_to_sin(self):
        assert np.allclose(hilbert_transform(COS, 2), SIN)

    def test_constant_to_zero(self):
        assert np.all(hilbert_transform(np.ones(8), 2) == 0)

    def test_sin_to_minus_cos(self):
        assert np.allclose(hilbert_transform(SIN, 2), -COS)

    @pytest.mark.parametrize("seed", range(4))
    def test_double_transform_removes_mean(self, seed):
        f = random_real_full_1d(seed, 24)
        samples = real_samples(f, 64)
        hh = hilbert_transform(hilbert_transform(samples, 24), 24)
        assert np.max(np.abs(hh + (samples - f[24].real))) < 1e-10


class TestAnalyticPart:
    def test_cos(self):
        ap = analytic_part(COS, 2)
        assert coeff(ap, 0) == 0 and coeff(ap, 1) == pytest.approx(0.5)

    def test_constant(self):
        ap = analytic_part(np.ones(8), 2)
        assert coeff(ap, 0) == pytest.approx(1.0) and ap.energy() == pytest.approx(1.0)

    def test_linearity(self):
        ap = analytic_part(3.0 + 2.0 * COS, 2)
        assert coeff(ap, 0) == pytest.approx(3.0) and coeff(ap, 1) == pytest.approx(1.0)

    def test_non_real_rejected(self):
        samples = np.exp(2j * np.pi * np.arange(8) / 8)  # e^{it}: no Hermitian partner, so complex samples
        with pytest.raises(DomainError):
            analytic_part(samples, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction_identity(self, seed):
        f = random_real_full_1d(seed, 30)
        samples = real_samples(f, 128)
        ap = analytic_part(samples, 30)
        recon = 2.0 * ap.boundary_samples(128).real - coeff(ap, 0).real
        assert np.max(np.abs(recon - samples)) < 1e-10


def _torus_samples(terms, order=2, size=8):
    """Samples of a real signal on the 2-torus from its ``full_range`` terms; on this grid every FFT is exact."""
    return real_samples(full_range(2, order, terms), size)


class TestQuadrantSplit:
    def test_cos_t_plus_s(self):
        parts = quadrant_split(_torus_samples({(1, 1): 0.5, (-1, -1): 0.5}), 2)
        assert coeff(parts.pp, 1, 1) == pytest.approx(0.5)
        assert coeff(parts.pm, 1, 1) == 0  # c_{1,-1}
        assert parts.pp.energy() == pytest.approx(0.25) and parts.pm.energy() == 0
        assert parts.F.energy() == 0 and parts.G.energy() == 0

    def test_constant(self):
        parts = quadrant_split(np.ones((8, 8)), 2)
        for block in (parts.pp, parts.pm):
            assert coeff(block, 0, 0) == pytest.approx(1.0)
        assert parts.c00 == pytest.approx(1.0)
        assert coeff(parts.F, 0) == pytest.approx(1.0) and coeff(parts.G, 0) == pytest.approx(1.0)

    def test_axis_coefficients_in_adjacent_quadrants(self):
        parts = quadrant_split(_torus_samples({(1, 0): 0.5, (-1, 0): 0.5}), 2)  # cos t
        assert coeff(parts.pp, 1, 0) == pytest.approx(0.5)
        assert coeff(parts.pm, 1, 0) == pytest.approx(0.5)
        assert coeff(parts.F, 1) == pytest.approx(0.5)
        assert parts.G.energy() == 0

    def test_symmetry_violation_rejected(self):
        t = 2.0 * np.pi * np.arange(8) / 8
        samples = np.exp(1j * np.add.outer(t, t))  # e^{i(t+s)}: no Hermitian partner, so complex samples
        with pytest.raises(DomainError):
            quadrant_split(samples, 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_are_spectrum_slices(self, seed):
        n = 10
        samples = real_samples(random_real_full_2d(seed, n), 32)
        f = reference_full_range(samples, n)  # c_{k,l} at [k + n, l + n]
        parts = quadrant_split(samples, n)
        assert all(p.order == n for p in (parts.pp, parts.pm, parts.F, parts.G))
        for k in range(n + 1):
            assert coeff(parts.F, k) == f[k + n, n] and coeff(parts.G, k) == f[n, k + n]
            for l in range(n + 1):
                assert coeff(parts.pp, k, l) == f[k + n, l + n]
                assert coeff(parts.pm, k, l) == f[k + n, n - l]
        assert parts.c00 == f[n, n]

    @pytest.mark.parametrize("seed", range(3))
    def test_conjugate_reflection(self, seed):
        """The other two quadrants are the conjugate reflections of ``pp`` and ``pm``."""
        n = 8
        f = random_real_full_2d(seed, n)
        parts = quadrant_split(real_samples(f, 32), n)
        assert np.allclose(f[n::-1, n::-1], np.conj(parts.pp.data))  # c_{-k,-l}
        assert np.allclose(f[n::-1, n:], np.conj(parts.pm.data))  # c_{-k,l}


class TestRealReconstruct2D:
    def test_cos_t_plus_s(self):
        samples = _torus_samples({(1, 1): 0.5, (-1, -1): 0.5}, 4, 32)
        recon = real_field_2d(quadrant_split(samples, 4), 32)
        assert np.max(np.abs(recon - samples)) < 1e-10

    def test_constant(self):
        recon = real_field_2d(quadrant_split(np.ones((16, 16)), 4), 16)
        assert np.allclose(recon, 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_bandlimited(self, seed):
        samples = real_samples(random_real_full_2d(seed, 16), 64)
        recon = real_field_2d(quadrant_split(samples, 16), 64)
        assert np.max(np.abs(recon - samples)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(0, 40), side_pick=st.integers(0, 2**16), seed=st.integers(0, 2**16))
    @example(order=24, side_pick=0, seed=3)  # the smallest side, 49
    @example(order=24, side_pick=200, seed=3)  # a side that is not a power of two
    @example(order=40, side_pick=2**16, seed=5)  # twice the power of two
    def test_round_trip(self, order, side_pick, seed):
        """``real_field_2d`` inverts ``quadrant_split`` on every side from 2N+1 to 2 next_pow2(2N+2).

        The tolerance is 1e-14 times the coefficient 1-norm, which bounds
        every sample; the largest error over 2,000 random draws was 3.7e-16 of it.
        """
        low, high = 2 * order + 1, 2 * next_pow2(2 * order + 2)
        side = low + side_pick % (high - low + 1)
        f = random_real_full_2d(seed, order)
        want = real_samples(f, side)
        got = real_field_2d(quadrant_split(want, order), side)
        assert got.shape == (side, side)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(f))


def random_field_parts(seed, orders):
    """Random ``QuadrantParts`` with blocks of the given orders (pp, pm, F, G) and a real mean."""
    rng = np.random.default_rng(seed)

    def part(cls, order):
        shape = (order + 1,) * cls.ndim
        return cls(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    classes = (FourierCoeffs2D, FourierCoeffs2D, FourierCoeffs1D, FourierCoeffs1D)
    blocks = [part(cls, n) for cls, n in zip(classes, orders)]
    return QuadrantParts(*blocks, c00=complex(rng.standard_normal()))


@st.composite
def order_and_side(draw):
    """An order and a grid side from the smallest admissible to twice the usual power of two."""
    order = draw(st.integers(0, 70))
    return order, draw(st.integers(order + 1, 2 * next_pow2(2 * order + 2)))


class TestRealField2DOracle:
    """One shared spectrum and inverse FFT against one transform per part."""

    @settings(max_examples=60, deadline=None)
    @given(case=order_and_side(), seed=st.integers(0, 2**16))
    @example(case=(24, 37), seed=3)  # a side that is not a power of two
    def test_matches_per_part_transforms(self, case, seed):
        order, side = case
        parts = random_field_parts(seed, (order,) * 4)
        got = real_field_2d(parts, side)
        want = reference_real_field_2d(parts, side)
        blocks = (parts.pp, parts.pm, parts.F, parts.G)
        scale = 2.0 * sum(np.sum(np.abs(p.data)) for p in blocks) + abs(parts.c00)
        assert got.shape == (side, side)
        assert np.max(np.abs(got - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("small", range(4))
    def test_side_below_any_part_rejected(self, small):
        orders = [5] * 4
        orders[small] = 9
        parts = random_field_parts(small, orders)
        reference_real_field_2d(parts, 10)
        with pytest.raises(DimensionMismatchError):
            real_field_2d(parts, 9)
        with pytest.raises(DimensionMismatchError):
            reference_real_field_2d(parts, 9)


@st.composite
def mixed_orders_and_side(draw):
    """Four part orders drawn apart, and a side from the smallest admissible to twice the usual power of two."""
    orders = draw(st.lists(st.integers(0, 70), min_size=4, max_size=4))
    top = max(orders)
    return orders, draw(st.integers(top + 1, 2 * next_pow2(2 * top + 2)))


def same_bits(a, b):
    """Equal shapes, dtypes and bytes, so signed zeros count too."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestInverseTransformBits:
    """The row-pruned inverse FFT has the bits of ``np.fft.ifftn`` over every row."""

    @settings(max_examples=80, deadline=None)
    @given(case=mixed_orders_and_side(), seed=st.integers(0, 2**16))
    @example(case=([64, 64, 64, 64], 256), seed=0)  # the bench's reconstruct size
    @example(case=([64, 64, 64, 64], 130), seed=1)  # where norm="forward" rounds differently
    @example(case=([3, 5, 70, 2], 71), seed=2)  # F sets the rows, at the smallest side
    @example(case=([3, 0, 1, 70], 97), seed=3)  # G spans its row alone
    @example(case=([0, 0, 0, 0], 1), seed=4)
    def test_real_field_2d_matches_ifft2(self, case, seed):
        orders, side = case
        parts = random_field_parts(seed, orders)
        assert same_bits(real_field_2d(parts, side), reference_ifft2_real_field_2d(parts, side))

    @settings(max_examples=80, deadline=None)
    @given(
        order=st.integers(0, 100),
        ndim=st.sampled_from([1, 2]),
        extra=st.integers(0, 300),
        seed=st.integers(0, 2**16),
    )
    @example(order=64, ndim=2, extra=127, seed=0)  # side 192, neither odd nor a power of two
    @example(order=64, ndim=2, extra=191, seed=1)  # side 256
    @example(order=10, ndim=2, extra=0, seed=2)  # side 11: every row kept
    @example(order=0, ndim=2, extra=0, seed=3)
    def test_boundary_samples_match_ifftn(self, order, ndim, extra, seed):
        rng = np.random.default_rng(seed)
        shape = (order + 1,) * ndim
        cls = FourierCoeffs2D if ndim == 2 else FourierCoeffs1D
        f = cls(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        side = shape[0] + extra
        assert same_bits(f.boundary_samples(side), reference_boundary_samples(f, side))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(radial_count=0)
        with pytest.raises(ConfigError):
            GridSpec(max_radius=1.0)
        with pytest.raises(ConfigError):
            GridSpec(refine_levels=-1)

    def test_points_inside_disc(self):
        spec = GridSpec(radial_count=12, angular_count=16, max_radius=0.95)
        pts = grid_points(spec)
        assert pts[0] == 0
        assert np.max(np.abs(pts)) <= 0.95 + 1e-15

    def test_order_is_lexicographic(self):
        spec = GridSpec(radial_count=4, angular_count=4, max_radius=0.9)
        pts = grid_points(spec)
        keys = [(round(abs(p), 14), round(float(np.angle(p)) % (2 * np.pi), 14)) for p in pts]
        assert keys == sorted(keys)


class TestGridArgmax:
    def test_known_maximum(self):
        # radii for radial_count=2 are {R/2, R}; R = 1/sqrt(2) puts the true
        # maximizer of (1-r^2) r^2 exactly on the grid
        spec = GridSpec(radial_count=2, angular_count=4, refine_levels=0, max_radius=2**-0.5)
        pt, val = grid_argmax(lambda p: (1 - np.abs(p) ** 2) * np.abs(p) ** 2, spec)
        assert abs(pt) == pytest.approx(2**-0.5, abs=1e-15)
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_constant_objective_tie_break(self):
        spec = GridSpec(radial_count=4, angular_count=8, refine_levels=1, max_radius=0.9)
        pt, _ = grid_argmax(lambda p: np.ones_like(p, dtype=float), spec)
        assert pt == 0  # first grid point in (radius, angle) order

    def test_on_grid_atom_recovery(self):
        spec = GridSpec(radial_count=8, angular_count=16, refine_levels=0, max_radius=0.8)
        target = complex(grid_points(spec)[37])
        atom = szego_coeffs(target, 64)

        def objective(pts):
            vals = np.polynomial.polynomial.polyval(pts, atom.data)
            return (1 - np.abs(pts) ** 2) * np.abs(vals) ** 2

        pt, _ = grid_argmax(objective, spec)
        assert pt == pytest.approx(target, abs=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_equivalence(self, seed):
        from conftest import exhaustive_argmax

        spec = GridSpec(radial_count=6, angular_count=9, refine_levels=0, max_radius=0.85)
        rngl = np.random.default_rng(seed)
        c = rngl.standard_normal(9) + 1j * rngl.standard_normal(9)

        def objective(pts):
            return np.abs(np.polynomial.polynomial.polyval(np.asarray(pts), c)) ** 2

        got = grid_argmax(objective, spec)
        want = exhaustive_argmax(objective, spec)
        assert got[0] == want[0] and got[1] == pytest.approx(want[1], rel=1e-12)

    def test_scalar_objective_rejected(self):
        spec = GridSpec(radial_count=3, angular_count=4, refine_levels=0, max_radius=0.5)
        with pytest.raises(ConfigError):
            grid_argmax(lambda p: float(np.max(np.abs(p))), spec)
        with pytest.raises(ConfigError):
            grid_argmax_pairs(lambda pa, pb: np.abs(pa), spec)

    def test_failing_objective_propagates(self):
        spec = GridSpec(radial_count=3, angular_count=4, refine_levels=1, max_radius=0.5)
        calls = []

        def objective(p):
            calls.append(p)
            return 1.0 / 0

        with pytest.raises(ZeroDivisionError):
            grid_argmax(objective, spec)
        assert len(calls) == 1

    def test_refinement_improves(self):
        spec0 = GridSpec(radial_count=6, angular_count=8, refine_levels=0, max_radius=0.9)
        spec2 = GridSpec(radial_count=6, angular_count=8, refine_levels=2, max_radius=0.9)
        target = 0.31 + 0.22j

        def objective(pts):
            return -np.abs(np.asarray(pts) - target) ** 2 + 1.0

        _, v0 = grid_argmax(objective, spec0)
        _, v2 = grid_argmax(objective, spec2)
        assert v2 >= v0

    def test_rim_maximiser_has_a_single_candidate(self):
        # rim points whose modulus rounds one ulp below max_radius used to get
        # a second, clamped copy of themselves in the refinement neighbourhood
        spec = GridSpec(radial_count=6, angular_count=9, refine_levels=1, max_radius=0.85)
        step_r, step_t = spec.max_radius / 12, np.pi / 9
        rim = grid_points(spec)[-spec.angular_count :]
        assert any(abs(p) < spec.max_radius for p in rim)
        for center in rim:
            cands, own = _local_candidates(complex(center), step_r, step_t, spec.max_radius)
            assert abs(cands[own] - center) < 1e-15
            gaps = np.abs(cands[:, None] - cands[None, :]) + np.eye(cands.size)
            assert np.min(gaps) > 1e-6
            assert np.sum(np.abs(cands) > spec.max_radius - 1e-12) == 5

    def test_refinement_over_flat_neighbourhood_stays(self):
        spec = GridSpec(radial_count=6, angular_count=9, refine_levels=2, max_radius=0.85)
        pts = grid_points(spec)

        def objective(p):
            return np.where(np.abs(np.asarray(p)) > 0.5, 1.0, 0.0)

        pt, val = grid_argmax(objective, spec)
        assert pt == complex(pts[np.argmax(objective(pts))]) and val == 1.0
        a, b, val = grid_argmax_pairs(
            lambda pa, pb: objective(pa)[:, None] * objective(pb)[None, :], spec
        )
        assert a == b == pt and val == 1.0


TWO_PI = 2.0 * np.pi


@st.composite
def stencil_cases(draw):
    """(center, step_r, step_t, max_radius) of a refinement level 1 to 3 of a random grid."""
    max_radius = draw(st.floats(0.05, 0.999))
    level = draw(st.integers(1, 3))
    step_r = max_radius / draw(st.integers(1, 64)) / 2.0**level
    step_t = TWO_PI / draw(st.integers(1, 128)) / 2.0**level
    kind = draw(st.sampled_from(["rim", "center", "near-center", "near-2pi", "any"]))
    if kind == "rim":
        radius = max_radius - draw(st.floats(-2e-12, 2e-12))
    elif kind == "near-center":
        radius = draw(st.floats(0.0, 3.0 * step_r))
    else:
        radius = draw(st.floats(0.0, max_radius))
    if kind == "near-2pi":
        angle = -draw(st.one_of(st.floats(0.0, 1e-15), st.floats(0.0, 2.0 * step_t)))
    else:
        angle = draw(st.floats(-np.pi, np.pi))
    center = 0j if kind == "center" else complex(radius * np.exp(1j * angle))
    return center, step_r, step_t, max_radius


class TestLocalCandidatesOracle:
    """The stencil against the set of (r, t) tuples it was built from, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(case=stencil_cases())
    @example(case=(0j, 0.01, 0.03, 0.9))
    @example(case=(complex(0.9 * np.exp(0.7j)), 0.9 / 48 / 2, TWO_PI / 96 / 2, 0.9))
    @example(case=(complex((0.9 - 5e-13) * np.exp(2.0j)), 0.9 / 48 / 8, TWO_PI / 96 / 8, 0.9))
    @example(case=(complex(0.5 * np.exp(-1e-3j)), 0.01, 1e-3 / 2, 0.95))
    @example(case=(5e-324 + 0j, 0.25, np.pi / 2, 0.5))
    @example(case=(0.5000000000012875 - 1.4068967677034975e-39j, 0.25, np.pi, 0.5))
    def test_matches_the_set_form(self, case):
        cands, own = _local_candidates(*case)
        try:
            want, want_own = reference_local_candidates(*case)
        except ValueError:
            # the set form loses the center of an angle that rounds to 2 pi
            # mod 2 pi; the center then keeps its own entry at angle 0 (and
            # on the rim, its snapped radius, which may lie any distance
            # inside an |center| past max_radius)
            center, max_radius = case[0], case[3]
            assert float(np.angle(center)) % TWO_PI == TWO_PI
            radius = max_radius if max_radius - abs(center) <= 1e-12 else abs(center)
            assert cands[own] == radius
            return
        assert cands.tobytes() == want.tobytes()
        assert own == want_own and isinstance(own, int)

    def test_angle_rounding_to_2pi_keeps_its_center(self):
        center = complex(0.5 * np.exp(-1e-16j))
        cands, own = _local_candidates(center, 0.01, 0.03, 0.9)
        assert cands[own] == 0.5 and cands.size == 25
        with pytest.raises(ValueError):
            reference_local_candidates(center, 0.01, 0.03, 0.9)


# eval_series against Horner summation: an absolute error of at most
# SERIES_RTOL times sum |c_k| r^k, the bound of |f| on the disc of radius r.
SERIES_RTOL = 1e-12

grid_specs = st.builds(
    GridSpec,
    radial_count=st.integers(1, 12),
    angular_count=st.integers(1, 400),
    refine_levels=st.integers(0, 2),
    max_radius=st.floats(0.01, 0.995),
)


def _random_series(seed, order):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)


def _series_scale(c, radius):
    return float(np.sum(np.abs(c) * radius ** np.arange(c.size)))


class TestEvalSeries:
    @settings(max_examples=60, deadline=None)
    @given(spec=grid_specs, order=st.integers(0, 300), seed=st.integers(0, 2**16))
    def test_grid_table_matches_polyval(self, spec, order, seed):
        c = _random_series(seed, order)
        pts = grid_points(spec)
        got = eval_series(c, pts, spec)
        want = np.polynomial.polynomial.polyval(pts, c)
        assert got.shape == pts.shape
        atol = SERIES_RTOL * _series_scale(c, spec.max_radius)
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    @pytest.mark.parametrize("order, angular", [(256, 96), (16, 96), (95, 96), (96, 96), (0, 1), (7, 1)])
    def test_fold_around_the_period(self, order, angular):
        spec = GridSpec(radial_count=5, angular_count=angular, max_radius=0.995)
        c = _random_series(order, order)
        pts = grid_points(spec)
        atol = SERIES_RTOL * _series_scale(c, spec.max_radius)
        np.testing.assert_allclose(
            eval_series(c, pts, spec), np.polynomial.polynomial.polyval(pts, c), rtol=0, atol=atol
        )

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(0, 300),
        seed=st.integers(0, 2**16),
        radii=st.lists(st.floats(0.0, 0.995), min_size=1, max_size=30),
        angle=st.floats(0.0, 2 * np.pi),
        spec=grid_specs,
    )
    def test_off_grid_points_match_polyval(self, order, seed, radii, angle, spec):
        c = _random_series(seed, order)
        pts = np.asarray(radii) * np.exp(1j * (angle + np.arange(len(radii))))
        want = np.polynomial.polynomial.polyval(pts, c)
        atol = SERIES_RTOL * _series_scale(c, max(radii))
        for got in (eval_series(c, pts), eval_series(c, pts, spec)):
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        np.testing.assert_allclose(eval_series(c, pts.reshape(1, -1)), want.reshape(1, -1), rtol=0, atol=atol)
        assert eval_series(c, complex(pts[0])) == pytest.approx(complex(want[0]), abs=atol)

    @settings(max_examples=30, deadline=None)
    @given(spec=grid_specs, order=st.integers(0, 300), seed=st.integers(0, 2**16))
    def test_msp_argmax_matches_polyval(self, spec, order, seed):
        f = FourierCoeffs1D(_random_series(seed, order))
        gaps = []

        def oracle(pts):
            pts = np.asarray(pts)
            vals = (1.0 - np.abs(pts) ** 2) * np.abs(np.polynomial.polynomial.polyval(pts, f.data)) ** 2
            top = np.sort(vals)[-2:]
            gaps.append((top[-1] - top[0]) / top[-1] if top.size == 2 else np.inf)
            return vals

        want = grid_argmax(oracle, spec)
        # every reduction (the coarse grid and each refinement level) is decided
        assume(min(gaps) > 1e-9)
        got = msp_1d(f, spec)
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], rel=1e-9)

    def test_tables_are_cached_read_only(self):
        spec = GridSpec(radial_count=4, angular_count=10, max_radius=0.9)
        pts = grid_points(spec)
        table = _ring_powers(spec, 25)
        assert grid_points(GridSpec(radial_count=4, angular_count=10, max_radius=0.9)) is pts
        assert _ring_powers(spec, 25) is table and _ring_powers(spec, 26) is not table
        assert table.shape == (4, 30)
        assert kernel_rows(pts.copy(), 25, spec) is kernel_rows(pts, 25, spec)
        for cached in (pts, table, kernel_rows(pts, 25, spec)):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0

    def test_kernel_norms_are_cached_read_only(self):
        spec = GridSpec(radial_count=4, angular_count=10, max_radius=0.9)
        pts = grid_points(spec)
        norms = _grid_kernel_norms_sq(spec, 25)
        assert _grid_kernel_norms_sq(spec, 25) is norms
        assert norms.tobytes() == np.sum(np.abs(kernel_rows(pts.copy(), 25)) ** 2, axis=1).tobytes()
        assert not norms.flags.writeable
        with pytest.raises(ValueError):
            norms[0] = 0
        middle = np.eye(26, dtype=complex)
        assert all(cached is norms for cached in _kernel_table(middle, pts.copy(), pts, spec).norms_sq)
        # off the grid (the refinement tables) no norms are summed; the
        # screen sums the columns' own, with the bits of the given ones
        off_grid = pts[3:9] * 0.5
        for a_pts, b_pts in ((off_grid, pts), (pts, off_grid)):
            table = _kernel_table(middle, a_pts, b_pts, spec)
            assert table.norms_sq is None
            given = _PairTable(kernel_rows(a_pts, 25, spec), middle, table.rows_b,
                               norms_sq=tuple(np.sum(np.abs(kernel_rows(p, 25)) ** 2, axis=1) for p in (a_pts, b_pts)))
            assert [np.asarray(x).tobytes() for x in table.heads()[:4]] == [np.asarray(x).tobytes() for x in given.heads()[:4]]

    def test_kernel_rows_give_szego_inner_products(self):
        spec = GridSpec(radial_count=3, angular_count=5, max_radius=0.8)
        g = random_hardy_1d(4, 60)
        pts = grid_points(spec)
        rows = kernel_rows(pts, 60, spec)
        assert rows.tobytes() == kernel_rows(pts.copy(), 60).tobytes()
        want = [inner_product_1d(g, szego_coeffs(a, 60)) for a in pts]
        np.testing.assert_allclose(rows @ g.data, want, rtol=1e-12)

    def test_result_does_not_alias_the_cache(self):
        spec = GridSpec(radial_count=3, angular_count=4, max_radius=0.8)
        c = _random_series(0, 6)
        pts = grid_points(spec)
        first = eval_series(c, pts, spec)
        first[:] = 0
        assert np.all(eval_series(c, pts, spec)[1:] != 0)


GREEDY_GRID = GridSpec(radial_count=4, angular_count=8, refine_levels=0, max_radius=0.6)
GREEDY_ORDER = 8

# Each decomposition as (its run on GREEDY_GRID, the dimension of its input).
DECOMPOSITIONS = {
    "afd1d": (lambda f, n, t: afd_decompose_1d(f, n, GREEDY_GRID, threshold=t), 1),
    "afd2d-tm": (lambda f, n, t: afd2d_tm_decompose(f, n, GREEDY_GRID, threshold=t), 2),
    "pga2d": (lambda f, n, t: pga_decompose(f, n, GREEDY_GRID, threshold=t), 2),
    "poga1d": (lambda f, n, t: poga_decompose(f, n, SzegoDictionary1D(GREEDY_ORDER, GREEDY_GRID), threshold=t), 1),
}


class TestGreedy:
    """The contract ``hardy.greedy`` gives every decomposition."""

    @staticmethod
    def signal(ndim, zero=False):
        if ndim == 1:
            f = szego_coeffs(0.2 - 0.1j, GREEDY_ORDER)
        else:
            f = tensor_atom_coeffs(TensorAtomSpec.of(0.2, -0.1j), GREEDY_ORDER)
        return f * 0.0 if zero else f

    @pytest.mark.parametrize("algorithm", DECOMPOSITIONS)
    def test_contract(self, algorithm):
        run, ndim = DECOMPOSITIONS[algorithm]
        f = self.signal(ndim)
        with pytest.raises(DomainError, match="n_terms must be at least 1"):
            run(f, 0, 1e-12)
        with pytest.raises(DegenerateInputError, match="zero energy"):
            run(self.signal(ndim, zero=True), 3, 1e-12)
        record = run(f, 3, 1.0)
        assert record.steps == []
        assert record.initial_energy == pytest.approx(f.energy(), rel=1e-14)

    def test_stops_on_the_last_residual(self):
        residuals = iter([0.5, 1e-3, 1e-6])
        step = lambda: Step(a=0j, coeff=0j, residual_energy=next(residuals))
        record = greedy(Record(initial_energy=1.0), 5, 1e-2, step)
        assert [s.residual_energy for s in record.steps] == [0.5, 1e-3]

    def test_takes_at_most_n_terms(self):
        record = greedy(Record(initial_energy=1.0), 2, 0.0, lambda: Step(a=0j, coeff=0j, residual_energy=0.5))
        assert len(record.steps) == 2
