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
    kernel_ip,
    random_hardy_1d,
    random_real_full_1d,
    random_real_full_2d,
    reference_local_candidates,
    reference_real_field_2d,
)

KERNEL_IP_05_03 = 0.9719242142269592  # sqrt(.75) sqrt(.91) / (1 - .15)


class TestRoundTrips:
    def test_samples_1d_full(self):
        f = random_real_full_1d(1, 20)
        for size in (64, 128):
            back = FourierCoeffs1D.from_samples(f.boundary_samples(size), 20, hardy=False)
            assert np.max(np.abs(back.data - f.data)) < 1e-12

    def test_samples_1d_hardy(self):
        f = random_hardy_1d(2, 33)
        back = FourierCoeffs1D.from_samples(f.boundary_samples(128), 33, hardy=True)
        assert np.max(np.abs(back.data - f.data)) < 1e-12

    def test_samples_2d(self):
        f = random_real_full_2d(3, 15)
        back = FourierCoeffs2D.from_samples(f.boundary_samples(64), 15, hardy=False)
        assert np.max(np.abs(back.data - f.data)) < 1e-12

    def test_too_few_samples_rejected(self):
        with pytest.raises(DimensionMismatchError):
            FourierCoeffs1D.from_samples(np.zeros(16), 20)

    def test_parseval(self):
        f = random_real_full_1d(4, 30)
        grid_energy = float(np.mean(np.abs(f.boundary_samples(128)) ** 2))
        assert abs(grid_energy - f.energy()) < 1e-10 * f.energy()


def _reference_boundary_samples(f, size):
    """The per-dimension scatter and inverse FFT that the shared class replaced."""
    n = f.order
    if f.data.ndim == 1:
        spectrum = np.zeros(size, dtype=complex)
        if f.hardy:
            spectrum[: n + 1] = f.data
        else:
            spectrum[: n + 1] = f.data[n:]
            spectrum[size - n :] = f.data[:n]
        return np.fft.ifft(spectrum) * size
    spectrum = np.zeros((size, size), dtype=complex)
    if f.hardy:
        spectrum[: n + 1, : n + 1] = f.data
    else:
        idx = np.r_[n : 2 * n + 1, 0:n]
        rows = np.r_[0 : n + 1, size - n : size]
        spectrum[np.ix_(rows, rows)] = f.data[idx][:, idx]
    return np.fft.ifft2(spectrum) * size * size


def _reference_from_samples(samples, order, hardy):
    size = samples.shape[0]
    if samples.ndim == 1:
        spectrum = np.fft.fft(samples) / size
        if hardy:
            return spectrum[: order + 1]
        return np.concatenate([spectrum[size - order :], spectrum[: order + 1]])
    spectrum = np.fft.fft2(samples) / (size * size)
    if hardy:
        return spectrum[: order + 1, : order + 1]
    idx = np.r_[size - order : size, 0 : order + 1]
    return spectrum[np.ix_(idx, idx)]


COEFF_TYPES = [FourierCoeffs1D, FourierCoeffs2D]


def _random_coeffs(cls, seed, order, hardy):
    rng = np.random.default_rng(seed)
    shape = (order + 1 if hardy else 2 * order + 1,) * cls.ndim
    return cls(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), hardy=hardy)


class TestFftViewsBitwise:
    """The FFT views equal the per-dimension expressions bit for bit.

    Non-power-of-two sides are where the scaling differs: one ``size ** 2``
    factor rounds differently from multiplying by ``size`` once per axis.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        cls=st.sampled_from(COEFF_TYPES),
        order=st.integers(0, 24),
        hardy=st.booleans(),
        extra=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    @example(cls=FourierCoeffs2D, order=16, hardy=True, extra=20, seed=37)  # a 37 x 37 image
    @example(cls=FourierCoeffs2D, order=16, hardy=True, extra=53, seed=70)  # a 70 x 70 image
    def test_boundary_samples(self, cls, order, hardy, extra, seed):
        f = _random_coeffs(cls, seed, order, hardy)
        size = f.data.shape[0] + extra
        got = f.boundary_samples(size)
        assert np.array_equal(got, _reference_boundary_samples(f, size))

    @settings(max_examples=80, deadline=None)
    @given(
        cls=st.sampled_from(COEFF_TYPES),
        order=st.integers(0, 24),
        hardy=st.booleans(),
        extra=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    def test_from_samples(self, cls, order, hardy, extra, seed):
        rng = np.random.default_rng(seed)
        size = 2 * order + 1 + extra
        samples = rng.standard_normal((size,) * cls.ndim)
        got = cls.from_samples(samples, order, hardy=hardy)
        assert got.hardy is hardy
        assert np.array_equal(got.data, _reference_from_samples(samples, order, hardy))


@pytest.mark.parametrize("cls", COEFF_TYPES, ids=["1d", "2d"])
class TestSharedSurface:
    def test_constructor_rejects_wrong_ndim(self, cls):
        with pytest.raises(DimensionMismatchError):
            cls(np.zeros((3,) * (cls.ndim + 1)))
        with pytest.raises(DimensionMismatchError):
            cls(np.zeros((0,) * cls.ndim), hardy=True)

    def test_constructor_rejects_even_full_side(self, cls):
        with pytest.raises(DimensionMismatchError):
            cls(np.zeros((4,) * cls.ndim), hardy=False)
        assert cls(np.zeros((4,) * cls.ndim), hardy=True).order == 3

    def test_mixed_dimensions_do_not_add(self, cls):
        other = COEFF_TYPES[2 - cls.ndim]
        with pytest.raises(TypeError):
            cls.zeros(3, hardy=True) + other.zeros(3, hardy=True)
        with pytest.raises(TypeError):
            cls.zeros(3, hardy=True) - np.zeros((4,) * cls.ndim)

    @pytest.mark.parametrize("hardy", [True, False])
    def test_get_outside_range_is_zero(self, cls, hardy):
        f = _random_coeffs(cls, 5, 3, hardy)
        low = 0 if hardy else -3
        inside = (low,) * cls.ndim
        assert f.get(*inside) == complex(f.data[(0,) * cls.ndim]) != 0
        for k in (low - 1, 4):
            assert f.get(*(inside[:-1] + (k,))) == 0j
            assert f.get(*((k,) * cls.ndim)) == 0j
        key = lambda k: k if cls.ndim == 1 else (k, k)
        assert cls.from_terms(3, {key(low): 2.0}, hardy=hardy).get(*inside) == 2.0
        with pytest.raises(DomainError):
            cls.from_terms(3, {key(4): 1.0}, hardy=hardy)

    def test_get_checks_the_number_of_indices(self, cls):
        with pytest.raises(DimensionMismatchError):
            cls.zeros(3, hardy=True).get(*(0,) * (cls.ndim + 1))

    def test_mixed_layout_inner_product(self, cls):
        h = _random_coeffs(cls, 7, 6, True)
        g = _random_coeffs(cls, 8, 6, True)
        same = inner_product_1d(h, g)
        assert inner_product_1d(h, g.to_full()) == pytest.approx(same, rel=1e-14)
        assert inner_product_1d(h.to_full(), g) == pytest.approx(same, rel=1e-14)
        assert inner_product_2d(h.to_full(), g.to_full()) == pytest.approx(same, rel=1e-14)

    def test_to_full_embeds_the_hardy_block(self, cls):
        h = _random_coeffs(cls, 9, 4, True)
        full = h.to_full()
        assert type(full) is cls and not full.hardy and full.order == 4
        assert np.array_equal(full.data[(slice(4, None),) * cls.ndim], h.data)
        assert full.energy() == pytest.approx(h.energy(), rel=1e-15)

    def test_repr_names_the_subclass(self, cls):
        assert repr(cls.zeros(2, hardy=True)) == "%s(order=2, hardy=True)" % cls.__name__
        assert type(2.0 * cls.zeros(2)) is cls


def test_non_square_2d_rejected():
    with pytest.raises(DimensionMismatchError):
        FourierCoeffs2D(np.zeros((3, 5)))
    with pytest.raises(DimensionMismatchError):
        FourierCoeffs2D.from_samples(np.zeros((9, 10)), 2)
    with pytest.raises(DimensionMismatchError):
        FourierCoeffs1D.from_samples(np.zeros((9, 9)), 2)


class TestInnerProducts:
    def test_orthonormal_monomial(self):
        f = FourierCoeffs1D.from_terms(8, {1: 1.0}, hardy=True)
        assert inner_product_1d(f, f) == pytest.approx(1.0)

    def test_distinct_frequencies(self):
        one = FourierCoeffs1D.from_terms(8, {0: 1.0}, hardy=True)
        z = FourierCoeffs1D.from_terms(8, {1: 1.0}, hardy=True)
        assert inner_product_1d(one, z) == 0

    def test_kernel_pair_closed_form(self):
        ip = inner_product_1d(szego_coeffs(0.5, 256), szego_coeffs(0.3, 256))
        assert ip == pytest.approx(KERNEL_IP_05_03, abs=1e-12)
        assert ip == pytest.approx(kernel_ip(0.5, 0.3), abs=1e-12)

    def test_mixed_layouts(self):
        h = szego_coeffs(0.4, 16)
        full = h.to_full()
        assert inner_product_1d(h, full) == pytest.approx(inner_product_1d(h, h))

    def test_order_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product_1d(szego_coeffs(0.1, 8), szego_coeffs(0.1, 9))

    def test_2d_monomial(self):
        e00 = FourierCoeffs2D.from_terms(4, {(0, 0): 1.0}, hardy=True)
        assert inner_product_2d(e00, e00) == pytest.approx(1.0)

    def test_2d_disjoint(self):
        zt = FourierCoeffs2D.from_terms(4, {(1, 0): 1.0}, hardy=True)
        zs = FourierCoeffs2D.from_terms(4, {(0, 1): 1.0}, hardy=True)
        assert inner_product_2d(zt, zs) == 0

    def test_2d_tensor_factorization(self):
        f = tensor_atom_coeffs(TensorAtomSpec.of(0.5, 0.5), 256)
        g = tensor_atom_coeffs(TensorAtomSpec.of(0.3, 0.3), 256)
        assert inner_product_2d(f, g) == pytest.approx(KERNEL_IP_05_03**2, abs=1e-10)


def hilbert_transform(f):
    """Hilbert transform of a real signal through its analytic part.

    ``analytic_part`` realizes (f + iHf)/2 + c_0/2, so Hf = -i (2 f^+ - f - c_0).
    """
    i_hf = 2.0 * analytic_part(f).to_full().data - f.data
    i_hf[f.order] -= f.data[f.order]
    return FourierCoeffs1D(-1j * i_hf, hardy=False)


class TestHilbert:
    """The analytic part against the Fourier multiplier -i sgn(k) of the Hilbert transform."""

    def test_cos_to_sin(self):
        cos = FourierCoeffs1D.from_terms(4, {1: 0.5, -1: 0.5})
        h = hilbert_transform(cos)
        sin = FourierCoeffs1D.from_terms(4, {1: -0.5j, -1: 0.5j})
        assert np.allclose(h.data, sin.data)

    def test_constant_to_zero(self):
        one = FourierCoeffs1D.from_terms(4, {0: 1.0})
        assert hilbert_transform(one).energy() == 0

    def test_sin_to_minus_cos(self):
        sin = FourierCoeffs1D.from_terms(4, {1: -0.5j, -1: 0.5j})
        h = hilbert_transform(sin)
        cos = FourierCoeffs1D.from_terms(4, {1: 0.5, -1: 0.5})
        assert np.allclose(h.data, -cos.data)

    @pytest.mark.parametrize("seed", range(4))
    def test_double_transform_removes_mean(self, seed):
        f = random_real_full_1d(seed, 24)
        hh = hilbert_transform(hilbert_transform(f))
        expected = -(f.data.copy())
        expected[24] = 0.0
        assert np.max(np.abs(hh.data - expected)) < 1e-10


class TestAnalyticPart:
    def test_cos(self):
        ap = analytic_part(FourierCoeffs1D.from_terms(4, {1: 0.5, -1: 0.5}))
        assert ap.get(0) == 0 and ap.get(1) == pytest.approx(0.5)

    def test_constant(self):
        ap = analytic_part(FourierCoeffs1D.from_terms(4, {0: 1.0}))
        assert ap.get(0) == pytest.approx(1.0) and ap.energy() == pytest.approx(1.0)

    def test_linearity(self):
        f = FourierCoeffs1D.from_terms(4, {0: 3.0, 1: 1.0, -1: 1.0})
        ap = analytic_part(f)
        assert ap.get(0) == pytest.approx(3.0) and ap.get(1) == pytest.approx(1.0)

    def test_non_real_rejected(self):
        f = FourierCoeffs1D.from_terms(4, {1: 1.0})  # no Hermitian partner
        with pytest.raises(DomainError):
            analytic_part(f)

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction_identity(self, seed):
        f = random_real_full_1d(seed, 30)
        ap = analytic_part(f)
        size = 128
        recon = 2.0 * ap.boundary_samples(size).real - ap.get(0).real
        assert np.max(np.abs(recon - f.boundary_samples(size).real)) < 1e-10


class TestQuadrantSplit:
    def test_cos_t_plus_s(self):
        f = FourierCoeffs2D.from_terms(4, {(1, 1): 0.5, (-1, -1): 0.5})
        parts = quadrant_split(f)
        assert parts.pp.get(1, 1) == pytest.approx(0.5)
        assert parts.pm.get(1, 1) == 0  # c_{1,-1}
        assert parts.pp.energy() == pytest.approx(0.25) and parts.pm.energy() == 0
        assert parts.F.energy() == 0 and parts.G.energy() == 0

    def test_constant(self):
        f = FourierCoeffs2D.from_terms(4, {(0, 0): 1.0})
        parts = quadrant_split(f)
        for block in (parts.pp, parts.pm):
            assert block.get(0, 0) == pytest.approx(1.0)
        assert parts.c00 == pytest.approx(1.0)
        assert parts.F.get(0) == pytest.approx(1.0) and parts.G.get(0) == pytest.approx(1.0)

    def test_axis_coefficients_in_adjacent_quadrants(self):
        f = FourierCoeffs2D.from_terms(4, {(1, 0): 0.5, (-1, 0): 0.5})  # cos t
        parts = quadrant_split(f)
        assert parts.pp.get(1, 0) == pytest.approx(0.5)
        assert parts.pm.get(1, 0) == pytest.approx(0.5)
        assert parts.F.get(1) == pytest.approx(0.5)
        assert parts.G.energy() == 0

    def test_symmetry_violation_rejected(self):
        f = FourierCoeffs2D.from_terms(4, {(1, 1): 1.0})
        with pytest.raises(DomainError):
            quadrant_split(f)

    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_are_spectrum_slices(self, seed):
        n = 10
        f = random_real_full_2d(seed, n)
        parts = quadrant_split(f)
        assert all(p.hardy and p.order == n for p in (parts.pp, parts.pm, parts.F, parts.G))
        for k in range(n + 1):
            assert parts.F.get(k) == f.get(k, 0) and parts.G.get(k) == f.get(0, k)
            for l in range(n + 1):
                assert parts.pp.get(k, l) == f.get(k, l)
                assert parts.pm.get(k, l) == f.get(k, -l)
        assert parts.c00 == f.get(0, 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_conjugate_reflection(self, seed):
        """The other two quadrants are the conjugate reflections of ``pp`` and ``pm``."""
        n = 8
        f = random_real_full_2d(seed, n)
        parts = quadrant_split(f)
        assert np.allclose(f.data[n::-1, n::-1], np.conj(parts.pp.data))  # c_{-k,-l}
        assert np.allclose(f.data[n::-1, n:], np.conj(parts.pm.data))  # c_{-k,l}


class TestRealReconstruct2D:
    def test_cos_t_plus_s(self):
        f = FourierCoeffs2D.from_terms(4, {(1, 1): 0.5, (-1, -1): 0.5})
        recon = real_field_2d(quadrant_split(f), 32)
        assert np.max(np.abs(recon - f.boundary_samples(32).real)) < 1e-10

    def test_constant(self):
        f = FourierCoeffs2D.from_terms(4, {(0, 0): 1.0})
        recon = real_field_2d(quadrant_split(f), 16)
        assert np.allclose(recon, 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_bandlimited(self, seed):
        f = random_real_full_2d(seed, 16)
        recon = real_field_2d(quadrant_split(f), 64)
        assert np.max(np.abs(recon - f.boundary_samples(64).real)) < 1e-9

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
        got = real_field_2d(quadrant_split(f), side)
        want = f.boundary_samples(side).real
        assert got.shape == (side, side)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(f.data))


def random_field_parts(seed, orders):
    """Random ``QuadrantParts`` with blocks of the given orders (pp, pm, F, G) and a real mean."""
    rng = np.random.default_rng(seed)

    def part(cls, order):
        shape = (order + 1,) * cls.ndim
        return cls(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), hardy=True)

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
        f = FourierCoeffs1D(_random_series(seed, order), hardy=True)
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
        off_grid = pts[3:9] * 0.5
        norms_a, norms_b = _kernel_table(middle, off_grid, pts, spec).norms_sq
        assert norms_a.tobytes() == np.sum(np.abs(kernel_rows(off_grid, 25)) ** 2, axis=1).tobytes()
        assert norms_b.tobytes() == norms.tobytes()

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
