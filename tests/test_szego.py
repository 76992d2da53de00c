"""Kernel coefficients, normalization constants, tensor atoms."""

import warnings

import numpy as np
import pytest

from afdkit import (
    AtomSpec,
    DomainError,
    TensorAtomSpec,
    TruncationWarning,
    backward_shift,
    higher_order_coeffs,
    inner_product_1d,
    normalization,
    normalized_atom_coeffs,
    szego_coeffs,
    tensor_atom_coeffs,
    tm_matrix,
)
from afdkit.hardy import eval_series
from conftest import coeff, random_hardy_1d

NORM_M2_A05 = 0.5809475019311126  # 1 / sqrt((1 + 1/4) / (1 - 1/4)^3)


class TestAtomSpec:
    def test_boundary_parameter_rejected(self):
        with pytest.raises(DomainError):
            AtomSpec(1.0)
        with pytest.raises(DomainError):
            AtomSpec(0.8 + 0.7j)

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(DomainError):
            AtomSpec(0.5, 0)

    # every function that takes a disc parameter applies AtomSpec's rule, with
    # its message and no warning, to NaN parts and infinities as to the circle
    @pytest.mark.parametrize("a", [complex("nan"), complex(0.3, float("nan")), 1.0, -1j, 1.5, complex("inf")])
    @pytest.mark.parametrize(
        "call",
        [
            AtomSpec,
            lambda a: TensorAtomSpec.of(0.5, a),
            lambda a: szego_coeffs(a, 8),
            lambda a: tm_matrix([0.5, a], 8),
            lambda a: backward_shift(random_hardy_1d(0, 8), a),
        ],
        ids=["AtomSpec", "TensorAtomSpec.of", "szego_coeffs", "tm_matrix", "backward_shift"],
    )
    def test_every_disc_parameter_meets_the_one_rule(self, call, a):
        with warnings.catch_warnings(), pytest.raises(DomainError) as err:
            warnings.simplefilter("error")
            call(a)
        assert str(err.value) == "disc parameter must satisfy |a| < 1, got |a| = %g" % abs(a)


class TestSzegoCoeffs:
    def test_center_is_constant(self):
        e0 = szego_coeffs(0.0, 8)
        assert coeff(e0, 0) == 1.0 and e0.energy() == 1.0

    def test_geometric_sequence(self):
        e = szego_coeffs(0.5, 16)
        expected = np.sqrt(0.75) * 0.5 ** np.arange(17)
        assert np.allclose(e.data, expected, atol=1e-15)

    def test_truncated_norm_window(self):
        e = szego_coeffs(0.9, 256)
        assert 1.0 - 0.9**514 <= e.energy() <= 1.0

    def test_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            szego_coeffs(1.2, 8)


class TestHigherOrderCoeffs:
    def test_m1_geometric(self):
        raw = higher_order_coeffs(AtomSpec(0.5, 1), 12)
        assert np.allclose(raw.data, 0.5 ** np.arange(13))

    def test_m2_center_is_monomial(self):
        raw = higher_order_coeffs(AtomSpec(0.0, 2), 8)
        assert coeff(raw, 1) == 1.0 and raw.energy() == 1.0

    def test_m2_derivative_series(self):
        raw = higher_order_coeffs(AtomSpec(0.5, 2), 12)
        k = np.arange(13)
        assert np.allclose(raw.data, (k + 1) * 0.5**k)

    def test_conjugation_convention(self):
        a = 0.3 + 0.4j
        raw = higher_order_coeffs(AtomSpec(a, 1), 6)
        assert coeff(raw, 1) == pytest.approx(np.conj(a))


class TestNormalization:
    def test_m1_closed_form(self):
        for a in (0.1, 0.5, 0.7 + 0.2j):
            assert normalization(AtomSpec(a, 1)) == pytest.approx(np.sqrt(1 - abs(a) ** 2))

    def test_m2_value(self):
        assert normalization(AtomSpec(0.5, 2)) == pytest.approx(NORM_M2_A05, abs=1e-14)

    def test_center_monomial(self):
        assert normalization(AtomSpec(0.0, 2)) == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("a", [0.2, 0.55, 0.3 - 0.6j, 0.85])
    def test_against_partial_sum_oracle(self, m, a):
        # brute-force Parseval sum of binom(k+m-1, m-1)^2 |a|^(2k)
        import math

        r = abs(complex(a)) ** 2
        total, k, term_scale = 0.0, 0, 1.0
        while True:
            binom = math.comb(k + m - 1, m - 1)
            term = binom * binom * r**k
            total += term
            if k > 10 and term < 1e-17 * total:
                break
            k += 1
        assert normalization(AtomSpec(a, m)) == pytest.approx(1.0 / np.sqrt(total), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_monotone_decay_in_radius(self, m):
        radii = np.linspace(0.01, 0.99, 50)
        values = [normalization(AtomSpec(r, m)) for r in radii]
        assert all(values[i + 1] < values[i] for i in range(49))

    def test_vanishes_toward_boundary(self):
        assert normalization(AtomSpec(0.99999, 3)) < 1e-6

    @pytest.mark.parametrize("a, m", [(0.9, 257), (0.995, 82), (0.995, 68), (0.5, 518), (0.5, 516)])
    def test_norm_outside_the_float_range_is_a_domain_error(self, a, m):
        # the closed form divides by an underflowed power, squares a binomial
        # beyond the float range or sums to inf
        with pytest.raises(DomainError, match=r"a=%g\+0j with m=%d has no float norm" % (a, m)):
            normalization(AtomSpec(a, m))

    @pytest.mark.parametrize("a, m", [(0.995, 67), (0.5, 515)])
    def test_last_rung_with_a_float_norm(self, a, m):
        assert 0.0 < normalization(AtomSpec(a, m)) < 1e-150

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_normalizes_truncated_vector(self, m):
        spec = AtomSpec(0.4 + 0.3j, m)
        vec = normalization(spec) * higher_order_coeffs(spec, 512)
        assert np.sqrt(vec.energy()) == pytest.approx(1.0, abs=1e-10)


class TestTensorAtoms:
    def test_double_center_is_constant(self):
        t = tensor_atom_coeffs(TensorAtomSpec.of(0.0, 0.0), 4)
        assert coeff(t, 0, 0) == 1.0 and t.energy() == 1.0

    def test_product_of_factor_series(self):
        t = tensor_atom_coeffs(TensorAtomSpec.of(0.5, 0.3), 16)
        k = np.arange(17)
        expected = np.outer(np.sqrt(0.75) * 0.5**k, np.sqrt(0.91) * 0.3**k)
        assert np.allclose(t.data, expected)

    @pytest.mark.parametrize("pair", [(0.9, 0.9), (0.85j, -0.6), (0.5 + 0.5j, 0.9)])
    def test_unit_norm_at_order_128(self, pair):
        t = tensor_atom_coeffs(TensorAtomSpec.of(*pair), 128)
        assert np.sqrt(t.energy()) == pytest.approx(1.0, abs=1e-10)


class TestReproducingProperty:
    @pytest.mark.parametrize("seed", range(5))
    def test_inner_product_evaluates_the_function(self, seed):
        f = random_hardy_1d(seed, 256)
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            a = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            lhs = inner_product_1d(f, szego_coeffs(a, 256))
            rhs = np.sqrt(1 - abs(a) ** 2) * eval_series(f.data, a)
            assert abs(lhs - rhs) < 1e-9


class TestLadderSpans:
    @pytest.mark.parametrize("a", [0.5, 0.3 - 0.4j])
    def test_multiplicity_ladder_spans_derivative_ladder(self, a):
        """span{1/(1-conj(a)z)^m, m<=M} equals span of the kernel derivatives."""
        order, M = 96, 4
        ladder = np.vstack(
            [normalized_atom_coeffs(AtomSpec(a, m), order).data for m in range(1, M + 1)]
        )
        # derivative atoms: d^j/d(conj a)^j of 1/(1 - conj(a) z) is
        # j! z^j / (1 - conj(a) z)^(j+1); coefficients are shifted binomials
        derivs = np.zeros((M, order + 1), dtype=complex)
        for j in range(M):
            raw = higher_order_coeffs(AtomSpec(a, j + 1), order).data
            shifted = np.zeros(order + 1, dtype=complex)
            shifted[j:] = raw[: order + 1 - j]
            derivs[j] = shifted / np.linalg.norm(shifted)
        # mutual projection residuals via least squares
        for basis, targets in ((ladder, derivs), (derivs, ladder)):
            sol, *_ = np.linalg.lstsq(basis.T, targets.T, rcond=None)
            resid = targets.T - basis.T @ sol
            assert np.max(np.linalg.norm(resid, axis=0)) < 1e-9


class TestTruncationWarnings:
    def test_short_truncation_warns(self):
        with pytest.warns(TruncationWarning):
            szego_coeffs(0.95, 32)

    def test_adequate_truncation_is_quiet(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            szego_coeffs(0.9, 256)
            normalized_atom_coeffs(AtomSpec(0.5, 3), 128)
