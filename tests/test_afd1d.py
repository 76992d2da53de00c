"""Rational orthonormal systems, backward shift, 1-d greedy decomposition."""

import warnings

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afdkit import (
    DegenerateInputError,
    DomainError,
    FourierCoeffs1D,
    GridSpec,
    InvariantViolation,
    afd_decompose_1d,
    backward_shift,
    grid_points,
    inner_product_1d,
    msp_1d,
    reconstruct_1d,
    szego_coeffs,
    tm_matrix,
)
from afdkit import afd1d
from afdkit.cli import cli_main, real_samples_1d, write_csv
from conftest import (
    coeff,
    dominant_atoms_on_grid,
    exhaustive_argmax,
    from_terms,
    multiplicities,
    random_hardy_1d,
    reference_backward_shift,
    reference_blaschke,
    reference_blaschke_coeffs,
)

GRID = GridSpec(radial_count=24, angular_count=48, refine_levels=1, max_radius=0.9)


class TestMultiplicities:
    def test_repeats(self):
        assert multiplicities([0.5, 0.3, 0.5, 0.5]) == [1, 1, 2, 3]

    def test_empty(self):
        assert multiplicities([]) == []


def _phi_row(params, order):
    """The last row of ``tm_matrix(params + [0], order)``: the Blaschke product with zeros ``params``."""
    return tm_matrix(list(params) + [0j], order)[-1]


class TestBlaschke:
    """The row of the parameter 0 after a history is the history's Blaschke product."""

    def test_empty_product_is_one(self):
        assert np.allclose(_phi_row([], 16), np.eye(1, 17))

    def test_single_zero_at_origin_is_z(self):
        assert np.allclose(_phi_row([0.0], 16), np.eye(1, 17, 1))

    def test_unimodular(self):
        vals = FourierCoeffs1D(_phi_row([0.5, 0.5], 128)).boundary_samples(256)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-13

    def test_invalid_parameter(self):
        with pytest.raises(DomainError):
            _phi_row([1.5], 16)

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(0, 300), seed=st.integers(0, 2**16), count=st.integers(0, 8),
           radius=st.floats(0.0, 0.95), zero=st.integers(-1, 7))
    @example(order=24, seed=0, count=0, radius=0.5, zero=-1)
    @example(order=65, seed=1, count=3, radius=0.95, zero=1)
    @example(order=256, seed=2, count=8, radius=0.9, zero=0)
    def test_row_is_the_sampled_product(self, order, seed, count, radius, zero):
        """The rows of the history plus 0 are the history's rows, then its sampled Blaschke product, bit for bit."""
        params = _random_params(seed, count, radius)
        if 0 <= zero < count:
            params[zero] = 0j
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = tm_matrix(params + [0j], order)
            assert rows[:-1].tobytes() == tm_matrix(params, order).tobytes()
        assert rows[-1].tobytes() == reference_blaschke_coeffs(params, order).tobytes()


class TestTMBasis:
    def test_zero_params_give_monomials(self):
        rows = tm_matrix([0, 0, 0, 0], 32)
        assert np.max(np.abs(rows - np.eye(4, 33))) < 1e-14

    def test_first_function_is_kernel(self):
        rows = tm_matrix([0.5], 64)
        assert np.max(np.abs(rows[0] - szego_coeffs(0.5, 64).data)) < 1e-14

    def test_gram_identity(self):
        params = [0.5, 0.3, 0.5 + 0.2j, 0.0, 0.8j]
        rows = tm_matrix(params, 512)
        gram = np.conj(rows) @ rows.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-8

    def test_repeated_parameters_stay_orthonormal(self):
        rows = tm_matrix([0.6, 0.6, 0.6], 256)
        gram = np.conj(rows) @ rows.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    @pytest.mark.parametrize("order", [0, 16, 64, 256])
    def test_batched_fft_equals_one_fft_per_row(self, order):
        """The rows have the bits of one 1-d FFT per basis function."""
        rng = np.random.default_rng(order)
        params = np.append(0.0, 0.95 * rng.uniform(0, 1, 9) * np.exp(2j * np.pi * rng.uniform(0, 1, 9)))
        size = afd1d._tm_grid_size(order)
        z = np.exp(2j * np.pi * np.arange(size) / size)
        prefix, ref = np.ones(size, dtype=complex), []
        for a in params:
            factor = np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z)
            ref.append((np.fft.fft(factor * prefix) / size)[: order + 1])
            prefix *= (z - a) / (1.0 - np.conj(a) * z)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert tm_matrix(params, order).tobytes() == np.array(ref).tobytes()


class TestBackwardShift:
    def test_classical_shift(self):
        f = from_terms(FourierCoeffs1D, 16, {2: 1.0})
        _, shifted = backward_shift(f, 0.0)
        assert abs(coeff(shifted, 1) - 1.0) < 1e-12
        assert abs(shifted.energy() - 1.0) < 1e-12

    def test_atom_annihilation(self):
        atom = szego_coeffs(0.4 - 0.2j, 128)
        _, rest = backward_shift(atom, 0.4 - 0.2j)
        assert rest.energy() < 1e-20

    def test_energy_identity(self):
        f = from_terms(FourierCoeffs1D, 256, {1: 1.0})
        _, shifted = backward_shift(f, 0.5)
        assert shifted.energy() == pytest.approx(1 - 0.75 * 0.25, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), radius=st.floats(0.0, 0.9), angle=st.floats(0.0, 1.0))
    @example(seed=0, radius=0.9, angle=0.0)
    def test_ledger(self, seed, radius, angle):
        # f = c e_a + (z - a) / (1 - conj(a) z) f_+ splits ||f||^2 into |c|^2 + ||f_+||^2, the
        # ledger a 1-d record stores
        f = random_hardy_1d(seed, 256)
        c, shifted = backward_shift(f, radius * np.exp(2j * np.pi * angle))
        assert abs(f.energy() - abs(c) ** 2 - shifted.energy()) <= 1e-12 * f.energy()

    # the one grid point 0.97 besides the center takes the first step of e_0.9 at order 16 there
    BLOWUP = GridSpec(radial_count=1, angular_count=1, refine_levels=0, max_radius=0.97)

    @pytest.mark.filterwarnings("ignore::afdkit.TruncationWarning")
    def test_truncation_blowup_detected(self):
        with pytest.raises(InvariantViolation, match=r"step 1 at \|a\|=0\.9700 breaks the energy ledger by "
                           r"\S+ \(tol 1\.0e-08\); truncation order 16 is too small"):
            afd_decompose_1d(szego_coeffs(0.9, 16), 3, self.BLOWUP)

    @pytest.mark.filterwarnings("ignore::afdkit.TruncationWarning")
    def test_decompose_refuses_the_blowup(self, tmp_path, capsys):
        sig, rec = str(tmp_path / "s.csv"), tmp_path / "s.rec"
        write_csv(sig, "# e_0.9", real_samples_1d(szego_coeffs(0.9, 16), 64))
        grid = self.BLOWUP
        code = cli_main(["decompose", "--input", sig, "--output", str(rec), "--order", "16", "--terms", "3",
                         "--grid-radial", str(grid.radial_count), "--grid-angular", str(grid.angular_count),
                         "--refine", "0", "--max-radius", str(grid.max_radius)])
        assert code == 1 and not rec.exists()
        assert "step 1 at |a|=0.9700 breaks the energy ledger" in capsys.readouterr().err


def _random_params(seed, count, radius):
    rng = np.random.default_rng(seed)
    return list(rng.uniform(0.0, radius, count) * np.exp(2j * np.pi * rng.uniform(size=count)))


class TestNodeTable:
    """The cached boundary nodes give the bits of nodes rebuilt on every call."""

    def test_read_only_and_shared(self):
        z = afd1d._nodes(2048)
        assert z is afd1d._nodes(2048) and not z.flags.writeable
        with pytest.raises(ValueError):
            z[0] = 0.0
        assert z.tobytes() == np.exp(2j * np.pi * np.arange(2048) / 2048).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(0, 300), seed=st.integers(0, 2**16), radius=st.floats(0.0, 0.97))
    def test_backward_shift(self, order, seed, radius):
        f = random_hardy_1d(seed, order)
        a = complex(_random_params(seed + 1, 1, radius)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want_c, want = reference_backward_shift(f, a)
            got_c, got = backward_shift(f, a)
        assert np.complex128(got_c).tobytes() == np.complex128(want_c).tobytes()
        assert got.data.tobytes() == want.data.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(0, 300), seed=st.integers(0, 2**16), count=st.integers(0, 6),
           radius=st.floats(0.0, 0.99))
    def test_tm_matrix_with_blaschke_row(self, order, seed, count, radius):
        params = _random_params(seed, count, radius) + [0j]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = tm_matrix(params, order)
            with mock.patch.object(afd1d, "_nodes", afd1d._nodes.__wrapped__):
                want = tm_matrix(params, order)
        assert got.tobytes() == want.tobytes()


class TestMsp:
    def test_atom_recovery(self):
        target = complex(grid_points(GRID)[300])
        a, value = msp_1d(szego_coeffs(target, 256), GRID)
        assert a == pytest.approx(target, abs=1e-14)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_monomial_prefers_balanced_radius(self):
        f = from_terms(FourierCoeffs1D, 256, {1: 1.0})
        a, value = msp_1d(f, GRID)
        assert abs(abs(a) ** 2 - 0.5) < 0.05
        assert 0.24 < value <= 0.25 + 1e-12

    def test_constant_selects_center(self):
        f = from_terms(FourierCoeffs1D, 256, {0: 1.0})
        a, value = msp_1d(f, GRID)
        assert a == 0 and value == pytest.approx(1.0)

    def test_zero_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            msp_1d(FourierCoeffs1D.zeros(8), GRID)

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_equivalence(self, seed):
        spec = GridSpec(radial_count=10, angular_count=16, refine_levels=0, max_radius=0.85)
        f = random_hardy_1d(seed, 64)

        def objective(pts):
            vals = np.polynomial.polynomial.polyval(np.asarray(pts), f.data)
            return (1 - np.abs(pts) ** 2) * np.abs(vals) ** 2

        got_a, got_v = msp_1d(f, spec)
        want_a, want_v = exhaustive_argmax(objective, spec)
        assert got_a == want_a and got_v == pytest.approx(want_v, rel=1e-12)


class TestDecompose:
    def test_single_atom_single_step(self):
        target = complex(grid_points(GRID)[500])
        record = afd_decompose_1d(szego_coeffs(target, 256), 5, GRID)
        assert len(record.steps) == 1
        assert record.steps[0].a == pytest.approx(target)
        assert record.steps[0].residual_energy < 1e-12

    def test_two_atom_exact_recovery(self):
        grid = GridSpec(radial_count=48, angular_count=96, refine_levels=2, max_radius=0.95)
        pts = grid_points(grid)
        a1, a2 = complex(pts[4300]), complex(pts[3000])
        f = 0.8 * szego_coeffs(a1, 256) + 0.1 * szego_coeffs(a2, 256)
        record = afd_decompose_1d(f, 2, grid)
        assert sorted([record.steps[0].a, record.steps[1].a], key=abs) == sorted(
            [a1, a2], key=abs
        )
        assert record.steps[-1].residual_energy < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_energy_ledger(self, seed):
        f = random_hardy_1d(seed, 256)
        record = afd_decompose_1d(f, 8, GRID)
        prev = record.initial_energy
        for step in record.steps:
            assert abs(prev - step.residual_energy - abs(step.coeff) ** 2) < 1e-10
            assert step.residual_energy < prev
            prev = step.residual_energy

    @pytest.mark.parametrize("seed", range(3))
    def test_coefficients_match_orthonormal_system(self, seed):
        f = random_hardy_1d(seed, 256)
        record = afd_decompose_1d(f, 6, GRID)
        basis = [FourierCoeffs1D(row) for row in tm_matrix(record.params(), 256)]
        for step, b in zip(record.steps, basis):
            assert abs(step.coeff - inner_product_1d(f, b)) < 1e-8

    def test_szego_atom_built_once_per_step(self, monkeypatch):
        calls = []

        def counting(a, order):
            calls.append(a)
            return szego_coeffs(a, order)

        f = random_hardy_1d(4, 256)
        monkeypatch.setattr(afd1d, "szego_coeffs", counting)
        record = afd_decompose_1d(f, 6, GRID)
        assert len(record.steps) == 6
        assert calls == record.params()

    @pytest.mark.parametrize("seed", range(2))
    def test_remainder_relation(self, seed):
        """Orthogonal remainder equals the shifted remainder times the Blaschke prefix."""
        f = random_hardy_1d(seed, 256)
        record = afd_decompose_1d(f, 5, GRID)
        params = record.params()
        basis = [FourierCoeffs1D(row) for row in tm_matrix(params, 256)]
        size = 2048
        fk = f
        for k in range(1, len(params) + 1):
            _, fk = backward_shift(fk, params[k - 1])
            g = f
            for j in range(k):
                g = g - inner_product_1d(f, basis[j]) * basis[j]
            lhs = g.boundary_samples(size)
            rhs = fk.boundary_samples(size) * reference_blaschke(params[:k], size)
            err = np.sqrt(np.mean(np.abs(lhs - rhs) ** 2))
            assert err < 1e-7

    def test_rate_bound_bounded_synthesis(self):
        from afdkit.cli import synth_signal_1d

        f, _, _ = synth_signal_1d(256, 10, 2.0, GRID, seed=5)
        record = afd_decompose_1d(f, 15, GRID)
        d = [record.initial_energy] + record.residual_energies()
        for k in range(1, len(d) + 1):
            assert np.sqrt(d[k - 1]) <= 2.0 / np.sqrt(k) + 1e-12

    def test_stops_at_threshold(self):
        target = complex(grid_points(GRID)[200])
        record = afd_decompose_1d(szego_coeffs(target, 128), 10, GRID)
        assert len(record.steps) == 1


class TestReconstruct:
    def test_single_atom(self):
        target = complex(grid_points(GRID)[450])
        atom = szego_coeffs(target, 128)
        record = afd_decompose_1d(atom, 1, GRID)
        recon = reconstruct_1d(record, 128)
        assert np.max(np.abs(recon.data - atom.data)) < 1e-10

    def test_two_atom_reconstruction(self):
        grid = GridSpec(radial_count=48, angular_count=96, refine_levels=2, max_radius=0.95)
        pts = grid_points(grid)
        f = 0.8 * szego_coeffs(complex(pts[4300]), 256) + 0.1 * szego_coeffs(
            complex(pts[3000]), 256
        )
        record = afd_decompose_1d(f, 2, grid)
        recon = reconstruct_1d(record, 256)
        assert np.sqrt((f - recon).energy()) < 1e-7

    def test_five_atom_recovery(self):
        grid = GridSpec(radial_count=48, angular_count=96, refine_levels=2, max_radius=0.95)
        f, _, _ = dominant_atoms_on_grid(3, grid, 256, 5)
        record = afd_decompose_1d(f, 5, grid)
        recon = reconstruct_1d(record, 256)
        assert np.sqrt((f - recon).energy()) / np.sqrt(f.energy()) < 1e-6

    @pytest.mark.parametrize("seed", range(2))
    def test_difference_is_the_remainder(self, seed):
        f = random_hardy_1d(seed, 256)
        record = afd_decompose_1d(f, 6, GRID)
        recon = reconstruct_1d(record, 256)
        assert (f - recon).energy() == pytest.approx(
            record.steps[-1].residual_energy, abs=1e-8
        )
