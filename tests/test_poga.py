"""Pre-orthogonal greedy selection, escalation, rates, and the 1-d equivalence."""

import tracemalloc
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afdkit import (
    AtomSpec,
    DegenerateInputError,
    DomainError,
    GridSpec,
    OrthoFrame,
    ProductSzegoDictionary2D,
    Record,
    SpanDegeneracyError,
    Step,
    SzegoDictionary1D,
    TensorAtomSpec,
    afd_decompose_1d,
    grid_points,
    normalized_atom_coeffs,
    poga_decompose,
    rate_report,
    reconstruct_poga,
    szego_coeffs,
    tensor_atom_coeffs,
)
from afdkit.cli import RecordFile, encode_section, load_record, save_record, verify_record
from afdkit.hardy import PAIR_BLOCK, PAIR_SEEDS
from afdkit.poga import EPS_SPAN, R2_SPAN, ScanState, _escalated_candidates, _Reduction, _select
from conftest import (
    candidate_gain,
    dense_scan,
    kernel_ip,
    multiplicities,
    oga_select,
    random_hardy_1d,
    random_hardy_2d,
    reference_rate_report,
    scan_parts,
)

ORDER = 256
GRID = GridSpec(radial_count=24, angular_count=48, refine_levels=0, max_radius=0.9)


@pytest.fixture(scope="module")
def dict1d():
    return SzegoDictionary1D(ORDER, GRID)


def scan_r(r_sq):
    """Residual norms r of a scan's squared norms, as the selector takes them."""
    return np.sqrt(np.clip(r_sq, 0.0, None))


def kernel_frame(params, order=ORDER):
    frame = OrthoFrame(order + 1)
    for a in params:
        frame.extend(szego_coeffs(a, order).data, spec=AtomSpec(a))
    return frame


class TestProjectResidual:
    def test_empty_frame_is_identity(self):
        frame = OrthoFrame(ORDER + 1)
        x = szego_coeffs(0.3, ORDER).data
        res, r = frame.project_residual(x)
        assert np.allclose(res, x) and r == pytest.approx(np.linalg.norm(x))

    def test_basis_vector_has_zero_residual(self):
        frame = kernel_frame([0.5])
        _, r = frame.project_residual(frame.matrix[0])
        assert r < 1e-12

    def test_kernel_pair_pythagoras(self):
        frame = kernel_frame([0.5])
        _, r = frame.project_residual(szego_coeffs(0.3, ORDER).data)
        expected_sq = 1.0 - abs(kernel_ip(0.3, 0.5)) ** 2
        assert r**2 == pytest.approx(expected_sq, abs=1e-10)
        assert r**2 == pytest.approx(0.05536332179930796, abs=1e-10)

    def test_residual_orthogonal_to_frame(self):
        frame = kernel_frame([0.5, 0.2 - 0.4j, 0.7j])
        res, _ = frame.project_residual(szego_coeffs(0.1 + 0.1j, ORDER).data)
        assert np.max(np.abs(np.conj(frame.matrix) @ res)) < 1e-10


class TestCandidateGain:
    def test_empty_frame_gain_is_raw_inner_product(self):
        frame = OrthoFrame(ORDER + 1)
        g = random_hardy_1d(0, ORDER).data
        atom = szego_coeffs(0.4, ORDER).data
        out = candidate_gain(g, atom, frame)
        raw = abs(np.vdot(atom, g))
        assert out.gain == pytest.approx(raw, rel=1e-10)
        assert out.r == pytest.approx(1.0, abs=1e-10)

    def test_in_span_signals_degeneracy(self):
        frame = kernel_frame([0.5])
        with pytest.raises(SpanDegeneracyError):
            candidate_gain(random_hardy_1d(1, ORDER).data, szego_coeffs(0.5, ORDER).data, frame)

    def test_against_two_step_gram_schmidt_oracle(self):
        frame = kernel_frame([0.5])
        g = frame.project_residual(szego_coeffs(0.7, ORDER).data)[0]
        atom = szego_coeffs(0.3, ORDER).data
        out = candidate_gain(g, atom, frame)
        # oracle: orthonormalize the atom explicitly, then take the inner product
        res, r = frame.project_residual(atom)
        oracle = abs(np.vdot(res / r, g))
        assert out.gain == pytest.approx(oracle, rel=1e-10)

    def test_gain_identities(self):
        frame = kernel_frame([0.5, -0.3j])
        g = frame.project_residual(random_hardy_1d(2, ORDER).data)[0]
        for a in (0.2, 0.6j, -0.4 + 0.3j):
            out = candidate_gain(g, szego_coeffs(a, ORDER).data, frame)
            raw = abs(np.vdot(szego_coeffs(a, ORDER).data, g))
            assert out.gain * out.r == pytest.approx(raw, abs=1e-10)
            assert out.gain >= raw - 1e-12


class TestOrthoFrame:
    def test_near_parallel_atoms_stay_orthonormal(self):
        frame = OrthoFrame(ORDER + 1)
        for a in np.linspace(0.30, 0.70, 9):
            frame.extend(szego_coeffs(a, ORDER).data, spec=AtomSpec(a))
        assert frame.gram_defect() < 1e-9

    def test_extend_rejects_span_members(self):
        frame = kernel_frame([0.5])
        with pytest.raises(SpanDegeneracyError):
            frame.extend(szego_coeffs(0.5, ORDER).data)

    def test_reorthogonalize_preserves_span(self):
        frame = kernel_frame([0.5, 0.3, -0.2j])
        before = frame.matrix.copy()
        frame.reorthogonalize()
        sol, *_ = np.linalg.lstsq(frame.matrix.T, before.T, rcond=None)
        assert np.max(np.abs(frame.matrix.T @ sol - before.T)) < 1e-10


class TestDictionaryScan:
    def test_1d_scan_matches_candidate_gain(self, dict1d):
        frame = kernel_frame([0.4, -0.5j])
        g = frame.project_residual(random_hardy_1d(3, ORDER).data)[0]
        gain, _, _, r_sq = dense_scan(dict1d, g, frame)
        r = scan_r(r_sq)
        rng = np.random.default_rng(0)
        for i in rng.choice(len(dict1d), size=25, replace=False):
            atom = szego_coeffs(complex(dict1d.params[i]), ORDER).data
            res, r_direct = frame.project_residual(atom)
            assert r[i] == pytest.approx(r_direct, abs=1e-9)
            assert gain[i] * r[i] == pytest.approx(abs(np.vdot(atom, g)), abs=1e-12)

    def test_2d_scan_matches_direct(self):
        order = 24
        grid = GridSpec(radial_count=4, angular_count=8, refine_levels=0, max_radius=0.5)
        d2 = ProductSzegoDictionary2D(order, grid)
        frame = OrthoFrame(d2.dim)
        frame.extend(d2.atom_vector(d2.base_spec(7)), spec=d2.base_spec(7))
        g = random_hardy_2d(4, order).data.ravel()
        g, _ = frame.project_residual(g)
        gain, _, _, r_sq = reference_scan_2d(d2, g, frame)
        assert parts_bytes(scan_parts(d2, g, frame)) == parts_bytes(reference_parts(d2, g, frame))
        select_as_reference(g, frame, d2)
        r = scan_r(r_sq)
        rng = np.random.default_rng(1)
        for i in rng.choice(len(d2), size=20, replace=False):
            vec = d2.atom_vector(d2.base_spec(int(i)))
            _, r_direct = frame.project_residual(vec)
            assert r[i] == pytest.approx(r_direct, abs=1e-9)
            assert gain[i] * r[i] == pytest.approx(abs(np.vdot(vec, g)), abs=1e-12)


class TestPogaSelect:
    def test_atom_recovery(self, dict1d):
        a0 = complex(grid_points(GRID)[700])
        frame = OrthoFrame(ORDER + 1)
        out = _select(szego_coeffs(a0, ORDER).data, frame, dict1d, 1.0)[0]
        assert out.atom == AtomSpec(a0, 1)
        assert out.gain == pytest.approx(1.0, abs=1e-9)

    def test_escalates_to_second_order(self, dict1d):
        a0 = complex(grid_points(GRID)[500])
        f = 1.0 * normalized_atom_coeffs(AtomSpec(a0, 1), ORDER) + 0.05 * normalized_atom_coeffs(
            AtomSpec(a0, 2), ORDER
        )
        record = poga_decompose(f.data, 2, dict1d)
        assert [s.atom for s in record.steps] == [AtomSpec(a0, 1), AtomSpec(a0, 2)]
        assert record.steps[-1].residual_energy < 1e-16

    def test_weak_selection_inequality(self, dict1d):
        g = random_hardy_1d(5, ORDER).data
        frame = kernel_frame([0.3])
        g, _ = frame.project_residual(g)
        _, sup_gain, _ = _select(g, frame, dict1d, 1.0)
        out = _select(g, frame, dict1d, 0.5)[0]
        assert out.gain >= 0.5 * sup_gain

    def test_weak_selection_prefers_small_r(self, dict1d):
        g = random_hardy_1d(6, ORDER).data
        frame = kernel_frame([0.3])
        g, _ = frame.project_residual(g)
        out_full = _select(g, frame, dict1d, 1.0)[0]
        out_weak = _select(g, frame, dict1d, 0.3)[0]
        assert out_weak.r <= out_full.r + 1e-12

    def test_zero_remainder_rejected(self, dict1d):
        with pytest.raises(DegenerateInputError):
            _select(np.zeros(ORDER + 1, dtype=complex), OrthoFrame(ORDER + 1), dict1d, 1.0)

    def test_2d_escalation_raises_one_factor(self):
        order = 32
        grid = GridSpec(radial_count=8, angular_count=16, refine_levels=0, max_radius=0.6)
        d2 = ProductSzegoDictionary2D(order, grid)
        a0 = complex(grid_points(grid)[40])
        b0 = complex(grid_points(grid)[77])
        base = tensor_atom_coeffs(TensorAtomSpec.of(a0, b0), order)
        bumped = tensor_atom_coeffs(TensorAtomSpec(AtomSpec(a0, 2), AtomSpec(b0, 1)), order)
        f = 1.0 * base + 0.03 * bumped
        record = poga_decompose(f.data.ravel(), 2, d2)
        orders = [(s.atom.left.m, s.atom.right.m) for s in record.steps]
        assert orders == [(1, 1), (2, 1)]
        assert record.steps[-1].residual_energy < 1e-16


class TestOgaBaseline:
    def test_atom_recovery(self, dict1d):
        a0 = complex(grid_points(GRID)[321])
        pick = oga_select(szego_coeffs(a0, ORDER).data, dict1d)
        assert pick == AtomSpec(a0, 1)

    def test_equals_exhaustive_scan(self, dict1d):
        g = random_hardy_1d(7, ORDER).data
        pick = oga_select(g, dict1d)
        vals = [
            abs(np.vdot(szego_coeffs(complex(p), ORDER).data, g)) for p in dict1d.params
        ]
        assert pick.a == complex(dict1d.params[int(np.argmax(vals))])

    @pytest.mark.parametrize("seed", range(5))
    def test_per_step_dominance(self, seed, dict1d):
        f = random_hardy_1d(seed + 50, ORDER)
        frame = kernel_frame([0.4, -0.3 + 0.2j])
        g, _ = frame.project_residual(f.data)
        _, sup_gain, _ = _select(g, frame, dict1d, 1.0)
        pick = oga_select(g, dict1d)
        orthogonalized = candidate_gain(g, szego_coeffs(pick.a, ORDER).data, frame)
        assert sup_gain >= orthogonalized.gain - 1e-12


class TestPogaDecompose:
    def test_single_atom_single_step(self, dict1d):
        a0 = complex(grid_points(GRID)[200])
        record = poga_decompose(szego_coeffs(a0, ORDER).data, 5, dict1d)
        assert len(record.steps) == 1
        assert record.steps[0].residual_energy < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_energy_ledger(self, seed, dict1d):
        f = random_hardy_1d(seed + 60, ORDER)
        record = poga_decompose(f.data, 8, dict1d)
        d = [record.initial_energy] + record.residual_energies()
        for i, step in enumerate(record.steps):
            assert abs(d[i] - d[i + 1] - abs(step.coeff) ** 2) < 1e-10
        # the decomposition's frame, replayed from the recorded atoms
        frame = OrthoFrame(dict1d.dim)
        for step in record.steps:
            frame.extend(dict1d.atom_vector(step.atom), spec=step.atom)
        assert frame.gram_defect() < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_classic_decomposition(self, seed, dict1d):
        """Pre-orthogonal selection over the complete kernel dictionary
        reproduces the backward-shift greedy loop step for step."""
        f = random_hardy_1d(seed + 70, ORDER)
        rec_bs = afd_decompose_1d(f, 8, GRID)
        rec_po = poga_decompose(f.data, 8, dict1d)
        assert [s.atom.a for s in rec_po.steps] == rec_bs.params()
        assert [s.atom.m for s in rec_po.steps] == multiplicities(rec_bs.params())
        for s1, s2 in zip(rec_bs.steps, rec_po.steps):
            assert abs(abs(s1.coeff) - abs(s2.coeff)) < 1e-8
            assert abs(s1.residual_energy - s2.residual_energy) < 1e-8

    def test_weak_selection_confirms_scan_residual(self):
        # under the dense matrix scan, step 11 gave the winning grid atom
        # r = 1.05e-8 while its direct residual was 8.1e-9, below EPS_SPAN: it
        # must escalate instead of reaching OrthoFrame.extend.  Which atom wins
        # at that cancellation floor follows the scan's rounding, so the run
        # asserts only the invariants; TestSelectorConfirmation pins the rule.
        rng = np.random.default_rng(0)
        k = np.arange(65)
        x, y = rng.standard_normal(65), rng.standard_normal(65)
        f = (x + 1j * y) / (1 + k) ** 1.2
        grid = GridSpec(radial_count=16, angular_count=32, max_radius=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            record = poga_decompose(f, 12, SzegoDictionary1D(64, grid), rho=0.5)
        assert len(record.steps) == 12
        assert all(step.r >= EPS_SPAN for step in record.steps)
        d = [record.initial_energy] + record.residual_energies()
        for i, step in enumerate(record.steps):
            assert abs(d[i] - d[i + 1] - abs(step.coeff) ** 2) < 1e-10

    @pytest.mark.parametrize("dictionary", [
        SzegoDictionary1D(8, GridSpec(radial_count=6, angular_count=12, refine_levels=0, max_radius=0.8)),
        ProductSzegoDictionary2D(3, GridSpec(radial_count=3, angular_count=6, refine_levels=0, max_radius=0.8)),
    ], ids=["1d", "2d"])
    def test_runs_past_the_dimension_stop_at_it(self, dictionary, tmp_path):
        # dim steps span the truncated space, so a run asked for more stops
        # there instead of finding no usable atom; its record verifies and
        # reconstructs the input
        f = (random_hardy_1d(5, 8) if dictionary.dim == 9 else random_hardy_2d(5, 3)).data.ravel()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            record = poga_decompose(f, dictionary.dim + 3, dictionary, threshold=0)
            assert len(record.steps) == dictionary.dim
            assert record.steps[-1].residual_energy <= 1e-24 * record.initial_energy
            np.testing.assert_allclose(reconstruct_poga(record, dictionary), f, rtol=0, atol=1e-12)
            grid = dictionary.grid
            meta = [("algorithm", "poga1d" if dictionary.dim == 9 else "poga2d"), ("order", str(dictionary.order)),
                    ("samples", "32"), ("grid_radial", str(grid.radial_count)),
                    ("grid_angular", str(grid.angular_count)), ("refine_levels", "0"),
                    ("max_radius", str(grid.max_radius)), ("rho", "1")]
            save_record(RecordFile(meta, [encode_section("main", meta[0][1], record)]), tmp_path / "dim.rec")
            assert all(check.ok for check in verify_record(load_record(tmp_path / "dim.rec")))

    def test_reconstruction_matches_remainder(self, dict1d):
        f = random_hardy_1d(90, ORDER)
        record = poga_decompose(f.data, 6, dict1d)
        recon = reconstruct_poga(record, dict1d)
        assert np.linalg.norm(f.data - recon) ** 2 == pytest.approx(
            record.steps[-1].residual_energy, abs=1e-8
        )


class TestBaseIndex:
    """``base_index`` finds a parameter from its ring and angle, as a dict of the grid points does."""

    GRIDS = [
        GridSpec(radial_count=4, angular_count=8, refine_levels=0, max_radius=0.4),
        GridSpec(radial_count=24, angular_count=48, max_radius=0.85),
        GridSpec(radial_count=48, angular_count=96, max_radius=0.95),
        GridSpec(radial_count=1, angular_count=1, max_radius=0.5),
    ]

    @staticmethod
    def points(params, seed):
        """Every grid point, then each nudged by an ulp, random points of the disc and signed zeros."""
        rng = np.random.default_rng(seed)
        nudged = [np.nextafter(params.real, 1.0) + 1j * params.imag, params.real + 1j * np.nextafter(params.imag, -1.0)]
        disc = 0.99 * rng.uniform(0.0, 1.0, 50) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 50))
        zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(np.nan, 0.0)]
        return [complex(a) for a in np.concatenate([params, *nudged, disc, zeros])]

    @pytest.mark.parametrize("grid_index", range(4))
    def test_1d_lookup_matches_a_dict(self, grid_index):
        dictionary = SzegoDictionary1D(8, self.GRIDS[grid_index])
        reference = {complex(p): i for i, p in enumerate(dictionary.params)}
        for a in self.points(dictionary.params, grid_index):
            assert dictionary.base_index(AtomSpec(a)) == reference.get(a)
            assert dictionary.base_index(AtomSpec(a, 2)) is None

    @pytest.mark.parametrize("grid_index", range(4))
    def test_2d_lookup_matches_a_dict(self, grid_index):
        dictionary = ProductSzegoDictionary2D(4, self.GRIDS[grid_index])
        reference = {complex(p): i for i, p in enumerate(dictionary.params)}
        size = dictionary.params.size
        points = self.points(dictionary.params, grid_index)
        rng = np.random.default_rng(grid_index)
        for a, b in zip(points, rng.permutation(points)):
            ia, ib = reference.get(a), reference.get(complex(b))
            want = None if ia is None or ib is None else ia * size + ib
            assert dictionary.base_index(TensorAtomSpec.of(a, b)) == want
            assert dictionary.base_index(TensorAtomSpec.of(a, b, 2, 1)) is None
            assert dictionary.base_index(TensorAtomSpec.of(a, b, 1, 3)) is None
        for i in rng.choice(size**2, 50):
            assert dictionary.base_index(dictionary.base_spec(i)) == i


class TestRateReport:
    def test_orthogonal_selection_bound_reduces(self):
        """When every candidate stays orthogonal to the frame (r = 1
        throughout), the bound is plain M / sqrt(m)."""
        from afdkit import Record, Step

        coeffs = np.array([1.0, 0.5, 0.3, 0.2])
        M = float(np.sum(coeffs))
        energy = float(np.sum(coeffs**2))
        record = Record(initial_energy=energy, rho=1.0)
        remaining = energy
        for m, c in enumerate(sorted(coeffs)[::-1], start=1):
            remaining -= c * c
            record.steps.append(
                Step(
                    atom=AtomSpec(0.0, m),
                    coeff=complex(c),
                    r=1.0,
                    r_sup=1.0,
                    residual_energy=remaining,
                )
            )
        report = rate_report(record, M)
        for row in report.rows:
            assert row.bound == pytest.approx(M / np.sqrt(row.m), rel=1e-12)
            assert row.slack >= 0
        assert report.ok

    def test_running_max_pins_bound_at_one(self, dict1d):
        """The first scan sees an empty frame, so the running residual-norm
        maximum is 1 and real runs inherit the M / sqrt(m) bound."""
        specs = [AtomSpec(0.0, m) for m in range(1, 5)]
        coeffs = np.array([1.0, 0.5, 0.3, 0.2])
        f = np.zeros(ORDER + 1, dtype=complex)
        for c, s in zip(coeffs, specs):
            f += c * normalized_atom_coeffs(s, ORDER).data
        record = poga_decompose(f, 4, dict1d, synthesis=specs)
        assert all(abs(v - 1.0) < 1e-9 for v in accumulate((s.r_sup for s in record.steps), max))
        report = rate_report(record, float(np.sum(coeffs)))
        assert report.ok

    @pytest.mark.parametrize("rho", [1.0, 0.7])
    def test_synthetic_runs_meet_bound(self, rho, dict1d):
        from afdkit.cli import synth_signal_1d

        for seed in range(3):
            f, params, _ = synth_signal_1d(ORDER, 10, 2.0, GRID, seed)
            record = poga_decompose(
                f.data, 15, dict1d, rho=rho, synthesis=[AtomSpec(a) for a in params]
            )
            report = rate_report(record, 2.0)
            assert report.ok
            assert all(row.slack >= 0 for row in report.rows)
            assert report.recurrence_ok and report.conclusion_ok

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.integers(6, 24),
        radial=st.integers(1, 4),
        angular=st.integers(3, 8),
        max_radius=st.floats(0.3, 0.9),
        rho=st.floats(0.3, 1.0),
        n_atoms=st.integers(1, 5),
        n_terms=st.integers(1, 8),
    )
    def test_2d_synthesis_runs_meet_bound(self, seed, order, radial, angular, max_radius, rho, n_atoms, n_terms):
        # the rate theorem on the 2-torus: f a sum of tensor atoms at grid
        # pairs with coefficient 1-norm M, so ||g_m|| <= R_m M / (rho sqrt(m));
        # a remainder raised to twice its bound is a violation
        rng = np.random.default_rng(seed)
        grid = GridSpec(radial_count=radial, angular_count=angular, refine_levels=0, max_radius=max_radius)
        dictionary = ProductSzegoDictionary2D(order, grid)
        specs = [dictionary.base_spec(i) for i in rng.choice(len(dictionary), n_atoms, replace=False)]
        coeffs = rng.standard_normal(n_atoms) + 1j * rng.standard_normal(n_atoms)
        M = float(np.sum(np.abs(coeffs)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = sum(c * dictionary.atom_vector(spec) for c, spec in zip(coeffs, specs))
            record = poga_decompose(f, n_terms, dictionary, rho=rho, synthesis=specs)
        report = rate_report(record, M)
        assert report.ok and report.recurrence_ok and report.conclusion_ok
        record.steps[-1].residual_energy = (2.0 * report.rows[-1].bound) ** 2
        assert not rate_report(record, M).ok

    @settings(max_examples=200, deadline=None)
    @example(energy=1.0, steps=[(0.5, 1.0), (0.5, 1.0)], M=2.0, rho=1.0)  # the recurrence holds
    @example(energy=1.0, steps=[(0.99, 1.0)], M=1.0, rho=1.0)  # it fails at step 1
    @given(
        energy=st.floats(0.01, 10.0),
        steps=st.lists(st.tuples(st.floats(0.0, 1.2), st.floats(0.05, 1.0)), max_size=12),
        M=st.floats(0.1, 5.0),
        rho=st.floats(0.3, 1.0),
    )
    def test_one_pass_matches_every_pair(self, energy, steps, M, rho):
        # each step's remainder is a drawn fraction of the last one, an increase included
        record = Record(initial_energy=energy, rho=rho)
        d = energy
        for m, (fraction, r_sup) in enumerate(steps, start=1):
            d *= fraction
            record.steps.append(Step(atom=AtomSpec(0.0, m), coeff=0j, r=r_sup, r_sup=r_sup, residual_energy=d))
        assert rate_report(record, M) == reference_rate_report(record, M)

    def test_no_steps_give_no_rows(self):
        from afdkit import Record

        report = rate_report(Record(initial_energy=1.0, rho=1.0), 1.0)
        assert report.rows == [] and report.ok

    def test_violation_detected(self, dict1d):
        from afdkit.cli import synth_signal_1d

        f, params, _ = synth_signal_1d(ORDER, 6, 2.0, GRID, 9)
        record = poga_decompose(f.data, 6, dict1d, synthesis=[AtomSpec(a) for a in params])
        record.steps[2].residual_energy = record.initial_energy * 4.0
        report = rate_report(record, 2.0)
        assert not report.ok


def reference_select(g, frame, dictionary, rho, demoted=frozenset()):
    """The selector as one tuple per qualifying candidate, sorted by (r, order index).

    Kept as the oracle for the array version in ``afdkit.poga._select``.
    A winning grid atom whose direct residual is below EPS_SPAN joins
    ``demoted`` (treated as degenerate) and the selection runs again.
    """
    g = np.asarray(g, dtype=complex).ravel()
    scan = reference_scan_2d if isinstance(dictionary, ProductSzegoDictionary2D) else dense_scan
    gains, _, _, r_sq = scan(dictionary, g, frame)
    r = scan_r(r_sq)
    selected = set(s for s in frame.specs if s is not None)
    structural = set(demoted)
    for s in selected:
        idx = dictionary.base_index(s)
        if idx is not None:
            structural.add(idx)

    usable = r >= EPS_SPAN
    usable[sorted(structural)] = False
    degenerate = np.flatnonzero(~usable).tolist()

    candidates = []  # (gain, r, order_index, spec) of the escalated atoms, which follow the base atoms
    order_index = r.size
    for i in degenerate:
        for esc in _escalated_candidates(dictionary, dictionary.base_spec(i), selected):
            vec = dictionary.atom_vector(esc)
            _, r_esc = frame.project_residual(vec)
            attempts = 0
            while r_esc < EPS_SPAN and attempts < len(frame) - 1:
                ladder = _escalated_candidates(dictionary, esc, selected)
                if not ladder:  # the ladder ends at order + 1
                    break
                esc = ladder[0]
                vec = dictionary.atom_vector(esc)
                _, r_esc = frame.project_residual(vec)
                attempts += 1
            if r_esc < EPS_SPAN:
                continue
            gain = abs(complex(np.vdot(vec, g))) / r_esc
            candidates.append((gain, float(r_esc), order_index, esc))
            order_index += 1

    # tuples only for the base atoms that qualify: a 2-d grid at bench size has 1.3 million
    sup_gain = max([c[0] for c in candidates] + ([float(gains[usable].max())] if usable.any() else []))
    qualifying = [c for c in candidates if c[0] >= rho * sup_gain]
    qualifying += [(float(gains[i]), float(r[i]), int(i), None) for i in np.flatnonzero(usable & (gains >= rho * sup_gain))]
    qualifying.sort(key=lambda c: (c[1], c[2]))
    gain, r_sel, idx, spec = qualifying[0]
    if spec is None:
        spec = dictionary.base_spec(idx)
        if frame.project_residual(dictionary.atom_vector(spec))[1] < EPS_SPAN:
            return reference_select(g, frame, dictionary, rho, demoted | {idx})
    return spec, r_sel, gain, sup_gain, float(np.max(r))


def bits(x):
    return np.float64(x).tobytes()


SMALL_1D = SzegoDictionary1D(
    32, GridSpec(radial_count=6, angular_count=12, refine_levels=0, max_radius=0.6)
)
SMALL_2D = ProductSzegoDictionary2D(
    16, GridSpec(radial_count=3, angular_count=8, refine_levels=0, max_radius=0.5)
)


def _seeded_run(dictionary, seed):
    """A remainder and a frame that already holds a grid atom and its escalations."""
    rng = np.random.default_rng(seed)
    frame = OrthoFrame(dictionary.dim)
    spec = dictionary.base_spec(int(rng.integers(len(dictionary))))
    for s in [spec] + dictionary.escalations(spec):
        frame.extend(dictionary.atom_vector(s), spec=s)
    f = np.zeros(dictionary.dim, dtype=complex)
    for i in rng.choice(len(dictionary), size=2, replace=False):
        spec = dictionary.base_spec(int(i))
        c = rng.standard_normal() + 1j * rng.standard_normal()
        f += c * dictionary.atom_vector(spec)
        for esc in dictionary.escalations(spec):
            f += 0.3 * c * dictionary.atom_vector(esc)
    f += 1e-3 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
    return frame.project_residual(f)[0], frame


class TestSelectorOracle:
    """The array selector picks what the tuple-and-sort oracle picks, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rho=st.sampled_from([1.0, 0.8, 0.5, 0.2]),
        two_d=st.booleans(),
    )
    def test_matches_reference_over_a_run(self, seed, rho, two_d):
        dictionary = SMALL_2D if two_d else SMALL_1D
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g, frame = _seeded_run(dictionary, seed)
            for _ in range(6):
                spec = select_as_reference(g, frame, dictionary, rho).atom
                try:
                    vec, _ = frame.extend(dictionary.atom_vector(spec), spec=spec)
                except SpanDegeneracyError:
                    break
                g = g - np.vdot(vec, g) * vec


class _FixedScan:
    """Specs are grid indices and the scan scores given inner products and r.

    A last grid entry with r = 0 escalates to one atom whose residual
    against the frame ``[1, 0]`` is ``r_esc``.
    """

    dim = 2

    def __init__(self, inner, r, r_esc):
        self.inner, self.r_sq = np.array(inner + (0.0,)), np.square(r + (0.0,))
        assert scan_r(self.r_sq).tobytes() == np.array(r + (0.0,)).tobytes()  # the selector sees r
        self.esc_vector = np.array([np.sqrt(1.0 - r_esc**2), r_esc], dtype=complex)

    def scan(self, g, frame, reduction, state=None):
        reduction.span(0, self.r_sq)
        reduction.add(0, self.inner.copy(), self.r_sq)
        return self.r_sq, reduction

    def base_spec(self, i):
        return int(i)

    def base_index(self, spec):
        return None

    def escalations(self, spec):
        return [("escalated", spec)]

    def atom_vector(self, spec):
        return self.esc_vector


TIE_VALUES = st.sampled_from([0.25, 0.5, 1.0])


class TestSelectorTies:
    @settings(max_examples=100, deadline=None)
    @given(
        entries=st.lists(st.tuples(TIE_VALUES, TIE_VALUES), min_size=1, max_size=12),
        r_esc=TIE_VALUES,
        gain_esc=TIE_VALUES,
        rho=st.sampled_from([1.0, 0.8, 0.5, 0.2]),
    )
    def test_ties_in_r_go_to_the_earlier_candidate(self, entries, r_esc, gain_esc, rho):
        inner, r = zip(*entries)
        dictionary = _FixedScan(inner, r, r_esc)
        frame = OrthoFrame(2)
        frame.extend(np.array([1.0, 0.0]), spec="frame")
        g = np.array([0.0, gain_esc])
        outcome, sup_gain, sup_r = _select(g, frame, dictionary, rho)
        assert (outcome.atom, outcome.r, outcome.gain, sup_gain, sup_r) == reference_select(
            g, frame, dictionary, rho
        )


class _LadderScan(_FixedScan):
    """A usable grid atom of gain 0.5 and one in the span, whose ladder stays there through rung ``top``."""

    dim = 8

    def __init__(self, top):
        super().__init__((0.5,), (1.0,), 1.0)
        self.top = top

    def base_spec(self, i):
        return (int(i), 1)

    def escalations(self, spec):
        return [(spec[0], spec[1] + 1)]

    def atom_vector(self, spec):
        rows = np.eye(self.dim, dtype=complex)
        if spec[0] == 0:  # the usable grid atom
            return rows[-2]
        return rows[0] if spec[1] <= self.top else rows[-1]


@pytest.mark.parametrize("rows", [1, 3, 5])
def test_ladder_walk_tries_as_many_rungs_as_the_frame_has_rows(rows):
    # rungs 2 .. rows + 1 are tried; a ladder still in the span there counts as in it
    frame = OrthoFrame(_LadderScan.dim)
    for k in range(rows):
        frame.extend(np.eye(_LadderScan.dim, dtype=complex)[k], spec=("frame", k))
    g = np.eye(_LadderScan.dim, dtype=complex)[-1]
    assert _select(g, frame, _LadderScan(rows), 1.0)[0].atom == (1, rows + 1)
    assert _select(g, frame, _LadderScan(rows + 1), 1.0)[0].atom == (0, 1)


class TestReductionInBlocks:
    """The running reduction answers as the whole table would, at any floor the selection may set."""

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(st.tuples(TIE_VALUES, st.sampled_from([0.0, 0.25, 0.5, 1.0])), min_size=1, max_size=40),
        cuts=st.lists(st.integers(1, 39), max_size=6),
        excluded=st.sets(st.integers(0, 39), max_size=5),
        rho=st.sampled_from([1.0, 0.8, 0.5, 0.2]),
        escalated=st.sampled_from([0.0, 0.5, 2.0, 8.0]),
        skipped=st.sets(st.integers(0, 6), max_size=4),
    )
    def test_matches_the_whole_table(self, entries, cuts, excluded, rho, escalated, skipped):
        inner, r = (np.array(values) for values in zip(*entries))
        excluded = {i for i in excluded if i < r.size}
        with np.errstate(divide="ignore"):
            gain = inner / r
        degenerate = r < EPS_SPAN
        degenerate[sorted(excluded)] = True
        gain[degenerate] = -np.inf
        usable = not degenerate.all()

        # every block is spanned; as the 2-d scan does, ``add`` may leave out
        # the blocks whose gains are all below rho times the top
        reduction = _Reduction(rho, excluded)
        bounds = sorted({0, r.size, *(c for c in cuts if c < r.size)})
        for lo, hi in zip(bounds, bounds[1:]):
            reduction.span(lo, np.square(r[lo:hi]))
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if k not in skipped or not np.all(gain[lo:hi] < rho * gain.max()):
                reduction.add(lo, inner[lo:hi].copy(), np.square(r[lo:hi]))
        assert np.concatenate(reduction.degenerate).tolist() == np.flatnonzero(degenerate).tolist()
        assert reduction.sup_r == r.max() and reduction.top == (gain.max() if usable else -np.inf)

        # the selection's floor: rho times the larger of the top and an escalated gain
        floor = rho * max([escalated] + ([gain.max()] if usable else []))
        qualifying = np.flatnonzero(gain >= floor)
        index, gains, rs = reduction.kept
        hits = np.flatnonzero(gains >= floor)
        assert bool(hits.size) == bool(qualifying.size)
        if qualifying.size:
            first = qualifying[np.lexsort((qualifying, r[qualifying]))[0]]
            assert (index[hits[0]], gains[hits[0]], rs[hits[0]]) == (first, gain[first], r[first])

    def test_a_block_before_the_end_of_the_last_is_rejected(self):
        # the kept entries order equal r by index only when blocks come in ascending order
        reduction = _Reduction(0.5)
        r_sq = np.full(6, 0.25)
        reduction.span(0, r_sq)
        reduction.add(2, np.ones(2), r_sq[2:4])
        for start in (0, 3):
            with pytest.raises(ValueError):
                reduction.add(start, np.ones(2), r_sq[start : start + 2])
        reduction.add(4, np.ones(2), r_sq[4:])
        assert reduction.kept[0].tolist() == [2]


@pytest.mark.parametrize("nudge", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("around", [EPS_SPAN**2, R2_SPAN])
def test_r2_span_marks_what_eps_span_marks(around, nudge):
    # the degenerate test on r^2 and sup r = sqrt(max(0, max r^2)) give the
    # bits of the test on r = sqrt(clip(r^2, 0)) and of max r, and
    # np.maximum the bits of np.clip
    values = np.array([0.0, -0.0, -1e-300, -R2_SPAN, -1.0, around])
    for _ in range(abs(nudge)):
        values[-1] = np.nextafter(values[-1], np.sign(nudge) * np.inf)
    r = np.sqrt(np.clip(values, 0.0, None))
    assert np.sqrt(np.maximum(values, 0.0)).tobytes() == r.tobytes()
    assert ((values < R2_SPAN) == (r < EPS_SPAN)).all()
    for value in values:
        reduction = _Reduction(1.0)
        reduction.span(0, np.array([value]))
        assert bits(reduction.sup_r) == bits(max(0.0, float(np.sqrt(np.clip(value, 0.0, None)))))
    assert np.sqrt(np.nextafter(R2_SPAN, 0.0)) < EPS_SPAN <= np.sqrt(R2_SPAN)


MID_2D = ProductSzegoDictionary2D(
    8, GridSpec(radial_count=3, angular_count=43, refine_levels=0, max_radius=0.5)
)


@pytest.mark.parametrize("rho", [1.0, 0.5, 0.2])
def test_selection_over_two_row_blocks_matches_the_oracle(rho):
    # P = 130 grid points, so the rows of pairs go in two blocks of 65
    state = ScanState()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, frame = _seeded_run(MID_2D, 3)
        for _ in range(4):
            spec = select_as_reference(g, frame, MID_2D, rho, state).atom
            vec, _ = frame.extend(MID_2D.atom_vector(spec), spec=spec)
            g = g - np.vdot(vec, g) * vec


def parts_bytes(parts):
    """Bytes of what a 2-d scan reports of every pair: r^2, the degenerate indices and sup r.

    The scan forms the inner products afresh from the remainder, so two
    scans with the bits of r^2 have those of the gains as well.
    """
    r_sq, degenerate, sup_r = parts
    return r_sq.tobytes(), np.asarray(degenerate, dtype=np.intp).tobytes(), np.float64(sup_r).tobytes()


def reference_parts(dictionary, g, frame):
    """``scan_parts`` from ``reference_scan_2d``."""
    _, degenerate, sup_r, r_sq = reference_scan_2d(dictionary, g, frame)
    return r_sq, np.flatnonzero(degenerate), sup_r


def select_as_reference(g, frame, dictionary, rho=1.0, state=None):
    """``_select`` with ``state``, checked bit for bit against ``reference_select``; returns its outcome."""
    outcome, sup_gain, sup_r = _select(g, frame, dictionary, rho, state)
    spec, r, gain, ref_sup_gain, ref_sup_r = reference_select(g, frame, dictionary, rho)
    assert outcome.atom == spec
    assert bits(outcome.r) == bits(r) and bits(outcome.gain) == bits(gain)
    assert bits(sup_gain) == bits(ref_sup_gain) and bits(sup_r) == bits(ref_sup_r)
    return outcome


class TestIncrementalScan2D:
    def test_cached_r_equals_full_scan(self):
        dictionary = SMALL_2D
        state = ScanState()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g, frame = _seeded_run(dictionary, 11)
            for step in range(8):
                if step == 4:
                    frame.reorthogonalize()
                result = parts_bytes(scan_parts(dictionary, g, frame, state))
                assert result == parts_bytes(scan_parts(dictionary, g, frame))
                assert result == parts_bytes(reference_parts(dictionary, g, frame))
                assert state.rows == len(frame)
                outcome = select_as_reference(g, frame, dictionary, state=state)
                vec, _ = frame.extend(dictionary.atom_vector(outcome.atom), spec=outcome.atom)
                g = g - np.vdot(vec, g) * vec
        assert frame.reorthogonalizations >= 1


def _step(g, frame, dictionary, state):
    """One pre-orthogonal step as poga_decompose takes it; returns the new remainder."""
    outcome, _, _ = _select(g, frame, dictionary, 1.0, state)
    vec, _ = frame.extend(dictionary.atom_vector(outcome.atom), spec=outcome.atom)
    return g - complex(np.vdot(vec, g)) * vec


class TestCarriedTable2D:
    """A stateful 2-d scan after a re-orthogonalization and on another remainder.

    The scan carries only r^2; the inner products are formed afresh at
    every call, so a stateful scan has the bits of a stateless one.
    """

    def test_reorthogonalized_frame_restarts_the_table(self):
        state = ScanState()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g, frame = _seeded_run(SMALL_2D, 6)
            for _ in range(3):
                scan_parts(SMALL_2D, g, frame, state)
                g = _step(g, frame, SMALL_2D, state)
            frame.reorthogonalize()
            result = parts_bytes(scan_parts(SMALL_2D, g, frame, state))
            select_as_reference(g, frame, SMALL_2D, state=state)
        assert result == parts_bytes(scan_parts(SMALL_2D, g, frame))
        assert result == parts_bytes(reference_parts(SMALL_2D, g, frame))
        assert state.epoch == 1 and state.rows == len(frame)

    def test_other_remainder_falls_back_to_the_full_product(self):
        state = ScanState()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g, frame = _seeded_run(SMALL_2D, 7)
            for _ in range(3):
                scan_parts(SMALL_2D, g, frame, state)
                g = _step(g, frame, SMALL_2D, state)
            # the projected update with a rounding-level change, then a new signal
            for other in (g * (1.0 + 2.0**-52), frame.project_residual(_seeded_run(SMALL_2D, 8)[0])[0]):
                result = parts_bytes(scan_parts(SMALL_2D, other, frame, state))
                assert result == parts_bytes(scan_parts(SMALL_2D, other, frame))
                assert result == parts_bytes(reference_parts(SMALL_2D, other, frame))
                select_as_reference(other, frame, SMALL_2D, state=state)


def reference_scan_2d(dictionary, g, frame):
    """The unblocked 2-d scan: whole P x P products for the inner products and each frame row.

    Its factor rows A are sqrt(1-|a|^2) conj(a)^k, the conjugates of the
    grid's kernel rows K: the values |A conj(G) A^T| are the conjugate
    arithmetic of |K G K^T|, and r^2 starts at the squared row norms of A.
    """
    params, k = dictionary.params, np.arange(dictionary.order + 1)
    side = k.size
    A = np.sqrt(1.0 - np.abs(params) ** 2)[:, None] * np.conj(params)[:, None] ** k[None, :]
    norms_sq = np.sum(np.abs(A) ** 2, axis=1)
    r_sq = np.outer(norms_sq, norms_sq)
    for row in frame.matrix:
        r_sq -= np.abs(A @ np.conj(row.reshape(side, side)) @ A.T) ** 2
    r = scan_r(r_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.abs(A @ np.conj(g.reshape(side, side)) @ A.T) / r
    return gain.ravel(), (r < EPS_SPAN).ravel(), float(r.max()), r_sq.ravel()


def test_blocked_scan_equals_the_unblocked_scan():
    # P = 1,153 rows of pairs in 10 blocks of 115 or 116 rows, with the
    # rows of r^2 carried over three steps
    grid = GridSpec(radial_count=24, angular_count=48, max_radius=0.85)
    dictionary = ProductSzegoDictionary2D(32, grid)
    size = dictionary.params.size
    state, frame = ScanState(), OrthoFrame(dictionary.dim)
    g = random_hardy_2d(5, 32).data.ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in map(dictionary.base_spec, (3, 600 * size + 77, 1152 * size + 1152)):
            blocked = parts_bytes(scan_parts(dictionary, g, frame, state))
            assert blocked == parts_bytes(reference_parts(dictionary, g, frame))
            select_as_reference(g, frame, dictionary, state=state)
            vec, _ = frame.extend(dictionary.atom_vector(spec), spec=spec)
            g = g - np.vdot(vec, g) * vec


class TestRowBounds:
    """The row bounds of the 2-d scan's first pass against the gains of the unblocked scan."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.one_of(st.integers(0, 6), st.integers(16, 40)),  # below and above the screen's rank
        kind=st.sampled_from(["random", 1, 2, 3, "zero"]),
        scale=st.sampled_from([1e-200, 1e-30, 1.0, 1e30]),
        rows=st.integers(0, 4),
        full_row=st.booleans(),
        angular=st.integers(11, 20),
        max_radius=st.sampled_from([0.3, 0.6, 0.9]),
    )
    def test_bounds_every_row(self, seed, order, kind, scale, rows, full_row, angular, max_radius):
        # P = 3 angular + 1 > PAIR_SEEDS + 1 points, so the scan screens its rows
        dictionary = ProductSzegoDictionary2D(
            order, GridSpec(radial_count=3, angular_count=angular, refine_levels=0, max_radius=max_radius)
        )
        size = dictionary.params.size
        assert size > PAIR_SEEDS + 1
        rng = np.random.default_rng(seed)
        excluded = set()
        if full_row and order < 4:
            # the N + 1 atoms e_a (x) e_b span e_a (x) H_N, so all of row a lies in the frame's span;
            # its r^2 is at the rounding floor, and the row is excluded so that all of it is degenerate
            a = int(rng.integers(size))
            specs = [dictionary.base_spec(a * size + b) for b in rng.choice(size, order + 1, replace=False)]
            excluded = set(range(a * size, (a + 1) * size))
        else:
            specs = []
            for _ in range(rows):  # each atom an escalation of the last, or a new base atom
                up = dictionary.escalations(specs[-1]) if specs and rng.random() < 0.5 else []
                specs.append(up[int(rng.integers(len(up)))] if up else dictionary.base_spec(int(rng.integers(size**2))))
        frame = OrthoFrame(dictionary.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for spec in specs:
                try:
                    frame.extend(dictionary.atom_vector(spec), spec=spec)
                except SpanDegeneracyError:
                    pass
            g = np.zeros(dictionary.dim, dtype=complex)
            if kind == "random":
                g = random_hardy_2d(seed, order).data.ravel()
            elif kind != "zero":
                for _ in range(kind):
                    a, b = 0.95 * rng.uniform(0.0, 1.0, 2) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2))
                    c = rng.standard_normal() + 1j * rng.standard_normal()
                    g += c * tensor_atom_coeffs(TensorAtomSpec.of(complex(a), complex(b)), order).data.ravel()
        g = scale * g
        excluded |= {dictionary.base_index(s) for s in frame.specs} - {None}
        reduction = _Reduction(1.0, excluded)
        _, bound, _ = dictionary._bounds(g, frame, reduction, ScanState())
        gain, degenerate, _, _ = reference_scan_2d(dictionary, g, frame)
        degenerate[sorted(excluded)] = True
        assert np.concatenate(reduction.degenerate).tolist() == np.flatnonzero(degenerate).tolist()
        if bound is None:  # no screen, for a zero or extreme remainder: every row is scored
            assert not 2.0**-500 < np.abs(g).max() < 2.0**500
            return
        gain = np.where(degenerate, -np.inf, gain).reshape(size, size)
        assert np.all(np.isfinite(bound)) and np.all(bound >= gain.max(axis=1))
        assert np.all(bound[degenerate.reshape(size, size).all(axis=1)] == 0.0)


class _ScreenedDictionary(ProductSzegoDictionary2D):
    """Scans an empty frame as a frame of one zero row, so through the screen with the bits of r^2."""

    def _bounds(self, g, frame, reduction, state):
        if len(frame):
            return super()._bounds(g, frame, reduction, state)
        zero = OrthoFrame(self.dim)
        zero.matrix = np.zeros((1, self.dim), dtype=complex)
        bounds = super()._bounds(g, zero, reduction, state)
        state.rows = 0  # the zero row was never the frame's
        return bounds


class TestEmptyFrameBound:
    """The ring-majorant row bounds of a 2-d scan whose frame is empty, against the dense gains."""

    @staticmethod
    def signal(dictionary, seed, kind, on_grid):
        """A random block, or 1-3 tensor atoms at grid points or anywhere in the disc."""
        rng = np.random.default_rng(seed)
        if kind == "random":
            return random_hardy_2d(seed, dictionary.order).data.ravel()
        g = np.zeros(dictionary.dim, dtype=complex)
        for _ in range(kind):
            if on_grid:
                a, b = dictionary.params[rng.integers(dictionary.params.size, size=2)]
            else:
                a, b = 0.95 * rng.uniform(0.0, 1.0, 2) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2))
            c = rng.standard_normal() + 1j * rng.standard_normal()
            g += c * tensor_atom_coeffs(TensorAtomSpec.of(complex(a), complex(b)), dictionary.order).data.ravel()
        return g

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.integers(0, 64),
        kind=st.sampled_from(["random", 1, 2, 3]),
        on_grid=st.booleans(),
        scale=st.sampled_from([1e-200, 1e-30, 1.0, 1e30, 1e200]),
        angular=st.integers(11, 20),
        max_radius=st.sampled_from([0.3, 0.6, 0.9]),
    )
    def test_bounds_every_row(self, seed, order, kind, on_grid, scale, angular, max_radius):
        # P = 3 angular + 1 > PAIR_SEEDS + 1 points, so the scan bounds its rows
        dictionary = ProductSzegoDictionary2D(
            order, GridSpec(radial_count=3, angular_count=angular, refine_levels=0, max_radius=max_radius)
        )
        size = dictionary.params.size
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = scale * self.signal(dictionary, seed, kind, on_grid)
        frame = OrthoFrame(dictionary.dim)
        _, bound, _ = dictionary._bounds(g, frame, _Reduction(1.0), ScanState())
        gain, degenerate, _, _ = reference_scan_2d(dictionary, g, frame)
        assert not degenerate.any()
        assert bound.shape == (size,) and np.all(np.isfinite(bound))
        assert np.all(bound >= gain.reshape(size, size).max(axis=1))

    @pytest.mark.parametrize("order", [8, 64])
    def test_atoms_on_the_grid_meet_their_bound(self, order):
        # a lone tensor atom at grid points meets the majorant of its row up
        # to rounding, on every ring, so its bound is its gain times
        # sqrt(n_b / min n) up to rounding; at order 64 and radius 0.6
        # every truncated kernel keeps its norm, n = 1, and the bound is the
        # gain itself
        dictionary = ProductSzegoDictionary2D(order, GridSpec(radial_count=3, angular_count=12, max_radius=0.6))
        size = dictionary.params.size
        frame = OrthoFrame(dictionary.dim)
        for ia in range(size):
            ib = (5 * ia + 3) % size
            spec = TensorAtomSpec.of(complex(dictionary.params[ia]), complex(dictionary.params[ib]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                g = tensor_atom_coeffs(spec, order).data.ravel()
            _, bound, _ = dictionary._bounds(g, frame, _Reduction(1.0), ScanState())
            gain, _, _, r_sq = reference_scan_2d(dictionary, g, frame)
            gain, r_sq = gain.reshape(size, size), r_sq.reshape(size, size)
            assert np.all(bound >= gain.max(axis=1))
            assert bound[ia] <= gain[ia, ib] * np.sqrt(r_sq[ia, ib] / r_sq[ia].min()) * (1.0 + 1e-6)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.integers(0, 24),
        kind=st.sampled_from(["random", 1, 2, 3]),
        on_grid=st.booleans(),
        rho=st.sampled_from([1.0, 0.7, 0.5]),
    )
    def test_picks_match_a_screened_run(self, seed, order, kind, on_grid, rho):
        grid = GridSpec(radial_count=3, angular_count=12, refine_levels=0, max_radius=0.9)
        dictionary, screened = ProductSzegoDictionary2D(order, grid), _ScreenedDictionary(order, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = self.signal(dictionary, seed, kind, on_grid)
            runs = [poga_decompose(g, 3, d, rho=rho) for d in (dictionary, screened)]
        assert [(s.atom, bits(s.coeff.real), bits(s.coeff.imag), bits(s.r)) for s in runs[0].steps] == [
            (s.atom, bits(s.coeff.real), bits(s.coeff.imag), bits(s.r)) for s in runs[1].steps
        ]


def test_bench_size_step_peak_memory():
    """A poga2d step at bench size holds only r^2 for all pairs.

    That is 8 bytes per pair, plus one block workspace of at most 80 bytes
    per pair of a ``PAIR_BLOCK``-row block (the products, absolute values,
    r, gain, masks and kept entries of the block) and one P x (N + 1)
    complex product of the kernel rows for the remainder and for each frame
    row.  A scan that also held the gain and the mask for all pairs would
    need 17 bytes per pair, and one of the whole table W, |W|, r^2, r and
    the gain 48.  The grid's kernel rows are cached outside the
    measurement; the state is fresh, so r^2 is counted.
    """
    grid = GridSpec(radial_count=24, angular_count=48, max_radius=0.85)
    dictionary = ProductSzegoDictionary2D(64, grid)
    size = dictionary.params.size
    frame = OrthoFrame(dictionary.dim)
    for i in (100, 777 * size + 5):
        frame.extend(dictionary.atom_vector(dictionary.base_spec(i)), spec=dictionary.base_spec(i))
    g = frame.project_residual(random_hardy_2d(3, 64).data)[0]
    _select(g, frame, dictionary, 1.0)  # fills the grid's kernel-row cache outside the measurement
    bound = 8 * size**2 + 80 * PAIR_BLOCK * size + 16 * size * 65 * (len(frame) + 1) + 2**20
    tracemalloc.start()
    try:
        _select(g, frame, dictionary, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound < 32 * size**2


class _ConfirmScan(_FixedScan):
    """Grid atom 0 scans at r just above EPS_SPAN but lies in the span of the frame ``[1, 0]``."""

    def atom_vector(self, spec):
        if spec == 0:
            return np.array([1.0, 0.5 * EPS_SPAN], dtype=complex)
        return self.esc_vector


class TestSelectorConfirmation:
    def test_grid_winner_inside_the_span_escalates(self):
        dictionary = _ConfirmScan((1.0, 0.1), (1.05 * EPS_SPAN, 0.5), 0.5)
        frame = OrthoFrame(2)
        frame.extend(np.array([1.0, 0.0]), spec="frame")
        outcome, _, _ = _select(np.array([0.0, 1.0]), frame, dictionary, 0.5)
        assert outcome.atom == ("escalated", 0)
        assert outcome.r == pytest.approx(0.5)


def reference_scan_1d(dictionary, g, frame):
    """The dense scan the ring-FFT one replaced: one coefficient row per base atom.

    Rows w conj(a)^k, w = sqrt(1-|a|^2), give |<g, atom>| = |conj(row) @ g|
    and r^2 = ||row||^2 - sum_j |row @ conj(B_j)|^2.
    """
    params = dictionary.params
    k = np.arange(dictionary.order + 1)
    base = np.sqrt(1.0 - np.abs(params) ** 2)[:, None] * np.conj(params)[:, None] ** k[None, :]
    inner = np.abs(np.conj(base) @ g)
    r_sq = np.sum(np.abs(base) ** 2, axis=1)
    if len(frame):
        r_sq = r_sq - np.sum(np.abs(base @ np.conj(frame.matrix).T) ** 2, axis=1)
    return inner, np.sqrt(np.clip(r_sq, 0.0, None))


# Tolerances of the ring-FFT 1-d scan against reference_scan_1d: |<g, atom>|
# within SCAN_INNER_TOL * sum_k |g_k| |a|^k; r^2 within SCAN_R_SQ_TOL, so r
# within its square root, 1.4e-7, at the cancellation floor.  Gains are
# compared only for atoms with r >= SCAN_GAIN_MIN_R: below it the r^2 error
# is no longer small against r^2, and an atom at the floor (r ~ 1e-8) has a
# gain that is rounding noise in both scans.
SCAN_INNER_TOL = 1e-12
SCAN_R_SQ_TOL = 2e-14
SCAN_GAIN_MIN_R = 1e-2


class TestScan1DOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        order=st.integers(0, 300),
        below=st.booleans(),
        data=st.data(),
        radial=st.integers(1, 6),
        max_radius=st.floats(0.2, 0.97),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_dense_scan(self, order, below, data, radial, max_radius, seed):
        if below and order:
            angular = data.draw(st.integers(1, order), label="angular below order+1")
        else:
            angular = data.draw(st.integers(order + 2, order + 40), label="angular above order+1")
        grid = GridSpec(radial_count=radial, angular_count=angular, refine_levels=0, max_radius=max_radius)
        dictionary = SzegoDictionary1D(order, grid)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(dictionary.dim) + 1j * rng.standard_normal(dictionary.dim)
        frame, spec, state = OrthoFrame(dictionary.dim), None, ScanState()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(data.draw(st.integers(0, 6), label="frame rows")):
                dictionary._inner_r_sq(g, frame, state)
                if spec is not None and rng.random() < 0.4:
                    spec = AtomSpec(spec.a, spec.m + 1)  # escalated atom
                else:
                    spec = dictionary.base_spec(int(rng.integers(len(dictionary))))
                if spec in frame.specs:
                    continue
                try:
                    frame.extend(dictionary.atom_vector(spec), spec=spec)
                except (SpanDegeneracyError, DomainError):
                    spec = None
        g = frame.project_residual(g)[0]

        inner, r_sq = dictionary._inner_r_sq(g, frame, ScanState())
        r = scan_r(r_sq)
        r_state = scan_r(dictionary._inner_r_sq(g, frame, state)[1])
        assert r_state.tobytes() == r.tobytes()  # rows added one by one
        inner_ref, r_ref = reference_scan_1d(dictionary, g, frame)
        scale = (np.abs(dictionary.params)[:, None] ** np.arange(order + 1)) @ np.abs(g)
        assert np.all(np.abs(inner - inner_ref) <= SCAN_INNER_TOL * scale)
        assert np.all(np.abs(r**2 - r_ref**2) <= SCAN_R_SQ_TOL)
        assert np.all(np.abs(r - r_ref) <= np.sqrt(SCAN_R_SQ_TOL))

        resolved = (r_ref >= SCAN_GAIN_MIN_R) & (r >= SCAN_GAIN_MIN_R)
        for s in frame.specs:
            idx = dictionary.base_index(s)
            if idx is not None:
                resolved[idx] = False
        gain_ref = np.where(resolved, inner_ref / np.where(resolved, r_ref, 1.0), -np.inf)
        gain = np.where(resolved, inner / np.where(resolved, r, 1.0), -np.inf)
        top = np.sort(gain_ref[resolved])[::-1]
        if top.size >= 2 and top[0] - top[1] > 1e-9 * top[0]:
            assert np.argmax(gain) == np.argmax(gain_ref)
