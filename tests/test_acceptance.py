"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one summary line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them.  Tolerances are asserted; the elapsed time per criterion
is printed for comparison against the intended budgets.
"""

import time

import numpy as np
import pytest

from afdkit import (
    AtomSpec,
    FourierCoeffs2D,
    GridSpec,
    OrthoFrame,
    SzegoDictionary1D,
    TensorAtomSpec,
    afd2d_tm_decompose,
    afd_decompose_1d,
    grid_argmax,
    grid_points,
    msp_1d,
    msp_product_tm,
    pga_decompose,
    pga_step,
    poga_decompose,
    quadrant_split,
    rate_report,
    szego_coeffs,
    tensor_atom_coeffs,
    tm_matrix,
)
from afdkit.cli import cli_main, synth_signal_1d
from afdkit.hardy import eval_series
from afdkit.poga import _select
from conftest import (
    candidate_gain,
    dn_energy,
    dominant_atoms_on_grid,
    multiplicities,
    oga_select,
    random_hardy_1d,
    random_hardy_2d,
    random_real_full_2d,
    real_reconstruct_2d,
    real_samples,
)


def report(name, detail, t0):
    print("[PASS] %s: %s (%.2f s)" % (name, detail, time.time() - t0))


def test_01_reproducing_kernel_identity():
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        f = random_hardy_1d(seed, 256)
        rng = np.random.default_rng(10_000 + seed)
        pts = rng.uniform(0, 0.9, 50) * np.exp(2j * np.pi * rng.uniform(size=50))
        weights = np.sqrt(1.0 - np.abs(pts) ** 2)
        direct = weights * np.abs(eval_series(f.data, pts))
        atoms = weights[:, None] * np.conj(pts)[:, None] ** np.arange(257)[None, :]
        via_ip = np.abs(np.conj(atoms) @ f.data)
        worst = max(worst, float(np.max(np.abs(via_ip - direct))))
    assert worst < 1e-9
    report("01 reproducing-kernel-identity", "max deviation %.2e < 1e-9" % worst, t0)


def test_02_tm_orthonormality():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = rng.uniform(0, 0.9, 8) * np.exp(2j * np.pi * rng.uniform(size=8))
        rows = tm_matrix(list(params), 512)
        gram = np.conj(rows) @ rows.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(8)))))
    assert worst < 1e-8
    report("02 tm-orthonormality", "max |Gram - I| %.2e < 1e-8" % worst, t0)


def test_03_core_afd_recovery_and_ledger():
    t0 = time.time()
    grid = GridSpec(radial_count=48, angular_count=96, refine_levels=2, max_radius=0.95)
    worst_resid, worst_ledger = 0.0, 0.0
    for seed in range(5):
        f, _, _ = dominant_atoms_on_grid(seed, grid, 256, 5)
        record = afd_decompose_1d(f, 5, grid)
        worst_resid = max(
            worst_resid, record.steps[-1].residual_energy / record.initial_energy
        )
        prev = record.initial_energy
        for step in record.steps:
            worst_ledger = max(
                worst_ledger, abs(prev - step.residual_energy - abs(step.coeff) ** 2)
            )
            prev = step.residual_energy
    assert worst_resid < 1e-6
    assert worst_ledger < 1e-8
    report(
        "03 core-afd-recovery",
        "worst residual %.2e < 1e-6, ledger %.2e < 1e-8" % (worst_resid, worst_ledger),
        t0,
    )


def test_04_energy_decay_rate_bound():
    t0 = time.time()
    grid = GridSpec(radial_count=24, angular_count=48, refine_levels=1, max_radius=0.9)
    violations = 0
    worst_margin = np.inf
    for seed in range(10):
        f, _, _ = synth_signal_1d(256, 10, 2.0, grid, seed)
        record = afd_decompose_1d(f, 20, grid)
        d = [record.initial_energy] + record.residual_energies()
        for k in range(1, 21):
            g_norm = np.sqrt(d[min(k - 1, len(d) - 1)])
            bound = 2.0 / np.sqrt(k)
            worst_margin = min(worst_margin, bound - g_norm)
            if g_norm > bound:
                violations += 1
    assert violations == 0
    report(
        "04 bounded-synthesis-rate",
        "0 violations of 2/sqrt(k) over 10 runs x 20 steps (min margin %.3f)" % worst_margin,
        t0,
    )


def test_05_2d_real_reconstruction():
    t0 = time.time()
    worst = 0.0
    for seed in range(5):
        f = random_real_full_2d(seed, 31)
        samples = real_samples(f, 64)
        recon = real_reconstruct_2d(quadrant_split(samples, 31), 64)
        worst = max(worst, float(np.max(np.abs(recon - samples))))
    assert worst < 1e-9
    report("05 torus-real-reconstruction", "max round-trip error %.2e < 1e-9" % worst, t0)


def test_06_product_tm_decomposition():
    t0 = time.time()
    grid = GridSpec(radial_count=16, angular_count=32, refine_levels=0, max_radius=0.8)
    from afdkit.hardy import grid_radii

    radii = grid_radii(grid)
    worst_resid = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        rad_ids = rng.choice(np.arange(8, 13), size=4, replace=False)
        ang_ids = (rng.permutation(4) * 8 + rng.integers(0, 32)) % 32
        pairs = [
            (
                complex(radii[rad_ids[2 * i]] * np.exp(2j * np.pi * ang_ids[2 * i] / 32)),
                complex(radii[rad_ids[2 * i + 1]] * np.exp(2j * np.pi * ang_ids[2 * i + 1] / 32)),
            )
            for i in range(2)
        ]
        f = FourierCoeffs2D.zeros(48)
        for c, (a, b) in zip((1.0, 1 / 16), pairs):
            f = f + c * tensor_atom_coeffs(TensorAtomSpec.of(a, b), 48)
        record = afd2d_tm_decompose(f, 2, grid)
        worst_resid = max(
            worst_resid, record.steps[-1].residual_energy / record.initial_energy
        )
    assert worst_resid < 1e-6

    f = random_hardy_2d(11, 48)
    record = afd2d_tm_decompose(f, 8, grid)
    assert [len(s.block) for s in record.steps] == [2 * n - 1 for n in range(1, 9)]
    captured = sum(s.block_energy for s in record.steps)
    assert captured <= record.initial_energy + 1e-12
    report(
        "06 product-tm-decomposition",
        "recovery residual %.2e < 1e-6; blocks 2n-1; Bessel holds" % worst_resid,
        t0,
    )


def test_07_pga_ledger():
    t0 = time.time()
    grid = GridSpec(radial_count=10, angular_count=20, refine_levels=1, max_radius=0.6)
    worst = 0.0
    for seed in range(3):
        f = random_hardy_2d(seed + 5, 24)
        record = pga_decompose(f, 10, grid)
        d = [record.initial_energy] + record.residual_energies()
        for i, step in enumerate(record.steps):
            worst = max(worst, abs(d[i] - d[i + 1] - abs(step.coeff) ** 2))
    assert worst < 1e-10
    report("07 pga-ledger", "max per-step deviation %.2e < 1e-10" % worst, t0)


def test_08_preorthogonal_dominance():
    t0 = time.time()
    grid = GridSpec(radial_count=24, angular_count=48, refine_levels=0, max_radius=0.9)
    dictionary = SzegoDictionary1D(256, grid)
    violations = 0
    for case in range(50):
        rng = np.random.default_rng(7_000 + case)
        f = random_hardy_1d(3_000 + case, 256)
        frame = OrthoFrame(257)
        n_frame = int(rng.integers(1, 5))
        pts = grid_points(grid)
        for idx in rng.choice(pts.size, size=n_frame, replace=False):
            frame.extend(szego_coeffs(complex(pts[idx]), 256).data, spec=AtomSpec(complex(pts[idx])))
        g, _ = frame.project_residual(f.data)
        _, sup_gain, _ = _select(g, frame, dictionary, 1.0)
        pick = oga_select(g, dictionary)
        orth = candidate_gain(g, szego_coeffs(pick.a, 256).data, frame)
        if sup_gain < orth.gain - 1e-12:
            violations += 1
    assert violations == 0
    report("08 preorthogonal-dominance", "0 violations on 50 snapshots", t0)


def test_09_preorthogonal_rate_and_recurrence():
    t0 = time.time()
    grid = GridSpec(radial_count=24, angular_count=48, refine_levels=0, max_radius=0.9)
    dictionary = SzegoDictionary1D(256, grid)
    min_slack = np.inf
    for rho in (1.0, 0.7):
        for seed in range(3):
            f, params, _ = synth_signal_1d(256, 10, 2.0, grid, seed)
            record = poga_decompose(
                f.data, 20, dictionary, rho=rho, synthesis=[AtomSpec(a) for a in params]
            )
            rep = rate_report(record, 2.0)
            assert rep.ok
            assert rep.recurrence_ok and rep.conclusion_ok
            min_slack = min(min_slack, min(row.slack for row in rep.rows))
    assert min_slack >= 0
    report(
        "09 preorthogonal-rate",
        "bound and recurrence hold for rho in {1, 0.7} (min slack %.3f)" % min_slack,
        t0,
    )


def test_10_selection_equivalence_1d():
    t0 = time.time()
    grid = GridSpec(radial_count=32, angular_count=64, refine_levels=0, max_radius=0.9)
    dictionary = SzegoDictionary1D(256, grid)
    worst_coeff, worst_resid = 0.0, 0.0
    for seed in range(10):
        f = random_hardy_1d(500 + seed, 256)
        rec_bs = afd_decompose_1d(f, 8, grid)
        rec_po = poga_decompose(f.data, 8, dictionary)
        assert [s.atom.a for s in rec_po.steps] == rec_bs.params()
        assert [s.atom.m for s in rec_po.steps] == multiplicities(rec_bs.params())
        for s1, s2 in zip(rec_bs.steps, rec_po.steps):
            worst_coeff = max(worst_coeff, abs(abs(s1.coeff) - abs(s2.coeff)))
            worst_resid = max(worst_resid, abs(s1.residual_energy - s2.residual_energy))
    assert worst_coeff < 1e-8 and worst_resid < 1e-8
    report(
        "10 greedy-equivalence",
        "identical parameters and multiplicities; coeff dev %.2e, residual dev %.2e < 1e-8"
        % (worst_coeff, worst_resid),
        t0,
    )


def test_11_selector_oracle_equivalence():
    t0 = time.time()
    cases = 0

    # plain grid argmax on random smooth objectives
    spec = GridSpec(radial_count=6, angular_count=9, refine_levels=0, max_radius=0.85)
    pts = grid_points(spec)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)

        def objective(p):
            return np.abs(np.polynomial.polynomial.polyval(np.asarray(p), c)) ** 2

        got, _ = grid_argmax(objective, spec)
        vals = objective(pts)
        assert got == complex(pts[int(np.argmax(vals))])
        cases += 1

    # 1-d maximal selection
    spec1 = GridSpec(radial_count=10, angular_count=16, refine_levels=0, max_radius=0.85)
    pts1 = grid_points(spec1)
    for seed in range(20):
        f = random_hardy_1d(40 + seed, 64)
        a, _ = msp_1d(f, spec1)
        vals = (1 - np.abs(pts1) ** 2) * np.abs(eval_series(f.data, pts1)) ** 2
        assert a == complex(pts1[int(np.argmax(vals))])
        cases += 1

    # tensor-kernel greedy step
    spec2 = GridSpec(radial_count=4, angular_count=6, refine_levels=0, max_radius=0.5)
    pts2 = grid_points(spec2)
    for seed in range(20):
        f = random_hardy_2d(60 + seed, 16)
        chosen, _, _ = pga_step(f, spec2)
        table = np.abs(
            (np.sqrt(1 - np.abs(pts2) ** 2)[:, None] * np.sqrt(1 - np.abs(pts2) ** 2)[None, :])
            * (pts2[:, None] ** np.arange(17)[None, :] @ f.data @ (pts2[:, None] ** np.arange(17)[None, :]).T)
        )
        ia, ib = np.unravel_index(int(np.argmax(table)), table.shape)
        assert (chosen.left.a, chosen.right.a) == (complex(pts2[ia]), complex(pts2[ib]))
        cases += 1

    # joint product-system selection against the public per-pair objective
    spec3 = GridSpec(radial_count=4, angular_count=6, refine_levels=0, max_radius=0.5)
    pts3 = grid_points(spec3)
    for seed in range(20):
        f = random_hardy_2d(90 + seed, 16)
        history = [(0.2, -0.15j)]
        sel = msp_product_tm(f, history, spec3)
        table = np.array(
            [[dn_energy(f, history, (pa, pb)) for pb in pts3] for pa in pts3]
        )
        ia, ib = np.unravel_index(int(np.argmax(table)), table.shape)
        assert (sel.a, sel.b) == (complex(pts3[ia]), complex(pts3[ib]))
        cases += 1

    # pre-orthogonal and plain greedy selection over the kernel dictionary
    spec4 = GridSpec(radial_count=10, angular_count=16, refine_levels=0, max_radius=0.85)
    dictionary = SzegoDictionary1D(96, spec4)
    pts4 = grid_points(spec4)
    for seed in range(20):
        f = random_hardy_1d(700 + seed, 96)
        frame = OrthoFrame(97)
        frame.extend(szego_coeffs(complex(pts4[11]), 96).data, spec=AtomSpec(complex(pts4[11])))
        g, _ = frame.project_residual(f.data)
        out, _, _ = _select(g, frame, dictionary, 1.0)
        gains = []
        for p in pts4:
            atom = szego_coeffs(complex(p), 96).data
            try:
                gains.append(candidate_gain(g, atom, frame).gain)
            except Exception:
                gains.append(-1.0)
        assert out.gain == pytest.approx(max(gains), rel=1e-12)
        pick = oga_select(g, dictionary)
        raw = [abs(np.vdot(szego_coeffs(complex(p), 96).data, g)) for p in pts4]
        assert pick.a == complex(pts4[int(np.argmax(raw))])
        cases += 1

    report("11 selector-oracle-equivalence", "%d selector cases match exhaustive scans" % cases, t0)


def test_12_cli_end_to_end(tmp_path):
    t0 = time.time()
    sig = str(tmp_path / "sig.csv")
    rec = str(tmp_path / "rec.txt")
    assert cli_main(["synth", "--output", sig, "--seed", "17", "--order", "128"]) == 0
    assert (
        cli_main(
            ["decompose", "--algorithm", "afd1d", "--input", sig, "--output", rec,
             "--order", "128", "--terms", "8", "--max-radius", "0.9"]
        )
        == 0
    )
    assert cli_main(["verify", "--input", rec]) == 0
    with open(rec) as handle:
        lines = handle.read().split("\n")
    for i, line in enumerate(lines):
        if line.startswith("step "):
            fields = line.split(" ")
            fields[3] = "%.17g" % (float(fields[3]) + 1e-3)
            lines[i] = " ".join(fields)
            break
    with open(rec, "w") as handle:
        handle.write("\n".join(lines))
    assert cli_main(["verify", "--input", rec]) == 1
    report("12 cli-end-to-end", "synth/decompose/verify exit 0; corrupted record exits 1", t0)
