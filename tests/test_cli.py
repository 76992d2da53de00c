"""Ingestion, record files, verification, and the command-line surface."""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afdkit import (
    AtomSpec,
    GridSpec,
    IngestError,
    RecordFormatError,
    load_image_2d,
    load_record,
    load_signal_1d,
    next_pow2,
    QuadrantParts,
    Record,
    reconstruct_1d,
    reconstruct_pga,
    reconstruct_product_tm,
    save_record,
    Step,
    synth_signal_1d,
    TensorAtomSpec,
    verify_record,
)
from afdkit.cli import (
    ALGORITHMS,
    RecordFile,
    RecordSection,
    _parse_pgm,
    _run_grid,
    build_parser,
    cli_main,
    decode_section,
    encode_section,
    real_samples_1d,
    synth_field_2d,
    write_csv as cli_write_csv,
    write_pgm,
)
from conftest import (
    coeff,
    reference_analytic_part,
    reference_real_field_2d,
    reference_synth_field_2d,
    reference_write_csv,
    reference_write_pgm,
    section,
)


# the grid meta of a hand-written P-OGA record, whose dictionary it names
POGA_GRID = [("grid_radial", "4"), ("grid_angular", "8"), ("refine_levels", "0"), ("max_radius", "0.8")]


def write_csv(path, values, header=None):
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(header + "\n")
        for v in values:
            handle.write("%.17g\n" % v)


class TestLoadSignal1D:
    def test_cosine(self, tmp_path):
        path = tmp_path / "cos.csv"
        t = 2 * np.pi * np.arange(64) / 64
        write_csv(path, np.cos(t), header="# cosine")
        f = load_signal_1d(path, 16)
        assert coeff(f, 0) == pytest.approx(0.0, abs=1e-14)
        assert coeff(f, 1) == pytest.approx(0.5, abs=1e-14)

    def test_constant(self, tmp_path):
        path = tmp_path / "const.csv"
        write_csv(path, np.full(40, 2.5))
        f = load_signal_1d(path, 8)
        assert coeff(f, 0) == pytest.approx(2.5)
        assert f.energy() == pytest.approx(2.5**2)

    def test_too_short_names_minimum(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv(path, np.zeros(10))
        with pytest.raises(IngestError, match="at least 33"):
            load_signal_1d(path, 16)

    def test_least_sample_count_is_2n_plus_1(self, tmp_path):
        # the rule of analytic_part: 2N + 1 samples fix a real signal bandlimited to N
        path = tmp_path / "least.csv"
        write_csv(path, np.cos(2 * np.pi * np.arange(33) / 33))
        assert coeff(load_signal_1d(path, 16), 1) == pytest.approx(0.5, abs=1e-14)

    def test_non_numeric_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as handle:
            handle.write("1.0\n2.0\nnot-a-number\n")
        with pytest.raises(IngestError, match="row 3"):
            load_signal_1d(path, 16)

    def test_values_equal_a_row_by_row_parse(self, tmp_path):
        # comments, blank and padded lines, extra columns, CRLF and no final newline
        rng = np.random.default_rng(3)
        values = rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300)
        lines = ["# header", ""] + ["  %r , 7" % float(v) if k % 7 == 0 else "%.17g" % v for k, v in enumerate(values)]
        lines.insert(150, "   ")
        lines.insert(200, "#x,1")
        path = tmp_path / "mixed.csv"
        path.write_bytes("\r\n".join(lines).encode("utf-8"))
        want = [float(v) for v in values]
        f = load_signal_1d(path, 100)
        ref = reference_analytic_part(np.asarray(want), 100).data
        assert f.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1\n# c\n\n2\nnan\nx\n", "row 5 is not finite: 'nan'"),
            ("1\n# c\n\n2\nx\nnan\n", "row 5 is not numeric: 'x'"),
            ("1\n2\n  -inf , 3\n", "row 3 is not finite: '-inf , 3'"),
            ("1\r\n\r\n,4\r\n", "row 3 is not numeric: ',4'"),
        ],
    )
    def test_first_bad_row_is_named(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(body.encode("utf-8"))
        with pytest.raises(IngestError) as err:
            load_signal_1d(path, 16)
        assert str(err.value) == "%s: %s" % (path, message)


class TestLoadImage2D:
    def test_constant_image(self, tmp_path):
        path = tmp_path / "const.pgm"
        write_pgm(path, np.full((64, 64), 128 / 255))
        parts = load_image_2d(path, 8)
        assert parts.c00 == pytest.approx(128 / 255, abs=1e-12)
        assert coeff(parts.pp, 0, 0) == pytest.approx(128 / 255, abs=1e-12)
        # the other two quadrants are the conjugates of these blocks
        for block in (parts.pp, parts.pm):
            assert block.energy() - abs(parts.c00) ** 2 < 1e-20

    def test_rendered_wave_round_trip(self, tmp_path):
        # render (1 + cos(t + s)) / 2 to 8 bits; the ingested [0, 1] field
        # carries the wave with coefficient 1/4 up to quantization
        path = tmp_path / "wave.pgm"
        size = 64
        t = 2 * np.pi * np.arange(size) / size
        fieldvals = (1.0 + np.cos(np.add.outer(t, t))) / 2.0
        write_pgm(path, fieldvals)
        parts = load_image_2d(path, 8)
        assert coeff(parts.pp, 1, 1) == pytest.approx(0.25, abs=1e-2)
        assert parts.c00 == pytest.approx(0.5, abs=1e-2)

    def test_small_image_names_minimum(self, tmp_path):
        path = tmp_path / "small.pgm"
        write_pgm(path, np.zeros((3, 3)))
        with pytest.raises(IngestError, match="at least 17"):
            load_image_2d(path, 8)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "rect.pgm"
        write_pgm(path, np.zeros((32, 64)))
        with pytest.raises(IngestError) as err:
            load_image_2d(path, 8)
        assert str(err.value) == "%s: need a 2-d sample grid with equal sides, got shape (32, 64)" % path

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n4 4\n255\n" + b"0" * 16)
        with pytest.raises(IngestError, match="P5"):
            load_image_2d(path, 2)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n64 64\n255\n" + b"\x00" * 100)
        with pytest.raises(IngestError, match="truncated"):
            load_image_2d(path, 8)

    @pytest.mark.parametrize("size", [b"-40 -40", b"-40 40"])
    def test_negative_size_rejected(self, tmp_path, size):
        path = tmp_path / "negative.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + b"\x00" * 1600)
        with pytest.raises(IngestError, match="not positive"):
            load_image_2d(path, 8)

    def test_pixel_above_maxval_rejected(self, tmp_path, capsys):
        path, out = tmp_path / "over.pgm", tmp_path / "over.rec"
        pixels = np.zeros(130 * 130, dtype=np.uint8)
        pixels[777] = 200
        path.write_bytes(b"P5\n130 130\n100\n" + pixels.tobytes())
        argv = ["decompose", "--algorithm", "pga2d", "--input", str(path), "--output", str(out), "--order", "24",
                "--terms", "2", "--grid-radial", "6", "--grid-angular", "12", "--refine", "0", "--max-radius", "0.6"]
        assert cli_main(argv) == 2
        assert "pixel value 200 above maxval 100" in capsys.readouterr().err
        assert not out.exists()


def _written(writer, *args):
    """The bytes ``writer`` puts in a fresh file."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "out")
        writer(path, *args)
        with open(path, "rb") as handle:
            return handle.read()


class TestOutputWriters:
    """The bulk writers put the bytes of their per-value references."""

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(), max_size=300), as_array=st.booleans())
    @example(values=[-0.0, 5e-324, 1e300, 0.0, -1e-300, 1.0 / 3.0], as_array=True)
    @example(values=[-0.0, 5e-324, 1e300], as_array=False)
    @example(values=[], as_array=True)
    @example(values=[], as_array=False)
    def test_csv_bytes(self, values, as_array):
        values = np.array(values, dtype=float) if as_array else values
        want = _written(reference_write_csv, "# header", values)
        assert _written(cli_write_csv, "# header", values) == want

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        layout=st.sampled_from(["C", "transposed", "strided"]),
        seed=st.integers(0, 2**16),
    )
    @example(shape=(5, 7), layout="transposed", seed=0)
    @example(shape=(9, 6), layout="strided", seed=1)
    def test_pgm_bytes(self, shape, layout, seed):
        # values reach past [0, 1], and some sit on a rounding tie of the 255 scale
        rng = np.random.default_rng(seed)
        base = rng.uniform(-0.5, 1.5, size=(2 * shape[0], 3 * shape[1]))
        base.flat[::7] = (rng.integers(-3, 258, size=base.flat[::7].size) + 0.5) / 255.0
        field01 = {
            "C": base[: shape[0], : shape[1]].copy(),
            "transposed": base[: shape[1], : shape[0]].copy().T,
            "strided": base[::2, ::-3],
        }[layout]
        assert _written(write_pgm, field01) == _written(reference_write_pgm, field01)


def library_record(algorithm):
    """A two-step library record with full-precision fields and signed zeros."""
    third, seventh = 1.0 / 3.0, -1.0 / 7.0
    if algorithm == "afd1d":
        return Record(initial_energy=1.25, steps=[
            Step(a=0.5 + third * 1j, coeff=third - 0.25j, residual_energy=1.0),
            Step(a=complex(-0.0, seventh), coeff=0.05 + 0j, residual_energy=0.9),
        ])
    if algorithm == "afd2d-tm":
        return Record(initial_energy=2.0, steps=[
            Step(a=third, b=seventh * 1j, block=np.array([0.5 - third * 1j]), block_energy=0.36,
                 residual_energy=1.64),
            Step(a=-0.2 + 0.1j, b=0.0, block=np.array([third, complex(-0.0, 0.1), seventh - 1j]),
                 block_energy=1.03, residual_energy=0.61),
        ])
    if algorithm == "pga2d":
        return Record(initial_energy=1.5, steps=[
            Step(atom=TensorAtomSpec.of(third, seventh * 1j), coeff=0.7 - 0.1j, residual_energy=1.0),
            Step(atom=TensorAtomSpec.of(-0.5j, 0.25), coeff=third + 0j, residual_energy=0.88),
        ])
    if algorithm == "poga1d":
        atoms = [AtomSpec(third * 1j), AtomSpec(third * 1j, 2)]
    else:
        atoms = [TensorAtomSpec.of(third, -0.2j), TensorAtomSpec.of(third, -0.2j, 3, 2)]
    return Record(initial_energy=1.0, rho=0.9, steps=[
        Step(atom=atoms[0], coeff=0.6 + third * 1j, r=0.8, r_sup=0.9, residual_energy=0.53),
        Step(atom=atoms[1], coeff=seventh + 0j, r=0.4, r_sup=0.5, residual_energy=0.51),
    ])


def same_step(x, y):
    return type(x) is type(y) and all(
        np.array_equal(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x)
    )


class TestRecordRoundTrip:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_decode_inverts_encode(self, tmp_path, algorithm):
        rec = library_record(algorithm)
        path = tmp_path / "rec.txt"
        save_record(RecordFile([("rho", "0.9")], [encode_section("main", algorithm, rec)]), path)
        loaded = load_record(path)
        back = decode_section(section(loaded, "main"), 16, 0.9)
        assert type(back) is type(rec) and back.initial_energy == rec.initial_energy
        assert len(back.steps) == len(rec.steps)
        assert all(same_step(x, y) for x, y in zip(back.steps, rec.steps))
        if algorithm.startswith("poga"):
            assert back.rho == rec.rho
        again = tmp_path / "again.txt"
        save_record(RecordFile(loaded.meta, [encode_section("main", algorithm, back)]), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("algorithm, m", [("poga1d", 2), ("poga2d", 3)])
    def test_multiplicity_is_at_most_order_plus_one(self, algorithm, m):
        # m is the highest multiplicity of the library record, held by step 2
        section = encode_section("main", algorithm, library_record(algorithm))
        assert len(decode_section(section, m - 1, 0.9).steps) == 2
        message = "step 2 has multiplicity %d, above order \\+ 1 = %d" % (m, m - 1)
        with pytest.raises(RecordFormatError, match=message):
            decode_section(section, m - 2, 0.9)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_encoded_save_load_save_is_byte_identical(self, tmp_path, algorithm):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        section = encode_section("main", algorithm, library_record(algorithm))
        save_record(RecordFile(sections=[section]), p1)
        save_record(load_record(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def _sample_record(self):
        rec = RecordFile(meta=[("algorithm", "afd1d"), ("order", "64"), ("samples", "256")])
        rec.sections.append(
            RecordSection(
                name="main",
                algorithm="afd1d",
                initial_energy=1.25,
                steps=[[0.5, 0.0, 0.3, -0.25, 1.0975], [0.1, 0.2, 0.05, 0.0, 1.095]],
            )
        )
        return rec

    def test_save_load_save_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_record(self._sample_record(), p1)
        save_record(load_record(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_atom_list_is_valid(self, tmp_path):
        rec = RecordFile(meta=[("algorithm", "afd1d")])
        rec.sections.append(RecordSection("main", "afd1d", 1.0, []))
        path = tmp_path / "empty.txt"
        save_record(rec, path)
        loaded = load_record(path)
        assert section(loaded, "main").steps == []

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "versioned.txt"
        path.write_text("afdkit-record 99\nend\n")
        with pytest.raises(RecordFormatError, match="version"):
            load_record(path)

    def test_truncated_file_reports_byte_offset(self, tmp_path):
        p1 = tmp_path / "full.txt"
        save_record(self._sample_record(), p1)
        data = p1.read_bytes()
        p2 = tmp_path / "cut.txt"
        p2.write_bytes(data[: len(data) // 2])
        with pytest.raises(RecordFormatError, match="byte"):
            load_record(p2)

    @pytest.mark.parametrize("steps, tail", [
        ([], b""),
        ([], b"\n\n"),
        ([[0.5, 0.0, 0.3, -0.25, 1.0975]], b""),
    ], ids=["after-steps-line", "blank-lines-after-steps-line", "after-step-line"])
    def test_record_cut_at_a_line_boundary_is_truncated(self, tmp_path, steps, tail):
        # the cut keeps the last line's newline but drops end: truncated at the cut, not a blank line
        rec = self._sample_record()
        rec.sections[0].steps = steps
        path = tmp_path / "cut.txt"
        save_record(rec, path)
        data = path.read_bytes()
        cut = data.rindex(b"end\n")
        path.write_bytes(data[:cut] + tail)
        with pytest.raises(RecordFormatError, match="truncated record at byte %d$" % cut):
            load_record(path)
        assert cli_main(["verify", "--input", str(path)]) == 2

    def test_blank_lines_after_end_accepted(self, tmp_path):
        path = tmp_path / "padded.txt"
        save_record(self._sample_record(), path)
        path.write_bytes(path.read_bytes() + b"\n\n")
        assert load_record(path) == self._sample_record()
        path.write_bytes(path.read_bytes() + b"meta late 1\n")
        with pytest.raises(RecordFormatError, match="unexpected blank line"):
            load_record(path)

    def test_unrecognized_line_reports_offset(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("afdkit-record 1\nwat is this\nend\n")
        with pytest.raises(RecordFormatError, match="at byte 16"):
            load_record(path)

    def test_negative_step_count_reports_offset(self, tmp_path):
        path = tmp_path / "negative.txt"
        path.write_text("afdkit-record 1\nmeta algorithm afd1d\nsection main afd1d\nenergy 1\nsteps -3\nend\n")
        with pytest.raises(RecordFormatError, match="negative step count at byte 65"):
            load_record(path)
        assert cli_main(["verify", "--input", str(path)]) == 2

    @pytest.mark.parametrize("energy, steps, message", [
        ("x", "1", "non-numeric energy at byte 56"),
        ("1.0", "x", "non-numeric step count at byte 67"),
    ], ids=["energy", "steps"])
    def test_non_numeric_section_header_reports_its_line(self, tmp_path, energy, steps, message):
        path = tmp_path / "header.txt"
        path.write_text("afdkit-record 1\nmeta algorithm afd1d\nsection main afd1d\nenergy %s\nsteps %s\nend\n"
                        % (energy, steps))
        with pytest.raises(RecordFormatError, match=message):
            load_record(path)

    def test_repeated_meta_key_reports_its_offset(self, tmp_path, capsys):
        path, out = tmp_path / "repeat.txt", tmp_path / "out.csv"
        path.write_text("afdkit-record 1\nmeta samples 7\nmeta samples 256\nend\n")
        with pytest.raises(RecordFormatError, match="repeated meta samples at byte 31"):
            load_record(path)
        assert cli_main(["verify", "--input", str(path)]) == 2
        assert cli_main(["reconstruct", "--input", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err.count("repeated meta samples at byte 31\n") == 2
        assert not out.exists()

    def test_verify_passes_consistent_record(self, tmp_path):
        rec = self._sample_record()
        checks = verify_record(rec)
        assert all(c.ok for c in checks)

    def test_verify_flags_broken_ledger(self):
        rec = self._sample_record()
        rec.sections[0].steps[0][2] += 1e-3
        checks = verify_record(rec)
        assert any(not c.ok for c in checks)


class TestRunSettings:
    @pytest.mark.parametrize("argv, message", [
        (["--algorithm", "nope"], "argument --algorithm: invalid choice: 'nope'"),
        (["--rho", "0"], "error: rho must lie in (0, 1]"),
        (["--order", "4"], "error: truncation order must be at least 8"),
        (["--max-radius", "1.0"], "error: max_radius must lie strictly inside (0, 1)"),
        (["--threshold", "nan"], "error: threshold must be finite and >= 0"),
        (["--threshold", "inf"], "error: threshold must be finite and >= 0"),
        (["--threshold", "-1"], "error: threshold must be finite and >= 0"),
        (["--full-recon"], "error: --full-recon does not apply to afd1d runs"),
        (["--synthesis", "m.json"], "error: --synthesis does not apply to afd1d runs"),
        (["--algorithm", "afd2d-tm", "--synthesis", "m.json"], "error: --synthesis does not apply to afd2d-tm runs"),
        (["--algorithm", "pga2d", "--synthesis", "m.json"], "error: --synthesis does not apply to pga2d runs"),
        (["--rho", "0.5"], "error: --rho does not apply to afd1d runs"),
        (["--algorithm", "afd2d-tm", "--rho", "0.5"], "error: --rho does not apply to afd2d-tm runs"),
        (["--algorithm", "pga2d", "--rho", "0.5"], "error: --rho does not apply to pga2d runs"),
        (["--terms", "0"], "error: terms must be at least 1"),
        (["--algorithm", "poga2d", "--terms", "-1"], "error: terms must be at least 1"),
    ], ids=["algorithm", "rho", "order", "max-radius", "threshold-nan", "threshold-inf", "threshold-negative",
            "full-recon-1d", "synthesis-afd1d", "synthesis-afd2d-tm", "synthesis-pga2d", "rho-afd1d",
            "rho-afd2d-tm", "rho-pga2d", "terms-0", "terms-negative-2d"])
    def test_rejected_settings_exit_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.rec"
        assert cli_main(["decompose", "--input", str(tmp_path / "in.csv"), "--output", str(out)] + argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_two_d_defaults_are_coarser(self):
        parser = build_parser()
        sizes = {}
        for algorithm in ("afd1d", "pga2d"):
            args = parser.parse_args(["decompose", "--algorithm", algorithm, "--input", "x", "--output", "y"])
            grid = _run_grid(args)
            sizes[algorithm] = (args.order, grid.radial_count, grid.angular_count)
        assert sizes == {"afd1d": (256, 48, 96), "pga2d": (64, 24, 48)}

    @pytest.mark.parametrize("option, value", [
        ("--terms", "5"), ("--refine", "2"), ("--rho", "1.0"), ("--threshold", "1e-12"),
    ])
    def test_synth_rejects_decompose_only_options(self, tmp_path, capsys, option, value):
        out = tmp_path / "sig.csv"
        assert cli_main(["synth", "--output", str(out), option, value]) == 2
        assert "unrecognized arguments: %s %s" % (option, value) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--atoms", "0"], "atoms must be at least 1"),
        (["--atoms", "-1"], "atoms must be at least 1"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--algorithm", "pga2d", "--seed", "-1"], "seed must be >= 0"),
        (["--coeff-sum", "nan"], "coeff_sum must be finite and > 0"),
        (["--coeff-sum", "inf"], "coeff_sum must be finite and > 0"),
        (["--coeff-sum", "-2"], "coeff_sum must be finite and > 0"),
        (["--coeff-sum", "0"], "coeff_sum must be finite and > 0"),
        (["--algorithm", "pga2d", "--emit-meta", "meta.json"], "--emit-meta does not apply to pga2d runs"),
        (["--algorithm", "afd2d-tm", "--atoms", "3"], "--atoms does not apply to afd2d-tm runs"),
        (["--algorithm", "poga2d", "--coeff-sum", "2"], "--coeff-sum does not apply to poga2d runs"),
        (["--algorithm", "pga2d", "--grid-radial", "3"], "--grid-radial does not apply to pga2d runs"),
        (["--algorithm", "afd2d-tm", "--grid-angular", "5"], "--grid-angular does not apply to afd2d-tm runs"),
        (["--algorithm", "pga2d", "--max-radius", "0.9"], "--max-radius does not apply to pga2d runs"),
    ], ids=["atoms-0", "atoms-negative", "seed-negative", "seed-negative-2d", "coeff-sum-nan", "coeff-sum-inf",
            "coeff-sum-negative", "coeff-sum-0", "emit-meta-2d", "atoms-2d", "coeff-sum-2d", "grid-radial-2d",
            "grid-angular-2d", "max-radius-2d"])
    def test_synth_rejects_settings_no_run_can_use(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["synth", "--output", "out", "--order", "16"] + argv) == 2
        assert "error: %s\n" % message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSynth:
    def test_reproducible(self):
        grid = GridSpec(radial_count=12, angular_count=24, refine_levels=0, max_radius=0.8)
        f1, p1, c1 = synth_signal_1d(64, 5, 2.0, grid, seed=7)
        f2, p2, c2 = synth_signal_1d(64, 5, 2.0, grid, seed=7)
        assert np.array_equal(f1.data, f2.data) and p1 == p2
        f3, _, _ = synth_signal_1d(64, 5, 2.0, grid, seed=8)
        assert not np.array_equal(f1.data, f3.data)

    def test_coefficient_budget_exact(self):
        grid = GridSpec(radial_count=12, angular_count=24, refine_levels=0, max_radius=0.8)
        _, _, coeffs = synth_signal_1d(64, 6, 2.0, grid, seed=1)
        assert sum(abs(c) for c in coeffs) == pytest.approx(2.0, abs=1e-12)

    def test_real_signal_round_trips_exactly(self, tmp_path):
        grid = GridSpec(radial_count=12, angular_count=24, refine_levels=0, max_radius=0.8)
        f, _, _ = synth_signal_1d(64, 5, 2.0, grid, seed=3)
        samples = real_samples_1d(f, 256)
        path = tmp_path / "sig.csv"
        write_csv(path, samples)
        back = load_signal_1d(path, 64)
        assert np.max(np.abs(back.data - f.data)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(0, 40), seed=st.integers(0, 2**16), extra=st.integers(0, 100))
    @example(order=24, seed=1, extra=15)  # the CLI round trip's image, 64 x 64
    @example(order=16, seed=0, extra=31)  # the CLI tests' images
    @example(order=64, seed=3, extra=127)  # 256 x 256
    @example(order=0, seed=1, extra=0)
    def test_field_2d_keeps_the_full_range_bits(self, order, seed, extra):
        """The symmetric spectrum placed at -N..N per axis samples to the bits of one ``np.fft.ifftn``."""
        size = 2 * order + 1 + extra
        got, want = synth_field_2d(order, seed, size), reference_synth_field_2d(order, seed, size)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestCliEndToEnd:
    def test_synth_decompose_verify(self, tmp_path):
        sig = str(tmp_path / "sig.csv")
        rec = str(tmp_path / "rec.txt")
        assert cli_main(["synth", "--output", sig, "--seed", "5", "--order", "128"]) == 0
        assert (
            cli_main(
                [
                    "decompose", "--algorithm", "afd1d", "--input", sig, "--output", rec,
                    "--order", "128", "--terms", "6", "--max-radius", "0.9",
                ]
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

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1 (a): under the default --max-radius 0.995 the oversampled backward shift "
        "breaks the energy ledger by 4.509e-05 at step 3, |a|=0.9854, so decompose exits 1 naming main.ledger; "
        "the exact shift of item 1 removes it",
    )
    def test_default_radius_decompose_and_verify(self, tmp_path, capsys):
        sig, rec = str(tmp_path / "s.csv"), str(tmp_path / "s.rec")
        assert cli_main(["synth", "--output", sig, "--seed", "1", "--max-radius", "0.98", "--atoms", "4"]) == 0
        code = cli_main(["decompose", "--algorithm", "afd1d", "--input", sig, "--output", rec, "--terms", "8"])
        assert code == 0, capsys.readouterr().err
        assert cli_main(["verify", "--input", rec]) == 0

    def test_afd2d_tm_full_recon_with_a_broken_f_ledger_is_refused(self, tmp_path, capsys):
        # ROADMAP item 1, reproduction (b), a part 1a fault: the F section's afd1d step 5 breaks the ledger
        img, rec = str(tmp_path / "i.pgm"), tmp_path / "f.rec"
        assert cli_main(["synth", "--algorithm", "pga2d", "--output", img, "--seed", "3"]) == 0
        assert cli_main(["decompose", "--algorithm", "afd2d-tm", "--input", img, "--output", str(rec),
                         "--terms", "5", "--full-recon"]) == 1
        assert not rec.exists()
        assert ("error: record fails F.ledger (max residual deviation 2.746e-08 (tol 1.0e-08), first at step 5); "
                "nothing written") in capsys.readouterr().err

    def test_order_64_afd1d_with_a_broken_ledger_is_refused(self, tmp_path, capsys):
        sig, rec = str(tmp_path / "s.csv"), tmp_path / "s.rec"
        assert cli_main(["synth", "--output", sig, "--seed", "2", "--order", "64", "--atoms", "6"]) == 0
        assert cli_main(["decompose", "--algorithm", "afd1d", "--input", sig, "--output", str(rec),
                         "--order", "64", "--terms", "3", "--max-radius", "0.9"]) == 1
        assert not rec.exists()
        assert ("error: record fails main.ledger (max residual deviation 5.255e-08 (tol 1.0e-08), first at step "
                "3); nothing written") in capsys.readouterr().err

    def test_pga2d_with_a_broken_ledger_is_refused(self, tmp_path, capsys):
        # ROADMAP item 1, reproduction (c), a part 1b fault: a tensor atom of norm below 1 drifts the ledger
        img, rec = str(tmp_path / "d.pgm"), tmp_path / "d.rec"
        assert cli_main(["synth", "--algorithm", "pga2d", "--output", img, "--seed", "0"]) == 0
        assert cli_main(["decompose", "--algorithm", "pga2d", "--input", img, "--output", str(rec),
                         "--terms", "10"]) == 1
        assert not rec.exists()
        assert ("error: record fails main.ledger (max residual deviation 1.175e-07 (tol 1.0e-08), first at step "
                "10); nothing written") in capsys.readouterr().err

    def test_usage_error_is_exit_2(self):
        assert cli_main(["decompose", "--bogus"]) == 2
        assert cli_main(["nonsense"]) == 2

    def test_missing_input_is_exit_2(self, tmp_path):
        assert cli_main(["verify", "--input", str(tmp_path / "absent.txt")]) == 2

    def _write_afd1d_record(self, path, meta, step):
        rec = RecordFile(meta=meta)
        rec.sections.append(RecordSection("main", "afd1d", 1.25, [step]))
        save_record(rec, path)
        return str(path)

    def test_reconstruct_rejects_short_step(self, tmp_path, capsys):
        meta = [("algorithm", "afd1d"), ("order", "64"), ("samples", "256")]
        rec = self._write_afd1d_record(tmp_path / "short.txt", meta, [0.5, 0.0, 0.3, -0.25])
        out = str(tmp_path / "out.csv")
        assert cli_main(["verify", "--input", rec]) == 2
        assert cli_main(["reconstruct", "--input", rec, "--output", out]) == 2
        assert "bad afd1d step arity 4 (expected 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["short", "long"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bad_arity_rejected(self, tmp_path, capsys, algorithm, change):
        section = encode_section("main", algorithm, library_record(algorithm))
        fields = section.steps[0]
        section.steps[0] = fields[:-1] if change == "short" else fields + [0.0]
        rec = RecordFile([("algorithm", algorithm), ("order", "16"), ("samples", "64"), ("rho", "0.9")],
                         [section])
        path = str(tmp_path / "rec.txt")
        save_record(rec, path)
        assert cli_main(["verify", "--input", path]) == 2
        assert cli_main(["reconstruct", "--input", path, "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("bad %s step arity" % algorithm) == 2

    @pytest.mark.parametrize("missing", ["algorithm", "order", "samples"])
    def test_reconstruct_rejects_missing_meta(self, tmp_path, capsys, missing):
        meta = [(k, v) for k, v in [("algorithm", "afd1d"), ("order", "64"), ("samples", "256")]
                if k != missing]
        rec = self._write_afd1d_record(tmp_path / "rec.txt", meta, [0.5, 0.0, 0.3, -0.25, 1.0975])
        out = str(tmp_path / "out.csv")
        assert cli_main(["reconstruct", "--input", rec, "--output", out]) == 2
        assert "record has no meta %s" % missing in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_decompose_rejects_non_finite_row(self, tmp_path, capsys, value):
        sig = tmp_path / "sig.csv"
        sig.write_text(value + "\n" + "".join("%g\n" % (0.01 * k) for k in range(10, 61)))
        rec = tmp_path / "rec.txt"
        code = cli_main(
            ["decompose", "--algorithm", "afd1d", "--input", str(sig), "--output", str(rec),
             "--order", "16", "--terms", "3", "--max-radius", "0.8"]
        )
        assert code == 2
        assert "row 1 is not finite" in capsys.readouterr().err
        assert not rec.exists()

    @pytest.mark.parametrize(
        "algorithm, meta, energy, step, message",
        [("afd1d", [], float("inf"), None, "non-finite energy"),
         ("afd1d", [], 1.25, [0.5, 0.0, 0.3, -0.25, float("nan")], "non-finite step fields"),
         ("poga1d", [("rho", "nan")], 1.0, [0.5, 0.0, 1.0, 0.6, 0.0, 0.8, 0.8, 0.64],
          "meta rho is not finite"),
         ("poga1d", [("rho", "1"), ("M", "nan")] + POGA_GRID, 1.0, [0.5, 0.0, 1.0, 0.6, 0.0, 0.8, 0.8, 0.64],
          "meta M is not finite")],
        ids=["energy-inf", "residual-nan", "meta-rho-nan", "meta-M-nan"],
    )
    def test_verify_rejects_non_finite_record(
        self, tmp_path, capsys, algorithm, meta, energy, step, message
    ):
        rec = RecordFile(meta=[("algorithm", algorithm), ("order", "16"), ("samples", "64")] + meta)
        rec.sections.append(RecordSection("main", algorithm, energy, [step] if step else []))
        path = tmp_path / "rec.txt"
        save_record(rec, path)
        out = tmp_path / "out.csv"
        assert cli_main(["verify", "--input", str(path)]) == 2
        assert cli_main(["reconstruct", "--input", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err.count(message) == 2
        assert not out.exists()

    def test_reconstruct_rejects_non_finite_mean(self, tmp_path, capsys):
        rec = RecordFile(meta=[("algorithm", "pga2d"), ("order", "8"), ("samples", "32"),
                               ("c00", "nan 0")])
        for name, algorithm in [("main", "pga2d"), ("fpm", "pga2d"), ("F", "afd1d"),
                                ("G", "afd1d")]:
            rec.sections.append(RecordSection(name, algorithm, 0.0, []))
        path = tmp_path / "rec.txt"
        save_record(rec, path)
        out = tmp_path / "out.pgm"
        assert cli_main(["verify", "--input", str(path)]) == 2
        assert cli_main(["reconstruct", "--input", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err.count("meta c00 is not finite") == 2
        assert not out.exists()

    @pytest.mark.parametrize("samples", [7, 20, 2 ** 62])
    @pytest.mark.parametrize("algorithm, order, output", [("afd1d", 16, "out.csv"), ("pga2d", 8, "out.pgm")])
    def test_samples_other_than_the_written_count_rejected(self, tmp_path, capsys, algorithm, order, output,
                                                            samples):
        # decompose writes samples = next_pow2(2 order + 2), 64 at order 16
        # and 32 at order 8; any other count is a format error in both
        # commands, 2^62 too, before an array of that size is asked for
        rec = RecordFile(meta=[("algorithm", algorithm), ("order", str(order)), ("samples", str(samples))])
        rec.sections.append(RecordSection("main", algorithm, 0.0, []))
        path, out = tmp_path / "rec.txt", tmp_path / output
        save_record(rec, path)
        assert cli_main(["verify", "--input", str(path)]) == 2
        assert cli_main(["reconstruct", "--input", str(path), "--output", str(out)]) == 2
        message = "record meta samples must be next_pow2(2 order + 2) = %d at order %d, got %d" % (
            next_pow2(2 * order + 2), order, samples)
        assert capsys.readouterr().err.count(message) == 2
        assert not out.exists()

    # two poga1d steps with a consistent ledger: 1 - 0.36 = 0.64, 0.64 - 0.36 = 0.28
    POGA_STEPS = [[0.5, 0.0, 1.0, 0.6, 0.0, 0.8, 0.8, 0.64], [-0.5, 0.0, 1.0, 0.6, 0.0, 0.6, 0.8, 0.28]]

    @pytest.mark.parametrize("key, value", [("M", "0"), ("rho", "0"), ("M", "-2"), ("rho", "-1"), ("rho", "2")])
    def test_verify_rejects_meta_out_of_domain(self, tmp_path, capsys, key, value):
        meta = dict([("algorithm", "poga1d"), ("order", "16"), ("samples", "64"), ("rho", "1"), ("M", "2")]
                    + POGA_GRID)
        meta[key] = value
        rec = RecordFile(meta=list(meta.items()))
        rec.sections.append(RecordSection("main", "poga1d", 1.0, self.POGA_STEPS))
        path = tmp_path / "rec.txt"
        save_record(rec, path)
        out = tmp_path / "out.csv"
        assert cli_main(["verify", "--input", str(path)]) == 2
        assert cli_main(["reconstruct", "--input", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err.count("meta %s must" % key) == 2
        assert not out.exists()

    def test_poga_record_without_rho_is_exit_2(self, tmp_path, capsys):
        meta = [("algorithm", "poga1d"), ("order", "16"), ("samples", "64"), ("M", "2")] + POGA_GRID
        rec = RecordFile(meta=meta)
        rec.sections.append(RecordSection("main", "poga1d", 1.0, self.POGA_STEPS))
        path, out = tmp_path / "rec.txt", tmp_path / "out.csv"
        save_record(rec, path)
        assert cli_main(["verify", "--input", str(path)]) == 2
        assert cli_main(["reconstruct", "--input", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err.count("record has no meta rho\n") == 2
        assert not out.exists()

    def dependent_poga_record(self, tmp_path):
        """A poga1d record with a consistent ledger whose two steps hold the same atom."""
        meta = [("algorithm", "poga1d"), ("order", "16"), ("samples", "64")] + POGA_GRID + [("rho", "1")]
        steps = [self.POGA_STEPS[0], [0.5, 0.0, 1.0, 0.6, 0.0, 0.6, 0.8, 0.28]]
        rec = RecordFile(meta=meta)
        rec.sections.append(RecordSection("main", "poga1d", 1.0, steps))
        path = tmp_path / "rec.txt"
        save_record(rec, path)
        return path

    def test_reconstruct_rejects_dependent_poga_atoms(self, tmp_path, capsys):
        path = self.dependent_poga_record(tmp_path)
        out = tmp_path / "out.csv"
        assert cli_main(["reconstruct", "--input", str(path), "--output", str(out)]) == 2
        assert "section main: step 2:" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_rejects_dependent_poga_atoms(self, tmp_path, capsys):
        path = self.dependent_poga_record(tmp_path)
        assert cli_main(["verify", "--input", str(path)]) == 2
        assert "section main: step 2: atom lies in the span of the frame" in capsys.readouterr().err

    def test_verify_rejects_zero_multiplicity(self, tmp_path, capsys):
        # a consistent ledger, so only the multiplicity is wrong
        rec = RecordFile(meta=[("algorithm", "poga1d"), ("order", "16"), ("samples", "64"), ("rho", "1")])
        rec.sections.append(
            RecordSection("main", "poga1d", 1.0, [[0.5, 0.0, 0.0, 0.6, 0.0, 0.8, 0.8, 0.64]])
        )
        path = tmp_path / "m0.txt"
        save_record(rec, path)
        assert cli_main(["verify", "--input", str(path)]) == 2
        assert "multiplicity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "steps, message",
        [([[0.3, 0.0, 0.0, 0.2, 0.25, 1.75, 1, 0.5, 0.0], [-0.2, 0.1, 0.1, 0.0, 0.09, 1.66, 1, 0.3, 0.0]],
          "afd2d-tm step 2 has block count 1, not 3"),
         ([[0.3, 0.0, 0.0, 0.2, 0.25, 1.75, 3, 0.3, 0.0, 0.3, 0.0, 0.25, 0.0]],
          "afd2d-tm step 1 has block count 3, not 1")],
        ids=["short", "long"],
    )
    def test_afd2d_tm_block_count_is_2n_minus_1(self, tmp_path, capsys, steps, message):
        # each ledger is consistent, so only the block counts are wrong
        rec = RecordFile(meta=[("algorithm", "afd2d-tm"), ("order", "16"), ("samples", "64")])
        rec.sections.append(RecordSection("main", "afd2d-tm", 2.0, steps))
        path = str(tmp_path / "rec.txt")
        save_record(rec, path)
        assert cli_main(["verify", "--input", path]) == 2
        assert cli_main(["reconstruct", "--input", path, "--output", str(tmp_path / "out.pgm")]) == 2
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_parameter_on_the_circle_rejected(self, tmp_path, capsys, algorithm):
        section = encode_section("main", algorithm, library_record(algorithm))
        section.steps[0][:2] = [1.0, 0.0]
        rec = RecordFile([("algorithm", algorithm), ("order", "16"), ("samples", "64"), ("rho", "0.9")],
                         [section])
        path = str(tmp_path / "rec.txt")
        save_record(rec, path)
        assert cli_main(["verify", "--input", path]) == 2
        assert cli_main(["reconstruct", "--input", path, "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("|a| < 1, got |a| = 1") == 2

    @pytest.mark.parametrize("algorithm", ["afd1d", "pga2d"])
    def test_reconstruct_rejects_negative_order(self, tmp_path, capsys, algorithm):
        section = encode_section("main", algorithm, library_record(algorithm))
        rec = RecordFile([("algorithm", algorithm), ("order", "-3"), ("samples", "64")], [section])
        path = str(tmp_path / "rec.txt")
        save_record(rec, path)
        assert cli_main(["reconstruct", "--input", path, "--output", str(tmp_path / "out")]) == 2
        assert "record meta order is negative: '-3'" in capsys.readouterr().err

    # what each edit of an afd1d record breaks, and the error both commands report
    LAYOUT_EDITS = {
        "empty": (lambda text: "afdkit-record 1\nend\n", "record has no meta algorithm"),
        "algorithm": (lambda text: text.replace("meta algorithm afd1d\n", "meta algorithm poga1d\n"),
                      "record holds sections main (afd1d), expected main (poga1d)"),
        "order": (lambda text: text.replace("meta order 32\n", ""), "record has no meta order"),
        "section": (lambda text: text.replace("section main afd1d\n", "section other afd1d\n"),
                    "record holds sections other (afd1d), expected main (afd1d)"),
        "samples": (lambda text: text.replace("meta samples 128\n", ""), "record has no meta samples"),
    }

    def edited_record(self, tmp_path, edit):
        """An afd1d record with one of ``LAYOUT_EDITS`` applied, and the error it should raise."""
        sig, rec = str(tmp_path / "s.csv"), tmp_path / "s.rec"
        assert cli_main(["synth", "--output", sig, "--seed", "2", "--order", "32", "--atoms", "3"]) == 0
        assert cli_main(["decompose", "--algorithm", "afd1d", "--input", sig, "--output", str(rec),
                         "--order", "32", "--terms", "3", "--max-radius", "0.6", "--refine", "0",
                         "--grid-radial", "8", "--grid-angular", "16"]) == 0
        change, message = self.LAYOUT_EDITS[edit]
        text = rec.read_text()
        rec.write_text(change(text))
        assert rec.read_text() != text
        return rec, message

    @pytest.mark.parametrize("edit", sorted(LAYOUT_EDITS))
    def test_verify_rejects_what_reconstruct_rejects(self, tmp_path, capsys, edit):
        rec, message = self.edited_record(tmp_path, edit)
        capsys.readouterr()
        assert cli_main(["verify", "--input", str(rec)]) == 2
        assert cli_main(["reconstruct", "--input", str(rec), "--output", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.count("error: %s\n" % message) == 2

    @pytest.mark.parametrize("edit", sorted(LAYOUT_EDITS))
    def test_verify_record_rejects_what_verify_rejects(self, tmp_path, edit):
        rec, message = self.edited_record(tmp_path, edit)
        with pytest.raises(RecordFormatError) as err:
            verify_record(load_record(rec))
        assert str(err.value) == message
        assert cli_main(["verify", "--input", str(rec)]) == 2

    @pytest.mark.parametrize("m", [34, 2000])
    def test_multiplicity_above_order_plus_one_rejected(self, tmp_path, capsys, m):
        # order 32: no run selects a rung above 33, and at 2000 the closed-form
        # normalization of the atom overflows a float
        sig, rec = str(tmp_path / "q.csv"), tmp_path / "q.rec"
        grid = ["--order", "32", "--max-radius", "0.6", "--grid-radial", "8", "--grid-angular", "16"]
        assert cli_main(["synth", "--output", sig, "--seed", "2", "--atoms", "3"] + grid) == 0
        assert cli_main(["decompose", "--algorithm", "poga1d", "--input", sig, "--output", str(rec),
                         "--terms", "3", "--refine", "0"] + grid) == 0
        lines = rec.read_text().split("\n")
        first = next(i for i, line in enumerate(lines) if line.startswith("step "))
        fields = lines[first].split(" ")
        assert fields[3] == "1"
        fields[3] = str(m)
        lines[first] = " ".join(fields)
        rec.write_text("\n".join(lines))
        capsys.readouterr()
        assert cli_main(["verify", "--input", str(rec)]) == 2
        assert cli_main(["reconstruct", "--input", str(rec), "--output", str(tmp_path / "out.csv")]) == 2
        message = "poga1d step 1 has multiplicity %d, above order + 1 = 33" % m
        assert capsys.readouterr().err.count(message) == 2

    def test_multiplicity_without_a_float_norm_rejected(self, tmp_path, capsys):
        # order 256 lets multiplicity 257 through the order + 1 bound, but at
        # |a| = 0.95 the closed-form norm of that rung leaves the float range
        sig, rec = str(tmp_path / "q.csv"), tmp_path / "q.rec"
        grid = ["--order", "256", "--max-radius", "0.95", "--grid-radial", "8", "--grid-angular", "16"]
        assert cli_main(["synth", "--output", sig, "--seed", "4", "--atoms", "3"] + grid) == 0
        assert cli_main(["decompose", "--algorithm", "poga1d", "--input", sig, "--output", str(rec),
                         "--terms", "2", "--refine", "0"] + grid) == 0
        lines = rec.read_text().split("\n")
        first = next(i for i, line in enumerate(lines) if line.startswith("step "))
        fields = lines[first].split(" ")
        assert fields[3] == "1" and abs(complex(float(fields[1]), float(fields[2]))) == pytest.approx(0.95)
        fields[3] = "257"
        lines[first] = " ".join(fields)
        rec.write_text("\n".join(lines))
        capsys.readouterr()
        assert cli_main(["verify", "--input", str(rec)]) == 2
        assert cli_main(["reconstruct", "--input", str(rec), "--output", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.count("with m=257 has no float norm") == 2

    def test_non_utf8_record_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"afdkit-record 1\n\xff\nend\n")
        out = str(tmp_path / "out.csv")
        assert cli_main(["verify", "--input", str(path)]) == 2
        assert "not UTF-8 text at byte 16" in capsys.readouterr().err
        assert cli_main(["reconstruct", "--input", str(path), "--output", out]) == 2
        assert "not UTF-8 text at byte 16" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm, synthesis, message",
        [("poga1d", '{"atoms": []}', "has no 'M'"), ("poga1d", '{"M": 2.0}', "has no 'atoms'"),
         ("poga1d", '{"atoms": [[0.1]], "M": 2.0}', "malformed 'atoms'"),
         ("poga1d", '{"atoms": [], "M": "two"}', "malformed 'M'"), ("poga1d", "M = 2", "is not JSON"),
         ("poga1d", '{"atoms": [[0.3, 0.1]], "M": NaN}', "finite 'M' > 0"),
         ("poga1d", '{"atoms": [[0.3, 0.1]], "M": Infinity}', "finite 'M' > 0"),
         ("poga1d", '{"atoms": [[0.3, 0.1]], "M": 0}', "finite 'M' > 0"),
         ("poga1d", '{"atoms": [[0.3, 0.1]], "M": -2.0}', "finite 'M' > 0"),
         ("poga1d", '{"atoms": [], "M": 2.0}', "at least one atom"),
         # an atom's parameter must lie in the open disc; NaN is not in it
         ("poga1d", '{"atoms": [[0.3, 0.1], [NaN, 0]], "M": 2.0}', "malformed 'atoms'"),
         ("poga1d", '{"atoms": [[1.5, 0]], "M": 2.0}', "malformed 'atoms'"),
         ("poga2d", '{"atoms": [[[0.3, 0.1], [0.2, 0]], [[0.1, 0], [0, NaN]]], "M": 2.0}', "malformed 'atoms'"),
         ("poga2d", '{"atoms": [[[0.3, 0.1], [0.6, 0.8]]], "M": 2.0}', "malformed 'atoms'")],
        ids=["missing-M", "missing-atoms", "malformed-atoms", "malformed-M", "not-json",
             "nan-M", "infinite-M", "zero-M", "negative-M", "empty-atoms",
             "nan-atom-poga1d", "outside-disc-atom-poga1d", "nan-atom-poga2d", "outside-disc-atom-poga2d"],
    )
    def test_decompose_rejects_bad_synthesis(self, tmp_path, capsys, algorithm, synthesis, message):
        meta = tmp_path / "meta.json"
        meta.write_text(synthesis)
        if algorithm == "poga1d":
            signal = str(tmp_path / "sig.csv")
            assert cli_main(["synth", "--output", signal, "--seed", "2", "--order", "32"]) == 0
        else:
            signal = str(tmp_path / "img.pgm")
            assert cli_main(["synth", "--algorithm", "pga2d", "--output", signal, "--seed", "2", "--order", "8"]) == 0
        code = cli_main(
            ["decompose", "--algorithm", algorithm, "--input", signal, "--output",
             str(tmp_path / "rec.txt"), "--order", "32" if algorithm == "poga1d" else "8", "--terms", "2",
             "--max-radius", "0.6", "--synthesis", str(meta)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and (message.startswith("at least") or "synthesis file %s " % meta in err)
        assert not (tmp_path / "rec.txt").exists()

    def test_one_atom_synthesis_passes_the_rate_check(self, tmp_path):
        # the rate bound at m = 1 equals ||f|| exactly for one atom; rounding
        # leaves a slack of -6.7e-16, inside the allowance of the rate check
        sig, meta, rec = (str(tmp_path / name) for name in ("q.csv", "qm.json", "q.rec"))
        grid = ["--order", "32", "--grid-radial", "8", "--grid-angular", "13", "--max-radius", "0.68"]
        assert cli_main(["synth", "--output", sig, "--seed", "6", "--atoms", "1", "--emit-meta", meta] + grid) == 0
        assert cli_main(["decompose", "--algorithm", "poga1d", "--input", sig, "--output", rec,
                         "--terms", "3", "--synthesis", meta] + grid) == 0
        assert cli_main(["verify", "--input", rec]) == 0

    def test_zero_step_poga_record_with_synthesis_verifies(self, tmp_path, capsys):
        # --threshold 1 stops before the first step, so the record has steps 0
        # and a meta M, and its rate check has no rows to bound
        sig, meta, rec = (str(tmp_path / name) for name in ("s.csv", "m.json", "r.rec"))
        grid = ["--order", "32", "--max-radius", "0.6"]
        assert cli_main(["synth", "--output", sig, "--seed", "2", "--atoms", "3", "--emit-meta", meta] + grid) == 0
        assert cli_main(["decompose", "--algorithm", "poga1d", "--input", sig, "--output", rec,
                         "--terms", "3", "--synthesis", meta, "--threshold", "1"] + grid) == 0
        loaded = load_record(rec)
        assert section(loaded, "main").steps == [] and "M" in loaded.meta_dict()
        capsys.readouterr()
        assert cli_main(["verify", "--input", rec]) == 0
        assert "main.rate" in capsys.readouterr().out
        assert cli_main(["reconstruct", "--input", rec, "--output", str(tmp_path / "out.csv")]) == 0

    def test_poga_with_synthesis_and_reconstruct(self, tmp_path):
        sig = str(tmp_path / "sig.csv")
        meta = str(tmp_path / "meta.json")
        rec = str(tmp_path / "rec.txt")
        out = str(tmp_path / "recon.csv")
        assert (
            cli_main(
                ["synth", "--output", sig, "--seed", "2", "--order", "128",
                 "--emit-meta", meta, "--atoms", "6"]
            )
            == 0
        )
        with open(meta) as handle:
            assert json.load(handle)["M"] == 2.0
        assert (
            cli_main(
                ["decompose", "--algorithm", "poga1d", "--input", sig, "--output", rec,
                 "--order", "128", "--terms", "8", "--max-radius", "0.9", "--refine", "0",
                 "--synthesis", meta]
            )
            == 0
        )
        assert cli_main(["verify", "--input", rec]) == 0
        loaded = load_record(rec)
        assert "M" in loaded.meta_dict()
        assert cli_main(["reconstruct", "--input", rec, "--output", out]) == 0
        recon = load_signal_1d(out, 128)
        orig = load_signal_1d(sig, 128)
        resid = section(loaded, "main").steps[-1][-1]
        assert (orig - recon).energy() == pytest.approx(resid, abs=1e-8)

    def test_image_pipeline_full_reconstruction(self, tmp_path):
        img = str(tmp_path / "img.pgm")
        rec = str(tmp_path / "rec.txt")
        out = str(tmp_path / "out.pgm")
        assert cli_main(["synth", "--algorithm", "pga2d", "--order", "24",
                         "--output", img, "--seed", "1"]) == 0
        assert (
            cli_main(
                ["decompose", "--algorithm", "pga2d", "--input", img, "--output", rec,
                 "--order", "24", "--terms", "5", "--grid-radial", "10",
                 "--grid-angular", "20", "--max-radius", "0.6", "--refine", "1",
                 "--full-recon"]
            )
            == 0
        )
        assert cli_main(["verify", "--input", rec]) == 0
        loaded = load_record(rec)
        assert {s.name for s in loaded.sections} == {"main", "fpm", "F", "G"}
        assert cli_main(["reconstruct", "--input", rec, "--output", out]) == 0
        assert load_image_2d(out, 8).pp.order == 8

    def test_afd2d_records_verify(self, tmp_path):
        img = str(tmp_path / "img.pgm")
        rec = str(tmp_path / "rec.txt")
        assert cli_main(["synth", "--algorithm", "afd2d-tm", "--order", "24",
                         "--output", img, "--seed", "4"]) == 0
        assert (
            cli_main(
                ["decompose", "--algorithm", "afd2d-tm", "--input", img, "--output", rec,
                 "--order", "24", "--terms", "4", "--grid-radial", "8",
                 "--grid-angular", "16", "--max-radius", "0.6", "--refine", "1"]
            )
            == 0
        )
        assert cli_main(["verify", "--input", rec]) == 0

    LADDER_GRID = ["--grid-radial", "6", "--grid-angular", "12", "--max-radius", "0.8"]
    EXHAUST = ["--refine", "0", "--threshold", "0"] + LADDER_GRID

    @pytest.mark.parametrize("synth, decompose", [
        # weak runs to exhaustion: past order + 1 a ladder gave a multiplicity
        # verify rejects (1-d) or a monomial above the order (2-d, exit 2)
        (["--seed", "3", "--order", "16", "--atoms", "4"] + LADDER_GRID,
         ["--algorithm", "poga1d", "--order", "16", "--terms", "17", "--rho", "0.7"] + EXHAUST),
        (["--algorithm", "pga2d", "--seed", "2", "--order", "8"],
         ["--algorithm", "poga2d", "--order", "8", "--terms", "81", "--rho", "0.7"] + EXHAUST),
        # a walk of more rungs than the frame has rows reaches m = 77 at
        # |a| = 0.99, whose norm is no float (exit 2)
        (["--seed", "1", "--max-radius", "0.9"], ["--algorithm", "poga1d", "--terms", "20", "--rho", "0.5"]),
    ])
    @pytest.mark.filterwarnings("ignore::afdkit.TruncationWarning")
    def test_ladder_walks_end_inside_the_dictionary(self, tmp_path, capsys, synth, decompose):
        sig = str(tmp_path / ("s.pgm" if "pga2d" in synth else "s.csv"))
        rec = str(tmp_path / "s.rec")
        assert cli_main(["synth", "--output", sig] + synth) == 0
        code = cli_main(["decompose", "--input", sig, "--output", rec] + decompose)
        assert code == 0, capsys.readouterr().err
        assert cli_main(["verify", "--input", rec]) == 0, capsys.readouterr().err

IMAGE_ARGS = [
    "--order", "16", "--grid-radial", "6", "--grid-angular", "12", "--max-radius", "0.45",
]


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        img = str(tmp_path / "img.pgm")
        full = str(tmp_path / "full.rec")
        plain = str(tmp_path / "plain.rec")
        assert cli_main(["synth", "--algorithm", "pga2d", "--order", "16", "--output", img]) == 0
        assert cli_main(["decompose", "--terms", "many"]) == 2
        assert cli_main(
            ["decompose", "--algorithm", "pga2d", "--input", img, "--output", full, *IMAGE_ARGS,
             "--terms", "3", "--refine", "1", "--threshold", "1e-6", "--full-recon"]
        ) == 0
        assert cli_main(
            ["decompose", "--algorithm", "pga2d", "--input", img, "--output", plain, *IMAGE_ARGS]
        ) == 0
        assert cli_main(["--help"]) == 0
        assert "usage: afdkit" in capsys.readouterr().out

        first, second = load_record(full), load_record(plain)
        assert {sec.name for sec in first.sections} == {"main", "fpm", "F", "G"}
        meta = second.meta_dict()
        assert [sec.name for sec in second.sections] == ["main"]
        assert "c00" not in meta
        assert (meta["terms"], meta["refine_levels"], meta["rho"]) == ("5", "2", "1")
        assert float(meta["threshold"]) == 1e-12


class TestImageReconstruction:
    """``reconstruct`` writes the quantized field of the library partial sums."""

    LIBRARY = {"afd2d-tm": reconstruct_product_tm, "pga2d": reconstruct_pga}

    @pytest.mark.parametrize("algorithm", ["afd2d-tm", "pga2d"])
    def test_pgm_matches_library_partial_sums(self, tmp_path, algorithm):
        img = str(tmp_path / "img.pgm")
        rec = str(tmp_path / "rec.txt")
        out = str(tmp_path / "out.pgm")
        assert cli_main(["synth", "--algorithm", algorithm, "--order", "16", "--output", img,
                         "--seed", "2"]) == 0
        assert cli_main(["decompose", "--algorithm", algorithm, "--input", img, "--output", rec,
                         *IMAGE_ARGS, "--terms", "4", "--refine", "1", "--full-recon"]) == 0
        assert cli_main(["reconstruct", "--input", rec, "--output", out]) == 0

        record = load_record(rec)
        meta = record.meta_dict()
        order = int(meta["order"])
        parts = {}
        for sec in record.sections:
            rebuild = reconstruct_1d if sec.algorithm == "afd1d" else self.LIBRARY[algorithm]
            parts[sec.name] = rebuild(decode_section(sec, order), order)
        size = int(meta["samples"])
        c00 = float(meta["c00"].split(" ")[0])
        field = reference_real_field_2d(
            QuadrantParts(parts["main"], parts["fpm"], parts["F"], parts["G"], c00), size
        )
        want = np.clip(np.round(field * 255.0), 0, 255)
        with open(out, "rb") as handle:
            got, maxval = _parse_pgm(handle.read(), out)
        assert maxval == 255 and got.shape == (size, size)
        assert np.max(np.abs(got.astype(float) - want)) <= 1

    def test_main_only_record_gives_twice_the_real_part(self, tmp_path):
        """Without --full-recon the image is the quantized 2 Re of the main partial sum."""
        img, rec, out = (str(tmp_path / name) for name in ("img.pgm", "rec.txt", "out.pgm"))
        assert cli_main(["synth", "--algorithm", "pga2d", "--order", "16", "--output", img]) == 0
        assert cli_main(["decompose", "--algorithm", "pga2d", "--input", img, "--output", rec,
                         *IMAGE_ARGS, "--terms", "3", "--refine", "1"]) == 0
        assert cli_main(["reconstruct", "--input", rec, "--output", out]) == 0

        record = load_record(rec)
        meta = record.meta_dict()
        assert [sec.name for sec in record.sections] == ["main"]
        main = reconstruct_pga(decode_section(section(record, "main"), int(meta["order"])), int(meta["order"]))
        size = int(meta["samples"])
        want = np.clip(np.round(2.0 * main.boundary_samples(size).real * 255.0), 0, 255)
        with open(out, "rb") as handle:
            got, _ = _parse_pgm(handle.read(), out)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("drop", ["meta c00", "section G", "section fpm", "section F"])
    def test_partial_full_recon_record_is_exit_2(self, tmp_path, capsys, drop):
        img, rec, out = (str(tmp_path / name) for name in ("img.pgm", "rec.txt", "out.pgm"))
        assert cli_main(["synth", "--algorithm", "pga2d", "--order", "16", "--output", img]) == 0
        assert cli_main(["decompose", "--algorithm", "pga2d", "--input", img, "--output", rec,
                         *IMAGE_ARGS, "--terms", "2", "--refine", "1", "--full-recon"]) == 0
        record = load_record(rec)
        kind, name = drop.split(" ")
        if kind == "meta":
            record.meta = [(key, value) for key, value in record.meta if key != name]
        else:
            record.sections = [sec for sec in record.sections if sec.name != name]
        save_record(record, rec)
        capsys.readouterr()
        assert cli_main(["verify", "--input", rec]) == 2
        assert cli_main(["reconstruct", "--input", rec, "--output", out]) == 2
        err = capsys.readouterr().err
        assert err.count("partial --full-recon set: no %s\n" % drop) == 2
        assert not (tmp_path / "out.pgm").exists()


# the values an edit gives a meta line: out of every domain, malformed, or a
# sample count other than the 32 decompose writes at order 8; none is large,
# as a large grid or order would fill grid tables before any check ran
META_VALUES = ["nan", "inf", "-1", "0", "x", "7", "20"]


@pytest.fixture(scope="module")
def small_records(tmp_path_factory):
    """The text of a valid order-8 record of each algorithm: poga1d with meta M, 2-d ones with --full-recon."""
    work = tmp_path_factory.mktemp("small")
    sig, synthesis, img = (str(work / name) for name in ("s.csv", "s.json", "s.pgm"))
    grid = ["--order", "8", "--grid-radial", "3", "--grid-angular", "6", "--max-radius", "0.2"]
    assert cli_main(["synth", "--output", sig, "--seed", "2", "--atoms", "3", "--emit-meta", synthesis] + grid) == 0
    assert cli_main(["synth", "--algorithm", "pga2d", "--output", img, "--seed", "2", "--order", "8"]) == 0
    extra = {"afd1d": [], "poga1d": ["--synthesis", synthesis]}
    texts = {}
    for algorithm in ALGORITHMS:
        rec = work / (algorithm + ".rec")
        assert cli_main(["decompose", "--algorithm", algorithm, "--input", sig if algorithm in extra else img,
                         "--output", str(rec), "--terms", "2", "--refine", "0"]
                        + grid + extra.get(algorithm, ["--full-recon"])) == 0
        assert cli_main(["verify", "--input", str(rec)]) == 0
        texts[algorithm] = rec.read_text()
    return texts


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_and_reconstruct_refuse_the_same_meta_edits(small_records, data):
    """Drop one meta line of a valid record, give it a value of ``META_VALUES``, or
    repeat it, before or after itself, with such a value: ``verify`` exits 2 if
    and only if ``reconstruct`` does, always on a repeated line, and
    ``reconstruct`` writes its output only when it exits 0."""
    algorithm = data.draw(st.sampled_from(ALGORITHMS))
    lines = small_records[algorithm].split("\n")
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("meta ")]))
    value = data.draw(st.sampled_from([None] + META_VALUES))
    repeat = value is not None and data.draw(st.booleans())
    edited = "meta %s %s" % (lines[i].split(" ")[1], value)
    if value is None:
        del lines[i]
    elif repeat:
        lines.insert(i + data.draw(st.integers(0, 1)), edited)
    else:
        lines[i] = edited
    with tempfile.TemporaryDirectory() as work:
        rec, out = os.path.join(work, "r.rec"), os.path.join(work, "out")
        with open(rec, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        verified = cli_main(["verify", "--input", rec])
        rebuilt = cli_main(["reconstruct", "--input", rec, "--output", out])
        assert (verified == 2) == (rebuilt == 2), (edited if value else "dropped", repeat, verified, rebuilt)
        assert rebuilt in (0, 2) and os.path.exists(out) == (rebuilt == 0)
        assert verified == 2 or not repeat
