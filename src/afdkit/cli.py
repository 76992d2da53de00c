"""Signal ingestion, decomposition records, and the command-line surface.

Input formats are deliberately minimal: CSV with one real sample per line
(``#`` starts a comment) for 1-d signals, and binary 8-bit square PGM (P5)
for images.  Decomposition records are versioned, line-oriented UTF-8 text;
complex numbers are stored as two decimal fields with 17 significant digits
so that save, load, save round-trips are byte identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    IngestError,
    InvariantViolation,
    RecordFormatError,
    SpanDegeneracyError,
    UsageError,
)
from .hardy import (
    FourierCoeffs1D,
    FourierCoeffs2D,
    GridSpec,
    QuadrantParts,
    Record,
    Step,
    _inverse_fft,
    analytic_part,
    grid_points,
    next_pow2,
    quadrant_split,
    real_field_2d,
)
from .szego import AtomSpec, TensorAtomSpec, szego_coeffs
from .afd1d import afd_decompose_1d, reconstruct_1d
from .afd2d import afd2d_tm_decompose, pga_decompose, reconstruct_pga, reconstruct_product_tm
from .poga import (
    ProductSzegoDictionary2D,
    SzegoDictionary1D,
    poga_decompose,
    rate_report,
    reconstruct_poga,
)

__all__ = [
    "load_signal_1d",
    "load_image_2d",
    "RecordSection",
    "RecordFile",
    "STEP_LAYOUTS",
    "encode_section",
    "decode_section",
    "save_record",
    "load_record",
    "verify_record",
    "synth_signal_1d",
    "cli_main",
    "main",
]

FORMAT_HEADER = "afdkit-record 1"
ALGS_1D = ("afd1d", "poga1d")


def _fmt(x):
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def load_signal_1d(path, order):
    """Load a real 1-d signal from CSV and return its analytic (Hardy) part.

    One real sample per line on a uniform grid over [0, 2 pi); lines that
    are blank or start with ``#`` are skipped.  Needs at least
    ``2 * order + 1`` samples, the rule of ``analytic_part``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    rows = [line.split(",")[0] for line in map(str.strip, lines) if line and not line.startswith("#")]
    try:
        samples = np.array(list(map(float, rows)))
    except ValueError:
        samples = None
    if samples is None or not np.isfinite(samples).all():
        _raise_bad_row(path, lines)
    try:
        return analytic_part(samples, order)
    except UsageError as exc:
        raise IngestError("%s: %s" % (path, exc))


def _raise_bad_row(path, lines):
    """Raise ``IngestError`` for the first sample row that is not a finite number."""
    for lineno, line in enumerate(map(str.strip, lines), start=1):
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line.split(",")[0])
        except ValueError:
            raise IngestError("%s: row %d is not numeric: %r" % (path, lineno, line))
        if not math.isfinite(value):
            raise IngestError("%s: row %d is not finite: %r" % (path, lineno, line))


def _parse_pgm(buf, path):
    if buf[:2] != b"P5":
        raise IngestError("%s: not a binary PGM (P5) file" % path)
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise IngestError("%s: malformed PGM header" % path)
        tokens.append(buf[start:pos])
    if pos >= len(buf):
        raise IngestError("%s: malformed PGM header" % path)
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise IngestError("%s: non-numeric PGM header fields" % path)
    if width < 1 or height < 1:
        raise IngestError("%s: PGM size %dx%d is not positive" % (path, width, height))
    if not 0 < maxval <= 255:
        raise IngestError("%s: only 8-bit PGM supported (maxval %d)" % (path, maxval))
    data = buf[pos : pos + width * height]
    if len(data) < width * height:
        raise IngestError("%s: truncated pixel data" % path)
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    if pixels.max() > maxval:
        raise IngestError("%s: pixel value %d above maxval %d" % (path, pixels.max(), maxval))
    return pixels, maxval


def load_image_2d(path, order):
    """Load a square 8-bit PGM image and return its ``QuadrantParts``.

    Pixel values are mapped to [0, 1]; rows index the first torus variable.
    The side must be at least ``2 * order + 1``, the rule of ``quadrant_split``.
    """
    with open(path, "rb") as handle:
        buf = handle.read()
    pixels, maxval = _parse_pgm(buf, path)
    try:
        return quadrant_split(pixels.astype(float) / maxval, order)
    except UsageError as exc:
        raise IngestError("%s: %s" % (path, exc))


def write_csv(path, header, values):
    """Write real samples as CSV: the comment line ``header``, then one ``%.17g`` value per line."""
    values = np.asarray(values).tolist()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n" + "%.17g\n" * len(values) % tuple(values))


def write_pgm(path, field01):
    """Write a [0, 1]-valued real field as an 8-bit binary PGM, row by row in any memory order."""
    scaled = np.multiply(field01, 255.0)
    np.clip(np.round(scaled, out=scaled), 0, 255, out=scaled)
    header = b"P5\n%d %d\n255\n" % (scaled.shape[1], scaled.shape[0])
    with open(path, "wb") as handle:
        handle.write(header + scaled.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass
class RecordSection:
    name: str
    algorithm: str
    initial_energy: float
    steps: list[list[float]] = field(default_factory=list)


@dataclass
class RecordFile:
    meta: list[tuple[str, str]] = field(default_factory=list)
    sections: list[RecordSection] = field(default_factory=list)

    def meta_dict(self):
        return dict(self.meta)


def save_record(record, path):
    """Serialize a RecordFile; the format round-trips byte identically."""
    lines = [FORMAT_HEADER]
    for key, value in record.meta:
        lines.append("meta %s %s" % (key, value))
    for sec in record.sections:
        lines.append("section %s %s" % (sec.name, sec.algorithm))
        lines.append("energy %s" % _fmt(sec.initial_energy))
        lines.append("steps %d" % len(sec.steps))
        for fields in sec.steps:
            lines.append("step " + " ".join(_fmt(x) for x in fields))
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def load_record(path):
    """Parse a record file; malformed input, a repeated meta key included, reports the offending byte offset."""
    with open(path, "rb") as handle:
        buf = handle.read()
    try:
        text = buf.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RecordFormatError("%s: not UTF-8 text at byte %d" % (path, exc.start))
    lines = text.split("\n")

    def fail(i, msg):
        at = min(len(buf), sum(len(line.encode("utf-8")) + 1 for line in lines[:i]))
        raise RecordFormatError("%s: %s at byte %d" % (path, msg, at))

    def number(i, key, parse, what, valid, invalid):
        """The one value of the ``key`` line i, parsed by ``parse``; it must pass ``valid``."""
        parts = lines[i].split(" ")
        if parts[0] != key or len(parts) != 2:
            fail(i, "expected %s line" % key)
        try:
            value = parse(parts[1])
        except ValueError:
            fail(i, "non-numeric " + what)
        if not valid(value):
            fail(i, "%s %s" % (invalid, what))
        return value

    if lines[0] != FORMAT_HEADER:
        fail(0, "unsupported record version %r (expected %r)" % (lines[0], FORMAT_HEADER))
    record = RecordFile()
    i = 1
    ended = False
    while i < len(lines):
        line = lines[i]
        if line == "":  # blank lines may only trail the record, which then ends here
            if any(lines[i:]):
                fail(i, "unexpected blank line")
            break
        if ended:
            fail(i, "content after end marker")
        parts = line.split(" ")
        if parts[0] == "meta" and len(parts) >= 3:
            if any(key == parts[1] for key, _ in record.meta):
                fail(i, "repeated meta %s" % parts[1])
            record.meta.append((parts[1], " ".join(parts[2:])))
            i += 1
        elif parts[0] == "section" and len(parts) == 3:
            if i + 2 >= len(lines):
                fail(len(lines), "truncated section header")
            energy = number(i + 1, "energy", float, "energy", math.isfinite, "non-finite")
            count = number(i + 2, "steps", int, "step count", lambda n: n >= 0, "negative")
            sec = RecordSection(name=parts[1], algorithm=parts[2], initial_energy=energy)
            i += 3
            for k in range(count):
                if i >= len(lines) or not lines[i].startswith("step "):
                    fail(i, "truncated record (missing step %d of %d)" % (k + 1, count))
                try:
                    fields = [float(x) for x in lines[i].split(" ")[1:]]
                except ValueError:
                    fail(i, "non-numeric step fields")
                if not all(map(math.isfinite, fields)):
                    fail(i, "non-finite step fields")
                sec.steps.append(fields)
                i += 1
            record.sections.append(sec)
        elif parts[0] == "end" and len(parts) == 1:
            ended = True
            i += 1
        else:
            fail(i, "unrecognized line %r" % line)
    if not ended:
        fail(i, "truncated record")
    return record


def _meta_field(meta, key, kind=str, setting=None):
    """A metadata value converted by ``kind``; a value that is absent, malformed or non-finite, or
    that fails the test of ``_SETTINGS[setting]`` when a setting is given, is a format error."""
    value = meta.get(key)
    if value is None:
        raise RecordFormatError("record has no meta %s" % key)
    try:
        out = kind(value)
    except ValueError:
        raise RecordFormatError("record meta %s has a malformed value %r" % (key, value))
    if isinstance(out, (float, complex)) and not np.isfinite(out):
        raise RecordFormatError("record meta %s is not finite: %r" % (key, value))
    if isinstance(out, int) and out < 0:
        raise RecordFormatError("record meta %s is negative: %r" % (key, value))
    if setting is not None and not _SETTINGS[setting][2](out):
        rule = _SETTINGS[setting][3].split(" ", 1)[1]  # without the option name that starts it
        raise RecordFormatError("record meta %s %s, got %r" % (key, rule, out))
    return out


def _decode_atom(f, i):
    """The ``AtomSpec`` at offset i; its multiplicity, stored as a float, must be a whole number."""
    m = f[i + 2]
    if not float(m).is_integer():
        raise RecordFormatError("step field %r is not a whole number" % m)
    return AtomSpec(complex(f[i], f[i + 1]), int(m))


def _floats(c, *whole):
    """The fields of a complex ``c``, real then imaginary, then the multiplicities ``whole``."""
    return [c.real, c.imag, *whole]


# Field kinds of a ``step`` line: (float count, encode, decode).  ``encode``
# maps a step attribute to its floats; ``decode(fields, i)`` reads it back
# from offset i.  Multiplicities and the block count are whole numbers
# stored as floats.  Every disc parameter passes through ``AtomSpec``, which
# rejects |a| >= 1.  A ``block`` is the trailing count n followed by n
# complex entries.
_KINDS = {
    "real": (1, lambda x: [x], lambda f, i: f[i]),
    "complex": (2, _floats, lambda f, i: complex(f[i], f[i + 1])),
    "point": (2, _floats, lambda f, i: AtomSpec(complex(f[i], f[i + 1])).a),
    "atom": (3, lambda s: _floats(s.a, s.m), _decode_atom),
    "pair": (4, lambda s: _floats(s.left.a) + _floats(s.right.a),
             lambda f, i: TensorAtomSpec.of(complex(f[i], f[i + 1]), complex(f[i + 2], f[i + 3]))),
    "tensor": (6, lambda s: _floats(s.left.a, s.left.m) + _floats(s.right.a, s.right.m),
               lambda f, i: TensorAtomSpec(_decode_atom(f, i), _decode_atom(f, i + 3))),
    "block": (1, lambda b: [len(b)] + [x for c in b for x in _floats(c)],
              lambda f, i: np.array(f[i + 1:], dtype=float).view(complex)),
}

# Each algorithm's ``Step`` fields in line order.  Step field positions
# appear nowhere else: arity, encode and decode all follow from this table.
# The afd2d-tm block of step n holds 2n - 1 entries.
STEP_LAYOUTS = {
    "afd1d": (("a", "point"), ("coeff", "complex"), ("residual_energy", "real")),
    "afd2d-tm": (("a", "point"), ("b", "point"), ("block_energy", "real"), ("residual_energy", "real"),
                 ("block", "block")),
    "pga2d": (("atom", "pair"), ("coeff", "complex"), ("residual_energy", "real")),
    "poga1d": (("atom", "atom"), ("coeff", "complex"), ("r", "real"), ("r_sup", "real"),
               ("residual_energy", "real")),
    "poga2d": (("atom", "tensor"), ("coeff", "complex"), ("r", "real"), ("r_sup", "real"),
               ("residual_energy", "real")),
}

ALGORITHMS = tuple(STEP_LAYOUTS)

# The sections of a 2-d record: name, the algorithm that decomposes it (None
# for the run's own) and the ``QuadrantParts`` field it holds.  A record
# without --full-recon holds ``main`` only; a --full-recon record holds every
# section and meta c00.
_SECTIONS_2D = (("main", None, "pp"), ("fpm", None, "pm"), ("F", "afd1d", "F"), ("G", "afd1d", "G"))


_Layout = namedtuple("_Layout", "algorithm order samples M c00 dictionary sections")


def _layout_sections(record):
    """The meta and decoded sections of a record, read once for ``verify`` and ``reconstruct``.

    Every rule of a record's meta is stated here.  The record must hold
    meta ``algorithm``, ``order`` and ``samples`` = next_pow2(2 order + 2),
    the count ``decompose`` writes, and exactly the sections of its layout,
    each run by its algorithm: ``main`` by the record's own, and for a 2-d
    --full-recon record every section of ``_SECTIONS_2D`` and a finite meta
    c00.  A meta M must be finite and > 0, and a POGA record needs its meta
    rho in (0, 1] and the grid of its dictionary, read after the sections
    are decoded.  Anything else is a format error; a partial --full-recon
    set names what it misses.
    Returns a ``_Layout``: M is None without one, c00 None without
    --full-recon, dictionary None outside the POGA runs, and sections holds
    (section, ``QuadrantParts`` field, library record) in record order.
    """
    meta = record.meta_dict()
    algorithm = _meta_field(meta, "algorithm")
    order, samples = _meta_field(meta, "order", int), _meta_field(meta, "samples", int)
    if samples != next_pow2(2 * order + 2):
        raise RecordFormatError("record meta samples must be next_pow2(2 order + 2) = %d at order %d, got %d"
                                % (next_pow2(2 * order + 2), order, samples))
    layout = _SECTIONS_2D[:1]
    if algorithm not in ALGS_1D:
        names = {sec.name for sec in record.sections}
        present = {"section " + name: name in names for name, _, _ in _SECTIONS_2D[1:]}
        present["meta c00"] = "c00" in meta
        missing = [part for part, ok in present.items() if not ok]
        if 0 < len(missing) < len(present):
            raise RecordFormatError("record holds a partial --full-recon set: no %s" % ", ".join(missing))
        layout = _SECTIONS_2D[: 1 if missing else None]
    held = sorted("%s (%s)" % (sec.name, sec.algorithm) for sec in record.sections)
    expected = sorted("%s (%s)" % (name, alg or algorithm) for name, alg, _ in layout)
    if held != expected:
        raise RecordFormatError(
            "record holds sections %s, expected %s" % (", ".join(held) or "none", ", ".join(expected))
        )
    attrs = {name: attr for name, _, attr in layout}
    rho = _meta_field(meta, "rho", float, setting="rho") if algorithm in _POGA else None
    sections = [(s, attrs[s.name], decode_section(s, order, rho)) for s in record.sections]
    # a synthesis bound M follows the rule of --coeff-sum, which synth writes as M
    M = _meta_field(meta, "M", float, setting="coeff_sum") if "M" in meta else None
    c00 = None
    if len(layout) > 1:  # "re im", two floats viewed as one complex; any other field count is malformed
        c00 = _meta_field(meta, "c00", lambda v: np.array(v.split(" "), float).view(complex).item())
    dictionary = None
    if algorithm in _POGA:
        grid = GridSpec(*[_meta_field(meta, key, int) for key in ("grid_radial", "grid_angular", "refine_levels")],
                        max_radius=_meta_field(meta, "max_radius", float))
        dictionary = (SzegoDictionary1D if algorithm == "poga1d" else ProductSzegoDictionary2D)(order, grid)
    return _Layout(algorithm, order, samples, M, c00, dictionary, sections)


def encode_section(name, algorithm, rec):
    """File section holding the steps of a library record."""
    encoders = [(attr, _KINDS[kind][1]) for attr, kind in STEP_LAYOUTS[algorithm]]
    steps = [[x for attr, encode in encoders for x in encode(getattr(s, attr))] for s in rec.steps]
    return RecordSection(name, algorithm, rec.initial_energy, steps)


def decode_section(sec, order, rho=None):
    """Library record of a file section at truncation order ``order``; a POGA section carries ``rho``.

    POGA multiplicities are at most order + 1, as at a = 0: those rungs of
    a ladder span the truncated space already.
    """
    try:
        fields = STEP_LAYOUTS[sec.algorithm]
    except KeyError:
        raise RecordFormatError("unknown algorithm %r in record" % sec.algorithm)
    poga = sec.algorithm in _POGA
    # (field, decode, offset) of each step field; ``width`` counts the floats
    # without block entries, and ``at`` is the offset of the block count, or None
    decoders, width, at = [], 0, None
    for name, kind in fields:
        count, _, decode = _KINDS[kind]
        decoders.append((name, decode, width))
        at = width if kind == "block" else at
        width += count
    rec = Record(initial_energy=sec.initial_energy, rho=rho if poga else None)
    for n, values in enumerate(sec.steps, start=1):
        arity = width
        if at is not None:
            if len(values) > at and values[at] != 2 * n - 1:
                raise RecordFormatError(
                    "%s step %d has block count %g, not %d" % (sec.algorithm, n, values[at], 2 * n - 1)
                )
            arity += 2 * (2 * n - 1)
        if len(values) != arity:
            raise RecordFormatError(
                "bad %s step arity %d (expected %d) at step %d" % (sec.algorithm, len(values), arity, n)
            )
        rec.steps.append(Step(**{name: decode(values, i) for name, decode, i in decoders}))
        if poga:
            atom = rec.steps[-1].atom
            m = max(atom.left.m, atom.right.m) if isinstance(atom, TensorAtomSpec) else atom.m
            if m > order + 1:
                raise RecordFormatError(
                    "%s step %d has multiplicity %d, above order + 1 = %d" % (sec.algorithm, n, m, order + 1)
                )
    return rec


CheckResult = namedtuple("CheckResult", "name ok detail")


def verify_record(record):
    """Re-derive every stored residual energy from the atoms alone.

    Checks, per section: the energy ledger (initial energy minus the
    cumulative extracted energy reproduces each stored residual), residual
    monotonicity, and stored block energies for product-system records; the
    ledger and the block energies hold to the record's ``ledger_tolerance``,
    and a broken ledger names its first failing step.
    When the metadata carries a synthesis bound M, the rate bound of the
    pre-orthogonal runs is re-checked as well.  A pre-orthogonal section
    replays its frame as ``reconstruct`` does, and an atom in the span of
    the earlier ones raises ``RecordFormatError``, as does any record that
    ``reconstruct`` cannot read.
    """
    checks = []
    layout = _layout_sections(record)
    for sec, _, rec in layout.sections:
        tol, scale = rec.ledger_tolerance(), max(1.0, sec.initial_energy)
        running = prev = sec.initial_energy
        deviations = []
        monotone = blocks_ok = True
        for step in rec.steps:
            energy = step.extracted_energy()
            running -= energy
            deviations.append(abs(running - step.residual_energy))
            if step.residual_energy > prev + 1e-12 * scale:
                monotone = False
            prev = step.residual_energy
            if step.block is not None and abs(energy - step.block_energy) > tol:
                blocks_ok = False
        broken = [n for n, deviation in enumerate(deviations, start=1) if not deviation <= tol]
        detail = "max residual deviation %.3e (tol %.1e)" % (max(deviations, default=0.0), tol)
        checks.append(CheckResult("%s.ledger" % sec.name, not broken,
                                  detail + (", first at step %d" % broken[0] if broken else "")))
        checks.append(CheckResult("%s.monotone" % sec.name, monotone,
                                  "residual energies non-increasing" if monotone else "residual increased"))
        if sec.algorithm == "afd2d-tm":
            detail = "block energies match coefficients" if blocks_ok else "block energy mismatch"
            checks.append(CheckResult("%s.blocks" % sec.name, blocks_ok, detail))
        if rec.rho is not None and layout.M is not None:
            report = rate_report(rec, layout.M)
            min_slack = min((row.slack for row in report.rows), default=0.0)
            detail = "min slack %.3e, recurrence %s" % (min_slack, report.recurrence_ok)
            checks.append(CheckResult("%s.rate" % sec.name, report.ok, detail))
        if rec.rho is not None:
            _reconstruct_section(sec, rec, layout)  # raises on linearly dependent atoms
    return checks


# ---------------------------------------------------------------------------
# Synthetic signals
# ---------------------------------------------------------------------------


def synth_signal_1d(order, n_atoms, coeff_sum, grid, seed):
    """Random kernel combination with coefficient 1-norm exactly ``coeff_sum``.

    Atom parameters are drawn (without replacement) from the grid points,
    the PCG64 generator seeded with ``seed`` makes the draw reproducible,
    and the global phase is rotated so the mean coefficient is real, which
    lets the real boundary signal 2 Re f - c_0 round-trip exactly.

    Returns (hardy_coeffs, atom_params, coefficients).
    """
    rng = np.random.default_rng(seed)
    points = grid_points(grid)
    if n_atoms > points.size:
        raise ConfigError("more atoms than grid points")
    idx = rng.choice(points.size, size=n_atoms, replace=False)
    params = [complex(points[i]) for i in idx]
    coeffs = rng.standard_normal(n_atoms) + 1j * rng.standard_normal(n_atoms)
    coeffs *= coeff_sum / np.sum(np.abs(coeffs))
    c0 = sum(c * np.sqrt(1.0 - abs(a) ** 2) for c, a in zip(coeffs, params))
    if abs(c0) > 0:
        coeffs = coeffs * (np.conj(c0) / abs(c0))
    f = FourierCoeffs1D.zeros(order)
    for c, a in zip(coeffs, params):
        f = f + complex(c) * szego_coeffs(a, order)
    return f, params, [complex(c) for c in coeffs]


def real_samples_1d(f, size):
    """Boundary samples of the real signal 2 Re f - c_0 of a Hardy part."""
    return 2.0 * f.boundary_samples(size).real - f.data[0].real


def synth_field_2d(order, seed, size):
    """Random real bandlimited field on the 2-torus, scaled into [0, 1]."""
    rng = np.random.default_rng(seed)
    side = 2 * order + 1
    spec = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    decay = 1.0 / (1.0 + np.abs(np.arange(-order, order + 1)))
    spec *= np.outer(decay, decay)
    spectrum = np.zeros((size, size), dtype=complex)
    index = np.arange(-order, order + 1) % size  # c_{k,l} at (k mod size, l mod size)
    spectrum[np.ix_(index, index)] = (spec + np.conj(spec[::-1, ::-1])) / 2.0
    fieldvals = _inverse_fft(spectrum, slice(order + 1), slice(size - order, size)).real
    lo, hi = fieldvals.min(), fieldvals.max()
    return (fieldvals - lo) / (hi - lo) if hi > lo else np.full_like(fieldvals, 0.5)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


# Every option of every command, stated once: its argparse keywords; for each
# command that takes it, the algorithms that read it and its 1-d and 2-d
# defaults; then the test a given value must pass and its message (``GridSpec``
# checks the grid settings).  2-d runs default to a coarser grid, as their joint
# search is quadratic in it; synth keeps its atoms off the rim, and a 2-d synth
# draws a random field from no grid.
_ANY, _POGA = (ALGORITHMS, None, None), ("poga1d", "poga2d")
_SETTINGS = {
    "algorithm": ({"choices": ALGORITHMS, "default": "afd1d"}, {"synth": _ANY, "decompose": _ANY}),
    "order": ({"type": int}, {"synth": (ALGORITHMS, 256, 64), "decompose": (ALGORITHMS, 256, 64)},
              lambda v: v >= 8, "truncation order must be at least 8"),
    "grid_radial": ({"type": int}, {"synth": (ALGS_1D, 48, None), "decompose": (ALGORITHMS, 48, 24)}),
    "grid_angular": ({"type": int}, {"synth": (ALGS_1D, 96, None), "decompose": (ALGORITHMS, 96, 48)}),
    "max_radius": ({"type": float}, {"synth": (ALGS_1D, 0.9, None), "decompose": (ALGORITHMS, 0.995, 0.995)}),
    "seed": ({"type": int}, {"synth": (ALGORITHMS, 0, 0)}, lambda v: v >= 0, "seed must be >= 0"),
    "atoms": ({"type": int}, {"synth": (ALGS_1D, 10, None)}, lambda v: v >= 1, "atoms must be at least 1"),
    "coeff_sum": ({"type": float}, {"synth": (ALGS_1D, 2.0, None)}, lambda v: 0.0 < v < math.inf,
                  "coeff_sum must be finite and > 0"),
    "emit_meta": ({}, {"synth": (ALGS_1D, None, None)}),
    "terms": ({"type": int}, {"decompose": (ALGORITHMS, 5, 5)}, lambda v: v >= 1, "terms must be at least 1"),
    # P-OGA scans only the coarse grid, yet the benchmark's P-OGA runs pass --refine.
    "refine": ({"type": int}, {"decompose": (ALGORITHMS, 2, 2)}),
    "rho": ({"type": float}, {"decompose": (_POGA, 1.0, 1.0)}, lambda v: 0.0 < v <= 1.0, "rho must lie in (0, 1]"),
    "threshold": ({"type": float}, {"decompose": (ALGORITHMS, 1e-12, 1e-12)}, lambda v: 0.0 <= v < math.inf,
                  "threshold must be finite and >= 0"),
    "synthesis": ({"help": "synthesis metadata JSON (poga runs only)"}, {"decompose": (_POGA, None, None)}),
    "full_recon": ({"action": "store_true", "default": None},
                   {"decompose": (tuple(set(ALGORITHMS) - set(ALGS_1D)), None, False)}),
    "input": ({"required": True}, {"decompose": _ANY, "verify": _ANY, "reconstruct": _ANY}),
    "output": ({"required": True}, {"synth": _ANY, "decompose": _ANY, "reconstruct": _ANY}),
}


def _run_grid(args):
    """Fill the unset settings of ``args`` from ``_SETTINGS``, check them and return the search grid.

    A given value that fails its test, or that the run does not read, is a
    usage error.  ``synth`` draws its atoms from the coarse grid points, so
    its grid has no refinement levels; a 2-d ``synth`` has no grid (None).
    """
    for name, (_, uses, *check) in _SETTINGS.items():
        if args.command not in uses:
            continue
        readers, *defaults = uses[args.command]
        if getattr(args, name) is None:
            setattr(args, name, defaults[args.algorithm not in ALGS_1D])
        elif check and not check[0](getattr(args, name)):
            raise ConfigError(check[1])
        elif args.algorithm not in readers:
            raise ConfigError("--%s does not apply to %s runs" % (name.replace("_", "-"), args.algorithm))
    if args.max_radius is None:
        return None
    return GridSpec(radial_count=args.grid_radial, angular_count=args.grid_angular,
                    refine_levels=getattr(args, "refine", 0), max_radius=args.max_radius)


def _run_meta(args, M, c00):
    """Every meta line of a decomposition run in record order; M and c00 are left out when None."""
    from . import __version__

    lines = (("algorithm", args.algorithm), ("order", args.order), ("terms", args.terms),
             ("grid_radial", args.grid_radial), ("grid_angular", args.grid_angular),
             ("refine_levels", args.refine), ("max_radius", args.max_radius), ("rho", args.rho),
             ("threshold", args.threshold), ("M", M), ("samples", next_pow2(2 * args.order + 2)), ("c00", c00))
    return [("generator", "afdkit %s" % __version__)] + [
        (key, "%s %s" % (_fmt(value.real), _fmt(value.imag)) if isinstance(value, complex)
         else _fmt(value) if isinstance(value, float) else str(value))
        for key, value in lines if value is not None
    ]


def _cmd_synth(args):
    grid = _run_grid(args)
    if args.algorithm in ALGS_1D:
        f, params, coeffs = synth_signal_1d(args.order, args.atoms, args.coeff_sum, grid, args.seed)
        size = next_pow2(2 * (args.order + 1))
        write_csv(args.output, "# synthetic kernel combination, seed=%d" % args.seed, real_samples_1d(f, size))
        if args.emit_meta:
            meta = {
                "order": args.order,
                "M": args.coeff_sum,
                "atoms": [[a.real, a.imag] for a in params],
                "coeffs": [[c.real, c.imag] for c in coeffs],
            }
            with open(args.emit_meta, "w", encoding="utf-8") as handle:
                json.dump(meta, handle, indent=1)
        print("wrote %d samples to %s" % (size, args.output))
    else:
        size = max(next_pow2(2 * args.order + 2), 64)
        fieldvals = synth_field_2d(args.order, args.seed, size)
        write_pgm(args.output, fieldvals)
        print("wrote %dx%d image to %s" % (size, size, args.output))
    return 0


def _decompose(algorithm, f, args, grid, synthesis=None):
    """Library record of one algorithm's run on the Hardy coefficients ``f``."""
    if algorithm in ("poga1d", "poga2d"):
        dictionary = (SzegoDictionary1D if algorithm == "poga1d" else ProductSzegoDictionary2D)(args.order, grid)
        return poga_decompose(
            f, args.terms, dictionary, rho=args.rho, synthesis=synthesis, threshold=args.threshold
        )
    run = {"afd1d": afd_decompose_1d, "afd2d-tm": afd2d_tm_decompose, "pga2d": pga_decompose}[algorithm]
    return run(f, args.terms, grid, threshold=args.threshold)


def _load_synthesis(path, algorithm):
    """Synthesis atoms and the bound M of the --synthesis file of a poga run."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except ValueError as exc:
        raise ConfigError("synthesis file %s is not JSON: %s" % (path, exc))

    def field(key, parse):
        if not isinstance(meta, dict) or key not in meta:
            raise ConfigError("synthesis file %s has no %r" % (path, key))
        try:
            return parse(meta[key])
        except (TypeError, ValueError, IndexError):
            raise ConfigError("synthesis file %s has a malformed %r" % (path, key))

    M = field("M", float)
    if not _SETTINGS["coeff_sum"][2](M):
        raise ConfigError("synthesis file %s needs a finite 'M' > 0, got %r" % (path, M))
    if algorithm == "poga1d":
        return field("atoms", lambda atoms: [AtomSpec(complex(re, im)) for re, im in atoms]), M
    return field("atoms", lambda atoms: [
        TensorAtomSpec.of(complex(a[0], a[1]), complex(b[0], b[1])) for a, b in atoms
    ]), M


def _cmd_decompose(args):
    grid = _run_grid(args)
    synthesis, M = _load_synthesis(args.synthesis, args.algorithm) if args.synthesis else (None, None)
    if args.algorithm in ALGS_1D:
        inputs, c00 = [("main", args.algorithm, load_signal_1d(args.input, args.order))], None
    else:
        parts = load_image_2d(args.input, args.order)
        inputs = [(name, alg or args.algorithm, getattr(parts, attr))
                  for name, alg, attr in _SECTIONS_2D[: None if args.full_recon else 1]]
        c00 = parts.c00 if args.full_recon else None
    record = RecordFile(meta=_run_meta(args, M, c00))
    recs = {}
    for name, alg, f in inputs:
        recs[name] = _decompose(alg, f, args, grid, synthesis if name == "main" else None)
        record.sections.append(encode_section(name, alg, recs[name]))
    # the checks of ``verify`` on the record in memory, which ``%.17g`` fields round-trip exactly
    failed = ["%s (%s)" % (chk.name, chk.detail) for chk in verify_record(record) if not chk.ok]
    if failed:
        raise InvariantViolation("record fails %s; nothing written" % "; ".join(failed))
    save_record(record, args.output)
    print("step,extracted_energy,residual_energy")
    for i, step in enumerate(recs["main"].steps, start=1):
        print("%d,%.6e,%.6e" % (i, step.extracted_energy(), step.residual_energy))
    return 0


def _cmd_verify(args):
    checks = verify_record(load_record(args.input))
    for chk in checks:
        print("check,%s,%s,%s" % (chk.name, "pass" if chk.ok else "fail", chk.detail))
    if not all(chk.ok for chk in checks):
        raise InvariantViolation("record failed verification")
    return 0


def _reconstruct_section(sec, rec, layout):
    """Hardy coefficients of the partial sum in ``sec``, decoded as ``rec``; a dependent POGA atom is a format error."""
    rebuild = {"afd1d": reconstruct_1d, "afd2d-tm": reconstruct_product_tm, "pga2d": reconstruct_pga}
    if sec.algorithm in rebuild:
        return rebuild[sec.algorithm](rec, layout.order)
    try:
        vec = reconstruct_poga(rec, layout.dictionary)
    except SpanDegeneracyError as exc:
        raise RecordFormatError("section %s: %s" % (sec.name, exc)) from None
    if sec.algorithm == "poga1d":
        return FourierCoeffs1D(vec)
    return FourierCoeffs2D(vec.reshape(layout.order + 1, layout.order + 1))


def _cmd_reconstruct(args):
    layout = _layout_sections(load_record(args.input))
    parts = {attr: _reconstruct_section(sec, rec, layout) for sec, attr, rec in layout.sections}
    size = layout.samples
    if layout.algorithm in ALGS_1D:  # the one section, main, fills the first field of the 2-d layout
        write_csv(args.output, "# reconstruction", real_samples_1d(parts["pp"], size))
        print("wrote %d samples to %s" % (size, args.output))
        return 0
    fieldvals = (2.0 * parts["pp"].boundary_samples(size).real if layout.c00 is None
                 else real_field_2d(QuadrantParts(**parts, c00=layout.c00), size))
    write_pgm(args.output, fieldvals)
    print("wrote %dx%d image to %s" % (size, size, args.output))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once per process from ``_SETTINGS``.

    ``parse_args`` returns a fresh ``Namespace`` on every call, so one
    parser serves every ``cli_main`` call without carrying values between
    them.
    """
    parser = argparse.ArgumentParser(
        prog="afdkit",
        description="Adaptive kernel decompositions of boundary signals on the disc and 2-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
        ("synth", _cmd_synth, "generate a reproducible synthetic test signal"),
        ("decompose", _cmd_decompose, "decompose a signal and store the record"),
        ("verify", _cmd_verify, "re-check the ledger and rate bounds of a record"),
        ("reconstruct", _cmd_reconstruct, "rebuild a signal from a record"),
    ):
        command_parser = sub.add_parser(command, help=text)
        for name, (keywords, uses, *_) in _SETTINGS.items():
            if command in uses:
                command_parser.add_argument("--" + name.replace("_", "-"), **keywords)
        command_parser.set_defaults(func=func)
    return parser


def cli_main(argv=None):
    """Entry point returning the process exit status.

    0 on success, 1 on an ``InvariantViolation`` (a record that fails a
    check of ``verify_record``, at ``decompose`` before it writes or at
    ``verify``), 2 on a ``UsageError`` (a setting, input file or record the
    run cannot use) or ``OSError``.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())
