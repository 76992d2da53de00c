"""The contracts the package states to its callers.

The library surface that the benchmark in ``perfbench/`` relies on:
``perfbench/checks.py`` replays records through ``afdkit.<name>`` calls and
``perfbench/tracer.py`` wraps module and class attributes by name.  A
library change that drops one of them does not fail the benchmark: the
replay errors out per op, or the tracer silently stops timing that layer.
These tests read both files and fail instead.

The exit codes of the command line: 0 on success, 1 on an
``InvariantViolation`` (a record fails a check of ``verify``, which
``decompose`` makes before it writes, or a P-OGA frame loses its
orthogonality), and 2 on a ``UsageError`` or an ``OSError``.
"""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import os
import pathlib
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afdkit
from afdkit import cli, errors
from afdkit.cli import RecordFile, RecordSection, cli_main, load_record, save_record
from afdkit.errors import (
    InvariantViolation,
    RecordFormatError,
    SpanDegeneracyError,
    TruncationWarning,
    UsageError,
)
from conftest import reference_line_offsets

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["hardy", "szego", "afd1d", "afd2d", "poga", "cli"])
def test_all_names_resolve(name):
    module = importlib.import_module("afdkit." + name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_replayer_names_exist():
    tree = ast.parse((PERFBENCH / "checks.py").read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ak"
    }
    assert "reconstruct_poga" in used
    assert sorted(n for n in used if not hasattr(afdkit, n)) == []


def test_tracer_misses_only_the_known_boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tm_matrix = afdkit.afd1d.tm_matrix
    with module.Tracer().installed() as tracer:
        assert afdkit.afd1d.tm_matrix is not tm_matrix
    assert afdkit.afd1d.tm_matrix is tm_matrix
    # the tracer still looks for FourierCoeffs1D/2D.from_samples, which is
    # gone: ingest is analytic_part and quadrant_split, wrapped in cli
    assert tracer.missing == {"FourierCoeffs1D.from_samples", "FourierCoeffs2D.from_samples"}


# ---------------------------------------------------------------------------
# The exit-code contract of the command line
# ---------------------------------------------------------------------------


def test_every_error_picks_an_exit_code():
    kinds = (UsageError, InvariantViolation, SpanDegeneracyError, Warning)
    classes = [obj for obj in vars(errors).values() if isinstance(obj, type) and obj.__module__ == errors.__name__]
    assert UsageError in classes and TruncationWarning in classes
    assert [c.__name__ for c in classes if not issubclass(c, kinds)] == []


def test_cli_main_names_only_the_contract_bases():
    tree = ast.parse(inspect.getsource(cli.cli_main))
    caught = {
        node.id
        for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for node in ast.walk(handler.type) if isinstance(node, ast.Name)
    }
    assert caught == {"SystemExit", "UsageError", "OSError", "InvariantViolation"}


@pytest.mark.parametrize("error", [
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, (UsageError, InvariantViolation))
], ids=lambda error: error.__name__)
def test_each_error_exits_by_its_base(monkeypatch, capsys, error):
    def load_record(path):
        raise error("cannot use %s" % path)

    monkeypatch.setattr(cli, "load_record", load_record)
    assert cli_main(["verify", "--input", "x.rec"]) == (2 if issubclass(error, UsageError) else 1)
    assert capsys.readouterr().err == "error: cannot use x.rec\n"


# one line of text, multi-byte characters included
_LINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=6)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(_LINE, min_size=1, max_size=4), junk=_LINE, line=st.integers(min_value=0))
def test_damaged_line_reports_its_byte_offset(values, junk, line):
    """Whichever line of a record is damaged, ``load_record`` names its offset in bytes.

    The meta values carry multi-byte characters; the damaged line starts
    with ``?``, as no record line does.
    """
    record = RecordFile(meta=[("note%d" % i, v) for i, v in enumerate(values)])
    steps = [[0.5, 0.25, 0.5, -0.5, 1.0], [0.0, 0.1, 0.1, 0.0, 0.9]]
    record.sections.append(RecordSection("main", "afd1d", 1.25, steps))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "r.rec")
        save_record(record, path)
        with open(path, "rb") as handle:
            lines = handle.read().decode("utf-8").split("\n")
        line %= len(lines) - 1  # the empty string after the final newline is no line
        lines[line] = "?" + junk
        buf = "\n".join(lines).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(buf)
        with pytest.raises(RecordFormatError) as info:
            load_record(path)
    assert str(info.value).endswith(" at byte %d" % reference_line_offsets(buf)[line])


# The values each run setting is drawn from, small enough for a run to take
# milliseconds.  ``synthesis`` is drawn as a flag: the run's own synth emits
# the file.  Every setting of ``cli._SETTINGS`` that a run may be given is here.
_DRAWS = {
    "order": st.integers(8, 24),
    "grid_radial": st.integers(2, 8),
    "grid_angular": st.integers(3, 16),
    "max_radius": st.floats(0.3, 0.995),
    "seed": st.integers(0, 1000),
    "atoms": st.integers(1, 8),
    "coeff_sum": st.floats(0.5, 4.0),
    "terms": st.integers(1, 8),
    "refine": st.integers(0, 2),
    "rho": st.floats(0.3, 1.0),
    "threshold": st.sampled_from([0.0, 1e-12, 1e-6]),
    "full_recon": st.booleans(),
    "synthesis": st.booleans(),
}
_FILES = {"algorithm", "input", "output", "emit_meta"}
_CONTRACT = settings(max_examples=40, deadline=None, derandomize=True, report_multiple_bugs=False)
# the small orders drawn warn of truncation on most runs; the ledger checks are what count here
_QUIET = pytest.mark.filterwarnings("ignore::afdkit.TruncationWarning")


def test_every_setting_is_drawn():
    assert set(_DRAWS) | _FILES == set(cli._SETTINGS)


def _drawn(command, algorithm):
    """The settings of ``command`` that ``algorithm`` runs read, as ``cli._SETTINGS`` states them."""
    names = [name for name, (_, uses, *_) in cli._SETTINGS.items()
             if name in _DRAWS and command in uses and algorithm in uses[command][0]]
    if "synthesis" in names and algorithm not in cli._SETTINGS["emit_meta"][1]["synth"][0]:
        names.remove("synthesis")  # a synth that emits no synthesis file leaves none to read
    return st.fixed_dictionaries({name: _DRAWS[name] for name in names})


def runs(algorithm):
    """(synth settings, decompose settings) of one run, each drawn on its own."""
    return st.tuples(_drawn("synth", algorithm), _drawn("decompose", algorithm))


def _call(work, *argv):
    """``cli_main``'s exit status and its error output, the work directory left out."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, err.getvalue().replace(work, "")


def _options(values, synthesis):
    """Command-line options of drawn settings; a flag drawn False is left out."""
    argv = []
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv += [flag, synthesis] if name == "synthesis" else [flag]
        elif value is not False:
            argv += [flag, repr(value)]
    return argv


def _run(work, algorithm, synth, decompose):
    """Exit status and error output of synth, then decompose; the record is ``work``/r.rec."""
    meta = os.path.join(work, "m.json")
    signal = os.path.join(work, "in.csv" if algorithm in cli.ALGS_1D else "in.pgm")
    emit = ["--emit-meta", meta] if decompose.get("synthesis") else []
    code, err = _call(work, "synth", "--algorithm", algorithm, "--output", signal, *_options(synth, meta), *emit)
    if code == 0:
        code, err = _call(work, "decompose", "--algorithm", algorithm, "--input", signal,
                          "--output", os.path.join(work, "r.rec"), *_options(decompose, meta))
    return code, err


def _names_a_setting(err, synth, decompose):
    """Whether the error output names a drawn setting, as an option or by its name."""
    return any(name in err or name.replace("_", "-") in err for name in {**synth, **decompose})


def check_contract(algorithm, synth, decompose):
    """synth, then decompose, exits 0 or exits 2 naming a setting; after exit 0, verify exits 0."""
    with tempfile.TemporaryDirectory() as work:
        code, err = _run(work, algorithm, synth, decompose)
        assert code in (0, 2), err
        if code == 2:
            assert _names_a_setting(err, synth, decompose), err
            return
        assert _call(work, "verify", "--input", os.path.join(work, "r.rec")) == (0, "")


# Every algorithm breaches the contract today.  Each test pins a reproduction
# of each cause with ``example``, so that its strict xfail is deterministic;
# its drawn runs check the contract once those pass.
_SYNTH_1D = {"order": 8, "grid_radial": 2, "grid_angular": 3, "max_radius": 0.5, "seed": 0, "atoms": 1,
             "coeff_sum": 1.0}
_SYNTH_2D = {"order": 8, "seed": 0}
_DECOMPOSE = {"order": 8, "grid_radial": 2, "grid_angular": 3, "refine": 0, "threshold": 0.0}
_DECOMPOSE_2D = dict(_DECOMPOSE, max_radius=0.75, terms=2)
# a poga1d synthesis whose one atom the decompose grid misses
_OFF_GRID = ({"order": 22, "grid_radial": 4, "grid_angular": 13, "max_radius": 0.629, "seed": 980, "atoms": 1,
              "coeff_sum": 1.0},
             dict(_DECOMPOSE, order=22, grid_radial=5, grid_angular=15, max_radius=0.814, terms=3, rho=1.0,
                  synthesis=True))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1 (a): the afd1d kernel cut off at the order has norm below 1 and its oversampled "
    "backward shift loses energy, so at order 8 the first step, at |a| = 0.4375 or 0.5, breaks the energy "
    "ledger and decompose exits 1 naming main.ledger"))
@example(run=(_SYNTH_1D, dict(_DECOMPOSE, max_radius=0.875, terms=4)))
@example(run=(_SYNTH_1D, dict(_DECOMPOSE, max_radius=0.5, terms=1)))
@_QUIET
@_CONTRACT
@given(run=runs("afd1d"))
def test_afd1d_runs_keep_the_contract(run):
    check_contract("afd1d", *run)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "off-grid synthesis: synth draws its atoms from its own grid, and the rate bound of meta M holds "
    "only for atoms of the decompose grid's dictionary, so when that grid misses them decompose exits 1 "
    "naming main.rate (ROADMAP item 11)"))
@example(run=_OFF_GRID)
@_QUIET
@_CONTRACT
@given(run=runs("poga1d"))
def test_poga1d_runs_keep_the_contract(run):
    check_contract("poga1d", *run)


def test_off_grid_poga1d_synthesis_is_refused():
    with tempfile.TemporaryDirectory() as work:
        code, err = _run(work, "poga1d", *_OFF_GRID)
        assert code == 1 and not os.path.exists(os.path.join(work, "r.rec")), err
        assert re.fullmatch(r"error: record fails main\.rate \(min slack \S+, recurrence False\); nothing written\n",
                            err), err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1 (a) through the F and G sections of a --full-recon run: an afd1d step of theirs breaks "
    "the energy ledger, and decompose exits 1 naming F.ledger or G.ledger"))
@example(run=(_SYNTH_2D, dict(_DECOMPOSE_2D, full_recon=True)))
@_QUIET
@_CONTRACT
@given(run=runs("afd2d-tm"))
def test_afd2d_tm_runs_keep_the_contract(run):
    check_contract("afd2d-tm", *run)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1 (b): the pga2d tensor atom has norm below 1, so decompose exits 1 naming main.ledger; "
    "and item 1 (a) through the F and G sections of a --full-recon run, where an afd1d step breaks the "
    "energy ledger and decompose exits 1 naming F.ledger or G.ledger"))
@example(run=(_SYNTH_2D, dict(_DECOMPOSE_2D, full_recon=False)))
@example(run=(_SYNTH_2D, dict(_DECOMPOSE_2D, full_recon=True)))
@_QUIET
@_CONTRACT
@given(run=runs("pga2d"))
def test_pga2d_runs_keep_the_contract(run):
    check_contract("pga2d", *run)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1 (a) through the F and G sections of a --full-recon run: an afd1d step of theirs breaks "
    "the energy ledger, and decompose exits 1 naming F.ledger or G.ledger"))
@example(run=(_SYNTH_2D, dict(_DECOMPOSE_2D, rho=1.0, full_recon=True)))
@example(run=(_SYNTH_2D, dict(_DECOMPOSE_2D, order=9, max_radius=0.625, rho=1.0, full_recon=True)))
@_QUIET
@_CONTRACT
@given(run=runs("poga2d"))
def test_poga2d_runs_keep_the_contract(run):
    check_contract("poga2d", *run)


# every run of every algorithm, as (algorithm, synth settings, decompose settings)
_ANY_RUN = st.sampled_from(cli.ALGORITHMS).flatmap(lambda algorithm: runs(algorithm).map(lambda run: (algorithm, *run)))
# the error of an exit 1 of decompose: the checks of verify the record fails, each with its detail
_REFUSAL = re.compile(r"error: record fails (\w+\.(ledger|monotone|blocks|rate) \([^;]*\); )+nothing written\n")


@example(run=("afd1d", {"order": 64, "seed": 2, "atoms": 6},
              {"order": 64, "max_radius": 0.9, "grid_radial": 48, "grid_angular": 96, "refine": 2, "terms": 3}))
@_QUIET
@settings(_CONTRACT, max_examples=40 * len(cli.ALGORITHMS))
@given(run=_ANY_RUN)
def test_decompose_writes_only_what_verify_accepts(run):
    """decompose exits 0, 1 or 2: exit 0 is followed by verify exit 0, exit 1 names the failed checks
    and leaves no record, and exit 2 names a setting."""
    algorithm, synth, decompose = run
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "r.rec")
        code, err = _run(work, algorithm, synth, decompose)
        assert code in (0, 1, 2), err
        if code == 0:
            assert _call(work, "verify", "--input", path) == (0, "")
        elif code == 1:
            assert _REFUSAL.fullmatch(err) and not os.path.exists(path), err
        else:
            assert _names_a_setting(err, synth, decompose), err


# one run of each algorithm; each writes every section its algorithm can, and poga1d checks main.rate
_RECORD_RUNS = {
    "afd1d": (_SYNTH_1D, dict(_DECOMPOSE, max_radius=0.5, terms=3)),
    "poga1d": (_SYNTH_1D, dict(_DECOMPOSE, max_radius=0.5, terms=3, rho=0.5, synthesis=True)),
    "afd2d-tm": (_SYNTH_2D, dict(_DECOMPOSE_2D, full_recon=True)),
    "pga2d": (_SYNTH_2D, dict(_DECOMPOSE_2D, full_recon=True)),
    "poga2d": (_SYNTH_2D, dict(_DECOMPOSE_2D, rho=0.5, full_recon=True)),
}


@pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
@_QUIET
def test_decompose_checks_the_record_verify_reads(algorithm, tmp_path, monkeypatch):
    """The checks decompose makes on its record in memory are those verify makes on the file, check for check."""
    original, seen = cli.verify_record, []
    monkeypatch.setattr(cli, "verify_record", lambda record: seen.append(record) or original(record))
    code, err = _run(str(tmp_path), algorithm, *_RECORD_RUNS[algorithm])
    assert code in (0, 1) and len(seen) == 1, err
    path = str(tmp_path / "saved.rec")
    save_record(seen[0], path)
    in_memory, on_file = original(seen[0]), original(load_record(path))
    assert in_memory == on_file and len(on_file) >= 2


def _double_largest_coefficient(record):
    """Double the coefficient of largest modulus in the record, an afd2d-tm block entry included."""
    entries = [(fields, i) for sec in record.sections for fields in sec.steps
               for i in _coefficients(sec.algorithm, fields)]
    fields, at = max(entries, key=lambda entry: abs(complex(*entry[0][entry[1]:entry[1] + 2])))
    fields[at:at + 2] = [2.0 * x for x in fields[at:at + 2]]


def _coefficients(algorithm, fields):
    """Offsets of the complex coefficients among a step's fields: its coeff, or its block entries."""
    offset = 0
    for name, kind in cli.STEP_LAYOUTS[algorithm]:
        if name == "coeff":
            return [offset]
        if kind == "block":
            return range(offset + 1, len(fields), 2)
        offset += cli._KINDS[kind][0]


@pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
@_QUIET
@_CONTRACT
@given(data=st.data())
def test_verified_records_fail_when_damaged(algorithm, data):
    """A record that verifies reconstructs; a doubled coefficient exits 1, a cut record 2."""
    synth, decompose = data.draw(runs(algorithm))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "r.rec")
        if _run(work, algorithm, synth, decompose)[0] != 0 or _call(work, "verify", "--input", path)[0] != 0:
            return
        out = os.path.join(work, "out.csv" if algorithm in cli.ALGS_1D else "out.pgm")
        assert _call(work, "reconstruct", "--input", path, "--output", out) == (0, "")
        record = load_record(path)
        with open(path, "rb") as handle:
            clean = handle.read()
        if any(sec.steps for sec in record.sections):
            _double_largest_coefficient(record)
            save_record(record, path)
            assert _call(work, "verify", "--input", path) == (1, "error: record failed verification\n")
        cut = clean.rindex(b"end\n")
        with open(path, "wb") as handle:
            handle.write(clean[:cut])
        code, err = _call(work, "verify", "--input", path)
        assert code == 2 and err.endswith(": truncated record at byte %d\n" % cut), err
