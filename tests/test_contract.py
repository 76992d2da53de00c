"""The library surface that the benchmark in ``perfbench/`` relies on.

``perfbench/checks.py`` replays records through ``afdkit.<name>`` calls and
``perfbench/tracer.py`` wraps module and class attributes by name.  A
library change that drops one of them does not fail the benchmark: the
replay errors out per op, or the tracer silently stops timing that layer.
These tests read both files and fail instead.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import afdkit

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
    # from_samples is inherited from hardy.FourierCoeffs, so the subclasses'
    # own namespaces the tracer looks in no longer hold it
    assert tracer.missing == {"FourierCoeffs1D.from_samples", "FourierCoeffs2D.from_samples"}
