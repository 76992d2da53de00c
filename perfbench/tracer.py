"""Per-layer spans and counts, recorded from outside the program.

``Tracer.installed()`` replaces public functions of the six modules
at the attribute their caller looks up (``afdkit.afd1d.grid_argmax`` is what
``msp_1d`` calls, ``afdkit.cli.afd_decompose_1d`` is what the CLI calls) and
restores them on exit.  Nothing in the package changes.  Spans are kept in
memory; a span's self time is its duration minus that of its direct
children.
"""

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Spans opened by the benchmark itself around an op and its CLI commands.
# Time in them but in no layer span below is reported as run.untraced_share.
GLUE_SPANS = ("op", "cli.decompose", "cli.verify", "cli.reconstruct")


def _multiplicity(spec):
    if hasattr(spec, "m"):
        return spec.m
    return max(spec.left.m, spec.right.m)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self.counts = Counter()
        self.op = None
        self.missing = set()  # boundaries the package no longer has, so not traced

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _objective(self, objective, points):
        tracer = self

        def traced(*args):
            tracer.counts["hardy.objective_points"] += points(args)
            index = tracer.open("hardy.objective")
            try:
                return objective(*args)
            finally:
                tracer.close(index)

        return traced

    def _argmax(self, fn, points):
        tracer = self

        @functools.wraps(fn)
        def traced(objective, spec):
            index = tracer.open("hardy.argmax")
            try:
                return fn(tracer._objective(objective, points), spec)
            finally:
                tracer.close(index)

        return traced

    def _patches(self):
        """(owner, attribute, replacement factory) for every traced boundary."""
        hardy, afd1d, afd2d, poga, cli = (
            importlib.import_module("afdkit." + m) for m in ("hardy", "afd1d", "afd2d", "poga", "cli")
        )
        counts = self.counts

        def count(key):
            def after(args, result):
                counts[key] += 1
            return after

        def steps(key):
            def after(args, result):
                counts[key] += len(result.steps)
            return after

        def scan_entries(args, result):
            counts["poga.scan_entries"] += int(np.size(result[0]))

        def escalated(args, result):
            if _multiplicity(args[1]) > 1:
                counts["poga.escalated_atoms"] += 1

        def record_bytes(args, result):
            with open(args[1], "rb") as handle:
                counts["cli.record_bytes"] += len(handle.read())

        def span(name, after=None):
            return lambda fn: self._wrap(fn, name, after)

        points_1d = lambda args: int(np.size(args[0]))
        points_2d = lambda args: int(np.size(args[0])) * int(np.size(args[1]))
        table = [
            (afd1d, "grid_argmax", lambda fn: self._argmax(fn, points_1d)),
            (afd2d, "grid_argmax_pairs", lambda fn: self._argmax(fn, points_2d)),
            (cli, "analytic_part", span("hardy.ingest")),
            (cli, "quadrant_split", span("hardy.ingest")),
            (afd1d, "szego_coeffs", span("szego.atom", count("szego.atoms"))),
            (afd2d, "tensor_atom_coeffs", span("szego.atom", count("szego.atoms"))),
            (poga, "normalized_atom_coeffs", span("szego.atom", count("szego.atoms"))),
            (poga, "tensor_atom_coeffs", span("szego.atom", count("szego.atoms"))),
            (afd1d, "backward_shift", span("afd1d.backward_shift")),
            (afd1d, "tm_matrix", span("afd1d.tm_matrix")),
            (afd2d, "tm_matrix", span("afd1d.tm_matrix")),
            (cli, "afd_decompose_1d", span("afd1d.decompose", steps("afd1d.steps"))),
            (afd2d, "msp_product_tm", span("afd2d.msp_product_tm")),
            (afd2d, "pga_step", span("afd2d.pga_step")),
            (cli, "afd2d_tm_decompose", span("afd2d.decompose", steps("afd2d.steps"))),
            (cli, "pga_decompose", span("afd2d.decompose", steps("afd2d.steps"))),
            (cli, "poga_decompose", span("poga.decompose", steps("poga.steps"))),
            (poga.OrthoFrame, "extend", span("poga.extend")),
            (poga.OrthoFrame, "project_residual", span("poga.project_residual")),
            (cli, "load_signal_1d", span("cli.ingest")),
            (cli, "load_image_2d", span("cli.ingest")),
            (cli, "save_record", span("cli.save_record", record_bytes)),
            (cli, "load_record", span("cli.load_record")),
        ]
        for cls in (poga.SzegoDictionary1D, poga.ProductSzegoDictionary2D):
            table += [
                (cls, "__init__", span("poga.dictionary_build")),
                (cls, "scan", span("poga.scan", scan_entries)),
                (cls, "atom_vector", span("poga.atom_vector", escalated)),
            ]
        for cls in (hardy.FourierCoeffs1D, hardy.FourierCoeffs2D):
            table.append((cls, "from_samples", span("hardy.ingest")))
        return table

    @contextmanager
    def installed(self):
        """Trace the package's layer boundaries inside the block."""
        saved = []
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.add("%s.%s" % (owner.__name__, attr))
                    continue
                if isinstance(original, classmethod):
                    replacement = classmethod(make(original.__func__))
                else:
                    replacement = make(original)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self):
        """Inclusive and self time per span name, with call counts."""
        inclusive, own, calls = defaultdict(float), defaultdict(float), Counter()
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, children):
            inclusive[name] += end - start
            own[name] += end - start - covered
            calls[name] += 1
        return inclusive, own, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "parent": parent, "op": op, "name": name,
                                         "start": start, "end": end}) + "\n")
