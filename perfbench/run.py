"""Benchmark of afdkit, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload greedy1d --seed 3 --seconds 12 --trace 0

Workloads (see workloads.py): greedy1d, image2d, preortho, replay.  One
process drives a closed loop, one op at a time, calling afdkit.cli_main
in-process on inputs generated from --seed.  Every op's output is checked
after the measured phase; the last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 sets the workload up three times (setup_s is the median round plus
the import), then runs ops until --seconds have passed, every pool input was
used and the workload's minimum op count is reached, and reports the
end-to-end metrics.

--trace 1 runs a fixed op list, each op once untraced and once with the
layer boundaries traced (tracer.py), and reports the per-layer metrics
(totals over the traced ops), the tracing overhead and the
drift of record bytes from reference_digests.json.  The spans are written
to perfbench/_work/ when the run ends.

--write-digests stores the SHA-256 of the workload's records for the default
seed in reference_digests.json.
"""

import time

START = time.perf_counter()

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

from checks import Replayer, geometric_mean, sha256
from tracer import GLUE_SPANS, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
DIGESTS = os.path.join(HERE, "reference_digests.json")
DEFAULT_SEED = 0
SETUP_ROUNDS = 3
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class OpFailure(Exception):
    """A CLI command of an op exited with a non-zero status."""


@dataclass
class Op:
    latency: float
    output: object  # the workload's OpOutput, None if the op failed before returning
    error: str = None


class Runner:
    """Runs ops through afdkit.cli_main and checks what they wrote."""

    def __init__(self, afdkit, workdir=None):
        self.cli_main = afdkit.cli_main
        self.replayer = Replayer(afdkit)
        self.workdir = workdir
        self.tracer = None
        self.ops = []

    def cli(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                status = self.cli_main(list(argv))
            else:
                with self.tracer.span("cli." + argv[0]):
                    status = self.cli_main(list(argv))
        if status != 0:
            detail = err.getvalue().strip().splitlines()
            raise OpFailure("%s %s exited %d: %s" % (argv[0], " ".join(argv[1:5]), status,
                                                     detail[-1] if detail else "no message"))

    def run(self, fn, *args):
        """Run one op; a failure is recorded with its message, never raised."""
        output, error = None, None
        start = time.perf_counter()
        try:
            if self.tracer is None:
                output = fn(self, *args)
            else:
                self.tracer.op = len(self.ops)
                with self.tracer.span("op"):
                    output = fn(self, *args)
        except OpFailure as exc:
            error = str(exc)
        except Exception:
            error = traceback.format_exc().strip().splitlines()[-1]
        op = Op(time.perf_counter() - start, output, error)
        self.ops.append(op)
        return op

    def op(self, workload, item):
        return self.run(workload.op, item, os.path.join(self.workdir, "op%d-%s" % (len(self.ops), item.name)))

    def check(self, ops):
        """Run the deferred output checks of ``ops``; return their residual ratios by key."""
        ratios = {}
        for op in ops:
            if op.output is None:
                continue
            for check in op.output.checks:
                try:
                    ratios.update(check())
                except Exception:
                    op.error = op.error or traceback.format_exc().strip().splitlines()[-1]
        return ratios

    def failures(self):
        return [op.error for op in self.ops if op.error is not None]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_runtime():
    """(thread count, config string) from the OpenBLAS NumPy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.split()[-1]})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, prefix + "_get_num_threads" + suffix, None)
                config = getattr(lib, prefix + "_get_config" + suffix, None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    text = None
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        text = config().decode()
                    return threads(), text
    return None, None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, config = blas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_config": config or blas.get("openblas configuration"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def import_afdkit():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "afdkit", "__init__.py")):
        raise SystemExit("perfbench: no afdkit sources at %s" % src)
    sys.path.insert(0, src)
    import afdkit

    if not os.path.abspath(afdkit.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: imported afdkit from %s, not %s" % (afdkit.__file__, src))
    return afdkit


def timed_run(afdkit, workload, seed, seconds, import_s, dirs):
    runner = Runner(afdkit)
    rounds = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        runner.workdir = dirs.new()
        pool = workload.make_pool(seed, runner.workdir)
        runner.run(workload.setup, pool, runner.workdir)
        runner.op(workload, pool[0])
        rounds.append(time.perf_counter() - start)
    runner.check(runner.ops)

    first = len(runner.ops)
    start = time.perf_counter()
    while True:
        runner.op(workload, pool[(len(runner.ops) - first) % len(pool)])
        if len(runner.ops) - first >= workload.min_ops and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    measured = runner.ops[first:]
    ratios = runner.check(measured)

    latencies = [op.latency for op in measured]
    metrics = {
        "setup_s": (import_s + statistics.median(rounds), "s"),
        "ops_per_s": (len(measured) / wall, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "residual_ratio": (geometric_mean(ratios.values()), "ratio"),
    }
    notes = ["%d ops in %.3f s; set-up rounds %s s" % (len(measured), wall, " ".join("%.3f" % r for r in rounds)),
             "op latencies (s): " + " ".join("%.4f" % latency for latency in latencies)]
    if len(measured) >= P90_MIN_OPS:
        notes.append("latency_p90_s %.6f s over %d ops" % (statistics.quantiles(latencies, n=10)[8], len(measured)))
    return runner, metrics, notes


def traced_run(afdkit, workload, seed, dirs):
    runner = Runner(afdkit, dirs.new())
    pool = workload.make_pool(seed, runner.workdir)
    runner.run(workload.setup, pool, runner.workdir)
    runner.op(workload, pool[0])
    items = [pool[i % len(pool)] for i in range(workload.trace_ops)]

    # Each op runs untraced and then traced, so both see the same host load.
    tracer = Tracer()
    untraced_wall = traced_wall = cpu = 0.0
    truncation_warnings = 0
    for item in items:
        start = time.process_time()
        untraced_wall += runner.op(workload, item).latency
        cpu += time.process_time() - start
        runner.tracer = tracer
        with warnings.catch_warnings(record=True) as caught, tracer.installed():
            warnings.simplefilter("always", afdkit.TruncationWarning)
            traced_wall += runner.op(workload, item).latency
        runner.tracer = None
        truncation_warnings += sum(issubclass(w.category, afdkit.TruncationWarning) for w in caught)
    runner.check(runner.ops)
    drift = record_drift(runner, workload, dirs)
    tracer.write(os.path.join(WORK, "spans-%s-seed%d.jsonl" % (workload.name, seed)))

    inclusive, own, calls = tracer.layer_metrics()
    counts = tracer.counts
    s, n = "s", "count"
    metrics = {
        "hardy.objective_s": (inclusive["hardy.objective"], s),
        "hardy.objective_points": (counts["hardy.objective_points"], n),
        "hardy.argmax_self_s": (own["hardy.argmax"], s),
        "hardy.ingest_s": (inclusive["hardy.ingest"], s),
        "szego.atoms": (counts["szego.atoms"], n),
        "szego.atom_s": (inclusive["szego.atom"], s),
        "szego.truncation_warnings": (truncation_warnings, n),
        "afd1d.backward_shift_s": (inclusive["afd1d.backward_shift"], s),
        "afd1d.backward_shift.calls": (calls["afd1d.backward_shift"], n),
        "afd1d.tm_matrix_s": (inclusive["afd1d.tm_matrix"], s),
        "afd1d.tm_matrix.calls": (calls["afd1d.tm_matrix"], n),
        "afd1d.steps": (counts["afd1d.steps"], n),
        "afd2d.msp_product_tm_self_s": (own["afd2d.msp_product_tm"], s),
        "afd2d.pga_step_self_s": (own["afd2d.pga_step"], s),
        "afd2d.steps": (counts["afd2d.steps"], n),
        "poga.dictionary_build_s": (inclusive["poga.dictionary_build"], s),
        "poga.dictionary_build.calls": (calls["poga.dictionary_build"], n),
        "poga.scan_s": (inclusive["poga.scan"], s),
        "poga.scan.calls": (calls["poga.scan"], n),
        "poga.scan_entries": (counts["poga.scan_entries"], n),
        "poga.select_self_s": (own["poga.decompose"], s),
        "poga.extend_s": (inclusive["poga.extend"], s),
        "poga.escalated_atoms": (counts["poga.escalated_atoms"], n),
        "poga.steps": (counts["poga.steps"], n),
        "cli.ingest_s": (inclusive["cli.ingest"], s),
        "cli.save_record_s": (inclusive["cli.save_record"], s),
        "cli.load_record_s": (inclusive["cli.load_record"], s),
        "cli.verify_s": (inclusive["cli.verify"], s),
        "cli.reconstruct_s": (inclusive["cli.reconstruct"], s),
        "cli.record_bytes": (counts["cli.record_bytes"], "bytes"),
        "cli.record_drift": (drift, n),
        "run.cpu_s": (cpu, s),
        "run.untraced_share": (sum(own[name] for name in GLUE_SPANS) / inclusive["op"], "ratio"),
        "trace.overhead": (traced_wall / untraced_wall, "ratio"),
    }
    notes = ["%d ops untraced in %.3f s (cpu %.3f s), traced in %.3f s; %d spans"
             % (len(items), untraced_wall, cpu, traced_wall, len(tracer.spans))]
    if tracer.missing:
        notes.append("not traced, attribute missing: " + ", ".join(sorted(tracer.missing)))
    return runner, metrics, notes


def reference_digests(runner, workload, workdir):
    """{record key: SHA-256} of the workload's records for the default seed, or None."""
    pool = workload.make_pool(DEFAULT_SEED, workdir)
    runner.workdir = workdir
    op = runner.run(workload.reference_records, pool, workdir)
    runner.check([op])
    if op.error is not None:
        return None
    return {key: sha256(path) for key, path in op.output.records}


def record_drift(runner, workload, dirs):
    """Number of reference records whose bytes differ from the stored digests."""
    digests = reference_digests(runner, workload, dirs.new()) or {}
    with open(DIGESTS, encoding="utf-8") as handle:
        stored = json.load(handle)["records"].get(workload.name, {})
    return sum(stored.get(key) != digests.get(key) for key in set(stored) | set(digests))


def write_digests(afdkit, workload, dirs):
    runner = Runner(afdkit)
    digests = reference_digests(runner, workload, dirs.new())
    if digests is None:
        raise SystemExit("perfbench: reference records failed: %s" % runner.failures())
    stored = {"seed": DEFAULT_SEED, "records": {}}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            stored = json.load(handle)
    stored["records"][workload.name] = digests
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d digests for %s" % (len(digests), workload.name))


class WorkDirs:
    """Fresh directories for one run's inputs and outputs, removed on exit."""

    def __init__(self, path):
        self.path = path
        self.count = 0

    def new(self):
        self.count += 1
        path = os.path.join(self.path, str(self.count))
        os.makedirs(path)
        return path

    def __enter__(self):
        shutil.rmtree(self.path, ignore_errors=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="store the record digests of the default seed and exit")
    args = parser.parse_args(argv)

    env = environment()
    requested = [int(os.environ[name]) for name in THREAD_VARIABLES if os.environ.get(name, "").isdigit()]
    threads = max(requested + [env["blas_threads"] or 0])
    if threads > env["nproc"]:
        raise SystemExit("perfbench: %d BLAS threads requested on %d processors" % (threads, env["nproc"]))
    afdkit = import_afdkit()
    import_s = time.perf_counter() - START
    workload = WORKLOADS[args.workload]
    with WorkDirs(os.path.join(WORK, "run-%d" % os.getpid())) as dirs:
        if args.write_digests:
            write_digests(afdkit, workload, dirs)
            return 0
        if args.trace:
            runner, metrics, notes = traced_run(afdkit, workload, args.seed, dirs)
        else:
            runner, metrics, notes = timed_run(afdkit, workload, args.seed, args.seconds, import_s, dirs)

    failures = runner.failures()
    attempted = len(runner.ops)
    notes.append("error_rate %.4f (%d of %d ops failed, set-up and warm-up included)"
                 % (len(failures) / attempted, len(failures), attempted))
    notes += ["failure: %s" % message for message in failures[:10]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(WORK, "result-%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace)),
              "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": args.seed, "env": env, "notes": notes,
                   "result": result}, handle, indent=1)
    print("perfbench %s seed=%d trace=%d" % (workload.name, args.seed, args.trace))
    for line in notes:
        print("  " + (line if len(line) < 200 else line[:196] + " ..."))
    for name, (value, unit) in metrics.items():
        print("  %-28s %.6g %s" % (name, value, unit))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
