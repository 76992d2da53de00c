"""The four workloads: what one op runs, on which inputs, and how it is checked.

Every op calls ``afdkit.cli_main`` in-process, so ingest, selection and
record I/O are inside the measured time and interpreter start-up is not.
All runs pass explicit sizes.  The radii (0.95 at order 256, 0.85 at order
64) are below the truncation-safe radius eps^(1/(2N+2)) for eps = 1e-8
(0.965 and 0.868), so no op depends on the default radius.
"""

import os
from dataclasses import dataclass, field

from checks import check_image_reconstruction, check_signal_reconstruction
from inputs import hardy_part_1d, hardy_parts_2d, image_2d, signal_1d, write_pgm

ORDER_1D, ORDER_2D = 256, 64
ARGS_1D = ["--order", str(ORDER_1D), "--grid-radial", "48", "--grid-angular", "96",
           "--refine", "2", "--max-radius", "0.95", "--terms", "10"]
ARGS_2D = ["--order", str(ORDER_2D), "--grid-radial", "24", "--grid-angular", "48",
           "--refine", "2", "--max-radius", "0.85", "--terms", "5"]
# Signal templates with 12 and 16 atoms, so 10 terms never exhaust them.
DENSE_SIGNALS = (9, 13)


@dataclass
class Input:
    name: str
    csv: str = None
    synthesis: str = None
    signal_ref: object = None  # f+ coefficients of the signal
    pgm: str = None
    pixels: object = None
    image_refs: dict = None  # main/fpm/F/G Hardy blocks of the image
    records: dict = None  # algorithm -> record path, for replay


@dataclass
class OpOutput:
    records: list = field(default_factory=list)  # (key, path)
    checks: list = field(default_factory=list)  # callables returning {key: residual ratio}


def make_signal(workdir, name, template, seed):
    sig = signal_1d(template, seed)
    csv = os.path.join(workdir, name + ".csv")
    synthesis = os.path.join(workdir, name + ".json")
    sig.write(csv, synthesis, ORDER_1D)
    return Input(name, csv=csv, synthesis=synthesis, signal_ref=hardy_part_1d(sig.samples, ORDER_1D))


def make_image(workdir, name, template, seed, item=None):
    pixels = image_2d(template, seed, ORDER_2D)
    item = item or Input(name)
    item.pgm = os.path.join(workdir, name + ".pgm")
    write_pgm(item.pgm, pixels)
    item.pixels, item.image_refs = pixels, hardy_parts_2d(pixels, ORDER_2D)
    return item


def make_pairs(workdir, seed):
    """One dense signal and one image per input, for the poga and replay workloads."""
    pool = []
    for j, template in enumerate(DENSE_SIGNALS):
        item = make_signal(workdir, "pair%d" % j, template, seed)
        pool.append(make_image(workdir, item.name, j, seed, item))
    return pool


def decompose(run, item, algorithm, out, full_recon=False, synthesis=False):
    """Run ``decompose`` on the item's signal or image; return ((key, record path), deferred check)."""
    one_d = algorithm in ("afd1d", "poga1d")
    argv = ["decompose", "--algorithm", algorithm, "--input", item.csv if one_d else item.pgm,
            "--output", out] + (ARGS_1D if one_d else ARGS_2D)
    if full_recon:
        argv.append("--full-recon")
    if synthesis:
        argv += ["--synthesis", item.synthesis]
    run.cli(*argv)
    if one_d:
        refs = {"main": item.signal_ref}
    elif full_recon:
        refs = item.image_refs
    else:
        refs = {"main": item.image_refs["main"]}
    key = "%s/%s" % (item.name, algorithm)

    def check():
        _, sections = run.replayer.check_record(out, refs)
        return {key: sections["main"][1]}

    return (key, out), check


def decompose_and_verify(run, item, tag, runs):
    """Decompose the item once per (algorithm, options) in ``runs``, then verify every record."""
    out = OpOutput()
    for algorithm, options in runs:
        record, check = decompose(run, item, algorithm, "%s-%s.rec" % (tag, algorithm), **options)
        out.records.append(record)
        out.checks.append(check)
    for _, path in out.records:
        run.cli("verify", "--input", path)
    return out


class Workload:
    """One kind of op over a pool of seeded inputs; BENCHMARK.json says why each exists."""

    name = None
    min_ops = None  # a timed run measures at least this many ops
    trace_ops = None  # fixed op count of a traced run, so counts repeat exactly

    def make_pool(self, seed, workdir):
        raise NotImplementedError

    def setup(self, run, pool, workdir):
        """Work done once before ops start; returns its OpOutput."""
        return OpOutput()

    def op(self, run, item, tag):
        raise NotImplementedError

    def reference_records(self, run, pool, workdir):
        """Records whose bytes are compared with the stored digests."""
        out = OpOutput()
        for i in range(self.trace_ops):
            produced = self.op(run, pool[i % len(pool)], os.path.join(workdir, "ref%d" % i))
            out.records += produced.records
        return out


class Greedy1D(Workload):
    name = "greedy1d"
    pool_size = 28  # two templates for each atom count 3..16
    min_ops = 28
    trace_ops = 28

    def make_pool(self, seed, workdir):
        return [make_signal(workdir, "signal%02d" % j, j, seed) for j in range(self.pool_size)]

    def op(self, run, item, tag):
        return decompose_and_verify(run, item, tag, [("afd1d", {})])


class Image2D(Workload):
    name = "image2d"
    pool_size = 4
    min_ops = 4
    trace_ops = 4

    def make_pool(self, seed, workdir):
        return [make_image(workdir, "image%d" % j, j, seed) for j in range(self.pool_size)]

    def op(self, run, item, tag):
        return decompose_and_verify(run, item, tag, [("afd2d-tm", {"full_recon": True}),
                                                     ("pga2d", {"full_recon": True})])


class Preortho(Workload):
    name = "preortho"
    min_ops = 3  # an op takes about 7 s and varies by 10% from op to op
    trace_ops = 1

    def make_pool(self, seed, workdir):
        return make_pairs(workdir, seed)

    def op(self, run, item, tag):
        return decompose_and_verify(run, item, tag, [("poga1d", {"synthesis": True}), ("poga2d", {})])


class Replay(Workload):
    name = "replay"
    min_ops = 2
    trace_ops = 4
    algorithms = ("afd1d", "poga1d", "afd2d-tm", "pga2d")

    def make_pool(self, seed, workdir):
        return make_pairs(workdir, seed)

    def setup(self, run, pool, workdir):
        out = OpOutput()
        for item in pool:
            item.records = {}
            for algorithm in self.algorithms:
                path = os.path.join(workdir, "%s-%s.rec" % (item.name, algorithm))
                record, check = decompose(run, item, algorithm, path, full_recon=algorithm in ("afd2d-tm", "pga2d"),
                                          synthesis=algorithm == "poga1d")
                item.records[algorithm] = path
                out.records.append(record)
                out.checks.append(check)
        return out

    def reference_records(self, run, pool, workdir):
        return self.setup(run, pool, workdir)

    def op(self, run, item, tag):
        out = OpOutput()
        for algorithm, path in item.records.items():
            run.cli("verify", "--input", path)
            one_d = algorithm in ("afd1d", "poga1d")
            recon = "%s-%s.%s" % (tag, algorithm, "csv" if one_d else "pgm")
            run.cli("reconstruct", "--input", path, "--output", recon)
            out.checks.append(self._check(run, item, algorithm, path, recon))
        return out

    @staticmethod
    def _check(run, item, algorithm, path, recon):
        key = "%s/%s" % (item.name, algorithm)

        def check():
            if algorithm in ("afd1d", "poga1d"):
                _, sections = run.replayer.check_record(path, {"main": item.signal_ref})
                return {key: check_signal_reconstruction(recon, sections["main"][0], item.signal_ref)}
            meta, sections = run.replayer.check_record(path, item.image_refs)
            parts = {name: partial for name, (partial, _) in sections.items()}
            c00 = float(meta["c00"].split(" ")[0])
            return {key: check_image_reconstruction(recon, parts, c00, item.pixels)}

        return check


WORKLOADS = {w.name: w for w in (Greedy1D(), Image2D(), Preortho(), Replay())}
