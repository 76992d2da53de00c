"""Output checks: records are re-read and replayed through the public API.

A record is parsed from its text format ("afdkit-record 1"), each section is
rebuilt as a library record and reconstructed with the public
``reconstruct_*`` functions, and ``||f+ - S_n||^2`` is compared with the
residual energy the record stores.  The reference coefficients f+ come from
the benchmark's own FFT of the input it wrote, not from afdkit's ingest.
"""

import hashlib
import math

import numpy as np

from inputs import SIGNAL_SAMPLES, read_csv, read_pgm

# |stored residual - ||f+ - S_n||^2| and |stored initial energy - ||f+||^2|,
# relative to the section's initial energy.  Observed at most 1.1e-11
# (afd2d-tm), 5e-12 (afd1d on marginals) and 1e-17 for the other algorithms.
RESIDUAL_TOL = 1e-9
# Largest difference, relative to the largest sample, between a reconstructed
# CSV and the samples of the partial sum rebuilt here.
SAMPLES_TOL = 1e-9
# Largest pixel difference between a reconstructed PGM and the image rebuilt
# here; both round the same field to 8 bits, so only ties may differ.
PIXEL_TOL = 1


class CheckError(Exception):
    """An output that does not match what the inputs and record imply."""


def sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def parse_record(path):
    """(meta dict, [(name, algorithm, initial energy, [step fields])])."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines[0] != "afdkit-record 1":
        raise CheckError("%s: unexpected header %r" % (path, lines[0]))
    meta, sections = {}, []
    i = 1
    while lines[i] != "end":
        head, _, rest = lines[i].partition(" ")
        if head == "meta":
            key, _, value = rest.partition(" ")
            meta[key] = value
            i += 1
        elif head == "section":
            name, algorithm = rest.split(" ")
            energy = float(lines[i + 1].split(" ")[1])
            count = int(lines[i + 2].split(" ")[1])
            steps = [[float(x) for x in line.split(" ")[1:]] for line in lines[i + 3 : i + 3 + count]]
            sections.append((name, algorithm, energy, steps))
            i += 3 + count
        else:
            raise CheckError("%s: unexpected line %r" % (path, lines[i]))
    return meta, sections


class Replayer:
    """Rebuilds partial sums from record sections with afdkit's public API."""

    def __init__(self, afdkit):
        self.afdkit = afdkit
        self._dictionaries = {}

    def _dictionary(self, algorithm, meta):
        ak = self.afdkit
        key = (algorithm, meta["order"], meta["grid_radial"], meta["grid_angular"],
               meta["refine_levels"], meta["max_radius"])
        if key not in self._dictionaries:
            grid = ak.GridSpec(
                radial_count=int(meta["grid_radial"]),
                angular_count=int(meta["grid_angular"]),
                refine_levels=int(meta["refine_levels"]),
                max_radius=float(meta["max_radius"]),
            )
            cls = ak.SzegoDictionary1D if algorithm == "poga1d" else ak.ProductSzegoDictionary2D
            self._dictionaries[key] = cls(int(meta["order"]), grid)
        return self._dictionaries[key]

    def partial_sum(self, meta, algorithm, energy, steps, order):
        """Coefficients of S_n: a vector (1-d) or an (order+1)^2 block (2-d)."""
        ak = self.afdkit
        if algorithm == "afd1d":
            rec = ak.AFDRecord(initial_energy=energy)
            rec.steps = [ak.AFDStep(a=complex(f[0], f[1]), coeff=complex(f[2], f[3]),
                                    residual_energy=f[4]) for f in steps]
            return ak.reconstruct_1d(rec, order).data
        if algorithm == "afd2d-tm":
            rec = ak.Afd2dRecord(initial_energy=energy)
            for f in steps:
                block = np.asarray(f[7 : 7 + 2 * int(f[6])])
                rec.steps.append(ak.Afd2dStep(
                    a=complex(f[0], f[1]), b=complex(f[2], f[3]),
                    block=block[0::2] + 1j * block[1::2], block_energy=f[4], residual_energy=f[5],
                ))
            return ak.reconstruct_product_tm(rec, order).data
        if algorithm == "pga2d":
            rec = ak.PGARecord(initial_energy=energy)
            rec.steps = [ak.PGAStep(atom=ak.TensorAtomSpec.of(complex(f[0], f[1]), complex(f[2], f[3])),
                                    coeff=complex(f[4], f[5]), residual_energy=f[6]) for f in steps]
            return ak.reconstruct_pga(rec, order).data
        rec = ak.PogaRecord(initial_energy=energy, rho=float(meta["rho"]))
        for f in steps:
            if algorithm == "poga1d":
                atom = ak.AtomSpec(complex(f[0], f[1]), int(f[2]))
            else:
                atom = ak.TensorAtomSpec(ak.AtomSpec(complex(f[0], f[1]), int(f[2])),
                                         ak.AtomSpec(complex(f[3], f[4]), int(f[5])))
            rec.steps.append(ak.PogaStep(atom=atom, coeff=complex(f[-5], f[-4]), r=f[-3],
                                         r_sup=f[-2], residual_energy=f[-1]))
        vec = ak.reconstruct_poga(rec, self._dictionary(algorithm, meta))
        return vec if algorithm == "poga1d" else vec.reshape(order + 1, order + 1)

    def check_record(self, path, refs):
        """Check every section of a record against its reference coefficients.

        ``refs`` maps section names to the Hardy coefficients the section
        decomposed.  Returns {section: (partial sum, final residual / initial)}.
        """
        meta, sections = parse_record(path)
        order = int(meta["order"])
        if sorted(name for name, *_ in sections) != sorted(refs):
            raise CheckError("%s: sections %s, expected %s"
                             % (path, [s[0] for s in sections], sorted(refs)))
        out = {}
        for name, algorithm, energy, steps in sections:
            ref = refs[name]
            ref_energy = float(np.sum(np.abs(ref) ** 2))
            if abs(ref_energy - energy) > RESIDUAL_TOL * energy:
                raise CheckError("%s/%s: initial energy %.17g, input has %.17g"
                                 % (path, name, energy, ref_energy))
            if not steps:
                raise CheckError("%s/%s: no steps" % (path, name))
            stored = steps[-1][5] if algorithm == "afd2d-tm" else steps[-1][-1]
            partial = self.partial_sum(meta, algorithm, energy, steps, order)
            actual = float(np.sum(np.abs(ref - partial) ** 2))
            if abs(actual - stored) > RESIDUAL_TOL * energy:
                raise CheckError(
                    "%s/%s: ||f - S_n||^2 = %.6e but the record stores %.6e (relative error %.2e)"
                    % (path, name, actual, stored, abs(actual - stored) / energy)
                )
            out[name] = (partial, stored / energy)
        return meta, out


def check_signal_reconstruction(path, partial, ref):
    """Compare ``reconstruct`` CSV output with the partial sum; return its residual ratio."""
    got = read_csv(path)
    spectrum = np.zeros(SIGNAL_SAMPLES, dtype=complex)
    spectrum[: partial.size] = partial
    want = 2.0 * (np.fft.ifft(spectrum) * SIGNAL_SAMPLES).real - partial[0].real
    if got.shape != want.shape:
        raise CheckError("%s: %d samples, expected %d" % (path, got.size, want.size))
    err = float(np.max(np.abs(got - want)))
    if err > SAMPLES_TOL * float(np.max(np.abs(want))):
        raise CheckError("%s: samples deviate from the partial sum by %.3e" % (path, err))
    recon = (np.fft.fft(got) / got.size)[: ref.size]
    return float(np.sum(np.abs(ref - recon) ** 2) / np.sum(np.abs(ref) ** 2))


def check_image_reconstruction(path, parts, c00, pixels):
    """Compare ``reconstruct`` PGM output with the image the partial sums give.

    ``parts`` maps main/fpm/F/G to partial sums.  Returns the residual ratio
    of the reconstruction: squared error over the input's variance energy.
    """
    got = read_pgm(path).astype(float)
    side = got.shape[0]

    def samples(block):
        spectrum = np.zeros((side,) * block.ndim, dtype=complex)
        spectrum[tuple(slice(0, n) for n in block.shape)] = block
        return (np.fft.ifftn(spectrum) * spectrum.size).real

    reflect = (-np.arange(side)) % side
    field = (2.0 * samples(parts["main"]) + 2.0 * samples(parts["fpm"])[:, reflect]
             - 2.0 * samples(parts["F"])[:, None] - 2.0 * samples(parts["G"])[None, :] + c00)
    want = np.clip(np.round(field * 255.0), 0, 255)
    err = float(np.max(np.abs(got - want)))
    if err > PIXEL_TOL:
        raise CheckError("%s: pixels deviate from the partial sums by %d" % (path, err))
    x = pixels / 255.0
    return float(np.sum((x - got / 255.0) ** 2) / np.sum((x - x.mean()) ** 2))


def geometric_mean(values):
    values = list(values)
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))
