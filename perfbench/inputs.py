"""Seeded inputs for the benchmark, written with NumPy alone.

The program only ever sees the files written here: CSV signals with the
synthesis JSON that ``decompose --synthesis`` reads, and square 8-bit PGM
images.  Nothing here calls afdkit, so a change to ``afdkit synth`` cannot
change a workload.

Each input is a fixed template transformed by the run's seed.  The template
(atom count, radii, angles, coefficients; or an image spectrum) comes from a
constant key, so every seed sees the same mix of easy and hard inputs.  The
seed rotates each signal by a multiple of the 1-d search grid's angular step
and translates each image by whole pixels.  That changes every sample, every
pixel position and every selected parameter, but hardly the decomposition
problem, so the residual ratio after a fixed number of terms repeats between
seeds.  With freely drawn inputs it moves by about 50% from seed to seed, and
the pre-orthogonal selection is so sensitive that a 1% jitter of the atoms
moves a signal's residual by 10-25%; either would hide a change in selection
quality.
"""

import json

import numpy as np

TEMPLATE_KEY = 20140607
SIGNAL_SAMPLES = 1024  # power of two >= 2 * 256 + 2, as `afdkit synth` writes
IMAGE_SIDE = 256  # power of two >= 2 * 64 + 2
MAX_ATOM_RADIUS = 0.9
ANGULAR_STEPS = 96  # angles of the 1-d search grid


class Signal1D:
    """A real signal 2 Re f+ - c0 built from Szego kernels, and its files."""

    def __init__(self, atoms, coeffs, coeff_sum):
        self.atoms = atoms
        self.coeffs = coeffs
        self.coeff_sum = coeff_sum
        z = np.exp(2j * np.pi * np.arange(SIGNAL_SAMPLES) / SIGNAL_SAMPLES)
        weights = np.sqrt(1.0 - np.abs(atoms) ** 2)
        hardy = np.sum(
            (coeffs * weights)[:, None] / (1.0 - np.conj(atoms)[:, None] * z[None, :]), axis=0
        )
        c0 = float(np.sum(coeffs * weights).real)
        self.samples = 2.0 * hardy.real - c0

    def write(self, csv_path, synthesis_path, order):
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write("# perfbench kernel combination\n")
            handle.write("".join("%.17g\n" % v for v in self.samples))
        meta = {
            "order": order,
            "M": self.coeff_sum,
            "atoms": [[a.real, a.imag] for a in self.atoms],
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }
        with open(synthesis_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)


def signal_1d(template, seed):
    """Kernel combination number ``template`` as rotated by ``seed``.

    Templates cycle through 3 to 16 atoms with |a| <= 0.9 and a coefficient
    1-norm between 0.5 and 4.  The global phase is turned so that c0 is
    real, which makes 2 Re f+ - c0 round-trip to f+ exactly.
    """
    base = np.random.default_rng([TEMPLATE_KEY, 1, template])
    n = 3 + template % 14
    radii = MAX_ATOM_RADIUS * np.sqrt(base.uniform(0.0, 1.0, n))
    angles = base.uniform(0.0, 2.0 * np.pi, n)
    coeffs = base.standard_normal(n) + 1j * base.standard_normal(n)
    coeff_sum = float(base.uniform(0.5, 4.0))

    rng = np.random.default_rng([seed, 1, template])
    angles = angles + 2.0 * np.pi * rng.integers(1, ANGULAR_STEPS) / ANGULAR_STEPS

    atoms = radii * np.exp(1j * angles)
    coeffs = coeffs * (coeff_sum / np.sum(np.abs(coeffs)))
    c0 = np.sum(coeffs * np.sqrt(1.0 - radii**2))
    coeffs = coeffs * (np.conj(c0) / abs(c0))
    return Signal1D(atoms, coeffs, coeff_sum)


def image_2d(template, seed, order=64):
    """Square 8-bit image number ``template`` as translated by ``seed``.

    A real random field whose coefficients decay like 1 / (1 + |k|) per axis
    up to ``order``, scaled into [0, 255] and shifted by a seeded number of
    whole pixels on each axis.
    """
    side = 2 * order + 1
    base = np.random.default_rng([TEMPLATE_KEY, 2, template])
    spec = base.standard_normal((side, side)) + 1j * base.standard_normal((side, side))
    freq = np.arange(-order, order + 1)
    decay = 1.0 / (1.0 + np.abs(freq))
    spec *= np.outer(decay, decay)
    spec = (spec + np.conj(spec[::-1, ::-1])) / 2.0

    full = np.zeros((IMAGE_SIDE, IMAGE_SIDE), dtype=complex)
    idx = freq % IMAGE_SIDE
    full[np.ix_(idx, idx)] = spec
    field = np.fft.ifft2(full).real
    field = (field - field.min()) / (field.max() - field.min())
    pixels = np.round(field * 255.0).astype(np.uint8)
    shift = np.random.default_rng([seed, 2, template]).integers(0, IMAGE_SIDE, size=2)
    return np.roll(pixels, tuple(shift), axis=(0, 1))


def write_pgm(path, pixels):
    with open(path, "wb") as handle:
        handle.write(b"P5\n%d %d\n255\n" % (pixels.shape[1], pixels.shape[0]) + pixels.tobytes())


def read_pgm(path):
    """Pixels of a binary PGM as ``afdkit reconstruct`` writes it: three header lines, then data."""
    with open(path, "rb") as handle:
        handle.readline()
        width, height = (int(v) for v in handle.readline().split())
        handle.readline()
        data = handle.read()
    return np.frombuffer(data, dtype=np.uint8, count=width * height).reshape(height, width)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        return np.array(
            [float(line) for line in handle if line.strip() and not line.startswith("#")]
        )


def hardy_part_1d(samples, order):
    """Coefficients 0..order of a real signal's analytic part."""
    return (np.fft.fft(samples) / samples.size)[: order + 1]


def hardy_parts_2d(pixels, order):
    """The four Hardy coefficient blocks a full-recon record decomposes.

    ``main`` is f++ (k, l >= 0); ``fpm`` is the reflected part with
    coefficient (k, -l) at [k, l]; ``F`` and ``G`` are the analytic parts of
    the l = 0 and k = 0 marginals.
    """
    side = pixels.shape[0]
    spec = np.fft.fft2(pixels / 255.0) / (side * side)
    k = np.arange(order + 1)
    return {
        "main": spec[np.ix_(k, k)],
        "fpm": spec[np.ix_(k, (-k) % side)],
        "F": spec[k, 0],
        "G": spec[0, k],
    }
