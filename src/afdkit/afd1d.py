"""Takenaka-Malmquist systems and 1-d adaptive greedy decomposition.

Given disc parameters a_1, a_2, ... (repeats allowed), the rational
orthonormal system

    B_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{l<k} (z - a_l) / (1 - conj(a_l) z)

is orthonormal on the circle for any parameter choice.  The decomposition
loop alternates a maximal selection of the next parameter (largest energy
gain (1 - |a|^2) |f_k(a)|^2) with a generalized backward shift that removes
the selected kernel and divides out its Blaschke factor, so the remainder
stays in the Hardy space and the energy ledger is exact.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import TruncationError
from .hardy import (
    FourierCoeffs1D,
    Record,
    Step,
    _on_grid,
    eval_series,
    grid_argmax,
    grid_points,
    greedy,
    inner_product_1d,
    next_pow2,
    require_nonzero,
)
from .szego import AtomSpec, _warn_deficit, szego_coeffs

__all__ = [
    "tm_matrix",
    "backward_shift",
    "msp_1d",
    "afd_decompose_1d",
    "reconstruct_1d",
]

OVERSAMPLE = 4


@functools.lru_cache(maxsize=8)
def _nodes(size):
    """Boundary nodes exp(2 pi i j / size), j = 0..size-1, cached per size and read-only."""
    z = np.exp(2j * np.pi * np.arange(size) / size)
    z.flags.writeable = False
    return z


def _tm_grid_size(order):
    return next_pow2(OVERSAMPLE * (order + 1))


def tm_matrix(params, order):
    """Rows of truncated coefficients of B_1..B_n for the given parameters.

    Each basis function is sampled on an oversampled boundary grid (the
    Szego factor times the running Blaschke prefix) and transformed back,
    keeping frequencies 0..order; one batched FFT transforms all of them,
    with the bits of one FFT per row.
    """
    params = [AtomSpec(a).a for a in params]
    size = _tm_grid_size(order)
    z = _nodes(size)
    samples = np.empty((len(params), size), dtype=complex)
    prefix = np.ones(size, dtype=complex)
    for k, a in enumerate(params):
        denom = 1.0 - np.conj(a) * z
        np.multiply(np.sqrt(1.0 - abs(a) ** 2) / denom, prefix, out=samples[k])
        prefix *= (z - a) / denom
    rows = np.fft.fft(samples, axis=1, out=samples)[:, : order + 1] / size
    deficit = float(np.max(np.abs(1.0 - np.sum(np.abs(rows) ** 2, axis=1)), initial=0.0))
    _warn_deficit(deficit, "rational basis at order %d" % order)
    return rows


def backward_shift(f, a):
    """Generalized backward shift of a Hardy signal via the point a.

    Returns (c, f_+) with c = <f, e_a> and f_+ = (f - c e_a) * (1 - conj(a) z) / (z - a),
    so f = c e_a + (z - a) / (1 - conj(a) z) * f_+.  f_+ is computed by
    pointwise boundary division on the cached nodes and projection back
    onto frequencies 0..order; the remainder is sampled by one zero-padded
    inverse FFT, the transform ``boundary_samples`` takes.  The discarded
    energy is theoretically zero (the numerator vanishes at a); it is
    asserted below 1e-8 of the input energy, and a violation signals
    insufficient truncation for this |a|.
    """
    a = AtomSpec(a).a
    order = f.order
    atom = szego_coeffs(a, order)
    coeff = inner_product_1d(f, atom)
    residual = f - coeff * atom

    size = _tm_grid_size(order)
    z = _nodes(size)
    spectrum = np.zeros(size, dtype=complex)
    spectrum[: order + 1] = residual.data
    samples = np.fft.ifft(spectrum)
    samples *= size
    samples *= (1.0 - np.conj(a) * z) / (z - a)
    spec = np.fft.fft(samples) / size
    kept = spec[: order + 1]
    discarded = float(np.sum(np.abs(spec) ** 2) - np.sum(np.abs(kept) ** 2))
    total = f.energy()
    if total > 0 and discarded > 1e-8 * total:
        raise TruncationError(
            "backward shift at |a|=%.4f discards %.3e of the energy; "
            "truncation order %d is too small" % (abs(a), discarded / total, order)
        )
    return coeff, FourierCoeffs1D(kept.copy())


def msp_1d(f, grid):
    """Maximal selection of the next kernel parameter.

    Maximizes (1 - |a|^2) |f(a)|^2 over the grid, the energy a single
    normalized kernel at a would extract; on the coarse grid the weights
    come from a table cached per grid.  Returns (a, objective value).
    """
    require_nonzero(f.energy())
    data = f.data

    def objective(pts):
        vals = eval_series(data, pts, grid)
        weights = _grid_weights(grid) if _on_grid(pts, grid) else 1.0 - np.abs(pts) ** 2
        return weights * np.abs(vals) ** 2

    return grid_argmax(objective, grid)


@functools.lru_cache(maxsize=4)
def _grid_weights(spec):
    """Weights 1 - |a|^2 at the coarse grid points of ``spec``, read-only."""
    weights = 1.0 - np.abs(grid_points(spec)) ** 2
    weights.flags.writeable = False
    return weights


def afd_decompose_1d(f, n_terms, grid, threshold=1e-12):
    """Greedy kernel decomposition of a Hardy signal through ``hardy.greedy``.

    Each step is a maximal selection and a backward shift, for ``n_terms``
    steps or until the residual energy drops below ``threshold`` times the
    initial energy, whichever comes first.  The record satisfies
    ||f||^2 = sum |coeff_k|^2 + final residual energy.
    """
    remainder = f

    def step():
        nonlocal remainder
        a, _ = msp_1d(remainder, grid)
        coeff, remainder = backward_shift(remainder, a)
        return Step(a=a, coeff=coeff, residual_energy=remainder.energy())

    return greedy(Record(initial_energy=f.energy()), n_terms, threshold, step)


def reconstruct_1d(record, order):
    """Partial sum sum_k coeff_k B_k rebuilt from a decomposition record."""
    rows = tm_matrix(record.params(), order)
    data = np.zeros(order + 1, dtype=complex)
    for step, row in zip(record.steps, rows):
        data += step.coeff * row
    return FourierCoeffs1D(data)
