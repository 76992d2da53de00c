"""Shared helpers for the test suite."""

from itertools import accumulate

import numpy as np
import pytest

from afdkit import (
    DomainError,
    TruncationError,
    FourierCoeffs1D,
    FourierCoeffs2D,
    OrthoFrame,
    SelectionOutcome,
    SpanDegeneracyError,
    grid_points,
    szego_coeffs,
)
from afdkit.afd1d import _tm_grid_size
from afdkit.afd2d import _block_entries, _cross_table, _hardy_block, _history_rows
from afdkit.hardy import grid_radii, real_field_2d, require_nonzero
from afdkit.poga import EPS_SPAN, RATE_EXCESS, RateReport, RateRow, ScanState, _as_vector, _Reduction


def kernel_ip(a, b):
    """Closed-form inner product of two normalized kernels <e_a, e_b>."""
    a, b = complex(a), complex(b)
    return np.sqrt(1 - abs(a) ** 2) * np.sqrt(1 - abs(b) ** 2) / (1 - np.conj(b) * a)


def _index(f, k):
    """Array index of the frequency ``k`` (one per axis) in the layout of ``f``; it must be stored."""
    low = 0 if f.hardy else -f.order
    k = tuple(int(x) for x in np.atleast_1d(k))
    if len(k) != f.ndim or not all(low <= x <= f.order for x in k):
        raise IndexError("frequency %s outside the stored range of %r" % (k, f))
    return tuple(x - low for x in k)


def from_terms(cls, order, terms, hardy=False):
    """``cls`` coefficients from a ``{frequency: value}`` mapping; a 2-d frequency is a pair."""
    f = cls.zeros(order, hardy=hardy)
    for k, val in terms.items():
        f.data[_index(f, k)] = val
    return f


def coeff(f, *k):
    """Coefficient c_k of ``f``, one frequency per axis."""
    return complex(f.data[_index(f, k)])


def section(record, name):
    """The section of a ``RecordFile`` with the given name."""
    (sec,) = [sec for sec in record.sections if sec.name == name]
    return sec


def random_hardy_1d(seed, order, decay=1.5):
    """Unit-energy random Hardy signal with polynomially decaying spectrum."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    data /= (1.0 + np.arange(order + 1)) ** decay
    f = FourierCoeffs1D(data, hardy=True)
    return (1.0 / float(np.sqrt(f.energy()))) * f


def random_hardy_2d(seed, order, decay=1.5):
    rng = np.random.default_rng(seed)
    side = order + 1
    data = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    data /= (1.0 + np.add.outer(np.arange(side), np.arange(side))) ** decay
    f = FourierCoeffs2D(data, hardy=True)
    return (1.0 / float(np.sqrt(f.energy()))) * f


def random_real_full_1d(seed, order):
    """Random real bandlimited signal as Hermitian full-range coefficients."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(2 * order + 1) + 1j * rng.standard_normal(2 * order + 1)
    data = (data + np.conj(data[::-1])) / 2.0
    return FourierCoeffs1D(data, hardy=False)


def random_real_full_2d(seed, order):
    rng = np.random.default_rng(seed)
    side = 2 * order + 1
    data = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    data = (data + np.conj(data[::-1, ::-1])) / 2.0
    return FourierCoeffs2D(data, hardy=False)


def reference_real_field_2d(parts, size):
    """Five-transform form of ``real_field_2d``: one inverse FFT per part.

    The reflected part is sampled at (t, s) and its columns gathered at -s.
    """
    apm_neg_s = parts.pm.boundary_samples(size)[:, (-np.arange(size)) % size]
    return (
        2.0 * parts.pp.boundary_samples(size).real
        + 2.0 * apm_neg_s.real
        - 2.0 * parts.F.boundary_samples(size).real[:, None]
        - 2.0 * parts.G.boundary_samples(size).real[None, :]
        + parts.c00.real
    )


def reference_blaschke(params, size):
    """Boundary samples of the Blaschke product with zeros ``params``.

    Pointwise product of the Moebius factors (z - a) / (1 - conj(a) z) at
    z = exp(2 pi i j / size); unimodular at every sample.
    """
    z = np.exp(2j * np.pi * np.arange(size) / size)
    out = np.ones(size, dtype=complex)
    for a in map(complex, params):
        out *= (z - a) / (1.0 - np.conj(a) * z)
    return out


def reference_blaschke_coeffs(params, order):
    """Taylor coefficients 0..order of that product, from one FFT of ``reference_blaschke``."""
    size = _tm_grid_size(order)
    return np.fft.fft(reference_blaschke(params, size))[: order + 1] / size


def reference_backward_shift(f, a):
    """``afd1d.backward_shift`` with its nodes rebuilt and its samples from ``boundary_samples``."""
    atom = szego_coeffs(a, f.order)
    residual = f - complex(np.vdot(atom.data, f.data)) * atom
    size = _tm_grid_size(f.order)
    z = np.exp(2j * np.pi * np.arange(size) / size)
    samples = residual.boundary_samples(size)
    samples *= (1.0 - np.conj(a) * z) / (z - a)
    spec = np.fft.fft(samples) / size
    kept = spec[: f.order + 1]
    discarded = float(np.sum(np.abs(spec) ** 2) - np.sum(np.abs(kept) ** 2))
    if discarded > 1e-8 * f.energy():
        raise TruncationError("discards %.3e" % (discarded / f.energy()))
    return FourierCoeffs1D(kept.copy(), hardy=True)


def reference_line_offsets(buf):
    """Byte offset of each line of a UTF-8 record, from an eager table of every line."""
    offsets, offset = [], 0
    for raw in buf.decode("utf-8").split("\n"):
        offsets.append(offset)
        offset += len(raw.encode("utf-8")) + 1
    return offsets


def reference_rate_report(record, M):
    """``poga.rate_report`` with the recurrence checked for every n < m - 1 at every m."""
    if not record.steps:
        return RateReport(rows=[], recurrence_ok=True, conclusion_ok=True)
    d = [record.initial_energy] + record.residual_energies()
    r_max = list(accumulate((s.r_sup for s in record.steps), max, initial=0.0))[1:]
    rows = []
    recurrence_ok = True
    conclusion_ok = True
    for m in range(1, len(d) + 1):
        R_m = r_max[m - 1] if m <= len(r_max) else r_max[-1]
        bound = R_m * M / (record.rho * np.sqrt(m))
        g_norm = float(np.sqrt(d[m - 1]))
        rows.append(RateRow(m=m, remainder_norm=g_norm, bound=bound, slack=bound - g_norm))
        A_m = (R_m * M / record.rho) ** 2
        if d[m - 1] > A_m / m + RATE_EXCESS:
            conclusion_ok = False
        for n in range(m - 1):
            if d[n + 1] > d[n] * (1.0 - d[n] / A_m) + RATE_EXCESS:
                recurrence_ok = False
    return RateReport(rows=rows, recurrence_ok=recurrence_ok, conclusion_ok=conclusion_ok)


def reference_local_candidates(center, step_r, step_t, max_radius):
    """Set-based form of ``hardy._local_candidates``: one (r, t) tuple per stencil point."""
    r0 = abs(center)
    if max_radius - r0 <= 1e-12:
        r0 = max_radius
    t0 = float(np.angle(center)) % (2.0 * np.pi)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    cands = set()
    for dr in offsets * step_r:
        r = min(max(r0 + dr, 0.0), max_radius)
        for dt in offsets * step_t:
            t = (t0 + dt) % (2.0 * np.pi)
            cands.add((r, t if r > 0 else 0.0))
    cands = sorted(cands)
    own = cands.index((r0, t0 if r0 > 0 else 0.0))
    return np.array([r * np.exp(1j * t) for r, t in cands]), own


# the name the acceptance tests rebuild real images by
real_reconstruct_2d = real_field_2d


def multiplicities(params):
    """Multiplicity of each entry among its predecessors (itself included).

    The k-th value counts how many of a_1..a_k equal a_k, which is the
    ladder order the k-th partial fraction uses.
    """
    seen = {}
    out = []
    for a in params:
        key = complex(a)
        seen[key] = seen.get(key, 0) + 1
        out.append(seen[key])
    return out


def product_coeff(f, bk, bl):
    """Cross coefficient <f, bk (x) bl> of a Hardy 2-d signal, bk and bl 1-d Hardy vectors of its order."""
    C = _hardy_block(f)
    if bk.order != f.order or bl.order != f.order:
        raise DomainError("factor orders must match the signal order")
    return complex(np.conj(bk.data) @ C @ np.conj(bl.data))


def dn_energy(f, history, candidate):
    """Energy of the step-n product-TM block for one candidate pair.

    Builds both factor systems extended by the candidate and sums the
    squared moduli of the 2n - 1 new cross coefficients.
    """
    pairs = list(history) + [candidate]
    table = _cross_table(_hardy_block(f), *_history_rows(pairs, f.order))
    return float(np.sum(np.abs(_block_entries(table, len(pairs))) ** 2))


def candidate_gain(g, atom, frame):
    """Pre-orthogonal score of one candidate atom against the frame.

    gain = |<g, atom>| / r with r = ||Q(atom)||; the identity
    gain * r = |<g, atom>| holds by construction and gain always dominates
    the raw inner product since r <= ||atom|| = 1.  Raises
    ``SpanDegeneracyError`` when r < EPS_SPAN.
    """
    g = _as_vector(g)
    atom = _as_vector(atom)
    _, r = frame.project_residual(atom)
    if r < EPS_SPAN:
        raise SpanDegeneracyError("candidate atom lies in the frame span", r=r)
    inner = abs(complex(np.vdot(atom, g)))
    return SelectionOutcome(atom=None, r=r, gain=inner / r)


class _RecordedReduction(_Reduction):
    """A ``_Reduction`` that also keeps a copy of every block it is given."""

    def __init__(self):
        super().__init__(1.0)
        self.blocks = []

    def add(self, start, inner, r_sq):
        self.blocks.append((start, inner.copy()))
        super().add(start, inner, r_sq)


def dense_scan(dictionary, g, frame, state=None):
    """A scan's values for all base atoms: (gain, degenerate, sup_r, r_sq).

    The inner products are the blocks the scan hands its reduction, in
    order, so the scan must hand it every base atom, as the 1-d scan does;
    the 2-d scan leaves out rows that cannot qualify.  r = sqrt(clip(r^2)),
    the gain is inner / r and the mask r < EPS_SPAN, as the reduction forms
    them, and ``sup_r`` is the reduction's own.  The scan gets a fresh
    ``ScanState`` unless ``state`` is given.
    """
    reduction = _RecordedReduction()
    r_sq = dictionary.scan(g, frame, reduction, ScanState() if state is None else state)[0]
    starts = [start for start, _ in reduction.blocks]
    inner = np.concatenate([block for _, block in reduction.blocks])
    assert starts == list(np.cumsum([0] + [b.size for _, b in reduction.blocks[:-1]]))
    assert inner.size == r_sq.size
    r = np.sqrt(np.clip(r_sq, 0.0, None))
    assert np.array_equal(np.concatenate(reduction.degenerate), np.flatnonzero(r < EPS_SPAN))
    with np.errstate(divide="ignore", invalid="ignore"):
        return inner / r, r < EPS_SPAN, reduction.sup_r, r_sq


def scan_parts(dictionary, g, frame, state=None):
    """What a scan reports of every base atom, whichever it scores: (r^2, degenerate indices, sup_r).

    The scan gets a fresh ``ScanState`` unless ``state`` is given.
    """
    reduction = _Reduction(1.0)
    r_sq = dictionary.scan(g, frame, reduction, ScanState() if state is None else state)[0]
    return r_sq, np.concatenate(reduction.degenerate), reduction.sup_r


def oga_select(g, dictionary):
    """Plain orthogonal greedy baseline: the base atom with the largest raw |<g, atom>|."""
    g = _as_vector(g)
    require_nonzero(float(np.linalg.norm(g)) ** 2, "greedy remainder")
    inner, _ = dictionary._inner_r_sq(g, OrthoFrame(dictionary.dim), ScanState())
    return dictionary.base_spec(int(np.argmax(inner)))


def dominant_atoms_on_grid(seed, grid, order, n_atoms, ratio=16.0, low_frac=0.85):
    """Kernel combination with geometrically dominant amplitudes.

    Atoms sit on actual grid points in the outer radius band, angularly
    spread, so each greedy step has a well-separated maximizer.  Returns
    (signal, params, coeffs).
    """
    rng = np.random.default_rng(seed)
    radii = grid_radii(grid)
    n_rad = radii.size
    lo = int(low_frac * n_rad)
    rad_ids = rng.choice(np.arange(lo, n_rad), size=n_atoms, replace=False)
    stride = grid.angular_count // n_atoms
    ang_ids = (rng.permutation(n_atoms) * stride + rng.integers(0, grid.angular_count)) % grid.angular_count
    params = [
        complex(radii[ri] * np.exp(2j * np.pi * ai / grid.angular_count))
        for ri, ai in zip(rad_ids, ang_ids)
    ]
    coeffs = (1.0 / ratio) ** np.arange(n_atoms) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_atoms))
    f = FourierCoeffs1D.zeros(order, hardy=True)
    for c, a in zip(coeffs, params):
        f = f + complex(c) * szego_coeffs(a, order)
    return f, params, [complex(c) for c in coeffs]


def exhaustive_argmax(objective, spec):
    """Independent scan over the coarse grid point set."""
    pts = grid_points(spec)
    vals = np.asarray([float(objective(np.array([p]))[0]) for p in pts])
    i = int(np.argmax(vals))
    return complex(pts[i]), float(vals[i])


@pytest.fixture
def rng():
    return np.random.default_rng(0)
