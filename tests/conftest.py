"""Shared helpers for the test suite."""

from itertools import accumulate

import numpy as np
import pytest

from afdkit import (
    DomainError,
    FourierCoeffs1D,
    FourierCoeffs2D,
    OrthoFrame,
    QuadrantParts,
    SelectionOutcome,
    SpanDegeneracyError,
    grid_points,
    szego_coeffs,
)
from afdkit.afd1d import _tm_grid_size
from afdkit.afd2d import _block_entries, _cross_table, _history_rows
from afdkit.hardy import grid_radii, real_field_2d, require_nonzero
from afdkit.poga import (
    EPS_SPAN,
    RATE_EXCESS,
    ProductSzegoDictionary2D,
    RateReport,
    RateRow,
    ScanState,
    _as_vector,
    _escalated_candidates,
    _Reduction,
)


def kernel_ip(a, b):
    """Closed-form inner product of two normalized kernels <e_a, e_b>."""
    a, b = complex(a), complex(b)
    return np.sqrt(1 - abs(a) ** 2) * np.sqrt(1 - abs(b) ** 2) / (1 - np.conj(b) * a)


def _index(f, k):
    """Array index of the frequency ``k`` (one per axis) of ``f``; it must be stored."""
    k = tuple(int(x) for x in np.atleast_1d(k))
    if len(k) != f.ndim or not all(0 <= x <= f.order for x in k):
        raise IndexError("frequency %s outside the stored range of %r" % (k, f))
    return k


def from_terms(cls, order, terms):
    """``cls`` coefficients from a ``{frequency: value}`` mapping; a 2-d frequency is a pair."""
    f = cls.zeros(order)
    for k, val in terms.items():
        f.data[_index(f, k)] = val
    return f


def full_range(ndim, order, terms):
    """Full-range coefficients, c_k at index k + N on every axis, from a ``{frequency: value}`` mapping."""
    data = np.zeros((2 * order + 1,) * ndim, dtype=complex)
    for k, val in terms.items():
        data[tuple(np.atleast_1d(k) + order)] = val
    return data


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
    f = FourierCoeffs1D(data)
    return (1.0 / float(np.sqrt(f.energy()))) * f


def random_hardy_2d(seed, order, decay=1.5):
    rng = np.random.default_rng(seed)
    side = order + 1
    data = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    data /= (1.0 + np.add.outer(np.arange(side), np.arange(side))) ** decay
    f = FourierCoeffs2D(data)
    return (1.0 / float(np.sqrt(f.energy()))) * f


def random_real_full_1d(seed, order):
    """Random real bandlimited signal as Hermitian ``full_range`` coefficients."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(2 * order + 1) + 1j * rng.standard_normal(2 * order + 1)
    return (data + np.conj(data[::-1])) / 2.0


def random_real_full_2d(seed, order):
    rng = np.random.default_rng(seed)
    side = 2 * order + 1
    data = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return (data + np.conj(data[::-1, ::-1])) / 2.0


def _reference_ifftn(data, low, size):
    """Samples at t_j = 2 pi j / size of coefficients stored from frequency ``low`` on every axis, by one ``np.fft.ifftn``."""
    spectrum = np.zeros((size,) * data.ndim, dtype=complex)
    spectrum[np.ix_(*[np.arange(low, low + data.shape[0]) % size] * data.ndim)] = data
    samples = np.fft.ifftn(spectrum)
    for _ in range(data.ndim):
        samples *= size
    return samples


def real_samples(data, size):
    """Boundary samples of the real signal with Hermitian ``full_range`` coefficients ``data``."""
    return _reference_ifftn(data, -(data.shape[0] // 2), size).real


def reference_full_range(samples, order):
    """``full_range`` coefficients of samples: one ``np.fft.fftn`` over every line, frequencies -N..N kept."""
    size = samples.shape[0]
    kept = np.arange(-order, order + 1) % size
    return np.fft.fftn(samples)[np.ix_(*[kept] * samples.ndim)] / size**samples.ndim


def reference_analytic_part(samples, order):
    """``analytic_part`` through the full-range layout: ``reference_full_range``, then k >= 0."""
    return FourierCoeffs1D(reference_full_range(samples, order)[order:])


def reference_quadrant_split(samples, order):
    """``quadrant_split`` through the full-range layout: ``reference_full_range``, then its four blocks."""
    n, d = order, reference_full_range(samples, order)
    return QuadrantParts(
        pp=FourierCoeffs2D(d[n:, n:]),
        pm=FourierCoeffs2D(d[n:, n::-1]),
        F=FourierCoeffs1D(d[n:, n]),
        G=FourierCoeffs1D(d[n, n:]),
        c00=complex(d[n, n]),
    )


def reference_synth_field_2d(order, seed, size):
    """``cli.synth_field_2d`` with its symmetric full-range spectrum sampled by ``real_samples``."""
    rng = np.random.default_rng(seed)
    side = 2 * order + 1
    spec = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    decay = 1.0 / (1.0 + np.abs(np.arange(-order, order + 1)))
    spec *= np.outer(decay, decay)
    field = real_samples((spec + np.conj(spec[::-1, ::-1])) / 2.0, size)
    lo, hi = field.min(), field.max()
    return (field - lo) / (hi - lo) if hi > lo else np.full_like(field, 0.5)


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


def reference_ifft2_real_field_2d(parts, size):
    """``real_field_2d`` with one ``np.fft.ifft2`` over the whole shared spectrum."""
    spectrum = np.zeros((size, size), dtype=complex)
    n, m = parts.pp.order + 1, parts.pm.order + 1
    spectrum[:n, :n] += parts.pp.data
    spectrum[:m, -np.arange(m) % size] += parts.pm.data
    spectrum[: parts.F.order + 1, 0] -= parts.F.data
    spectrum[0, : parts.G.order + 1] -= parts.G.data
    samples = np.fft.ifft2(spectrum)
    samples *= size
    samples *= size
    return 2.0 * samples.real + parts.c00.real


def reference_boundary_samples(f, size):
    """``FourierCoeffs.boundary_samples`` with one ``np.fft.ifftn`` over every row."""
    return _reference_ifftn(f.data, 0, size)


def reference_write_csv(path, header, values):
    """``cli.write_csv`` with one ``%`` format and one write per value."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for v in values:
            handle.write("%.17g\n" % v)


def reference_write_pgm(path, field01):
    """``cli.write_pgm`` through a fresh array per scaling, rounding and clipping step."""
    pixels = np.clip(np.round(np.asarray(field01) * 255.0), 0, 255).astype(np.uint8)
    header = b"P5\n%d %d\n255\n" % (pixels.shape[1], pixels.shape[0])
    with open(path, "wb") as handle:
        handle.write(header + pixels.tobytes())


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
    c = complex(np.vdot(atom.data, f.data))
    residual = f - c * atom
    size = _tm_grid_size(f.order)
    z = np.exp(2j * np.pi * np.arange(size) / size)
    samples = residual.boundary_samples(size)
    samples *= (1.0 - np.conj(a) * z) / (z - a)
    spec = np.fft.fft(samples) / size
    return c, FourierCoeffs1D(spec[: f.order + 1].copy())


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
    if bk.order != f.order or bl.order != f.order:
        raise DomainError("factor orders must match the signal order")
    return complex(np.conj(bk.data) @ f.data @ np.conj(bl.data))


def dn_energy(f, history, candidate):
    """Energy of the step-n product-TM block for one candidate pair.

    Builds both factor systems extended by the candidate and sums the
    squared moduli of the 2n - 1 new cross coefficients.
    """
    pairs = list(history) + [candidate]
    table = _cross_table(f.data, *_history_rows(pairs, f.order))
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
        raise SpanDegeneracyError("candidate atom lies in the frame span (r = %.3g)" % r)
    inner = abs(complex(np.vdot(atom, g)))
    return SelectionOutcome(atom=None, r=r, gain=inner / r)


class _RecordedReduction(_Reduction):
    """A ``_Reduction`` that also keeps a copy of every row set it is given: (rows, inner, r^2)."""

    def __init__(self):
        super().__init__(1.0)
        self.blocks = []

    def add(self, rows, inner, r_sq):
        self.blocks.append((np.array(rows), inner.copy(), r_sq.copy()))
        super().add(rows, inner, r_sq)


def dense_scan(dictionary, g, frame, state=None):
    """A scan's values for all base atoms: (gain, degenerate, sup_r, r_sq).

    The inner products are the row sets the scan hands its reduction, in
    any order, so the scan must hand it every row of base atoms once, as
    the 1-d scan does in one row; the 2-d scan leaves out rows that cannot
    qualify.  Each set's rows are ascending and its r^2 has the bits of
    the scan's.  r = sqrt(clip(r^2)), the gain is inner / r and the mask
    r < EPS_SPAN, as the reduction forms them, and ``sup_r`` is the
    reduction's own.  The scan gets a fresh ``ScanState`` unless ``state``
    is given.
    """
    reduction = _RecordedReduction()
    r_sq = dictionary.scan(g, frame, reduction, ScanState() if state is None else state)[0]
    width = reduction.blocks[0][1].shape[1]
    rows = np.concatenate([rows for rows, _, _ in reduction.blocks])
    assert all(np.all(np.diff(rows) > 0) for rows, _, _ in reduction.blocks)
    assert np.array_equal(np.sort(rows), np.arange(r_sq.size // width)) and r_sq.size % width == 0
    inner = np.empty((r_sq.size // width, width))
    for rows, block, block_r_sq in reduction.blocks:
        assert block.shape == block_r_sq.shape == (rows.size, width)
        assert block_r_sq.tobytes() == r_sq.reshape(-1, width)[rows].tobytes()
        inner[rows] = block
    inner = inner.ravel()
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


def reference_scan_2d(dictionary, g, frame):
    """The unblocked 2-d scan: whole P x P products for the inner products and each frame row.

    Its factor rows A are sqrt(1-|a|^2) conj(a)^k, the conjugates of the
    grid's kernel rows K: the values |A conj(G) A^T| are the conjugate
    arithmetic of |K G K^T|, and r^2 starts at the squared row norms of A.
    Returns (gain, degenerate, sup_r, r^2) of every pair, as ``dense_scan``.
    """
    params, k = dictionary.params, np.arange(dictionary.order + 1)
    side = k.size
    A = np.sqrt(1.0 - np.abs(params) ** 2)[:, None] * np.conj(params)[:, None] ** k[None, :]
    norms_sq = np.sum(np.abs(A) ** 2, axis=1)
    r_sq = np.outer(norms_sq, norms_sq)
    for row in frame.matrix:
        r_sq -= np.abs(A @ np.conj(row.reshape(side, side)) @ A.T) ** 2
    r = np.sqrt(np.clip(r_sq, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.abs(A @ np.conj(g.reshape(side, side)) @ A.T) / r
    return gain.ravel(), (r < EPS_SPAN).ravel(), float(r.max()), r_sq.ravel()


def reference_select(g, frame, dictionary, demoted=frozenset()):
    """The strong selection over dense arrays and one tuple per escalated candidate.

    The pick has the largest gain, ties going to the least (r, order
    index); the base atoms come first in that order, by grid index, then
    the escalated candidates as they are generated.  Kept as the oracle of
    ``afdkit.poga._select``: exact in 1-d at every rho, whose scan scores
    every atom, and in 2-d at rho = 1.  Its ``sup_gain`` is the dense
    supremum of the gain over every candidate, which a weak pick must
    reach within rho.  A winning grid atom whose direct residual is below
    EPS_SPAN joins ``demoted`` (treated as degenerate) and the selection
    runs again.  Returns (spec, r, gain, sup_gain, sup_r).
    """
    g = np.asarray(g, dtype=complex).ravel()
    scan = reference_scan_2d if isinstance(dictionary, ProductSzegoDictionary2D) else dense_scan
    gains, _, _, r_sq = scan(dictionary, g, frame)
    r = np.sqrt(np.clip(r_sq, 0.0, None))
    selected = set(s for s in frame.specs if s is not None)
    structural = set(demoted)
    for s in selected:
        idx = dictionary.base_index(s)
        if idx is not None:
            structural.add(idx)

    usable = r >= EPS_SPAN
    usable[sorted(structural)] = False
    degenerate = np.flatnonzero(~usable).tolist()

    candidates = []  # (gain, r, order_index, spec): the best base atom, then the escalated atoms
    if usable.any():
        top = gains[usable].max()
        ties = np.flatnonzero(usable & (gains == top))
        i = int(ties[np.argmin(r[ties])])
        candidates.append((float(top), float(r[i]), i, None))
    order_index = r.size
    for i in degenerate:
        for esc in _escalated_candidates(dictionary, dictionary.base_spec(i), selected):
            vec = dictionary.atom_vector(esc)
            _, r_esc = frame.project_residual(vec)
            attempts = 0
            while r_esc < EPS_SPAN and attempts < len(frame) - 1:
                ladder = _escalated_candidates(dictionary, esc, selected)
                if not ladder:  # the ladder ends at order + 1
                    break
                esc = ladder[0]
                vec = dictionary.atom_vector(esc)
                _, r_esc = frame.project_residual(vec)
                attempts += 1
            if r_esc < EPS_SPAN:
                continue
            gain = abs(complex(np.vdot(vec, g))) / r_esc
            candidates.append((gain, float(r_esc), order_index, esc))
            order_index += 1

    gain, r_sel, idx, spec = min(candidates, key=lambda c: (-c[0], c[1], c[2]))
    if spec is None:
        spec = dictionary.base_spec(idx)
        if frame.project_residual(dictionary.atom_vector(spec))[1] < EPS_SPAN:
            return reference_select(g, frame, dictionary, demoted | {idx})
    return spec, r_sel, gain, gain, float(np.max(r))


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
    f = FourierCoeffs1D.zeros(order)
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
