"""Hardy signals as truncated Fourier coefficients.

Signals in the Hardy space of the disc (or of the 2-torus) are represented
by their coefficients c_k, k = 0..N on every axis; uniform boundary sample
grids are derived views computed with the inverse FFT, and all inner
products reduce to coefficient dot products by Parseval.  A real signal
enters only as its Hardy parts: ``analytic_part`` and ``quadrant_split``
take its boundary samples to them with one FFT.

The module also houses the polar search grid and the deterministic
grid-argmax engine shared by every maximal-selection routine in the package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionMismatchError, DomainError

__all__ = [
    "FourierCoeffs",
    "FourierCoeffs1D",
    "FourierCoeffs2D",
    "QuadrantParts",
    "GridSpec",
    "next_pow2",
    "inner_product_1d",
    "inner_product_2d",
    "analytic_part",
    "quadrant_split",
    "real_field_2d",
    "grid_points",
    "kernel_rows",
    "eval_series",
    "grid_argmax",
    "grid_argmax_pairs",
    "Step",
    "Record",
    "greedy",
]


def next_pow2(n):
    """Smallest power of two >= n."""
    p = 1
    while p < n:
        p *= 2
    return p


def _inverse_fft(spectrum, *row_blocks):
    """``np.fft.ifftn`` of a 1-d or square 2-d ``spectrum``, with its bits, in place and times the side per axis.

    In 2-d the last-axis pass runs only over the row slices ``row_blocks``, which
    hold every nonzero entry: the other rows are zero before that pass and after it.
    """
    if spectrum.ndim == 2:
        for rows in row_blocks:
            np.fft.ifft(spectrum[rows], axis=1, out=spectrum[rows])
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    for _ in range(spectrum.ndim):  # one factor per axis: a single size**ndim rounds differently
        spectrum *= spectrum.shape[0]
    return spectrum


class FourierCoeffs:
    """Truncated Hardy coefficients of a boundary signal, one axis per variable.

    ``FourierCoeffs1D`` lives on the circle, ``FourierCoeffs2D`` on the
    2-torus, where the first axis pairs with the variable t and the second
    with s.  Along every axis ``c_k`` is stored at index ``k`` for
    ``k = 0..N``; a real signal enters as its Hardy parts, through
    ``analytic_part`` or ``quadrant_split``.  Instances are treated as
    immutable; operations return new objects.

    Parameters
    ----------
    data : array_like of complex
        Coefficient array with ``ndim`` equal sides of length N + 1.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        data = np.asarray(data, dtype=complex)
        if data.ndim != self.ndim or data.size == 0 or len(set(data.shape)) != 1:
            raise DimensionMismatchError(
                "expected a nonempty %d-d coefficient array with equal sides" % self.ndim
            )
        self.data = data

    @property
    def order(self):
        """Truncation order N."""
        return self.data.shape[0] - 1

    @classmethod
    def zeros(cls, order):
        return cls(np.zeros((order + 1,) * cls.ndim, dtype=complex))

    def energy(self):
        """Squared norm sum(|c_k|^2)."""
        return float(np.sum(np.abs(self.data) ** 2))

    def boundary_samples(self, size):
        """Samples at t_j = 2 pi j / size on every axis via the inverse FFT."""
        n = self.order
        if size < n + 1:
            raise DimensionMismatchError("grid size %d too small for order %d" % (size, n))
        spectrum = np.zeros((size,) * self.ndim, dtype=complex)
        spectrum[(slice(n + 1),) * self.ndim] = self.data
        return _inverse_fft(spectrum, slice(n + 1))

    def __add__(self, other):
        self._check_compatible(other)
        return type(self)(self.data + other.data)

    def __sub__(self, other):
        self._check_compatible(other)
        return type(self)(self.data - other.data)

    def __mul__(self, scalar):
        return type(self)(self.data * complex(scalar))

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, type(self)):
            raise TypeError("expected %s" % type(self).__name__)
        if other.order != self.order:
            raise DimensionMismatchError("mixed truncation orders")

    def __repr__(self):
        return "%s(order=%d)" % (type(self).__name__, self.order)


class FourierCoeffs1D(FourierCoeffs):
    """Truncated Fourier coefficients on the circle."""

    __slots__ = ()
    ndim = 1


class FourierCoeffs2D(FourierCoeffs):
    """Truncated Fourier coefficients on the 2-torus."""

    __slots__ = ()
    ndim = 2


@dataclass
class QuadrantParts:
    """Hardy parts of a real signal on the 2-torus, the inputs of the 2-d algorithms.

    ``pp`` holds c_{k,l} and ``pm`` the reflected block c_{k,-l} for
    k, l >= 0; ``F`` and ``G`` hold the Hardy parts of the marginals, c_{k,0}
    and c_{0,l}; ``c00`` is the mean.  For a real signal c_{-k,-l} =
    conj(c_{k,l}), so ``pp`` and ``pm`` determine it; ``real_field_2d``
    rebuilds it on a grid.
    """

    pp: FourierCoeffs2D
    pm: FourierCoeffs2D
    F: FourierCoeffs1D
    G: FourierCoeffs1D
    c00: complex


def inner_product_1d(f, g):
    """Hermitian inner product sum_k c_k(f) conj(c_k(g)), on the circle or the 2-torus.

    By Parseval this equals the boundary mean of f conj(g).  Both operands
    must share one order.
    """
    f._check_compatible(g)
    return complex(np.vdot(g.data, f.data))


inner_product_2d = inner_product_1d


def _real_grid(samples, order, ndim):
    """``samples`` as a real ``ndim``-d grid with equal sides of at least 2N + 1, and that side."""
    samples = np.asarray(samples)
    if samples.ndim != ndim or len(set(samples.shape)) != 1:
        raise DimensionMismatchError("expected a %d-d sample grid with equal sides" % ndim)
    if np.iscomplexobj(samples):
        raise DomainError("expected real samples, got %s" % samples.dtype)
    size = samples.shape[0]
    if size < 2 * order + 1:
        raise DimensionMismatchError(
            "need a grid side of at least %d for order %d, got %d" % (2 * order + 1, order, size)
        )
    return samples, size


def analytic_part(samples, order):
    """Analytic (Hardy) part of a real signal from its uniform boundary samples.

    Keeps the FFT coefficients c_k for k = 0..order, which realizes
    (f + iHf)/2 + c_0/2; the signal is recovered on the grid as
    2 Re f^+ - c_0.  Exact whenever the signal is bandlimited to ``order``
    and there are at least ``2*order + 1`` samples; higher content aliases.

    Raises
    ------
    DimensionMismatchError
        If the samples are not 1-d or fewer than ``2*order + 1``.
    DomainError
        If the samples are complex.
    """
    x, size = _real_grid(samples, order, 1)
    return FourierCoeffs1D(np.fft.fft(x)[: order + 1] / size)


def quadrant_split(samples, order):
    """Hardy parts of a real signal on the 2-torus from a square grid of its samples.

    The last axis is transformed first and only its columns l = -N..N are
    kept; the first axis is then transformed over those columns, and rows
    k = 0..N hold every part.  Raises as ``analytic_part`` does.
    """
    x, size = _real_grid(samples, order, 2)
    n = order
    columns = np.arange(-n, n + 1) % size
    d = np.fft.fft(np.fft.fft(x, axis=1).take(columns, axis=1), axis=0)[: n + 1] / size**2
    return QuadrantParts(  # d[k, l + n] holds c_{k,l}
        pp=FourierCoeffs2D(d[:, n:].copy()),
        pm=FourierCoeffs2D(d[:, n::-1].copy()),
        F=FourierCoeffs1D(d[:, n].copy()),
        G=FourierCoeffs1D(d[0, n:].copy()),
        c00=complex(d[0, n]),
    )


def real_field_2d(parts, size):
    """Real field of ``QuadrantParts`` on a ``size`` x ``size`` boundary grid.

    Evaluates  2 Re{f^{++}}(t, s) + 2 Re{[f(., -.)]^{++}}(t, -s)
    - 2 Re{F^+}(t) - 2 Re{G^+}(s) + Re c00, so it inverts
    ``quadrant_split`` on grids of side at least 2N+1.  The parts may have
    different orders.  All four share one spectrum, each at its own
    frequencies: ``pp`` at (k, l), ``pm`` at (k, -l mod size), ``F`` at
    (k, 0) and ``G`` at (0, l); one inverse FFT, whose row pass skips the
    rows past every order, then gives their sum.
    """
    for part in (parts.pp, parts.pm, parts.F, parts.G):
        if size < part.order + 1:
            raise DimensionMismatchError("grid size %d too small for order %d" % (size, part.order))
    spectrum = np.zeros((size, size), dtype=complex)
    n, m = parts.pp.order + 1, parts.pm.order + 1
    spectrum[:n, :n] += parts.pp.data
    spectrum[:m, -np.arange(m) % size] += parts.pm.data
    spectrum[: parts.F.order + 1, 0] -= parts.F.data
    spectrum[0, : parts.G.order + 1] -= parts.G.data
    samples = _inverse_fft(spectrum, slice(max(n, m, parts.F.order + 1)))
    return 2.0 * samples.real + parts.c00.real


@dataclass(frozen=True)
class GridSpec:
    """Polar search grid over the unit disc.

    Radii are Chebyshev-spaced in (0, max_radius] (clustered near both 0 and
    max_radius), angles are uniform, and the center point 0 is always
    included.  Refinement levels halve the local cell around the running
    argmax.  Candidate order, and hence every tie-break, is lexicographic in
    (radius, angle).
    """

    radial_count: int = 48
    angular_count: int = 96
    refine_levels: int = 2
    max_radius: float = 0.995

    def __post_init__(self):
        if self.radial_count < 1 or self.angular_count < 1:
            raise ConfigError("grid needs at least one radius and one angle")
        if self.refine_levels < 0:
            raise ConfigError("refine_levels must be nonnegative")
        if not 0.0 < self.max_radius < 1.0:
            raise ConfigError("max_radius must lie strictly inside (0, 1)")


def grid_radii(spec):
    """Chebyshev-spaced radii in (0, max_radius], ascending."""
    i = np.arange(spec.radial_count)
    radii = spec.max_radius * (1.0 + np.cos(np.pi * i / spec.radial_count)) / 2.0
    return radii[::-1].copy()


@functools.lru_cache(maxsize=4)
def grid_points(spec):
    """Coarse grid points in deterministic (radius, angle) order.

    The center 0 comes first, then each radius in ascending order with its
    full ring of angles ascending in [0, 2 pi).  The array is computed once
    per spec and shared, so it is read-only.
    """
    radii = grid_radii(spec)
    angles = 2.0 * np.pi * np.arange(spec.angular_count) / spec.angular_count
    ring = np.exp(1j * angles)
    pts = np.concatenate([[0j], (radii[:, None] * ring[None, :]).ravel()])
    pts.flags.writeable = False
    return pts


def _on_grid(points, spec):
    """Whether ``points`` is the coarse grid of ``spec``; no spec means no grid."""
    if spec is None:
        return False
    grid = grid_points(spec)
    return points is grid or np.array_equal(points, grid)


@functools.lru_cache(maxsize=4)
def _ring_powers(spec, order):
    """Ring radii to the powers 0, 1, ..., through whole periods of angular_count covering order."""
    periods = -(-(order + 1) // spec.angular_count)
    table = grid_radii(spec)[:, None] ** np.arange(periods * spec.angular_count)[None, :]
    table.flags.writeable = False
    return table


def eval_series(coeffs, points, spec=None):
    """Power series sum_k coeffs[k] z^k at every point, in the shape of ``points``.

    On the coarse grid of ``spec`` each ring of ``angular_count`` angles
    sees only the coefficients folded mod ``angular_count``, scaled by the
    ring's radius powers, so the whole grid is one batched inverse FFT over
    the rings.  Elsewhere the power rows are running products of the points.
    """
    c = np.asarray(coeffs, dtype=complex)
    pts = np.asarray(points, dtype=complex)
    if _on_grid(pts, spec):
        table = _ring_powers(spec, c.size - 1)
        padded = np.zeros(table.shape[1], dtype=complex)
        padded[: c.size] = c
        m = spec.angular_count
        folded = (table * padded).reshape(spec.radial_count, -1, m).sum(axis=1)
        rings = np.fft.ifft(folded, axis=1) * m
        return np.concatenate([c[:1], rings.ravel()])
    powers = np.empty(pts.shape + c.shape, dtype=complex)
    powers[..., :1] = 1.0
    powers[..., 1:] = pts[..., None]
    # Summed in NumPy rather than by a BLAS product: these point sets are a
    # few dozen refinement candidates, and BLAS threads burn more CPU waiting
    # on such small calls than the product itself takes.
    return (np.cumprod(powers, axis=-1) * c).sum(axis=-1)


def kernel_rows(points, order, spec=None):
    """Rows ``sqrt(1 - |a|^2) a^k``, k = 0..order, one per point a.

    Row a times a Hardy coefficient vector g is <g, e_a> = sqrt(1 - |a|^2)
    g(a), with e_a the normalized Szego kernel.  When ``points`` is the
    coarse grid of ``spec`` the rows are cached per (spec, order) and
    read-only.  A 2-d step then allocates only its product rows and one
    reduction workspace; with two fresh kernel-row matrices per step as
    well, glibc returned the step's heap to the system after each step and
    a pga2d step took about 1,200 page faults, 20% of its time.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if _on_grid(pts, spec):
        return _grid_kernel_rows(spec, order)
    return np.sqrt(1.0 - np.abs(pts) ** 2)[:, None] * pts[:, None] ** np.arange(order + 1)[None, :]


@functools.lru_cache(maxsize=4)
def _grid_kernel_rows(spec, order):
    rows = kernel_rows(grid_points(spec), order)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=4)
def _grid_rings(spec, order):
    """Ring of each grid point, ascending from the center's 0, and the largest stored |K[b, k]| of each; read-only."""
    labels = np.repeat(np.arange(spec.radial_count + 1), [1] + [spec.angular_count] * spec.radial_count)
    peaks = np.maximum.reduceat(np.abs(_grid_kernel_rows(spec, order)), np.flatnonzero(np.diff(labels, prepend=-1)))
    labels.flags.writeable = peaks.flags.writeable = False
    return labels, peaks


@functools.lru_cache(maxsize=4)
def _grid_kernel_norms_sq(spec, order):
    """Squared norms of the rows of ``_grid_kernel_rows``, cached with them and read-only."""
    norms = np.sum(np.abs(_grid_kernel_rows(spec, order)) ** 2, axis=1)
    norms.flags.writeable = False
    return norms


# Offsets of the refinement stencil, in units of the halved grid steps.
_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _local_candidates(center, step_r, step_t, max_radius):
    """Polar 5 x 5 neighbourhood of ``center``, deduplicated and sorted by (r, t).

    Returns the candidate points and the index of the center's own entry.
    A center on the rim has ``abs(center)`` within rounding of
    ``max_radius``; it is snapped there, so the clamped outward offsets
    coincide with it instead of adding a near-copy of the same point.
    Radii are clamped to [0, max_radius] and angles taken mod 2 pi, each
    axis deduplicated and sorted on its own; the stencil is their product,
    except that the radius 0 gives the single point 0.  An angle a rounding
    below 0 is taken as 0, so the center keeps its own entry.
    """
    r0 = abs(center)
    if max_radius - r0 <= 1e-12:
        r0 = max_radius
    t0 = float(np.angle(center)) % (2.0 * np.pi)
    if t0 == 2.0 * np.pi:
        t0 = 0.0
    radii = sorted({min(max(r0 + dr, 0.0), max_radius) for dr in (_OFFSETS * step_r).tolist()})
    angles = sorted({(t0 + dt) % (2.0 * np.pi) for dt in (_OFFSETS * step_t).tolist()})
    zero = int(radii[0] == 0.0)
    # r * exp(i t) by the parts of the scalar product (r + 0i)(c + is), whose
    # signed zeros the vectorised complex product does not keep when r c
    # underflows
    r = np.array(radii[zero:])[:, None]
    unit = np.exp(1j * np.array(angles))
    points = np.empty((r.shape[0], unit.size), dtype=complex)
    points.real = r * unit.real - 0.0 * unit.imag
    points.imag = r * unit.imag + 0.0 * unit.real
    points = points.ravel()
    if zero:
        points = np.concatenate(([0j], points))
    if r0 == 0.0:
        return points, 0
    return points, zero + (radii.index(r0) - zero) * len(angles) + angles.index(t0)


def _refine(objective, best, best_val, spec):
    """Local refinement around ``best``, a tuple of points (one per axis).

    Each level halves the cell and moves only on strict improvement; the
    running best itself is left out of the comparison, since its value is
    known.
    """
    step_r = spec.max_radius / spec.radial_count
    step_t = 2.0 * np.pi / spec.angular_count
    for _ in range(spec.refine_levels):
        step_r /= 2.0
        step_t /= 2.0
        local = [_local_candidates(c, step_r, step_t, spec.max_radius) for c in best]
        vals = np.array(objective(*(cands for cands, _ in local)), dtype=float)
        vals[tuple(own for _, own in local)] = -np.inf
        j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[j] > best_val:
            best = tuple(complex(cands[k]) for (cands, _), k in zip(local, j))
            best_val = float(vals[j])
    return best, best_val


# Most rows of a pair table scored at once, poga2d's seed rows (and the most
# rows a pga2d probe may leave unscreened), the relative and absolute inflation
# of every bound, the rank of the basis that screens a table without gains, and
# the lanes of columns a block of a table with gains scores whole.  A reduction
# keeps one workspace of 24 bytes per pair of a block, 3.5 MB at the bench
# grid's P = 1,153 points against 31.9 MB for the dense table and its product.
PAIR_BLOCK, PAIR_SEEDS, PAIR_RANK, PAIR_LANES = 128, 32, 16, 4
PAIR_MARGIN, PAIR_FLOOR = 1e-9, 2.0**-1000


def _row_blocks(n):
    """Slices that split ``n`` rows evenly into blocks of at most ``PAIR_BLOCK`` rows.

    Fixed blocks would leave a one-row tail at n = 1,153 (the bench grid),
    which ``_PairTable.block`` multiplies beside a neighbour; even blocks
    hold at least 64 rows once there are two.
    """
    count = -(-n // PAIR_BLOCK)
    return [slice(n * k // count, n * (k + 1) // count) for k in range(count)]


def _scan_rows(bound, seeds, score, rho=1.0):
    """The row scan of every 2-d selector; returns the largest bound of a row it left out, or -inf.

    ``bound[i]`` is at least every value of row i, and ``score(rows)``
    scores a sorted index array of rows and returns the best value so far.
    The ``seeds`` (at least 1) rows of largest bound go first, then the
    even blocks of ``_row_blocks`` of the other rows whose bound times
    ``rho`` reaches the seeds' best, each without the rows that no longer
    reach the best so far.  No row is scored twice, and a row left out
    holds no value above best / rho (none of best at rho = 1).
    """
    first = np.sort(np.argsort(bound)[-seeds:])
    left = np.ones(bound.size, dtype=bool)
    left[first], best = False, score(first)
    rows = np.flatnonzero(left & (rho * bound >= best))
    for blk in _row_blocks(rows.size):
        reach = rows[blk][rho * bound[rows[blk]] >= best]
        if reach.size:
            best = score(reach)
            left[reach] = False
    return float(np.max(bound, where=left, initial=-np.inf))


class _PairTable:
    """Values of a pair objective over two point sets, held as factors.

    Entry (i, j) is ``|Ka[i] M Kb[j]^T|``, or ``|Ka[i] M Kb[j]^T|^2 +
    gains[0][i] + gains[1][j]`` when ``gains`` are given.  ``np.asarray``
    gives the dense table through the operations of a direct evaluation, so
    bit for bit; ``_pair_argmax`` reduces the table without allocating it.
    ``block`` keeps those bits for any rows over all the columns, or over
    whole lanes of ``PAIR_LANES`` columns from column 0: OpenBLAS's zgemm
    kernels take 4 columns at a time, and a short last lane rounds
    otherwise (random column subsets of the bench grid's tables did in
    43-47 of 60 trials).  ``norms_sq`` holds the squared row norms of
    ``Ka`` and of ``Kb`` (the products are those of the pair atoms) or
    None, ``rings`` the ``_grid_rings`` of the columns on the grid, and
    ``probe`` whether ``_pair_argmax`` probes the table before screening it.
    """

    def __init__(self, rows_a, middle, rows_b, gains=None, norms_sq=None, rings=None, probe=True):
        self.middle, self.rows_b, self.gains = middle, rows_b, gains
        self.norms_sq, self.rings, self.probe = norms_sq, rings, probe
        self.left = rows_a @ middle
        self.shape = (rows_a.shape[0], rows_b.shape[0])

    def block(self, rows=slice(None), cols=slice(None), work=None):
        """The dense values of the rows by the columns given.

        The complex product and the values go into ``work``, 3 floats a
        value (of two rows for one), allocated when not given.  A lone row is
        multiplied beside a neighbour and its own values returned, as BLAS
        multiplies one row by its matrix-vector path, which rounds otherwise.
        """
        index = np.arange(self.shape[0])[rows]
        pair = min(index[0], self.shape[0] - 2) if index.size == 1 < self.shape[0] else None  # the two rows' first
        rows = rows if pair is None else slice(pair, pair + 2)
        left, right = self.left[rows], self.rows_b[cols].T
        shape = (left.shape[0], right.shape[1])
        size = shape[0] * shape[1]
        work = np.empty(3 * size) if work is None else work
        product = np.matmul(left, right, out=work[: 2 * size].view(complex).reshape(shape))
        table = np.abs(product, out=work[2 * size : 3 * size].reshape(shape))
        if self.gains is not None:
            np.square(table, out=table)
            table += self.gains[0][rows, None]
            table += self.gains[1][None, cols]
        return table if pair is None else table[index[0] - pair, None]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.block(), dtype=dtype)

    def bounds(self):
        """Upper bounds of the values in each row, and with gains (terms, the ring of each column).

        A kernel row on a ring of radius r has |K[b, k]| = sqrt(1 - r^2) r^k.
        With ``peaks`` the largest stored |K[b, k]| of each column ring (off
        the grid, all columns are one ring), |Ka[i] M Kb[j]^T| is at most
        T_i(ring of j) = sum_k |(Ka[i] M)_k| peaks[ring, k], up to rounding
        relative to T_i.  A row bound is max T_i over the rings.  With gains,
        entry (i, j) is at most terms[i, ring of j] = T_i^2 + gains[0][i],
        plus gains[1][j], and a row bound is the max over the rings of that
        term plus the ring's largest column gain.  ``PAIR_MARGIN`` and
        ``PAIR_FLOOR`` (for underflow) inflate every bound.
        """
        labels, peaks = self.rings or (np.zeros(self.shape[1], dtype=np.intp), np.abs(self.rows_b).max(axis=0)[None])
        terms = np.abs(self.left) @ peaks.T  # squared and summed in place: fewer heap temporaries
        if self.gains is None:
            return terms.max(axis=1) * (1.0 + PAIR_MARGIN) + PAIR_FLOOR, None
        np.square(terms, out=terms)
        top = (terms + np.maximum.reduceat(self.gains[1], np.flatnonzero(np.diff(labels, prepend=-1)))).max(axis=1)
        terms += self.gains[0][:, None]
        return (top + self.gains[0]) * (1.0 + PAIR_MARGIN) + PAIR_FLOOR, (terms, labels)

    def heads(self):
        """The low-rank screen of a table without gains: (unit, W, tails, slack, head_block), or None.

        For x = ``left[i]``, y = ``Kb[j]^T`` and any W with orthonormal
        columns, entry (i, j) is the head (x W)(W^H y) plus a tail of at most
        |x W_perp| |W_perp^H y|, whose squares are |x|^2 - |x W|^2 and
        |y|^2 - |W^H y|^2; W sets only how tight the bound is.  W is the QR
        basis of M^H M Z, Z the conjugated q = min(``PAIR_RANK``, N + 1) rows
        of M of largest norm, with M and x scaled by ``unit``, the power of
        two above max|M|.  ``head_block(rows, work)`` forms the heads of the
        rows given over all columns in complex64, in the front of the float
        ``work`` (a workspace of ``block``); entry (i, j) over ``unit`` is at
        most |head| + ``slack[i]``, the tail plus the float32 rounding
        (q + 16) 2^-24 (|x| max|y| + 2^-100) of the casts, products and
        ``abs`` (2^-100 for underflow).  eps = (N + 1) 2^-40 times |x|^2 and
        |y|^2 raises both differences, for their cancellation and W's
        departure from orthonormality, whose cross term adds eps |x| max|y|.
        None, to score every row, when max|M| is zero, not finite or outside
        2^-500..2^500.
        """
        top = np.abs(self.middle).max()
        if not 2.0**-500 < top < 2.0**500:
            return None
        unit = 2.0 ** np.frexp(top)[1]
        middle = self.middle / unit
        q, eps = min(PAIR_RANK, middle.shape[0]), 2.0**-40 * middle.shape[0]
        z = middle[np.argsort(np.sum(np.abs(middle) ** 2, axis=1))[-q:]].conj().T
        basis = np.linalg.qr(middle.conj().T @ (middle @ z))[0]
        y = self.rows_b @ basis.conj()
        sq_b = self.norms_sq[1] if self.norms_sq else np.sum(np.abs(self.rows_b) ** 2, axis=1)
        tail_b = np.sqrt(np.maximum(sq_b - np.sum(np.abs(y) ** 2, axis=1), 0.0) + eps * sq_b).max()
        yt = y.T.astype(np.complex64)
        n, m = self.shape
        head = (self.left @ basis).view(np.float64) / unit
        head32 = head.astype(np.float32).view(np.complex64)
        sq_a = np.empty(n)
        for blk in _row_blocks(n):
            x = self.left[blk].view(np.float64) / unit
            sq_a[blk] = np.einsum("ij,ij->i", x, x)
        diff_a = sq_a - np.einsum("ij,ij->i", head, head)
        tail = np.sqrt(np.maximum(diff_a, 0.0) + eps * sq_a) * tail_b
        reach = np.sqrt(sq_a * sq_b.max())
        allowance = (q + 16) * 2.0**-24 * (reach + 2.0**-100) + eps * reach

        def head_block(rows, work):
            size = head32[rows].shape[0] * m
            return np.matmul(head32[rows], yt, out=work[:size].view(np.complex64).reshape(-1, m))

        return unit, basis, tail, tail + allowance, head_block

    def screen(self, work):
        """Upper bounds of the values in each row of a table without gains (see ``heads``), their tails and W."""
        screen = self.heads()
        if screen is None:
            return None, None, None
        unit, basis, tail, slack, head_block = screen
        peak = np.empty(self.shape[0], dtype=np.float32)
        for blk in _row_blocks(self.shape[0]):
            product = head_block(blk, work)
            values = np.abs(product, out=work[product.size :].view(np.float32)[: product.size].reshape(product.shape))
            np.max(values, axis=1, out=peak[blk])
        return unit * (peak + slack), unit * tail, basis


def _kernel_table(block, a_pts, b_pts, grid, single=None, probe=True):
    """``|K_a block K_b^T|`` over all point pairs, K the ``kernel_rows`` of each axis.

    Entry (a, b) is |<g, e_a (x) e_b>|, g the power series of ``block``.
    The single-axis matrices (Ga, Gb) of afd2d-tm add the gains
    ``|K_a Ga|^2`` and ``|K_b Gb|^2`` to the squared entries.  On the grid
    the rows, their squared norms and the column rings are the cached ones.
    """
    order = block.shape[0] - 1
    rows_a, rows_b = kernel_rows(a_pts, order, grid), kernel_rows(b_pts, order, grid)
    gains = single and tuple(np.sum(np.abs(rows @ G) ** 2, axis=1) for rows, G in zip((rows_a, rows_b), single))
    on_grid = [_on_grid(pts, grid) for pts in (a_pts, b_pts)]
    norms = (_grid_kernel_norms_sq(grid, order),) * 2 if all(on_grid) else None
    return _PairTable(rows_a, block, rows_b, gains, norms, _grid_rings(grid, order) if on_grid[1] else None, probe)


def _pair_argmax(table):
    """Index pair and value of the first maximum of a ``_PairTable`` in (row, column) order.

    ``_scan_rows`` picks the rows, two seeds, in one workspace, and the
    running best moves on a larger value, or on an equal one at an earlier
    pair.  So no table of all pairs is allocated, and ties go to the first
    pair, as ``np.argmax`` of the dense table gives them.  Rows get the
    ring-majorant bound of ``bounds``, without gains only when
    ``table.probe`` holds: then the top row's largest value by its own
    product, less PAIR_MARGIN times its bound (far above matrix-vector
    rounding), is at most the maximum, and if more than ``PAIR_SEEDS`` rows
    reach it, or without a probe, ``screen`` tightens or sets the bounds.
    With gains a block after the seeds scores only the whole lanes that
    hold a column whose largest term in the block, plus its gain, reaches
    the running best.  No row is scored twice and the tie-break holds, and
    ``block`` keeps the dense bits: the dense ``np.argmax`` and value.
    Nothing is written to the table.
    """
    n, m = table.shape
    row_bound, terms = table.bounds() if table.gains is not None or table.probe else (np.full(n, np.inf), None)
    # allocated once the temporaries of ``bounds`` are freed; the screen needs it
    work = np.empty(3 * min(PAIR_BLOCK, n) * m)
    spared = terms is None and table.probe
    if spared:
        lower = np.abs(table.left[np.argmax(row_bound)] @ table.rows_b.T).max() - PAIR_MARGIN * row_bound.max()
        spared = np.count_nonzero(row_bound >= lower) <= PAIR_SEEDS
    if terms is None and not spared:
        screened = table.screen(work)[0]
        row_bound = row_bound if screened is None else np.minimum(row_bound, screened)
    best = None  # ((row, column), value) of the first maximum scored

    def score(rows):
        nonlocal best
        cols = slice(None)
        if terms is not None and best is not None:
            keep = (terms[0][rows].max(axis=0)[terms[1]] + table.gains[1]) * (1.0 + PAIR_MARGIN) + PAIR_FLOOR
            cols = np.flatnonzero(np.repeat(np.logical_or.reduceat(keep >= best[1], range(0, m, PAIR_LANES)), PAIR_LANES)[:m])
            if not cols.size:
                return best[1]
        values = table.block(rows, cols, work=work)
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        pair, value = (int(rows[i]), int(np.arange(m)[cols][j])), float(values[i, j])
        if best is None or value > best[1] or value == best[1] and pair < best[0]:
            best = pair, value
        return best[1]

    _scan_rows(row_bound, 2, score)
    return best


def _argmax(objective, spec, axes):
    """Refined argmax of ``objective`` over ``axes`` copies of the grid: the point(s), then the value.

    The objective must return one value per point of the product of the
    axes; a pair objective may return a ``_PairTable``, which is reduced in
    row blocks.  Ties go to the first entry of the value array, which orders
    the product lexicographically, each axis by (radius, angle).
    """
    pts = grid_points(spec)
    vals = objective(*(pts,) * axes)
    factored = isinstance(vals, _PairTable)
    if not factored:
        vals = np.asarray(vals, dtype=float)
    if vals.shape != (pts.size,) * axes:
        raise ConfigError("objective must return one value per grid point or pair")
    if factored:
        idx, value = _pair_argmax(vals)
    else:
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        value = float(vals[idx])
    best, best_val = _refine(objective, tuple(complex(pts[i]) for i in idx), value, spec)
    return (*best, best_val)


def grid_argmax(objective, spec):
    """Deterministic argmax of a nonnegative objective over the polar grid.

    ``objective(pts)`` gets an array of complex points and must return one
    value per point, else ``ConfigError`` is raised.  Ties go to the first
    candidate in (radius, angle) order, and refinement moves only on strict
    improvement.

    Returns
    -------
    (point, value)
    """
    return _argmax(objective, spec, 1)


def grid_argmax_pairs(objective, spec):
    """Deterministic argmax of a pair objective over the product grid.

    ``objective(a_pts, b_pts)`` must return the matrix of values for all
    combinations, or a ``_PairTable`` of them, else ``ConfigError`` is
    raised.  Tie-breaking is lexicographic in the pair, each component
    ordered by (radius, angle).

    Returns
    -------
    (a, b, value)
    """
    return _argmax(objective, spec, 2)


def require_nonzero(energy, what="input signal"):
    """Shared guard for selection routines."""
    if not energy > 0.0:
        raise DegenerateInputError("%s has zero energy" % what)


@dataclass(kw_only=True)
class Step:
    """One step of any decomposition: ``cli.STEP_LAYOUTS`` names the fields each algorithm sets."""

    residual_energy: float
    a: complex | None = None
    b: complex | None = None
    atom: object = None
    coeff: complex | None = None
    block: np.ndarray | None = None
    block_energy: float | None = None
    r: float | None = None
    r_sup: float | None = None


@dataclass
class Record:
    """Ordered steps of a decomposition plus the energy ledger; P-OGA runs set their ``rho``."""

    initial_energy: float
    steps: list[Step] = field(default_factory=list)
    rho: float | None = None

    def residual_energies(self):
        return [s.residual_energy for s in self.steps]

    def params(self):
        return [s.a for s in self.steps]


def greedy(record, n_terms, threshold, step):
    """The iteration of every decomposition: append ``step()`` to ``record.steps``.

    At most ``n_terms`` steps; the run stops once the residual energy (the
    last step's, at first ``record.initial_energy``, which the caller sets
    and must be positive) is at most ``threshold`` times the initial one.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    require_nonzero(record.initial_energy)
    residual = record.initial_energy
    for _ in range(n_terms):
        if residual <= threshold * record.initial_energy:
            break
        record.steps.append(step())
        residual = record.steps[-1].residual_energy
    return record
