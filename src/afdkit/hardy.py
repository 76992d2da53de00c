"""Boundary signals as truncated Fourier coefficients.

Signals on the unit circle (or the 2-torus) are represented canonically by
truncated Fourier coefficient arrays; uniform boundary sample grids are
derived views computed with the FFT.  Under this representation the Hardy
space condition is simply that negative-frequency coefficients vanish, and
all inner products reduce to coefficient dot products by Parseval.

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
    "power_rows",
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


def _spectrum_index(order, hardy, size, ndim):
    """Open-mesh index of the stored frequencies in a ``size``-point FFT spectrum per axis."""
    k = np.arange(0 if hardy else -order, order + 1) % size
    return np.ix_(*[k] * ndim)


class FourierCoeffs:
    """Truncated Fourier coefficients of a boundary signal, one axis per variable.

    ``FourierCoeffs1D`` lives on the circle, ``FourierCoeffs2D`` on the
    2-torus, where the first axis pairs with the variable t and the second
    with s.  Along every axis Hardy instances store ``c_k`` at index ``k``
    for ``k = 0..N``, and full instances store it at ``k + N`` for
    ``k = -N..N``.  Instances are treated as immutable; operations return
    new objects.

    Parameters
    ----------
    data : array_like of complex
        Coefficient array with ``ndim`` equal sides, in the layout above.
    hardy : bool
        Whether the instance represents a Hardy-space signal (no negative
        frequencies stored).
    """

    __slots__ = ("data", "hardy")

    def __init__(self, data, hardy=False):
        data = np.asarray(data, dtype=complex)
        if data.ndim != self.ndim or data.size == 0 or len(set(data.shape)) != 1:
            raise DimensionMismatchError(
                "expected a nonempty %d-d coefficient array with equal sides" % self.ndim
            )
        if not hardy and data.shape[0] % 2 == 0:
            raise DimensionMismatchError(
                "full-range coefficients must have odd side 2N+1, got %d" % data.shape[0]
            )
        self.data = data
        self.hardy = bool(hardy)

    @property
    def order(self):
        """Truncation order N."""
        side = self.data.shape[0]
        return side - 1 if self.hardy else (side - 1) // 2

    @classmethod
    def zeros(cls, order, hardy=False):
        side = order + 1 if hardy else 2 * order + 1
        return cls(np.zeros((side,) * cls.ndim, dtype=complex), hardy=hardy)

    @classmethod
    def from_terms(cls, order, terms, hardy=False):
        """Build coefficients from a ``{frequency: value}`` mapping; a 2-d frequency is a pair."""
        out = cls.zeros(order, hardy=hardy)
        for k, val in terms.items():
            pos = out._position(np.atleast_1d(k))
            if pos is None:
                raise DomainError("frequency %s outside the stored range of order %d" % (k, order))
            out.data[pos] = val
        return out

    def _position(self, k):
        """Array index of the frequency ``k`` (one per axis), None outside the stored range."""
        if len(k) != self.ndim:
            raise DimensionMismatchError("expected %d frequency indices" % self.ndim)
        low = 0 if self.hardy else -self.order
        if not all(low <= x <= self.order for x in k):
            return None
        return tuple(int(x) - low for x in k)

    def get(self, *k):
        """Coefficient c_k, one frequency per axis, zero outside the stored range."""
        pos = self._position(k)
        return 0j if pos is None else complex(self.data[pos])

    def energy(self):
        """Squared norm sum(|c_k|^2)."""
        return float(np.sum(np.abs(self.data) ** 2))

    def norm(self):
        return float(np.sqrt(self.energy()))

    def copy(self):
        return type(self)(self.data.copy(), hardy=self.hardy)

    def to_full(self):
        """Re-embed into the full -N..N layout."""
        if not self.hardy:
            return self.copy()
        n = self.order
        data = np.zeros((2 * n + 1,) * self.ndim, dtype=complex)
        data[(slice(n, None),) * self.ndim] = self.data
        return type(self)(data, hardy=False)

    def boundary_samples(self, size):
        """Samples at t_j = 2 pi j / size on every axis via the inverse FFT."""
        n = self.order
        if size < self.data.shape[0]:
            raise DimensionMismatchError("grid size %d too small for order %d" % (size, n))
        spectrum = np.zeros((size,) * self.ndim, dtype=complex)
        spectrum[_spectrum_index(n, self.hardy, size, self.ndim)] = self.data
        samples = np.fft.ifftn(spectrum)
        # one factor per axis: a single size**ndim rounds differently
        for _ in range(self.ndim):
            samples *= size
        return samples

    @classmethod
    def from_samples(cls, samples, order, hardy=False):
        """FFT of uniform boundary samples, truncated to the given order.

        Exact whenever the sampled signal is bandlimited to ``order`` and the
        grid side is at least ``2*order + 1``; higher content aliases.
        """
        samples = np.asarray(samples)
        if samples.ndim != cls.ndim or len(set(samples.shape)) != 1:
            raise DimensionMismatchError("expected a %d-d sample grid with equal sides" % cls.ndim)
        size = samples.shape[0]
        if size < 2 * order + 1:
            raise DimensionMismatchError(
                "need a grid side of at least %d for order %d, got %d"
                % (2 * order + 1, order, size)
            )
        spectrum = np.fft.fftn(samples) / size**cls.ndim
        return cls(spectrum[_spectrum_index(order, hardy, size, cls.ndim)], hardy=hardy)

    def __add__(self, other):
        self._check_compatible(other)
        return type(self)(self.data + other.data, hardy=self.hardy)

    def __sub__(self, other):
        self._check_compatible(other)
        return type(self)(self.data - other.data, hardy=self.hardy)

    def __mul__(self, scalar):
        return type(self)(self.data * complex(scalar), hardy=self.hardy)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, type(self)):
            raise TypeError("expected %s" % type(self).__name__)
        if other.order != self.order or other.hardy != self.hardy:
            raise DimensionMismatchError("mixed truncation orders or layouts")

    def __repr__(self):
        return "%s(order=%d, hardy=%s)" % (type(self).__name__, self.order, self.hardy)


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

    By Parseval this equals the boundary mean of f conj(g).  Operands in
    different layouts are compared in the full layout.
    """
    if f.order != g.order:
        raise DimensionMismatchError(
            "mismatched truncation orders %d and %d" % (f.order, g.order)
        )
    if f.hardy != g.hardy:
        f, g = f.to_full(), g.to_full()
    return complex(np.vdot(g.data, f.data))


inner_product_2d = inner_product_1d


def _require_real(f, caller):
    """Reject coefficients that are not full-range or fail c_{-k} = conj(c_k) beyond 1e-9 (relative).

    ``np.flip`` reverses every axis, so one check serves both dimensions.
    """
    if f.hardy:
        raise DomainError("%s expects full-range coefficients" % caller)
    scale = max(1.0, float(np.max(np.abs(f.data))))
    if np.max(np.abs(f.data - np.conj(np.flip(f.data)))) > 1e-9 * scale:
        raise DomainError("coefficients are not Hermitian symmetric (signal not real)")


def analytic_part(f):
    """Project a real-valued signal onto its analytic (Hardy) part.

    Keeps the coefficients with k >= 0, which realizes (f + iHf)/2 + c_0/2.
    The original signal is recovered on the grid as 2 Re f^+ - c_0.

    Raises
    ------
    DomainError
        If the input is not in the full layout or the coefficients fail the
        Hermitian symmetry c_{-k} = conj(c_k) beyond 1e-9 (relative).
    """
    _require_real(f, "analytic_part")
    n = f.order
    return FourierCoeffs1D(f.data[n:].copy(), hardy=True)


def quadrant_split(f):
    """Hardy parts of a real signal on the 2-torus, copied from its full-range coefficients.

    Raises ``DomainError`` as ``analytic_part`` does.
    """
    _require_real(f, "quadrant_split")
    n, d = f.order, f.data
    return QuadrantParts(
        pp=FourierCoeffs2D(d[n:, n:].copy(), hardy=True),
        pm=FourierCoeffs2D(d[n:, n::-1].copy(), hardy=True),
        F=FourierCoeffs1D(d[n:, n].copy(), hardy=True),
        G=FourierCoeffs1D(d[n, n:].copy(), hardy=True),
        c00=complex(d[n, n]),
    )


def real_field_2d(parts, size):
    """Real field of ``QuadrantParts`` on a ``size`` x ``size`` boundary grid.

    Evaluates  2 Re{f^{++}}(t, s) + 2 Re{[f(., -.)]^{++}}(t, -s)
    - 2 Re{F^+}(t) - 2 Re{G^+}(s) + Re c00, so it inverts
    ``quadrant_split`` on grids of side at least 2N+1.  The parts may have
    different orders.  All four share one spectrum, each at its own
    frequencies: ``pp`` at (k, l), ``pm`` at (k, -l mod size), ``F`` at
    (k, 0) and ``G`` at (0, l); one inverse FFT then gives their sum.
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
    samples = np.fft.ifft2(spectrum)
    # one factor per axis, as in ``boundary_samples``
    samples *= size
    samples *= size
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


def power_rows(points, order):
    """Rows ``points[i] ** k`` for k = 0..order.

    A Hardy coefficient vector evaluates at interior points as the product
    with these rows.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    return pts[:, None] ** np.arange(order + 1)[None, :]


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
    return np.sqrt(1.0 - np.abs(pts) ** 2)[:, None] * power_rows(pts, order)


@functools.lru_cache(maxsize=4)
def _grid_kernel_rows(spec, order):
    rows = kernel_rows(grid_points(spec), order)
    rows.flags.writeable = False
    return rows


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


# Most rows of a pair table scored at once, rows scored in full to seed the
# bounds, and the rank of the basis that screens a table without gains.  A
# reduction keeps one workspace of 24 bytes per pair of a block, 3.5 MB at
# the bench grid's P = 1,153 points against 31.9 MB for the dense table and
# its product.  The seed rows score about 3% of the pairs; on the bench
# images (seeds 0-19) they hold every row the screen leaves, a median of 2.
PAIR_BLOCK = 128
PAIR_SEEDS = 32
PAIR_MARGIN = 1e-9
PAIR_RANK = 16


def _row_blocks(n):
    """Slices that split ``n`` rows evenly into blocks of at most ``PAIR_BLOCK`` rows.

    Fixed blocks would leave a one-row tail at n = 1,153 (the bench grid),
    and BLAS multiplies one row by its matrix-vector path, whose rounding
    differs from the full product's; blocks of more rows keep its bits.
    Even blocks hold at least 64 rows once there are two.
    """
    count = -(-n // PAIR_BLOCK)
    return [slice(n * k // count, n * (k + 1) // count) for k in range(count)]


class _PairTable:
    """Values of a pair objective over two point sets, held as factors.

    Entry (i, j) is ``|Ka[i] M Kb[j]^T|``, or ``|Ka[i] M Kb[j]^T|^2 +
    gains[0][i] + gains[1][j]`` when ``gains`` are given.  ``np.asarray``
    gives the dense table through the operations of a direct evaluation, so
    bit for bit; ``_pair_argmax`` reduces the table without allocating it.
    ``block`` keeps those bits for two or more rows over all the columns.
    A subset of the columns can round differently: random column subsets
    of the bench grid's tables did in 43-47 of 60 trials.  ``norms_sq``
    holds the squared row norms of ``Ka`` and of ``Kb``, whose products are
    those of the pair atoms; they are computed unless given.
    """

    def __init__(self, rows_a, middle, rows_b, gains=None, norms_sq=None):
        self.rows_a, self.middle, self.rows_b, self.gains = rows_a, middle, rows_b, gains
        self.norms_sq = norms_sq or tuple(np.sum(np.abs(rows) ** 2, axis=1) for rows in (rows_a, rows_b))
        self.left = rows_a @ middle
        self.shape = (rows_a.shape[0], rows_b.shape[0])

    def block(self, rows=slice(None), cols=slice(None), work=None):
        """The dense values of the rows by the columns given.

        The complex product and the values go into ``work``, a float array
        of at least 3 entries per value, allocated when not given.
        """
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
        return table

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.block(), dtype=dtype)

    def bounds(self):
        """Upper bounds of the values in each row and in each column of a table with gains.

        By Cauchy-Schwarz ``|Ka[i] M Kb[j]^T|^2`` is at most
        ``|Ka[i] M|^2 |Kb[j]|^2`` and at most ``|Ka[i]|^2 |M Kb[j]^T|^2``.
        A row bound takes the largest ``|Kb[j]|^2`` and the largest column
        gain, a column bound the other way round.  Both are inflated by the
        relative ``PAIR_MARGIN``, far above the ~1e-15 relative rounding of
        either side.
        """
        gain_a, gain_b = self.gains
        norm_a, norm_b = (norms.max() for norms in self.norms_sq)
        rows = np.sum(np.abs(self.left) ** 2, axis=1) * norm_b + gain_a + gain_b.max()
        cols = np.sum(np.abs(self.rows_b @ self.middle.T) ** 2, axis=1) * norm_a + gain_b + gain_a.max()
        return rows * (1.0 + PAIR_MARGIN), cols * (1.0 + PAIR_MARGIN)

    def screen(self, work):
        """Upper bounds of the values in each row of a table without gains, their tails and W.

        For x = ``left[i]``, y = ``Kb[j]^T`` and any W with orthonormal
        columns, entry (i, j) is the head (x W)(W^H y) plus a tail of at most
        |x W_perp| |W_perp^H y|, whose squares are |x|^2 - |x W|^2 and
        |y|^2 - |W^H y|^2; W sets only how tight the bound is.  W is the QR
        basis of M^H M Z, Z the conjugated q = min(``PAIR_RANK``, N + 1) rows
        of M of largest norm, with M and x scaled by the power of two above
        max|M|.  The head is formed in complex64 per block of rows in ``work``
        (a workspace of ``block``), each row keeping its maximum, plus the
        float32 rounding (q + 16) 2^-24 (|x| max|y| + 2^-100) of the casts,
        products and ``abs`` (2^-100 for underflow).  eps = (N + 1) 2^-40
        times |x|^2 and |y|^2 raises both differences, for their cancellation
        and W's departure from orthonormality, whose cross term adds
        eps |x| max|y|.  All None, to score every row, when max|M| is zero,
        not finite or outside 2^-500..2^500.
        """
        top = np.abs(self.middle).max()
        if not 2.0**-500 < top < 2.0**500:
            return None, None, None
        unit = 2.0 ** np.frexp(top)[1]
        middle = self.middle / unit
        q, eps = min(PAIR_RANK, middle.shape[0]), 2.0**-40 * middle.shape[0]
        z = middle[np.argsort(np.sum(np.abs(middle) ** 2, axis=1))[-q:]].conj().T
        basis = np.linalg.qr(middle.conj().T @ (middle @ z))[0]
        y = self.rows_b @ basis.conj()
        sq_b = self.norms_sq[1]
        tail_b = np.sqrt(np.maximum(sq_b - np.sum(np.abs(y) ** 2, axis=1), 0.0) + eps * sq_b).max()
        yt = y.T.astype(np.complex64)
        n, m = self.shape
        head = (self.left @ basis).view(np.float64) / unit
        head32 = head.astype(np.float32).view(np.complex64)
        peak, sq_a = np.empty(n, dtype=np.float32), np.empty(n)
        for blk in _row_blocks(n):
            x = self.left[blk].view(np.float64) / unit
            sq_a[blk] = np.einsum("ij,ij->i", x, x)
            size = x.shape[0] * m
            product = np.matmul(head32[blk], yt, out=work[:size].view(np.complex64).reshape(-1, m))
            values = np.abs(product, out=work[size:].view(np.float32)[:size].reshape(product.shape))
            np.max(values, axis=1, out=peak[blk])
        diff_a = sq_a - np.einsum("ij,ij->i", head, head)
        tail = np.sqrt(np.maximum(diff_a, 0.0) + eps * sq_a) * tail_b
        reach = np.sqrt(sq_a * sq_b.max())
        allowance = (q + 16) * 2.0**-24 * (reach + 2.0**-100) + eps * reach
        return unit * (peak + allowance + tail), unit * tail, basis


def _kernel_table(block, a_pts, b_pts, grid, single=None):
    """``|K_a block K_b^T|`` over all point pairs, K the ``kernel_rows`` of each axis.

    Entry (a, b) is |<g, e_a (x) e_b>|, g the power series of ``block``.
    The single-axis matrices (Ga, Gb) of afd2d-tm add the gains
    ``|K_a Ga|^2`` and ``|K_b Gb|^2`` to the squared entries.  On the grid
    the rows and their squared norms are the cached ones.
    """
    order = block.shape[0] - 1
    rows_a, rows_b = kernel_rows(a_pts, order, grid), kernel_rows(b_pts, order, grid)
    gains = norms = None
    if single is not None:
        gains = tuple(np.sum(np.abs(rows @ G) ** 2, axis=1) for rows, G in zip((rows_a, rows_b), single))
    if _on_grid(a_pts, grid) and _on_grid(b_pts, grid):
        norms = (_grid_kernel_norms_sq(grid, order),) * 2
    return _PairTable(rows_a, block, rows_b, gains, norms)


def _pair_argmax(table):
    """Index pair and value of the first maximum of a ``_PairTable`` in (row, column) order.

    Rows are scored in the blocks of ``_row_blocks`` in one workspace, and
    the running best moves on a larger value, or on an equal one at an
    earlier pair.  So no table of all pairs is allocated, and ties go to the
    first pair, as ``np.argmax`` of the dense table gives them.  Every row
    first gets an upper bound, from ``bounds`` for a table with gains (which
    also bounds each column) and from ``screen`` otherwise, and the
    ``PAIR_SEEDS`` rows with the largest bounds (every row, when at most one
    other is left) are scored in full.  Another row or column whose bound is
    below their maximum holds only values strictly below the table's, so it
    is left out and cannot change the tie-break; no row is scored twice.  A
    lone row left gets a neighbour that is not a seed, as BLAS would score
    it alone by its matrix-vector path.  Whole rows keep the dense bits, so
    a table without gains gives the dense ``np.argmax`` and its value bit
    for bit; afd2d-tm's rectangles of rows by columns matched them at all
    120 bench steps, but need not.
    """
    n, m = table.shape
    row_bound, col_bound = table.bounds() if table.gains is not None else (None, None)
    # allocated once the temporaries of ``bounds`` are freed; the screen needs it
    work = np.empty(3 * min(PAIR_BLOCK, n) * m)
    if table.gains is None:
        row_bound = table.screen(work)[0]
    rows, cols, best = np.arange(n), slice(None), None
    if row_bound is not None:
        seeds = np.sort(np.argsort(row_bound)[-PAIR_SEEDS:]) if n > PAIR_SEEDS + 1 else rows
        values = table.block(seeds, work=work)
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        best = (int(seeds[i]), int(j)), float(values[i, j])
        rest = np.delete(rows, seeds)
        rows = rest[row_bound[rest] >= best[1]]
        if col_bound is not None:
            cols = np.flatnonzero(col_bound >= best[1])
        if rows.size == 1:
            start = min(int(np.searchsorted(rest, rows[0])), rest.size - 2)
            rows = rest[start : start + 2]
    col_ids = np.arange(m)[cols]
    for blk in _row_blocks(rows.size):
        values = table.block(rows[blk], cols, work)
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        pair, value = (int(rows[blk][i]), int(col_ids[j])), float(values[i, j])
        if best is None or value > best[1] or value == best[1] and pair < best[0]:
            best = pair, value
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
