"""Pre-orthogonal greedy algorithm over parameterized dictionaries.

Classical orthogonal greedy selection scores a candidate atom by its raw
inner product with the remainder and orthogonalizes afterwards.  The
pre-orthogonal variant orthogonalizes first: a candidate a is scored by
|<g_n, B_n^a>| where B_n^a completes the current orthonormal frame by the
Gram-Schmidt step on a, which equals |<g_n, a>| / r_n(a) with
r_n(a) = ||Q_{n-1}(a)|| the projection-residual norm.  Scoring therefore
always dominates the raw inner product, and candidates that fall inside the
frame span (r_n = 0) escalate to the next multiplicity order at the same
parameter, which realizes the derivative-closure of the dictionary without
numerical differentiation.

A weak variant accepts any candidate within a factor rho of the supremal
gain; among qualifying candidates the one with the smallest r is taken,
which keeps the rate constant small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    SpanDegeneracyError,
)
from .hardy import (
    PAIR_SEEDS, FourierCoeffs, Record, Step, _kernel_table, _row_blocks, eval_series, greedy, grid_points,
    require_nonzero,
)
from .szego import AtomSpec, TensorAtomSpec, normalized_atom_coeffs, tensor_atom_coeffs

__all__ = [
    "EPS_SPAN",
    "OrthoFrame",
    "SelectionOutcome",
    "SzegoDictionary1D",
    "ProductSzegoDictionary2D",
    "poga_decompose",
    "reconstruct_poga",
    "RateRow",
    "RateReport",
    "rate_report",
]

EPS_SPAN = 1e-8
R2_SPAN = 1e-16  # the least double whose square root is at least EPS_SPAN: r^2 < R2_SPAN iff r < EPS_SPAN
RATE_EXCESS = 1e-9  # rounding allowance of every inequality ``rate_report`` checks


def _as_vector(x):
    if isinstance(x, FourierCoeffs):
        return x.data.ravel()
    return np.asarray(x, dtype=complex).ravel()


class OrthoFrame:
    """Orthonormal vectors built by Gram-Schmidt from selected atoms.

    The classical step runs twice per extension (one refinement pass), which
    keeps the frame orthonormal to machine precision even for near-parallel
    kernels; a full re-orthogonalization kicks in should the Gram defect
    ever exceed 1e-9.
    """

    def __init__(self, dim):
        self.dim = int(dim)
        self.matrix = np.zeros((0, self.dim), dtype=complex)
        self.specs = []
        self.reorthogonalizations = 0  # each call rewrites rows that scans may have cached

    def __len__(self):
        return self.matrix.shape[0]

    def project_residual(self, x):
        """Q(x) = x - sum <x, B_k> B_k and its norm."""
        x = _as_vector(x)
        if x.size != self.dim:
            raise DimensionMismatchError(
                "vector length %d does not match frame dimension %d" % (x.size, self.dim)
            )
        res = x - (np.conj(self.matrix) @ x) @ self.matrix
        return res, float(np.linalg.norm(res))

    def extend(self, x, spec=None):
        """Append the normalized Gram-Schmidt residual of x.

        Returns (new basis vector, r) where r is the residual norm before
        normalization.  Raises SpanDegeneracyError when x is numerically in
        the current span.
        """
        res, r = self.project_residual(x)
        if r < EPS_SPAN:
            raise SpanDegeneracyError("atom lies in the span of the frame", r=r)
        res = res - (np.conj(self.matrix) @ res) @ self.matrix
        norm = float(np.linalg.norm(res))
        vec = res / norm
        self.matrix = np.vstack([self.matrix, vec])
        self.specs.append(spec)
        if self.gram_defect() > 1e-9:
            self.reorthogonalize()
        return self.matrix[-1], r

    def gram_defect(self):
        if len(self) == 0:
            return 0.0
        gram = np.conj(self.matrix) @ self.matrix.T
        return float(np.max(np.abs(gram - np.eye(len(self)))))

    def reorthogonalize(self):
        """Sequential double Gram-Schmidt pass over the existing basis."""
        self.reorthogonalizations += 1
        for k in range(len(self)):
            v = self.matrix[k]
            for _ in range(2):
                if k:
                    head = self.matrix[:k]
                    v = v - (np.conj(head) @ v) @ head
            self.matrix[k] = v / np.linalg.norm(v)


@dataclass
class ScanState:
    """What a dictionary scan keeps between the steps of one run on one frame.

    ``r_sq`` is the unclipped squared residual norm of every base atom
    after the first ``rows`` frame rows were subtracted, valid while the
    frame has been re-orthogonalized ``epoch`` times.  Inner products with
    the remainder are not kept: a scan computes them afresh.  ``atoms``
    holds the vectors of the escalated and selected atoms built so far, by
    spec, since a vector depends on its spec alone.
    """

    r_sq: np.ndarray | None = None
    rows: int = 0
    epoch: int = 0
    atoms: dict = field(default_factory=dict)

    def new_rows(self, frame, norms_sq):
        """Frame rows not yet subtracted from ``r_sq``, which restarts at ``norms_sq()``.

        A fresh state or a re-orthogonalized frame starts the sum over.
        """
        if self.r_sq is None or self.epoch != frame.reorthogonalizations:
            self.r_sq = norms_sq()
            self.rows = 0
            self.epoch = frame.reorthogonalizations
        rows = range(self.rows, len(frame))
        self.rows = len(frame)
        return rows

    def atom(self, dictionary, spec):
        """``dictionary.atom_vector(spec)``, built once per state."""
        if spec not in self.atoms:
            self.atoms[spec] = dictionary.atom_vector(spec)
        return self.atoms[spec]


class _Reduction:
    """What a weak selection with factor ``rho`` needs of a scan, reduced block by block.

    ``span`` takes the squared residual norms r_i^2 of the base atoms from
    index ``start`` on, for every block in ascending order.  It keeps the
    largest r (``sup_r``) and the degenerate indices, those with
    r^2 < R2_SPAN, so r < EPS_SPAN, and the ``excluded`` base indices.
    ``add`` takes the inner products |<g, atom_i>| and r^2 of spanned
    blocks in ascending order, which may leave out entries below the final
    floor.  In block-sized buffers it forms r = sqrt(max(r^2, 0)) and the
    gain |<g, atom_i>| / r, -inf where degenerate.  It keeps the top gain
    of the usable atoms (``top``, -inf while there is none) and in ``kept``
    the index, gain and r of the entries whose gain is at least rho times
    the running top and above that of every entry before them in (r, index)
    order, in that order, so with rising gains: an entry with no more gain
    than an earlier one is never the first to reach a floor.  The final
    floor rho * sup_gain is at least every running floor, so the first kept
    entry at or above it is the first qualifying base atom by (r, index),
    with the bits a whole-table reduction gives it.
    """

    def __init__(self, rho, excluded=()):
        self.rho = rho
        self.excluded = np.array(sorted(excluded), dtype=np.intp)
        self.sup_r = 0.0
        self.top = -np.inf
        self.degenerate = []
        self.kept = (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0))
        self.end = 0  # index after the last entry kept

    def span(self, start, r_sq):
        """Take in the degenerate entries and the largest r of one block; returns its degenerate mask."""
        degenerate = r_sq < R2_SPAN
        lo, hi = np.searchsorted(self.excluded, (start, start + r_sq.size))
        degenerate.flat[self.excluded[lo:hi] - start] = True
        self.sup_r = max(self.sup_r, float(np.sqrt(max(0.0, np.max(r_sq)))))
        self.degenerate.append(start + np.flatnonzero(degenerate))
        return degenerate

    def add(self, start, inner, r_sq):
        """Reduce one block of flat ``inner`` (overwritten by the gains) and ``r_sq`` values."""
        if start < self.end:
            raise ValueError("blocks must come in ascending index order")
        self.end = start + r_sq.size
        r = np.maximum(r_sq, 0.0)
        np.sqrt(r, out=r)
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.divide(inner, r, out=inner)
        degenerate = np.concatenate(self.degenerate)
        lo, hi = np.searchsorted(degenerate, (start, self.end))
        gain[degenerate[lo:hi] - start] = -np.inf  # never qualifies
        top = int(np.argmax(gain))
        self.top = max(self.top, float(gain[top]))
        if self.top > -np.inf:
            floor = self.rho * self.top
            new = np.flatnonzero(gain >= floor)
            # cheap passes first: the block's top entry has at least the gain
            # of the block entries after it by (r, index), and the last kept
            # entry at or before an r the most gain of the kept ones there
            new = new[(r[new] < r[top]) | ((r[new] == r[top]) & (new <= top))]
            _, gains, rs = self.kept
            # 8 kept entries first, each rejecting the entries at or above its r with no more gain
            keep, r_new, gain_new = np.ones(new.size, dtype=bool), r[new], gain[new]
            for i in np.linspace(0, rs.size - 1, 8).astype(np.intp) if rs.size else ():
                keep &= (r_new < rs[i]) | (gain_new > gains[i])
            new, r_new, gain_new = new[keep], r_new[keep], gain_new[keep]
            new = new[np.concatenate(([-np.inf], gains))[np.searchsorted(rs, r_new, side="right")] < gain_new]
            old = gains >= floor
            index, gains, rs = (
                np.concatenate((kept[old], fresh)) for kept, fresh in zip(self.kept, (start + new, gain[new], r[new]))
            )
            order = np.lexsort((index, rs))
            ahead = np.maximum.accumulate(np.concatenate(([-np.inf], gains[order[:-1]])))
            order = order[gains[order] > ahead]
            self.kept = index[order], gains[order], rs[order]


@dataclass(frozen=True)
class SelectionOutcome:
    """A scored candidate: its spec, residual norm r, and gain |<g, B^a>|."""

    atom: object
    r: float
    gain: float


class SzegoDictionary1D:
    """Complete kernel dictionary on the disc, parameterized by a polar grid.

    Supplies unit-norm atom vectors for (parameter, order) pairs, a batched
    scan of all base atoms, and the multiplicity-escalation rule.
    """

    def __init__(self, order, grid):
        self.order = int(order)
        self.grid = grid
        self.params = grid_points(grid)

    @cached_property
    def _weights(self):
        """Normalizing factors sqrt(1-|a|^2) of the unit kernels, one per grid point."""
        return np.sqrt(1.0 - np.abs(self.params) ** 2)

    def _norms_sq(self):
        """Squared norms 1-|a|^(2N+2) of the truncated base atoms."""
        return 1.0 - np.abs(self.params) ** (2 * self.order + 2)

    @property
    def dim(self):
        return self.order + 1

    def __len__(self):
        return self.params.size

    def base_spec(self, i):
        return AtomSpec(complex(self.params[i]), 1)

    def base_index(self, spec):
        """Grid index of a first-order spec, None for anything else: the nearest point on the nearest ring, if equal."""
        if getattr(spec, "m", None) != 1:
            return None
        return self._grid_index(complex(spec.a))

    def _grid_index(self, a):
        """``base_index`` of the parameter ``a``; the point of a ring at angle 0 is its radius."""
        m = self.grid.angular_count
        start = 1 + int(np.argmin(np.abs(self.params[1::m].real - abs(a)))) * m if a else 0
        i = start + int(np.argmin(np.abs(self.params[start : start + m] - a)))
        return i if self.params[i] == a else None

    def atom_vector(self, spec):
        return normalized_atom_coeffs(spec, self.order).data.copy()

    def escalations(self, spec):
        """The next rung at ``spec.a``, none above order + 1: rungs 1..order + 1 span the truncated space."""
        return [AtomSpec(spec.a, spec.m + 1)] if spec.m <= self.order else []

    def _inner_r_sq(self, g, frame, state):
        """(|<g, atom_i>|, r_i^2) for every base atom against the frame.

        The base atom at a is w conj(a)^k with w = sqrt(1-|a|^2), so
        <g, atom> = w g(a) and its projection on a frame row B is
        w conj(B(a)): every value is one power series on the grid
        (``eval_series``).  Only the frame rows added since the last call
        with ``state`` are evaluated and subtracted from r^2, in the order a
        full recomputation would use, so both give the same bits.
        """
        w = self._weights
        inner = w * np.abs(eval_series(_as_vector(g), self.params, self.grid))
        for j in state.new_rows(frame, self._norms_sq):
            state.r_sq -= (w * np.abs(eval_series(frame.matrix[j], self.params, self.grid))) ** 2
        return inner, state.r_sq

    def scan(self, g, frame, reduction, state):
        """Feed every base atom's ``_inner_r_sq`` values to ``reduction`` as one block.

        Returns (r^2, reduction), r^2 one entry per base atom.
        """
        inner, r_sq = self._inner_r_sq(g, frame, state)
        reduction.span(0, r_sq)
        reduction.add(0, inner, r_sq)
        return r_sq, reduction


class ProductSzegoDictionary2D:
    """Complete tensor-kernel dictionary on the 2-torus.

    Base atoms are tensor products of unit kernels over all pairs of grid
    points; escalation raises one factor's order at a time.
    """

    def __init__(self, order, grid):
        self.order = int(order)
        self.grid = grid
        self.params = grid_points(grid)

    _grid_index = SzegoDictionary1D._grid_index

    @property
    def dim(self):
        return (self.order + 1) ** 2

    def __len__(self):
        return self.params.size ** 2

    def base_spec(self, i):
        n = self.params.size
        ia, ib = divmod(int(i), n)
        return TensorAtomSpec.of(complex(self.params[ia]), complex(self.params[ib]))

    def base_index(self, spec):
        """Flat pair index of a first-order tensor spec, None otherwise."""
        if spec.left.m != 1 or spec.right.m != 1:
            return None
        ia, ib = self._grid_index(complex(spec.left.a)), self._grid_index(complex(spec.right.a))
        if ia is None or ib is None:
            return None
        return ia * self.params.size + ib

    def atom_vector(self, spec):
        return tensor_atom_coeffs(spec, self.order).data.ravel()

    def escalations(self, spec):
        """One factor's next rung at a time, none above order + 1 (see ``SzegoDictionary1D``)."""
        up = SzegoDictionary1D.escalations
        return [TensorAtomSpec(s, spec.right) for s in up(self, spec.left)] + [
            TensorAtomSpec(spec.left, s) for s in up(self, spec.right)
        ]

    def scan(self, g, frame, reduction, state):
        """Feed the pairs of grid points that can qualify, row-major, to ``reduction`` in row blocks.

        The ``PAIR_SEEDS`` rows of largest ``_bounds`` bound (ring majorant
        or screen) are scored for a top gain.  Each block hands
        ``reduction.add`` its rows from the first to the last that can reach
        rho times it, with the bits of the whole product (``_PairTable.block``).
        Returns (r^2, reduction), r^2 one entry per pair.
        """
        n = self.params.size
        table, bound, work = self._bounds(g, frame, reduction, state)
        live = np.ones(n, dtype=bool)
        if bound is not None:
            seeds = np.sort(np.argsort(bound)[-PAIR_SEEDS:])
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = table.block(seeds, work=work) / np.sqrt(np.maximum(state.r_sq[seeds], 0.0))
            rows, cols = np.divmod(np.concatenate(reduction.degenerate), n)
            hit = np.isin(rows, seeds)
            gains[np.searchsorted(seeds, rows[hit]), cols[hit]] = -np.inf
            floor = reduction.rho * gains.max()
            live = bound >= floor
            live[seeds] = gains.max(axis=1) >= floor
        for blk in _row_blocks(n):
            rows = blk.start + np.flatnonzero(live[blk])
            if rows.size:
                span = slice(rows[0], rows[-1] + 1)
                reduction.add(span.start * n, table.block(span, work=work).ravel(), state.r_sq[span].ravel())
        return state.r_sq.ravel(), reduction

    def _bounds(self, g, frame, reduction, state):
        """The first pass of ``scan``: (the remainder's table, row bounds or None, the workspace).

        With K the grid's kernel rows, the table |K G K^T| of
        ``hardy._kernel_table`` holds the inner products, and frame row B_j
        removes the square of |K B_j K^T| from r^2, which starts at the
        products n_a n_b of the squared row norms n of K.  In the blocks of
        ``_row_blocks``, the frame rows added since the last call leave the
        r^2 a ``ScanState`` keeps, in the order a full recomputation would
        use, and r^2 goes to ``reduction.span``; r^2 is the only array held
        for all pairs.  With no frame rows the gains of row a are at most its
        inflated ring majorant (``_PairTable.bounds``) over sqrt(n_a min n),
        which rounds no lower.  Else the screen (``_PairTable.heads``) bounds
        entry (a, b) by unit (|h_ab| + s_a), so a usable pair of row a has a
        gain of at most unit (sqrt(max_b |h_ab|^2 / r_ab^2) + s_a /
        sqrt(min_b r_ab^2)), formed in float32 with 2^-60 added to s_a for
        |h| whose square underflows and inflated by 2^-18 for the rounding.
        No bounds without a screen.
        """
        side, pts, n = self.order + 1, self.params, self.params.size
        table = _kernel_table(_as_vector(g).reshape(side, side), pts, pts, self.grid)
        frame_tables = [
            _kernel_table(frame.matrix[j].reshape(side, side), pts, pts, self.grid)
            for j in state.new_rows(frame, lambda: np.outer(*table.norms_sq))
        ]
        blocks = _row_blocks(n)
        work = np.empty(3 * max(blk.stop - blk.start for blk in blocks) * n)
        screen = table.heads() if len(frame) else None
        peak, least = np.empty((2, n), dtype=np.float32)  # max |h|^2 / r^2 and min r^2 of each row
        for blk in blocks:
            r_sq = state.r_sq[blk]
            for frame_table in frame_tables:
                square = frame_table.block(blk, work=work)
                r_sq -= np.square(square, out=square)
            degenerate = reduction.span(blk.start * n, r_sq)
            if screen is not None:
                head = screen[-1](blk, work)
                r_sq32, values = work[head.size :].view(np.float32)[: 2 * head.size].reshape(2, *head.shape)
                np.copyto(r_sq32, r_sq, casting="same_kind")
                np.copyto(r_sq32, np.inf, where=degenerate)
                np.square(np.abs(head, out=values), out=values)
                np.max(np.divide(values, r_sq32, out=values), axis=1, out=peak[blk])
                np.min(r_sq32, axis=1, out=least[blk])
        if not len(frame):
            return table, table.bounds()[0] / np.sqrt(table.norms_sq[0] * table.norms_sq[0].min()), work
        if screen is None:
            return table, None, work
        unit, _, _, slack, _ = screen
        bound = unit * (np.sqrt(peak) + (slack + 2.0**-60) / np.sqrt(least.astype(float)))
        return table, bound * (1.0 + 2.0**-18), work


def _escalated_candidates(dictionary, spec, selected):
    """Walk the multiplicity ladder until specs leave the frame span.

    Returns the frontier of escalations of ``spec`` not in ``selected``,
    the set of the frame's specs, empty when the ladder ends inside it; for
    tensor dictionaries both single-factor raises are explored, keeping the
    search breadth-first and deduplicated.
    """
    out, seen, frontier = [], {spec}, [spec]
    while frontier:
        nxt = []
        for s in frontier:
            for cand in dictionary.escalations(s):
                if cand in seen:
                    continue
                seen.add(cand)
                if cand in selected:
                    nxt.append(cand)
                else:
                    out.append(cand)
        frontier = nxt
    return out


def _select(g, frame, dictionary, rho, state=None):
    """Pre-orthogonal (weak) maximal selection, the step of poga_decompose.

    The dictionary scan feeds a ``_Reduction`` block by block.  The
    already-selected base atoms are forced degenerate: they are in the span
    by construction, whatever the cancellation-limited scan residual says.
    ``_reduce`` picks the winner.  A winning base atom is confirmed against
    the frame directly: if its residual is below EPS_SPAN after all, it is
    forced degenerate too and the scan runs again; the state then has no
    new frame rows, so only the remainder's table is recomputed.  ``state``
    (a fresh one when not given) goes to the scan and holds the atom
    vectors.  Returns (outcome, sup_gain, sup_r_grid).
    """
    g = _as_vector(g)
    require_nonzero(float(np.linalg.norm(g)) ** 2, "greedy remainder")
    state = ScanState() if state is None else state
    excluded = {dictionary.base_index(s) for s in frame.specs if s is not None} - {None}
    while True:
        _, reduction = dictionary.scan(g, frame, _Reduction(rho, excluded), state)
        (r_sel, gain, spec), sup_gain, index = _reduce(g, frame, dictionary, reduction, state)
        if index is None or frame.project_residual(state.atom(dictionary, spec))[1] >= EPS_SPAN:
            return SelectionOutcome(atom=spec, r=r_sel, gain=gain), sup_gain, reduction.sup_r
        excluded.add(index)


def _reduce(g, frame, dictionary, reduction, state):
    """Winner among the usable base atoms and the escalations of the degenerate ones.

    Base atoms rank by (r, grid index), as the scan's ``reduction`` keeps
    them, and escalated candidates after all of them in the order they are
    generated, from the degenerate base atoms in ascending order; the
    winner is the first qualifying candidate in that order.
    Escalated atom vectors come from ``state``; their residuals are
    computed against the current frame.  An escalation in the span climbs
    its ladder for at most ``len(frame)`` rungs, never past its end: the
    rungs of one ladder are independent, so more of them than the frame has
    rows cannot all lie in its span, and a ladder that tests so anyway is at
    the rounding floor of the test and counts as in the span.
    Returns ((r, gain, spec), sup_gain, grid index of a base winner or None).
    """
    escalated = []  # (r, gain, spec) in generation order
    selected = set(s for s in frame.specs if s is not None)
    for i in np.concatenate(reduction.degenerate):
        for esc in _escalated_candidates(dictionary, dictionary.base_spec(i), selected):
            for _ in range(len(frame)):
                vec = state.atom(dictionary, esc)
                _, r_esc = frame.project_residual(vec)
                if r_esc >= EPS_SPAN:
                    escalated.append((float(r_esc), abs(complex(np.vdot(vec, g))) / r_esc, esc))
                    break
                higher = _escalated_candidates(dictionary, esc, selected)
                if not higher:
                    break
                esc = higher[0]

    usable = reduction.top > -np.inf
    if not usable and not escalated:
        raise DegenerateInputError("no usable candidate atom on the grid")

    sup_gain = max([c[1] for c in escalated] + ([reduction.top] if usable else []))
    floor = reduction.rho * sup_gain
    best, index = None, None  # (r, gain, spec) of the first qualifying candidate by r
    indices, gains, r = reduction.kept
    qualifying = np.flatnonzero(gains >= floor)
    if qualifying.size:
        k = int(qualifying[0])
        index = int(indices[k])
        best = (float(r[k]), float(gains[k]), dictionary.base_spec(index))
    for cand in escalated:
        if cand[1] >= floor and (best is None or cand[0] < best[0]):
            best, index = cand, None
    return best, sup_gain, index


def poga_decompose(
    f,
    n_terms,
    dictionary,
    rho=1.0,
    synthesis=None,
    threshold=1e-12,
):
    """Pre-orthogonal greedy decomposition.

    Each step of ``hardy.greedy`` extends the orthonormal frame and the
    orthogonal remainder g_{n+1} = g_n - <g_n, B_n> B_n, so the ledger
    ||f||^2 = sum |coeff_k|^2 + ||g||^2 is exact.  When ``synthesis`` (a
    list of atom specs known to represent f) is given, the per-step
    supremal residual norm is taken over those atoms, which is the constant
    entering the convergence-rate bound; otherwise the grid supremum is
    recorded.

    It stops after ``dictionary.dim`` steps, which span the space.  Returns
    the record; its atoms replay the frame through ``OrthoFrame.extend``, as
    ``reconstruct_poga`` does.
    """
    if not 0.0 < rho <= 1.0:
        raise DomainError("rho must lie in (0, 1]")
    if synthesis is not None and not len(synthesis):
        raise DomainError("synthesis needs at least one atom")
    g = _as_vector(f)
    frame = OrthoFrame(g.size)
    synth_vectors = None if synthesis is None else [dictionary.atom_vector(s) for s in synthesis]
    state = ScanState()

    def step():
        nonlocal g
        outcome, _, sup_r_grid = _select(g, frame, dictionary, rho, state)
        if synth_vectors is not None:
            r_sup = max(frame.project_residual(v)[1] for v in synth_vectors)
        else:
            r_sup = sup_r_grid
        basis_vec, _ = frame.extend(state.atom(dictionary, outcome.atom), spec=outcome.atom)
        coeff = complex(np.vdot(basis_vec, g))
        g = g - coeff * basis_vec
        return Step(atom=outcome.atom, coeff=coeff, r=outcome.r, r_sup=float(r_sup),
                    residual_energy=float(np.linalg.norm(g)) ** 2)

    record = Record(initial_energy=float(np.linalg.norm(g)) ** 2, rho=rho)
    return greedy(record, min(n_terms, dictionary.dim), threshold, step)


def reconstruct_poga(record, dictionary):
    """Replay the frame from the recorded atoms and sum coeff_k B_k; an atom in the span raises."""
    frame = OrthoFrame(dictionary.dim)
    out = np.zeros(dictionary.dim, dtype=complex)
    for n, step in enumerate(record.steps, start=1):
        try:
            vec, _ = frame.extend(dictionary.atom_vector(step.atom), spec=step.atom)
        except SpanDegeneracyError as exc:
            raise SpanDegeneracyError("step %d: %s" % (n, exc), r=exc.r) from None
        out += step.coeff * vec
    return out


@dataclass
class RateRow:
    m: int
    remainder_norm: float
    bound: float
    slack: float


@dataclass
class RateReport:
    rows: list[RateRow]
    recurrence_ok: bool
    conclusion_ok: bool

    @property
    def ok(self):
        return (
            self.recurrence_ok
            and self.conclusion_ok
            and all(row.slack >= -RATE_EXCESS for row in self.rows)
        )


def rate_report(record, M):
    """Check the decay of a run against the rate bound for bounded synthesis.

    For f representable with coefficient 1-norm at most M, the remainder
    after m - 1 steps obeys ||g_m|| <= R_m M / (rho sqrt(m)) with R_m the
    running max of the recorded supremal residual norms.  The same chain
    forces the squared remainders d_n to satisfy
    d_{n+1} <= d_n (1 - d_n / A_m), A_m = (R_m M / rho)^2, whose closed
    consequence is d_m <= A_m / m; both are verified on the recorded
    sequence, with rho = ``record.rho``.  The bound, the recurrence and the
    conclusion each hold up to an excess of ``RATE_EXCESS``, since for a
    one-atom synthesis the bound at m = 1 equals ||f|| in exact arithmetic.
    A failed inequality marks a violation (selector bug or a grid too coarse
    for the synthesis).  A run without steps bounds nothing: no rows, ok.
    """
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
        # A_m never decreases with m, so step n's recurrence is tightest at m = n + 2
        if m > 1 and d[m - 1] > d[m - 2] * (1.0 - d[m - 2] / A_m) + RATE_EXCESS:
            recurrence_ok = False
    return RateReport(rows=rows, recurrence_ok=recurrence_ok, conclusion_ok=conclusion_ok)
