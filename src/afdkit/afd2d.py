"""Decomposition of Hardy signals on the 2-torus.

Two routes are provided.  The product rational-system route extends two 1-d
orthonormal systems one parameter pair at a time; step n adds the 2n - 1
cross coefficients with max(k, l) = n, and the pair (a_n, b_n) is chosen to
maximize the energy of that block.  The pure greedy route peels one
normalized tensor kernel e_a (x) e_b per step from the running remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import (
    FourierCoeffs2D, Record, Step, _kernel_table, greedy, grid_argmax_pairs, inner_product_2d, require_nonzero,
)
from .afd1d import tm_matrix
from .szego import TensorAtomSpec, tensor_atom_coeffs

__all__ = [
    "MspPairSelection",
    "msp_product_tm",
    "afd2d_tm_decompose",
    "reconstruct_product_tm",
    "pga_step",
    "pga_decompose",
    "reconstruct_pga",
]


def _history_rows(history, order):
    """``tm_matrix`` rows of the a-parameters and of the b-parameters of ``history``."""
    return tuple(tm_matrix([p[axis] for p in history], order) for axis in (0, 1))


def _cross_table(C, rows_a, rows_b):
    """Matrix of <f, B_k (x) B_l> for all row combinations."""
    return np.conj(rows_a) @ C @ np.conj(rows_b).T


def _block_entries(table, n):
    """The 2n - 1 new entries at step n, ordered (k printed first):

    (k, n) for k = 1..n-1, then (n, l) for l = 1..n (0-based slicing below).
    """
    col = table[: n - 1, n - 1]
    row = table[n - 1, :n]
    return np.concatenate([col, row])


def _blaschke_toeplitz(phi):
    """Coefficient map of g -> P+[g conj(phi)] on frequencies 0..order.

    ``phi`` holds the Taylor coefficients 0..order of a Blaschke product;
    the map is the upper-triangular Toeplitz matrix T[k, m] = conj(phi_{m-k})
    (m >= k).
    """
    lag = np.arange(phi.size)[None, :] - np.arange(phi.size)[:, None]
    return np.where(lag >= 0, np.conj(phi)[np.maximum(lag, 0)], 0.0)


def _product_tm_objective(f, history, grid, rows=None):
    """Step-n block energy of every candidate pair, as ``objective(a_pts, b_pts)``.

    The coupled entry is sqrt(1 - |a|^2) sqrt(1 - |b|^2) h(a, b), h with
    coefficient block H = A C B^T (A, B from ``_blaschke_toeplitz``); the
    single-axis entries against the fixed rows of the other axis are the
    1-d analogue, with Ga = A R_b and Gb = B L_a^T.  ``rows`` are the
    ``_history_rows`` of ``history`` followed by the pair (0, 0), when the
    caller already holds them: the row of the parameter 0 is its prefix, so
    the last row of each axis is the Blaschke product phi or psi.
    """
    C = f.data
    rows_a, rows_b = _history_rows([*history, (0j, 0j)], f.order) if rows is None else rows
    A, B = _blaschke_toeplitz(rows_a[-1]), _blaschke_toeplitz(rows_b[-1])
    H = A @ C @ B.T
    Ga = A @ (C @ np.conj(rows_b[:-1]).T)  # column l: <f, . (x) B_l> times conj(phi)
    Gb = B @ (np.conj(rows_a[:-1]) @ C).T  # column k: <f, B_k (x) .> times conj(psi)
    return lambda a_pts, b_pts: _kernel_table(H, a_pts, b_pts, grid, (Ga, Gb))


@dataclass
class MspPairSelection:
    """Result of a joint parameter search: the pair and its block energy."""

    a: complex
    b: complex
    value: float


def msp_product_tm(f, history, grid, *, _rows=None):
    """Joint maximal selection of the next parameter pair.

    Maximizes the step-n block energy over the product of two copies of the
    polar grid.  The block objective splits into a coupled term plus two
    single-axis terms, so the objective hands ``grid_argmax_pairs`` the
    factors of the pair table, and the reduction scores only the rows, and
    each block's lanes of columns, whose ring-majorant bounds reach the
    maximum: about 4% of the pairs a bench step (``hardy._pair_argmax``).

    The energy comes from the reproducing property: with phi and psi the
    Blaschke products of the a- and b-history,

        <f, e_a phi (x) e_b psi> = sqrt(1 - |a|^2) sqrt(1 - |b|^2) h(a, b),
        h = P++[f conj(phi (x) psi)],

    so every term is a power series evaluated on the grid, in the pair
    table of ``hardy._kernel_table``.  ``_rows`` passes the
    ``tm_matrix`` rows of the history and of phi and psi that
    ``afd2d_tm_decompose`` already built at the previous step.
    """
    require_nonzero(f.energy())
    objective = _product_tm_objective(f, history, grid, _rows)
    a, b, value = grid_argmax_pairs(objective, grid)
    return MspPairSelection(a=a, b=b, value=value)


def afd2d_tm_decompose(f, n_terms, grid, threshold=1e-12):
    """Product rational-system decomposition with joint maximal selection.

    Each step of ``hardy.greedy`` records the selected pair, the 2n - 1 new
    cross coefficients and the residual energy ||f||^2 - sum of block
    energies.  Residuals are non-increasing by construction.
    """
    history = []
    rows = None
    residual = f.energy()

    def step():
        nonlocal rows, residual
        sel = msp_product_tm(f, history, grid, _rows=rows)
        history.append((sel.a, sel.b))
        rows = _history_rows([*history, (0j, 0j)], f.order)
        block = _block_entries(_cross_table(f.data, rows[0][:-1], rows[1][:-1]), len(history))
        block_energy = float(np.sum(np.abs(block) ** 2))
        residual -= block_energy
        return Step(a=sel.a, b=sel.b, block=block, block_energy=block_energy, residual_energy=residual)

    return greedy(Record(initial_energy=f.energy()), n_terms, threshold, step)


def reconstruct_product_tm(record, order):
    """Partial sum S_n rebuilt from a product-system record.

    The blocks fill the n x n table T[k, l] = <f, B_k (x) B_l>, so the sum
    of T[k, l] B_k (x) B_l is ``rows_a^T T rows_b``.
    """
    n = len(record.steps)
    table = np.empty((n, n), dtype=complex)
    for i, step in enumerate(record.steps):
        table[:i, i] = step.block[:i]
        table[i, : i + 1] = step.block[i:]
    rows_a, rows_b = _history_rows([(s.a, s.b) for s in record.steps], order)
    return FourierCoeffs2D(rows_a.T @ table @ rows_b)


def pga_step(g, grid, *, _probe=True):
    """One pure greedy selection over the tensor kernel dictionary.

    Maximizes |<g, e_a (x) e_b>| via the reproducing identity
    sqrt(1 - |a|^2) sqrt(1 - |b|^2) |g(a, b)| = |K_a C K_b^T|, the pair
    table of ``hardy._kernel_table``, reduced in row blocks without the
    table of all pairs, then returns the selected tensor atom, its
    coefficient c and the remainder g - c e_a (x) e_b.  ``_probe``:
    ``hardy._pair_argmax`` probes the ring majorants before it screens, as
    ``pga_decompose`` has its first search do.
    """
    require_nonzero(g.energy())
    a, b, _ = grid_argmax_pairs(lambda a_pts, b_pts: _kernel_table(g.data, a_pts, b_pts, grid, probe=_probe), grid)
    spec = TensorAtomSpec.of(a, b)
    atom = tensor_atom_coeffs(spec, g.order)
    coeff = inner_product_2d(g, atom)
    return spec, coeff, g - coeff * atom


def pga_decompose(f, n_terms, grid, threshold=1e-12):
    """Pure greedy decomposition over tensor kernels.

    Each step of ``hardy.greedy`` sets g <- g - <g, e_a (x) e_b> e_a (x) e_b
    and removes exactly the selected coefficient's energy, so residual
    energies are non-increasing and satisfy the per-step ledger identity.
    """
    remainder = f

    def step():
        nonlocal remainder
        spec, coeff, remainder = pga_step(remainder, grid, _probe=remainder is f)
        return Step(atom=spec, coeff=coeff, residual_energy=remainder.energy())

    return greedy(Record(initial_energy=f.energy()), n_terms, threshold, step)


def reconstruct_pga(record, order):
    """Sum of the selected tensor kernels weighted by their coefficients."""
    out = FourierCoeffs2D.zeros(order)
    for step in record.steps:
        out = out + step.coeff * tensor_atom_coeffs(step.atom, order)
    return out
