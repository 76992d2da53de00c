"""Szego kernels, their higher-order ladder, and tensor products.

The basic dictionary element is the normalized reproducing kernel of the
Hardy space at a point a inside the disc,

    e_a(z) = sqrt(1 - |a|^2) / (1 - conj(a) z),

whose coefficients form a geometric sequence.  Raising the denominator power
gives the higher-order ladder 1 / (1 - conj(a) z)^m (the monomial z^{m-1}
when a = 0), which spans the same spaces as the normalized parameter
derivatives of e_a.  Tensor products of two such factors form the dictionary
used by the 2-d greedy algorithms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, TruncationWarning
from .hardy import FourierCoeffs1D, FourierCoeffs2D

__all__ = [
    "AtomSpec",
    "TensorAtomSpec",
    "szego_coeffs",
    "higher_order_coeffs",
    "normalization",
    "normalized_atom_coeffs",
    "tensor_atom_coeffs",
]

NORM_DEFICIT_WARN = 1e-8


@dataclass(frozen=True)
class AtomSpec:
    """A dictionary element: disc parameter plus multiplicity order.

    ``m = 1`` is a plain Szego kernel, ``m > 1`` a higher-order one.
    """

    a: complex
    m: int = 1

    def __post_init__(self):
        if not abs(self.a) < 1.0:  # NaN too
            raise DomainError("disc parameter must satisfy |a| < 1, got |a| = %g" % abs(self.a))
        if self.m < 1:
            raise DomainError("multiplicity must be a positive integer")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "m", int(self.m))


@dataclass(frozen=True)
class TensorAtomSpec:
    """Tensor product of two 1-d atoms, one per torus variable."""

    left: AtomSpec
    right: AtomSpec

    @classmethod
    def of(cls, a, b, m_left=1, m_right=1):
        return cls(AtomSpec(a, m_left), AtomSpec(b, m_right))


def _warn_deficit(deficit, what):
    if deficit > NORM_DEFICIT_WARN:
        warnings.warn(
            "%s loses %.3e of its unit norm to truncation; increase the order "
            "or reduce |a|" % (what, deficit),
            TruncationWarning,
            stacklevel=3,
        )


def szego_coeffs(a, order):
    """Coefficients of the normalized Szego kernel e_a, truncated at ``order``.

    c_k = sqrt(1 - |a|^2) conj(a)^k.  The truncated vector misses at most
    |a|^(2 (order + 1)) of the unit norm; a warning is issued when the
    deficit exceeds 1e-8.
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise DomainError("disc parameter must satisfy |a| < 1")
    data = math.sqrt(1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(order + 1)
    _warn_deficit(abs(a) ** (2 * (order + 1)), "Szego kernel at |a|=%.4f" % abs(a))
    return FourierCoeffs1D(data)


def higher_order_coeffs(spec, order):
    """Unnormalized coefficients of 1 / (1 - conj(a) z)^m.

    For a = 0 this is the monomial z^(m-1).  Otherwise
    c_k = binom(k + m - 1, m - 1) conj(a)^k.
    """
    data = np.zeros(order + 1, dtype=complex)
    if spec.a == 0:
        if spec.m - 1 > order:
            raise DomainError("monomial degree %d exceeds order %d" % (spec.m - 1, order))
        data[spec.m - 1] = 1.0
        return FourierCoeffs1D(data)
    k = np.arange(order + 1)
    binom = np.ones(order + 1)
    for j in range(1, spec.m):
        binom *= (k + j) / j
    data[:] = binom * np.conj(spec.a) ** k
    return FourierCoeffs1D(data)


@lru_cache(maxsize=4096)
def _ladder_norm_sq(r, m):
    """Closed-form squared norm of 1/(1 - conj(a) z)^m with r = |a|^2.

    sum_k binom(k+m-1, m-1)^2 r^k equals
    (sum_j binom(m-1, j)^2 r^j) / (1 - r)^(2m - 1), the Euler transform of
    the underlying hypergeometric sum.
    """
    num = sum(math.comb(m - 1, j) ** 2 * r**j for j in range(m))
    return num / (1.0 - r) ** (2 * m - 1)


def normalization(spec):
    """Constant making the higher-order kernel unit norm.

    Equals sqrt(1 - |a|^2) for m = 1 and tends to 0 as |a| -> 1 for every
    fixed m.  Returned as a positive float.  Raises ``DomainError`` once the
    closed form leaves the float range: from m = 68 at |a| = 0.995, from
    m = 516 at |a| = 0.5.
    """
    if spec.a == 0:
        return 1.0
    r = abs(spec.a) ** 2
    try:
        norm_sq = _ladder_norm_sq(r, spec.m)
    except (ZeroDivisionError, OverflowError):
        norm_sq = math.inf
    if not norm_sq < math.inf:
        raise DomainError(
            "higher-order kernel at a=%.6g%+.6gj with m=%d has no float norm" % (spec.a.real, spec.a.imag, spec.m)
        )
    return 1.0 / math.sqrt(norm_sq)


def normalized_atom_coeffs(spec, order):
    """Unit-norm truncated coefficients of the atom described by ``spec``."""
    raw = higher_order_coeffs(spec, order)
    vec = normalization(spec) * raw
    deficit = 1.0 - vec.energy()
    _warn_deficit(deficit, "atom (a=%.4g%+.4gj, m=%d)" % (spec.a.real, spec.a.imag, spec.m))
    return vec


def tensor_atom_coeffs(spec, order):
    """Outer product of the two normalized factor atoms, unit norm up to truncation."""
    left = normalized_atom_coeffs(spec.left, order)
    right = normalized_atom_coeffs(spec.right, order)
    return FourierCoeffs2D(np.outer(left.data, right.data))
