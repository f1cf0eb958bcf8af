"""Exact arithmetic for counting subspaces of F_p^n.

The Gaussian binomial [n k]_p counts the k-dimensional subspaces of an
n-dimensional space over the field with p elements. All of them come from one
primitive, the q-Pascal row step [m k] = [m-1 k-1] + p^k [m-1 k], which takes
row m-1 of the triangle to row m with no division. Polynomial binomials run
the same step at p = 2^K and read the coefficients off as base-2^K digits
(Kronecker substitution): they are non-negative and sum to the value at p = 1,
so with 2^K above that sum no digit carries.

The base is deliberately not required to be prime. All identities here are
polynomial identities in p; only the subgroup-lattice interpretation needs
primality, and the lattice module enforces that separately.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from math import comb
from operator import add, mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .polynomial import IntPolynomial


def _check_base(p: int) -> None:
    if p < 2:
        raise ValueError(f"base p must be >= 2, got {p}")


def q_pascal_step(row: list[int], p: int, width: int) -> list[int]:
    """Row m of [m k]_p, k <= width, from row m-1; any p >= 1 (p = 1 gives Pascal's triangle)."""
    top = min(len(row), width + 1)
    if p & (p - 1):
        scaled = map(mul, accumulate(repeat(p, top - 1), mul, initial=1), row[:top])
    else:
        scaled = (x << (p.bit_length() - 1) * k for k, x in enumerate(row[:top]))
    next(scaled)  # column 0 of the new row is 1
    out = [1, *map(add, row, scaled)]
    if len(row) <= width:
        out.append(1)
    return out


def q_pascal_row(n: int, p: int, width: int) -> list[int]:
    """Row n of the q-Pascal triangle at base p, columns k <= width, holding one row at a time."""
    row = [1]
    for _ in range(n):
        row = q_pascal_step(row, p, width)
    return row


# (p, row m): the last full row gaussian_binomial built. Rows are never changed
# in place and each call reads its own snapshot, so threads that race to replace
# it cost each other at most a rebuild and never a wrong value: no lock needed.
_row: tuple[int, list[int]] = (0, [1])


# The benchmark's tracer (bench/launcher.py) times this layer through the two
# lru_caches here; no timed workload relies on their hits.
@lru_cache(maxsize=256)
def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n (q-binomial at q = p).

    Asked row by row in increasing rank, as the recurrence asks, each row costs
    one step from the kept row. Other entries with min(k, n-k) < n/4 build only
    those columns (measured at most a third of a full row's time); wider ones
    rebuild and keep row n, so a walk that another caller moved resumes.
    """
    global _row
    if not 0 <= k <= n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    _check_base(p)
    base, row = _row
    if base == p and len(row) == n:
        row = q_pascal_step(row, p, n)
    elif base != p or len(row) != n + 1:
        if 4 * min(k, n - k) < n:
            return q_pascal_row(n, p, min(k, n - k))[-1]
        row = q_pascal_row(n, p, n)
    _row = (p, row)
    return row[k]


@lru_cache(maxsize=256)
def gaussian_binomial_poly(n: int, k: int) -> IntPolynomial:
    """The q-binomial [n choose k] as a polynomial in the base; its coefficients sum to comb(n, k)."""
    from .polynomial import IntPolynomial

    if not 0 <= k <= n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    k = min(k, n - k)
    width = -(-comb(n, k).bit_length() // 8)  # bytes per coefficient
    return IntPolynomial.from_digits(q_pascal_row(n, 1 << 8 * width, k)[-1], width)


def galois_number(n: int, p: int) -> int:
    """Total number of subspaces of F_p^n, summed over all dimensions."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _check_base(p)
    return sum(q_pascal_row(n, p, n))
