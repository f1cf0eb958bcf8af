"""Exact arithmetic for counting subspaces of F_p^n.

The Gaussian binomial [n k]_p counts the k-dimensional subspaces of an
n-dimensional space over the field with p elements. All of them come from one
primitive, the q-Pascal row step [m k] = [m-1 k-1] + p^k [m-1 k], which takes
row m-1 of the triangle to row m with no division. Polynomial binomials run
the same step at p = 2^K and read the coefficients off as base-2^K digits
(Kronecker substitution): they are non-negative and sum to the value at p = 1,
so with 2^K above that sum no digit carries. Given a modulus, the step runs on
residues at the base p mod modulus, so a row mod a word-size prime costs
word-size products only; that is how the certificate of the integer counts
reads its binomials. Without one every value is exact.

The base is deliberately not required to be prime. All identities here are
polynomial identities in p; only the subgroup-lattice interpretation needs
primality, and the lattice module enforces that separately.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, log10
from operator import add, mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .polynomial import IntPolynomial


def brief(value: int | str) -> str:
    """`value` as a refusal shows it: whole up to 40 characters, else its first 12 and last 4 and its length.

    An integer is cut by arithmetic, never converted to a string in full, so a
    library caller under the interpreter's int-to-str digit limit still gets the refusal.
    """
    if isinstance(value, str):
        return value if len(value) <= 40 else f"{value[:12]}...{value[-4:]} ({len(value)} characters)"
    size = abs(value)
    digits = int((size.bit_length() - 1) * log10(2))  # at most the digit count
    while 10**digits <= size:
        digits += 1
    sign = "-" if value < 0 else ""
    if len(sign) + digits <= 40:
        return str(value)
    return f"{sign}{size // 10 ** (digits - 12)}...{size % 10**4:04d} ({digits} digits)"


def check_base(p: int) -> None:
    """Refuse a base below 2."""
    if p < 2:
        raise ValueError(f"base p must be >= 2, got {brief(p)}")


def check_rank(n: int) -> None:
    """Refuse a negative rank."""
    if n < 0:
        raise ValueError(f"rank n must be >= 0, got {brief(n)}")


def check_column(n: int, k: int) -> None:
    """Refuse a column outside 0..n of row n."""
    if not 0 <= k <= n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={brief(k)}, n={brief(n)}")


def q_pascal_step(row: list[int], p: int, width: int, modulus: int | None = None) -> list[int]:
    """Row m of [m k]_p, k <= width, from row m-1; any p >= 1 (p = 1 gives Pascal's triangle).

    With a modulus, row m-1 holds residues and so does row m. The powers of p
    are taken mod modulus, so every product is below modulus^2 and a base that
    is 0 or 1 mod modulus steps like any other.
    """
    top = min(len(row), width + 1)
    if modulus is not None:
        residue = p % modulus
        scaled = map(mul, accumulate(repeat(residue, top - 1), lambda a, b: a * b % modulus, initial=1), row[:top])
    elif p & (p - 1):
        scaled = map(mul, accumulate(repeat(p, top - 1), mul, initial=1), row[:top])
    else:
        scaled = (x << (p.bit_length() - 1) * k for k, x in enumerate(row[:top]))
    next(scaled)  # column 0 of the new row is 1
    out = map(add, row, scaled)
    out = [1, *(out if modulus is None else map(modulus.__rmod__, out))]
    if len(row) <= width:
        out.append(1)
    return out


def q_pascal_row(n: int, p: int, width: int) -> list[int]:
    """Row n of the q-Pascal triangle at base p, columns k <= width, holding one row at a time."""
    row = [1]
    for _ in range(n):
        row = q_pascal_step(row, p, width)
    return row


# (p, modulus, m, columns 0..m//2 of row m): the half row gaussian_binomial
# built last, exact when modulus is None, else reduced mod modulus; [m k] =
# [m m-k] gives the rest. Rows are never changed in place and each call reads
# its own snapshot, so threads that race to replace it cost each other at most
# a rebuild and never a wrong value: no lock needed. The cold row's base is
# None, so no call, not even one at a refused base, reads it without checks.
_COLD_ROW: tuple[int | None, int | None, int, list[int]] = (None, None, 0, [1])
_row = _COLD_ROW


def check_modulus(modulus: int | None) -> None:
    """Refuse a modulus below 2 (None asks for the exact value)."""
    if modulus is not None and modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {brief(modulus)}")


# maxsize=0 stores nothing and counts every call as a miss, here and on
# gaussian_binomial_poly below: the certificate of the integer counts
# (chains.bounded_chains_recurrence) reads each entry once, in row order, and
# no command calls gaussian_binomial_poly. The wrappers stay only because the
# benchmark's tracer (bench/launcher.py) times both layers through their
# __wrapped__ and cache_parameters; they can go when the tracer stops needing them.
@lru_cache(maxsize=0)
def gaussian_binomial(n: int, k: int, p: int, modulus: int | None = None) -> int:
    """Number of k-dimensional subspaces of F_p^n (q-binomial at q = p), mod modulus if one is given; read in row order.

    Only columns k <= n/2 are built, since [n k] = [n n-k]. The kept half row
    steps up to row n if it is at base p and modulus and rank at most n;
    otherwise the walk starts again from row 0. Either way row n's half row is
    kept. So the certificate, which asks rows in increasing rank, pays one step
    per row. With a modulus every step runs on residues, at p mod modulus, and
    makes no big product; without one the row is exact. For one exact entry
    out of that order, q_pascal_row(n, p, min(k, n - k))[-1] builds only the
    columns it needs.
    """
    global _row
    base, kept_modulus, m, row = _row
    if m == n and base == p and kept_modulus == modulus and 0 <= k <= n:
        return row[min(k, n - k)]  # every read of a row but the one that steps to it
    check_column(n, k)
    check_base(p)
    check_modulus(modulus)
    if base != p or kept_modulus != modulus or m > n:
        m, row = 0, [1]
    while m < n:
        m += 1
        # Row m-1 stops at column (m-1)//2; for even m, column m/2 - 1 is also column m/2.
        row = q_pascal_step(row + row[-1:] if m % 2 == 0 else row, p, m // 2, modulus)
    _row = (p, modulus, n, row)
    return row[min(k, n - k)]


@lru_cache(maxsize=0)
def gaussian_binomial_poly(n: int, k: int) -> IntPolynomial:
    """The q-binomial [n choose k] as a polynomial in the base; its coefficients sum to comb(n, k)."""
    from .polynomial import IntPolynomial

    check_column(n, k)
    k = min(k, n - k)
    width = -(-comb(n, k).bit_length() // 8)  # bytes per coefficient
    return IntPolynomial.from_digits(q_pascal_row(n, 1 << 8 * width, k)[-1], width)


def clear_caches() -> None:
    """Forget the kept half row and zero both wrappers' call counters."""
    global _row
    _row = _COLD_ROW
    gaussian_binomial.cache_clear()
    gaussian_binomial_poly.cache_clear()


def galois_number(n: int, p: int) -> int:
    """Total number of subspaces of F_p^n, summed over all dimensions."""
    check_rank(n)
    check_base(p)
    return sum(q_pascal_row(n, p, n))
