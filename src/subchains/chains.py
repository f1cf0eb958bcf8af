"""Counting chains in the subgroup lattice of Z_p^n.

A chain is a nonempty set of subgroups totally ordered by inclusion; it is
rooted if it contains the whole group. Call a chain bounded if it contains
both the trivial subgroup and the whole group. For rank n >= 1 adding or
removing the trivial subgroup is a bijection between rooted chains that
contain it and rooted chains that do not, so

    rooted = 2 * bounded        (rank 0 is the exception: a single chain).

Writing b_n for the bounded count, removing the whole group from a bounded
chain leaves a bounded chain of some proper subgroup, which is again
elementary abelian of smaller rank, giving the recurrence

    b_0 = 1,    b_n = sum_{k=0}^{n-1} [n k]_p * b_k.

Integer counts evaluate it directly, extending b_0..b_m a rank at a time.
The symmetry [m k] = [m m-k] pairs the terms of ranks k and m-k,

    b_m = 1 + sum_{0 < k < m/2} [m k] (b_k + b_{m-k})  (+ [m m/2] b_{m/2} if m is even),

so row m is read from qarith.gaussian_binomial in row order only up to column
m/2: about n^2/4 products in all.

Polynomials come from a product-free triangle instead of that binomial sum.
Let (D b)_k = p^k b_k and (S b)_k = b_{k+1}; then S D = p D S, and the
q-binomial theorem for q-commuting operators gives ((D + S)^m b)_0 =
sum_k [m k] b_k = 2 b_m for m >= 1. In T[0] = b, T[j] = (D + S) T[j-1], that
is T[j][i] = p^i T[j-1][i] + T[j-1][i+1], b_m has coefficient 1 in every
entry of antidiagonal m, so one pass along it with b_m = 0 lands b_m at
T[m][0]. At p = +-2^K each step is a shift and an addition or a subtraction.
The polynomial has non-negative coefficients that sum to b_n(1), the ordered
Bell number (the triangle at p = 1), so each is below 2^(2K) once 2^(2K) >
b_n(1). Then the half-sum of the values at 2^K and -2^K holds the even
coefficients as base-2^(2K) digits, and the half-difference over 2^K the odd
ones, with no carries; each of the two passes holds integers half as wide
as a single evaluation at 2^(2K) would.

Unrolling b_n gives a cross-check: a sum over the subsets of {1, ..., n-1},
each a chain of intermediate dimensions that contributes the product of the
Gaussian binomials between consecutive ones (the empty subset contributes 1).
It walks the high dimensions depth first and expands the low ones breadth
first, one list of terms per lowest dimension, which holds at most 2^12
terms at once. Every term stays its own product: summing tails under a
common head would be the recurrence again, not a check of it.
"""

from __future__ import annotations

import threading
from itertools import repeat
from math import log2
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from . import qarith
from .qarith import check_base, check_rank, gaussian_binomial, q_pascal_step

if TYPE_CHECKING:
    from .polynomial import IntPolynomial

# Every limit a CLI request is checked against before any work: the rank of
# the closed form (it enumerates 2^(n-1) subsets), the default node budget of
# the lattice oracle (lattice.check_size), and the predicted bits of a count
# (count, table) or of a polynomial (poly); see the check_* functions below.
CLOSED_FORM_CAP = 24
DEFAULT_NODE_BUDGET = 100_000
COUNT_BITS_CAP = 100_000
POLY_BITS_CAP = 1 << 24

# The closed form expands chains breadth first once their lowest dimension is
# at most this plus one (measured fastest at 12; see bounded_chains_closed_form).
_BREADTH_FIRST_BOUND = 12


class ChainCounts(NamedTuple):
    """Chain tallies for one group: rooted, unrooted, and all chains."""

    rooted: int
    unrooted: int
    total: int

    @classmethod
    def from_rooted(cls, rooted: int) -> ChainCounts:
        """Derive the unrooted and total tallies from the rooted count.

        Adding the whole group is a bijection from unrooted chains to rooted
        chains of size >= 2, and the only other rooted chain is the singleton
        {G}; hence unrooted = rooted - 1 and total = 2 * rooted - 1.
        """
        return cls(rooted=rooted, unrooted=rooted - 1, total=2 * rooted - 1)


# (p, [b_0..b_m]) for the most recent base only, so memory stays bounded
# however many bases a process sees; the lock serializes extending it.
_memo: tuple[int, list[int]] = (0, [1])
_memo_lock = threading.Lock()


def bounded_chains_recurrence(n: int, p: int) -> int:
    """Number of chains containing both the trivial subgroup and Z_p^n.

    Each new rank m takes one product per column 0 < k <= m/2 of row m, the
    product by [m k] serving both b_k and b_{m-k}, so ranks up to n take about
    n^2/4 products, half the plain sum's n(n+1)/2. The memo keeps one base
    under one lock, so threads that work on different bases serialize and
    evict each other's memo.
    """
    global _memo
    check_rank(n)
    check_base(p)
    with _memo_lock:
        if _memo[0] != p:
            _memo = (p, [1])
        b = _memo[1]
        for m in range(len(b), n + 1):
            # [m k] = [m m-k]: one product serves ranks k and m-k; [m 0] b_0 = 1.
            total = 1 + sum(gaussian_binomial(m, k, p) * (b[k] + b[m - k]) for k in range(1, (m + 1) // 2))
            if m % 2 == 0:
                total += gaussian_binomial(m, m // 2, p) * b[m // 2]
            b.append(total)
        return b[n]


def check_closed_form_rank(n: int) -> None:
    """Refuse ranks above the cap on the exponential closed form (the recurrence has none)."""
    if n > CLOSED_FORM_CAP:
        raise ValueError(f"n={n} exceeds the closed-form enumeration cap of {CLOSED_FORM_CAP}")


def check_count_bits(n: int, p: int) -> None:
    """Refuse a rank whose predicted n(n-1)/2 * log2(p) bits are over COUNT_BITS_CAP.

    The cap is on that prediction, not on b_n itself: b_n <= p^(n(n-1)/2) * b_n(1)
    because its polynomial has non-negative coefficients, and b_n(1) <= n^n,
    so b_n can have up to n*log2(n) + 1 bits more (the admitted b_447 at p = 2
    has 100,290). The recurrence does about n^2/4 products of numbers that size,
    so this bounds its work; the worst admitted request is at p = 2, the most
    ranks per bit.
    """
    check_rank(n)
    check_base(p)
    pairs = n * (n - 1) // 2
    if pairs > COUNT_BITS_CAP or pairs * log2(p) > COUNT_BITS_CAP:
        raise ValueError(f"n={n} at p={p} exceeds the output cap: b_n would have over {COUNT_BITS_CAP} bits")


def check_poly_bits(n: int) -> None:
    """Refuse a rank whose polynomial is over POLY_BITS_CAP bits by the bound n(n-1)/2 * n*log2(n).

    Its n(n-1)/2 + 1 coefficients sum to b_n(1) <= n^n (an ordered set
    partition is a map into {1..n}), so the bound also covers the two integers
    the triangle builds at p = +-2^(4 * width), each about half the polynomial's bits.
    """
    check_rank(n)
    pairs = n * (n - 1) // 2
    if pairs > POLY_BITS_CAP or pairs * n * log2(max(n, 1)) > POLY_BITS_CAP:
        raise ValueError(f"n={n} exceeds the poly output cap: the polynomial would have over {POLY_BITS_CAP} bits")


def bounded_chains_closed_form(n: int, p: int) -> int:
    """Same count as bounded_chains_recurrence, by direct subset enumeration.

    Sums over all 2^(n-1) subsets of {1, ..., n-1}. A subset read in
    descending order is a chain of dimensions below n; it contributes the
    product of the Gaussian binomials [upper lower] along that chain, read
    from rows 0..n built once, and each term extends its parent's by one
    factor. Chains are walked depth first while their lowest dimension is
    above _BREADTH_FIRST_BOUND + 1; below that, all extensions of a chain are
    formed breadth first, a list of terms per lowest dimension, so the
    interpreter pays per list rather than per term and at most
    2^_BREADTH_FIRST_BOUND terms are held at once. Every term is still its
    own product: factoring a common head out of a sum of tails would be the
    recurrence, the engine this function checks. Exponential in n, so ranks
    above the cap are refused (see check_closed_form_rank).
    """
    check_rank(n)
    check_base(p)
    check_closed_form_rank(n)
    rows = [[1]]
    for _ in range(n):
        rows.append(q_pascal_step(rows[-1], p, n))
    total = 0
    stack = [(n, 1)]  # (lowest dimension of the subset's chain, its term)
    while stack:
        top, term = stack.pop()
        total += term
        if top > _BREADTH_FIRST_BOUND + 1:
            stack.extend((lower, term * rows[top][lower]) for lower in range(1, top))
            continue
        groups = {top: [term]}  # lowest dimension d -> terms of the chains below top that end at d
        for lower in range(top - 1, 0, -1):
            terms = []
            for d in range(lower + 1, top + 1):
                terms += map(mul, groups[d], repeat(rows[d][lower]))
            total += sum(terms)
            groups[lower] = terms
    return total


def chain_counts(n: int, p: int) -> ChainCounts:
    """All three chain tallies for Z_p^n, from the recurrence."""
    check_base(p)  # also at rank 0, which the recurrence never reaches
    rooted = 1 if n == 0 else 2 * bounded_chains_recurrence(n, p)
    return ChainCounts.from_rooted(rooted)


def _triangle(n: int, shift: int, sign: int = 1) -> int:
    """b_n at p = sign * 2^shift by the antidiagonals of the triangle T: shifts, additions and subtractions only.

    At sign = -1 the terms p^i T[j][i] with an odd i are negative, so they are subtracted.
    """
    odd = 1 if sign < 0 else 0  # e & odd is 1 exactly when p^e < 0
    diag = [1]  # antidiagonal m of T: diag[j] = T[j][m-j]
    for m in range(1, n + 1):
        acc = 0  # T[j][m-j] with b_m = 0, built from antidiagonal m-1 in place
        for j in range(m):
            x, diag[j] = diag[j], acc
            e = m - 1 - j
            if e & odd:
                acc -= x << shift * e
            else:
                acc += x << shift * e
        diag.append(acc)  # T[m][0] = 2 b_m - b_m
        for j in range(m + 1):
            diag[j] += acc
    return diag[0]


def bounded_chains_poly(n: int) -> IntPolynomial:
    """Bounded-chain count with the base left symbolic, by Kronecker substitution (no memo, no lock).

    Every value comes from the product-free triangle, not the binomial sum.
    At p = 1 it gives the digit bound b_n(1), which sets the digit 2^(8 * width)
    that holds one coefficient. At p = 2^K and p = -2^K, with K = 4 * width
    bits (half a digit), it gives f(+) and f(-), and

        (f(+) + f(-)) / 2 = sum_i c_(2i) 2^(2K i),    (f(+) - f(-)) / 2^(K+1) = sum_i c_(2i+1) 2^(2K i),

    so the even and the odd coefficients are the carry-free digits of these
    two. The triangle's entries are half as wide as at the single point
    2^(8 * width), and so is its peak memory.
    """
    from .polynomial import IntPolynomial

    check_rank(n)
    width = -(-_triangle(n, 0).bit_length() // 8)  # bytes per coefficient
    shift = 4 * width
    plus = _triangle(n, shift)
    minus = _triangle(n, shift, -1)
    even = IntPolynomial.from_digits((plus + minus) >> 1, width).coeffs
    odd = IntPolynomial.from_digits((plus - minus) >> shift + 1, width).coeffs
    coeffs = [0] * (2 * max(len(even), len(odd)))
    coeffs[0 : 2 * len(even) : 2] = even
    coeffs[1 : 2 * len(odd) : 2] = odd
    return IntPolynomial(coeffs)


def rooted_chains_poly(n: int) -> IntPolynomial:
    """Rooted-chain count of Z_p^n as a polynomial in p.

    For n >= 1 this has degree n(n-1)/2, leading coefficient 2, and constant
    term 2^n; the n = 0 count is the constant 1.
    """
    from .polynomial import ONE

    check_rank(n)
    if n == 0:
        return ONE
    return 2 * bounded_chains_poly(n)


def clear_caches() -> None:
    """Leave the engine cold: drop the recurrence memo, then reset qarith (its kept half row and call counters)."""
    global _memo
    with _memo_lock:
        _memo = (0, [1])
    qarith.clear_caches()
