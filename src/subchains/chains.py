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

Every count comes from a triangle instead of that binomial sum; it multiplies no two counts.
Let (D b)_k = p^k b_k and (S b)_k = b_{k+1}; then S D = p D S, and the
q-binomial theorem for q-commuting operators gives ((D + S)^m b)_0 =
sum_k [m k] b_k = 2 b_m for m >= 1. In T[0] = b, T[j] = (D + S) T[j-1], that
is T[j][i] = p^i T[j-1][i] + T[j-1][i+1], b_m has coefficient 1 in every
entry of antidiagonal m, so one pass along it with b_m = 0 lands b_m at
T[m][0]. One generator, _triangle, takes that step at any base and yields
b_0, b_1, ...: at p = +-2^s each term p^e x is a shift, added or subtracted,
and at any other base a product by a kept power p^e.

Integer counts (count, table, verify, chain_counts) keep the certified
stream of the most recent base, suspended after the last rank asked, and
advance it a rank at a time. Each new rank is
certified modulo a word-size prime L by the recurrence itself: the symmetry
[m k] = [m m-k] pairs the terms of ranks k and m-k,

    b_m = 1 + sum_{0 < k < m/2} [m k] (b_k + b_{m-k})  (+ [m m/2] b_{m/2} if m is even),

and each [m k] mod L is read in row order from qarith.gaussian_binomial, which
steps its half row mod L, and multiplied by residues, so the check builds no
exact binomial and makes no big product. A rank whose triangle value differs
mod L raises CertificateError.

Polynomials run the same triangle at p = 1 and p = +-2^K. The polynomial has
non-negative coefficients that sum to b_n(1), the ordered Bell number (the
triangle at p = 1), so each is below 2^(2K) once 2^(2K) > b_n(1). Then the
half-sum of the values at 2^K and -2^K holds the even coefficients as
base-2^(2K) digits, and the half-difference over 2^K the odd ones, with no
carries; each of the two passes holds integers half as wide as a single
evaluation at 2^(2K) would.

Unrolling b_n gives a cross-check: a sum, over the chains of dimensions
0 < d_1 < ... < d_(r-1) < n, of the products of the Gaussian binomials
between consecutive ones. Such a product is the q-multinomial [n; alpha]_p
of the composition alpha = (d_1, d_2 - d_1, ..., n - d_(r-1)) of n, and
[n; alpha]_p does not depend on the order of alpha's parts (MacMahon), so
the 2^(n-1) compositions fall into the p(n) partitions of n, each summed as
one term times its number of orderings. Every prefix of a partition is a
partition of its own sum, so one depth-first walk of the partition tree, each
node adding its term to its sum's total, serves every rank up to n. The sum
reads no b_k: equal terms are grouped by that symmetry, and no common head is
factored out of a sum of tails, which would be the recurrence again.
"""

from __future__ import annotations

import threading
from itertools import islice, repeat
from math import log2
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from . import qarith
from .qarith import brief, check_base, check_rank, q_pascal_step

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .polynomial import IntPolynomial

# Every limit a CLI request is checked against before any work, each with one
# check_* function here: the rank of the closed form, the lattice oracle's node
# budget (its default; lattice.check_size applies it), and the predicted bits of
# the counts at all bases of a request (count, table, verify) or of a polynomial (poly).
CLOSED_FORM_CAP = 24
DEFAULT_NODE_BUDGET = 100_000
COUNT_BITS_CAP = 100_000
POLY_BITS_CAP = 1 << 24


def check_budget(budget: int) -> None:
    """Refuse a negative node budget."""
    if budget < 0:
        raise ValueError(f"the node budget must be >= 0, got {brief(budget)}")


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


class CertificateError(ArithmeticError):
    """A rank whose triangle value differs from the recurrence's modulo the certificate's prime."""


# Primes below 2^30, so each residue is one CPython digit. A base is certified
# mod the first of them at which it is neither 0 nor 1: there every power of
# p is 1 or 0 and the check cannot see an exponent. (A base that is 0 or 1
# mod all three, none below 2^85, is certified mod the last one.)
CERTIFICATE_MODULI = (1073741789, 1073741783, 1073741741)


def certificate_modulus(p: int) -> int:
    """The prime of CERTIFICATE_MODULI that certifies the counts at base p."""
    return next((prime for prime in CERTIFICATE_MODULI if p % prime > 1), CERTIFICATE_MODULI[-1])


def _triangle(p: int) -> Iterator[int]:
    """b_0, b_1, ... at any integer base p by the triangle, one antidiagonal step per rank.

    At p = +-2^s the term p^e x is x << s*e, subtracted when p^e < 0; at any
    other p it is x * powers[e], and powers grows by one power per rank.
    """
    shift = abs(p).bit_length() - 1
    if abs(p) != 1 << shift:
        shift = None
    odd = 1 if p < 0 else 0  # e & odd is 1 exactly when p^e < 0
    diag, powers = [1], [1]  # antidiagonal m: diag[j] = T[j][m-j], so diag[0] = b_m; p^0..p^(m-1)
    while True:
        yield diag[0]
        m = len(diag)
        acc = 0  # T[j][m-j] with b_m = 0, built from antidiagonal m-1 in place
        for j in range(m):
            x, diag[j] = diag[j], acc
            e = m - 1 - j
            if shift is None:
                acc += x * powers[e]
            elif e & odd:
                acc -= x << shift * e
            else:
                acc += x << shift * e
        diag.append(acc)  # T[m][0] = 2 b_m - b_m
        for j in range(m + 1):
            diag[j] += acc
        del acc, x  # stale between ranks: the suspended frame keeps diag and powers only
        if shift is None:
            powers.append(powers[-1] * p)


def _certified(p: int) -> Iterator[int]:
    """_triangle(p), each rank m >= 1 checked mod certificate_modulus(p) by the paired binomial sum.

    The sum runs over b_0..b_(m-1) mod the prime, reading row m mod the prime
    in order from qarith.gaussian_binomial; a rank that differs raises CertificateError.
    """
    modulus = certificate_modulus(p)
    stream = _triangle(p)
    yield next(stream)  # b_0 = 1 at every base
    residues = [1]
    for m, b in enumerate(stream, 1):
        # [m k] = [m m-k]: one residue serves ranks k and m-k; [m 0] b_0 = 1.
        half = (m + 1) // 2
        row = map(qarith.gaussian_binomial, repeat(m), range(1, half), repeat(p), repeat(modulus))
        c = 1 + sum(map(mul, row, map(add, residues[1:half], residues[m - 1 : m - half : -1])))
        if m % 2 == 0:
            c += qarith.gaussian_binomial(m, m // 2, p, modulus) * residues[m // 2]
        c %= modulus
        if b % modulus != c:
            raise CertificateError(
                f"certificate failed at rank n={m}, base p={brief(p)}: "
                f"the triangle gives {b % modulus} mod {modulus}, the recurrence {c}"
            )
        residues.append(c)
        yield b


# (p, stream, rank, b): the certified stream of the most recent base only,
# suspended after b = b_rank, so memory stays bounded however many bases a
# process sees; the lock serializes advancing it. The cold value's base 0 is
# never asked (every base is refused below 2), so the first request replaces it.
_COLD = (0, None, 0, 1)
_memo = _COLD
_memo_lock = threading.Lock()


def bounded_chains_recurrence(n: int, p: int) -> int:
    """Number of chains containing both the trivial subgroup and Z_p^n.

    The kept stream is advanced when it is at base p and rank at most n;
    otherwise a new one starts from rank 0. Either way it is kept at rank n.
    Each new rank m takes m shifts or products by p^e, and is certified mod
    certificate_modulus(p) by the binomial sum, which raises CertificateError
    on a mismatch. The memo is cold while the stream advances, so a stream
    stopped mid-rank, by that error or any other, is never kept. The memo
    keeps one base under one lock, so threads that work on different bases
    serialize and evict each other's stream.
    """
    global _memo
    check_rank(n)
    check_base(p)
    with _memo_lock:
        kept, stream, rank, b = _memo
        if kept != p or rank > n:
            stream, rank = _certified(p), -1
        if rank < n:
            _memo = _COLD
            b = next(islice(stream, n - rank - 1, None))
            _memo = (p, stream, n, b)
        return b


def check_closed_form_rank(n: int) -> None:
    """Refuse ranks above the cap on the closed form (the recurrence has none).

    The sum is cheap at the cap (7,338 partitions in one walk); raising it changes which verify requests are refused.
    """
    if n > CLOSED_FORM_CAP:
        raise ValueError(f"n={brief(n)} exceeds the closed-form enumeration cap of {CLOSED_FORM_CAP}")


def check_count_bits(n: int, *bases: int) -> None:
    """Refuse a rank whose b_n, predicted at n(n-1)/2 * log2(p) bits and summed over the bases, is over COUNT_BITS_CAP.

    b_n <= p^(n(n-1)/2) * b_n(1) and b_n(1) <= n^n, so b_n can have n*log2(n) + 1
    bits more (b_447 at p = 2 has 100,290). The cap bounds the triangle's n^2/2
    steps on numbers that size, each a shift or a product by a power p^e; the
    certificate's half rows mod a word-size prime cost about n^2/4 word-size
    products. Worst at p = 2, the most ranks per bit. Rendering table's n + 1
    records still costs about twice the engine there: one str() of each F,
    quadratic before Python 3.12 (D and C are derived from its digits).
    """
    check_rank(n)
    check_base(min(bases))
    pairs = n * (n - 1) // 2  # over the cap on its own (log2(p) >= 1), so no float overflows at huge n
    if pairs > COUNT_BITS_CAP or sum(pairs * log2(p) for p in bases) > COUNT_BITS_CAP:
        shown = ",".join(map(brief, bases))
        if len(shown) > 40:
            shown = f"{brief(bases[0])} and {len(bases) - 1} more"
        raise ValueError(f"n={brief(n)} at p={shown} exceeds the output cap: over {COUNT_BITS_CAP} bits in all")


def check_poly_bits(n: int) -> None:
    """Refuse a rank whose polynomial is over POLY_BITS_CAP bits by the bound n(n-1)/2 * n*log2(n).

    Its n(n-1)/2 + 1 coefficients sum to b_n(1) <= n^n (an ordered set
    partition is a map into {1..n}), so the bound also covers the two integers
    the triangle builds at p = +-2^(4 * width), each about half the polynomial's bits.
    """
    check_rank(n)
    pairs = n * (n - 1) // 2
    if pairs > POLY_BITS_CAP or pairs * n * log2(max(n, 1)) > POLY_BITS_CAP:
        raise ValueError(
            f"n={brief(n)} exceeds the poly output cap: the polynomial would have over {POLY_BITS_CAP} bits"
        )


def closed_form_counts(n: int, p: int) -> list[int]:
    """b_0..b_n of bounded_chains_recurrence, summed over partitions in one walk; ranks above the cap are refused.

    A partition l_1 <= ... <= l_r of s, multiplicities m_i, adds r!/(m_1! m_2! ...) orderings times [s; l]_p =
    prod_j [s_j l_j]_p, s_j = l_1 + ... + l_j, to b_s; every prefix is a partition of its own sum. Appending l as
    part j multiplies the term by j/m, m the copies of l now held (exact: the count stays whole), and by [s_j l]_p.
    """
    check_rank(n)
    check_base(p)
    check_closed_form_rank(n)
    rows = [[1]]
    for _ in range(n):
        rows.append(q_pascal_step(rows[-1], p, n))
    totals = [0] * (n + 1)
    stack = [(0, 1, 0, 0, 1)]  # a prefix: its sum, last part, copies of it, number of parts, term
    while stack:
        s, last, copies, parts, term = stack.pop()
        totals[s] += term
        for part in range(last, n - s + 1):
            m = copies + 1 if part == last else 1
            stack.append((s + part, part, m, parts + 1, term * (parts + 1) // m * rows[s + part][part]))
    return totals


def bounded_chains_closed_form(n: int, p: int) -> int:
    """Same count as bounded_chains_recurrence, by the sum over the partitions of n: closed_form_counts(n, p)[n]."""
    return closed_form_counts(n, p)[n]


def chain_counts(n: int, p: int) -> ChainCounts:
    """All three chain tallies for Z_p^n, from the recurrence."""
    b = bounded_chains_recurrence(n, p)
    return ChainCounts.from_rooted(b if n == 0 else 2 * b)


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

    def b_n(p: int) -> int:
        return next(islice(_triangle(p), n, None))

    width = -(-b_n(1).bit_length() // 8)  # bytes per coefficient
    shift = 4 * width
    plus, minus = b_n(1 << shift), b_n(-1 << shift)
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
    b = bounded_chains_poly(n)
    return b if n == 0 else 2 * b


def clear_caches() -> None:
    """Leave the engine cold: drop the kept stream, then reset qarith (its kept half row and call counters)."""
    global _memo
    with _memo_lock:
        _memo = _COLD
    qarith.clear_caches()
