"""Differential tests: the q-Pascal row engine and the product-free triangle
against the engines they replaced.

The references below are the earlier implementations, kept here verbatim in
spirit: Gaussian binomials by exact division (a row at a time, from the
ratio of neighbouring entries, so independent of the q-Pascal step), the bounded
count as a memoized sum over those binomials, and the bounded polynomial as a
sum of schoolbook products over Pascal-built q-binomials. The polynomial
references are plain ascending coefficient tuples with their own addition and
product, so they share no arithmetic with IntPolynomial. The
triangle behind every count is checked against the binomial sum, the engine
it replaced, in any order of calls and bases, and the closed form,
one depth-first walk of the partition tree, against its two earlier forms,
kept verbatim: a loop over the partitions of n as tuples, and before it an
enumeration of every subset of {1, ..., n-1} depth first. The one walk gives
every rank up to n, each checked against that loop at its own rank. The
integer counts are checked against the plain sum over every column of each
row, and up to rank 120 against two congruences that need no second engine.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import accumulate, islice, zip_longest
from math import comb, factorial

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from subchains import chains, cli, qarith
from subchains.chains import (
    bounded_chains_closed_form,
    bounded_chains_poly,
    bounded_chains_recurrence,
    closed_form_counts,
    rooted_chains_poly,
)
from subchains.polynomial import IntPolynomial
from subchains.qarith import galois_number, gaussian_binomial, gaussian_binomial_poly

# Small primes and composites, and bases far beyond a machine word.
BASES = st.one_of(
    st.integers(2, 40),
    st.sampled_from([4, 6, 9, 10, 12, 1000003, 2**61 - 1, 10**18 + 9]),
)


@lru_cache(maxsize=None)
def ref_gaussian_row(n, p):
    # [n k] = [n k-1] (p^(n-k+1) - 1) / (p^k - 1); the quotient is [n k], so
    # every division is exact.
    row = [1]
    for k in range(1, n + 1):
        quot, rem = divmod(row[-1] * (p ** (n - k + 1) - 1), p**k - 1)
        assert rem == 0
        row.append(quot)
    return row


def ref_gaussian_binomial(n, k, p):
    return ref_gaussian_row(n, p)[k]


_ref_tables: dict[int, list[int]] = {}


def ref_bounded(n, p):
    table = _ref_tables.setdefault(p, [1])
    for m in range(len(table), n + 1):
        table.append(sum(ref_gaussian_binomial(m, k, p) * table[k] for k in range(m)))
    return table[n]


@lru_cache(maxsize=None)
def ref_ordered_bell(n):
    # b_n(1), the ordered set partitions of n elements, by the size k of the first block.
    return 1 if n == 0 else sum(comb(n, k) * ref_ordered_bell(n - k) for k in range(1, n + 1))


def _add(a, b):
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@lru_cache(maxsize=None)
def ref_gaussian_binomial_poly(n, k):
    # Ascending coefficients of [n k] by [n k] = [n-1 k-1] + X^k [n-1 k].
    if k == 0 or k == n:
        return (1,)
    return _add(ref_gaussian_binomial_poly(n - 1, k - 1), (0,) * k + ref_gaussian_binomial_poly(n - 1, k))


@lru_cache(maxsize=None)
def ref_bounded_poly(n):
    total = (1,) if n == 0 else ()
    for k in range(n):
        total = _add(total, _mul(ref_gaussian_binomial_poly(n, k), ref_bounded_poly(k)))
    return total


def ref_closed_form(n, p):
    # The closed form as it was: every subset of {1, ..., n-1} depth first.
    rows = [[1]]
    for _ in range(n):
        rows.append(qarith.q_pascal_step(rows[-1], p, n))
    total = 0
    stack = [(n, 1)]  # (lowest dimension of the subset's chain, its term)
    while stack:
        top, term = stack.pop()
        total += term
        for lower in range(1, top):
            stack.append((lower, term * rows[top][lower]))
    return total


def _partitions(n, least=1):
    """The partitions of n into parts >= least, each as its parts in non-decreasing order."""
    if n == 0:
        yield ()
    for part in range(least, n + 1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def ref_partition_sum(n, p):
    # The closed form as it was next: one loop over the partitions of n as tuples.
    rows = [[1]]
    for _ in range(n):
        rows.append(qarith.q_pascal_step(rows[-1], p, n))
    total = 0
    for parts in _partitions(n):
        term = factorial(len(parts))  # the compositions of n with these parts
        for part in set(parts):
            term //= factorial(parts.count(part))
        for s, part in zip(accumulate(parts), parts):
            term *= rows[s][part]
        total += term
    return total


@st.composite
def rank_pair(draw, max_n):
    n = draw(st.integers(0, max_n))
    return n, draw(st.integers(0, n))


@settings(deadline=None)
@given(rank_pair(60), BASES)
def test_binomial_matches_q_factorial_ratio(pair, p):
    n, k = pair
    assert gaussian_binomial(n, k, p) == ref_gaussian_binomial(n, k, p)


@settings(deadline=None)
@given(st.integers(0, 60), BASES)
def test_galois_number_matches_sum_of_ratios(n, p):
    assert galois_number(n, p) == sum(ref_gaussian_binomial(n, k, p) for k in range(n + 1))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 60), BASES)
@example(0, 2)
@example(1, 3)  # no pair: b_1 = [1 0] b_0
@example(2, 2)  # the middle term alone
@example(3, 5)
@example(4, 10**18 + 9)  # a pair and the middle term
@example(200, 2)  # count-deep's deepest points
@example(126, 7)
@example(57, 1000003)
def test_recurrence_matches_memoized_binomial_sums(n, p):
    chains.clear_caches()  # walk every rank up to n, pairing columns k and m-k
    assert bounded_chains_recurrence(n, p) == ref_bounded(n, p)


def admitted_rank(p, limit):
    """The largest rank up to limit whose count the count command admits at base p."""
    for n in range(limit, 0, -1):
        try:
            chains.check_count_bits(n, p)
        except ValueError:
            continue
        return n


@st.composite
def deep_point(draw):
    # Ranks up to 120, past the closed form's cap, where count admits them
    # (n <= 58 at 10^18 + 9: the rank-120 count there takes 20 s).
    p = draw(st.one_of(BASES, st.integers(2, 10**18 + 9)))
    return draw(st.integers(1, admitted_rank(p, 120))), p


@settings(deadline=None, max_examples=20)
@given(deep_point())
@example((120, 2))
@example((120, 3))
@example((100, 1000003))  # the output cap's last rank at 10^6 + 3
@example((admitted_rank(10**18 + 9, 120), 10**18 + 9))
def test_recurrence_satisfies_its_congruences(point):
    # [m k]_p = 1 mod p, so b_n = b_0 + ... + b_{n-1} = 2^(n-1) mod p; and
    # p = 1 mod p-1, so b_n(p) = b_n(1), the ordered Bell number, mod p-1.
    n, p = point
    b = bounded_chains_recurrence(n, p)
    assert b % p == pow(2, n - 1, p)
    assert b % (p - 1) == ref_ordered_bell(n) % (p - 1)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, chains.CLOSED_FORM_CAP), BASES)
@example(chains.CLOSED_FORM_CAP, 2)
@example(chains.CLOSED_FORM_CAP, 10**18 + 9)
def test_closed_form_matches_memoized_binomial_sums(n, p):
    assert bounded_chains_closed_form(n, p) == ref_bounded(n, p)


@st.composite
def closed_form_point(draw):
    # Ranks up to 16; the widest base only up to rank 12, where the
    # subset-walk reference stays fast.
    n = draw(st.integers(0, 16))
    wide = [10**18 + 9] if n <= 12 else []
    return n, draw(st.one_of(st.integers(2, 40), st.sampled_from([4, 6, 9, 10, 12, 1000003, *wide])))


@settings(deadline=None, max_examples=40)
@given(closed_form_point())
@example((12, 10**18 + 9))
@example((13, 2))
@example((14, 6))
@example((16, 13))
def test_closed_form_matches_depth_first_enumeration(point):
    n, p = point
    assert bounded_chains_closed_form(n, p) == ref_closed_form(n, p)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, chains.CLOSED_FORM_CAP), BASES)
@example(chains.CLOSED_FORM_CAP, 2)
@example(chains.CLOSED_FORM_CAP, 6)
@example(chains.CLOSED_FORM_CAP, 10**18 + 9)
def test_closed_form_matches_partition_loop(n, p):
    # One walk gives every rank up to n: each must match the loop run for that rank alone.
    counts = closed_form_counts(n, p)
    assert counts == [ref_partition_sum(k, p) for k in range(n + 1)]
    assert bounded_chains_closed_form(n, p) == counts[n]


@settings(deadline=None)
@given(rank_pair(24))
def test_binomial_poly_matches_pascal_products(pair):
    n, k = pair
    assert gaussian_binomial_poly(n, k).coeffs == ref_gaussian_binomial_poly(n, k)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 14))
@example(0)  # no odd coefficient
@example(1)
@example(2)  # b_2 = p + 2: one odd coefficient
def test_bounded_poly_matches_schoolbook_sum(n):
    assert bounded_chains_poly(n).coeffs == ref_bounded_poly(n)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 30), st.one_of(BASES, st.integers(2, 10**30)))
def test_bounded_poly_evaluates_to_the_recurrence(n, p):
    assert bounded_chains_poly(n).evaluate(p) == bounded_chains_recurrence(n, p)


@st.composite
def triangle_point(draw):
    # poly runs at shifts of half a coefficient digit: 92 for n = 40, 152 for
    # n = 60. The reference needs about 18 s for n = 80 at 2^160, so shifts
    # beyond a machine word stop at n = 32.
    shift = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 61, 64, 92, 152, 160, 184]))
    return draw(st.integers(0, 80 if shift <= 8 else 32)), shift


@settings(deadline=None, max_examples=60)
@given(triangle_point())
def test_triangle_matches_memoized_binomial_sums(point):
    # Every rank up to n; the reference's divisions stay exact at a negative base.
    n, shift = point
    for p in (2**shift, -(2**shift)):
        assert list(islice(chains._triangle(p), n + 1)) == [ref_bounded(k, p) for k in range(n + 1)]


def test_triangle_at_one_gives_ordered_bell_numbers():
    # OEIS A000670, the digit bound of the Kronecker unpacking.
    bell = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563]
    assert list(islice(chains._triangle(1), 11)) == bell
    assert list(islice(chains._triangle(1), 61)) == [ref_ordered_bell(n) for n in range(61)]


def test_deep_poly_evaluates_to_the_integer_engine():
    poly = bounded_chains_poly(60)
    for p in (2, 3, 10**18 + 9):
        assert poly.evaluate(p) == bounded_chains_recurrence(60, p)


def test_rooted_poly_is_twice_the_bounded_poly():
    for n in range(1, 15):
        assert rooted_chains_poly(n).coeffs == tuple(2 * c for c in ref_bounded_poly(n))


def test_deep_binomial_poly_needs_no_recursion():
    # The recursive Pascal build overflowed the interpreter stack here.
    assert gaussian_binomial_poly(1100, 1) == IntPolynomial([1] * 1100)
    assert gaussian_binomial_poly(1100, 1099) == IntPolynomial([1] * 1100)


@st.composite
def binomial_calls(draw):
    # What callers ask: row-order walks reading columns on both sides of n/2
    # across even and odd ranks, lone entries at or above the kept row's rank
    # (a step up) or below it (a walk from row 0), and a switch of base or of
    # modulus (exact, the certificate's primes, small ones that divide p or
    # p - 1) between any two of them.
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.sampled_from([2, 3, 4, 10, 1000003, 2**61 - 1]))
        modulus = draw(st.sampled_from([None, None, *chains.CERTIFICATE_MODULI, 2, 3, 5]))
        start = draw(st.integers(0, 40))
        if draw(st.booleans()):
            for n in range(start, start + draw(st.integers(1, 8))):
                calls += [(n, k, p, modulus) for k in draw(st.lists(st.integers(0, n), min_size=1, max_size=4))]
        else:
            calls.append((start, draw(st.integers(0, start)), p, modulus))
    return calls


def ref_residue(n, k, p, modulus):
    exact = ref_gaussian_binomial(n, k, p)
    return exact if modulus is None else exact % modulus


def ref_residue_half_row(n, p, modulus):
    return [ref_residue(n, k, p, modulus) for k in range(n // 2 + 1)]


@settings(deadline=None, max_examples=60)
@given(binomial_calls(), st.integers(2, 40), st.sampled_from([2, 3, 10, 1000003]))
@example([(n, k, 3, None) for n in range(10) for k in reversed(range(n + 1))], 9, 3)
@example([(40, 20, 5, None), (41, 3, 5, None), (42, 40, 5, None), (200, 1, 5, None), (43, 21, 5, None)], 2, 5)
@example([(44, 2, 5, None), (44, 2, 5, 7), (44, 22, 5, 7), (45, 3, 5, 5), (46, 23, 5, 2), (44, 22, 7, None)], 2, 5)
@example([(n, k, 2, None) for n, k in [(7, 4), (8, 5), (9, 1), (10, 6), (12, 3), (12, 9)]], 40, 2)
@example([(10, 5, 3, None), (30, 2, 3, None), (12, 6, 3, None)], 20, 3)
@example([(30, 2, 3, 1073741789), (31, 15, 3, None), (31, 15, 3, 1073741789)], 20, 3)
def test_half_row_layer_matches_exact_division_in_any_call_order(calls, n, p):
    chains.clear_caches()
    for m, k, q, modulus in calls:
        assert gaussian_binomial(m, k, q, modulus) == ref_residue(m, k, q, modulus)
    # The recurrence walks the half rows of ranks 2..n mod its prime and stores no entry.
    modulus = chains.certificate_modulus(p)
    assert bounded_chains_recurrence(n, p) == ref_bounded(n, p)
    assert qarith._row == (p, modulus, n, ref_residue_half_row(n, p, modulus))
    assert gaussian_binomial.cache_info().currsize == 0


def test_kept_row_steps_up_from_any_lower_rank(monkeypatch):
    # One rule: the kept half row steps up to row n when it is at base p,
    # the same modulus and rank <= n; any other read walks from row 0. Either
    # way row n is kept.
    steps = []
    step = qarith.q_pascal_step

    def counted(row, p, width, modulus=None):
        steps.append(width)
        return step(row, p, width, modulus)

    monkeypatch.setattr(qarith, "q_pascal_step", counted)
    chains.clear_caches()
    L = chains.certificate_modulus(3)
    assert bounded_chains_recurrence(40, 3) == ref_bounded(40, 3)
    assert qarith._row == (3, L, 40, ref_residue_half_row(40, 3, L))
    for n, k, p, modulus, walked in [(45, 20, 3, L, 5), (200, 1, 3, L, 155), (12, 6, 3, L, 12), (12, 6, 3, None, 12)]:
        steps.clear()
        assert gaussian_binomial(n, k, p, modulus) == ref_residue(n, k, p, modulus)
        assert (len(steps), qarith._row[:3]) == (walked, (p, modulus, n))
    # Reading every entry of rows 0..40 in order: one restart, then one step per row.
    for modulus in (None, L):
        steps.clear()
        for n in range(41):
            got = [gaussian_binomial(n, k, 3, modulus) for k in range(n + 1)]
            assert got == [ref_residue(n, k, 3, modulus) for k in range(n + 1)]
        assert len(steps) == 40
    reads = [(41, 20, 3, L), (41, 20, 3, None), (41, 7, 5, None), (43, 21, 3, 7), (44, 22, 3, None), (3, 1, 3, None)]
    for n, k, p, modulus in reads:
        assert gaussian_binomial(n, k, p, modulus) == ref_residue(n, k, p, modulus)


def test_recurrence_resumes_its_walk_after_a_wide_read_at_another_base():
    # A library caller may read whole rows at other bases between recurrence calls.
    chains.clear_caches()
    assert bounded_chains_recurrence(50, 3) == ref_bounded(50, 3)
    assert gaussian_binomial(40, 20, 5) == ref_gaussian_binomial(40, 20, 5)
    assert qarith._row == (5, None, 40, ref_residue_half_row(40, 5, None))
    assert bounded_chains_recurrence(52, 3) == ref_bounded(52, 3)
    L = chains.certificate_modulus(3)
    assert qarith._row == (3, L, 52, ref_residue_half_row(52, 3, L))


def test_verify_census_leaves_the_kept_row_alone(capsys, monkeypatch):
    chains.clear_caches()
    assert bounded_chains_recurrence(50, 3) == ref_bounded(50, 3)
    reads = []
    binomial = qarith.gaussian_binomial

    def recorded(n, k, p, modulus=None):
        reads.append((n, k, p, modulus))
        return binomial(n, k, p, modulus)

    monkeypatch.setattr(qarith, "gaussian_binomial", recorded)
    assert cli.main(["verify", "--oracle", "3:4"]) == 0
    capsys.readouterr()
    # Ranks 1-4 restart the stream below rank 50, and only its certificate reads
    # the binomial layer, columns 1..m/2 of rows 2-4 mod its prime: the census reads its own rows.
    L = chains.certificate_modulus(3)
    assert reads == [(m, k, 3, L) for m in range(2, 5) for k in range(1, m // 2 + 1)]
    assert qarith._row[:3] == (3, L, 4)


def test_polynomials_leave_the_integer_engine_alone(pulls):
    chains.clear_caches()
    assert bounded_chains_recurrence(30, 3) == ref_bounded(30, 3)
    row = qarith._row
    sizes = gaussian_binomial.cache_info().currsize, gaussian_binomial_poly.cache_info().currsize
    assert bounded_chains_poly(20).evaluate(3) == ref_bounded(20, 3)
    assert qarith._row is row
    assert (gaussian_binomial.cache_info().currsize, gaussian_binomial_poly.cache_info().currsize) == sizes
    # The count kept before the polynomial is still kept: rank 30 pulls none, rank 31 one.
    pulls.clear()
    assert bounded_chains_recurrence(30, 3) == ref_bounded(30, 3)
    assert pulls == []
    assert bounded_chains_recurrence(31, 3) == ref_bounded(31, 3)
    assert pulls == [3]


def test_memo_keeps_only_the_most_recent_base(pulls):
    # Each call pulls the ranks it adds to the kept stream, or all n + 1 when it starts again.
    chains.clear_caches()
    for n, p, pulled in [(30, 5, 31), (20, 7, 21), (31, 5, 32), (31, 5, 0), (40, 5, 9), (12, 5, 13), (9, 4, 10)]:
        pulls.clear()
        assert bounded_chains_recurrence(n, p) == ref_bounded(n, p)
        assert pulls == [p] * pulled


# Powers of two (each step a shift), composites, and a base beyond a machine word.
RECURRENCE_BASES = st.sampled_from([2, 4, 32, 2**64, 6, 9, 10, 12, 35, 1000003 * 3, 10**18 + 9])


@st.composite
def recurrence_calls(draw):
    # Runs of ranks at one base, each ascending, descending, one rank repeated
    # or as drawn; then maybe every call shuffled, interleaving the bases.
    calls = []
    for _ in range(draw(st.integers(1, 4))):
        p = draw(RECURRENCE_BASES)
        ranks = draw(st.lists(st.integers(0, 80), min_size=1, max_size=5))
        order = draw(st.sampled_from(["ascending", "descending", "repeated", "drawn"]))
        if order == "repeated":
            ranks = ranks[:1] * 3
        elif order != "drawn":
            ranks.sort(reverse=order == "descending")
        calls += [(n, p) for n in ranks]
    return draw(st.permutations(calls)) if draw(st.booleans()) else calls


# The pulls fixture's list is shared by the examples; each one starts cold and clears it.
@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(recurrence_calls())
@example([(n, 2) for n in range(81)])
@example([(80, 10**18 + 9), (79, 10**18 + 9), (80, 10**18 + 9)])
@example([(40, 6), (41, 4), (42, 6), (10, 6), (10, 6), (43, 4)])
def test_recurrence_matches_binomial_sums_in_any_call_order(pulls, calls):
    # The memo keeps one base's stream and restarts below its rank, so every
    # order must give the binomial sum's value, pulling only the ranks it adds
    # to the kept (p, n) or all n + 1 when it starts again.
    chains.clear_caches()
    kept_p, kept_n = None, 0
    for n, p in calls:
        pulls.clear()
        assert bounded_chains_recurrence(n, p) == ref_bounded(n, p)
        assert len(pulls) == (n - kept_n if p == kept_p and kept_n <= n else n + 1)
        kept_p, kept_n = p, n


@pytest.mark.parametrize("p", [chains.CERTIFICATE_MODULI[0], chains.CERTIFICATE_MODULI[0] + 1])
def test_a_base_0_or_1_mod_the_first_prime_is_certified_by_another(p, monkeypatch, off_at_rank, pulls):
    # There every power of p is 0 or 1 mod the first prime, so the certificate
    # takes the next prime of the list, and sees a triangle off by a multiple of the first.
    modulus = chains.certificate_modulus(p)
    assert modulus in chains.CERTIFICATE_MODULI[1:] and p % modulus > 1
    chains.clear_caches()
    assert bounded_chains_recurrence(20, p) == ref_bounded(20, p)
    off_at_rank(9, chains.CERTIFICATE_MODULI[0])
    chains.clear_caches()
    with pytest.raises(chains.CertificateError, match=f"rank n=9, base p={p}: .* mod {modulus},"):
        bounded_chains_recurrence(20, p)
    # The failed stream is not kept: with the triangle mended, the same call
    # starts again from rank 0 and is right.
    monkeypatch.undo()
    pulls.clear()
    assert bounded_chains_recurrence(20, p) == ref_bounded(20, p)
    assert len(pulls) == 21


# The product of the certificate's primes: it, one more and twice it are 0 or 1 mod every one of them.
ALL_PRIMES = chains.CERTIFICATE_MODULI[0] * chains.CERTIFICATE_MODULI[1] * chains.CERTIFICATE_MODULI[2]


@pytest.mark.parametrize("p", [ALL_PRIMES, ALL_PRIMES + 1, 2 * ALL_PRIMES])
def test_a_base_0_or_1_mod_every_prime_is_certified_by_the_last(p, off_at_rank):
    # No prime of the list sees an exponent here, so the certificate falls
    # back to the last one and steps its half rows at the residue base p mod L,
    # 0 or 1, where every power of p is 0 or 1.
    last = chains.CERTIFICATE_MODULI[-1]
    assert {p % prime for prime in chains.CERTIFICATE_MODULI} == {p % last} <= {0, 1}
    assert chains.certificate_modulus(p) == last
    chains.clear_caches()
    assert bounded_chains_recurrence(40, p) == ref_bounded(40, p)
    assert qarith._row == (p, last, 40, ref_residue_half_row(40, p, last))
    # That call passed the check mod L at every rank, and the check is live
    # there: a triangle off by the first prime at rank 33 alone is caught, mod the last.
    off_at_rank(33, chains.CERTIFICATE_MODULI[0])
    chains.clear_caches()
    with pytest.raises(chains.CertificateError, match=f"rank n=33, base p={p}: .* mod {last},"):
        bounded_chains_recurrence(40, p)


def test_an_interrupted_advance_is_not_kept(monkeypatch, off_at_rank, pulls):
    # Only a stream that reaches its rank is kept; one stopped mid-rank, by
    # any exception, is dropped with the rank 5 it advanced from, and the
    # next call starts again from rank 0. The fault is in the stream the
    # memo keeps from rank 5, so it is patched in before that stream starts.
    off_at_rank(10, KeyboardInterrupt)
    chains.clear_caches()
    assert bounded_chains_recurrence(5, 3) == ref_bounded(5, 3)
    with pytest.raises(KeyboardInterrupt):
        bounded_chains_recurrence(20, 3)
    monkeypatch.undo()
    pulls.clear()
    assert bounded_chains_recurrence(20, 3) == ref_bounded(20, 3)
    assert len(pulls) == 21


def test_threads_switching_bases_get_exact_counts():
    # Every job on a new base resets the one-base memo and moves the kept
    # binomial row under the others' feet; the polynomial half of each job
    # runs the triangle alongside, holding no lock and sharing no state.
    jobs = [(n, p) for n in (25, 40) for p in (2, 3, 10)] * 4
    expected = [(ref_bounded(n, p), ref_bounded(n // 2, p)) for n, p in jobs]

    def job(n, p):
        return bounded_chains_recurrence(n, p), bounded_chains_poly(n // 2).evaluate(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(lambda args: job(*args), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
