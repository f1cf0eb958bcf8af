"""Differential tests: the q-Pascal row engine and the product-free triangle
against the engines they replaced.

The references below are the earlier implementations, kept here verbatim in
spirit: Gaussian binomials by exact division (a row at a time, from the
ratio of neighbouring entries, so independent of the q-Pascal step), the bounded
count as a memoized sum over those binomials, and the bounded polynomial as a
sum of schoolbook products over Pascal-built q-binomials. The polynomial
references are plain ascending coefficient tuples with their own addition and
product, so they share no arithmetic with IntPolynomial. The
triangle behind the polynomials is also checked against the integer
recurrence, the engine the polynomials used before it, and the closed form
against its earlier depth-first enumeration, kept verbatim. The recurrence,
which pairs the symmetric columns of each row, is checked against the plain
sum over every column, and up to rank 120 against two congruences that need
no second engine.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import zip_longest

from hypothesis import example, given, settings, strategies as st

from subchains import chains, cli, qarith
from subchains.chains import (
    bounded_chains_closed_form,
    bounded_chains_poly,
    bounded_chains_recurrence,
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
@example((admitted_rank(10**18 + 9, 120), 10**18 + 9))
def test_recurrence_satisfies_its_congruences(point):
    # [m k]_p = 1 mod p, so b_n = b_0 + ... + b_{n-1} = 2^(n-1) mod p; and
    # p = 1 mod p-1, so b_n(p) = b_n(1), the triangle at p = 1, mod p-1.
    n, p = point
    b = bounded_chains_recurrence(n, p)
    assert b % p == pow(2, n - 1, p)
    assert b % (p - 1) == chains._triangle(n, 0) % (p - 1)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 9), BASES)
def test_closed_form_matches_memoized_binomial_sums(n, p):
    assert bounded_chains_closed_form(n, p) == ref_bounded(n, p)


@st.composite
def closed_form_point(draw):
    # Ranks below, at and above the breadth-first switch; the widest base only
    # where the depth-first reference stays fast.
    n = draw(st.integers(0, 16))
    wide = [10**18 + 9] if n <= 12 else []
    return n, draw(st.one_of(st.integers(2, 40), st.sampled_from([4, 6, 9, 10, 12, 1000003, *wide])))


BOUND = chains._BREADTH_FIRST_BOUND


@settings(deadline=None, max_examples=40)
@given(closed_form_point())
@example((BOUND, 10**18 + 9))
@example((BOUND + 1, 2))
@example((BOUND + 2, 6))
@example((16, 13))
def test_closed_form_matches_depth_first_enumeration(point):
    n, p = point
    assert bounded_chains_closed_form(n, p) == ref_closed_form(n, p)


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
    n, shift = point
    assert chains._triangle(n, shift) == ref_bounded(n, 2**shift)
    # The reference's divisions stay exact at a negative base.
    assert chains._triangle(n, shift, -1) == ref_bounded(n, -(2**shift))


def test_triangle_at_one_gives_ordered_bell_numbers():
    # OEIS A000670, the digit bound of the Kronecker unpacking.
    bell = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563]
    assert [chains._triangle(n, 0) for n in range(11)] == bell


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
    # (a step up) or below it (a walk from row 0), and a switch of base
    # between any two of them.
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.sampled_from([2, 3, 4, 10, 1000003, 2**61 - 1]))
        start = draw(st.integers(0, 40))
        if draw(st.booleans()):
            for n in range(start, start + draw(st.integers(1, 8))):
                calls += [(n, k, p) for k in draw(st.lists(st.integers(0, n), min_size=1, max_size=4))]
        else:
            calls.append((start, draw(st.integers(0, start)), p))
    return calls


@settings(deadline=None, max_examples=60)
@given(binomial_calls(), st.integers(2, 40), st.sampled_from([2, 3, 10, 1000003]))
@example([(n, k, 3) for n in range(10) for k in reversed(range(n + 1))], 9, 3)
@example([(40, 20, 5), (41, 3, 5), (42, 40, 5), (200, 1, 5), (43, 21, 5), (44, 2, 5), (44, 22, 7)], 2, 5)
@example([(7, 4, 2), (8, 5, 2), (9, 1, 2), (10, 6, 2), (12, 3, 2), (12, 9, 2)], 40, 2)
@example([(10, 5, 3), (30, 2, 3), (12, 6, 3)], 20, 3)
def test_half_row_layer_matches_exact_division_in_any_call_order(calls, n, p):
    chains.clear_caches()
    for m, k, q in calls:
        assert gaussian_binomial(m, k, q) == ref_gaussian_binomial(m, k, q)
    # The recurrence walks the half rows of ranks 2..n and stores no entry.
    assert bounded_chains_recurrence(n, p) == ref_bounded(n, p)
    assert qarith._row == (p, n, [ref_gaussian_binomial(n, k, p) for k in range(n // 2 + 1)])
    assert gaussian_binomial.cache_info().currsize == 0


def test_kept_row_steps_up_from_any_lower_rank(monkeypatch):
    # One rule: the kept half row steps up to row n when it is at base p and
    # rank <= n; any other read walks from row 0. Either way row n is kept.
    steps = []
    step = qarith.q_pascal_step

    def counted(row, p, width):
        steps.append(width)
        return step(row, p, width)

    monkeypatch.setattr(qarith, "q_pascal_step", counted)
    chains.clear_caches()
    assert bounded_chains_recurrence(40, 3) == ref_bounded(40, 3)
    assert qarith._row == (3, 40, [ref_gaussian_binomial(40, k, 3) for k in range(21)])
    for n, k, p, walked in [(45, 20, 3, 5), (200, 1, 3, 155), (12, 6, 3, 12)]:
        steps.clear()
        assert gaussian_binomial(n, k, p) == ref_gaussian_binomial(n, k, p)
        assert (len(steps), qarith._row[:2]) == (walked, (p, n))
    # Reading every entry of rows 0..40 in order: one restart, then one step per row.
    steps.clear()
    for n in range(41):
        assert [gaussian_binomial(n, k, 3) for k in range(n + 1)] == [ref_gaussian_binomial(n, k, 3) for k in range(n + 1)]
    assert len(steps) == 40
    for n, k, p in [(41, 20, 3), (41, 7, 5), (43, 21, 3), (44, 22, 3), (3, 1, 3)]:
        assert gaussian_binomial(n, k, p) == ref_gaussian_binomial(n, k, p)


def test_recurrence_resumes_its_walk_after_a_wide_read_at_another_base():
    # A library caller may read whole rows at other bases between recurrence calls.
    chains.clear_caches()
    assert bounded_chains_recurrence(50, 3) == ref_bounded(50, 3)
    assert gaussian_binomial(40, 20, 5) == ref_gaussian_binomial(40, 20, 5)
    assert qarith._row == (5, 40, [ref_gaussian_binomial(40, k, 5) for k in range(21)])
    assert bounded_chains_recurrence(52, 3) == ref_bounded(52, 3)
    assert qarith._row == (3, 52, [ref_gaussian_binomial(52, k, 3) for k in range(27)])


def test_verify_census_leaves_the_kept_row_alone(capsys):
    chains.clear_caches()
    assert bounded_chains_recurrence(50, 3) == ref_bounded(50, 3)
    assert cli.main(["verify", "--oracle", "3:4"]) == 0
    capsys.readouterr()
    assert qarith._row[:2] == (3, 50)


def test_polynomials_leave_the_integer_engine_alone():
    chains.clear_caches()
    assert bounded_chains_recurrence(30, 3) == ref_bounded(30, 3)
    row, memo = qarith._row, (chains._memo[0], list(chains._memo[1]))
    sizes = gaussian_binomial.cache_info().currsize, gaussian_binomial_poly.cache_info().currsize
    assert bounded_chains_poly(20).evaluate(3) == ref_bounded(20, 3)
    assert qarith._row is row
    assert chains._memo == memo
    assert (gaussian_binomial.cache_info().currsize, gaussian_binomial_poly.cache_info().currsize) == sizes


def test_memo_keeps_only_the_most_recent_base():
    assert bounded_chains_recurrence(30, 5) == ref_bounded(30, 5)
    assert bounded_chains_recurrence(20, 7) == ref_bounded(20, 7)
    assert chains._memo == (7, [ref_bounded(m, 7) for m in range(21)])
    assert bounded_chains_recurrence(31, 5) == ref_bounded(31, 5)
    assert bounded_chains_recurrence(12, 5) == ref_bounded(12, 5)


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
