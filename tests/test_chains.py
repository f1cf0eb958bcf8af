import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import pytest

from subchains import chains, qarith
from subchains.chains import (
    CLOSED_FORM_CAP,
    COUNT_BITS_CAP,
    POLY_BITS_CAP,
    ChainCounts,
    bounded_chains_closed_form,
    bounded_chains_poly,
    bounded_chains_recurrence,
    chain_counts,
    rooted_chains_poly,
)
from subchains.polynomial import ONE, IntPolynomial

# Rooted-chain polynomials for ranks 0..4, ascending coefficients.
FIRST_TERMS = {
    0: (1,),
    1: (2,),
    2: (4, 2),
    3: (8, 8, 8, 2),
    4: (16, 24, 36, 36, 24, 12, 2),
}


@pytest.mark.parametrize("n,p,expected", [(0, 2, 1), (2, 2, 4), (3, 2, 36)])
def test_recurrence_examples(n, p, expected):
    assert bounded_chains_recurrence(n, p) == expected


@pytest.mark.parametrize("n,p,expected", [(1, 5, 1), (2, 3, 5), (4, 2, 696), (0, 2, 1), (1, 7, 1), (3, 2, 36)])
def test_closed_form_examples(n, p, expected):
    assert bounded_chains_closed_form(n, p) == expected


@pytest.mark.parametrize(
    "n,p,expected",
    [
        (0, 2, ChainCounts(1, 0, 1)),
        (1, 7, ChainCounts(2, 1, 3)),
        (3, 2, ChainCounts(72, 71, 143)),
    ],
)
def test_chain_counts_examples(n, p, expected):
    assert chain_counts(n, p) == expected


def test_methods_agree_on_small_grid():
    for p in (2, 3, 5, 7):
        for n in range(10):
            assert bounded_chains_recurrence(n, p) == bounded_chains_closed_form(n, p)


def test_domain_violations():
    with pytest.raises(ValueError):
        bounded_chains_recurrence(3, 1)
    with pytest.raises(ValueError):
        bounded_chains_recurrence(-1, 2)
    with pytest.raises(ValueError):
        bounded_chains_closed_form(3, 0)
    for p in (1, -5):  # rank 0 needs no recurrence step, but its base is still checked
        with pytest.raises(ValueError, match=f"base p must be >= 2, got {p}"):
            chain_counts(0, p)


def test_closed_form_cap():
    start = perf_counter()
    with pytest.raises(ValueError, match=f"cap of {CLOSED_FORM_CAP}"):
        bounded_chains_closed_form(CLOSED_FORM_CAP + 1, 2)
    assert perf_counter() - start < 0.1


def test_output_caps():
    # The last admitted ranks, from the cheap bounds in bits; a rank too large
    # for a float is refused, not overflowed.
    for p, n in ((2, 447), (3, 355), (1000003, 100)):
        chains.check_count_bits(n, p)
        assert n * (n - 1) / 2 * math.log2(p) <= COUNT_BITS_CAP
        with pytest.raises(ValueError, match=f"p={p} exceeds the output cap"):
            chains.check_count_bits(n + 1, p)
    chains.check_poly_bits(166)
    with pytest.raises(ValueError, match=f"over {POLY_BITS_CAP} bits"):
        chains.check_poly_bits(167)
    for check in (lambda n: chains.check_count_bits(n, 2), chains.check_poly_bits):
        with pytest.raises(ValueError, match="cap"):
            check(10**400)
    chains.check_count_bits(0, 10**400)
    chains.check_poly_bits(0)
    with pytest.raises(ValueError, match=">= 2"):
        chains.check_count_bits(0, 1)


def test_bounded_poly_examples():
    assert bounded_chains_poly(0) == ONE
    assert bounded_chains_poly(2) == IntPolynomial([2, 1])
    assert bounded_chains_poly(3) == IntPolynomial([4, 4, 4, 1])


def test_rooted_poly_first_terms():
    for n, coeffs in FIRST_TERMS.items():
        assert rooted_chains_poly(n) == IntPolynomial(coeffs)


def test_polynomial_numeric_coherence():
    for n in range(11):
        poly = bounded_chains_poly(n)
        for p in (2, 3, 5, 7, 11):
            assert poly.evaluate(p) == bounded_chains_recurrence(n, p)


def test_counts_satisfy_identities():
    for p in (2, 3, 5):
        for n in range(8):
            c = chain_counts(n, p)
            assert c.rooted == c.unrooted + 1
            assert c.total == c.rooted + c.unrooted == 2 * c.rooted - 1


def test_from_rooted():
    assert ChainCounts.from_rooted(1) == ChainCounts(1, 0, 1)
    assert ChainCounts.from_rooted(72) == ChainCounts(72, 71, 143)
    counts = chain_counts(3, 2)
    assert repr(counts) == "ChainCounts(rooted=72, unrooted=71, total=143)"
    rooted, unrooted, total = counts
    assert counts == (rooted, unrooted, total) == (72, 71, 143)
    with pytest.raises(AttributeError):
        counts.rooted = 0


def test_degree_law_and_extreme_coefficients():
    for n in range(1, 11):
        poly = rooted_chains_poly(n)
        assert poly.degree == n * (n - 1) // 2
        assert poly.coeffs[-1] == 2
        assert poly.coeffs[0] == 2**n


def test_rooted_poly_60_within_the_target():
    start = perf_counter()
    poly = rooted_chains_poly(60)
    assert perf_counter() - start < 0.3
    assert poly.degree == 1770
    assert poly.coeffs[-1] == 2
    assert poly.coeffs[0] == 2**60


def test_poly_60_holds_half_width_kronecker_integers():
    # The triangle runs at p = +-2^(4 * width), half a coefficient digit, so the
    # traced peak stays well under (n+1) integers of the full width
    # (n(n-1)/2 + 1) * width bytes, which evaluating at 2^(8 * width) held.
    n = 60
    width = -(-chains._triangle(n, 0).bit_length() // 8)
    full = (n * (n - 1) // 2 + 1) * width
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bounded_chains_poly(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * (n + 1) * full


def test_rooted_count_strictly_increases_in_rank():
    for p in (2, 3):
        values = [chain_counts(n, p).rooted for n in range(11)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_rooted_count_strictly_increases_in_base():
    for n in range(2, 9):
        values = [chain_counts(n, p).rooted for p in (2, 3, 5, 7, 11)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_clear_caches_leaves_the_engine_cold():
    chain_counts(6, 3)
    rooted_chains_poly(4)
    qarith.gaussian_binomial_poly(4, 2)
    chains.clear_caches()
    info = qarith.gaussian_binomial.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert qarith.gaussian_binomial_poly.cache_info().currsize == 0
    assert qarith._row == (0, 0, [1])
    assert chains._memo == (0, [1])
    # qarith's reset alone leaves the recurrence memo warm.
    chain_counts(6, 3)
    qarith.gaussian_binomial_poly(4, 2)
    memo = chains._memo
    qarith.clear_caches()
    assert qarith._row == (0, 0, [1])
    assert qarith.gaussian_binomial.cache_info().misses == 0
    assert qarith.gaussian_binomial_poly.cache_info().misses == 0
    assert chains._memo is memo and memo[0] == 3


def test_concurrent_evaluation_matches_serial():
    serial = {(n, p): bounded_chains_recurrence(n, p) for p in (2, 3, 5, 7) for n in (40, 55, 60)}
    chains.clear_caches()
    jobs = sorted(serial, reverse=True) * 3
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda job: (job, bounded_chains_recurrence(*job)), jobs))
    for job, value in results:
        assert value == serial[job]
