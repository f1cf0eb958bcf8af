import gc
import inspect
import math
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from time import perf_counter

import pytest

from conftest import SRC
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


def test_domain_violations():
    with pytest.raises(ValueError):
        bounded_chains_recurrence(3, 1)
    with pytest.raises(ValueError):
        bounded_chains_recurrence(-1, 2)
    with pytest.raises(ValueError):
        bounded_chains_closed_form(3, 0)
    for p in (1, -5):  # the recurrence answers rank 0 too, so it checks the base there
        with pytest.raises(ValueError, match=f"base p must be >= 2, got {p}"):
            chain_counts(0, p)
    with pytest.raises(ValueError, match="rank n must be >= 0"):  # the rank before the base
        chain_counts(-1, 1)
    with pytest.raises(ValueError, match="rank n must be >= 0"):
        rooted_chains_poly(-1)


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
    # Over several bases the bits add up: one base of 10^109 + 1 fits at rank 24, with a second or with 2 beside it not.
    wide = 10**109 + 1
    chains.check_count_bits(24, wide)
    for bases in ((wide, wide), (wide, 2)):
        with pytest.raises(ValueError, match=f"over {COUNT_BITS_CAP} bits in all"):
            chains.check_count_bits(24, *bases)


def test_refusals_show_wide_values_under_the_default_digit_limit():
    # A fresh interpreter keeps the int-to-str digit limit (4,300 digits on 3.10.7+) that the CLI lifts,
    # as a library caller does: each check must still raise its own refusal, not the limit's error.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); from subchains import chains\n"
        "wide = 10**5000\n"
        "for check in (lambda: chains.check_count_bits(24, wide), lambda: chains.check_closed_form_rank(wide)):\n"
        "    try:\n"
        "        check()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    command = [sys.executable, "-I", "-S", "-c", probe, str(SRC)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "n=24 at p=100000000000...0000 (5001 digits) exceeds the output cap: over 100000 bits in all",
        "n=100000000000...0000 (5001 digits) exceeds the closed-form enumeration cap of 24",
    ]


def test_bounded_poly_examples():
    assert bounded_chains_poly(0) == ONE
    assert bounded_chains_poly(2) == IntPolynomial([2, 1])
    assert bounded_chains_poly(3) == IntPolynomial([4, 4, 4, 1])


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
    # The coefficients sum to b_n(1), the bound that sets the digit's width.
    width = -(-sum(bounded_chains_poly(n).coeffs).bit_length() // 8)
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


def test_clear_caches_leaves_the_engine_cold(pulls):
    chain_counts(6, 3)
    rooted_chains_poly(4)
    qarith.gaussian_binomial_poly(4, 2)
    chains.clear_caches()
    info = qarith.gaussian_binomial.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert qarith.gaussian_binomial_poly.cache_info().currsize == 0
    assert qarith._row == (None, None, 0, [1])
    # Cold: the same count pulls every rank again.
    pulls.clear()
    chain_counts(6, 3)
    assert len(pulls) == 7
    # qarith's reset alone leaves the recurrence memo warm: rank 6 again pulls none, rank 7 one.
    qarith.gaussian_binomial_poly(4, 2)
    qarith.clear_caches()
    assert qarith._row == (None, None, 0, [1])
    assert qarith.gaussian_binomial.cache_info().misses == 0
    assert qarith.gaussian_binomial_poly.cache_info().misses == 0
    pulls.clear()
    chain_counts(6, 3)
    assert pulls == []
    chain_counts(7, 3)
    assert pulls == [3]


def test_memory_stays_bounded_over_many_bases():
    # A long-lived process asked about many bases holds about what one base
    # costs: the engine keeps the most recent base's stream only.
    bases = range(2, 22)
    tracemalloc.start()
    try:
        chains.clear_caches()
        chain_counts(150, max(bases))
        gc.collect()
        single = tracemalloc.get_traced_memory()[0]
        for p in bases:
            chain_counts(150, p)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.5 * single


def test_a_suspended_triangle_holds_its_antidiagonal_and_powers_only():
    # Between ranks the generator keeps antidiagonal m and the powers p^e, and
    # no stale big integer of the step that built them: here the step's last
    # partial sum and the entry it replaced would hold 27 KB more.
    tracemalloc.start()
    try:
        stream = chains._triangle(10**6 + 3)
        b = next(islice(stream, 100, None))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    local = inspect.getgeneratorlocals(stream)
    diag, powers = local["diag"], local["powers"]
    assert b is diag[0] and len(diag) == len(powers) == 101
    kept = sys.getsizeof(diag) + sys.getsizeof(powers) + sum(map(sys.getsizeof, diag + powers))
    assert held < kept + 4096


def test_concurrent_evaluation_matches_serial():
    serial = {(n, p): bounded_chains_recurrence(n, p) for p in (2, 3, 5, 7) for n in (40, 55, 60)}
    chains.clear_caches()
    jobs = sorted(serial, reverse=True) * 3
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda job: (job, bounded_chains_recurrence(*job)), jobs))
    for job, value in results:
        assert value == serial[job]
