import gc
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from subchains import qarith
from subchains.polynomial import ONE, IntPolynomial
from subchains.qarith import brief, galois_number, gaussian_binomial, gaussian_binomial_poly

PRIMES = (2, 3, 5, 7, 11)


def product_loop(r, p):
    # independent of the library: a literal product over s = 1..r
    out = 1
    for s in range(1, r + 1):
        out *= p**s - 1
    return out


@pytest.mark.parametrize(
    "n,k,p,expected",
    [(2, 1, 2, 3), (3, 1, 2, 7), (4, 2, 2, 35), (5, 0, 7, 1)],
)
def test_gaussian_binomial_examples(n, k, p, expected):
    assert gaussian_binomial(n, k, p) == expected


def test_gaussian_binomial_rejects_out_of_range():
    column = r"k must satisfy 0 <= k <= n, got k=4, n=3"
    with pytest.raises(ValueError, match="got k=-1, n=3"):
        gaussian_binomial(3, -1, 2)
    with pytest.raises(ValueError, match=column):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(ValueError, match="base p must be >= 2"):
        gaussian_binomial(3, 1, 1)
    # the column is checked before the base
    with pytest.raises(ValueError, match=column):
        gaussian_binomial(3, 4, 1)
    for k in (-1, 4):
        with pytest.raises(ValueError, match=f"got k={k}, n=3"):
            gaussian_binomial_poly(3, k)
    # The kept row answers no call that its checks would refuse: not at base 0 from cold,
    # nor a column outside row 3 or a modulus below 2 with row 3 kept.
    qarith.clear_caches()
    with pytest.raises(ValueError, match="base p must be >= 2, got 0"):
        gaussian_binomial(0, 0, 0)
    assert gaussian_binomial(3, 1, 2) == 7
    with pytest.raises(ValueError, match=column):
        gaussian_binomial(3, 4, 2)
    for modulus in (1, 0, -7):
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {modulus}"):
            gaussian_binomial(3, 1, 2, modulus)


def test_symmetry_on_grid():
    for p in PRIMES:
        for n in range(11):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, p) == gaussian_binomial(n, n - k, p)


def test_exact_divisibility_on_grid():
    for p in PRIMES:
        for n in range(11):
            for k in range(n + 1):
                assert product_loop(n, p) % (product_loop(k, p) * product_loop(n - k, p)) == 0


def test_gaussian_binomial_poly_examples():
    assert gaussian_binomial_poly(2, 1) == IntPolynomial([1, 1])
    assert gaussian_binomial_poly(6, 0) == ONE
    assert gaussian_binomial_poly(6, 6) == ONE
    assert gaussian_binomial_poly(4, 2) == IntPolynomial([1, 1, 2, 1, 1])


def test_gaussian_binomial_poly_rejects_out_of_range():
    with pytest.raises(ValueError):
        gaussian_binomial_poly(3, 5)


def test_polynomial_numeric_coherence_on_grid():
    for n in range(11):
        for k in range(n + 1):
            poly = gaussian_binomial_poly(n, k)
            for p in PRIMES:
                assert poly.evaluate(p) == gaussian_binomial(n, k, p)


def test_gaussian_binomial_poly_coefficients_nonnegative():
    for n in range(11):
        for k in range(n + 1):
            assert all(c >= 0 for c in gaussian_binomial_poly(n, k).coeffs)


def test_gaussian_binomial_poly_symmetric():
    for n in range(11):
        for k in range(n + 1):
            assert gaussian_binomial_poly(n, k) == gaussian_binomial_poly(n, n - k)


def test_gaussian_binomial_poly_keeps_no_polynomial():
    gaussian_binomial_poly.cache_clear()
    tracemalloc.start()
    try:
        for n in range(100, 110):
            gaussian_binomial_poly(n, n // 2)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert gaussian_binomial_poly.cache_info().currsize == 0
    assert held < 0.1 * 2**20


def test_galois_number_small_values():
    assert galois_number(0, 2) == 1
    assert galois_number(2, 2) == 5
    assert galois_number(3, 2) == 16
    assert galois_number(3, 3) == 28
    with pytest.raises(ValueError, match="rank n must be >= 0, got -1"):
        galois_number(-1, 2)


@pytest.mark.parametrize(
    "value,shown",
    [
        (0, "0"),
        (-7, "-7"),
        (10**39, "1" + "0" * 39),
        (-(10**38), "-1" + "0" * 38),
        (10**40 - 1, "9" * 40),
        (-(10**40 - 1), "-999999999999...9999 (40 digits)"),
        (10**40, "100000000000...0000 (41 digits)"),
        (10**1000 + 1, "100000000000...0001 (1001 digits)"),
        (-(10**2000), "-100000000000...0000 (2001 digits)"),
        ("'2:2'", "'2:2'"),
        ("x" * 40, "x" * 40),
        ("'" + "1" * 5001 + "'", "'11111111111...111' (5003 characters)"),
    ],
)
def test_brief_keeps_values_up_to_40_characters_whole(value, shown):
    assert brief(value) == shown


@given(st.integers(1, 3000), st.sampled_from([-1, 0, 1]))
def test_brief_counts_digits_at_every_power_of_ten(k, offset):
    # 10^k - 1, 10^k and 10^k + 1 are where a digit count from bit_length goes wrong.
    value = 10**k + offset
    text = str(value)
    assert brief(value) == (text if len(text) <= 40 else f"{text[:12]}...{text[-4:]} ({len(text)} digits)")


@st.composite
def rank_pair(draw):
    n = draw(st.integers(0, 9))
    k = draw(st.integers(0, n))
    return n, k


@given(rank_pair(), st.integers(2, 40))
def test_symmetry_holds_for_any_base(pair, p):
    # composite bases included: the identity is polynomial in p
    n, k = pair
    assert gaussian_binomial(n, k, p) == gaussian_binomial(n, n - k, p)


@given(rank_pair(), st.integers(2, 40))
def test_poly_evaluation_matches_any_base(pair, p):
    n, k = pair
    assert gaussian_binomial_poly(n, k).evaluate(p) == gaussian_binomial(n, k, p)
