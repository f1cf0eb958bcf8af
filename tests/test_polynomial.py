import pytest
from hypothesis import example, given, strategies as st

from subchains.polynomial import ONE, ZERO, IntPolynomial

polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPolynomial)
points = st.integers(-50, 50)

X = IntPolynomial.monomial(1)


def test_canonical_zero_is_empty():
    assert IntPolynomial([]).coeffs == ()
    assert IntPolynomial([0]).coeffs == ()
    assert IntPolynomial([0, 0, 0]).coeffs == ()
    assert IntPolynomial([1, 0, 0]).coeffs == (1,)


def test_add_examples():
    assert (X + 1) + (X - 1) == IntPolynomial([0, 2])
    assert ZERO + IntPolynomial.monomial(2) == IntPolynomial.monomial(2)
    f3 = IntPolynomial([8, 8, 8, 2])
    assert f3 + ZERO == f3


def test_mul_examples():
    assert (X - 1) * (X + 1) == IntPolynomial([-1, 0, 1])
    anything = IntPolynomial([3, -2, 5])
    assert anything * ONE == anything
    assert (X - 1) * (IntPolynomial.monomial(2) - 1) == IntPolynomial([1, -1, -1, 1])


def test_scale_examples():
    assert 2 * (X + 2) == IntPolynomial([4, 2])
    assert 0 * IntPolynomial.monomial(5) == ZERO
    a = IntPolynomial([7, 0, -3])
    assert 1 * a == a


def test_evaluate_examples():
    assert IntPolynomial([4, 2]).evaluate(2) == 8
    assert ZERO.evaluate(12345) == 0
    f4 = IntPolynomial([16, 24, 36, 36, 24, 12, 2])
    assert f4.evaluate(2) == 1392


digit_polys = st.integers(1, 4).flatmap(
    lambda width: st.tuples(
        st.just(width), st.lists(st.integers(0, (1 << 8 * width) - 1), max_size=6).map(IntPolynomial)
    )
)


@given(digit_polys)
@example((1, ZERO))
@example((4, IntPolynomial([0xFFFFFFFF, 7])))  # top digit's three high bytes are zero
def test_from_digits_inverts_evaluation(case):
    width, poly = case
    assert IntPolynomial.from_digits(poly.evaluate(1 << 8 * width), width) == poly


def test_degree_and_coefficient():
    assert ZERO.degree == -1
    assert ONE.degree == 0
    assert IntPolynomial([0, 0, 5]).degree == 2
    assert IntPolynomial([1, 2]).coefficient(0) == 1
    assert IntPolynomial([1, 2]).coefficient(7) == 0


def test_monomial_rejects_negative_power():
    with pytest.raises(ValueError):
        IntPolynomial.monomial(-1)


def test_text_rendering():
    assert IntPolynomial([8, 8, 8, 2]).to_text() == "2p^3 + 8p^2 + 8p + 8"
    assert IntPolynomial([1, -1, -1, 1]).to_text() == "p^3 - p^2 - p + 1"
    assert IntPolynomial([4, 2]).to_text() == "2p + 4"
    assert ZERO.to_text() == "0"
    assert ONE.to_text() == "1"
    assert IntPolynomial([1, -1]).to_text() == "-p + 1"
    assert IntPolynomial([0, 1]).to_text("q") == "q"
    assert IntPolynomial([-3]).to_text() == "-3"


def test_coefficient_strings():
    assert IntPolynomial([16, 24, 36, 36, 24, 12, 2]).coefficient_strings() == [
        "16", "24", "36", "36", "24", "12", "2",
    ]
    assert ZERO.coefficient_strings() == ["0"]


@given(polys, polys)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_identities(a):
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(polys, polys, points)
def test_evaluation_is_a_ring_homomorphism(a, b, x):
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


@given(polys, polys)
def test_results_are_canonical(a, b):
    for result in (a + b, a * b, a - b, -a, 3 * a):
        assert IntPolynomial(result.coeffs) == result
        assert not result.coeffs or result.coeffs[-1] != 0


@given(polys)
def test_hash_consistent_with_eq(a):
    clone = IntPolynomial(list(a.coeffs) + [0, 0])
    assert clone == a
    assert hash(clone) == hash(a)
