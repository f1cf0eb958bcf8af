import pytest
from hypothesis import example, given, strategies as st

from subchains.polynomial import ONE, IntPolynomial

polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPolynomial)
scalars = st.integers(-9, 9)
points = st.integers(-50, 50)

ZERO = IntPolynomial()


def test_canonical_zero_is_empty():
    assert IntPolynomial([]).coeffs == ()
    assert IntPolynomial([0]).coeffs == ()
    assert IntPolynomial([0, 0, 0]).coeffs == ()
    assert IntPolynomial([1, 0, 0]).coeffs == (1,)


def test_mul_examples():
    assert IntPolynomial([-1, 1]) * 3 == IntPolynomial([-3, 3])
    assert -1 * IntPolynomial([1, -1, -1, 1]) == IntPolynomial([-1, 1, 1, -1])
    with pytest.raises(TypeError):
        IntPolynomial([1, 1]) * IntPolynomial([-1, 1])  # no product of two polynomials


def test_scale_examples():
    assert 2 * IntPolynomial([2, 1]) == IntPolynomial([4, 2])
    assert 0 * IntPolynomial([0, 0, 0, 0, 0, 1]) == ZERO
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
    assert IntPolynomial([1, 2]).coeffs[0] == 1


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


@given(polys, scalars)
def test_mul_commutative(a, k):
    assert k * a == a * k


@given(polys, scalars, scalars)
def test_mul_associative(a, j, k):
    assert (j * k) * a == j * (k * a)
    assert a * (j * k) == (a * j) * k


@given(polys)
def test_identities(a):
    assert 1 * a == a
    assert a * 1 == a
    assert 0 * a == ZERO
    assert -1 * (-1 * a) == a


@given(polys, scalars, points)
def test_evaluation_respects_scalar_products(a, k, x):
    assert (k * a).evaluate(x) == k * a.evaluate(x)


@given(polys, scalars)
def test_results_are_canonical(a, k):
    for result in (k * a, a * k, 0 * a):
        assert IntPolynomial(result.coeffs) == result
        assert not result.coeffs or result.coeffs[-1] != 0


@given(polys)
def test_hash_consistent_with_eq(a):
    clone = IntPolynomial(list(a.coeffs) + [0, 0])
    assert clone == a
    assert hash(clone) == hash(a)
