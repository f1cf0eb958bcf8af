"""Dense polynomials in one indeterminate with exact integer coefficients.

Every count in this package is a polynomial in the group's base p, so the
symbolic results are carried as IntPolynomial values. Coefficients are plain
Python ints (unbounded); there is no floating point anywhere. Degrees stay
small (at most n(n-1)/2 for rank n), so the representation is a dense
ascending coefficient tuple. The one arithmetic operation is the product by
an integer (the rooted count is twice the bounded one): the counting engine
multiplies no polynomials, it evaluates the product-free triangle
(chains._triangle) at plus and minus a power of two and splits the half-sum
and half-difference into even and odd coefficients with from_digits
(Kronecker substitution at two points).
"""

from __future__ import annotations

from collections.abc import Iterable


class IntPolynomial:
    """An integer polynomial stored as ascending coefficients.

    The representation is canonical: trailing zero coefficients are stripped
    and the zero polynomial is the empty tuple. Equality and hashing are
    structural, so two IntPolynomial values compare equal exactly when they
    are the same polynomial. Instances are immutable, and a product by an
    integer returns a new value, which makes them safe to share across threads.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def from_digits(cls, value: int, width: int) -> IntPolynomial:
        """The polynomial whose coefficients are the base-2^(8*width) digits of value >= 0.

        This inverts evaluation at X = 2^(8*width) for polynomials whose
        coefficients all lie in [0, 2^(8*width)).
        """
        raw = value.to_bytes(-(-value.bit_length() // 8), "little")
        return cls(int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient_strings(self) -> list[str]:
        """Ascending coefficients as decimal strings; ["0"] for zero."""
        if not self.coeffs:
            return ["0"]
        return [str(c) for c in self.coeffs]

    def to_text(self, var: str = "p") -> str:
        """Human form, descending powers: e.g. '2p^3 + 8p^2 + 8p + 8'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{var}" if power == 1 else f"{head}{var}^{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __mul__(self, k) -> IntPolynomial:
        """The product by an integer k; there is no product of two polynomials."""
        if not isinstance(k, int):
            return NotImplemented
        return IntPolynomial(k * c for c in self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return self.to_text()


ONE = IntPolynomial((1,))
