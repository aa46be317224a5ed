"""Exact arithmetic in the variable q.

Two representations are used throughout the package:

* ``QPolynomial``: a polynomial in q with arbitrary-precision integer
  coefficients.  q-integers, Gaussian binomials and q-multinomials live here.
* ``TruncatedQSeries``: a power series in q with int or Fraction
  coefficients, kept as given, known through a stated order K (coefficients
  of q^0 .. q^K are trusted, everything above is discarded).  Arithmetic
  propagates the minimum order of the operands, so a result never claims
  more precision than its inputs.

No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError, PoleError

_ZERO = Fraction(0)
_ONE = Fraction(1)
_INT_TYPES = frozenset((int,))  # QPolynomial's coefficient types
_EXACT_TYPES = frozenset((int, Fraction))  # TruncatedQSeries' coefficient types


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("exact arithmetic only accepts int or Fraction, got %r" % type(value))


def _checked(coeffs, types, what):
    """coeffs as a tuple, kept as given, if each is an instance of one of
    types and not a bool; else TypeError("<what>, got <type>").
    Coefficients of exactly those types take no per-item check."""
    coeffs = tuple(coeffs)
    if not types.issuperset(map(type, coeffs)):
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, tuple(types)):
                raise TypeError("%s, got %r" % (what, type(c)))
    return coeffs


def _product(a, b, n):
    """The first n coefficients of the product of the coefficient sequences
    a and b, skipping zero entries; int data stays int."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i], i):
                if y:
                    out[j] += x * y
    return out


class QPolynomial:
    """Dense polynomial in q with integer coefficients (not bools), lowest
    degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = _checked(coeffs, _INT_TYPES, "QPolynomial coefficients must be int")
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.coeffs = coeffs[:n]

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, degree, coefficient=1):
        return cls((0,) * require_count(degree, 0, "q-polynomial degree") + (coefficient,))

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, j):
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def __add__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return QPolynomial(out)

    def __sub__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial(tuple(other * c for c in self.coeffs))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return QPolynomial(_product(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        require_count(exponent, 0, "q-polynomial exponent")
        result = QPolynomial.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def shift(self, k):
        """Multiply by q^k (k >= 0)."""
        return QPolynomial((0,) * require_count(k, 0, "q-polynomial shift") + self.coeffs)

    def evaluate(self, q):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0 if not isinstance(q, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def to_series(self, order):
        return TruncatedQSeries(order, self.coeffs)

    def __eq__(self, other):
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append("%s*q" % c if c != 1 else "q")
            else:
                parts.append("%s*q^%d" % (c, j) if c != 1 else "q^%d" % j)
        return " + ".join(parts)

    def __repr__(self):
        return "QPolynomial(%s)" % self


class TruncatedQSeries:
    """Power series in q with int (not bool) or Fraction coefficients, kept
    as given and padded with int 0, trusted through q^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=()):
        require_count(order, 0, "series order")
        coeffs = _checked(coeffs, _EXACT_TYPES, "TruncatedQSeries coefficients must be int or Fraction")
        self.order = order
        self.coeffs = coeffs[: order + 1] + (0,) * (order + 1 - len(coeffs))

    @classmethod
    def constant(cls, value, order):
        return cls(order, (value,))

    @classmethod
    def one(cls, order):
        return cls.constant(1, order)

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def coefficient(self, j):
        if j < 0:
            return 0
        if j > self.order:
            raise InvalidInputError("coefficient q^%d is beyond the trusted order %d" % (j, self.order))
        return self.coeffs[j]

    def truncate(self, order):
        if require_count(order, 0, "series order") > self.order:
            raise InvalidInputError("cannot extend a truncated series (order %d -> %d)" % (self.order, order))
        return TruncatedQSeries(order, self.coeffs[: order + 1])

    def _common_order(self, other):
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, QPolynomial):
            other = other.to_series(self.order)
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        k = self._common_order(other)
        return TruncatedQSeries(k, [self.coeffs[j] + other.coeffs[j] for j in range(k + 1)])

    def __sub__(self, other):
        if not isinstance(other, (QPolynomial, TruncatedQSeries)):
            return NotImplemented
        return self + (-other)

    def __radd__(self, other):
        # QPolynomial + series: the polynomial cut to this order, as in __add__
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + other

    def __rsub__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return -self + other

    def __neg__(self):
        return TruncatedQSeries(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, QPolynomial):
            other = other.to_series(self.order)
        if not isinstance(other, TruncatedQSeries):
            return NotImplemented
        k = self._common_order(other)
        return TruncatedQSeries(k, _product(self.coeffs, other.coeffs, k + 1))

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q^k (k >= 0), trusted through the same order."""
        return TruncatedQSeries(self.order, (0,) * require_count(k, 0, "series shift") + self.coeffs)

    def scale(self, value):
        return TruncatedQSeries(self.order, [value * c for c in self.coeffs])

    def inverse(self):
        """Multiplicative inverse; the constant term must be nonzero.  With a
        constant term of 1 or -1 it is its own inverse, so int data stays
        int."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise PoleError("cannot invert a series with zero constant term")
        inv0 = a0 if a0 in (1, -1) else _ONE / a0
        out = [inv0] + [0] * self.order
        for k in range(1, self.order + 1):
            acc = 0
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if aj != 0:
                    acc += aj * out[k - j]
            out[k] = -inv0 * acc
        return TruncatedQSeries(self.order, out)

    evaluate = QPolynomial.evaluate

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedQSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return "TruncatedQSeries(order=%d, %s)" % (self.order, list(self.coeffs))


def require_count(value, least=None, what="count"):
    """value, if it is an int (not a bool) >= least; else InvalidInputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError("%s must be an integer, got %r" % (what, value))
    if least is not None and value < least:
        raise InvalidInputError("%s must be >= %d, got %d" % (what, least, value))
    return value


def q_integer(b):
    """[b]_q = 1 + q + ... + q^(b-1) for b >= 1."""
    return QPolynomial((1,) * require_count(b, 1, "q-integer index"))


def q_factorial(b):
    """[b]_q! = [1]_q [2]_q ... [b]_q = [b; 1, .., 1]_q, with [0]_q! = 1."""
    return q_multinomial(require_count(b, 0, "q-factorial index"), (1,) * b)


def gaussian_binomial(n, k):
    """Gaussian binomial [n choose k]_q = [n; k, n - k]_q, zero for k outside 0..n."""
    if not 0 <= require_count(k) <= require_count(n):
        return QPolynomial.zero()
    return q_multinomial(n, (k, n - k))


def q_multinomial(m, parts):
    """q-multinomial [m; parts]_q = (q;q)_m / prod_i (q;q)_(parts_i) as an
    exact integer polynomial of degree D = (m^2 - sum parts_i^2) / 2; parts
    must be nonnegative integers summing to m.  One largest part t cancels
    into (q^(t+1);q)_(m-t), the others divide out, each pass exact modulo
    q^(D + 1)."""
    parts = [require_count(p, 0, "multinomial part") for p in parts]
    if sum(parts) != require_count(m, 0, "multinomial total"):
        raise InvalidInputError("multinomial parts %r do not sum to %d" % (parts, m))
    *rest, top = sorted(parts) or [0]
    out = [1] + [0] * ((m * m - sum(p * p for p in parts)) // 2)
    pochhammer_mul_inplace(out, 1, m, top + 1)
    for p in rest:
        pochhammer_div_inplace(out, 1, p)
    return QPolynomial(out)


def pochhammer_mul_inplace(out, c, m, first=1):
    """out *= prod_{i=first..m} (1 - c_i q^i), which is (c q; q)_m for
    c_i = c and first = 1, in place, modulo q^len(out).

    c is a number, every c_i = c, or a table, a list whose entry i is c_i
    (entry 0 is not read).  A table of c B^i carries out the substitution
    q -> Bq, under which coefficient j of a series becomes B^j times itself;
    with whole entries, int data stays int.  Each factor is one pass
    out[j] -= c_i out[j-i] from the top down, O(len(out)), without the
    multiply when c_i is exactly 1; factors with i >= len(out) are 1 modulo
    the truncation.  out may hold ints or Fractions.
    """
    n = len(out)
    table = c if isinstance(c, list) else None
    for i in range(first, min(m, n - 1) + 1):
        ci = c if table is None else table[i]
        if ci == 1:
            for j in range(n - 1, i - 1, -1):
                out[j] -= out[j - i]
        else:
            for j in range(n - 1, i - 1, -1):
                out[j] -= ci * out[j - i]


def pochhammer_div_inplace(out, c, m, first=1):
    """out /= prod_{i=first..m} (1 - c_i q^i), in place, modulo q^len(out):
    the inverse of pochhammer_mul_inplace (c a number or a table as there),
    one pass out[j] += c_i out[j-i] from the bottom up per factor, without
    the multiply when c_i is exactly 1."""
    n = len(out)
    table = c if isinstance(c, list) else None
    for i in range(first, min(m, n - 1) + 1):
        ci = c if table is None else table[i]
        if ci == 1:
            for j in range(i, n):
                out[j] += out[j - i]
        else:
            for j in range(i, n):
                out[j] += ci * out[j - i]


def q_pochhammer(m):
    """(q; q)_m = (1 - q)(1 - q^2)...(1 - q^m) as an exact integer polynomial."""
    out = [1] + [0] * (require_count(m, 0, "(q;q)_m length") * (m + 1) // 2)
    pochhammer_mul_inplace(out, 1, m)
    return QPolynomial(out)


def pochhammer_finite(c, d, order):
    """(c; q)_d = prod_{i=1..d} (1 - c q^(i-1)) as a truncated series."""
    require_count(d, 0, "finite Pochhammer length")
    c = _as_fraction(c)
    if d == 0:
        return TruncatedQSeries.one(order)
    out = [1 - c] + [_ZERO] * order
    pochhammer_mul_inplace(out, c, d - 1)
    return TruncatedQSeries(order, out)


def pochhammer_infinite_inverse(c, order):
    """1 / (c; q)_infinity modulo q^(order+1).

    The evaluation point must satisfy c != 1: the factor (1 - c) of the
    infinite product vanishes exactly there and the inverse has a pole.
    Factors (1 - c q^k) with k > order are 1 modulo the truncation.
    """
    c = _as_fraction(c)
    if c == 1:
        raise PoleError("1/(c;q)_infinity has a pole at c = 1")
    out = [1 / (1 - c)] + [_ZERO] * order
    pochhammer_div_inplace(out, c, order)
    return TruncatedQSeries(order, out)


def inverse_reversed_pochhammer(c, d, order):
    """Rewrite 1 / (c q^-1; q^-1)_d in nonnegative powers of q.

    Every factor 1 - c q^-i (i = 1..d) equals -c q^-i (1 - c^-1 q^i), so

        1 / (c q^-1; q^-1)_d  =  (-1)^d c^-d q^(d(d+1)/2) / (c^-1 q; q)_d.

    Returns (sign, power_of_c, qshift, series) with series the truncated
    expansion of 1 / (c^-1 q; q)_d, which has constant term 1 and therefore
    inverts for every nonzero rational c, including c = 1 (where the series
    part is simply 1/(q;q)_d).
    """
    require_count(d, 0, "reversed Pochhammer length")
    c = _as_fraction(c)
    if c == 0:
        raise InvalidInputError("reversed Pochhammer factorization needs c != 0")
    sign = -1 if d % 2 else 1
    qshift = d * (d + 1) // 2
    out = [_ONE] + [_ZERO] * order
    pochhammer_div_inplace(out, 1 / c, d)
    return sign, -d, qshift, TruncatedQSeries(order, out)
