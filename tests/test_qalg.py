"""Exact q-series arithmetic: frozen values, algebraic identities, inversion."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbrion import lattice
from qbrion.brion import g_weight, lhs_series
from qbrion.errors import InvalidInputError

from qbrion.qalg import (
    QPolynomial,
    TruncatedQSeries,
    gaussian_binomial,
    inverse_reversed_pochhammer,
    pochhammer_finite,
    pochhammer_div_inplace,
    pochhammer_infinite_inverse,
    pochhammer_mul_inplace,
    q_factorial,
    q_integer,
    q_multinomial,
    q_pochhammer,
)

from conftest import dense_factors, dense_multinomial, times_q_power


def poly(*coeffs):
    return QPolynomial(list(coeffs))


def scaled_table(c, B, order):
    """The kernels' table of c B^i, i = 0 .. order, each entry an int when
    it is whole: the substitution q -> Bq."""
    out = []
    for i in range(order + 1):
        x = Fraction(c) * B**i
        out.append(x.numerator if x.denominator == 1 else x)
    return out


# ---------------------------------------------------------------- basics


def test_q_integer_small():
    with pytest.raises(InvalidInputError):
        q_integer(0)
    assert q_integer(1) == poly(1)
    assert q_integer(2) == poly(1, 1)
    assert q_integer(5) == poly(1, 1, 1, 1, 1)


def test_q_factorial():
    assert q_factorial(0) == poly(1)
    assert q_factorial(3) == poly(1, 2, 2, 1)
    # [n]_q! evaluated at q=1 is n!
    for n in range(8):
        assert q_factorial(n).evaluate(1) == math.factorial(n)


def test_gaussian_binomial_frozen():
    assert gaussian_binomial(4, 2) == poly(1, 1, 2, 1, 1)
    assert gaussian_binomial(3, 0) == poly(1)
    assert gaussian_binomial(3, 5) == poly()


@given(st.integers(0, 9), st.integers(0, 9))
def test_gaussian_binomial_symmetry_and_q1(n, k):
    assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k) if k <= n else True
    value = gaussian_binomial(n, k).evaluate(1)
    assert value == (math.comb(n, k) if k <= n else 0)


def test_q_multinomial_frozen():
    assert q_multinomial(3, (1, 1, 1)) == poly(1, 2, 2, 1)
    assert q_multinomial(2, (1, 1)) == poly(1, 1)
    assert q_multinomial(6, (2, 2, 1, 0, 0, 1)).evaluate(1) == 180


@given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_q_multinomial_specializations(parts):
    m = sum(parts)
    value = q_multinomial(m, parts)
    # q=1 gives the ordinary multinomial coefficient, q=0 gives 1
    expected = math.factorial(m)
    for p in parts:
        expected //= math.factorial(p)
    assert value.evaluate(1) == expected
    assert value.coefficient(0) == 1


@given(st.lists(st.integers(0, 7), min_size=1, max_size=6))
@example([0])
@example([6])
@example([0, 0])
@example([4, 0, 0, 3])
@example([1, 1, 1, 1, 1, 1])
@settings(max_examples=150, deadline=None)
def test_q_multinomial_matches_pascal_products(parts):
    m = sum(parts)
    assert q_multinomial(m, parts) == dense_multinomial(m, parts)
    assert q_multinomial(m, tuple(reversed(parts))) == dense_multinomial(m, parts)
    # degree (m^2 - sum parts_i^2) / 2, with leading coefficient 1
    assert len(q_multinomial(m, parts).coeffs) == (m * m - sum(p * p for p in parts)) // 2 + 1


@given(st.integers(-2, 12), st.integers(-3, 14))
def test_gaussian_binomial_matches_pascal_recursion(n, k):
    want = dense_multinomial(n, (k, n - k)) if 0 <= k <= n else QPolynomial.zero()
    assert gaussian_binomial(n, k) == want


@pytest.mark.parametrize(
    "func, args",
    [
        (q_integer, (2.0,)),
        (q_integer, (True,)),
        (q_integer, (0,)),
        (q_factorial, (2.5,)),
        (q_factorial, (False,)),
        (q_factorial, (-1,)),
        (q_pochhammer, (3.0,)),
        (q_pochhammer, (True,)),
        (q_pochhammer, (-1,)),
        (gaussian_binomial, (4, 2.0)),
        (gaussian_binomial, (4.0, 2)),
        (gaussian_binomial, (True, 1)),
        (q_multinomial, (2, (True, True))),
        (q_multinomial, (2, (1.0, 1))),
        (q_multinomial, (2.0, (1, 1))),
        (q_multinomial, (True, (1, 0))),
        (q_multinomial, (3, (-1, 4))),
        (q_multinomial, (3, (1, 1))),
        (QPolynomial.monomial, (True,)),
        (QPolynomial.monomial, (2.5,)),
        (QPolynomial((1, 1)).shift, (2.5,)),
        (QPolynomial((1, 1)).shift, (True,)),
        (QPolynomial((1, 1)).__pow__, (2.5,)),
        (QPolynomial((1, 1)).__pow__, (True,)),
        (TruncatedQSeries, (2.5,)),
        (TruncatedQSeries, (True, [1, 2])),
        (TruncatedQSeries(3, [1, 2]).truncate, (1.5,)),
        (pochhammer_finite, (2, 1.5, 3)),
        (inverse_reversed_pochhammer, (2, 1.5, 3)),
        (g_weight, ((2.5,), 4)),
        (g_weight, ((True,), 4)),
    ],
)
def test_counts_must_be_integers(func, args):
    with pytest.raises(InvalidInputError):
        func(*args)


def test_q_pochhammer_frozen():
    assert q_pochhammer(0) == poly(1)
    assert q_pochhammer(1) == poly(1, -1)
    assert q_pochhammer(2) == poly(1, -1, -1, 1)
    want = poly(1)
    for m in range(1, 13):
        want = want * QPolynomial((1,) + (0,) * (m - 1) + (-1,))
        assert q_pochhammer(m) == want


# ---------------------------------------------------------------- Pochhammer


def test_pochhammer_finite_frozen():
    # (c;q)_2 = (1-c)(1-cq)
    s = pochhammer_finite(Fraction(1, 2), 2, 4)
    assert s.coefficient(0) == Fraction(1, 2)
    assert s.coefficient(1) == Fraction(-1, 4)
    assert s.coefficient(2) == 0


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.integers(0, 5),
    st.integers(0, 5),
)
@settings(max_examples=60)
def test_pochhammer_product_identity(c, d, e):
    # (c;q)_d (c q^d;q)_e = (c;q)_{d+e}
    order = 10
    head = pochhammer_finite(c, d, order)
    # build (c q^d; q)_e directly from the definition
    prod = TruncatedQSeries.one(order)
    for i in range(e):
        factor = TruncatedQSeries.constant(1, order) - times_q_power(
            TruncatedQSeries.constant(c, order), d + i
        )
        prod = prod * factor
    assert head * prod == pochhammer_finite(c, d + e, order)


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.integers(0, 14),
    st.integers(0, 10),
)
@example(Fraction(0), 3, 4)
@example(Fraction(1), 4, 6)
@example(Fraction(2, 3), 13, 5)
@example(Fraction(-5, 2), 6, 0)
@settings(max_examples=60)
def test_pochhammer_kernels_match_dense_products(c, d, order):
    assert pochhammer_finite(c, d, order) == dense_factors(c, range(d), order)
    if c != 1:
        want = dense_factors(c, range(order + 1), order).inverse()
        assert pochhammer_infinite_inverse(c, order) == want
    if c != 0:
        sign, cpow, shift, series = inverse_reversed_pochhammer(c, d, order)
        assert (sign, cpow, shift) == ((-1) ** d, -d, d * (d + 1) // 2)
        assert series == dense_factors(1 / c, range(1, d + 1), order).inverse()


@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(lambda c: c != 0),
    st.integers(1, 3),
    st.integers(0, 8),
    st.integers(1, 4),
    st.integers(0, 12),
)
@example(Fraction(1), 1, 5, 1, 6)
@example(Fraction(-7, 4), 2, 3, 2, 9)
@settings(max_examples=80)
def test_pochhammer_kernels_under_q_to_scale_q(c, k, m, first, order):
    # with B a multiple of c's numerator and denominator, every table entry
    # c^(+-1) B^i is whole: the kernels keep int data int, and coefficient j
    # is B^j times the unscaled one
    B = k * abs(c.numerator) * c.denominator
    for kernel, mult in ((pochhammer_mul_inplace, c), (pochhammer_div_inplace, c), (pochhammer_div_inplace, 1 / c)):
        plain = [Fraction(1)] + [Fraction(j % 3) for j in range(order)]
        scaled = [1] + [(j % 3) * B ** (j + 1) for j in range(order)]
        kernel(plain, mult, m, first)
        kernel(scaled, scaled_table(mult, B, order), m, first)
        assert all(type(a) is int for a in scaled)
        assert scaled == [a * B**j for j, a in enumerate(plain)]


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=14),
    st.integers(0, 9),
    st.integers(1, 4),
)
@example([1] + [0] * 12, 12, 1)
@settings(max_examples=60)
def test_pochhammer_kernel_unit_passes_match_dense_products(data, m, first):
    # c = 1: every pass adds or subtracts without a multiply; int data stays
    # int, and int or Fraction data gives the dense product
    order = len(data) - 1
    factor = dense_factors(1, range(first, m + 1), order)
    for values in (list(data), [Fraction(x, 7) for x in data]):
        base = TruncatedQSeries(order, values)
        for kernel, want in ((pochhammer_mul_inplace, base * factor), (pochhammer_div_inplace, base * factor.inverse())):
            out = list(values)
            kernel(out, 1, m, first)
            assert [type(x) for x in out] == [type(x) for x in values]
            assert TruncatedQSeries(order, out) == want


@pytest.mark.parametrize(
    "B, c, first", [(6, Fraction(1, 6), 1), (6, Fraction(1, 36), 2), (5, Fraction(1, 125), 3)]
)
def test_pochhammer_kernel_unit_pass_under_q_to_scale_q(B, c, first):
    # c B^first == 1: the scaled pass at i = first is a unit pass, and the
    # int result is still B^j times the dense product's coefficient j
    order, m = 9, 6
    plain = TruncatedQSeries(order, [j % 4 - 1 for j in range(order + 1)])
    factor = dense_factors(c, range(first, m + 1), order)
    for kernel, want in ((pochhammer_mul_inplace, plain * factor), (pochhammer_div_inplace, plain * factor.inverse())):
        out = [int(a * B**j) for j, a in enumerate(plain.coeffs)]
        kernel(out, scaled_table(c, B, order), m, first)
        assert all(type(a) is int for a in out)
        assert out == [a * B**j for j, a in enumerate(want.coeffs)]


def test_qpolynomial_rejects_non_int_coefficients():
    assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    for bad in ([True, 2], [1, False], [1.0], [Fraction(1, 2)], ["1"]):
        with pytest.raises(TypeError):
            QPolynomial(bad)


def test_pochhammer_kernel_scale_keeps_a_fraction_multiplier():
    # c B^i not whole for i = 1: 1/((1 - q/2)(1 - q^2)), still exact
    out = [1, 0, 0]
    pochhammer_div_inplace(out, scaled_table(Fraction(1, 4), 2, 2), 2)
    assert out == [1, Fraction(1, 2), Fraction(5, 4)]


def test_pochhammer_infinite_inverse_frozen():
    s = pochhammer_infinite_inverse(Fraction(1, 2), 2)
    assert s.coefficient(0) == 2
    assert s.coefficient(1) == 1
    assert s.coefficient(2) == Fraction(3, 2)


def test_pochhammer_infinite_inverse_times_product_is_one():
    order = 8
    c = Fraction(2, 3)
    inv = pochhammer_infinite_inverse(c, order)
    # (c;q)_{order+1} agrees with (c;q)_infinity mod q^{order+1}
    assert inv * pochhammer_finite(c, order + 1, order) == TruncatedQSeries.one(order)


def brute_force_partitions(j):
    """Number of integer partitions of j, by direct recursion."""

    def count(n, largest):
        if n == 0:
            return 1
        return sum(count(n - part, part) for part in range(min(n, largest), 0, -1))

    return count(j, j)


def test_euler_inverse_frozen_and_partition_oracle():
    # 1/(q;q)_K is 1/(q;q)_infinity modulo q^(K+1)
    s = g_weight((10,), 10)
    assert [s.coefficient(j) for j in range(6)] == [1, 1, 2, 3, 5, 7]
    for j in range(11):
        assert s.coefficient(j) == brute_force_partitions(j)
    # weakly increasing
    for j in range(10):
        assert s.coefficient(j + 1) >= s.coefficient(j)


def test_euler_inverse_inverts_the_euler_product():
    order = 12
    prod = TruncatedQSeries.one(order)
    for i in range(1, order + 1):
        prod = prod * (
            TruncatedQSeries.one(order) - times_q_power(TruncatedQSeries.one(order), i)
        )
    assert g_weight((order,), order) * prod == TruncatedQSeries.one(order)


# ------------------------------------------------- reversed Pochhammer


def test_inverse_reversed_pochhammer_spec_values():
    sign, cpow, shift, series = inverse_reversed_pochhammer(1, 1, 3)
    assert (sign, cpow, shift) == (-1, -1, 1)
    assert series == TruncatedQSeries(3, [1, 1, 1, 1])

    sign, cpow, shift, series = inverse_reversed_pochhammer(1, 0, 3)
    assert (sign, cpow, shift) == (1, 0, 0)
    assert series == TruncatedQSeries.one(3)

    sign, cpow, shift, series = inverse_reversed_pochhammer(Fraction(2), 1, 2)
    assert (sign, cpow, shift) == (-1, -1, 1)
    assert series == TruncatedQSeries(2, [1, Fraction(1, 2), Fraction(1, 4)])


def test_reversal_identity():
    # 1/(q^-1;q^-1)_d = (-1)^d q^{d(d+1)/2} / (q;q)_d, checked through the
    # returned factorization for d <= 8
    order = 20
    for d in range(9):
        sign, cpow, shift, series = inverse_reversed_pochhammer(1, d, order)
        assert sign == (-1) ** d
        assert cpow == -d
        assert shift == d * (d + 1) // 2
        assert series == q_pochhammer(d).to_series(order).inverse()


# ---------------------------------------------------------------- series ring


@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=9), min_size=1, max_size=6)
)
@settings(max_examples=80)
def test_series_inversion(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    order = len(coeffs) + 3
    s = TruncatedQSeries(order, coeffs)
    assert s * s.inverse() == TruncatedQSeries.one(order)


@pytest.mark.parametrize("sign", [1, -1])
def test_series_inversion_keeps_int_data_int_at_a_unit_constant_term(sign):
    s = q_pochhammer(4).to_series(6).scale(sign)
    inv = s.inverse()
    assert all(type(c) is int for c in inv.coeffs), inv
    assert inv.coeffs == tuple(sign * c for c in (1, 1, 2, 3, 5, 6, 9))  # partitions into parts <= 4
    assert s * inv == TruncatedQSeries.one(6)
    # a Fraction unit stays a Fraction, and any other constant term gives Fractions
    assert all(type(c) is Fraction for c in TruncatedQSeries(6, (Fraction(sign), 1)).inverse().coeffs)
    assert TruncatedQSeries(2, (2 * sign, 1)).inverse().coeffs == (Fraction(sign, 2), Fraction(-1, 4), Fraction(sign, 8))


@given(
    st.lists(st.integers(-9, 9), min_size=0, max_size=5),
    st.lists(st.integers(-9, 9), min_size=0, max_size=5),
)
@settings(max_examples=60)
def test_polynomial_ring_laws(a, b):
    pa, pb = QPolynomial(a), QPolynomial(b)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa - pb) + pb == pa
    q0 = Fraction(3, 7)
    assert (pa * pb).evaluate(q0) == pa.evaluate(q0) * pb.evaluate(q0)


def test_truncation_propagates_minimum_order():
    a = TruncatedQSeries(5, [1, 0, 0, 0, 0, 1])
    b = TruncatedQSeries(3, [1])
    assert (a * b).order == 3
    assert (a + b).order == 3



def test_series_and_polynomial_add_and_subtract_in_either_order():
    # the polynomial is cut to the series order on both sides
    s = TruncatedQSeries(2, [1, Fraction(1, 2), 3])
    p = QPolynomial([4, 5, 6, 7])
    assert p + s == s + p == TruncatedQSeries(2, [5, Fraction(11, 2), 9])
    assert p - s == TruncatedQSeries(2, [3, Fraction(9, 2), 3])
    assert s - p == TruncatedQSeries(2, [-3, Fraction(-9, 2), -3])
    zero = QPolynomial.zero()
    assert zero + s == s + zero == s
    assert zero - s == -s and s - zero == s


# ------------------------------------------------------------ exact types


def _all_int(series):
    return all(type(c) is int for c in series.coeffs)


_series_ints = st.lists(st.integers(-(2**70), 2**70), max_size=8)


@given(
    _series_ints, _series_ints, st.integers(0, 7), st.integers(0, 7), st.integers(0, 4),
    st.one_of(st.integers(-9, 9), st.fractions(max_denominator=9)),
    st.fractions(min_value=-2, max_value=2, max_denominator=9),
)
@settings(max_examples=80, deadline=None)
def test_int_series_keep_their_ints_and_match_fraction_series(xs, ys, m, n, k, value, q):
    # a series built from ints keeps them and equals, hashes like and
    # computes like the series built from the same values as Fractions
    a, b = TruncatedQSeries(m, xs), TruncatedQSeries(n, ys)
    fa = TruncatedQSeries(m, map(Fraction, xs))
    fb = TruncatedQSeries(n, map(Fraction, ys))
    assert _all_int(a) and all(type(c) is Fraction for c in fa.coeffs[: len(xs)])
    assert a == fa and hash(a) == hash(fa)
    assert list(a.coeffs) == (xs + [0] * (m + 1))[: m + 1]
    pairs = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (-a, -fa),
             (a.shift(k), fa.shift(k)), (a.truncate(min(k, m)), fa.truncate(min(k, m)))]
    for got, want in pairs:
        assert _all_int(got) and got == want and hash(got) == hash(want)
    assert a.scale(value) == fa.scale(value) == a * value
    assert _all_int(a.scale(value)) == (type(value) is int)
    assert a.evaluate(q) == fa.evaluate(q)
    if a.coefficient(0):
        assert a.inverse() == fa.inverse()
        assert a * a.inverse() == TruncatedQSeries.one(m)


def test_series_equal_by_value_hash_alike():
    a, b = TruncatedQSeries(2, [1, 2]), TruncatedQSeries(2, [Fraction(1), 2, 0])
    assert a == b and hash(a) == hash(b)


def test_series_reject_bools_and_inexact_coefficients():
    assert TruncatedQSeries(2, [Fraction(1, 2), 3]).coeffs == (Fraction(1, 2), 3, 0)
    for bad in ([True, 2], [1, False], [1.0], [1, "1"], [None], [1j]):
        with pytest.raises(TypeError, match="TruncatedQSeries coefficients must be int or Fraction"):
            TruncatedQSeries(3, bad)
    with pytest.raises(TypeError):
        TruncatedQSeries.constant(True, 3)
    with pytest.raises(TypeError):
        TruncatedQSeries(3, [1, 2]).scale(0.5)


def test_int_data_give_int_series(hexagon):
    # the lattice-point weights and the polynomials cut to a series hold ints
    P = lattice.dilate(hexagon, 3)
    lhs = lhs_series(P, 12)
    assert lhs.terms and all(map(_all_int, lhs.terms.values()))
    assert _all_int(g_weight((2, 0, 3), 9))
    assert _all_int(q_multinomial(5, (2, 3)).to_series(4))
    assert _all_int(q_multinomial(5, (2, 3)).to_series(9))
    assert _all_int(TruncatedQSeries.one(4)) and _all_int(TruncatedQSeries(4))
