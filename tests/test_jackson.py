"""q-difference calculus: shift, derivative, ladder operators, leading terms."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrion import fixtures, jackson, lattice
from qbrion.brion import LaurentQPoly, lhs_series, rs_polynomial
from qbrion.errors import InvalidInputError, PreconditionError
from qbrion.jackson import (
    FirstOrthantDivisor,
    derived_divisor,
    elementary_symmetric,
    iterated_jackson,
    jackson_derivative,
    leading_term_check,
    leading_term_expected,
    q_shift,
    raising_operator,
    rogers_szego,
    verify_derivative_identity,
    verify_ladder,
)
from qbrion.lattice import Polytope
from qbrion.qalg import QPolynomial, TruncatedQSeries, q_factorial, q_integer, q_multinomial

from conftest import (
    reference_elementary_symmetric,
    reference_iterated_jackson,
    reference_jackson_derivative,
    reference_raising_operator,
    segment,
    times_q_power,
)


def lp(terms):
    return LaurentQPoly({u: QPolynomial(c) for u, c in terms.items()})


# The ladder's family (1, x_1, .., x_n) and, as a negative control, the wrong
# family (x_1, .., x_n), patched in where the library reads its family.
FAMILIES = ("vars_with_one", "vars_without_one")


def _exponents_without_one(n):
    """_elementary_exponents over (x_1, .., x_n), without the constant
    variable, built from the unit vectors and not from the reference."""
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return tuple(
        tuple(tuple(map(sum, zip(*subset))) if subset else (0,) * n for subset in itertools.combinations(units, d))
        for d in range(n + 2)
    )


def _use_family(monkeypatch, family):
    if family == "vars_without_one":
        monkeypatch.setattr(jackson, "_elementary_exponents", _exponents_without_one)


def p1_divisor(m):
    return FirstOrthantDivisor.from_polytope(segment(m))


def p2_divisor(k):
    return FirstOrthantDivisor.from_polytope(
        Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), k)])
    )


def p1xp1_divisor(m1, m2):
    return FirstOrthantDivisor.from_polytope(
        Polytope.from_facets(
            2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), m1), ((0, -1), m2)]
        )
    )


# ------------------------------------------------------------------ operators


def test_q_shift_monomial():
    f = lp({(2,): [1]})
    assert q_shift(f, 0) == lp({(2,): [0, 0, 1]})


def test_q_shift_constant_fixed():
    f = lp({(0, 0): [7]})
    assert q_shift(f, 0) == f
    assert q_shift(f, 1) == f


def test_q_shift_segment_weight_polynomial():
    f = rs_polynomial(segment(2))
    shifted = q_shift(f, 0)
    assert shifted.coefficient((0,)) == QPolynomial([1])
    assert shifted.coefficient((1,)) == QPolynomial([0, 1, 1])
    assert shifted.coefficient((2,)) == QPolynomial([0, 0, 1])


def test_q_shift_rejects_negative_exponent():
    f = lp({(-1,): [1]})
    with pytest.raises(PreconditionError):
        q_shift(f, 0)


def test_q_shift_of_series_coefficients(hexagon):
    # a truncated series coefficient takes q^(u_axis) and keeps its own order
    f = lhs_series(hexagon, 5)
    for axis in range(2):
        want = LaurentQPoly({u: times_q_power(c, u[axis]) for u, c in f.terms.items()})
        assert q_shift(f, axis) == want


def test_jackson_derivative_monomial():
    assert jackson_derivative(lp({(2,): [1]}), 0) == lp({(1,): [1, 1]})
    assert jackson_derivative(lp({(0,): [7]}), 0).is_zero


def test_jackson_derivative_division_definition(hexagon):
    # (f - T_q f) equals (1-q) x_i * D_q f, termwise in exact arithmetic
    f = rs_polynomial(hexagon)
    for axis in range(2):
        diff = f - q_shift(f, axis)
        deriv = jackson_derivative(f, axis)
        one_minus_q = QPolynomial([1, -1])
        rebuilt = LaurentQPoly(
            {
                (u[0] + (1 - axis), u[1] + axis): c * one_minus_q
                for u, c in deriv.terms.items()
            }
        )
        assert diff == rebuilt


def test_jackson_segment_weight_polynomial_identity():
    f = rs_polynomial(segment(2))
    got = jackson_derivative(f, 0)
    assert got == lp({(0,): [1, 1], (1,): [1, 1]})


@given(st.integers(1, 9), st.integers(0, 6))
@settings(max_examples=40)
def test_jackson_monomial_rule(e, other):
    f = lp({(e, other): [1]})
    got = jackson_derivative(f, 0)
    assert got.coefficient((e - 1, other)) == q_integer(e)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8), st.integers(1, 12))
@settings(max_examples=60)
def test_jackson_q_integer_factor_matches_dense_product(coeffs, e):
    # the kernel pair's c (1 - q^e) / (1 - q) against the dense c [e]_q
    f = lp({(e, 1): coeffs})
    got = jackson_derivative(f, 0)
    assert got == LaurentQPoly({(e - 1, 1): QPolynomial(coeffs) * q_integer(e)})


def test_jackson_derivative_of_series_coefficients(hexagon):
    # truncated series coefficients keep their own truncated product
    f = lhs_series(hexagon, 5)
    got = jackson_derivative(f, 0)
    for u, c in f.terms.items():
        if u[0]:
            assert got.coefficient((u[0] - 1, u[1])) == c * q_integer(u[0])


def test_jackson_linearity(square):
    f = rs_polynomial(square)
    g = rogers_szego(2, 2)
    c = QPolynomial([3, 1])
    left = jackson_derivative(f.scale(c) + g, 0)
    right = jackson_derivative(f, 0).scale(c) + jackson_derivative(g, 0)
    assert left == right


def test_jackson_axes_commute(hexagon):
    f = rs_polynomial(hexagon)
    assert jackson_derivative(jackson_derivative(f, 0), 1) == jackson_derivative(
        jackson_derivative(f, 1), 0
    )


def test_jackson_degenerates_to_classical_derivative(square):
    f = rs_polynomial(square)
    deriv = jackson_derivative(f, 0)
    classical = {}
    for u, c in f.terms.items():
        if u[0] >= 1:
            key = (u[0] - 1, u[1])
            classical[key] = classical.get(key, 0) + u[0] * c.evaluate(1)
    got = {u: c.evaluate(1) for u, c in deriv.terms.items()}
    assert got == classical


@pytest.mark.parametrize(
    "call",
    [
        lambda f: jackson_derivative(f, 2),
        lambda f: jackson_derivative(f, 5),
        lambda f: jackson_derivative(f, -1),
        lambda f: jackson_derivative(f, 1.0),
        lambda f: jackson_derivative(f, True),
        lambda f: q_shift(f, 2),
        lambda f: q_shift(f, -1),
        lambda f: iterated_jackson(f, 0, -2),
        lambda f: iterated_jackson(f, 0, 1.0),
        lambda f: iterated_jackson(f, 2, 0),
        lambda f: iterated_jackson(f, -1, 0),
        lambda f: derived_divisor(p1xp1_divisor(2, 3), 2),
        lambda f: derived_divisor(p1xp1_divisor(2, 3), -1),
        lambda f: derived_divisor(p1xp1_divisor(2, 3), True),
        lambda f: derived_divisor(p1xp1_divisor(2, 3), 0.5),
    ],
    ids=["d2", "d5", "d-1", "d1.0", "dTrue", "shift2", "shift-1",
         "iter-2", "iter1.0", "iter_axis2", "iter_axis-1",
         "derived2", "derived-1", "derivedTrue", "derived0.5"],
)
def test_axis_and_count_guards(call):
    with pytest.raises(InvalidInputError):
        call(lp({(2, 1): [1], (0, 3): [1, 1]}))


def test_zero_polynomial_takes_any_nonnegative_axis():
    assert jackson_derivative(LaurentQPoly.zero(), 4).is_zero
    with pytest.raises(InvalidInputError):
        q_shift(LaurentQPoly.zero(), -1)


def test_iterated_jackson_composes():
    f = rogers_szego(1, 4)
    assert iterated_jackson(f, 0, 3) == jackson_derivative(
        jackson_derivative(jackson_derivative(f, 0), 0), 0
    )


@st.composite
def laurent_polys(draw, series):
    """A LaurentQPoly in 1-3 variables with exponents 0..6, its coefficients
    drawn from a pool of 1-3 objects, so terms share coefficient objects:
    QPolynomials, or TruncatedQSeries of orders 0..6 with Fraction
    coefficients."""
    dim = draw(st.integers(1, 3))
    if series:
        entries = st.fractions(min_value=-5, max_value=5, max_denominator=7)
        pool = [
            TruncatedQSeries(order, draw(st.lists(entries, min_size=1, max_size=order + 1)))
            for order in draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
        ]
    else:
        pool = draw(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=6).map(QPolynomial),
                             min_size=1, max_size=3))
    points = draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), max_size=10, unique=True))
    return LaurentQPoly({u: pool[draw(st.integers(0, len(pool) - 1))] for u in points})


@given(st.booleans().flatmap(laurent_polys), st.data())
@settings(max_examples=150, deadline=None)
def test_closed_forms_match_the_step_by_step_references(f, data):
    dim = len(next(iter(f.terms), (0,)))
    axis = data.draw(st.integers(0, dim - 1))
    for t in range(5):
        assert iterated_jackson(f, axis, t) == reference_iterated_jackson(f, axis, t), t
    assert iterated_jackson(f, axis, 0) is f
    assert jackson_derivative(f, axis) == reference_jackson_derivative(f, axis)
    # series of unequal orders: a sum is trusted through the lowest order of
    # its terms, which the reference can overstate (see the next test), so
    # there the two agree through the lowest order in f
    orders = {c.order for c in f.terms.values() if isinstance(c, TruncatedQSeries)}
    cut = min(orders) if len(orders) > 1 else None
    got = raising_operator(f, axis)
    want = reference_raising_operator(f, axis, dim)
    if cut is not None:
        got, want = (LaurentQPoly({u: c.truncate(cut) for u, c in g.terms.items()}) for g in (got, want))
    assert got == want
    # a term with a negative exponent on the axis: every operator that
    # differentiates refuses it, and no derivative at all returns f
    bad = f + LaurentQPoly({tuple(-1 if j == axis else 0 for j in range(dim)): QPolynomial((1,))})
    assert iterated_jackson(bad, axis, 0) is bad
    for call in (lambda: iterated_jackson(bad, axis, data.draw(st.integers(1, 4))),
                 lambda: jackson_derivative(bad, axis),
                 lambda: raising_operator(bad, axis)):
        with pytest.raises(PreconditionError):
            call()
    with pytest.raises(PreconditionError):
        reference_jackson_derivative(bad, axis)


def test_raising_operator_trusts_a_sum_only_through_its_lowest_order():
    # R(1 + O(q) - x + O(q^2) x) in one variable: the x coefficient is
    # (1 + O(q)) + (-1) + (1 - q) = 1 + O(q).  Object algebra adds the first
    # two terms to a zero series, drops it with its order, and reports
    # 1 - q + O(q^2), which claims a q coefficient the data do not fix.
    f = LaurentQPoly({(0,): TruncatedQSeries(0, [1]), (1,): TruncatedQSeries(1, [-1])})
    assert raising_operator(f, 0).terms[(1,)] == TruncatedQSeries(0, [1])
    assert reference_raising_operator(f, 0, 1).terms[(1,)] == TruncatedQSeries(1, [1, -1])


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_forms_on_the_zero_polynomial(monkeypatch, family):
    _use_family(monkeypatch, family)
    zero = LaurentQPoly.zero()
    for t in range(4):
        assert iterated_jackson(zero, 2, t).is_zero
    assert raising_operator(zero, 1).is_zero


def test_raising_operator_reads_the_variable_count_from_its_input():
    # n is the exponent length of f, so no separate count can disagree with
    # it (a count below it once gave keys of that shorter length)
    for n in (1, 2, 3):
        for k in range(4):
            f = rogers_szego(n, k)
            for axis in range(n):
                assert raising_operator(f, axis) == reference_raising_operator(f, axis, n), (n, k, axis)
    for axis in range(3):
        assert raising_operator(LaurentQPoly.zero(), axis) == LaurentQPoly.zero()


def test_closed_forms_share_results_between_shared_coefficients(hexagon):
    # rs_polynomial shares one QPolynomial per slack multiset; a derivative
    # keeps that sharing for terms with the same coefficient and exponent
    f = rs_polynomial(hexagon)
    for t in (1, 2):
        got = iterated_jackson(f, 0, t)
        made = {}
        for u, c in f.terms.items():
            if u[0] >= t:
                d = got.terms[(u[0] - t,) + u[1:]]
                assert made.setdefault((id(c), u[0]), d) is d, u
        assert len({id(d) for d in got.terms.values()}) == len(made)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_elementary_symmetric_matches_the_subsets(monkeypatch, n, family):
    # the wrong family's table, patched in, is e_d over (x_1, .., x_n) too
    _use_family(monkeypatch, family)
    with_one = family == "vars_with_one"
    for degree in range(-1, n + 3):
        want = reference_elementary_symmetric(n, degree, with_one) if degree >= 0 else LaurentQPoly.zero()
        assert elementary_symmetric(n, degree) == want, degree


# ------------------------------------------------------------------ divisors


def test_first_orthant_reorders_facets(square):
    D = FirstOrthantDivisor.from_polytope(square)
    P = D.polytope
    assert P.normals[0] == (1, 0) and P.normals[1] == (0, 1)
    assert P.offsets[0] == 0 and P.offsets[1] == 0


def test_first_orthant_reuses_an_ordered_polytope(monkeypatch, simplex_p2):
    P = lattice.dilate(simplex_p2, 6)
    lattice.validate(P)
    solves = []
    reduce = lattice.bareiss_reduce

    def counting(rows, width):
        solves.append(width)
        return reduce(rows, width)

    monkeypatch.setattr(lattice, "bareiss_reduce", counting)
    D = FirstOrthantDivisor.from_polytope(P)
    assert D.polytope is P
    assert solves == []


def test_first_orthant_rejects_shifted_polytope():
    P = Polytope.from_facets(1, [((1,), -1), ((-1,), 3)])
    with pytest.raises(PreconditionError):
        FirstOrthantDivisor.from_polytope(P)


def test_derived_divisor_segment():
    D = p1_divisor(3)
    got = derived_divisor(D, 0)
    assert got.polytope.offsets == (0, 2)


def test_derived_divisor_simplex():
    D = p2_divisor(2)
    for axis in (0, 1):
        assert derived_divisor(D, axis).polytope.offsets == (0, 0, 1)


def test_derived_divisor_product():
    D = p1xp1_divisor(2, 3)
    assert derived_divisor(D, 0).polytope.offsets == (0, 0, 1, 3)
    assert derived_divisor(D, 1).polytope.offsets == (0, 0, 2, 2)


@pytest.mark.parametrize("m", range(1, 6))
def test_derivative_identity_p1(m):
    assert verify_derivative_identity(p1_divisor(m), 0)["holds"]


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("axis", [0, 1])
def test_derivative_identity_p2(k, axis):
    assert verify_derivative_identity(p2_divisor(k), axis)["holds"]


@pytest.mark.parametrize("m1", range(1, 4))
@pytest.mark.parametrize("m2", range(1, 4))
@pytest.mark.parametrize("axis", [0, 1])
def test_derivative_identity_p1xp1(m1, m2, axis):
    assert verify_derivative_identity(p1xp1_divisor(m1, m2), axis)["holds"]


def test_derivative_identity_point_is_vacuous():
    report = verify_derivative_identity(p1_divisor(0), 0)
    assert report["holds"]
    assert report["offset_sum"] == 0


# -------------------------------------------------------------------- ladder


def test_rogers_szego_frozen():
    assert rogers_szego(1, 2) == lp({(0,): [1], (1,): [1, 1], (2,): [1]})
    assert rogers_szego(2, 1) == lp({(0, 0): [1], (1, 0): [1], (0, 1): [1]})
    center = rogers_szego(2, 2).coefficient((1, 1))
    assert center == q_multinomial(2, (1, 1, 0))


def test_elementary_symmetric_families():
    # over (1, x_1, .., x_n): e_1 of one variable is 1 + x
    assert elementary_symmetric(1, 1) == lp({(0,): [1], (1,): [1]})
    assert elementary_symmetric(2, 3) == lp({(1, 1): [1]})


def test_raising_operator_base_step():
    one = rogers_szego(1, 0)
    assert raising_operator(one, 0) == rogers_szego(1, 1)


def test_raising_operator_second_step():
    assert raising_operator(rogers_szego(1, 1), 0) == rogers_szego(1, 2)


def test_lowering_is_derivative():
    # the ladder lowers by the Jackson derivative: RS_3 -> [3]_q RS_2, RS_0 -> 0
    f = rogers_szego(1, 3)
    assert jackson_derivative(f, 0) == rogers_szego(1, 2).scale(q_integer(3))
    assert jackson_derivative(rogers_szego(1, 0), 0).is_zero


def test_ladder_one_variable():
    report = verify_ladder(1, 6)
    assert report["all_ok"]
    assert report["convention"] == "vars_with_one"
    assert report["failures"] == []


def test_ladder_two_variables():
    report = verify_ladder(2, 3)
    assert report["all_ok"], report["failures"]
    assert report["raising_ok"] and report["lowering_ok"] and report["commutator_ok"]


BAD_LADDER_CALLS = [
    (verify_ladder, (2, -5)),
    (verify_ladder, (2, 2.5)),
    (verify_ladder, (0, 2)),
    (verify_ladder, (1.0, 2)),
    (verify_ladder, (True, 2)),
    (rogers_szego, (2.5, 2)),
    (rogers_szego, (2, -1)),
    (rogers_szego, (0, 2)),
    (rogers_szego, (2, 1.0)),
    (elementary_symmetric, (2, 1.5)),
    (elementary_symmetric, (2, True)),
    (elementary_symmetric, (1.5, 1)),
    (elementary_symmetric, (0, 1)),
]


@pytest.mark.parametrize(
    "fn, args", BAD_LADDER_CALLS, ids=["%s%r" % (fn.__name__, args) for fn, args in BAD_LADDER_CALLS]
)
def test_ladder_inputs_are_checked(fn, args):
    # nothing is checked vacuously and no raw TypeError escapes
    with pytest.raises(InvalidInputError):
        fn(*args)


def _ladder_reference(n, max_degree, with_one=True):
    """The ladder checks with every operator applied afresh, one identity at
    a time, by the one-derivative-at-a-time references; with_one=False
    raises over the wrong family (x_1, .., x_n)."""
    rs = [rogers_szego(n, k) for k in range(max_degree + 1)]
    failures = []
    for axis in range(n):
        for k in range(1, max_degree + 1):
            if reference_raising_operator(rs[k - 1], axis, n, with_one) != rs[k]:
                failures.append(("raising", axis, k))
            if reference_jackson_derivative(rs[k], axis) != rs[k - 1].scale(q_integer(k)):
                failures.append(("lowering", axis, k))
        for k in range(max_degree + 1):
            lr = reference_jackson_derivative(reference_raising_operator(rs[k], axis, n, with_one), axis)
            rl = reference_raising_operator(reference_jackson_derivative(rs[k], axis), axis, n, with_one)
            if lr - rl != rs[k].scale(QPolynomial.monomial(k)):
                failures.append(("commutator", axis, k))
    return failures


LADDER_SIZES = [(1, 4), (2, 3), (3, 2)]


@pytest.mark.parametrize("n, max_degree", LADDER_SIZES)
def test_ladder_raises_each_degree_twice_per_axis(monkeypatch, n, max_degree):
    # R_i(RS_k) and R_i(L_i(RS_k)) for k = 0 .. max_degree: 2 max_degree + 2
    # raising calls per axis, shared by the raising and commutator checks
    calls = []
    raising = jackson.raising_operator

    def counting(f, axis):
        calls.append(axis)
        return raising(f, axis)

    monkeypatch.setattr(jackson, "raising_operator", counting)
    report = verify_ladder(n, max_degree)
    assert len(calls) == n * (2 * max_degree + 2)
    monkeypatch.undo()
    assert report["failures"] == _ladder_reference(n, max_degree) == []
    assert report["all_ok"]


@pytest.mark.parametrize("n, max_degree", LADDER_SIZES)
def test_ladder_reports_every_failure_of_a_wrong_family(monkeypatch, n, max_degree):
    # negative control: raising over (x_1, .., x_n), without the constant
    # variable, breaks the ladder, and the report names exactly the failing
    # (identity, axis, degree) triples the references find
    _use_family(monkeypatch, "vars_without_one")
    report = verify_ladder(n, max_degree)
    monkeypatch.undo()
    want = _ladder_reference(n, max_degree, with_one=False)
    assert want and report["failures"] == want
    assert not report["all_ok"] and not report["raising_ok"]


def test_ladder_builds_only_the_degrees_it_checks(monkeypatch):
    # RS_0 .. RS_max_degree, one rogers_szego call each
    calls = []
    build = jackson.rogers_szego
    monkeypatch.setattr(jackson, "rogers_szego", lambda n, k: calls.append(k) or build(n, k))
    assert verify_ladder(2, 4)["all_ok"]
    assert calls == [0, 1, 2, 3, 4]


def test_laurent_product_with_unit_coefficients():
    f = lp({(0, 1): [1, 2, 1], (2, 0): [0, 3]})
    e = lp({(1, 0): [1], (0, 0): [1]})
    expected = lp({(1, 1): [1, 2, 1], (3, 0): [0, 3], (0, 1): [1, 2, 1], (2, 0): [0, 3]})
    for prod in (e * f, f * e):
        assert prod == expected
    g = lp({(1, 1): [2, 1]})
    assert (f * g).terms[(1, 2)] == QPolynomial([2, 5, 4, 1])
    assert (e * e) == lp({(2, 0): [1], (1, 0): [2], (0, 0): [1]})


def test_ladder_lowering_scalar():
    # L(RS_k) = [k]_q RS_{k-1} spot check at k=4
    f = rogers_szego(1, 4)
    assert jackson_derivative(f, 0) == rogers_szego(1, 3).scale(q_integer(4))


# ------------------------------------------------------------- leading terms


def expected_literal(P):
    """The bare product of q-integers over the maximizer coordinates, empty
    factors skipped."""
    maximizer = jackson.coordinate_sum_maximizer(P)
    out = QPolynomial.one()
    for i_k in maximizer:
        if i_k >= 1:
            out = out * q_integer(i_k)
    return out


def test_leading_term_segment_2():
    result = leading_term_check(segment(2))
    assert result.maximizer == (2,)
    assert result.value == QPolynomial([1, 1])


def test_leading_term_simplex(simplex_p2):
    result = leading_term_check(simplex_p2)
    assert result.maximizer == (2, 0)
    assert result.value == QPolynomial([1, 1])


def test_leading_term_matches_closed_form(polytopes):
    for name in ("segment_0", "segment_1", "segment_2", "segment_5",
                 "simplex_p2", "square_p1xp1", "hexagon"):
        P = polytopes[name]
        assert leading_term_check(P).value == leading_term_expected(P), name


def test_leading_term_hexagon_value(hexagon):
    want = q_multinomial(6, (2, 2, 1, 0, 0, 1)) * q_factorial(2) * q_factorial(2)
    assert leading_term_check(hexagon).value == want


def test_bare_product_agreement_set(polytopes):
    # on small fixtures the closed form collapses to the bare q-integer
    # product; on larger ones the q-multinomial of the maximizer slacks and
    # the factorials are genuinely bigger
    for name in ("segment_0", "segment_1", "segment_2", "simplex_p2"):
        P = polytopes[name]
        assert leading_term_check(P).value == expected_literal(P), name
    for name in ("segment_5", "square_p1xp1", "hexagon"):
        P = polytopes[name]
        assert leading_term_check(P).value != expected_literal(P), name


def test_coordinate_sum_maximizer_reads_the_row_ends(polytopes):
    # the best row end is the maximum of (coordinate sum, point) over every
    # lattice point: on each fixture and dilation, and on the first-orthant
    # polytope leading_term_check reads it from where that is accepted
    accepted = 0
    for name, P in polytopes.items():
        for k in (1, 2, 3, 4):
            Q = lattice.dilate(P, k)
            cases = [Q]
            try:
                D = FirstOrthantDivisor.from_polytope(Q)
            except PreconditionError:
                pass
            else:
                if D.polytope.is_radially_symmetric():
                    cases.append(D.polytope)
                    accepted += 1
            for R in cases:
                points = lattice.lattice_points(R)
                want = max(points, key=lambda u: (sum(u), u))
                assert jackson.coordinate_sum_maximizer(R) == want, (name, k)
    assert accepted >= 20
    with pytest.raises(PreconditionError):
        jackson.coordinate_sum_maximizer(Polytope(2, ((1, 0), (0, 1), (-1, -1)), (-1, -1, 1)))


def test_leading_term_rejects_non_symmetric(trapezoid):
    with pytest.raises(PreconditionError):
        leading_term_check(trapezoid)
