"""Corner-sum identity engine: weights, series, randomized verification."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbrion import brion, fixtures, lattice
from qbrion.errors import InvalidInputError, PoleError, PreconditionError, SmoothnessError
from qbrion.qalg import QPolynomial, TruncatedQSeries, q_multinomial, q_pochhammer

from conftest import (
    dense_factors,
    dense_multinomial,
    reference_corner_sum,
    reference_lhs,
    reference_vertex_term,
    segment,
    skewed,
    times_q_power,
    translate,
)


# ----------------------------------------------------------- weight polynomial


def test_rs_polynomial_segment_2():
    rs = brion.rs_polynomial(segment(2))
    assert rs.coefficient((0,)) == QPolynomial([1])
    assert rs.coefficient((1,)) == QPolynomial([1, 1])
    assert rs.coefficient((2,)) == QPolynomial([1])
    assert set(rs.support()) == {(0,), (1,), (2,)}


def test_rs_polynomial_hexagon_center(hexagon):
    # all six slacks equal 1 at the center
    rs = brion.rs_polynomial(hexagon)
    center = rs.coefficient((1, 1))
    assert center.evaluate(1) == 720 // 1  # 6!/1 = 720 over unit slacks
    assert center.coefficient(0) == 1


def test_rs_polynomial_square_symmetry(square):
    rs = brion.rs_polynomial(square)
    corners = [(0, 0), (0, 1), (1, 0), (1, 1)]
    vals = {rs.coefficient(c) for c in corners}
    assert len(vals) == 1


def _dense_rs(P):
    return brion.LaurentQPoly(
        {u: dense_multinomial(sum(s), s) for u, s in lattice.points_with_slacks(P)}
    )


def _assert_palindromes(P, rs):
    # each coefficient [m; t]_q has degree D = (m^2 - sum t_i^2) / 2 and
    # c_j = c_(D - j)
    for u, s in lattice.points_with_slacks(P):
        c = rs.coefficient(u).coeffs
        assert len(c) == (sum(s) ** 2 - sum(t * t for t in s)) // 2 + 1, u
        assert c == c[::-1], u


# Radially symmetric, not smooth: last normal coordinates 0, 2, -1, -1, so a
# row step moves one slack by two.
SLOPED = lattice.Polytope.from_facets(
    2, [((1, 0), 3), ((-1, 2), 4), ((1, -1), 2), ((-1, -1), 7)]
)
# Radially symmetric, with row steps that move two slacks by 3: a step can
# lead from a slack multiset of degree D' to one of degree above 2 D' + 1,
# so the half-length walk pads a list past the previous key's degree.
STEEP = lattice.Polytope.from_facets(2, [((-3, 2), 1), ((2, -3), 3), ((1, 1), 4)])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "name", [n for n in fixtures.NAMES if fixtures.load(n).is_radially_symmetric()]
)
def test_rs_polynomial_matches_dense_multinomials(polytopes, name, k):
    P = lattice.dilate(polytopes[name], k)
    rs = brion.rs_polynomial(P)
    assert rs == _dense_rs(P)
    _assert_palindromes(P, rs)


@pytest.mark.parametrize("name", ["cube", "simplex3", "hexagon_prism"])
def test_rs_polynomial_matches_dense_multinomials_3d(solids, name):
    rs = brion.rs_polynomial(solids[name])
    assert rs == _dense_rs(solids[name])
    _assert_palindromes(solids[name], rs)


@pytest.mark.parametrize(
    "P",
    [
        lattice.Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 0)]),
        SLOPED,
        lattice.dilate(SLOPED, 3),
        STEEP,
        lattice.dilate(STEEP, 4),
    ],
    ids=["point", "sloped", "sloped*3", "steep", "steep*4"],
)
def test_rs_polynomial_matches_dense_multinomials_edge_cases(P):
    rs = brion.rs_polynomial(P)
    assert rs == _dense_rs(P)
    assert len(rs.terms) == len(lattice.lattice_points(P))
    _assert_palindromes(P, rs)


def test_rs_polynomial_on_a_large_sloped_dilation():
    # 803 points, degrees up to 2377, row steps that move a slack by 2:
    # every point is checked for its degree, its palindrome and its value at
    # q = 1, and a fixed sample against the per-point kernel-built
    # q-multinomial (the dense oracle takes more than 100 s here)
    P = lattice.dilate(SLOPED, 5)
    rs = brion.rs_polynomial(P)
    points = list(lattice.points_with_slacks(P))
    assert len(rs.terms) == len(points) == 803
    _assert_palindromes(P, rs)
    for u, s in points:
        value = math.factorial(sum(s))
        for t in s:
            value //= math.factorial(t)
        assert rs.coefficient(u).evaluate(1) == value, u
    for u, s in points[::40]:
        assert rs.coefficient(u) == q_multinomial(sum(s), s), u


def _logged_walk(monkeypatch):
    """A list that records, while brion's walk runs, ("build", key) when a
    new key's list is sized and (kernel, m, first, list length) for each
    kernel call."""
    events = []
    for kind in ("mul", "div"):
        name = "pochhammer_%s_inplace" % kind
        kernel = getattr(brion, name)

        def logged(out, c, m, first=1, kernel=kernel, kind=kind):
            events.append((kind, m, first, len(out)))
            return kernel(out, c, m, first)

        monkeypatch.setattr(brion, name, logged)
    walk = brion._weights

    def sized(P, base, length, degree=None):
        def length_new(key):
            events.append(("build", key))
            return length(key)

        return walk(P, base, length_new, degree)

    monkeypatch.setattr(brion, "_weights", sized)
    return events


@pytest.mark.parametrize(
    "P",
    [fixtures.load("hexagon"), lattice.dilate(fixtures.load("simplex_p2"), 3), SLOPED, lattice.dilate(SLOPED, 3)],
    ids=["hexagon", "simplex_p2*3", "sloped", "sloped*3"],
)
def test_rs_walk_steps_only_into_new_multisets(monkeypatch, P):
    # kernel passes run only while a slack multiset the walk has not seen is
    # built: from the previous point's key (the base key (0, .., 0, m) for
    # the first), one kernel call per pair of unequal slacks, the two keys
    # paired in sorted order; and every point with the same multiset holds
    # the same coefficient object
    events = _logged_walk(monkeypatch)
    rs = brion.rs_polynomial(P)
    monkeypatch.undo()
    assert rs == _dense_rs(P)
    points, keys = lattice.sorted_slacks(P)
    base = (0,) * (P.facet_count - 1) + (P.offset_sum(),)
    want, built = [], []
    for prev, key in zip([base] + keys, keys):
        if key not in built:
            built.append(key)
            want.append(("build", key))
            for p, c in zip(prev, key):
                if p > c:
                    want.append(("mul", p, c + 1))
                elif c > p:
                    want.append(("div", c, p + 1))
    assert [e[:3] for e in events] == want
    assert any(e[0] == "mul" for e in events) and any(e[0] == "div" for e in events)
    shared = {}
    for u, key in zip(points, keys):
        assert shared.setdefault(key, rs.terms[u]) is rs.terms[u], u
    assert len({id(c) for c in rs.terms.values()}) == len(shared) == len(built)


def test_rs_walk_on_the_hexagon_prism_takes_few_passes(monkeypatch, solids):
    # each new multiset is reached from the previous point's, in sorted
    # pairs: at most 108 factor passes on the prism dilated 4 times
    P = lattice.dilate(solids["hexagon_prism"], 4)
    events = _logged_walk(monkeypatch)
    rs = brion.rs_polynomial(P)
    monkeypatch.undo()
    calls = [e for e in events if e[0] != "build"]
    assert sum(max(0, min(m, n - 1) - first + 1) for _, m, first, n in calls) <= 108
    for u, s in lattice.points_with_slacks(P):
        assert rs.coefficient(u) == q_multinomial(sum(s), s), u


# The solids of conftest, dilated: radially symmetric, with facets whose
# slack stays put along a row.
SOLIDS = ["cube*2", "simplex3*2", "hexagon_prism*2"]


def _solid(solids, spec):
    """The k-fold dilation of solids[name], spec "name*k"."""
    name, k = spec.split("*")
    return lattice.dilate(solids[name], int(k))


# Not radially symmetric, with row steps that move a slack by 2 or 3.
SLOPED_OPEN = lattice.Polytope.from_facets(
    2, [((1, 0), 3), ((-1, 2), 4), ((1, -1), 2), ((0, -1), 5)]
)


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize(
    "P",
    [
        skewed(fixtures.load("trapezoid_f1")),
        lattice.dilate(skewed(fixtures.load("trapezoid_f1")), 3),
        SLOPED_OPEN,
        *SOLIDS,
    ],
    ids=["skewed-trapezoid", "skewed-trapezoid*3", "sloped-open", *SOLIDS],
)
def test_g_weight_row_walk_matches_per_point_weights(solids, P, K):
    # the walk's truncated steps agree with g_weight rebuilt at every point;
    # on the dilated and sloped polytopes slacks pass the truncation order,
    # and on the solids most facets keep their slack along a row
    if isinstance(P, str):
        P = _solid(solids, P)
    else:
        assert not P.is_radially_symmetric()
        assert max(abs(v[-1]) for v in P.normals) >= 2
    want = {u: list(brion.g_weight(slacks, K).coeffs) for u, slacks in lattice.points_with_slacks(P)}
    points, keys, table = brion._g_weights(P, K)
    assert (points, keys) == lattice.sorted_slacks(P)
    assert {u: table[key] for u, key in zip(points, keys)} == want


@pytest.mark.parametrize(
    "P, K",
    [
        (fixtures.load("hexagon"), 14),
        (lattice.dilate(fixtures.load("simplex_p2"), 3), 6),
        (SLOPED, 70),
        ("cube*2", 13),
        ("simplex3*2", 4),
        ("hexagon_prism*2", 80),
    ],
    ids=["hexagon-K14", "simplex_p2*3-K6", "sloped-K70", "cube*2-K13", "simplex3*2-K4", "hexagon_prism*2-K80"],
)
def test_truncated_rs_walk_matches_cut_multinomials(solids, P, K):
    # the finite-form side's walk, cut at q^K: some multisets have degree
    # D < K (full polynomial, so a longer list is padded from it), others
    # D > K (cut); each list is the q-multinomial cut to min(K + 1, D + 1)
    if isinstance(P, str):
        P = _solid(solids, P)
    m = P.offset_sum()
    points, keys, table = brion._rs_weights(P, K)
    assert (points, keys) == lattice.sorted_slacks(P)
    degrees = {key: (m * m - sum(t * t for t in key)) // 2 for key in table}
    assert min(degrees.values()) < K < max(degrees.values())
    for key, c in table.items():
        n = min(K, degrees[key]) + 1
        want = list(q_multinomial(m, key).coeffs)
        assert c == (want + [0] * n)[:n], key
        assert all(type(x) is int for x in c)


def test_truncated_rs_walk_starts_rows_modulo_the_order(monkeypatch):
    # every list is built modulo q^(min(K, D) + 1), D the degree of the key
    # being built, not at full degree and then cut: no kernel pass runs on a
    # longer list, for D < K and D > K alike
    P, K = SLOPED, 70
    m = P.offset_sum()
    events = _logged_walk(monkeypatch)
    brion._rs_weights(P, K)
    monkeypatch.undo()
    degrees, D = set(), None
    for event in events:
        if event[0] == "build":
            D = (m * m - sum(t * t for t in event[1])) // 2
            degrees.add(D)
        else:
            assert event[3] <= min(K, D) + 1, event
    assert min(degrees) < K < max(degrees)
    assert any(event[0] != "build" for event in events)


@pytest.mark.parametrize("name", ["hexagon", "trapezoid_f1", "simplex_p2"])
def test_lhs_series_evaluates_to_lhs_value(polytopes, name):
    P = lattice.dilate(polytopes[name], 2)
    x0 = brion.sample_generic_point(P, seed=5)
    assert brion.lhs_series(P, 6).evaluate_series(x0, 6) == brion.lhs_value_at(P, x0, 6)


def test_evaluate_series_rejects_coefficients_below_order():
    poly = brion.LaurentQPoly({(1,): TruncatedQSeries(2, [1, 1]), (0,): TruncatedQSeries(5, [3])})
    assert poly.evaluate_series((2,), 2) == TruncatedQSeries(2, [5, 2])
    assert poly.evaluate_series((2,), 1) == TruncatedQSeries(1, [5, 2])
    with pytest.raises(PreconditionError):
        poly.evaluate_series((2,), 3)


def _spy_tables(monkeypatch):
    """The tables evaluate_series hands to _point_groups, one per call."""
    tables, point_groups = [], brion._point_groups

    def spy(points, keys, table):
        tables.append(table)
        return point_groups(points, keys, table)

    monkeypatch.setattr(brion, "_point_groups", spy)
    return tables


def test_evaluate_series_groups_terms_by_object(monkeypatch):
    # equal values in distinct objects, a coefficient that fits the cut and
    # one that only agrees with it through q^order are separate groups, and
    # every term sums as itself
    short, long = QPolynomial([1, 2]), QPolynomial([1, 2, 7])
    poly = brion.LaurentQPoly(
        {(0,): short, (1,): QPolynomial([1, 2]), (2,): long, (3,): QPolynomial([1, 2, 9]), (-1,): short}
    )
    tables = _spy_tables(monkeypatch)
    x0 = (Fraction(1, 3),)
    for order in (0, 1, 2, 3):
        want = TruncatedQSeries(order)
        for (u,), c in poly.terms.items():
            want = want + c.to_series(order).scale(x0[0] ** u)
        assert poly.evaluate_series(x0, order) == want, order
        objects = (short, poly.terms[(1,)], long, poly.terms[(3,)])
        assert sorted(tables[-1].values()) == sorted(c.coeffs[: order + 1] for c in objects)
    assert hash(short) == hash(QPolynomial([1, 2]))


def test_evaluate_series_takes_one_group_per_slack_multiset(monkeypatch, hexagon):
    P = lattice.dilate(hexagon, 2)
    rs = brion.rs_polynomial(P)
    tables = _spy_tables(monkeypatch)
    rs.evaluate_series(brion.sample_generic_point(P, seed=3), 5)
    assert len(tables) == 1
    assert len(tables[0]) == len(set(lattice.sorted_slacks(P)[1]))


def test_laurent_poly_rejects_exponent_vectors_of_two_lengths():
    one = QPolynomial([1])
    with pytest.raises(InvalidInputError):
        brion.LaurentQPoly({(1,): one, (1, 2): one})
    with pytest.raises(InvalidInputError):
        brion.LaurentQPoly({(1,): one}) + brion.LaurentQPoly({(1, 2): one})
    # zero coefficients are dropped before the check, and zero has no length
    assert brion.LaurentQPoly({(1,): one, (1, 2): QPolynomial.zero()}).support() == [(1,)]
    assert (brion.LaurentQPoly.zero() + brion.LaurentQPoly({(1, 2): one})).support() == [(1, 2)]


def test_g_weight_is_inverse_pochhammer_product():
    order = 8
    got = brion.g_weight((0, 2), order)
    want = q_pochhammer(2).to_series(order).inverse()
    assert got == want
    # slacks above the order: their factors past q^order are 1
    slacks = (3, 11, 0, 9, 1)
    want = TruncatedQSeries.one(order)
    for s in slacks:
        want = want * q_pochhammer(s).to_series(order).inverse()
    assert brion.g_weight(slacks, order) == want


# --------------------------------------------------------- series evaluation


def test_lhs_series_counts_points_at_q0(hexagon):
    x0 = brion.sample_generic_point(hexagon, seed=3)
    series = brion.lhs_value_at(hexagon, x0, order=6)
    total = sum(
        brion.monomial_value(x0, u) for u in lattice.lattice_points(hexagon)
    )
    assert series.coefficient(0) == total


def test_rhs_q0_is_classical_brion(polytopes):
    # q^0 coefficient of the corner sum equals the plain lattice-point
    # generating function at the sample point, fixture by fixture
    for name in fixtures.NAMES:
        P = polytopes[name]
        for seed in (0, 1):
            x0 = brion.sample_generic_point(P, seed=seed)
            rhs = brion.rhs_series_at(P, x0, order=4)
            total = sum(
                brion.monomial_value(x0, u) for u in lattice.lattice_points(P)
            )
            assert rhs.coefficient(0) == total, name


def test_evaluation_homomorphism(hexagon):
    # evaluating the weight polynomial then truncating equals truncating
    # coefficients then evaluating
    order = 5
    x0 = brion.sample_generic_point(hexagon, seed=11)
    rs = brion.rs_polynomial(hexagon)
    direct = rs.evaluate_series(x0, order)
    manual = None
    for u in rs.support():
        term = rs.coefficient(u).to_series(order).scale(brion.monomial_value(x0, u))
        manual = term if manual is None else manual + term
    assert direct == manual


# ------------------------------------------------------------- verification


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_verify_identity_segments(m):
    report = brion.verify_identity(segment(m), order=20, trials=3, seed=5)
    assert report.equal
    assert report.first_mismatch is None
    assert len(report.points) == 3


@pytest.mark.parametrize("name", ["hexagon", "simplex_p2", "square_p1xp1"])
def test_verify_identity_2d(polytopes, name):
    report = brion.verify_identity(polytopes[name], order=12, trials=3, seed=2)
    assert report.equal, report.first_mismatch


@pytest.mark.parametrize("name", ["cube", "simplex3", "hexagon_prism"])
def test_verify_identity_3d(solids, name):
    report = brion.verify_identity(solids[name], order=6)
    assert report.equal, report.first_mismatch


def test_verify_identity_trapezoid(trapezoid):
    report = brion.verify_identity(trapezoid, order=10, trials=2, seed=0)
    assert report.equal


@pytest.mark.parametrize("name", ["segment_2", "hexagon", "square_p1xp1"])
def test_verify_identity_finite_form(polytopes, name):
    report = brion.verify_identity(
        polytopes[name], order=12, trials=2, seed=4, finite_form=True
    )
    assert report.equal
    assert report.finite_form


def test_finite_form_requires_radial_symmetry(trapezoid):
    with pytest.raises(PreconditionError):
        brion.verify_identity(trapezoid, order=8, trials=1, finite_form=True)


def test_finite_form_rejects_a_non_smooth_polytope_before_the_point_walk(monkeypatch):
    # the diamond |x| + |y| <= 3 is radially symmetric but not smooth
    diamond = lattice.Polytope(2, ((1, 1), (-1, 1), (-1, -1), (1, -1)), (3, 3, 3, 3))
    calls, walk = [], lattice.sorted_slacks

    def counting_walk(P):
        calls.append(P)
        return walk(P)

    monkeypatch.setattr(lattice, "sorted_slacks", counting_walk)
    with pytest.raises(SmoothnessError):
        brion.verify_identity(diamond, order=12, trials=1, finite_form=True)
    assert calls == []


def test_point_polytope_sums_to_one():
    P = segment(0)
    x0 = brion.sample_generic_point(P, seed=9)
    order = 12
    rhs = brion.rhs_series_at(P, x0, order)
    lhs = brion.lhs_value_at(P, x0, order)
    assert rhs == lhs
    assert lhs.coefficient(0) == 1


def test_truncation_stability(hexagon):
    x0 = brion.sample_generic_point(hexagon, seed=7)
    low = brion.rhs_series_at(hexagon, x0, order=6)
    high = brion.rhs_series_at(hexagon, x0, order=12)
    assert high.truncate(6) == low


def test_degree_sum_sufficiency(hexagon):
    # every corner term whose valuation exceeds the window contributes
    # nothing below it: each such term must vanish mod q^K
    K = 5
    x0 = brion.sample_generic_point(hexagon, seed=13)
    for vd in lattice.enumerate_vertices(hexagon):
        for b in lattice.enumerate_corner_degrees(hexagon, vd, K + 10):
            val = lattice.corner_degree_valuation(hexagon, vd, b)
            if K < val:
                term = brion.vertex_term(hexagon, vd, b, x0, order=K)
                assert term.is_zero


def test_vertex_term_negative_facet_entry_matches_dense_formula(hexagon):
    # x^p (c_0;q)_{-b_0} (-c_1)^{-b_1} / (c_1^-1 q;q)_{b_1} (-1)^{b_5} /
    # (q;q)_{b_5} / prod_edges (c;q)_inf times q^valuation, each Pochhammer
    # factor a dense product of series
    order = 12
    x0 = brion.sample_generic_point(hexagon, seed=3)
    vd = next(v for v in lattice.enumerate_vertices(hexagon) if v.point == (0, 0))
    assert vd.facet_set == (0, 1)
    edge_vals = [brion.monomial_value(x0, e) for e in vd.edge_dirs]
    for b in ((-2, 2, 0, 0, 0, 2), (-1, 1, 0, 0, 0, 1)):
        assert b in lattice.enumerate_corner_degrees(hexagon, vd, order)
        want = TruncatedQSeries.constant(brion.monomial_value(x0, vd.point), order)
        for c in edge_vals:
            want = want * dense_factors(c, range(order + 1), order).inverse()
        c0, c1 = edge_vals
        want = want * dense_factors(c0, range(-b[0]), order)
        want = want.scale((-c1) ** -b[1]) * dense_factors(1 / c1, range(1, b[1] + 1), order).inverse()
        want = want.scale((-1) ** b[5]) * dense_factors(1, range(1, b[5] + 1), order).inverse()
        want = times_q_power(want, lattice.corner_degree_valuation(hexagon, vd, b))
        got = brion.vertex_term(hexagon, vd, b, x0, order)
        assert not got.is_zero
        assert got == want


def test_report_is_json_serializable(square):
    import json

    report = brion.verify_identity(square, order=8, trials=2, seed=1)
    payload = json.dumps(report.to_dict())
    assert "polytope_hash" in payload


def test_sample_generic_point_deterministic(hexagon):
    a = brion.sample_generic_point(hexagon, seed=21)
    b = brion.sample_generic_point(hexagon, seed=21)
    c = brion.sample_generic_point(hexagon, seed=22)
    assert a == b
    assert a != c
    assert all(isinstance(x, Fraction) and x != 0 for x in a)


def test_degree_vectors_used_counts_union(hexagon):
    report = brion.verify_identity(hexagon, order=6, trials=1, seed=0)
    union = set()
    for vd in lattice.enumerate_vertices(hexagon):
        union.update(lattice.enumerate_corner_degrees(hexagon, vd, 6))
    assert report.degree_vectors_used == len(union)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 0},
        {"trials": -2},
        {"trials": True},
        {"trials": 2.0},
        {"order": -1},
        {"order": True},
        {"order": 2.0},
    ],
    ids=["trials0", "trials-2", "trialsTrue", "trials2.0", "order-1", "orderTrue", "order2.0"],
)
def test_verify_identity_rejects_bad_counts(hexagon, kwargs):
    # zero or negative trials would compare nothing and report equal
    with pytest.raises(InvalidInputError):
        brion.verify_identity(hexagon, **kwargs)


@pytest.mark.parametrize("seed", [[1], "x", 1.5, True], ids=["list", "str", "float", "bool"])
def test_seed_is_validated(hexagon, seed):
    # random.Random would take a str or a float, and the report would echo it
    with pytest.raises(InvalidInputError):
        brion.verify_identity(hexagon, 2, seed=seed)
    with pytest.raises(InvalidInputError):
        brion.sample_generic_point(hexagon, seed)


def test_verify_identity_enumerates_each_vertex_once(monkeypatch, hexagon):
    calls = []
    enumerate_corner_degrees = lattice.enumerate_corner_degrees

    def counting(P, vd, order):
        calls.append(vd)
        return enumerate_corner_degrees(P, vd, order)

    monkeypatch.setattr(lattice, "enumerate_corner_degrees", counting)
    P = lattice.dilate(hexagon, 2)
    report = brion.verify_identity(P, order=8, trials=3, seed=0)
    assert report.equal
    assert calls == lattice.enumerate_vertices(P)


# ------------------------------------------------------ per-point tables

PER_POINT = [
    fixtures.load("hexagon"),
    lattice.dilate(fixtures.load("simplex_p2"), 3),
    translate(fixtures.load("trapezoid_f1"), (3, -2)),
]
PER_POINT_IDS = ["hexagon", "simplex_p2*3", "trapezoid+(3,-2)"]


def _check_report_points(P, report, order):
    """Both sides at every point the report sampled equal the Fraction
    reference path."""
    assert report.equal
    for coords in report.points:
        x0 = tuple(Fraction(c) for c in coords)
        assert brion.rhs_series_at(P, x0, order) == reference_corner_sum(P, x0, order)
        assert brion.lhs_value_at(P, x0, order) == reference_lhs(P, x0, order)


@pytest.mark.parametrize("P", PER_POINT, ids=PER_POINT_IDS)
def test_verify_identity_takes_each_valuation_once(monkeypatch, P):
    # the kept degree vectors and their valuations do not depend on the
    # point: one valuation per (vertex, degree vector) for all trials
    order, calls = 8, {}
    valuation = lattice.corner_degree_valuation

    def counting(P, vd, b):
        calls[vd, b] = calls.get((vd, b), 0) + 1
        return valuation(P, vd, b)

    monkeypatch.setattr(lattice, "corner_degree_valuation", counting)
    report = brion.verify_identity(P, order=order, trials=3, seed=2)
    monkeypatch.undo()
    want = {(vd, b) for vd in lattice.enumerate_vertices(P)
            for b in lattice.enumerate_corner_degrees(P, vd, order)}
    assert set(calls) == want
    assert set(calls.values()) == {1}
    _check_report_points(P, report, order)


@pytest.mark.parametrize("P", PER_POINT, ids=PER_POINT_IDS)
def test_verify_identity_builds_one_table_per_value_and_point(monkeypatch, P):
    # per trial point, one table per distinct value among the edge values c,
    # the 1/c a positive degree entry needs, and 1 (the powers of B); entry
    # i >= 1 of the table of c is the int c B^i
    order, built = 8, []

    class Recording(brion._Tables):
        def __init__(self, B, order):
            super().__init__(B, order)
            self.made = []
            built.append(self)

        def __missing__(self, c):
            self.made.append(c)
            return super().__missing__(c)

    monkeypatch.setattr(brion, "_Tables", Recording)
    report = brion.verify_identity(P, order=order, trials=3, seed=2)
    monkeypatch.undo()
    assert len(built) == 3
    vertices = lattice.enumerate_vertices(P)
    for tables, coords in zip(built, report.points):
        x0 = tuple(Fraction(c) for c in coords)
        values = {brion.monomial_value(x0, e) for vd in vertices for e in vd.edge_dirs}
        B = math.lcm(*(x for c in values for x in (c.numerator, c.denominator)))
        made = [Fraction(*c) for c in tables.made]
        assert len(made) == len(set(made))
        assert values <= set(made) <= values | {1 / c for c in values}
        assert set(tables) == {(1, 1), *tables.made}
        assert tables[1, 1] == [B**i for i in range(order + 1)]
        for c, table in tables.items():
            assert len(table) == order + 1
            assert all(type(x) is int for x in table)
            assert table[1:] == [Fraction(*c) * B**i for i in range(1, order + 1)]
    _check_report_points(P, report, order)


@pytest.mark.parametrize("P", PER_POINT, ids=PER_POINT_IDS)
def test_verify_identity_adds_one_pass_per_slack_multiset(monkeypatch, P):
    # the lattice-point side reads each shared weight list once per point:
    # one multiply-add pass per slack multiset, not one per lattice point;
    # so does the finite-form side with its q-multinomials cut at q^order
    order = 8
    finite_form = P.is_radially_symmetric()

    class Counted(list):
        passes = 0

        def __iter__(self):
            self.passes += 1
            return super().__iter__()

    lists = {}
    for name in ("_g_weights", "_rs_weights"):
        walk = getattr(brion, name)

        def counted(P, k, walk=walk, name=name):
            points, keys, table = walk(P, k)
            lists[name] = {key: Counted(c) for key, c in table.items()}
            return points, keys, lists[name]

        monkeypatch.setattr(brion, name, counted)
    report = brion.verify_identity(P, order=order, trials=3, seed=2, finite_form=finite_form)
    monkeypatch.undo()
    multisets = {tuple(sorted(s)) for _, s in lattice.points_with_slacks(P)}
    assert sorted(lists) == (["_g_weights", "_rs_weights"] if finite_form else ["_g_weights"])
    for table in lists.values():
        assert set(table) == multisets and len(multisets) < len(lattice.lattice_points(P))
        assert [c.passes for c in table.values()] == [3] * len(table)
    _check_report_points(P, report, order)


@pytest.mark.parametrize("P", PER_POINT, ids=PER_POINT_IDS)
def test_verify_identity_samples_the_generic_points(P):
    # the edge values come along with the point; the draws do not change
    for seed in (0, 1, 7, 123):
        report = brion.verify_identity(P, order=4, trials=1, seed=seed)
        assert tuple(Fraction(c) for c in report.points[0]) == brion.sample_generic_point(P, seed)
        _check_report_points(P, report, 4)


@pytest.mark.parametrize("P", PER_POINT, ids=PER_POINT_IDS)
def test_lhs_series_shares_one_series_per_slack_multiset(P):
    K = 6
    series = brion.lhs_series(P, K)
    points = list(lattice.points_with_slacks(P))
    assert series.terms == {u: brion.g_weight(s, K) for u, s in points}
    assert len({id(s) for s in series.terms.values()}) == len({tuple(sorted(s)) for _, s in points})
    x0 = brion.sample_generic_point(P, seed=3)
    assert series.evaluate_series(x0, K) == reference_lhs(P, x0, K)


def test_lhs_series_missing_coefficient_adds_on_either_side(hexagon):
    # a missing coefficient is QPolynomial.zero(), which adds to a series
    # from the left as from the right
    f = brion.lhs_series(hexagon, 5)
    zero, c = f.coefficient((99, 99)), f.coefficient((0, 0))
    assert zero + c == c + zero == c
    assert zero - c == -c
    assert c - zero == c


# ----------------------------------------------------- finite-form coherence


@pytest.mark.parametrize("name", ["segment_1", "segment_5", "simplex_p2", "square_p1xp1", "hexagon"])
def test_weight_polynomial_coherence(polytopes, name):
    # (q;q)_{offset sum} times the weighted point series equals the
    # weight polynomial, coefficient by coefficient
    P = polytopes[name]
    order = 12
    x0 = brion.sample_generic_point(P, seed=6)
    lhs = brion.lhs_value_at(P, x0, order)
    scaled = lhs * q_pochhammer(P.offset_sum()).to_series(order)
    rs = brion.rs_polynomial(P).evaluate_series(x0, order)
    assert scaled == rs


# ------------------------------------------- integer corner sum vs reference


def _check_against_reference(P, x0, order):
    """rhs_series_at, lhs_value_at and every vertex_term equal the Fraction
    reference path exactly, coefficient by coefficient."""
    assert brion.rhs_series_at(P, x0, order) == reference_corner_sum(P, x0, order)
    assert brion.lhs_value_at(P, x0, order) == reference_lhs(P, x0, order)
    for vd in lattice.enumerate_vertices(P):
        for b in lattice.enumerate_corner_degrees(P, vd, order):
            want = reference_vertex_term(P, vd, b, x0, order)
            assert brion.vertex_term(P, vd, b, x0, order) == want, (vd.point, b)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", fixtures.NAMES)
def test_integer_corner_sum_matches_reference(polytopes, name, k):
    P = lattice.dilate(polytopes[name], k)
    _check_against_reference(P, brion.sample_generic_point(P, seed=k), 10)


@pytest.mark.parametrize("shift", [(3, -2), (-5, 7)])
@pytest.mark.parametrize("name", ["hexagon", "simplex_p2", "trapezoid_f1"])
def test_integer_corner_sum_matches_reference_translated(polytopes, name, shift):
    P = translate(polytopes[name], shift)
    _check_against_reference(P, brion.sample_generic_point(P, seed=4), 7)


@pytest.mark.parametrize("name", ["cube", "simplex3", "hexagon_prism"])
def test_integer_corner_sum_matches_reference_3d(solids, name):
    P = solids[name]
    _check_against_reference(P, brion.sample_generic_point(P, seed=2), 4)


@pytest.mark.parametrize(
    "x0",
    [
        (2, 3),
        (-2, 5),
        (-4, -3),
        (Fraction(-7, 2), Fraction(5, 9)),
        (-1, 2),
        (3, -1),
        (-1, Fraction(2, 3)),
    ],
    ids=["int", "negative", "both-negative", "rational", "x=-1", "y=-1", "x=-1-rational"],
)
def test_integer_corner_sum_matches_reference_at_special_points(hexagon, x0):
    # with a coordinate -1 some edge values are -1 or 1/-1; integer
    # coordinates leave B the lcm of numerators only
    _check_against_reference(hexagon, x0, 10)


def test_integer_corner_sum_raises_on_a_pole(hexagon):
    # x0 = (2, 1/2) puts the edge value x y at 1
    x0 = (2, Fraction(1, 2))
    with pytest.raises(PoleError):
        brion.rhs_series_at(hexagon, x0, 6)
    with pytest.raises(PoleError):
        reference_corner_sum(hexagon, x0, 6)


@pytest.mark.parametrize(
    "P, x0",
    [(fixtures.load("hexagon"), None), (segment(3), (-1,)), (fixtures.load("square_p1xp1"), (-1, -1))],
    ids=["hexagon", "segment-B1", "square-B1"],
)
def test_scaled_corner_sum_holds_only_ints(P, x0):
    # also at points whose edge values are all -1, where B = 1
    order = 12
    x0 = x0 or brion.sample_generic_point(P, seed=1)
    vertices = lattice.enumerate_vertices(P)
    per_vertex = [lattice.enumerate_corner_degrees(P, vd, order) for vd in vertices]
    plan = brion._corner_plan(P, vertices, per_vertex, order)
    edge_vals = brion._edge_pairs(x0, vertices)
    acc, den, powers = brion._scaled_corners(plan, x0, edge_vals, order, P.facet_count - P.dim)
    assert all(type(a) is int for a in acc + [den] + powers)
    acc, den, powers = brion._scaled_points(brion._point_groups(*brion._g_weights(P, order)), x0, order)
    assert all(type(a) is int for a in acc + [den] + powers)
    assert brion.rhs_series_at(P, x0, order) == reference_corner_sum(P, x0, order)


# ------------------------------------------- shared facet and off parts


def _corner_series(P, x0, order, per_vertex):
    """The corner side at x0 through _corner_plan and _scaled_corners, each
    vertex summed over its vectors in per_vertex."""
    vertices = lattice.enumerate_vertices(P)
    plan = brion._corner_plan(P, vertices, per_vertex, order)
    scaled = brion._scaled_corners(plan, x0, brion._edge_pairs(x0, vertices), order, P.facet_count - P.dim)
    return brion._unscaled(*scaled)


SHARED_CASES = [(name, None) for name in fixtures.NAMES] + [
    (name, None) for name in ("cube", "simplex3", "hexagon_prism")
] + [("segment_3", (-1,)), ("square_p1xp1", (-1, -1))]
SHARED_IDS = [name + ("-B1" if x0 else "") for name, x0 in SHARED_CASES]


@pytest.mark.parametrize("order", [0, 1, 6, 10])
@pytest.mark.parametrize("name, x0", SHARED_CASES, ids=SHARED_IDS)
def test_shared_corner_sum_matches_reference(polytopes, solids, name, x0, order):
    # vectors share one list per facet part and one off pass per off part;
    # the sum is the Fraction reference's, term by term, also at points
    # whose edge values are all -1 (B = 1)
    P = {**polytopes, **solids, "segment_3": segment(3)}[name]
    if x0:
        vertices = lattice.enumerate_vertices(P)
        assert math.lcm(*(x for cs in brion._edge_pairs(x0, vertices) for c in cs for x in c)) == 1
    else:
        x0 = brion.sample_generic_point(P, seed=order)
    want = reference_corner_sum(P, x0, order)
    assert brion.rhs_series_at(P, x0, order) == want
    assert brion.lhs_value_at(P, x0, order) == want


def test_vertex_term_matches_reference_on_single_negative_vectors(hexagon):
    # single vectors, in the kernel or not, whose facet entries run down to
    # -3 (a chain of finite-product factors, and the bare (1 - c) of -1) and
    # up to 3, with an off entry: each is its own plan
    order = 10
    x0 = brion.sample_generic_point(hexagon, seed=6)
    vertices = lattice.enumerate_vertices(hexagon)
    checked = 0
    for vd in vertices:
        f0, f1 = vd.facet_set
        off = next(i for i in range(hexagon.facet_count) if i not in vd.facet_set)
        for d0 in range(-3, 4):
            for d1 in range(-3, 4):
                for e in range(3):
                    if min(d0, d1) >= 0:
                        continue
                    b = [0] * hexagon.facet_count
                    b[f0], b[f1], b[off] = d0, d1, e
                    b = tuple(b)
                    if lattice.corner_degree_valuation(hexagon, vd, b) < 0:
                        continue
                    want = reference_vertex_term(hexagon, vd, b, x0, order)
                    assert brion.vertex_term(hexagon, vd, b, x0, order) == want, (vd.point, b)
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("order", [12, 28])
def test_off_parts_take_their_passes_once_per_point(monkeypatch, hexagon, order):
    # the passes on the shared powers table (the one table whose entry 0 is
    # 1): one set per distinct off part, each as long as its lowest
    # valuation allows, then the Euler division, not one set per vector
    x0 = brion.sample_generic_point(hexagon, seed=1)
    factors = []
    div = brion.pochhammer_div_inplace

    def counting(out, c, m, first=1):
        if isinstance(c, list) and c[0] == 1:
            factors.append(len(range(first, min(m, len(out) - 1) + 1)))
        return div(out, c, m, first)

    monkeypatch.setattr(brion, "pochhammer_div_inplace", counting)
    got = brion.rhs_series_at(hexagon, x0, order)
    monkeypatch.undo()
    assert got == reference_corner_sum(hexagon, x0, order)
    low, per_vector = {}, 0
    for vd in lattice.enumerate_vertices(hexagon):
        for b in lattice.enumerate_corner_degrees(hexagon, vd, order):
            shift = lattice.corner_degree_valuation(hexagon, vd, b)
            off = tuple(sorted(d for i, d in enumerate(b) if d and i not in vd.facet_set))
            low[off] = min(low.get(off, shift), shift)
            per_vector += sum(min(d, order - shift) for d in off)
    euler = (hexagon.facet_count - hexagon.dim) * order
    want = sum(min(d, order - s) for off, s in low.items() for d in off) + euler
    assert sum(factors) == want
    assert 10 * (want - euler) < per_vector


@pytest.mark.parametrize(
    "name, sets",
    [
        ("hexagon", 10),
        ("trapezoid_f1", 6),
        ("square_p1xp1", 6),
        ("simplex_p2", 6),
        ("hexagon_prism", 26),
        ("cube", 20),
    ],
)
def test_vertices_that_share_an_edge_direction_share_its_base_list(monkeypatch, polytopes, solids, name, sets):
    # one full pass set per edge of each vertex, less one per vertex that
    # starts from a direction an earlier vertex started from: the hexagon's
    # vertices share directions along two triangles, so four start lists
    # serve six vertices; the trapezoid's and the square's share in two
    # pairs; no two vertices of simplex_p2 share a direction; the prism's
    # twelve vertices take six start lists, the cube's eight take four
    P, order = {**polytopes, **solids}[name], 8
    x0 = brion.sample_generic_point(P, seed=2)
    full = []
    div = brion.pochhammer_div_inplace

    def counting(out, c, m, first=1):
        if isinstance(c, list) and c[0] == 0 and first == 1 and m == order:
            full.append(c)
        return div(out, c, m, first)

    monkeypatch.setattr(brion, "pochhammer_div_inplace", counting)
    got = brion.rhs_series_at(P, x0, order)
    monkeypatch.undo()
    assert got == reference_corner_sum(P, x0, order)
    assert len(full) == sets


def test_a_vertex_with_no_shared_edge_direction_starts_from_its_first_edge():
    # 3 trapezoid_f1 with its corner (3, 0) cut by -x + 2y >= -2: no other
    # vertex has an edge direction of (4, 1), which starts from its first
    # edge; (2, 0) starts from its second, (-1, 0), which (6, 3) has too
    P, order = lattice.Polytope(2, ((1, 0), (0, 1), (-1, 1), (0, -1), (-1, 2)), (0, 0, 3, 3, 2)), 8
    vertices = lattice.enumerate_vertices(P)
    plan, _ = brion._corner_plan(P, vertices, [[] for _ in vertices], order)
    assert {vd.point: start for vd, start, _, _ in plan} == {(0, 0): 0, (0, 3): 0, (2, 0): 1, (4, 1): 0, (6, 3): 0}
    x0 = brion.sample_generic_point(P, seed=2)
    assert brion.rhs_series_at(P, x0, order) == reference_corner_sum(P, x0, order)


FANS = {name: fixtures.load(name).normals for name in ("hexagon", "square_p1xp1", "simplex_p2")}


@given(
    st.sampled_from(sorted(FANS)),
    st.lists(st.integers(0, 4), min_size=6, max_size=6),
    st.integers(0, 8),
    st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_shared_corner_sum_on_generated_smooth_polygons(fan, offsets, order, pick):
    # random offsets on three fans, kept where the polygon is smooth and
    # full-dimensional: the corner side equals the reference and the
    # lattice-point side, and without one of its vectors it first differs at
    # that vector's valuation
    normals = FANS[fan]
    P = lattice.Polytope(2, normals, tuple(offsets[: len(normals)]))
    report = lattice.validate(P)
    assume(report.smooth and report.full_dimensional)
    x0 = brion.sample_generic_point(P, seed=pick)
    lhs = brion.lhs_value_at(P, x0, order)
    assert brion.rhs_series_at(P, x0, order) == reference_corner_sum(P, x0, order) == lhs
    vertices = lattice.enumerate_vertices(P)
    per_vertex = [lattice.enumerate_corner_degrees(P, vd, order) for vd in vertices]
    t = pick % len(vertices)
    dropped = per_vertex[t][pick // len(vertices) % len(per_vertex[t])]
    per_vertex[t] = [b for b in per_vertex[t] if b != dropped]
    rhs = _corner_series(P, x0, order, per_vertex)
    j = next(j for j in range(order + 1) if rhs.coeffs[j] != lhs.coeffs[j])
    assert j == lattice.corner_degree_valuation(P, vertices[t], dropped)


@pytest.mark.parametrize("finite_form", [False, True])
def test_mismatch_report_matches_reference(monkeypatch, hexagon, finite_form):
    # drop one degree vector from one vertex's set: the identity breaks at
    # that vector's valuation, and the report's first mismatch is the one the
    # reference path gives at the same point; the finite form reports the
    # same corner-sum mismatch, not one multiplied by (q;q)_m
    order = 10
    enumerate_corner_degrees = lattice.enumerate_corner_degrees
    vertices = lattice.enumerate_vertices(hexagon)
    target = vertices[2]
    dropped = enumerate_corner_degrees(hexagon, target, order)[3]

    def dropping(P, vd, k):
        return [b for b in enumerate_corner_degrees(P, vd, k) if vd != target or b != dropped]

    monkeypatch.setattr(lattice, "enumerate_corner_degrees", dropping)
    report = brion.verify_identity(hexagon, order=order, trials=2, seed=3, finite_form=finite_form)
    assert not report.equal
    mismatch = report.first_mismatch
    x0 = tuple(Fraction(c) for c in report.points[0])
    per_vertex = [dropping(hexagon, vd, order) for vd in vertices]
    lhs = reference_lhs(hexagon, x0, order)
    rhs = reference_corner_sum(hexagon, x0, order, per_vertex)
    j = next(j for j in range(order + 1) if lhs.coeffs[j] != rhs.coeffs[j])
    assert j == lattice.corner_degree_valuation(hexagon, target, dropped)
    assert mismatch == {
        "trial": 0,
        "comparison": "corner_sum",
        "power": j,
        "lhs": str(lhs.coeffs[j]),
        "rhs": str(rhs.coeffs[j]),
        "point": report.points[0],
    }


# ------------------------------------------------------- evaluation points


BAD_POINTS = {
    "short": (2,),
    "long": (2, 3, 5),
    "zero": (0, 2),
    "zero-fraction": (Fraction(3, 2), Fraction(0)),
    "float": (Fraction(1, 3), 0.5),
    "bool": (True, 2),
    "string": ("2", 3),
    "not-a-sequence": 5,
}


@pytest.mark.parametrize("order", [-1, 2.5, True, "3", None], ids=["-1", "2.5", "True", "str", "None"])
@pytest.mark.parametrize(
    "entry",
    ["lhs_series", "lhs_value_at", "rhs_series_at", "vertex_term", "g_weight", "evaluate_series",
     "enumerate_corner_degrees"],
)
def test_series_order_is_validated(hexagon, entry, order):
    x0 = (2, Fraction(-1, 3))
    vd = lattice.enumerate_vertices(hexagon)[0]
    call = {
        "lhs_series": lambda: brion.lhs_series(hexagon, order),
        "lhs_value_at": lambda: brion.lhs_value_at(hexagon, x0, order),
        "rhs_series_at": lambda: brion.rhs_series_at(hexagon, x0, order),
        "vertex_term": lambda: brion.vertex_term(hexagon, vd, (0,) * 6, x0, order),
        "g_weight": lambda: brion.g_weight((1, 2), order),
        "evaluate_series": lambda: brion.rs_polynomial(hexagon).evaluate_series(x0, order),
        "enumerate_corner_degrees": lambda: lattice.enumerate_corner_degrees(hexagon, vd, order),
    }[entry]
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize("x0", list(BAD_POINTS.values()), ids=list(BAD_POINTS))
@pytest.mark.parametrize("side", ["lhs", "rhs", "vertex_term", "evaluate_series"])
def test_evaluation_point_is_validated(hexagon, side, x0):
    vd = lattice.enumerate_vertices(hexagon)[0]
    call = {
        "lhs": lambda: brion.lhs_value_at(hexagon, x0, 3),
        "rhs": lambda: brion.rhs_series_at(hexagon, x0, 3),
        "vertex_term": lambda: brion.vertex_term(hexagon, vd, (0,) * 6, x0, 3),
        "evaluate_series": lambda: brion.rs_polynomial(hexagon).evaluate_series(x0, 3),
    }[side]
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize(
    "b",
    [(), (0,), (0,) * 7, (0.0,) * 6, (True, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 5), ("0",) * 6, None],
    ids=["empty", "short", "long", "floats", "bool", "long-nonzero", "strings", "None"],
)
def test_degree_vector_is_validated(hexagon, b):
    # one int (not a bool) per facet, else the term of some other vector
    vd = lattice.enumerate_vertices(hexagon)[0]
    assert vd.point == (0, 0)
    with pytest.raises(InvalidInputError):
        brion.vertex_term(hexagon, vd, b, (2, 3), 3)


def test_vertex_term_rejects_a_vertex_datum_not_of_the_polytope(hexagon, square):
    # another polytope's vertex, and one of the hexagon's moved outside it
    vd = lattice.enumerate_vertices(hexagon)[0]
    for other in (lattice.enumerate_vertices(square)[0], replace(vd, point=(5, 5))):
        with pytest.raises(InvalidInputError):
            brion.vertex_term(hexagon, other, (0,) * 6, (2, 3), 3)
