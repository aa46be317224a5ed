"""Acceptance gate: twelve numbered criteria, one [PASS]/[FAIL] line each.

Every criterion is asserted exactly as stated, with pinned tolerances.
Criterion 7 checks the leading-term closed form: the iterated Jackson
derivative at the coordinate-sum maximizer is the q-multinomial of the
maximizer's facet slacks times the q-factorials of its coordinates (already
on the length-5 segment the value is [5]_q!, not the bare [5]_q).
Criterion 12 checks that the normalized q-weight table concentrates as q
grows: the low-q table is nearly uniform, so its peak is the smallest.
"""

import cmath
import csv
import functools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from qbrion import brion, fixtures, jackson, lattice, measures
from qbrion.lattice import Polytope
from qbrion.qalg import QPolynomial, q_integer, q_pochhammer

from conftest import segment


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("[FAIL] criterion %2d: %s" % (number, label))
                raise
            print("[PASS] criterion %2d: %s" % (number, label))

        return wrapper

    return decorate


def p2_polytope(k):
    return Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), k)])


def p1xp1_polytope(m1, m2):
    return Polytope.from_facets(
        2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), m1), ((0, -1), m2)]
    )


@criterion(1, "segment family identity, K=20, 3 trials, under 1 s each")
def test_criterion_01():
    for m in (0, 1, 2, 5):
        start = time.perf_counter()
        report = brion.verify_identity(segment(m), order=20, trials=3, seed=7)
        elapsed = time.perf_counter() - start
        assert report.equal, (m, report.first_mismatch)
        assert report.first_mismatch is None
        assert elapsed < 1.0, (m, elapsed)


@criterion(2, "two-dimensional fixtures identity, K=12, 3 trials, under 30 s each")
def test_criterion_02(polytopes):
    for name in ("hexagon", "simplex_p2", "square_p1xp1"):
        start = time.perf_counter()
        report = brion.verify_identity(polytopes[name], order=12, trials=3, seed=7)
        elapsed = time.perf_counter() - start
        assert report.equal, (name, report.first_mismatch)
        assert elapsed < 30.0, (name, elapsed)


@criterion(3, "q^0 coefficient of the corner sum counts lattice points")
def test_criterion_03(polytopes):
    for name in fixtures.NAMES:
        P = polytopes[name]
        points = lattice.lattice_points(P)
        for seed in range(3):
            x0 = brion.sample_generic_point(P, seed=seed)
            rhs = brion.rhs_series_at(P, x0, order=4)
            plain = sum(brion.monomial_value(x0, u) for u in points)
            assert rhs.coefficient(0) == plain, (name, seed)


@criterion(4, "scaled point series equals the weight polynomial mod q^13")
def test_criterion_04(polytopes):
    for name in ("segment_0", "segment_1", "segment_2", "segment_5",
                 "hexagon", "simplex_p2", "square_p1xp1"):
        P = polytopes[name]
        order = 12
        x0 = brion.sample_generic_point(P, seed=3)
        lhs = brion.lhs_value_at(P, x0, order)
        scaled = lhs * q_pochhammer(P.offset_sum()).to_series(order)
        rs = brion.rs_polynomial(P).evaluate_series(x0, order)
        assert scaled == rs, name


@criterion(5, "derivative recursion on the segment, simplex, and product families")
def test_criterion_05():
    for m in range(1, 6):
        D = jackson.FirstOrthantDivisor.from_polytope(segment(m))
        assert jackson.verify_derivative_identity(D, 0)["holds"], ("segment", m)
    for k in range(1, 5):
        D = jackson.FirstOrthantDivisor.from_polytope(p2_polytope(k))
        for axis in (0, 1):
            assert jackson.verify_derivative_identity(D, axis)["holds"], ("simplex", k, axis)
    for m1 in range(1, 4):
        for m2 in range(1, 4):
            D = jackson.FirstOrthantDivisor.from_polytope(p1xp1_polytope(m1, m2))
            for axis in (0, 1):
                assert jackson.verify_derivative_identity(D, axis)["holds"], (
                    "product", m1, m2, axis,
                )


@criterion(6, "ladder identities: n=1 through degree 6 exact; n=2 determination report")
def test_criterion_06():
    convention = jackson.discriminate_convention()
    assert convention == "vars_with_one"
    one = jackson.verify_ladder(1, 6, convention)
    assert one["all_ok"], one["failures"]
    two = jackson.verify_ladder(2, 3, convention)
    # determination report for two variables: emitted and, as it turns out,
    # fully confirming all three identities
    assert set(two) >= {"raising_ok", "lowering_ok", "commutator_ok", "failures"}
    assert two["all_ok"], two["failures"]


@criterion(7, "iterated derivative at the maximizer equals the q-multinomial "
              "of the maximizer slacks times q-factorials")
def test_criterion_07(polytopes):
    names = ("segment_0", "segment_1", "segment_2", "segment_5",
             "simplex_p2", "square_p1xp1", "hexagon")
    for name in names:
        P = polytopes[name]
        result = jackson.leading_term_check(P)
        assert result.value == jackson.leading_term_expected(P), name

    def factorial(b):
        out = QPolynomial.one()
        for j in range(1, b + 1):
            out = out * q_integer(j)
        return out

    # value = [|a|; s(i)]_q * prod_k [i_k]_q!, cleared of the multinomial's
    # denominator: value * prod_j [s_j]_q! == [|a|]_q! * prod_k [i_k]_q!
    values = {}
    for name in names:
        P = polytopes[name]
        Q = jackson.FirstOrthantDivisor.from_polytope(P).polytope
        result = jackson.leading_term_check(P)
        i = result.maximizer
        slacks = Q.slacks(i)
        total = Q.offset_sum()
        assert sum(slacks) == total, name
        lhs = result.value
        for s_j in slacks:
            lhs = lhs * factorial(s_j)
        rhs = factorial(total)
        for i_k in i:
            rhs = rhs * factorial(i_k)
        assert lhs == rhs, (
            "%s: derivative at %r is %r; slacks %r, offset sum %d"
            % (name, i, result.value, slacks, total)
        )
        # at q = 1 the closed form is |a|! / prod_j s_j! * prod_k i_k!
        at_one = math.factorial(total)
        for s_j in slacks:
            at_one //= math.factorial(s_j)
        for i_k in i:
            at_one *= math.factorial(i_k)
        assert sum(result.value.coeffs) == at_one, (name, i, slacks)
        values[name] = result.value
    # [5]_q! on the length-5 segment, 1 + q on the unit square
    assert values["segment_5"] == QPolynomial(
        (1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1)
    ), values["segment_5"]
    assert values["square_p1xp1"] == QPolynomial((1, 1)), values["square_p1xp1"]
    assert sum(values["hexagon"].coeffs) == 720


@criterion(8, "segment measures are binomial; scaled characteristic function matches")
def test_criterion_08():
    for k in range(1, 11):
        mu_k = measures.mu_measure(segment(k))
        want = {
            (u,): Fraction(math.comb(k, u), 2 ** k) for u in range(k + 1)
        }
        assert mu_k.atoms == want, k
    for k in (5, 50):
        mu = measures.mu_measure(segment(k))
        for x in (0.1, 1.0, math.pi):
            got = mu.characteristic_function((x / k,))
            closed = cmath.exp(1j * x / 2) * math.cos(x / (2 * k)) ** k
            assert abs(got - closed) <= 1e-12, (k, x, got, closed)


@criterion(9, "trapezoid measure (1/4, 1/2, 1/4); q-weight estimate within 0.01 TV")
def test_criterion_09(trapezoid):
    mu = measures.mu_measure(trapezoid)
    assert mu.atoms == {
        (0, 1): Fraction(1, 4),
        (1, 1): Fraction(1, 2),
        (2, 1): Fraction(1, 4),
    }
    est = measures.mu_limit_estimate(trapezoid, Fraction(999, 1000))
    assert est.total_variation(mu) <= Fraction(1, 100)


@criterion(10, "covariance is exactly linear for segment/simplex; hexagon k=400 within 3%")
def test_criterion_10(polytopes):
    start = time.perf_counter()
    for k in (1, 2, 3, 4, 5, 6, 17):
        cov = measures.mu_measure(segment(k)).covariance()
        assert cov == ((k * Fraction(1, 4),),), k
    p2_cov = ((Fraction(4, 9), Fraction(-2, 9)), (Fraction(-2, 9), Fraction(4, 9)))
    P2 = polytopes["simplex_p2"]
    for k in (1, 2, 3, 4, 5, 6):
        cov = measures.mu_measure(lattice.dilate(P2, k)).covariance()
        want = tuple(tuple(k * x for x in row) for row in p2_cov)
        assert cov == want, k
    data = measures.dilation_moments(polytopes["hexagon"], 400)
    assert data.mean == (Fraction(400), Fraction(400))
    cov_scaled = np.array(data.covariance_floats()) / 400
    target = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    rel = np.linalg.norm(cov_scaled - target) / np.linalg.norm(target)
    assert rel <= 0.03, rel
    assert time.perf_counter() - start < 60.0


@criterion(11, "convolution homomorphism on segment and simplex dilations")
def test_criterion_11(polytopes):
    for k in range(1, 5):
        for l in range(1, 5):
            a = measures.mu_measure(segment(k))
            b = measures.mu_measure(segment(l))
            assert a.convolve(b) == measures.mu_measure(segment(k + l)), (k, l)
    base = p2_polytope(1)
    for k in range(1, 5):
        for l in range(1, 5):
            a = measures.mu_measure(lattice.dilate(base, k))
            b = measures.mu_measure(lattice.dilate(base, l))
            assert a.convolve(b) == measures.mu_measure(
                lattice.dilate(base, k + l)
            ), (k, l)


@criterion(12, "heatmap tables: unit mass, central symmetry, peak growing in q")
def test_criterion_12(tmp_path):
    hex_path = tmp_path / "hexagon.json"
    hex_path.write_text(fixtures.text("hexagon"))
    base = tmp_path / "heat"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qbrion",
            "heatmap",
            str(hex_path),
            "--dilate",
            "30",
            "--q",
            "0.2,0.6,0.9",
            "--output",
            str(base),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    maxima = {}
    for qtag in ("0.2", "0.6", "0.9"):
        path = tmp_path / ("heat_q%s.tsv" % qtag)
        rows = [line.split("\t") for line in path.read_text().strip().splitlines()[1:]]
        table = {(int(a), int(b)): float(w) for a, b, w in rows}
        assert abs(math.fsum(table.values()) - 1.0) <= 1e-12, qtag
        for (a, b), w in table.items():
            assert table[(60 - a, 60 - b)] == w, (qtag, a, b)
        maxima[qtag] = max(table.values())
    assert maxima["0.2"] < maxima["0.6"] < maxima["0.9"], (
        "peak weights: q=0.2 -> %.6e, q=0.6 -> %.6e, q=0.9 -> %.6e"
        % (maxima["0.2"], maxima["0.6"], maxima["0.9"])
    )
