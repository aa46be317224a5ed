"""Shared fixtures: bundled polytopes, loaded once per session."""

import functools
import math
import os
from fractions import Fraction

import pytest

import qbrion
from qbrion import fixtures

# The CLI tests start ``python -m qbrion`` in a subprocess; let it import the
# same package as this process, also when only pytest's pythonpath finds it.
_SRC = os.path.dirname(os.path.dirname(qbrion.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def polytopes():
    return {name: fixtures.load(name) for name in fixtures.NAMES}


@pytest.fixture(scope="session")
def hexagon(polytopes):
    return polytopes["hexagon"]


@pytest.fixture(scope="session")
def simplex_p2(polytopes):
    return polytopes["simplex_p2"]


@pytest.fixture(scope="session")
def square(polytopes):
    return polytopes["square_p1xp1"]


@pytest.fixture(scope="session")
def trapezoid(polytopes):
    return polytopes["trapezoid_f1"]


def segment(m):
    from qbrion.lattice import Polytope

    return Polytope.from_facets(1, [((1,), 0), ((-1,), m)])


def translate(P, shift):
    """P + shift: same normals, offsets a_i - <v_i, shift>."""
    from qbrion.lattice import Polytope

    return Polytope(
        P.dim,
        P.normals,
        tuple(a - sum(x * y for x, y in zip(v, shift)) for v, a in zip(P.normals, P.offsets)),
    )


def sheared(P):
    """The image of a polygon under (x, y) -> (x, y + 2x): normals
    (a, b) -> (a - 2b, b), so one row of points can end just below where the
    next one starts."""
    from qbrion.lattice import Polytope

    return Polytope(2, tuple((a - 2 * b, b) for a, b in P.normals), P.offsets)


def skewed(P, c=2):
    """The image of a polygon under (x, y) -> (x + c y, y): normals
    (a, b) -> (a, b - c a), so for c = 2 the last normal entries reach +-2
    and +-3."""
    from qbrion.lattice import Polytope

    return Polytope(2, tuple((a, b - c * a) for a, b in P.normals), P.offsets)


def face_measure_reference(P):
    """(weights, mean, covariance) of the q -> 1 limit measure, computed
    directly: every lattice point whose slack sum is the largest one takes
    the multinomial (sum t)! / prod t_i! of its slacks t, by math.factorial,
    and the moments are plain Fraction sums over the normalized weights. The
    reference the face-weight walk and the moment accumulator are checked
    against."""
    from qbrion.lattice import points_with_slacks

    rows = list(points_with_slacks(P))
    top = max(sum(t) for _, t in rows)
    weights = {}
    for u, t in rows:
        if sum(t) == top:
            w = math.factorial(top)
            for s in t:
                w //= math.factorial(s)
            weights[u] = w
    total = sum(weights.values())
    n = P.dim
    mean = [Fraction(0)] * n
    second = [[Fraction(0)] * n for _ in range(n)]
    for u, w in weights.items():
        p = Fraction(w, total)
        for j in range(n):
            mean[j] += p * u[j]
            for l in range(n):
                second[j][l] += p * u[j] * u[l]
    cov = tuple(tuple(second[j][l] - mean[j] * mean[l] for l in range(n)) for j in range(n))
    return weights, tuple(mean), cov


def times_q_power(series, s):
    """series times q^s (s >= 0), at the same trusted order."""
    from qbrion.qalg import TruncatedQSeries

    return TruncatedQSeries(series.order, (0,) * s + series.coeffs)


def dense_factors(c, powers, order):
    """prod over i in powers of (1 - c q^i), as dense products of factor
    series: the reference the in-place Pochhammer kernels are checked against."""
    from qbrion.qalg import TruncatedQSeries

    one = TruncatedQSeries.one(order)
    prod = one
    for i in powers:
        prod = prod * (one - times_q_power(TruncatedQSeries.constant(c, order), i))
    return prod


# The Jackson operators by object algebra, one derivative at a time: the
# references the closed forms in qbrion.jackson are checked against.


def reference_jackson_derivative(f, axis):
    """c x^u -> c [u_axis]_q x^(u - e_axis) by the dense product c * [e]_q;
    PreconditionError on a negative exponent along the axis."""
    from qbrion.brion import LaurentQPoly
    from qbrion.errors import PreconditionError
    from qbrion.qalg import q_integer

    terms = {}
    for u, c in f.terms.items():
        e = u[axis]
        if e < 0:
            raise PreconditionError("Jackson derivative needs nonnegative exponents")
        if e:
            terms[u[:axis] + (e - 1,) + u[axis + 1 :]] = c * q_integer(e)
    return LaurentQPoly(terms)


def reference_iterated_jackson(f, axis, times):
    for _ in range(times):
        f = reference_jackson_derivative(f, axis)
    return f


def reference_elementary_symmetric(n, degree, with_one=True):
    """e_degree over (1, x_1, .., x_n), from the subsets; with_one=False
    drops the constant variable, a wrong family for mutation tests."""
    import itertools

    from qbrion.brion import LaurentQPoly
    from qbrion.qalg import QPolynomial

    variables = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    if with_one:
        variables = [(0,) * n] + variables
    terms = {}
    for subset in itertools.combinations(variables, degree):
        terms[tuple(map(sum, zip(*subset))) if subset else (0,) * n] = QPolynomial.one()
    return LaurentQPoly(terms)


def reference_raising_operator(f, axis, n, with_one=True):
    """sum_{l=0}^{n} e_{l+1}(vars) (q-1)^l (d/dx_axis)_q^l f, each term a
    product of LaurentQPoly objects."""
    from qbrion.brion import LaurentQPoly
    from qbrion.qalg import QPolynomial

    q_minus_one = QPolynomial((-1, 1))
    out = LaurentQPoly.zero()
    d = f
    for level in range(n + 1):
        e_poly = reference_elementary_symmetric(n, level + 1, with_one)
        out = out + (e_poly * d).scale(q_minus_one ** level)
        if level < n:
            d = reference_jackson_derivative(d, axis)
    return out


# The corner sum on Fraction coefficients, term by term, with no q -> Bq
# substitution and no common denominator: the reference the integer corner
# sum and lattice-point side of qbrion.brion are checked against.


def _edge_inverse_product(edge_vals, order):
    """prod over the edge values c of 1/(c;q)_infinity, as the coefficients of
    q^0 .. q^order."""
    from qbrion.errors import PoleError
    from qbrion.qalg import pochhammer_div_inplace

    head = Fraction(1)
    for c in edge_vals:
        if c == 1:
            raise PoleError("evaluation point sits on a pole of a corner term")
        head /= 1 - c
    out = [head] + [Fraction(0)] * order
    for c in edge_vals:
        pochhammer_div_inplace(out, c, order)
    return out


def _term_parts(P, vd, b, x0, order, edge_vals, inf_prod):
    """One corner/degree summand as (qshift, scalar, coefficients of q^0 ..
    q^(order - qshift)): a copy of the vertex's edge product with every degree
    entry's factors applied in place.  A negative entry on a facet coordinate
    contributes the finite product (c;q)_{-d} = (1 - c) (cq;q)_{-d-1}; a
    positive one 1/(c q^-1;q^-1)_d = (-c)^-d q^(d(d+1)/2) / (c^-1 q;q)_d."""
    from qbrion import lattice
    from qbrion.brion import monomial_value
    from qbrion.qalg import pochhammer_div_inplace, pochhammer_mul_inplace

    shift = lattice.corner_degree_valuation(P, vd, b)
    unit_order = order - shift
    if unit_order < 0:
        return shift, Fraction(0), []
    series = inf_prod[: unit_order + 1]
    scalar = monomial_value(x0, vd.point)
    facet_set = set(vd.facet_set)
    factors = [(edge_vals[pos], b[i]) for pos, i in enumerate(vd.facet_set)]
    factors += [(Fraction(1), b[j]) for j in range(P.facet_count) if j not in facet_set]
    for c, d in factors:
        if d < 0:
            scalar *= 1 - c
            pochhammer_mul_inplace(series, c, -d - 1)
        elif d > 0:
            scalar *= (-c) ** -d
            pochhammer_div_inplace(series, 1 / c, d)
    return shift, scalar, series


def reference_vertex_term(P, vd, b, x0, order):
    """One corner term as a Fraction series, by the reference path."""
    from qbrion.brion import monomial_value
    from qbrion.qalg import TruncatedQSeries

    edge_vals = [monomial_value(x0, e) for e in vd.edge_dirs]
    inf_prod = _edge_inverse_product(edge_vals, order)
    shift, scalar, series = _term_parts(P, vd, b, x0, order, edge_vals, inf_prod)
    return TruncatedQSeries(order, [Fraction(0)] * shift + [scalar * c for c in series])


def reference_corner_sum(P, x0, order, per_vertex=None):
    """The corner-sum side at x0 by the reference path; per_vertex (aligned
    with the vertices) defaults to each vertex's enumerated degree set."""
    from qbrion import lattice
    from qbrion.brion import monomial_value
    from qbrion.qalg import TruncatedQSeries, pochhammer_div_inplace

    vertices = lattice.enumerate_vertices(P)
    if per_vertex is None:
        per_vertex = [lattice.enumerate_corner_degrees(P, vd, order) for vd in vertices]
    acc = [Fraction(0)] * (order + 1)
    for vd, degs in zip(vertices, per_vertex):
        edge_vals = [monomial_value(x0, e) for e in vd.edge_dirs]
        inf_prod = _edge_inverse_product(edge_vals, order)
        for b in degs:
            shift, scalar, series = _term_parts(P, vd, b, x0, order, edge_vals, inf_prod)
            for j, c in enumerate(series):
                acc[shift + j] += scalar * c
    for _ in range(P.facet_count - P.dim):
        pochhammer_div_inplace(acc, 1, order)
    return TruncatedQSeries(order, acc)


def reference_lhs(P, x0, order):
    """The weighted enumerator at x0 as plain Fraction sums of x0^u g(u)."""
    from qbrion import lattice
    from qbrion.brion import g_weight, monomial_value
    from qbrion.qalg import TruncatedQSeries

    acc = [Fraction(0)] * (order + 1)
    for u, slacks in lattice.points_with_slacks(P):
        xu = monomial_value(x0, u)
        for j, c in enumerate(g_weight(slacks, order).coeffs):
            acc[j] += xu * c
    return TruncatedQSeries(order, acc)


@functools.lru_cache(maxsize=None)
def _pascal_binomial(n, k):
    from qbrion.qalg import QPolynomial

    if k < 0 or k > n:
        return QPolynomial.zero()
    if k == 0 or k == n:
        return QPolynomial.one()
    return _pascal_binomial(n - 1, k - 1) + _pascal_binomial(n - 1, k).shift(k)


def dense_multinomial(m, parts):
    """[m; parts]_q as the product of the Gaussian binomials
    [k_1 + .. + k_j; k_j]_q, each from the Pascal recursion
    [n; k] = [n-1; k-1] + q^k [n-1; k], under dense QPolynomial products: the
    reference the kernel-built q-multinomials are checked against."""
    from qbrion.qalg import QPolynomial

    assert sum(parts) == m
    out = QPolynomial.one()
    partial = 0
    for p in parts:
        partial += p
        out = out * _pascal_binomial(partial, p)
    return out


@pytest.fixture(scope="session")
def solids(hexagon):
    """Smooth 3-D polytopes: the unit cube, the twice-dilated 3-simplex and
    the hexagon times the unit segment."""
    from qbrion.lattice import Polytope

    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return {
        "cube": Polytope(3, unit + tuple(tuple(-x for x in v) for v in unit), (0, 0, 0, 1, 1, 1)),
        "simplex3": Polytope(3, unit + ((-1, -1, -1),), (0, 0, 0, 2)),
        "hexagon_prism": Polytope(
            3,
            tuple(v + (0,) for v in hexagon.normals) + ((0, 0, 1), (0, 0, -1)),
            hexagon.offsets + (0, 1),
        ),
    }


# The vertex scan on Fraction rows, as it was before the integer eliminator:
# the reference lattice.Geometry and lattice.bareiss_reduce are checked against.


def reference_row_reduce(rows, width):
    """Exact Gauss-Jordan elimination over the rationals, one row at a time:
    (reduced, pivots, leads, det) with each reduced row 1 at its pivot and 0
    at the other pivots, each lead the input row reduced against the earlier
    independent rows only, and det the signed product of the leads' pivots."""
    reduced, pivots, leads = [], [], []
    det = Fraction(1)
    for row in rows:
        lead = [Fraction(x) for x in row]
        for e, p in zip(reduced, pivots):
            c = lead[p]
            if c:
                lead = [x - c * y for x, y in zip(lead, e)]
        p = next((j for j in range(width) if lead[j]), None)
        if p is None:
            continue
        flips = sum(1 for q in pivots if q > p)
        det *= -lead[p] if flips % 2 else lead[p]
        unit = [x / lead[p] for x in lead]
        for k, e in enumerate(reduced):
            c = e[p]
            if c:
                reduced[k] = [x - c * y for x, y in zip(e, unit)]
        reduced.append(unit)
        pivots.append(p)
        leads.append(lead)
    return reduced, pivots, leads, det


def _reference_primitive_vector(vec):
    scale = math.lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def reference_inverse_unimodular(rows):
    """Inverse of a determinant +-1 integer matrix, as integer columns."""
    n = len(rows)
    augmented = [tuple(v) + tuple(int(i == j) for j in range(n)) for i, v in enumerate(rows)]
    reduced, pivots, _, det = reference_row_reduce(augmented, n)
    assert len(pivots) == n and det in (-1, 1)
    inverse = [e[n:] for _, e in sorted(zip(pivots, reduced), key=lambda pe: pe[0])]
    return [tuple(int(x) for x in column) for column in zip(*inverse)]


def reference_is_bounded(normals):
    """No nonzero u with every <u, v_i> >= 0: the normals span and no kernel
    direction of n - 1 independent normals satisfies every inequality."""
    import itertools

    n = len(normals[0])
    if len(reference_row_reduce(normals, n)[1]) < n:
        return False
    for rows in itertools.combinations(normals, n - 1):
        reduced, pivots, _, _ = reference_row_reduce(rows, n)
        if len(pivots) < n - 1:
            continue
        free = next(c for c in range(n) if c not in pivots)
        ray = [Fraction(0)] * n
        ray[free] = Fraction(1)
        for e, p in zip(reduced, pivots):
            ray[p] = -e[free]
        for sign in (1, -1):
            if all(sign * sum(x * y for x, y in zip(ray, v)) >= 0 for v in normals):
                return False
    return True


def reference_geometry(P):
    """The fields of lattice.Geometry(P) (its vars) by Fraction elimination:
    each facet system solved on Fraction rows, feasibility and slacks on the
    Fraction point."""
    import itertools

    n = P.dim
    solutions = []
    for subset in itertools.combinations(range(P.facet_count), n):
        rows = [P.normals[i] + (-P.offsets[i],) for i in subset]
        reduced, pivots, _, det = reference_row_reduce(rows, n)
        if len(pivots) < n:
            continue
        point = [None] * n
        for e, p in zip(reduced, pivots):
            point[p] = e[n]
        point = tuple(point)
        if all(s >= 0 for s in P.slacks(point)):
            solutions.append((point, subset, int(det)))
    problems = []
    for point, subset, det in solutions:
        if det not in (-1, 1):
            problems.append(
                "facets %r meet at a feasible point with determinant %d" % (list(subset), det)
            )
        if any(x.denominator != 1 for x in point):
            problems.append(
                "facets %r meet at the non-integral point %r"
                % (list(subset), [str(x) for x in point])
            )
    points = sorted({p for p, _, _ in solutions})
    box = None
    if points:
        coords = list(zip(*points))
        box = ([math.ceil(min(c)) for c in coords], [math.floor(max(c)) for c in coords])
    diffs = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
    _, pivots, leads, _ = reference_row_reduce(diffs, n)
    full_dimensional = len(pivots) == n
    slack_rows = [P.slacks(p) for p in points]
    if not problems and full_dimensional:
        for p, slacks in zip(points, slack_rows):
            tight = sum(1 for s in slacks if s == 0)
            if tight != n:
                problems.append(
                    "vertex %r lies on %d facets, expected %d" % ([str(x) for x in p], tight, n)
                )
    facet_slacks = list(zip(*slack_rows))
    return {
        "_normals": P.normals,
        "solutions": solutions,
        "points": points,
        "box": box,
        "full_dimensional": full_dimensional,
        "support_basis": tuple(_reference_primitive_vector(lead) for lead in leads),
        "smooth": not problems,
        "problems": tuple(problems),
        "all_facets_touch": all(min(col) == 0 for col in facet_slacks),
        "active_facets": tuple(i for i, col in enumerate(facet_slacks) if any(col)),
    }
