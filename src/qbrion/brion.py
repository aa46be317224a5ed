"""Exact verification of the q-weighted corner decomposition.

For a polytope P with inward normals v_i and offsets a_i, the weighted
enumerator of its lattice points,

    sum over u in P  of  x^u / prod_i (q; q)_{slack_i(u)},

equals a sum of corner terms, one per vertex cone: the vertex monomial x^p
times a degree-vector sum of reversed-Pochhammer factors, divided by the
infinite products (x^{u_i(p)}; q)_infinity over the vertex's edge directions,
all scaled by 1/(q;q)_infinity^(r-n).  Each vertex carries its own degree
set: integer kernel vectors of the normal map that are nonnegative off the
vertex's facet coordinates; on those coordinates the unique integral
completion may be negative, in which case the corner factor degenerates to a
finite product.  (For products of simplices the completions are always
nonnegative and every vertex sees the same globally nonnegative set.)  No
corner term has a negative q-power: on the kernel the offsets pair with a
degree vector as the vertex slacks do, which are nonnegative and vanish on
the facet set.  Both sides are compared as truncated power series in q
with exact rational coefficients after substituting a random rational point
for x (a polynomial-identity test: agreement at generic points pins the
identity up to the stated order).  Both are summed on Python ints, the corner
side after the substitution q -> Bq that makes every Pochhammer pass
multiplier an integer; verify_identity compares the two int sums by
cross-multiplying, and a returned series turns one into rational
coefficients once.

Everything here is exact; no floating point.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import getitem

from . import lattice
from .errors import InvalidInputError, PoleError, PreconditionError
from .qalg import (
    QPolynomial,
    TruncatedQSeries,
    pochhammer_div_inplace,
    pochhammer_mul_inplace,
    multinomial_coeffs,
    require_count,
)


_BOUND, _MAX_ATTEMPTS = 9, 10000  # sampled numerators and denominators lie in [1, _BOUND]


def thread_count():
    """Worker threads the computations use: always 1."""
    return 1


def _require_point(x0, dim):
    """x0 as a tuple, if it has dim entries and each is a nonzero int or
    Fraction (not a bool, not a float); else InvalidInputError."""
    try:
        x0 = tuple(x0)
    except TypeError:
        raise InvalidInputError("evaluation point must be a sequence, got %r" % (x0,)) from None
    if len(x0) != dim:
        raise InvalidInputError("evaluation point needs %d coordinates, got %d" % (dim, len(x0)))
    for c in x0:
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)) or c == 0:
            raise InvalidInputError("evaluation point coordinates must be nonzero int or Fraction, got %r" % (c,))
    return x0


def monomial_value(x0, u):
    """x0^u = prod_j x0_j^(u_j) for a rational point and an integer exponent."""
    out = Fraction(1)
    for base, e in zip(x0, u):
        if e:
            out *= Fraction(base) ** e
    return out


class LaurentQPoly:
    """Sparse Laurent polynomial in x_1..x_n whose coefficients live in q.

    Coefficients are either QPolynomial (exact polynomial data) or
    TruncatedQSeries (order-limited data); a single instance never mixes the
    two.  Exponent vectors are integer tuples and may be negative.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for u, c in terms.items():
                if not c.is_zero:
                    self.terms[tuple(u)] = c

    @classmethod
    def zero(cls):
        return cls({})

    @property
    def is_zero(self):
        return not self.terms

    def support(self):
        return sorted(self.terms)

    def coefficient(self, u):
        return self.terms.get(tuple(u), QPolynomial.zero())

    def __add__(self, other):
        if not isinstance(other, LaurentQPoly):
            return NotImplemented
        out = dict(self.terms)
        for u, c in other.terms.items():
            if u in out:
                s = out[u] + c
                if s.is_zero:
                    del out[u]
                else:
                    out[u] = s
            else:
                out[u] = c
        return LaurentQPoly(out)

    def __sub__(self, other):
        if not isinstance(other, LaurentQPoly):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c):
        """Multiply every coefficient by c (int, QPolynomial, or series)."""
        return LaurentQPoly({u: coeff * c for u, coeff in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentQPoly):
            return NotImplemented
        out = {}
        for u, cu in self.terms.items():
            for w, cw in other.terms.items():
                key = tuple(a + b for a, b in zip(u, w))
                prod = cu * cw
                if key in out:
                    prod = out[key] + prod
                if prod.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = prod
        return LaurentQPoly(out)

    def evaluate_series(self, x0, order):
        """Substitute the rational point x0; result is a truncated q-series.
        Terms are grouped by their cut at q^order: a coefficient that fits in
        it is its own key, a longer one is keyed by the cut alone."""
        require_count(order, 0, "series order")
        index, keys = {}, []  # each cut -> (its key, its coefficients)
        for c in self.terms.values():
            if isinstance(c, TruncatedQSeries) and c.order < order:
                raise PreconditionError("coefficient series order %d below requested order %d" % (c.order, order))
            w = c.coeffs
            if len(w) > order + 1:
                c = w = w[: order + 1]
            keys.append(index.setdefault(c, (len(index), w))[0])
        points = list(self.terms)
        if points:
            x0 = _require_point(x0, len(points[0]))
        table = dict(index.values())
        return _unscaled(*_scaled_points(_point_groups(points, keys, table), x0, order))

    def __eq__(self, other):
        return isinstance(other, LaurentQPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "LaurentQPoly(%d terms on %s)" % (len(self.terms), self.support())


def _g_coeffs(slacks, order):
    """Integer coefficients of q^0 .. q^order of prod_i 1/(q;q)_{slack_i}."""
    out = [1] + [0] * order
    for s in slacks:
        pochhammer_div_inplace(out, 1, require_count(s, 0, "slack"))
    return out


def g_weight(slacks, order):
    """prod_i 1/(q;q)_{slack_i} as a truncated series (the lattice-point weight)."""
    return TruncatedQSeries(order, _g_coeffs(slacks, require_count(order, 0, "series order")))


def _row_weights(P, start, length, degree=None):
    """(points, keys, table): the lattice points in lexicographic order, the
    sorted slack tuple (key) of each, and one coefficient list per distinct
    key, built by a walk along the rows of lattice.rows_with_slacks.  A key
    already in the table takes no kernel pass.

    A new key at a row's first point starts from start(key).  At a later
    point it copies the previous point's list, cut or padded to
    length(key), and takes the unit step: slack i moves from t_i to
    t_i + d_i (d_i the last entry of normal i), which multiplies by
    (q;q)_{t_i} / (q;q)_{t_i + d_i}, one kernel pass per factor.  That is
    exact modulo q^length(key): the previous weight is a polynomial or a
    series already truncated at that order, and the step is a power series.
    The padding is zeros; with degree given, each list holds the first
    length(key) coefficients of a palindrome of degree degree(key), and
    the previous key's padding is its mirror c_(D' - j), zero past D'.
    Callers must not mutate the lists."""
    moving = [(i, v[-1]) for i, v in enumerate(P.normals) if v[-1]]
    points, keys, table = [], [], {}
    for prefix, lo, hi, slacks in lattice.rows_with_slacks(P):
        key = tuple(sorted(slacks))
        coeffs = table.get(key)
        if coeffs is None:
            coeffs = table[key] = start(key)
        points.append(prefix + (lo,))
        keys.append(key)
        slacks = list(slacks)
        for t in range(lo + 1, hi + 1):
            for i, d in moving:
                slacks[i] += d
            prev_key, key = key, tuple(sorted(slacks))
            prev, coeffs = coeffs, table.get(key)
            if coeffs is None:
                n = length(key)
                coeffs = prev[:n]
                if degree is None:
                    coeffs += [0] * (n - len(coeffs))
                elif n > len(coeffs):
                    top = degree(prev_key)
                    coeffs += prev[max(top - n + 1, 0) : top - len(prev) + 1][::-1]
                    coeffs += [0] * (n - len(coeffs))
                for i, d in moving:
                    b = slacks[i]
                    if d < 0:
                        pochhammer_mul_inplace(coeffs, 1, b - d, b + 1)
                    else:
                        pochhammer_div_inplace(coeffs, 1, b, b - d + 1)
                table[key] = coeffs
            points.append(prefix + (t,))
            keys.append(key)
    return points, keys, table


def _g_weights(P, order):
    """The row walk of the int coefficients of g_weight(key) through q^order;
    they do not depend on the evaluation point."""
    return _row_weights(P, lambda s: _g_coeffs(s, order), lambda s: order + 1)


def _rs_weights(P, order=None):
    """The row walk of the q-multinomials [m; key]_q, m the offset sum.

    With order given, the coefficients through q^order, a row's first list
    built modulo q^(order + 1).  Without, all D + 1 coefficients,
    D = (m^2 - sum t_i^2) / 2: [m; key]_q is a palindrome, so the walk
    carries only the first D // 2 + 1 of them, and each distinct key's list
    is mirrored once at the end."""
    lattice.require_radially_symmetric(P)
    m = P.offset_sum()

    def degree(s):
        return (m * m - sum(t * t for t in s)) // 2

    if order is not None:
        def length(s):
            return min(degree(s), order) + 1

        return _row_weights(P, lambda s: multinomial_coeffs(m, s, length(s)), length)

    def half(s):
        return degree(s) // 2 + 1

    points, keys, table = _row_weights(P, lambda s: multinomial_coeffs(m, s, half(s)), half, degree)
    for key, coeffs in table.items():
        coeffs += coeffs[: degree(key) + 1 - len(coeffs)][::-1]
    return points, keys, table


def _shared_terms(points, keys, table, make):
    """LaurentQPoly with term make(table[key]) at each point, one object per
    key, so every point with the same slack multiset holds the same one."""
    made = {key: make(c) for key, c in table.items()}
    return LaurentQPoly(dict(zip(points, map(made.__getitem__, keys))))


def lhs_series(P, order):
    """Weighted lattice-point enumerator: sum_u g_weight(slacks(u)) x^u.
    Points with the same slack multiset share one series object."""
    require_count(order, 0, "series order")
    return _shared_terms(*_g_weights(P, order), lambda g: TruncatedQSeries(order, g))


def rs_polynomial(P):
    """Symmetric-weight polynomial: sum_u [slack-sum; slacks(u)]_q x^u.

    Needs radially symmetric normals, which make the slack sum the same
    constant m (the offset sum) at every lattice point, so each coefficient is
    an exact q-multinomial of degree D = (m^2 - sum t_i^2) / 2.  An empty
    polytope gives the zero polynomial.  The coefficients come from the row
    walk (_rs_weights); every point with the same slack multiset holds the
    same QPolynomial object.
    """
    return _shared_terms(*_rs_weights(P), QPolynomial)


def _monomial_pair(coords, u):
    """x0^u as a reduced (numerator, denominator > 0) pair of ints, coords
    the (numerator, denominator) pairs of x0's coordinates."""
    num = den = 1
    for (a, b), e in zip(coords, u):
        if e > 0:
            num *= a**e
            den *= b**e
        elif e < 0:
            num *= b**-e
            den *= a**-e
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


def _coords(x0):
    return [(c.numerator, c.denominator) for c in x0]


def _edge_pairs(x0, vertices):
    """Every vertex's edge values x0^{u_i(p)} (aligned with vertices and
    their edge_dirs) as _monomial_pair gives them, one computation per
    distinct edge direction."""
    coords, seen = _coords(x0), {}
    out = []
    for vd in vertices:
        row = []
        for e in vd.edge_dirs:
            c = seen.get(e)
            if c is None:
                c = seen[e] = _monomial_pair(coords, e)
            row.append(c)
        out.append(row)
    return out


def _sample_from_rng(P, rng, vertices):
    """A pole-free point and its edge values (as _edge_pairs gives them)."""
    n = P.dim
    for _ in range(_MAX_ATTEMPTS):
        coords = []
        for _ in range(n):
            num = rng.randint(1, _BOUND)
            den = rng.randint(1, _BOUND)
            sign = 1 if rng.random() < 0.5 else -1
            coords.append(Fraction(sign * num, den))
        if any(c in (0, 1, -1) for c in coords):
            continue
        x0 = tuple(coords)
        edge_vals = _edge_pairs(x0, vertices)
        if all(a != b for cs in edge_vals for a, b in cs):
            return x0, edge_vals
    raise PreconditionError("could not sample a pole-free evaluation point")


def sample_generic_point(P, seed=0):
    """Deterministic random rational point avoiding all evaluation poles.

    Coordinates are reduced fractions with numerator and denominator drawn
    from [1, 9] (random sign), resampled until no coordinate is 0 or +-1
    and no vertex edge monomial x0^{u_i(p)} evaluates to 1.
    """
    vertices = lattice.enumerate_vertices(P)
    return _sample_from_rng(P, random.Random(seed), vertices)[0]


def _unscaled(acc, den, powers):
    """The series whose q^j coefficient is acc_j / (den powers_j): back from
    the common denominator and, with powers_j = B^j, from the substitution
    q -> Bq."""
    return TruncatedQSeries(len(acc) - 1, [Fraction(a, den * p) for a, p in zip(acc, powers)])


class _Tables(dict):
    """The multiplier tables of one evaluation point, keyed by value
    (numerator, denominator > 0), each built on first use.

    Entry i >= 1 of the table of c is c B^i, the multiplier of the i-th
    Pochhammer pass under q -> Bq; it is an int because B is a multiple of
    every numerator and denominator the point's values have.  Entry 0 is
    never read and holds 0, except in the table of 1, which is the shared
    list of powers B^0 .. B^order that every other table is built from."""

    def __init__(self, B, order):
        powers = [1]
        for _ in range(order):
            powers.append(powers[-1] * B)
        super().__init__({(1, 1): powers})
        self.B, self.powers = B, powers

    def __missing__(self, c):
        step = c[0] * (self.B // c[1])
        table = self[c] = [0] + [step * p for p in self.powers[:-1]]
        return table


def _corner_plan(P, vertices, per_vertex, order):
    """What the corner sum needs of each vertex and its degree vectors
    (per_vertex, aligned with vertices) that does not depend on the
    evaluation point: per vertex, the (shift, entries) pair of every degree
    vector whose valuation shift is at most order.  entries lists the
    vector's nonzero entries as (column, d): column k < n is the vertex's
    k-th facet coordinate, whose value is its k-th edge value; column n
    stands for every coordinate off the facet set, whose value is 1."""
    plan = []
    for vd, degs in zip(vertices, per_vertex):
        column = {i: k for k, i in enumerate(vd.facet_set)}
        off = len(column)
        kept = []
        for b in degs:
            shift = lattice.corner_degree_valuation(P, vd, b)
            if shift <= order:
                kept.append((shift, [(column.get(i, off), d) for i, d in enumerate(b) if d]))
        plan.append((vd, kept))
    return plan


def _corners(P, order):
    """(vertices, per_vertex, plan): every vertex, its corner degree vectors
    through q^order and their _corner_plan."""
    vertices = lattice.enumerate_vertices(P)
    per_vertex = [lattice.enumerate_corner_degrees(P, vd, order) for vd in vertices]
    return vertices, per_vertex, _corner_plan(P, vertices, per_vertex, order)


def _scaled_corners(plan, x0, edge_vals, order, euler):
    """Every vertex's corner terms over its kept degree vectors (plan from
    _corner_plan, edge_vals from _edge_pairs, both aligned with the
    vertices), summed and divided by (q;q)_infinity^euler, after the
    substitution q -> Bq: (int coefficients, common denominator D, powers
    B^0 .. B^order), so that the q^j coefficient of the sum is
    acc_j / (D B^j).

    B is the lcm of the numerators and denominators of all edge values c, so
    every pass multiplier c B^i, c^-1 B^i and B^i (i >= 1) is an int; each
    comes from the point's table of its value (_Tables).  One corner/degree
    summand is x0^p q^shift / prod_edges (c;q)_infinity times, per degree
    entry d with value c, (c;q)_{-d} = (1 - c) (cq;q)_{-d-1} if d < 0, or
    1/(c q^-1;q^-1)_d = (-c)^-d q^(d(d+1)/2) / (c^-1 q;q)_d if d > 0 (the
    q-powers are the corner valuation, shift).  Its rational scalars, x0^p,
    the heads 1/(1 - c), (1 - c), (-c)^-d and B^shift, are taken first, as
    one int numerator and denominator per term, and brought to their lcm D;
    the int series are then built and added one term at a time."""
    B = math.lcm(*(x for cs in edge_vals for c in cs for x in c))
    tables = _Tables(B, order)
    powers, coords = tables.powers, _coords(x0)
    terms = []
    for (vd, keep), cs in zip(plan, edge_vals):
        # the head x0^p / prod_edges (1 - c), reduced, denominator > 0
        head_num, head_den = _monomial_pair(coords, vd.point)
        for a, b in cs:
            if a == b:
                raise PoleError("evaluation point sits on a pole of a corner term")
            head_num *= b
            head_den *= b - a
        g = math.gcd(head_num, head_den) * (-1 if head_den < 0 else 1)
        head_num, head_den = head_num // g, head_den // g
        # per column: its value c, and 1/c with a positive denominator
        cols = [(c, (c[1], c[0]) if c[0] > 0 else (-c[1], -c[0])) for c in cs]
        cols.append(((1, 1), (1, 1)))
        scalars = []
        for shift, entries in keep:
            num, den = head_num * powers[shift], head_den
            for k, d in entries:
                (a, b), (ia, ib) = cols[k]
                if d < 0:
                    num *= b - a
                    den *= b
                else:
                    num *= (-ia) ** d
                    den *= ib**d
            scalars.append((shift, entries, num, den))
        terms.append((cs, cols, scalars))

    lcd = math.lcm(*(den for _, _, scalars in terms for *_, den in scalars))
    acc = [0] * (order + 1)
    for cs, cols, scalars in terms:
        base = [1] + [0] * order
        for c in cs:
            pochhammer_div_inplace(base, tables[c], order)
        for shift, entries, num, den in scalars:
            out = base[: order - shift + 1]
            for k, d in entries:
                c, inv = cols[k]
                if d < 0:
                    pochhammer_mul_inplace(out, tables[c], -d - 1)
                else:
                    pochhammer_div_inplace(out, tables[inv], d)
            num *= lcd // den
            for j, x in enumerate(out, shift):
                acc[j] += num * x
    for _ in range(euler):
        pochhammer_div_inplace(acc, powers, order)
    return acc, lcd, powers


def vertex_term(P, vd, b, x0, order):
    """Corner term of one vertex datum and one degree vector, as a series.

    The term's minimal q-power is sum_i [b_i(b_i+1)/2 + a_i b_i] over the
    nonnegative entries plus a_i b_i over negative facet entries.  For a
    kernel vector that is sum_i b_i s_i(p) + sum_{b_i > 0} b_i(b_i+1)/2 >= 0
    with s_i(p) the vertex slacks; b here need not lie in the kernel, and a
    negative valuation raises PreconditionError.
    """
    x0 = _require_point(x0, P.dim)
    require_count(order, 0, "series order")
    shift = lattice.corner_degree_valuation(P, vd, b)
    if shift < 0:
        raise PreconditionError("corner term has negative q-valuation %d" % shift)
    plan = _corner_plan(P, [vd], [[b]], order)
    return _unscaled(*_scaled_corners(plan, x0, _edge_pairs(x0, [vd]), order, 0))


def rhs_series_at(P, x0, order):
    """Corner-sum side of the identity, evaluated at the rational point x0.

    Each vertex is summed against its own signed degree vectors with
    valuation <= order; every such valuation is nonnegative (see
    lattice.enumerate_corner_degrees), so the sum stays in the power-series
    ring.  The result is divided by (q;q)_infinity^(facets - dim).
    """
    x0 = _require_point(x0, P.dim)
    vertices, _, plan = _corners(P, require_count(order, 0, "series order"))
    return _unscaled(*_scaled_corners(plan, x0, _edge_pairs(x0, vertices), order, P.facet_count - P.dim))


def _point_groups(points, keys, table):
    """What _scaled_points needs of (points, keys, table), as _row_weights
    returns them, that does not depend on the evaluation point: (groups,
    spans, origin).  groups holds one (table[key], exponents) pair per key,
    with the shifted exponent u - L of each of its points, L_j = min(0,
    min_u u_j); spans holds H_j - L_j per coordinate, H_j = max(0, max_u
    u_j), so every shifted exponent lies in 0 .. span; origin is -L."""
    if not points:
        return [], [], ()
    low = [min(0, *c) for c in zip(*points)]
    high = [max(0, *c) for c in zip(*points)]
    groups = {key: (w, []) for key, w in table.items()}
    for u, key in zip(points, keys):
        groups[key][1].append(tuple(e - lo for e, lo in zip(u, low)))
    return list(groups.values()), [h - lo for lo, h in zip(low, high)], tuple(-lo for lo in low)


def _scaled_points(points, x0, order):
    """sum_u x0^u w(u) over the points grouped by _point_groups, each w(u)
    the coefficients of q^0 .. at most q^order, as (coefficients, common
    denominator D, powers 1 .. 1) in the form _unscaled reads.

    With x0_j = n_j / d_j, N(e) = prod_j n_j^(e_j) d_j^(span_j - e_j) is an
    int for every shifted exponent e, and x0^u = N(u - L) / N(-L).  Each
    group sums its points' N as ints and then takes one multiply-add pass
    over its coefficients, so D = N(-L)."""
    groups, spans, origin = points
    acc, ones = [0] * (order + 1), [1] * (order + 1)
    if not groups:
        return acc, 1, ones
    tabs = []
    for (a, b), span in zip(_coords(x0), spans):
        up, down = [1], [1]
        for _ in range(span):
            up.append(up[-1] * a)
            down.append(down[-1] * b)
        tabs.append([x * y for x, y in zip(up, reversed(down))])
    for w, exps in groups:
        s = sum(math.prod(map(getitem, tabs, e)) for e in exps)
        for j, c in enumerate(w):
            acc[j] += s * c
    return acc, math.prod(map(getitem, tabs, origin)), ones


def lhs_value_at(P, x0, order):
    """Weighted enumerator evaluated at the rational point x0."""
    x0 = _require_point(x0, P.dim)
    require_count(order, 0, "series order")
    return _unscaled(*_scaled_points(_point_groups(*_g_weights(P, order)), x0, order))


@dataclass
class VerificationReport:
    polytope_hash: str
    order: int
    trials: int
    seed: int
    finite_form: bool
    points: list
    equal: bool
    first_mismatch: object
    degree_vectors_used: int
    elapsed_ms: float

    def to_dict(self):
        return asdict(self)


def _first_difference(lhs, rhs):
    """The first power j at which two scaled sums (acc, D, powers) of the
    same order differ, or None: acc_j / (D powers_j) is compared across by
    cross-multiplying, without building the fractions."""
    (a, da, pa), (b, db, pb) = lhs, rhs
    for j, (x, y, p, r) in enumerate(zip(a, b, pa, pb)):
        if x * db * r != y * da * p:
            return j
    return None


def _coefficient(scaled, j):
    """The q^j coefficient of a scaled sum (acc, D, powers), as a Fraction."""
    acc, den, powers = scaled
    return Fraction(acc[j], den * powers[j])


def verify_identity(P, order=12, trials=3, seed=0, finite_form=False):
    """Randomized exact check of the corner decomposition up to q^order.

    Each trial substitutes a fresh deterministic random rational point and
    compares both sides coefficient by coefficient.  With finite_form=True
    (radially symmetric polytopes only) both sides are multiplied by
    (q;q)_{offset sum} and additionally compared against the exact
    symmetric-weight polynomial, whose coefficients are q-multinomials,
    each walked only through q^order.
    """
    start = time.perf_counter()
    require_count(order, 0, "series order")
    require_count(trials, 1, "trial count")
    if finite_form:
        lattice.require_radially_symmetric(P)
    # everything that does not depend on the evaluation point, once
    vertices, per_vertex, plan = _corners(P, order)
    used = {b for degs in per_vertex for b in degs}
    weights = _point_groups(*_g_weights(P, order))
    rs = _point_groups(*_rs_weights(P, order)) if finite_form else None
    rng = random.Random(seed)
    points = []
    equal = True
    first_mismatch = None
    m = P.offset_sum()
    for t in range(trials):
        x0, edge_vals = _sample_from_rng(P, rng, vertices)
        points.append([str(c) for c in x0])
        lhs = _scaled_points(weights, x0, order)
        rhs = _scaled_corners(plan, x0, edge_vals, order, P.facet_count - P.dim)
        pairs = [("corner_sum", lhs, rhs)]
        if finite_form:
            # both sides times (q;q)_{offset sum}, on the ints
            for acc, _, powers in (lhs, rhs):
                pochhammer_mul_inplace(acc, powers, m)
            pairs = [
                ("corner_sum_finite", lhs, rhs),
                ("symmetric_polynomial", lhs, _scaled_points(rs, x0, order)),
            ]
        for label, a_side, b_side in pairs:
            j = _first_difference(a_side, b_side)
            if j is not None and equal:
                equal = False
                first_mismatch = {
                    "trial": t,
                    "comparison": label,
                    "power": j,
                    "lhs": str(_coefficient(a_side, j)),
                    "rhs": str(_coefficient(b_side, j)),
                    "point": [str(c) for c in x0],
                }
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        polytope_hash=P.content_hash(),
        order=order,
        trials=trials,
        seed=seed,
        finite_form=finite_form,
        points=points,
        equal=equal,
        first_mismatch=first_mismatch,
        degree_vectors_used=len(used),
        elapsed_ms=elapsed_ms,
    )
