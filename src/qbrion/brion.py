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
multiplier an integer, and turned into rational coefficients once.

Everything here is exact; no floating point.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

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


_ONE = Fraction(1)
_UNIT = QPolynomial.one()
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
        # a factor equal to QPolynomial.one() passes the other one through
        right = [(w, cw, cw == _UNIT) for w, cw in other.terms.items()]
        for u, cu in self.terms.items():
            left_one = cu == _UNIT
            for w, cw, right_one in right:
                key = tuple(a + b for a, b in zip(u, w))
                prod = cw if left_one else cu if right_one else cu * cw
                if key in out:
                    prod = out[key] + prod
                if prod.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = prod
        return LaurentQPoly(out)

    def evaluate_series(self, x0, order):
        """Substitute the rational point x0; result is a truncated q-series."""
        weights = self._weights(order)
        if weights:
            x0 = _require_point(x0, len(weights[0][0]))
        return _unscaled(*_scaled_points(weights, x0, order))

    def _weights(self, order):
        """(u, coefficients of q^0 .. q^order) per term, as _scaled_points reads them."""
        require_count(order, 0, "series order")
        for c in self.terms.values():
            if isinstance(c, TruncatedQSeries) and c.order < order:
                raise PreconditionError("coefficient series order %d below requested order %d" % (c.order, order))
        return [(u, c.coeffs[: order + 1]) for u, c in self.terms.items()]

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
        if s < 0:
            raise InvalidInputError("slacks must be nonnegative")
        pochhammer_div_inplace(out, 1, s)
    return out


def g_weight(slacks, order):
    """prod_i 1/(q;q)_{slack_i} as a truncated series (the lattice-point weight)."""
    return TruncatedQSeries(order, _g_coeffs(slacks, require_count(order, 0, "series order")))


def _row_weights(P, start, length):
    """Yield (u, coefficient list) for every lattice point u, one list per
    multiset of slacks: each point is keyed by its sorted slack tuple, and a
    multiset already seen takes its shared list, with no kernel pass.

    A new multiset at a row's first point (rows from
    lattice.rows_with_slacks) starts from start(key).  At a later point it
    copies the previous point's list, cut or padded with zeros to
    length(key), and takes the unit step: slack i moves from t_i to
    t_i + d_i (d_i the last entry of normal i), which multiplies by
    (q;q)_{t_i} / (q;q)_{t_i + d_i}, one kernel pass per factor.  That is
    exact modulo q^length(key): the previous weight is a polynomial or a
    series already truncated at that order, and the step is a power series.
    Every point with the same multiset gets the same list object; callers
    must not mutate it."""
    moving = [(i, v[-1]) for i, v in enumerate(P.normals) if v[-1]]
    shared = {}
    for prefix, lo, hi, slacks in lattice.rows_with_slacks(P):
        key = tuple(sorted(slacks))
        coeffs = shared.get(key)
        if coeffs is None:
            coeffs = shared[key] = start(key)
        yield prefix + (lo,), coeffs
        slacks = list(slacks)
        for t in range(lo + 1, hi + 1):
            for i, d in moving:
                slacks[i] += d
            key = tuple(sorted(slacks))
            prev, coeffs = coeffs, shared.get(key)
            if coeffs is None:
                n = length(key)
                coeffs = prev[:n]
                coeffs += [0] * (n - len(coeffs))
                for i, d in moving:
                    b = slacks[i]
                    if d < 0:
                        pochhammer_mul_inplace(coeffs, 1, b - d, b + 1)
                    else:
                        pochhammer_div_inplace(coeffs, 1, b, b - d + 1)
                shared[key] = coeffs
            yield prefix + (t,), coeffs


def _g_weights(P, order):
    """(u, int coefficients of g_weight(slacks(u))) for every lattice point u,
    by the row walk; they do not depend on the evaluation point.  Points with
    the same slack multiset share one list, which callers only read."""
    return list(_row_weights(P, lambda s: _g_coeffs(s, order), lambda s: order + 1))


def lhs_series(P, order):
    """Weighted lattice-point enumerator: sum_u g_weight(slacks(u)) x^u."""
    require_count(order, 0, "series order")
    return LaurentQPoly({u: TruncatedQSeries(order, g) for u, g in _g_weights(P, order)})


def rs_polynomial(P):
    """Symmetric-weight polynomial: sum_u [slack-sum; slacks(u)]_q x^u.

    Needs radially symmetric normals, which make the slack sum the same
    constant m (the offset sum) at every lattice point, so each coefficient is
    an exact q-multinomial of degree D = (m^2 - sum t_i^2) / 2.  An empty
    polytope gives the zero polynomial.  The coefficients come from
    _row_weights, a row's first multinomial from multinomial_coeffs; every
    point with the same slack multiset holds the same QPolynomial object.
    """
    lattice.require_radially_symmetric(P)
    m = P.offset_sum()

    def length(s):
        return (m * m - sum(t * t for t in s)) // 2 + 1

    polys, terms = {}, {}
    # the walk keeps every list it yields alive, so their ids stay distinct
    for u, c in _row_weights(P, lambda s: multinomial_coeffs(m, s), length):
        poly = polys.get(id(c))
        if poly is None:
            poly = polys[id(c)] = QPolynomial(c)
        terms[u] = poly
    return LaurentQPoly(terms)


def _edge_values(x0, vd):
    return [monomial_value(x0, e) for e in vd.edge_dirs]


def _sample_from_rng(P, rng, vertices):
    n = P.dim
    for _ in range(_MAX_ATTEMPTS):
        coords = []
        for _ in range(n):
            num = rng.randint(1, _BOUND)
            den = rng.randint(1, _BOUND)
            sign = 1 if rng.random() < 0.5 else -1
            coords.append(Fraction(sign * num, den))
        x0 = tuple(coords)
        if any(c in (0, 1, -1) for c in coords):
            continue
        ok = True
        for vd in vertices:
            for val in _edge_values(x0, vd):
                if val == 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return x0
    raise PreconditionError("could not sample a pole-free evaluation point")


def sample_generic_point(P, seed=0):
    """Deterministic random rational point avoiding all evaluation poles.

    Coordinates are reduced fractions with numerator and denominator drawn
    from [1, 9] (random sign), resampled until no coordinate is 0 or +-1
    and no vertex edge monomial x0^{u_i(p)} evaluates to 1.
    """
    vertices = lattice.enumerate_vertices(P)
    return _sample_from_rng(P, random.Random(seed), vertices)


def _scaled_sum(order, terms, series):
    """sum_t (num_t / den_t) q^shift_t series_t over one common denominator
    D, as (int coefficients of q^0 .. q^order, D).

    terms lists the (shift, num, den) triples of ints, den > 0; series yields
    each term's int coefficients in the same order, one term at a time, at
    most order - shift + 1 of them."""
    den = math.lcm(*(d for _, _, d in terms))
    acc = [0] * (order + 1)
    for (shift, num, d), coeffs in zip(terms, series):
        num *= den // d
        for j, c in enumerate(coeffs, shift):
            acc[j] += num * c
    return acc, den


def _unscaled(acc, den, scale):
    """The series whose q^j coefficient is acc_j / (den scale^j): back from
    the common denominator and from the substitution q -> scale q."""
    out = []
    for a in acc:
        out.append(Fraction(a, den))
        den *= scale
    return TruncatedQSeries(len(acc) - 1, out)


def _scaled_corners(P, vertices, per_vertex, x0, order, euler):
    """Every vertex's corner terms over its degree vectors (per_vertex is
    aligned with vertices), summed and divided by (q;q)_infinity^euler, after
    the substitution q -> Bq: (int coefficients, common denominator D, B), so
    that the q^j coefficient of the sum is acc_j / (D B^j).

    B is the lcm of the numerators and denominators of all edge values c, so
    every pass multiplier c B^i, c^-1 B^i and B^i (i >= 1) is an int.  One
    corner/degree summand is x0^p q^shift / prod_edges (c;q)_infinity times,
    per degree entry d with value c, (c;q)_{-d} = (1 - c) (cq;q)_{-d-1} if
    d < 0, or 1/(c q^-1;q^-1)_d = (-c)^-d q^(d(d+1)/2) / (c^-1 q;q)_d if
    d > 0 (the q-powers are the corner valuation, shift).  Its rational
    scalars, x0^p, the heads 1/(1 - c), (1 - c), (-c)^-d and B^shift, are
    taken first, as one int numerator and denominator per term; the int
    series are then built one term at a time."""
    edge_vals = [_edge_values(x0, vd) for vd in vertices]
    B = math.lcm(*(x for cs in edge_vals for c in cs for x in (c.numerator, c.denominator)))
    terms, kept = [], []
    for vd, cs, degs in zip(vertices, edge_vals, per_vertex):
        head = monomial_value(x0, vd.point)
        for c in cs:
            if c == 1:
                raise PoleError("evaluation point sits on a pole of a corner term")
            head /= 1 - c
        # (coordinate, c, 1/c) per degree entry: its edge value on a facet
        # coordinate, 1 off the facet set
        cols = [(i, c, 1 / c) for i, c in zip(vd.facet_set, cs)]
        cols += [(j, _ONE, _ONE) for j in range(P.facet_count) if j not in vd.facet_set]
        keep = []
        for b in degs:
            shift = lattice.corner_degree_valuation(P, vd, b)
            if shift > order:
                continue
            num, den = head.numerator * B**shift, head.denominator
            for i, c, inv in cols:
                d = b[i]
                if d < 0:
                    num *= c.denominator - c.numerator
                    den *= c.denominator
                elif d > 0:
                    num *= (-inv.numerator) ** d
                    den *= inv.denominator**d
            terms.append((shift, num, den))
            keep.append((b, shift))
        kept.append((cs, cols, keep))

    def series():
        for cs, cols, keep in kept:
            base = [1] + [0] * order
            for c in cs:
                pochhammer_div_inplace(base, c, order, scale=B)
            for b, shift in keep:
                out = base[: order - shift + 1]
                for i, c, inv in cols:
                    d = b[i]
                    if d < 0:
                        pochhammer_mul_inplace(out, c, -d - 1, scale=B)
                    elif d > 0:
                        pochhammer_div_inplace(out, inv, d, scale=B)
                yield out

    acc, den = _scaled_sum(order, terms, series())
    for _ in range(euler):
        pochhammer_div_inplace(acc, 1, order, scale=B)
    return acc, den, B


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
    return _unscaled(*_scaled_corners(P, [vd], [[b]], x0, order, 0))


def rhs_series_at(P, x0, order):
    """Corner-sum side of the identity, evaluated at the rational point x0.

    Each vertex is summed against its own signed degree vectors with
    valuation <= order; every such valuation is nonnegative (see
    lattice.enumerate_corner_degrees), so the sum stays in the power-series
    ring.  The result is divided by (q;q)_infinity^(facets - dim).
    """
    x0 = _require_point(x0, P.dim)
    require_count(order, 0, "series order")
    vertices = lattice.enumerate_vertices(P)
    per_vertex = [lattice.enumerate_corner_degrees(P, vd, order) for vd in vertices]
    return _unscaled(*_scaled_corners(P, vertices, per_vertex, x0, order, P.facet_count - P.dim))


def _scaled_points(weights, x0, order):
    """sum_u x0^u w(u) over (u, w(u)) pairs such as those of _g_weights, each
    w(u) the coefficients of q^0 .. at most q^order, as (coefficients, common
    denominator D, 1) in the form _unscaled reads."""
    terms = [(0, xu.numerator, xu.denominator) for xu in (monomial_value(x0, u) for u, _ in weights)]
    acc, den = _scaled_sum(order, terms, (g for _, g in weights))
    return acc, den, 1


def lhs_value_at(P, x0, order):
    """Weighted enumerator evaluated at the rational point x0."""
    x0 = _require_point(x0, P.dim)
    require_count(order, 0, "series order")
    return _unscaled(*_scaled_points(_g_weights(P, order), x0, order))


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
        return {
            "polytope_hash": self.polytope_hash,
            "order": self.order,
            "trials": self.trials,
            "seed": self.seed,
            "finite_form": self.finite_form,
            "points": self.points,
            "equal": self.equal,
            "first_mismatch": self.first_mismatch,
            "degree_vectors_used": self.degree_vectors_used,
            "elapsed_ms": self.elapsed_ms,
        }


def _first_difference(lhs, rhs):
    for j in range(min(lhs.order, rhs.order) + 1):
        if lhs.coeffs[j] != rhs.coeffs[j]:
            return j
    return None


def verify_identity(P, order=12, trials=3, seed=0, finite_form=False):
    """Randomized exact check of the corner decomposition up to q^order.

    Each trial substitutes a fresh deterministic random rational point and
    compares both sides coefficient by coefficient.  With finite_form=True
    (radially symmetric polytopes only) both sides are multiplied by
    (q;q)_{offset sum} and additionally compared against the exact
    symmetric-weight polynomial, whose coefficients are q-multinomials.
    """
    start = time.perf_counter()
    require_count(order, 0, "series order")
    require_count(trials, 1, "trial count")
    if finite_form:
        lattice.require_radially_symmetric(P)
    vertices = lattice.enumerate_vertices(P)
    per_vertex = [lattice.enumerate_corner_degrees(P, vd, order) for vd in vertices]
    used = {b for degs in per_vertex for b in degs}
    rng = random.Random(seed)
    points = []
    equal = True
    first_mismatch = None
    rs = rs_polynomial(P)._weights(order) if finite_form else None
    m = P.offset_sum()
    weights = _g_weights(P, order)
    for t in range(trials):
        x0 = _sample_from_rng(P, rng, vertices)
        points.append([str(c) for c in x0])
        lhs = _scaled_points(weights, x0, order)
        rhs = _scaled_corners(P, vertices, per_vertex, x0, order, P.facet_count - P.dim)
        if finite_form:
            # both sides times (q;q)_{offset sum}, on the ints
            for acc, _, scale in (lhs, rhs):
                pochhammer_mul_inplace(acc, 1, m, scale=scale)
        lhs, rhs = _unscaled(*lhs), _unscaled(*rhs)
        pairs = [("corner_sum", lhs, rhs)]
        if finite_form:
            pairs = [
                ("corner_sum_finite", lhs, rhs),
                ("symmetric_polynomial", lhs, _unscaled(*_scaled_points(rs, x0, order))),
            ]
        for label, a_side, b_side in pairs:
            j = _first_difference(a_side, b_side)
            if j is not None and equal:
                equal = False
                first_mismatch = {
                    "trial": t,
                    "comparison": label,
                    "power": j,
                    "lhs": str(a_side.coeffs[j]),
                    "rhs": str(b_side.coeffs[j]),
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
