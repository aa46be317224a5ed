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
from collections import Counter
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
    return Fraction(*_monomial_pair(_coords(map(Fraction, x0)), u))


class LaurentQPoly:
    """Sparse Laurent polynomial in x_1..x_n whose coefficients live in q.

    Coefficients are QPolynomial (exact polynomial data) or TruncatedQSeries
    (order-limited data); a sum may mix the two.  Zero coefficients are
    dropped.  Exponent vectors are integer tuples of one length and may be
    negative; vectors of two lengths raise InvalidInputError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = {tuple(u): c for u, c in dict(terms).items() if not c.is_zero}
        if len(set(map(len, self.terms))) > 1:
            raise InvalidInputError("exponent vectors must all have one length")

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
            out[u] = out[u] + c if u in out else c
        return LaurentQPoly(out)

    def __sub__(self, other):
        if not isinstance(other, LaurentQPoly):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c):
        """Multiply every coefficient by c (int, QPolynomial, or series)."""
        return LaurentQPoly({u: coeff * c for u, coeff in self.terms.items()})

    def evaluate_series(self, x0, order):
        """Substitute the rational point x0; result is a truncated q-series.
        Terms are grouped by coefficient object, each object's list cut at
        q^order once."""
        require_count(order, 0, "series order")
        table = {}  # id of each coefficient object -> its list, cut
        for c in self.terms.values():
            if id(c) not in table:
                if isinstance(c, TruncatedQSeries) and c.order < order:
                    raise PreconditionError("coefficient series order %d below requested order %d" % (c.order, order))
                table[id(c)] = c.coeffs[: order + 1]
        points = list(self.terms)
        if points:
            x0 = _require_point(x0, len(points[0]))
        return _unscaled(*_scaled_points(_point_groups(points, map(id, self.terms.values()), table), x0, order))

    def __eq__(self, other):
        return isinstance(other, LaurentQPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "LaurentQPoly(%d terms on %s)" % (len(self.terms), self.support())


def g_weight(slacks, order):
    """prod_i 1/(q;q)_{slack_i} as a truncated series (the lattice-point weight)."""
    out = [1] + [0] * require_count(order, 0, "series order")
    for s in slacks:
        pochhammer_div_inplace(out, 1, require_count(s, 0, "slack"))
    return TruncatedQSeries(order, out)


def _weights(P, base, length, degree=None):
    """(points, keys, table): lattice.sorted_slacks(P) and one coefficient
    list per distinct key, base the key whose weight is 1.  A key already in
    the table takes no kernel pass.

    A new key's list is the previous point's list (base's, [1], for the
    first), cut or padded to length(key), times the ratio of the two
    weights.  Each weight is a constant over prod_i (q;q)_(key_i), so the
    ratio is prod_i (q;q)_(p_i) / (q;q)_(c_i) over the previous key p and
    the new key c, paired in sorted order: one kernel pass per factor
    between c_i and p_i.  That is exact modulo q^length(key): the previous
    weight is a polynomial or a series already truncated at that order, and
    the ratio is a power series.
    The padding is zeros; with degree given, each list holds the first
    length(key) coefficients of a palindrome of degree degree(key), and
    the previous key's padding is its mirror c_(D' - j), zero past D'.
    Callers must not mutate the lists."""
    points, keys = lattice.sorted_slacks(P)
    table = {}
    prev_key, prev = base, [1]
    for key in keys:
        coeffs = table.get(key)
        if coeffs is None:
            n = length(key)
            coeffs = prev[:n]
            if degree is not None and n > len(coeffs):
                top = degree(prev_key)
                coeffs += prev[max(top - n + 1, 0) : top - len(prev) + 1][::-1]
            coeffs += [0] * (n - len(coeffs))
            for p, c in zip(prev_key, key):
                if p > c:
                    pochhammer_mul_inplace(coeffs, 1, p, c + 1)
                elif c > p:
                    pochhammer_div_inplace(coeffs, 1, c, p + 1)
            table[key] = coeffs
        prev_key, prev = key, coeffs
    return points, keys, table


def _g_weights(P, order):
    """The int coefficients of g_weight(key) through q^order, walked by
    _weights from the all-zero key; they do not depend on the evaluation
    point."""
    return _weights(P, (0,) * P.facet_count, lambda s: order + 1)


def _rs_weights(P, order=None):
    """The q-multinomials [m; key]_q, m the offset sum, walked by _weights
    from the key (0, .., 0, m), whose multinomial is 1.

    With order given, the coefficients through q^order.  Without, all D + 1
    coefficients, D = (m^2 - sum t_i^2) / 2: [m; key]_q is a palindrome, so
    the walk carries only the first D // 2 + 1 of them, and each distinct
    key's list is mirrored once at the end."""
    lattice.require_radially_symmetric(P)
    m = P.offset_sum()
    base = (0,) * (P.facet_count - 1) + (m,)

    def degree(s):
        return (m * m - sum(t * t for t in s)) // 2

    if order is not None:
        return _weights(P, base, lambda s: min(degree(s), order) + 1)
    points, keys, table = _weights(P, base, lambda s: degree(s) // 2 + 1, degree)
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
    polytope gives the zero polynomial.  The coefficients come from the
    multiset walk (_rs_weights); every point with the same slack multiset
    holds the same QPolynomial object.
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
    and no vertex edge monomial x0^{u_i(p)} evaluates to 1.  seed must be
    an int (not a bool); else InvalidInputError.
    """
    vertices = lattice.enumerate_vertices(P)
    return _sample_from_rng(P, random.Random(require_count(seed, None, "seed")), vertices)[0]


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


def _facet_node(index, steps, f, n):
    """The node of the facet part f, adding f and its missing ancestors to
    index and steps.  f holds one code d n + k per nonzero facet entry d at
    facet position k, in coordinate order; node 0, the empty part, is the
    vertex base.  The parent of f is f with its last entry d moved one
    toward 0 (dropped at 0), and steps[j] = [parent, k, d, 0] for node j,
    so parents come first; the 0 is the list length, set by the caller."""
    c = f[-1]
    d = c // n
    up = f[:-1] if d in (1, -1) else f[:-1] + (c - n if d > 0 else c + n,)
    parent = index.get(up)
    if parent is None:
        parent = _facet_node(index, steps, up, n)
    j = index[f] = len(steps)
    steps.append([parent, c - d * n, d, 0])
    return j


def _corner_plan(P, vertices, per_vertex, order):
    """What the corner sum needs of each vertex and its degree vectors
    (per_vertex, aligned with vertices) that does not depend on the
    evaluation point: (plan, offs).

    plan holds, per vertex, (vd, start, steps, kept).  start is the
    position of the edge the vertex's base list begins from: one whose
    direction an earlier vertex starts from, else one whose direction the
    most vertices have, the first such edge on a tie; the vertices that
    start from one value share its 1/(cq;q)_infinity list.  kept lists
    (shift, node, part) for every degree vector whose valuation shift is at
    most order.  A vector's facet part is its nonzero entries on the
    vertex's facet coordinates, whose values are the edge values; node is
    the facet part's node (_facet_node), and steps builds every node from
    its parent by one entry step.  Every coordinate off the facet set has
    value 1, so the factors of an off entry d, (-1)^d / (q;q)_d, do not
    depend on the vertex or the point: part indexes offs, which holds one
    (off part, low) pair per distinct off part, the sorted tuple of a
    vector's nonzero off entries, and low the smallest shift among the
    vectors that have it; offs[0] is the empty part, with low 0."""
    plan, parts, offs = [], {(): 0}, [[(), 0]]
    count, starts = Counter(e for vd in vertices for e in vd.edge_dirs), set()
    for vd, degs in zip(vertices, per_vertex):
        dirs = vd.edge_dirs
        start = max(range(len(dirs)), key=lambda k: (dirs[k] in starts, count[dirs[k]]))
        starts.add(dirs[start])
        column = {i: k for k, i in enumerate(vd.facet_set)}
        n = len(column)
        index, steps, kept = {(): 0}, [[0, 0, 0, order + 1]], []
        for b in degs:
            shift = lattice.corner_degree_valuation(P, vd, b)
            if shift > order:
                continue
            facet, off = [], []
            for i, d in enumerate(b):
                if d:
                    k = column.get(i)
                    if k is None:
                        off.append(d)
                    else:
                        facet.append(d * n + k)
            off.sort()
            off = tuple(off)
            part = parts.get(off)
            if part is None:
                part = parts[off] = len(offs)
                offs.append([off, shift])
            elif shift < offs[part][1]:
                offs[part][1] = shift
            facet = tuple(facet)
            node = index.get(facet)
            if node is None:
                node = _facet_node(index, steps, facet, n)
            step = steps[node]
            if step[3] <= order - shift:
                step[3] = order - shift + 1
            kept.append((shift, node, part))
        # each list as long as the longest order - shift + 1 read under it
        for step in reversed(steps):
            parent = steps[step[0]]
            if parent[3] < step[3]:
                parent[3] = step[3]
        plan.append((vd, start, steps[1:], kept))
    return plan, offs


def _corners(P, order):
    """(vertices, per_vertex, plan): every vertex, its corner degree vectors
    through q^order and their _corner_plan."""
    vertices = lattice.enumerate_vertices(P)
    per_vertex = [lattice.enumerate_corner_degrees(P, vd, order) for vd in vertices]
    return vertices, per_vertex, _corner_plan(P, vertices, per_vertex, order)


def _scaled_corners(plan, x0, edge_vals, order, euler):
    """Every vertex's corner terms over its kept degree vectors (plan from
    _corner_plan, edge_vals from _edge_pairs, aligned with the vertices),
    summed and divided by (q;q)_infinity^euler, after the substitution
    q -> Bq: (int coefficients, common denominator D, powers B^0 .. B^order),
    so that the q^j coefficient of the sum is acc_j / (D B^j).

    B is the lcm of the numerators and denominators of all edge values c, so
    every pass multiplier c B^i, c^-1 B^i and B^i (i >= 1) is an int; each
    comes from the point's table of its value (_Tables).  One corner/degree
    summand is x0^p q^shift / prod_edges (c;q)_infinity times, per degree
    entry d with value c, (c;q)_{-d} = (1 - c) (cq;q)_{-d-1} if d < 0, or
    1/(c q^-1;q^-1)_d = (-c)^-d q^(d(d+1)/2) / (c^-1 q;q)_d if d > 0 (the
    q-powers are the corner valuation, shift).

    Per vertex, each facet node (_facet_node) gets one int list and one
    rational scalar from its parent's by its entry step d with value c:
    d > 0 divides the list by 1 - c^-1 q^d and scales by -c^-1; d = -1
    keeps the list and scales by 1 - c; d < -1 multiplies the list by
    1 - c q^(-d-1).  Node 0 holds the base 1/prod_edges (c;q)_infinity,
    begun from a copy of the start edge's list, one per value, and the head
    x0^p / prod_edges (1 - c).  The scalars are brought to their lcm D.  A
    summand is then its node's list times its node's scalar and
    B^(shift - low), added into the running sum of its off part from q^low
    on; the part's B^low, which q^low carries under q -> Bq, comes back when
    the sum is added in.  Off entries have value 1, and multiplying by their
    (-1)^d / (q;q)_d is linear, so each off part's sum takes those passes
    once, after the last vertex."""
    plan, offs = plan
    B = math.lcm(*(x for cs in edge_vals for c in cs for x in c))
    tables = _Tables(B, order)
    powers, coords = tables.powers, _coords(x0)
    terms = []
    for (vd, start, steps, kept), cs in zip(plan, edge_vals):
        # the head x0^p / prod_edges (1 - c), reduced, denominator > 0
        head_num, head_den = _monomial_pair(coords, vd.point)
        for a, b in cs:
            if a == b:
                raise PoleError("evaluation point sits on a pole of a corner term")
            head_num *= b
            head_den *= b - a
        g = math.gcd(head_num, head_den) * (-1 if head_den < 0 else 1)
        nums, dens = [head_num // g], [head_den // g]
        for parent, k, d, _ in steps:
            a, b = cs[k]
            if d > 0:  # times -c^-1, with a positive denominator
                nums.append(nums[parent] * (-b if a > 0 else b))
                dens.append(dens[parent] * abs(a))
            elif d == -1:
                nums.append(nums[parent] * (b - a))
                dens.append(dens[parent] * b)
            else:
                nums.append(nums[parent])
                dens.append(dens[parent])
        terms.append((cs, start, steps, kept, nums, dens))

    lcd = math.lcm(*(den for *_, dens in terms for den in dens))
    sums = [[0] * (order - low + 1) for _, low in offs]
    starts = {}  # edge value c -> 1/(cBq;Bq)_infinity
    for cs, start, steps, kept, nums, dens in terms:
        base = starts.get(cs[start])
        if base is None:
            base = starts[cs[start]] = [1] + [0] * order
            pochhammer_div_inplace(base, tables[cs[start]], order)
        base = base[:]
        for k, c in enumerate(cs):
            if k != start:
                pochhammer_div_inplace(base, tables[c], order)
        lists = [base]
        for parent, k, d, length in steps:
            out = lists[parent]
            if d > 0:
                a, b = cs[k]
                out = out[:length]
                pochhammer_div_inplace(out, tables[(b, a) if a > 0 else (-b, -a)], d, d)
            elif d < -1:
                out = out[:length]
                pochhammer_mul_inplace(out, tables[cs[k]], -d - 1, -d - 1)
            lists.append(out)
        scales = [num * (lcd // den) for num, den in zip(nums, dens)]
        for shift, node, part in kept:
            s, o = sums[part], shift - offs[part][1]
            num = scales[node] * powers[o]
            for j, x in enumerate(lists[node][: len(s) - o], o):
                s[j] += num * x
    acc = sums[0]
    for (off, low), s in zip(offs[1:], sums[1:]):
        for d in off:
            pochhammer_div_inplace(s, powers, d)
        num = (-1) ** sum(off) * powers[low]
        for j, x in enumerate(s, low):
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
    negative valuation raises PreconditionError.  vd must be one of
    lattice.enumerate_vertices(P), and b a tuple or list of one int (not a
    bool) per facet; else InvalidInputError.
    """
    if vd not in lattice.enumerate_vertices(P):
        raise InvalidInputError("vertex datum %r is not one of the polytope's" % (vd,))
    x0 = _require_point(x0, P.dim)
    require_count(order, 0, "series order")
    if (not isinstance(b, (tuple, list)) or len(b) != P.facet_count
            or any(isinstance(x, bool) or not isinstance(x, int) for x in b)):
        raise InvalidInputError("degree vector needs %d int entries, got %r" % (P.facet_count, b))
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
    """What _scaled_points needs of (points, keys, table), as _weights
    returns them or evaluate_series builds them, that does not depend on
    the evaluation point: (groups, spans, origin).  groups holds one
    (table[key], exponents) pair per key, with the shifted exponent u - L
    of each of its points, L_j = min(0, min_u u_j); spans holds H_j - L_j
    per coordinate, H_j = max(0, max_u u_j), so every shifted exponent lies
    in 0 .. span; origin is -L."""
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
    return lhs_series(P, order).evaluate_series(x0, order)


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
    compares both sides coefficient by coefficient ("corner_sum").  With
    finite_form=True (radially symmetric polytopes only) it then multiplies
    the lattice-point side by (q;q)_{offset sum} and compares that once
    against the exact symmetric-weight polynomial ("symmetric_polynomial"),
    whose coefficients are q-multinomials, each walked only through q^order.
    The corner sum is not compared again in that form: multiplying both
    sides by a series with constant term 1 keeps the first power at which
    they differ.
    """
    start = time.perf_counter()
    require_count(order, 0, "series order")
    require_count(trials, 1, "trial count")
    require_count(seed, None, "seed")
    # everything that does not depend on the evaluation point, once; the
    # cached vertex scan first, so a polytope that is not smooth fails at
    # once, then the rs weights, so one without radial symmetry fails before
    # the corner degrees are enumerated
    lattice.enumerate_vertices(P)
    rs = _point_groups(*_rs_weights(P, order)) if finite_form else None
    vertices, per_vertex, plan = _corners(P, order)
    used = {b for degs in per_vertex for b in degs}
    weights = _point_groups(*_g_weights(P, order))
    rng = random.Random(seed)
    points = []
    equal = True
    first_mismatch = None
    for t in range(trials):
        x0, edge_vals = _sample_from_rng(P, rng, vertices)
        points.append([str(c) for c in x0])
        lhs = _scaled_points(weights, x0, order)
        rhs = _scaled_corners(plan, x0, edge_vals, order, P.facet_count - P.dim)
        label, j = "corner_sum", _first_difference(lhs, rhs)
        if j is None and finite_form:
            # the lattice-point side times (q;q)_{offset sum}, on the ints
            pochhammer_mul_inplace(lhs[0], lhs[2], P.offset_sum())
            rhs = _scaled_points(rs, x0, order)
            label, j = "symmetric_polynomial", _first_difference(lhs, rhs)
        if j is not None and equal:
            equal = False
            first_mismatch = {
                "trial": t,
                "comparison": label,
                "power": j,
                "lhs": str(_coefficient(lhs, j)),
                "rhs": str(_coefficient(rhs, j)),
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
