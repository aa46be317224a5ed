"""Jackson q-derivative calculus on the symmetric-weight polynomials.

The Jackson derivative along axis i sends c(q) x^u to c(q) [u_i]_q x^(u - e_i)
termwise.  On the symmetric-weight polynomial of a first-orthant divisor it
obeys an exact recursion: differentiating along axis i multiplies by the
q-integer of the offset sum and passes to a derived divisor whose non-basis
offsets shift by the i-th normal coordinates.  Iterating the derivative up to
a coordinate-sum maximizer collapses the polynomial to an explicit nonzero
scalar in q, and together with multiplication operators built from elementary
symmetric polynomials it forms a raising/lowering ladder.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from dataclasses import dataclass

from . import lattice
from .brion import LaurentQPoly, rs_polynomial
from .errors import InvalidInputError, PreconditionError
from .qalg import (
    QPolynomial,
    TruncatedQSeries,
    pochhammer_mul_inplace,
    q_factorial,
    q_multinomial,
    require_count,
)


def _check_axis(f, axis):
    """f's variable count, 0 for the zero polynomial; InvalidInputError
    unless axis is an int in 0..dim-1 (any axis >= 0 for the zero
    polynomial, which has no dimension)."""
    n = len(next(iter(f.terms), ()))
    if require_count(axis, 0, "axis") >= n > 0:
        raise InvalidInputError("axis %d outside 0..%d" % (axis, n - 1))
    return n


def _falling(c, e, t):
    """c [e]_q [e-1]_q .. [e-t+1]_q for e >= t >= 1: one pass of (1 - q^i)
    per factor, then as many passes of 1 / (1 - q), a running sum, on c's
    list padded to the product's length (a truncated series keeps its own);
    the factor [1]_q = 1 takes none."""
    lo = max(e - t + 1, 2)
    if lo > e:
        return c
    out = list(c.coeffs)
    if isinstance(c, QPolynomial):
        out += [0] * ((e + lo - 2) * (e - lo + 1) // 2)
    pochhammer_mul_inplace(out, 1, e, lo)
    for _ in range(lo, e + 1):
        out = list(itertools.accumulate(out))
    return QPolynomial(out) if isinstance(c, QPolynomial) else TruncatedQSeries(c.order, out)


def _termwise(f, make):
    """f with each coefficient c replaced by make(c), made once per distinct
    coefficient object."""
    made = {}
    terms = {}
    for u, c in f.terms.items():
        d = made.get(id(c))
        if d is None:
            d = made[id(c)] = make(c)
        terms[u] = d
    return LaurentQPoly(terms)


def q_shift(f, axis):
    """Substitute x_axis -> q x_axis: c(q) x^u becomes q^(u_axis) c(q) x^u,
    a series coefficient cut at its own order."""
    _check_axis(f, axis)
    terms = {}
    for u, c in f.terms.items():
        if u[axis] < 0:
            raise PreconditionError("q-shift is defined for nonnegative exponents only")
        terms[u] = c.shift(u[axis]) if u[axis] else c
    return LaurentQPoly(terms)


def jackson_derivative(f, axis):
    """Jackson q-derivative along the given 0-based axis.

    Termwise c(q) x^u -> c(q) [u_axis]_q x^(u - e_axis); constant-in-axis
    terms vanish.  Equivalent to (f - q_shift(f, axis)) / ((1-q) x_axis),
    but computed without division.
    """
    return iterated_jackson(f, axis, 1)


def iterated_jackson(f, axis, times):
    """The Jackson derivative applied `times` times along the axis, in
    closed form: c(q) x^u -> c(q) [e]_q [e-1]_q .. [e-times+1]_q
    x^(u - times e_axis), e = u_axis.  Terms with e < times vanish; terms
    that share a coefficient object and e share the result."""
    _check_axis(f, axis)
    t = require_count(times, 0, "derivative count")
    if not t:
        return f
    terms, made = {}, {}
    for u, c in f.terms.items():
        e = u[axis]
        if e < t:
            if e < 0:
                raise PreconditionError("Jackson derivative needs nonnegative exponents")
            continue
        d = made.get((id(c), e))
        if d is None:
            d = made[id(c), e] = _falling(c, e, t)
        # u -> u - t e_axis is injective, so no two terms share a key
        terms[u[:axis] + (e - t,) + u[axis + 1 :]] = d
    return LaurentQPoly(terms)


@dataclass(frozen=True)
class FirstOrthantDivisor:
    """A polytope whose first n facets are the coordinate half-spaces u_i >= 0.

    from_polytope permutes the facets so the standard basis normals with zero
    offset come first and checks that P is nonempty; those facets keep it
    inside the first orthant.  A derived divisor may be empty: its
    polynomial is then zero.
    """

    polytope: lattice.Polytope

    @classmethod
    def from_polytope(cls, P):
        n = lattice.require_nonempty(P).dim
        basis_pos = []
        for i in range(n):
            e_i = tuple(1 if j == i else 0 for j in range(n))
            try:
                pos = P.normals.index(e_i)
            except ValueError:
                raise PreconditionError(
                    "first-orthant form needs the basis normal %r" % (list(e_i),)
                ) from None
            if P.offsets[pos] != 0:
                raise PreconditionError(
                    "basis facet %r must have offset 0, got %d" % (list(e_i), P.offsets[pos])
                )
            basis_pos.append(pos)
        rest = [j for j in range(P.facet_count) if j not in basis_pos]
        perm = basis_pos + rest
        if perm == list(range(P.facet_count)):
            reordered = P  # keeps P's cached facet scan
        else:
            reordered = lattice.Polytope(
                n,
                tuple(P.normals[j] for j in perm),
                tuple(P.offsets[j] for j in perm),
            )
        return cls(reordered)


def derived_divisor(D, axis):
    """Divisor after one Jackson derivative along the given 0-based axis.

    Basis offsets stay zero; every non-basis offset a_j picks up the axis
    coordinate of its normal: a_j -> a_j + v_j[axis].  Geometrically this is
    the polytope cut with u_axis >= 1 and translated back by one basis step;
    the result may be empty or lower-dimensional.
    """
    P = D.polytope
    n = P.dim
    if require_count(axis, 0, "axis") >= n:
        raise InvalidInputError("axis %d outside 0..%d" % (axis, n - 1))
    offsets = list(P.offsets)
    for j in range(n, P.facet_count):
        offsets[j] = offsets[j] + P.normals[j][axis]
    derived = lattice.Polytope(n, P.normals, tuple(offsets))
    return FirstOrthantDivisor(derived)


def verify_derivative_identity(D, axis):
    """Check: Jackson derivative of the symmetric-weight polynomial equals
    [offset sum]_q times the symmetric-weight polynomial of the derived divisor.

    Returns a report dict; "holds" is the exact coefficientwise comparison.
    A zero offset sum (point polytope) makes both sides zero.
    """
    P = D.polytope
    lhs = jackson_derivative(rs_polynomial(P), axis)
    a_sum = P.offset_sum()
    derived = derived_divisor(D, axis)
    derived_rs = rs_polynomial(derived.polytope)
    if a_sum >= 1:
        rhs = _termwise(derived_rs, lambda c: _falling(c, a_sum, 1))
    else:
        rhs = LaurentQPoly.zero()
    return {
        "axis": axis,
        "offset_sum": a_sum,
        "derived_offsets": list(derived.polytope.offsets),
        "holds": lhs == rhs,
    }


def rogers_szego(n, k):
    """Degree-k symmetric-weight polynomial in n variables.

    Built from the standard simplex fan (basis normals plus the all-minus-one
    normal) with offset k on the non-basis facet; the coefficients are the
    q-multinomials [k; i_0 .. i_n]_q.
    """
    require_count(n, 1, "variable count")
    require_count(k, 0, "degree")
    normals = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    normals.append(tuple(-1 for _ in range(n)))
    offsets = tuple([0] * n + [k])
    P = lattice.Polytope(n, tuple(normals), offsets)
    return rs_polynomial(P)


@functools.cache
def _elementary_exponents(n, d):
    """The exponent tuples of the monomials of e_d over the ladder's
    variable family (1, x_1, .., x_n); none for d > n + 1.  Each (n, d) is
    built on first read, so only the degrees read are ever held."""
    zero_vec = (0,) * n
    variables = [zero_vec] + [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return tuple(
        tuple(map(sum, zip(*subset))) if subset else zero_vec
        for subset in itertools.combinations(variables, d)
    )


def elementary_symmetric(n, degree):
    """e_degree of the n+1 variables (1, x_1, .., x_n), as a Laurent
    polynomial.  Degrees beyond the family size give zero."""
    require_count(n, 1, "variable count")
    require_count(degree, None, "degree")
    monomials = _elementary_exponents(n, degree) if 0 <= degree <= n + 1 else ()
    return LaurentQPoly(dict.fromkeys(monomials, QPolynomial.one()))


def raising_operator(f, axis):
    """Ladder raising operator along an axis:

        R_i f = sum_{l=0}^{n} e_{l+1}(1, x_1, .., x_n) (q-1)^l (d/dx_i)_q^l f,

    with n the number of variables of f (the zero polynomial gives zero).
    The family (1, x_1, .., x_n) is the one that gives R(RS_0) = RS_1.

    In closed form (q-1)^l (d/dx_i)_q^l sends c x^u to
    (-1)^l c (q^(e-l+1); q)_l x^(u - l e_i), e = u_i: one pass of
    (1 - q^(e-l+1)) per level, made once per coefficient object and e.  The
    lists that reach one output monomial are summed once, at the end.
    """
    n = _check_axis(f, axis)
    series = not all(isinstance(c, QPolynomial) for c in f.terms.values())
    parts, made = collections.defaultdict(list), {}
    for u, c in f.terms.items():
        e = u[axis]
        if e < 0:
            raise PreconditionError("Jackson derivative needs nonnegative exponents")
        levels = made.get((id(c), e))
        if levels is None:
            w = list(c.coeffs)
            levels = made[id(c), e] = [w]
            for level in range(1, min(n, e) + 1):
                k = e - level + 1
                w = list(map(operator.neg, w)) + [0] * (0 if series else k)
                pochhammer_mul_inplace(w, 1, k, k)
                levels.append(w)
        for level, w in enumerate(levels):
            base = u[:axis] + (e - level,) + u[axis + 1 :]
            for s in _elementary_exponents(n, level + 1):
                parts[tuple(map(operator.add, base, s))].append(w)
    terms = {}
    for key, ws in parts.items():
        out = ws[0] if len(ws) == 1 else list(map(sum, itertools.zip_longest(*ws, fillvalue=0)))
        # a series list is as long as its order + 1, so the sum is trusted
        # through the shortest
        terms[key] = TruncatedQSeries(min(map(len, ws)) - 1, out) if series else QPolynomial(out)
    return LaurentQPoly(terms)


def verify_ladder(n, max_degree):
    """Exact ladder check for the degree family RS_0 .. RS_max_degree.

    Verifies, for every axis: raising R_i(RS_{k-1}) = RS_k, lowering by the
    Jackson derivative L_i(RS_k) = [k]_q RS_{k-1}, and the commutator
    (L_i R_i - R_i L_i)(RS_k) = q^k RS_k.  Returns a report dict with
    per-identity booleans and a list of any failing (identity, axis, degree)
    triples.
    """
    rs = [rogers_szego(n, k) for k in range(require_count(max_degree, 0, "max degree") + 1)]
    # [k]_q RS_{k-1} and q^k RS_k, the same on every axis
    scaled = [_termwise(f, lambda c, k=k: _falling(c, k, 1)) for k, f in enumerate(rs[:-1], 1)]
    shifted = [_termwise(f, lambda c, k=k: c.shift(k)) for k, f in enumerate(rs)]
    failures = []
    for axis in range(n):
        # R_i(RS_k) and L_i(RS_k) once each, for k = 0 .. max_degree
        raised = [raising_operator(f, axis) for f in rs]
        lowered = [jackson_derivative(f, axis) for f in rs]
        for k in range(1, max_degree + 1):
            if raised[k - 1] != rs[k]:
                failures.append(("raising", axis, k))
            if lowered[k] != scaled[k - 1]:
                failures.append(("lowering", axis, k))
        for k in range(max_degree + 1):
            lr = jackson_derivative(raised[k], axis)
            rl = raising_operator(lowered[k], axis)
            if lr != rl + shifted[k]:
                failures.append(("commutator", axis, k))
    report = {
        "n": n,
        "max_degree": max_degree,
        # a constant now that the family is fixed; it stays because the
        # benchmark's ladder jobs hash the whole report
        "convention": "vars_with_one",
        "raising_ok": not any(f[0] == "raising" for f in failures),
        "lowering_ok": not any(f[0] == "lowering" for f in failures),
        "commutator_ok": not any(f[0] == "commutator" for f in failures),
        "failures": failures,
    }
    report["all_ok"] = not failures
    return report


@dataclass(frozen=True)
class LeadingTermResult:
    maximizer: tuple
    value: QPolynomial


def coordinate_sum_maximizer(P):
    """Lattice point maximizing the coordinate sum, lexicographically greatest
    among ties: the best of the row ends, since along a row both the sum and
    the lexicographic order grow with the last coordinate."""
    ends = ((sum(prefix) + hi, prefix + (hi,)) for prefix, _, hi, _ in lattice.rows_with_slacks(P))
    best = max(ends, default=None)
    if best is None:
        raise PreconditionError("no lattice points to maximize over")
    return best[1]


def _leading_setup(P):
    """The first-orthant form Q of P, which must be radially symmetric, and
    its coordinate-sum maximizer."""
    Q = FirstOrthantDivisor.from_polytope(P).polytope
    lattice.require_radially_symmetric(Q)
    return Q, coordinate_sum_maximizer(Q)


def leading_term_check(P):
    """Iterate the Jackson derivative up to a coordinate-sum maximizer.

    For a radially symmetric first-orthant polytope, applying
    (d/dx_1)^(i_1) .. (d/dx_n)^(i_n) at the maximizer i kills every other
    monomial of the symmetric-weight polynomial (each has some coordinate
    below i, since none has a larger coordinate sum), leaving an exact
    scalar in q.  Returns the maximizer and that scalar, which must be
    nonzero.
    """
    Q, maximizer = _leading_setup(P)
    f = rs_polynomial(Q)
    for axis in range(Q.dim):
        f = iterated_jackson(f, axis, maximizer[axis])
    return LeadingTermResult(maximizer=maximizer, value=f.coefficient((0,) * Q.dim))


def leading_term_expected(P):
    """Closed form of the iterated derivative at the maximizer:

        [slack-sum; slacks(maximizer)]_q * prod_k [i_k]_q!

    The q-multinomial is the coefficient of the surviving monomial and each
    axis contributes the q-factorial of its derivative count.
    """
    Q, maximizer = _leading_setup(P)
    slacks = Q.slacks(maximizer)
    out = q_multinomial(sum(slacks), slacks)
    for i_k in maximizer:
        out = out * q_factorial(i_k)
    return out
