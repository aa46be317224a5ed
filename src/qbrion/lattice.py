"""Lattice polytopes in half-space form, with exact integer arithmetic.

A polytope is stored as an intersection of half-spaces

    P = { u in R^n : <u, v_i> >= -a_i,  i = 1..r }

with primitive integer inward normals v_i and integer offsets a_i.  The slack
of a point u at facet i is <u, v_i> + a_i; lattice points are exactly the
integer vectors with all slacks nonnegative.

Vertex enumeration is facet-subset based: every n-element subset of facets
whose normal matrix is invertible and whose solution point satisfies the
remaining inequalities contributes one vertex datum.  For a full-dimensional
smooth polytope this is the usual vertex list; for degenerate offsets (for
example a segment shrunk to a point) the same point may carry several facet
subsets, and each is kept, because the downstream corner-term sums need one
summand per maximal cone of the normal fan, not per geometric point.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    EmptyPolytopeError,
    InvalidInputError,
    PreconditionError,
    SmoothnessError,
)
from .qalg import require_count


def bareiss_reduce(rows, width):
    """Fraction-free Gauss-Jordan elimination (Bareiss) on integer rows, one
    row at a time.

    Each row is reduced against the independent rows taken before it; if any
    of its first `width` entries is left nonzero, the first such column
    becomes a pivot.  Columns from `width` on are carried along, so reducing
    [A | B] solves A X = B.  Every entry stays a Python int: the reduced rows
    share one denominator d > 0, the absolute determinant of the pivot minor
    (the independent rows at the pivot columns), and each update divides
    exactly by the previous d.  Returns (reduced, pivots, leads, det):

    - reduced[k] has d at column pivots[k] and 0 at every other pivot column;
      it is d times the k-th row of the reduced row echelon form, so for an
      invertible square A the carried columns hold d A^-1 B;
    - leads[k] is the k-th independent row reduced against the earlier ones
      only, times the (positive) d of the rows before it: the input row times
      that d minus a combination of earlier rows, zero at the earlier pivots,
      with its first nonzero entry at pivots[k];
    - det is d signed by the pivots' signs and the order in which they were
      found; for a square matrix of full rank it is the determinant.
    """
    reduced, pivots, leads = [], [], []
    d, sign = 1, 1
    for row in rows:
        # d * row minus row[p] times each earlier reduced row: zero at every
        # earlier pivot, since reduced rows are d there and 0 at the others
        lead = [d * x for x in row]
        for e, p in zip(reduced, pivots):
            c = row[p]
            if c:
                lead = [x - c * y for x, y in zip(lead, e)]
        for p in range(width):
            if lead[p]:
                break
        else:
            continue
        leads.append(lead)
        pivot = lead[p]
        if sum(q > p for q in pivots) % 2:
            sign = -sign
        if pivot < 0:
            sign, pivot, lead = -sign, -pivot, [-x for x in lead]
        for k, e in enumerate(reduced):
            c = e[p]
            reduced[k] = [(pivot * x - c * y) // d for x, y in zip(e, lead)]
        reduced.append(lead)
        pivots.append(p)
        d = pivot
    return reduced, pivots, leads, sign * d


def _primitive_vector(vec):
    """The primitive integer vector with the direction of a nonzero integer one."""
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


def _inverse_unimodular(rows):
    """Inverse of an integer matrix with determinant +-1, as integer columns."""
    n = len(rows)
    augmented = [tuple(v) + tuple(int(i == j) for j in range(n)) for i, v in enumerate(rows)]
    reduced, pivots, _, det = bareiss_reduce(augmented, n)
    assert len(pivots) == n and det in (-1, 1)
    inverse = [e[n:] for _, e in sorted(zip(pivots, reduced), key=lambda pe: pe[0])]
    return [tuple(column) for column in zip(*inverse)]


@dataclass(frozen=True)
class Polytope:
    """Half-space description with primitive integer normals."""

    dim: int
    normals: tuple
    offsets: tuple

    def __post_init__(self):
        try:  # tuples, so that one built from lists hashes and compares the same
            object.__setattr__(self, "normals", tuple(map(tuple, self.normals)))
            object.__setattr__(self, "offsets", tuple(self.offsets))
        except TypeError as exc:
            raise InvalidInputError("normals and offsets must be sequences") from exc
        n, r = self.dim, len(self.normals)
        if not _is_integer(n) or n < 1:
            raise InvalidInputError("dimension must be an integer of at least 1")
        if r != len(self.offsets):
            raise InvalidInputError("need one offset per facet normal")
        if r == 0:
            raise InvalidInputError("a bounded polytope needs at least one facet")
        seen = set()
        for v in self.normals:
            if len(v) != n or not all(_is_integer(x) for x in v):
                raise InvalidInputError("normals must be integer vectors of length %d" % n)
            if all(x == 0 for x in v):
                raise InvalidInputError("facet normals must be nonzero")
            if math.gcd(*v) != 1:
                raise InvalidInputError("facet normal %r is not primitive" % (list(v),))
            if v in seen:
                raise InvalidInputError("duplicate facet normal %r" % (list(v),))
            seen.add(v)
        if not all(_is_integer(a) for a in self.offsets):
            raise InvalidInputError("facet offsets must be integers")
        if not _is_bounded(self.normals):
            raise InvalidInputError("the half-space intersection is unbounded")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_facets(cls, dim, facets):
        """Build from (normal, offset) pairs; entries must already be integers."""
        try:
            normals = tuple(tuple(normal) for normal, _ in facets)
            offsets = tuple(a for _, a in facets)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError("facets must be (normal vector, offset) pairs") from exc
        return cls(dim, normals, offsets)

    @classmethod
    def from_dict(cls, data):
        try:
            dim = data["dim"]
            facets = [(f["normal"], f["offset"]) for f in data["facets"]]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError("polytope JSON needs 'dim' and 'facets' entries") from exc
        return cls.from_facets(dim, facets)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError("not valid JSON: %s" % exc) from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError("cannot read %s: %s" % (path, exc)) from exc

    def to_dict(self):
        return {
            "dim": self.dim,
            "facets": [
                {"normal": list(v), "offset": a}
                for v, a in zip(self.normals, self.offsets)
            ],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self):
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    # -- basic geometry --------------------------------------------------------

    @property
    def facet_count(self):
        return len(self.normals)

    def slacks(self, u):
        if len(u) != self.dim:
            raise InvalidInputError("point %r has %d coordinates, not %d" % (u, len(u), self.dim))
        return tuple(
            sum(x * y for x, y in zip(u, v)) + a
            for v, a in zip(self.normals, self.offsets)
        )

    def contains(self, u):
        return all(s >= 0 for s in self.slacks(u))

    def offset_sum(self):
        return sum(self.offsets)

    def normal_sum(self):
        return tuple(sum(v[j] for v in self.normals) for j in range(self.dim))

    def is_radially_symmetric(self):
        return all(x == 0 for x in self.normal_sum())

    @cached_property
    def geometry(self):
        """The vertex scan, computed on first use and kept: the polytope is immutable."""
        return Geometry(self)


def _is_integer(x):
    return isinstance(x, int) and not isinstance(x, bool)


@functools.lru_cache(maxsize=256)
def _is_bounded(normals):
    """Recession cone check: bounded iff no nonzero u has all <u,v_i> >= 0.

    The normals must span R^n (otherwise the cone contains a line), and no
    candidate extreme-ray direction (kernel of n-1 independent normals) may
    satisfy all inequalities.  The answer depends on the normals alone, so a
    dilation or an offset shift of a polytope already built reuses it.
    """
    n = len(normals[0])
    if len(bareiss_reduce(normals, n)[1]) < n:
        return False
    for rows in itertools.combinations(normals, n - 1):
        reduced, pivots, _, det = bareiss_reduce(rows, n)
        if len(pivots) < n - 1:
            continue
        free = next(c for c in range(n) if c not in pivots)
        ray = [0] * n
        ray[free] = abs(det)
        for e, p in zip(reduced, pivots):
            ray[p] = -e[free]
        for sign in (1, -1):
            if all(sign * sum(x * y for x, y in zip(ray, v)) >= 0 for v in normals):
                return False
    return True


@dataclass(frozen=True)
class VertexData:
    """One maximal corner of the polytope.

    point: the integer vertex; facet_set: indices of the n facets meeting
    there; edge_dirs: for each facet index i in facet_set, the primitive
    integer direction u_i with <u_i, v_j> = delta_ij over j in facet_set
    (the edge leaving the vertex that is NOT contained in facet i).
    """

    point: tuple
    facet_set: tuple
    edge_dirs: tuple  # aligned with facet_set


@dataclass(frozen=True)
class ValidationReport:
    smooth: bool
    radially_symmetric: bool
    all_facets_touch: bool
    full_dimensional: bool
    vertex_count: int
    lattice_point_count: int
    problems: tuple

    def to_dict(self):
        return {**asdict(self), "problems": list(self.problems)}


def _fan_problems(normals, subsets):
    """Problems, none when the cones spanned by the normals of each
    unimodular facet subset are the maximal cones of one complete fan: every
    wall (a subset less one facet) lies in exactly two subsets, the two
    normals they leave out lie on opposite sides of it, and one generic
    direction lies in exactly one cone.

    The edge directions u_i of a subset are the dual basis of its normals,
    so u_i is normal to the wall without facet i and positive on v_i, and a
    direction w lies inside the cone when every <u_i, w> > 0.  With M above
    twice every edge entry, w = (1, M, .., M^(n-1)) has <u, w> != 0 for
    every nonzero integer u with such entries: it is generic.
    """
    dirs = {S: _inverse_unimodular([normals[i] for i in S]) for S in subsets}
    walls = {}
    for S in subsets:
        for k, i in enumerate(S):
            walls.setdefault(S[:k] + S[k + 1:], []).append((S, k))
    problems = []
    for wall, sides in sorted(walls.items()):
        if len(sides) != 2:
            problems.append("facets %r lie in %d facet subsets, not 2" % (list(wall), len(sides)))
            continue
        (S, k), (other, j) = sides
        if sum(map(operator.mul, dirs[S][k], normals[other[j]])) >= 0:
            problems.append(
                "facet subsets %r and %r lie on one side of facets %r"
                % (list(S), list(other), list(wall))
            )
    top = 2 * max(abs(x) for us in dirs.values() for u in us for x in u) + 1
    w = [top ** j for j in range(len(normals[0]))]
    inside = sum(all(sum(map(operator.mul, u, w)) > 0 for u in us) for us in dirs.values())
    if inside != 1:
        problems.append("a generic direction lies in %d facet subset cones, not 1" % inside)
    return problems


class Geometry:
    """Everything one vertex scan of a polytope yields.

    The scan solves the facet system of every n-element facet subset once,
    on ints: bareiss_reduce gives its determinant det and d x with
    d = |det|, and the point is feasible when every d * slack is >= 0.
    solutions holds (point, facet subset, determinant) for each subset with
    independent normals and a feasible point; points are the distinct vertex
    points in sorted order, as exact rationals (the only Fractions the scan
    builds).  The rest is read off those points, still on ints: the integer
    coordinate box (None when empty), the smoothness
    verdict with its problems, full dimensionality, whether every facet
    touches, the active facets (whose slack is not identically zero) and a
    primitive integer basis of the vertex differences.  The vertex cones with
    their edge directions are computed on first use only.
    """

    def __init__(self, P):
        n = P.dim
        normals, offsets = P.normals, P.offsets
        self._normals = normals
        self.solutions = []
        problems = []
        # (d * point, d) in lowest terms -> (point, its slacks times some d > 0)
        found = {}
        for subset in itertools.combinations(range(P.facet_count), n):
            rows = [normals[i] + (-offsets[i],) for i in subset]
            reduced, pivots, _, det = bareiss_reduce(rows, n)
            if len(pivots) < n:
                continue
            d = abs(det)
            X = [0] * n  # d times the solution
            for e, p in zip(reduced, pivots):
                X[p] = e[n]
            slacks = [sum(map(operator.mul, v, X)) + a * d for v, a in zip(normals, offsets)]
            if min(slacks) < 0:
                continue
            g = math.gcd(d, *X)
            key = (tuple(x // g for x in X), d // g)
            if key not in found:
                found[key] = (tuple(Fraction(x, d) for x in X), slacks)
            point = found[key][0]
            self.solutions.append((point, subset, det))
            if d != 1:
                problems.append(
                    "facets %r meet at a feasible point with determinant %d" % (list(subset), det)
                )
            if key[1] != 1:
                problems.append(
                    "facets %r meet at the non-integral point %r"
                    % (list(subset), [str(x) for x in point])
                )
        # sorted by value: integral points compare as int tuples
        keys = sorted(found, key=lambda k: k[0] if k[1] == 1 else found[k][0])
        self.points = [found[k][0] for k in keys]
        self.box = None
        if keys:
            self.box = (
                [min(-(-X[j] // d) for X, d in keys) for j in range(n)],
                [max(X[j] // d for X, d in keys) for j in range(n)],
            )
        # the vertex differences, each times a positive integer
        diffs = [[x * keys[0][1] - y * d for x, y in zip(X, keys[0][0])] for X, d in keys[1:]]
        _, pivots, leads, _ = bareiss_reduce(diffs, n)
        self.full_dimensional = len(pivots) == n
        self.support_basis = tuple(_primitive_vector(lead) for lead in leads)
        # slacks times a positive d: the same zeros, and never negative
        slack_rows = [found[k][1] for k in keys]
        if not problems and self.full_dimensional:
            # Simplicity: a vertex of a smooth full-dimensional polytope lies
            # on exactly n facets.
            for p, slacks in zip(self.points, slack_rows):
                tight = slacks.count(0)
                if tight != n:
                    problems.append(
                        "vertex %r lies on %d facets, expected %d"
                        % ([str(x) for x in p], tight, n)
                    )
        elif not problems and self.solutions:
            # A lower-dimensional polytope keeps every independent facet
            # subset at each point; the corner sums need them to be the
            # maximal cones of one complete fan.
            problems.extend(_fan_problems(normals, [subset for _, subset, _ in self.solutions]))
        self.smooth = not problems
        self.problems = tuple(problems)
        facet_slacks = list(zip(*slack_rows))
        self.all_facets_touch = all(min(col) == 0 for col in facet_slacks)
        self.active_facets = tuple(i for i, col in enumerate(facet_slacks) if any(col))

    @cached_property
    def vertices(self):
        """VertexData for every solution, sorted; needs a smooth polytope."""
        return [
            VertexData(
                point=tuple(int(x) for x in point),
                facet_set=subset,
                edge_dirs=tuple(_inverse_unimodular([self._normals[i] for i in subset])),
            )
            for point, subset, _ in sorted(self.solutions, key=lambda s: (s[0], s[1]))
        ]


def basic_solutions(P):
    """All (point, facet_subset, det) with invertible subset and feasible point."""
    return list(P.geometry.solutions)


def validate(P):
    """Validation report: smoothness, radial symmetry, touching facets, dimension.

    Raises EmptyPolytopeError when the half-space intersection has no point;
    everything else is reported as flags, not errors, so callers can decide
    which properties their operation actually needs.
    """
    geo = require_nonempty(P).geometry
    return ValidationReport(
        smooth=geo.smooth,
        radially_symmetric=P.is_radially_symmetric(),
        all_facets_touch=geo.all_facets_touch,
        full_dimensional=geo.full_dimensional,
        vertex_count=len(geo.points),
        lattice_point_count=sum(hi - lo + 1 for _, lo, hi, _ in rows_with_slacks(P)),
        problems=geo.problems,
    )


def enumerate_vertices(P):
    """Vertex data for every feasible unimodular facet subset.

    Raises SmoothnessError if any feasible facet subset is non-unimodular or
    meets at a non-integral point, and (for full-dimensional P) if some vertex
    lies on more than n facets.  Degenerate offsets may legitimately produce
    several vertex data at one geometric point; each carries its own facet
    subset and edge directions.
    """
    geo = require_nonempty(P).geometry
    if not geo.smooth:
        raise SmoothnessError("; ".join(geo.problems))
    return list(geo.vertices)


def vertex_points(P):
    """Sorted distinct vertex points (exact rationals cast to int when integral)."""
    return [tuple(int(x) if x.denominator == 1 else x for x in p) for p in P.geometry.points]


def lattice_points(P):
    """All integer points of P in lexicographic order: the rows of
    rows_with_slacks, flattened."""
    return [prefix + (t,) for prefix, lo, hi, _ in rows_with_slacks(P) for t in range(lo, hi + 1)]


def rows_with_slacks(P):
    """Yield (prefix, lo, hi, slacks at lo) for each nonempty row of lattice points.

    A row is the set of lattice points prefix + (t,), lo <= t <= hi, that
    share their first n - 1 coordinates; rows come in lexicographic prefix
    order.  The bounds are the exact integer interval the facet inequalities
    leave for the last coordinate, by floor division.  Along a row slack i
    grows by d_i, the last entry of normal i, per unit step in t.

    The slacks at t = 0 are kept incrementally: taken once per head (the
    first n - 2 coordinates), then moved by c_i, entry n - 2 of normal i, per
    step of coordinate n - 2.  The facets are split once into rising
    (d_i > 0: t >= -(b_i // d_i)), falling (d_i < 0: t <= b_i // -d_i) and
    flat ones; a flat facet bounds coordinate n - 2 alone, so it cuts that
    coordinate's range once per head.  A row then costs, per facet, one add
    for its slack at t = 0, a multiply-add for its slack at lo and, for a
    rising or falling facet, one floor division, all in itertools and map
    pipelines that run below the Python loop.  A bounded polytope has at
    least one rising and one falling facet: otherwise the last unit vector,
    or its negative, is a recession direction.

    A coordinate before the last that spans more than sys.maxsize values
    cannot be stepped through: PreconditionError.
    """
    box = P.geometry.box
    if box is None:
        return
    lo, hi = box
    n = P.dim
    for j in range(n - 1):
        span = hi[j] - lo[j] + 1
        if span > sys.maxsize:
            raise PreconditionError(
                "coordinate u_%d spans %d values, more than %d can be walked" % (j + 1, span, sys.maxsize)
            )
    normals, offsets = P.normals, P.offsets
    steps = [v[-1] for v in normals]
    if n == 1:
        row_lo = max([lo[0]] + [-(a // d) for a, d in zip(offsets, steps) if d > 0])
        row_hi = min([hi[0]] + [a // -d for a, d in zip(offsets, steps) if d < 0])
        if row_lo <= row_hi:
            yield (), row_lo, row_hi, tuple(a + d * row_lo for a, d in zip(offsets, steps))
        return
    rising = [i for i, d in enumerate(steps) if d > 0]
    falling = [i for i, d in enumerate(steps) if d < 0]
    flat = [i for i, d in enumerate(steps) if d == 0]
    column = [v[n - 2] for v in normals]
    for head in itertools.product(*[range(lo[j], hi[j] + 1) for j in range(n - 2)]):
        # slacks at (head, 0, 0), one dot product per facet per head
        at0 = [sum(map(operator.mul, head, v)) + a for v, a in zip(normals, offsets)]
        x0, x1 = lo[n - 2], hi[n - 2]
        for i in flat:  # at0[i] + column[i] x >= 0
            b, c = at0[i], column[i]
            if c > 0:
                x0 = max(x0, -(b // c))
            elif c < 0:
                x1 = min(x1, b // -c)
            elif b < 0:
                x1 = x0 - 1
        if x0 > x1:
            continue
        count = x1 - x0
        start = [b + c * x0 for b, c in zip(at0, column)]

        def moving(i):
            """Slack i at t = 0 for x = x0 .. x1."""
            return itertools.accumulate(itertools.repeat(column[i], count), initial=start[i])

        lows = map(
            max,
            itertools.repeat(lo[-1]),
            *[map(operator.neg, map(operator.floordiv, moving(i), itertools.repeat(steps[i])))
              for i in rising],
        )
        highs = map(
            min,
            itertools.repeat(hi[-1]),
            *[map(operator.floordiv, moving(i), itertools.repeat(-steps[i])) for i in falling],
        )
        lows, *at_lo = itertools.tee(lows, len(steps) + 1)
        # slack i at t = row_lo: b_i + d_i row_lo
        slacks = zip(*[
            map(operator.add, moving(i), map(operator.mul, itertools.repeat(d), low))
            for i, (d, low) in enumerate(zip(steps, at_lo))
        ])
        for x, row_slacks, row_lo, row_hi in zip(range(x0, x1 + 1), slacks, lows, highs):
            if row_lo <= row_hi:
                yield head + (x,), row_lo, row_hi, row_slacks


def points_with_slacks(P):
    """Yield (point, slack vector) pairs in lexicographic point order.

    The flattening of rows_with_slacks: slack vectors are updated along each
    row, so the cost is proportional to the number of points plus rows.
    """
    last_steps = [v[-1] for v in P.normals]
    for prefix, lo, hi, slacks in rows_with_slacks(P):
        for t in range(lo, hi + 1):
            yield prefix + (t,), slacks
            slacks = tuple(map(operator.add, slacks, last_steps))


def sorted_slacks(P):
    """The lattice points of P in lexicographic order and the sorted slack
    tuple of each, as two lists: every weight that depends only on the
    multiset of a point's slacks is keyed by that tuple.  Along a row only
    the slacks of facets whose normal has a nonzero last entry move."""
    moving = [(i, v[-1]) for i, v in enumerate(P.normals) if v[-1]]
    points, keys = [], []
    for prefix, lo, hi, slacks in rows_with_slacks(P):
        slacks = list(slacks)
        for t in range(lo, hi + 1):
            points.append(prefix + (t,))
            keys.append(tuple(sorted(slacks)))
            for i, d in moving:
                slacks[i] += d
    return points, keys


def dilate(P, k):
    """k-fold dilation: same normals, offsets scaled by the positive integer
    k; P itself at k = 1."""
    if require_count(k, 1, "dilation factor") == 1:
        return P
    return Polytope(P.dim, P.normals, tuple(k * a for a in P.offsets))


def corner_degree_valuation(P, vd, b):
    """Minimal q-power of one corner summand, for a possibly signed vector.

    Entries on the vertex's own facet coordinates may be negative: such an
    entry turns its corner factor into a finite product with no quadratic
    q-shift, so only the linear offset part a_i b_i remains. Negative entries
    off the facet set are rejected."""
    total = 0
    for i, (bi, a) in enumerate(zip(b, P.offsets)):
        if bi > 0:
            total += bi * (bi + 1) // 2 + a * bi
        elif bi < 0:
            if i not in vd.facet_set:
                raise InvalidInputError(
                    "negative degree entry off the vertex facet set"
                )
            total += a * bi
    return total


def enumerate_corner_degrees(P, vd, order):
    """Signed degree vectors feeding one vertex's corner sum, valuation <= order.

    The kernel condition sum_i b_i v_i = 0 is solved coordinate by coordinate:
    entries off the vertex's facet set range over nonnegative integers (the
    free part), and the facet entries are the unique integral completion
    against the facet-normal basis, where they may go negative. b = 0 is
    always present; for product-of-simplex fans the completion is never
    negative and the result matches the globally nonnegative enumeration.

    On the kernel, sum_i a_i b_i = sum_i s_i b_i with s_i the slacks of the
    vertex, which vanish on its facet set, so the corner valuation is

        sum_{free j} [t_j(t_j+1)/2 + s_j t_j] + sum_{facet f, b_f > 0} b_f(b_f+1)/2,

    a sum of nonnegative terms, each free one increasing in t_j.  The walk
    over the free coordinates stops t_j as soon as the partial sum exceeds
    the order, carries the facet entries along, and adds their positive parts
    at the leaf: the prune is exact and tightens under dilation.
    """
    require_count(order, 0, "series order")
    free = [j for j in range(P.facet_count) if j not in vd.facet_set]
    slacks = P.slacks(vd.point)
    # expansion of each free normal in the facet-normal basis, via duality:
    # one unit of t_j lowers the facet entries by these amounts
    expand = [
        [sum(e * v for e, v in zip(u, P.normals[j])) for u in vd.edge_dirs]
        for j in free
    ]
    b = [0] * P.facet_count
    out = []

    def walk(pos, val, facet):
        if pos == len(free):
            if val + sum(x * (x + 1) // 2 for x in facet if x > 0) <= order:
                for f, x in zip(vd.facet_set, facet):
                    b[f] = x
                out.append(tuple(b))
            return
        j, s, step = free[pos], slacks[free[pos]], expand[pos]
        t = 0
        while val <= order:
            b[j] = t
            walk(pos + 1, val, facet)
            t += 1
            val += t + s
            facet = [x - e for x, e in zip(facet, step)]
        b[j] = 0

    walk(0, 0, [0] * P.dim)
    return sorted(out)


def require_nonempty(P):
    """P, unless its half-space intersection has no point: then
    EmptyPolytopeError."""
    if not P.geometry.solutions:
        raise EmptyPolytopeError("the half-space intersection is empty")
    return P


def require_radially_symmetric(P):
    if not P.is_radially_symmetric():
        raise PreconditionError(
            "operation needs radially symmetric normals (they must sum to zero)"
        )
