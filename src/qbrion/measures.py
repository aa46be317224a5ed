"""Limit measures on lattice points and their Gaussian asymptotics.

Each lattice point u of a polytope carries the slack vector t(u) whose entries
are the facet distances.  The discrete limit measure weights u by the ordinary
multinomial coefficient of its slacks, restricted to the face where the slack
sum is maximal; it arises from the q-weight family w_q(u) proportional to
prod_i 1/(q;q)_{t_i(u)} as q -> 1 from below.  After dilation by k and scaling
by 1/k these measures concentrate at the minimizer of the entropy-like
potential prod_i t_i^{t_i} and fluctuate like a Gaussian whose precision
matrix is the Hessian sum_i v_i v_i^T / t_i at that minimizer.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import lattice
from .errors import (
    ConvergenceError,
    InvalidInputError,
    PreconditionError,
)
from .qalg import require_count


_NEWTON_STEPS = 200  # minimize_potential gives up after this many
_NEWTON_TOL = 1e-10  # ... and stops once the gradient norm is at most this
# A Newton decrement below this share of sum_i |t_i log t_i| predicts a
# decrease the float log-potential cannot show (its rounding is about
# 1e-15 of that sum), so the step is taken whole, without the line search.
_DECREMENT_FLOOR = 1e-12


def _real_point(u):
    """u as a tuple, or None unless it is a sequence of real numbers (bools
    excluded)."""
    try:
        entries = tuple(u)
    except TypeError:
        return None
    for x in entries:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            return None
    return entries


def _lattice_point(u):
    """u as a tuple of ints, or None unless it is a nonempty sequence of
    integral numbers (bools excluded)."""
    entries = _real_point(u)
    if not entries:
        return None
    point = []
    for x in entries:
        try:
            i = int(x)
        except (ValueError, OverflowError):
            return None
        if i != x:
            return None
        point.append(i)
    return tuple(point)


def _exact_weight(w, u):
    """w as an int or Fraction: ints (bools excluded) and Fractions as they
    are, finite floats exactly; InvalidInputError for anything else."""
    if isinstance(w, (int, Fraction)) and not isinstance(w, bool):
        return w
    if isinstance(w, float) and math.isfinite(w):
        return Fraction(w)
    raise InvalidInputError(
        "weight %r at %r is not an int, a Fraction or a finite float" % (w, u)
    )


def _coprime_fraction(n, d):
    """Fraction(n, d) for coprime ints n and d > 0, built without Fraction's
    gcd: the two slots that Fraction.__new__ sets (CPython 3.10-3.13)."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _normalized(points, keys, nums, total, shared):
    """{point: nums[key] / total in lowest terms}, for points and their keys
    in step, one positive int per key in nums and total the sum of nums over
    keys.  shared is an int with gcd(n, shared) == gcd(n, total) for every n
    in nums: total itself, or a divisor of it when the caller knows one.
    Each atom is built once per key and shared by its points, and total // g
    once per distinct gcd g."""
    atom, dens = {}, {1: total}
    for key, n in nums.items():
        g = math.gcd(n, shared)
        if g not in dens:
            dens[g] = total // g
        atom[key] = _coprime_fraction(n // g, dens[g])
    return dict(zip(points, map(atom.__getitem__, keys)))


def _measure(atoms):
    """A DiscreteMeasure on atoms that are already its normalized weights."""
    mu = object.__new__(DiscreteMeasure)
    mu.atoms = atoms
    return mu


def _require_q(q):
    """q, if it is an int (not a bool), a Fraction or a float in (0, 1); else InvalidInputError."""
    if isinstance(q, bool) or not isinstance(q, (int, Fraction, float)) or not 0 < q < 1:
        raise InvalidInputError("q must be an int, a Fraction or a float in (0, 1), got %r" % (q,))
    return q


class DiscreteMeasure:
    """Finitely supported probability measure on lattice points.

    Keys are points of one common dimension with integral entries; weights
    are ints (bools excluded), Fractions or finite floats, taken exactly;
    anything else is an InvalidInputError.  Weights are normalized at
    construction, once, over one common denominator; zero weights are
    dropped.  The moments behind mean() and covariance() are computed once,
    on first use, so atoms is not to be mutated.
    """

    def __init__(self, weights):
        cleaned, dims = {}, set()
        for u, w in weights.items():
            key = _lattice_point(u)
            if key is None:
                raise InvalidInputError("%r is not a lattice point" % (u,))
            dims.add(len(key))
            w = _exact_weight(w, u)
            if w.numerator < 0:
                raise InvalidInputError("negative weight at %r" % (u,))
            if not w.numerator:
                continue
            if key in cleaned:
                cleaned[key] += w
            else:
                cleaned[key] = w
        if len(dims) > 1:
            raise InvalidInputError("points of different dimensions %s" % sorted(dims))
        if not cleaned:
            raise InvalidInputError("measure needs positive total mass")
        # Over the lcm of the denominators every weight is an int n; equal
        # weights share one (numerator, denominator) pair, so the scaling and
        # the gcd with the total come once per distinct weight.
        pairs = [(w.numerator, w.denominator) for w in cleaned.values()]
        dens = {d for _, d in pairs}
        den = math.lcm(*dens)
        scale = {d: den // d for d in dens}
        nums = {pair: pair[0] * scale[pair[1]] for pair in set(pairs)}
        total = sum(map(nums.__getitem__, pairs))
        self.atoms = _normalized(cleaned, pairs, nums, total, total)

    def support(self):
        return sorted(self.atoms)

    def weight(self, u):
        """The mass at u, a sequence of real numbers (bools excluded) of the
        measure's dimension: 0 off the support, so also off the lattice;
        InvalidInputError for any other u."""
        return self.atoms.get(_lattice_point(self._real_vector(u, "u")), Fraction(0))

    def dim(self):
        return len(next(iter(self.atoms)))

    def _real_vector(self, u, name):
        """u as a tuple, if it is a sequence of real numbers (bools excluded)
        of the measure's dimension; else InvalidInputError."""
        point = _real_point(u)
        if point is None:
            raise InvalidInputError("%r is not a sequence of real numbers" % (u,))
        if len(point) != self.dim():
            raise InvalidInputError("%s has %d coordinates, the measure %d" % (name, len(point), self.dim()))
        return point

    def _require_alike(self, other, verb):
        """InvalidInputError unless other is a DiscreteMeasure of the same
        dimension."""
        if not isinstance(other, DiscreteMeasure):
            raise InvalidInputError("cannot %s a measure with a %s" % (verb, type(other).__name__))
        if other.dim() != self.dim():
            raise InvalidInputError("cannot %s dimensions %d and %d" % (verb, self.dim(), other.dim()))

    @functools.cached_property
    def _moment_data(self):
        # once per measure, on first use: one-point rows; the moments are
        # normalized, so the atoms taken over one common denominator keep the
        # accumulator on ints
        den = math.lcm(*(w.denominator for w in self.atoms.values()))
        rows = ((u[:-1], u[-1], 1, w.numerator * (den // w.denominator), 0, 0)
                for u, w in self.atoms.items())
        return _moments(rows, self.dim())

    def mean(self):
        return self._moment_data.mean

    def covariance(self):
        return self._moment_data.covariance

    def convolve(self, other):
        self._require_alike(other, "convolve")
        out = {}
        for u, w in self.atoms.items():
            for v, z in other.atoms.items():
                key = tuple(a + b for a, b in zip(u, v))
                out[key] = out.get(key, Fraction(0)) + w * z
        return DiscreteMeasure(out)

    def characteristic_function(self, x):
        """E[exp(i <x, u>)] at a real vector x."""
        x = self._real_vector(x, "x")
        out = 0j
        for u in sorted(self.atoms):
            phase = sum(float(a) * b for a, b in zip(x, u))
            out += float(self.atoms[u]) * cmath.exp(1j * phase)
        return out

    def total_variation(self, other):
        self._require_alike(other, "compare")
        keys = set(self.atoms) | set(other.atoms)
        return sum(
            (abs(self.atoms.get(u, Fraction(0)) - other.atoms.get(u, Fraction(0))) for u in keys),
            Fraction(0),
        ) / 2

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.atoms == other.atoms

    def __repr__(self):
        return "DiscreteMeasure(%d atoms)" % len(self.atoms)


def _max_face(P):
    """The vertices p of P with the largest <sigma, p>, sigma the normal sum:
    those of its max face, where the slack sum <sigma, u> + offset sum is
    largest."""
    sigma = P.normal_sum()
    points = lattice.vertex_points(lattice.require_nonempty(P))
    values = [sum(map(operator.mul, sigma, p)) for p in points]
    top = max(values)
    return [p for p, x in zip(points, values) if x == top]


def max_face_value(P):
    """Largest slack sum over the polytope; attained on a face."""
    return sum(map(operator.mul, P.normal_sum(), _max_face(P)[0])) + P.offset_sum()


def _carried(value, old, new):
    """value * F(new) / F(old), for F(t) = (sum t)! / prod_i t_i! the
    multinomial coefficient of a slack tuple t.

    A factorial whose argument moves from x to y takes y! / x! =
    math.perm(y, y - x) into the numerator or the denominator.  Between
    neighbouring face rows the slacks move by little and their sum not at
    all, so these products stay small and the carried value costs one big
    multiply and one exact division.  old None starts from F = 1 at
    all-zero slacks.
    """
    if old is None:
        old = (0,) * len(new)
    num = den = 1
    # each pair (x, y) contributes y! / x!
    for x, y in zip(new + (sum(old),), old + (sum(new),)):
        if y > x:
            num *= math.perm(y, y - x)
        elif x > y:
            den *= math.perm(x, x - y)
    return value * num // den


def _weight_rows(P):
    """Yield (prefix, lo, weights) for each row of the max face;
    PreconditionError after the last row when no lattice point lies on it.

    The rows are read from lattice.rows_with_slacks: along a row the slack
    sum grows by sigma = sum_i d_i per unit step, d_i the last entry of
    normal i.  With sigma = 0 a row lies wholly on the face or off it;
    otherwise it meets the face in at most the one point where the slack
    sum reaches the target.

    weights[m] is the multinomial coefficient target! / prod_i t_i! of the
    slacks t at prefix + (lo + m,).  Each row's first weight is carried from
    the last row's by _carried.  A unit step moves slack i from t_i to
    t_i + d_i, which multiplies the weight by prod_i t_i! / (t_i + d_i)!: the
    falling slacks over the rising ones, by math.perm only where |d_i| >= 2.
    Only one row of weights is held at a time.
    """
    target = max_face_value(P)
    deltas = [v[-1] for v in P.normals]
    sigma = sum(deltas)
    moving = [(i, d) for i, d in enumerate(deltas) if d]
    first, last = 1, None
    for prefix, lo, hi, slacks in lattice.rows_with_slacks(P):
        gap = target - sum(slacks)
        if sigma:
            m, r = divmod(gap, sigma)
            if r or not 0 <= m <= hi - lo:
                continue
            lo = hi = lo + m
            slacks = tuple(s + m * d for s, d in zip(slacks, deltas))
        elif gap:
            continue
        first, last = _carried(first, last, slacks), slacks
        steps = hi - lo
        if not steps:
            yield prefix, lo, [first]
            continue
        nums, dens = [1] * steps, [1] * steps
        for i, d in moving:
            s = slacks[i]
            if d > 0:  # rising: divide by (s + d)! / s! at each step
                factors, out = range(s + d, s + (steps + 1) * d, d), dens
            else:  # falling: multiply by s! / (s + d)!
                factors, out = range(s, s + steps * d, d), nums
            if abs(d) >= 2:
                factors = map(math.perm, factors, itertools.repeat(abs(d)))
            out[:] = map(operator.mul, out, factors)
        w = first
        weights = [w]
        for num, den in zip(nums, dens):
            w = w * num // den
            weights.append(w)
        yield prefix, lo, weights
    if last is None:
        raise PreconditionError("no lattice points on the maximal face")


def _face_weights(P):
    """Yield (point, multinomial coefficient of its slacks) on the max face,
    in lexicographic point order: the flattening of _weight_rows."""
    for prefix, lo, weights in _weight_rows(P):
        for m, w in enumerate(weights):
            yield prefix + (lo + m,), w


def mu_measure(P):
    """The multinomial limit measure of the polytope.

    Supported on the maximal-slack-sum face; the weight of u is the
    multinomial coefficient of its slack vector, walked along each row of
    the face by _weight_rows.  When the normals sum to zero the support is
    every lattice point.  The points and the positive int weights need none
    of DiscreteMeasure's checks, so they go to _normalized as they are.
    """
    face = dict(_face_weights(P))
    weights = face.values()
    total = sum(weights)
    return _measure(_normalized(face, weights, dict(zip(weights, weights)), total, total))


def _slack_keys(P, what):
    """lattice.sorted_slacks(P); PreconditionError, naming what cannot be
    built, when P has no lattice point."""
    points, keys = lattice.sorted_slacks(P)
    if not points:
        raise PreconditionError("polytope has no lattice points, so no %s" % what)
    return points, keys


def mu_limit_estimate(P, q):
    """Normalized q-weights w_q(u) proportional to prod_i 1 / (q;q)_{t_i(u)}.

    q must be a Fraction or a float in (0, 1), taken exactly; everything is
    exact.  The weight depends only on the multiset of u's slacks, so it is
    built once per sorted slack tuple.  As q -> 1- the result converges to
    mu_measure(P) in total variation.

    With q = a/b in lowest terms and f_j = b^j - a^j, the weight of a sorted
    slack tuple s is b^E(s) / D(s), E(s) = sum_i s_i (s_i + 1) / 2 and
    D(s) = prod_i prod_{j <= s_i} f_j, in lowest terms as built, since
    gcd(b, f_j) = gcd(b, a^j) = 1.  Over C = prod_i prod_{j <= M_i} f_j, M_i
    the largest i-th sorted slack, and b^E_min, it is the int
    n_s = b^(E(s) - E_min) * C / D(s), a product of per-position tail
    products with no division.  As b is prime to C / D(s),
    gcd(n_s, T) = gcd(n_s, gcd(C, T) * gcd(b^(E_max - E_min), T)) for the
    total T, so the reduction takes two big gcds per call and, per multiset,
    one gcd with that shared factor, which is small when a and b are.
    """
    q = Fraction(_require_q(q))
    a, b = q.numerator, q.denominator
    points, keys = _slack_keys(P, "limit measure")
    multisets = set(keys)
    tops = [max(column) for column in zip(*multisets)]
    f = [b ** j - a ** j for j in range(max(tops) + 1)]
    tails = {}  # M -> [prod_{s < j <= M} f_j for s in 0..M]
    for top in set(tops):
        tail = [1] * (top + 1)
        for s in range(top - 1, -1, -1):
            tail[s] = tail[s + 1] * f[s + 1]
        tails[top] = tail
    columns = [tails[top] for top in tops]
    exps = {key: sum(s * (s + 1) for s in key) // 2 for key in multisets}
    low = min(exps.values())
    nums = {}
    for key, e in exps.items():
        n = b ** (e - low)
        for tail, s in zip(columns, key):
            n *= tail[s]
        nums[key] = n
    total = sum(map(nums.__getitem__, keys))
    common = math.prod(tail[0] for tail in columns)
    shared = math.gcd(common, total) * math.gcd(b ** (max(exps.values()) - low), total)
    return _measure(_normalized(points, keys, nums, total, shared))


def _multiset_weights(keys, q):
    """{sorted slack tuple: normalized float q-weight} over the distinct keys.

    The log-weight of a key is the sum of its log-Pochhammer terms in sorted
    order, so equal multisets get bitwise identical weights; the max, the
    exps and the division come once per key, and fsum runs over one term per
    point, as keys lists them.
    """
    multisets = set(keys)
    # prefix[s] = log (q;q)_s, up to the largest slack
    terms = (math.log1p(-(q ** j)) for j in range(1, max(map(max, multisets)) + 1))
    prefix = list(itertools.accumulate(terms, initial=0.0))
    logw = {key: -sum(map(prefix.__getitem__, key)) for key in multisets}
    top = max(logw.values())
    expd = {key: math.exp(v - top) for key, v in logw.items()}
    norm = math.fsum(map(expd.__getitem__, keys))
    return {key: w / norm for key, w in expd.items()}


def log_weight_table(P, q):
    """Float log-domain q-weights, normalized to sum to one.

    Slacks are summed in sorted order so that points with equal slack
    multisets (for instance mirror images under a central symmetry) get
    bitwise identical weights.
    """
    _require_q(q)
    points, keys = _slack_keys(P, "weight table")
    weights = _multiset_weights(keys, q)
    return list(zip(points, map(weights.__getitem__, keys)))


@dataclass(frozen=True)
class MomentData:
    point_count: int
    mean: tuple
    covariance: tuple

    def mean_floats(self):
        return [float(x) for x in self.mean]

    def covariance_floats(self):
        return [[float(x) for x in row] for row in self.covariance]


def _row_sums(P):
    """Yield (prefix, lo, size, sum w, sum m w, sum m^2 w) for each row of the
    max face, over the row's _weight_rows weights w = weights[m].

    Three running sums a += w, b += a, c += b take additions only; with
    L = len(weights) they give

        sum w = a,  sum m w = L a - b,  sum m^2 w = L^2 a - 2 L b + (2 c - b).
    """
    for prefix, lo, weights in _weight_rows(P):
        a = b = c = 0
        for w in weights:
            a += w
            b += a
            c += b
        size = len(weights)
        yield prefix, lo, size, a, size * a - b, size * (size * a - 2 * b) + 2 * c - b


def _moments(rows, n):
    """Exact moments of rows of weighted points, normalized by their total.

    A row (prefix, lo, size, w0, w1, w2) stands for the points prefix +
    (lo + m,), 0 <= m < size, whose weights w have sum w = w0, sum m w = w1
    and sum m^2 w = w2.  The shift by lo and the products with the prefix
    coordinates come once per row, the divisions once at the end.
    """
    count = 0
    s0 = 0
    s1 = [0] * n
    s2 = [[0] * n for _ in range(n)]
    last = n - 1
    for prefix, lo, size, a, m1, m2 in rows:
        count += size
        x1 = lo * a + m1  # sum of w t over the row, t = lo + m
        s0 += a
        s1[last] += x1
        s2[last][last] += lo * (lo * a + 2 * m1) + m2
        for j in range(last):
            pa = prefix[j] * a
            s1[j] += pa
            s2[j][last] += prefix[j] * x1
            for l in range(j, last):
                s2[j][l] += pa * prefix[l]
    mean = tuple(Fraction(s1[j], s0) for j in range(n))
    cov = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for l in range(j, n):
            cov[j][l] = Fraction(s2[j][l], s0) - mean[j] * mean[l]
            cov[l][j] = cov[j][l]
    return MomentData(count, mean, tuple(tuple(row) for row in cov))


@functools.lru_cache(maxsize=256)
def _face_law(P):
    """(groups, relation, mean, lin, hyp): the law of the slacks on the max
    face F of every dilation kP, or None: for an empty or a non-smooth P,
    and for a face outside the two cases below.

    The test is scale-free, so it runs once per polytope, on P: a dilation
    by k scales every slack of F's vertices by k.  F's vertices are those p
    of P with the largest <sigma, p> (_max_face).  A facet is
    moving if its slack differs between them, else constant on F.  Moving
    facets i != j join one class when t_i + t_j is constant on F's
    vertices, or when they are exchangeable: an integer d has <v_l, d> =
    [l = i] - [l = j] for every facet l, so that a step by d moves one unit
    of slack from j to i.  P is smooth, so the n facets of one vertex have
    dual integer edge directions u_s, and d = u_i - u_j (u_s = 0 off that
    vertex) is the only candidate.  The classes G are the connected
    components, and the slack sum of each must be constant on F's vertices,
    T_G on P.  Let r = sum_G (|G| - 1) - dim F, dim F the rank of the
    differences of F's vertices.  r = 0 is a product of simplices.  r = 1
    needs the first slacks of the classes of two facets (the pairs) to
    differ over F's vertices by a one-dimensional kernel, spanned by entries
    0 and +-c: signs s_G with sum_G s_G t_G constant on F, the relation.

    - Let L be the affine space of slack vectors with each constant facet,
      each class sum and the relation at its value on kF.  These hold at
      F's vertices, so on the slack image of aff(kF), which has dimension
      dim F, as u -> t(u) is injective (the normals span).  So does L:
      sum_G (|G| - 1) - r, the relation taking one slack of each of its
      pairs and not the other, so being independent of the class sums.  So
      L is that image.
    - So an integer t >= 0 in L is the slack vector of a point u of kP at
      the largest slack sum, that is of kF, and u = sum_s (t_s - k a_s) u_s
      over one vertex's facets s is a lattice point.  Conversely the slacks
      of every lattice point of kF lie in L.
    - The weight m! / prod_i t_i! of mu_measure(kP) is a constant times one
      multinomial N_G! / prod_{i in G} t_i! per class, N_G = k T_G.

    So the classes off the relation, listed in groups as (T_G, |G|), are
    independent uniform multinomials: E t_i = N_G / |G|, Cov(t_i, t_j) =
    (N_G / |G|) ([i = j] - 1 / |G|), and C(N_G + |G| - 1, |G| - 1) points
    each.  On the relation's pairs, listed in relation as (D_1, (T_G, ..)),
    let y_G be the slack of the member of sign +1, N_G - y_G the other's.
    Then sum_G y_G = D = k D_1, and y_G weighs C(N_G, y_G), so y is
    multivariate hypergeometric (Chu-Vandermonde): D draws from
    N = sum_G N_G >= 2, E y_G = D N_G / N, Cov(y_G, y_H) =
    D (N - D) N_G (N [G = H] - N_H) / (N^2 (N - 1)), and as many points as
    integer y with 0 <= y_G <= N_G and sum_G y_G = D.  So through u the
    mean is k mean, and the covariance k lin + k^2 / (N - 1) hyp, with the
    three as Fractions at k = 1 (hyp None without a relation).
    """
    geo = P.geometry
    if not geo.solutions or not geo.smooth:
        return None
    n = P.dim
    face = _max_face(P)
    diffs = [[x - y for x, y in zip(p, face[0])] for p in face[1:]]
    face_dim = len(lattice.bareiss_reduce(diffs, n)[1])
    cols = list(zip(*map(P.slacks, face)))  # each facet's slacks at F's vertices
    moving = [i for i, col in enumerate(cols) if len(set(col)) > 1]
    frame = geo.vertices[0]
    dirs = dict(zip(frame.facet_set, frame.edge_dirs))
    zero = (0,) * n
    group = {i: i for i in moving}  # one label per class
    for i, j in itertools.combinations(moving, 2):
        d = tuple(map(operator.sub, dirs.get(i, zero), dirs.get(j, zero)))
        if len(set(map(operator.add, cols[i], cols[j]))) == 1 or all(
            sum(map(operator.mul, v, d)) == (l == i) - (l == j)
            for l, v in enumerate(P.normals)
        ):
            old, new = group[j], group[i]
            group = {s: new if g == old else g for s, g in group.items()}
    members = {}
    for i, g in group.items():
        members.setdefault(g, []).append(i)
    if any(len(set(map(sum, zip(*(cols[i] for i in G))))) > 1 for G in members.values()):
        return None
    total = {g: sum(cols[i][0] for i in G) for g, G in members.items()}
    r = sum(len(G) - 1 for G in members.values()) - face_dim
    sign = {}  # each facet of the relation's pairs -> the sign of y_G in it
    if r == 1:
        pairs = [G for G in members.values() if len(G) == 2]
        rows = [[cols[i][v] - cols[i][0] for i, _ in pairs] for v in range(1, len(face))]
        reduced, pivots, _, _ = lattice.bareiss_reduce(rows, len(pairs))
        free = [c for c in range(len(pairs)) if c not in pivots]
        if len(free) != 1:
            return None
        kernel = {p: -e[free[0]] for e, p in zip(reduced, pivots)}
        kernel[free[0]] = reduced[0][pivots[0]]
        if len({abs(x) for x in kernel.values() if x}) != 1:
            return None
        for c, x in kernel.items():
            if x:
                sign[pairs[c][0]], sign[pairs[c][1]] = (1, -1) if x > 0 else (-1, 1)
    elif r:
        return None
    draws = sum(cols[i][0] for i, s in sign.items() if s > 0)
    population = sum(total[group[i]] for i, s in sign.items() if s > 0)  # N at k = 1
    mean_t = {i: Fraction(col[0]) for i, col in enumerate(cols)}  # E t_i / k
    lin, hyp = {}, {}  # Cov(t_i, t_j) over k, and over k^2 / (N - 1)
    for g, G in members.items():
        for i, j in itertools.product(G, repeat=2):
            if i not in sign:
                mean_t[i] = Fraction(total[g], len(G))
                lin[i, j] = Fraction(total[g] * (len(G) * (i == j) - 1), len(G) ** 2)
    for i, j in itertools.product(sign, repeat=2):
        T = total[group[i]]
        y = Fraction(draws * T, population)
        mean_t[i] = y if sign[i] > 0 else T - y
        c = (population * (group[i] == group[j]) - total[group[j]]) * sign[i] * sign[j]
        hyp[i, j] = Fraction(draws * (population - draws) * T * c, population ** 2)

    def form(cov):  # sum of cov[s, q] u_s u_q^T over the frame's facets s, q
        terms = [(c, dirs[s], dirs[q]) for (s, q), c in cov.items() if s in dirs and q in dirs]
        return tuple(tuple(sum((c * u[j] * w[l] for c, u, w in terms), Fraction(0))
                           for l in range(n)) for j in range(n))

    mean = [sum(((mean_t[s] - P.offsets[s]) * u[j] for s, u in dirs.items()), Fraction(0))
            for j in range(n)]
    groups = tuple((total[g], len(G)) for g, G in members.items() if G[0] not in sign)
    relation = (draws, tuple(total[group[i]] for i, s in sign.items() if s > 0)) if sign else None
    return groups, relation, tuple(mean), form(lin), form(hyp) if sign else None


def dilation_moments(P, k):
    """Exact mean and covariance of mu_measure(dilate(P, k)), with Fraction
    entries.

    Where _face_law describes the max face of P (every fixture, for one:
    a product of simplices, or the hexagon's three complementary facet
    pairs bound by one relation), in closed form, in O(1) per call once the
    scale-free law of P is cached: multinomial classes, and a multivariate
    hypergeometric on the relation's pairs whose points are counted by
    inclusion-exclusion over the bounds y_G <= N_G.  Otherwise one pass of
    _moments over the _row_sums of the dilation, the reference the law is
    tested against; large dilations stay exact without a stored measure.
    """
    require_count(k, 1, "dilation factor")
    law = _face_law(P)
    if law is None:
        return _moments(_row_sums(lattice.dilate(P, k)), P.dim)
    groups, relation, mean, lin, hyp = law
    count = math.prod(math.comb(k * T + size - 1, size - 1) for T, size in groups)
    cov = tuple(tuple(k * x for x in row) for row in lin)
    if relation is not None:
        draws, sizes = relation
        m, ways = len(sizes), 0
        for subset in itertools.product((0, 1), repeat=m):
            rest = k * draws - sum(k * T + 1 for T, x in zip(sizes, subset) if x)
            if rest >= 0:
                ways += (-1) ** sum(subset) * math.comb(rest + m - 1, m - 1)
        count *= ways
        scale = Fraction(k * k, k * sum(sizes) - 1)
        cov = tuple(tuple(x + scale * y for x, y in zip(*rows)) for rows in zip(cov, hyp))
    return MomentData(count, tuple(k * x for x in mean), cov)


def potential(P, m):
    """prod_i t_i(m)^{t_i(m)} over every facet, with 0^0 = 1.

    P must be nonempty, and m must have one real coordinate per dimension (a
    bool is not one), each within the float range, and lie in P: every slack,
    including those of facets whose slack vanishes on all of P, nonnegative
    up to float noise, and not NaN.  InvalidInputError otherwise;
    PreconditionError when the value exceeds the float range.
    """
    point = _real_point(m)
    try:
        m = [float(x) for x in point]
    except (TypeError, OverflowError):  # point is None, or an entry is beyond the float range
        raise InvalidInputError(
            "point must be a sequence of real numbers within the float range, got %r" % (m,)
        ) from None
    if len(m) != P.dim:
        raise InvalidInputError(
            "point has %d coordinates, polytope has dimension %d" % (len(m), P.dim)
        )
    lattice.require_nonempty(P)
    total = 0.0
    for i, (v, a) in enumerate(zip(P.normals, P.offsets)):
        t = sum(map(operator.mul, m, v)) + a
        if not t >= -1e-9:  # NaN too: an infinite coordinate makes some slack -inf or NaN
            raise InvalidInputError("point lies outside the polytope (slack %d = %g)" % (i, t))
        if t > 0:
            total += t * math.log(t)
    try:
        return math.exp(total)
    except OverflowError:
        raise PreconditionError(
            "the potential exceeds the float range (log-potential %r)" % total
        ) from None


def _fma(x, y, z):
    """x * y + z for floats, rounded once, as a fused multiply-add rounds it
    (math.fma exists only from Python 3.13): the exact value over the floats'
    integer ratios, then one correctly rounded int division."""
    (a, b), (c, d), (e, f) = x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()
    return (a * c * f + e * b * d) / (b * d * f)


def _dot(xs, ys):
    """sum_i x_i y_i as one chain of _fma in index order from 0.0: how the
    dot and matrix-product kernels of OpenBLAS 0.3.31 (Haswell) round
    vectors of up to 15 entries."""
    acc = 0.0
    for x, y in zip(xs, ys):
        acc = _fma(x, y, acc)
    return acc


def _norm(xs):
    """Euclidean norm: the square root of _dot(xs, xs)."""
    return math.sqrt(_dot(xs, xs))


def _running_sum(xs):
    """Left-to-right float sum, one rounding per term (the builtin sum
    compensates float sums from Python 3.12 on)."""
    acc = 0.0
    for x in xs:
        acc += x
    return acc


def _solve(matrix, b):
    """The solution x of matrix x = b, solved exactly and rounded once per
    entry.  The floats' integer ratios, scaled to one common denominator,
    go to lattice.bareiss_reduce; its reduced rows carry d x at the pivots,
    and each x_p = (d x_p) / d is one correctly rounded int division.
    matrix is symmetric positive definite, as every Hessian here is, so it
    has full rank."""
    n = len(matrix)
    ratios = [[x.as_integer_ratio() for x in row] + [y.as_integer_ratio()]
              for row, y in zip(matrix, b)]
    den = math.lcm(*(q for row in ratios for _, q in row))
    rows = [[p * (den // q) for p, q in row] for row in ratios]
    reduced, pivots, _, _ = lattice.bareiss_reduce(rows, n)
    x = [0.0] * n
    for e, p in zip(reduced, pivots):
        x[p] = e[n] / e[p]
    return x


def _slacks(vs, a, u):
    """t_i = <v_i, u> + a_i, each dot product rounded by _dot before its
    offset is added."""
    return [_dot(v, u) + c for v, c in zip(vs, a)]


def _hessian(vs, t):
    """sum_i v_i v_i^T / t_i: entry (j, l) is the _dot of column j of vs
    with column l of the rows v_i / t_i, each quotient rounded first."""
    scaled = list(zip(*([x / s for x in v] for v, s in zip(vs, t))))
    return [[_dot(col, other) for other in scaled] for col in zip(*vs)]


def minimize_potential(P):
    """Interior minimizer of prod_i t_i(u)^{t_i(u)} by damped Newton steps.

    Needs a bounded, full-dimensional polytope with balanced normals; then
    the log-potential is strictly convex with a unique interior critical
    point.  Steps are clipped short of the boundary and backtracked until
    the Armijo condition holds, unless the Newton decrement -<g, step> is
    below the rounding of the log-potential (_DECREMENT_FLOOR): there the
    iterate is at the minimizer up to that rounding, the Armijo test would
    compare noise, and the whole step is taken, which converges
    quadratically from there.  The start is the vertex mean (a running
    sum over the vertices, divided by their count); each step solves its
    Newton system exactly, by _solve.
    """
    if not lattice.require_nonempty(P).geometry.full_dimensional:
        raise PreconditionError("potential minimization needs a full-dimensional polytope")
    lattice.require_radially_symmetric(P)
    vs = [[float(x) for x in v] for v in P.normals]
    cols = list(zip(*vs))
    a = [float(x) for x in P.offsets]
    verts = lattice.vertex_points(P)
    u = [_running_sum(map(float, col)) / len(verts) for col in zip(*verts)]
    for _ in range(_NEWTON_STEPS):
        t = _slacks(vs, a, u)
        if any(x <= 0 for x in t):
            raise ConvergenceError("iterate left the interior")
        logs = [math.log(x) for x in t]
        dfdt = [x + 1.0 for x in logs]  # d(t log t)/dt
        g = [_dot(col, dfdt) for col in cols]
        if _norm(g) <= _NEWTON_TOL:
            return tuple(u)
        step = _solve(_hessian(vs, t), [-x for x in g])
        dt = [_dot(v, step) for v in vs]
        alpha = 1.0
        limits = [-x / d for x, d in zip(t, dt) if d < 0]
        if limits:
            alpha = min(1.0, 0.95 * min(limits))
        terms = list(map(operator.mul, t, logs))
        f0 = _running_sum(terms)
        slope = _dot(g, step)
        if -slope <= _DECREMENT_FLOOR * _running_sum(map(abs, terms)):
            u = [x + alpha * s for x, s in zip(u, step)]
            continue
        while alpha > 1e-14:
            trial = [x + alpha * s for x, s in zip(u, step)]
            t_new = _slacks(vs, a, trial)
            if all(x > 0 for x in t_new):
                f_new = _running_sum(x * math.log(x) for x in t_new)
                if f_new <= f0 + 1e-4 * alpha * slope:
                    break
            alpha *= 0.5
        else:
            raise ConvergenceError("line search stalled")
        u = trial
    raise ConvergenceError("Newton iteration did not reach tolerance %g" % _NEWTON_TOL)


@dataclass(frozen=True)
class GaussianModel:
    """Limit Gaussian of the rescaled dilation measures.

    minimizer is the potential minimizer m; precision is the Hessian
    sum over active facets of v_i v_i^T / t_i(m); covariance is its inverse,
    the k -> infinity limit of Cov(mu_{kP}) / k.  support_basis spans the
    differences of vertices; active_set lists the contributing facets.
    """

    minimizer: tuple
    precision: tuple
    covariance: tuple
    support_basis: tuple
    active_set: tuple


def gaussian_model(P):
    u = minimize_potential(P)  # full-dimensional P: every facet is active
    vs = [[float(x) for x in v] for v in P.normals]
    precision = _hessian(vs, _slacks(vs, [float(x) for x in P.offsets], u))
    # the exact inverse of the float precision matrix, one column per unit
    # vector, rounded once per entry: symmetric as the precision is
    n = len(u)
    columns = [_solve(precision, [float(i == j) for i in range(n)]) for j in range(n)]
    return GaussianModel(
        minimizer=u,
        precision=tuple(map(tuple, precision)),
        covariance=tuple(zip(*columns)),
        support_basis=P.geometry.support_basis,
        active_set=P.geometry.active_facets,
    )


def convergence_report(P, k_values):
    """Scaled-moment errors of the dilation measures against the Gaussian.

    For each k reports || mean/k - m ||_2 and || cov/k - Sigma ||_F together
    with the relative Frobenius error; both errors decay like 1/k.
    k_values must be an iterable of positive ints.
    """
    try:
        k_values = [require_count(k, 1, "dilation factor") for k in k_values]
    except TypeError:
        raise InvalidInputError("k_values must be an iterable of positive integers") from None
    model = gaussian_model(P)
    sigma = [x for row in model.covariance for x in row]
    sigma_norm = _norm(sigma)
    rows = []
    for k in k_values:
        data = dilation_moments(P, k)
        mean_scaled = [x / k for x in data.mean_floats()]
        cov_scaled = [[x / k for x in r] for r in data.covariance_floats()]
        mean_err = _norm([x - m for x, m in zip(mean_scaled, model.minimizer)])
        cov_err = _norm([x - s for x, s in zip(itertools.chain(*cov_scaled), sigma)])
        rows.append(
            {
                "k": k,
                "points": data.point_count,
                "mean_scaled": mean_scaled,
                "cov_scaled": cov_scaled,
                "mean_err": mean_err,
                "cov_err": cov_err,
                "cov_rel_err": cov_err / sigma_norm if sigma_norm else cov_err,
            }
        )
    return {"model": model, "rows": rows}
