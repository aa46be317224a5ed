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
        point = _real_point(u)
        if point is None:
            raise InvalidInputError("%r is not a sequence of real numbers" % (u,))
        if len(point) != self.dim():
            raise InvalidInputError("u has %d coordinates, the measure %d" % (len(point), self.dim()))
        return self.atoms.get(_lattice_point(point), Fraction(0))

    def dim(self):
        return len(next(iter(self.atoms)))

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
        if other.dim() != self.dim():
            raise InvalidInputError("cannot convolve dimensions %d and %d" % (self.dim(), other.dim()))
        out = {}
        for u, w in self.atoms.items():
            for v, z in other.atoms.items():
                key = tuple(a + b for a, b in zip(u, v))
                out[key] = out.get(key, Fraction(0)) + w * z
        return DiscreteMeasure(out)

    def characteristic_function(self, x):
        """E[exp(i <x, u>)] at a real vector x."""
        if len(x) != self.dim():
            raise InvalidInputError("x has %d coordinates, the measure %d" % (len(x), self.dim()))
        out = 0j
        for u in sorted(self.atoms):
            phase = sum(float(a) * b for a, b in zip(x, u))
            out += float(self.atoms[u]) * cmath.exp(1j * phase)
        return out

    def total_variation(self, other):
        if other.dim() != self.dim():
            raise InvalidInputError("cannot compare dimensions %d and %d" % (self.dim(), other.dim()))
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


def max_face_value(P):
    """Largest slack sum over the polytope; attained on a face."""
    points = lattice.vertex_points(lattice.require_nonempty(P))
    v_delta = P.normal_sum()
    return max(sum(a * b for a, b in zip(p, v_delta)) for p in points) + P.offset_sum()


def _face_rows(P):
    """Yield (prefix, lo, hi, slacks at lo) for each row of the max face;
    PreconditionError after the last row when no lattice point lies on it.

    Read from lattice.rows_with_slacks: along a row the slack sum grows by
    sigma = sum_i d_i per unit step, d_i the last entry of normal i.  With
    sigma = 0 a row lies wholly on the face or off it; otherwise it meets the
    face in at most the one point where the slack sum reaches the target.
    """
    target = max_face_value(P)
    deltas = [v[-1] for v in P.normals]
    sigma = sum(deltas)
    empty = True
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
        empty = False
        yield prefix, lo, hi, slacks
    if empty:
        raise PreconditionError("no lattice points on the maximal face")


def _carried(value, old, new):
    """value * F(new) / F(old), for F(ups, downs, e) = 2**e prod_{x in ups} x!
    / prod_{y in downs} y! an integer at both argument lists.

    An argument that moves from x to y takes y! / x! = math.perm(y, y - x)
    into the numerator or the denominator.  Between neighbouring face rows
    the arguments move by little, so these products stay small and the
    carried value costs one big multiply and one exact division.  old None
    starts from F = 1 at all-zero arguments.
    """
    ups, downs, e = new
    if old is None:
        old = ((0,) * len(ups), (0,) * len(downs), 0)
    old_ups, old_downs, old_e = old
    num = den = 1
    # each pair (x, y) contributes y! / x!
    for x, y in zip(old_ups + downs, ups + old_downs):
        if y > x:
            num *= math.perm(y, y - x)
        elif x > y:
            den *= math.perm(x, x - y)
    if e > old_e:
        num <<= e - old_e
    elif old_e > e:
        den <<= old_e - e
    return value * num // den


def _weight_rows(P):
    """Yield (prefix, lo, weights) for each row of the max face.

    weights[m] is the multinomial coefficient target! / prod_i t_i! of the
    slacks t at prefix + (lo + m,).  Each row's first weight is carried from
    the last row's by _carried.  A unit step moves slack i from t_i to
    t_i + d_i, which multiplies the weight by prod_i t_i! / (t_i + d_i)!: the
    falling slacks over the rising ones, by math.perm only where |d_i| >= 2.
    Only one row of weights is held at a time.  PreconditionError when no
    lattice point lies on the face.
    """
    deltas = [v[-1] for v in P.normals]
    moving = [(i, d) for i, d in enumerate(deltas) if d]
    first, args = 1, None
    for prefix, lo, hi, slacks in _face_rows(P):
        new = ((sum(slacks),), slacks, 0)
        first, args = _carried(first, args, new), new
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


def _walk_sums(weights):
    """(sum w, sum m w, sum m^2 w) over the row weights[m].

    Three running sums a += w, b += a, c += b take additions only; with
    L = len(weights) they give

        sum w = a,  sum m w = L a - b,  sum m^2 w = L^2 a - 2 L b + (2 c - b).
    """
    a = b = c = 0
    for w in weights:
        a += w
        b += a
        c += b
    size = len(weights)
    return a, size * a - b, size * (size * a - 2 * b) + 2 * c - b


def _row_sums(P):
    """Yield (prefix, lo, size, sum w, sum m w, sum m^2 w) for each row of the
    max face, w the weight at prefix + (lo + m,) as in _weight_rows.

    Closed forms apply when every d_i is -1, 0 or 1, with one or two rising
    (+1) slacks and as many falling (-1) ones.  Pair rising slack a_p with
    falling slack c_p (values at lo); N_p = a_p + c_p stays fixed along the
    row, as do the other slacks s and the face value T.  The weight at m is
    T! / (prod s! prod N_p!) times prod_p C(N_p, a_p + m), and
    rows_with_slacks ends the row where the smallest rising slack and the
    smallest falling slack reach 0, so the row covers every nonzero term.
    With j = a_1 + m:

        one pair:   sum_j C(N, j) = 2^N                       (binomial theorem)
        two pairs:  sum_j C(N_1, j) C(N_2, K - j) = C(N_1 + N_2, K),
                    K = a_1 + c_2                             (Chu-Vandermonde)

    Absorption, j C(N, j) = N C(N - 1, j - 1), turns sum w into sum j w and
    sum j (j - 1) w by the factors N / 2, then (N - 1) / 2 for one pair, and
    N_1 K / (N_1 + N_2), then (N_1 - 1)(K - 1) / (N_1 + N_2 - 1) for two;
    m = j - a_1 gives the sums in m.  Each row's sum w is carried from the
    last row's by _carried.  Other normals take the _weight_rows walk.
    """
    deltas = [v[-1] for v in P.normals]
    rising = [i for i, d in enumerate(deltas) if d == 1]
    falling = [i for i, d in enumerate(deltas) if d == -1]
    fixed = [i for i, d in enumerate(deltas) if d == 0]
    pairs = len(rising)
    if pairs != len(falling) or pairs not in (1, 2) or len(fixed) + 2 * pairs != len(deltas):
        for prefix, lo, weights in _weight_rows(P):
            yield (prefix, lo, len(weights)) + _walk_sums(weights)
        return
    total, args = 1, None
    for prefix, lo, hi, slacks in _face_rows(P):
        a1, c1 = slacks[rising[0]], slacks[falling[0]]
        n1 = a1 + c1
        rest = tuple(slacks[i] for i in fixed)
        if pairs == 1:
            new = ((sum(slacks),), rest + (n1,), n1)
        else:
            c2 = slacks[falling[1]]
            n, k = n1 + slacks[rising[1]] + c2, a1 + c2
            new = ((sum(slacks), n), rest + (n1, n - n1, k, n - k), 0)
        total, args = _carried(total, args, new), new
        if hi == lo:
            yield prefix, lo, 1, total, 0, 0
            continue
        if pairs == 1:
            j1 = total * n1 // 2
            j2 = j1 * (n1 - 1) // 2
        else:
            j1 = total * (n1 * k) // n
            j2 = j1 * ((n1 - 1) * (k - 1)) // (n - 1)
        yield (prefix, lo, hi - lo + 1, total, j1 - a1 * total,
               j2 + (1 - 2 * a1) * j1 + a1 * a1 * total)


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
def _simplex_product(P):
    """(groups, mean, covariance) when the max face F of P is a product of
    simplices, else None (so also for an empty or a non-smooth P).

    groups lists (T_G, |G|) per group G below; mean and covariance are those
    of mu_measure(P) as Fractions, and those of mu_measure(dilate(P, k)) are
    k times them.  The test is scale-free, so it runs once per polytope, on
    P: a dilation by k scales every slack of F's vertices by k.

    F's vertices are those p of P with the largest <sigma, p>, sigma the
    normal sum.  A facet is moving if its slack differs between them, else
    constant on F.  Moving facets i != j are exchangeable if an integer d
    has <v_l, d> = [l = i] - [l = j] for every facet l: a step by d moves one
    unit of slack from j to i and keeps every other slack.  P is smooth, so
    the n facets of one vertex have dual integer edge directions u_s, and
    d = sum_s ([s = i] - [s = j]) u_s is the only candidate; it counts when
    all the equations hold.  The groups G are the connected components of
    the moving facets under exchange, and F is taken to be a product of
    simplices when sum_G (|G| - 1) = dim F, the rank of the differences of
    its vertices.  Then, on kF:

    - The exchanges span F's directions.  Each keeps every constant slack,
      so it lies in the direction space of F (cut out by the facets tight on
      F).  Within a group the exchanges of a spanning tree take independent
      slack steps e_i - e_j, no two groups share one, and u -> t(u) is
      injective (the normals span), so they span sum_G (|G| - 1) = dim F
      dimensions.
    - So the slack sum over each group is constant on F: k T_G, T_G its
      value at a vertex of F; constant facets have slack k c_s.
    - So the slack vector of every lattice point of kF lies in the product
      of simplices {t_G >= 0, sum_{i in G} t_i = k T_G}.
    - Every point of that product is reached: integer exchanges from k
      times a vertex of F (a lattice point, P being smooth) give any such
      slack vector, whose entries are all nonnegative, so the point lies in
      kP, and at the largest slack sum, so in kF.
    - The slacks determine the point, since the normals span.

    So the weight m! / prod_i t_i! of mu_measure(kP) is a constant times one
    multinomial (k T_G)! / prod_{i in G} t_i! per group: the groups are
    independent and uniform multinomial, with E t_i = k T_G / |G| and
    Cov(t_i, t_j) = (k T_G / |G|) ([i = j] - 1 / |G|), and the face has
    prod_G C(k T_G + |G| - 1, |G| - 1) points.  A point is
    u = sum_s (t_s - k a_s) u_s over one vertex's facets s, so its mean and
    covariance are linear in k too.
    """
    geo = P.geometry
    if not geo.solutions or not geo.smooth:
        return None
    n = P.dim
    sigma = P.normal_sum()
    points = lattice.vertex_points(P)
    values = [sum(map(operator.mul, sigma, p)) for p in points]
    face = [p for p, x in zip(points, values) if x == max(values)]
    diffs = [[x - y for x, y in zip(p, face[0])] for p in face[1:]]
    face_dim = len(lattice.bareiss_reduce(diffs, n)[1])
    slacks = P.slacks(face[0])
    moving = [i for i, col in enumerate(zip(*map(P.slacks, face))) if len(set(col)) > 1]
    frame = geo.vertices[0]
    dirs = dict(zip(frame.facet_set, frame.edge_dirs))
    zero = (0,) * n
    group = {i: i for i in moving}  # one label per group
    for i, j in itertools.combinations(moving, 2):
        d = tuple(map(operator.sub, dirs.get(i, zero), dirs.get(j, zero)))
        if all(sum(map(operator.mul, v, d)) == (l == i) - (l == j)
               for l, v in enumerate(P.normals)):
            old, new = group[j], group[i]
            group = {s: new if g == old else g for s, g in group.items()}
    members = {}
    for i, g in group.items():
        members.setdefault(g, []).append(i)
    if sum(len(G) - 1 for G in members.values()) != face_dim:
        return None
    sums = {g: (sum(slacks[i] for i in G), len(G)) for g, G in members.items()}
    # u = sum_s (t_s - a_s) u_s at k = 1, over the frame's facets s
    mean = [Fraction(0)] * n
    cov = [[Fraction(0)] * n for _ in range(n)]
    for s, u in dirs.items():
        if s not in group:
            shift = Fraction(slacks[s] - P.offsets[s])
        else:
            T, size = sums[group[s]]
            shift = Fraction(T, size) - P.offsets[s]
            for r, w in dirs.items():
                if group.get(r) == group[s]:
                    c = Fraction(T * (size * (s == r) - 1), size * size)
                    for j in range(n):
                        for l in range(n):
                            cov[j][l] += c * u[j] * w[l]
        for j in range(n):
            mean[j] += shift * u[j]
    return tuple(sums.values()), tuple(mean), tuple(map(tuple, cov))


def dilation_moments(P, k):
    """Exact mean and covariance of mu_measure(dilate(P, k)), with Fraction
    entries.

    When the max face of P is a product of simplices (_simplex_product: the
    simplices, the squares, the segments and trapezoid_f1 among the
    fixtures), in closed form: k times the moments at k = 1 and the
    product of one binomial coefficient per group for the point count, in
    O(1) per call once the scale-free test on P is cached.  Otherwise one
    pass of _moments over the _row_sums of the dilation: a closed form per
    face row where the normals allow one, else the row's weight walk.
    Large dilations stay exact without a stored measure, and on the row
    closed forms without a weight per point.
    """
    require_count(k, 1, "dilation factor")
    face = _simplex_product(P)
    if face is None:
        return _moments(_row_sums(lattice.dilate(P, k)), P.dim)
    groups, mean, cov = face
    return MomentData(
        math.prod(math.comb(k * T + size - 1, size - 1) for T, size in groups),
        tuple(k * x for x in mean),
        tuple(tuple(k * x for x in row) for row in cov),
    )


def potential(P, m):
    """prod_i t_i(m)^{t_i(m)} over every facet, with 0^0 = 1.

    P must be nonempty, and m must have one coordinate per dimension and lie
    in P: every slack, including those of facets whose slack vanishes on all
    of P, nonnegative up to float noise.  PreconditionError when the value
    exceeds the float range.
    """
    if len(m) != P.dim:
        raise InvalidInputError(
            "point has %d coordinates, polytope has dimension %d" % (len(m), P.dim)
        )
    lattice.require_nonempty(P)
    total = 0.0
    for i, (v, a) in enumerate(zip(P.normals, P.offsets)):
        t = float(sum(float(x) * b for x, b in zip(m, v)) + a)
        if t < -1e-9:
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
        k_values = [require_count(k, 1, "dilation k") for k in k_values]
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
