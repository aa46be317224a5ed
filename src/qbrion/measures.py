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
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lattice
from .errors import (
    ConvergenceError,
    EmptyPolytopeError,
    InvalidInputError,
    PreconditionError,
)


def _as_point(u):
    return tuple(int(x) for x in u)


class DiscreteMeasure:
    """Finitely supported probability measure on lattice points.

    Weights are exact rationals and are normalized at construction; zero
    weights are dropped.
    """

    def __init__(self, weights):
        total = Fraction(0)
        cleaned = {}
        for u, w in weights.items():
            w = Fraction(w)
            if w < 0:
                raise InvalidInputError("negative weight at %r" % (u,))
            if w == 0:
                continue
            key = _as_point(u)
            cleaned[key] = cleaned.get(key, Fraction(0)) + w
            total += w
        if total == 0:
            raise InvalidInputError("measure needs positive total mass")
        self.atoms = {u: w / total for u, w in cleaned.items()}

    def support(self):
        return sorted(self.atoms)

    def weight(self, u):
        return self.atoms.get(_as_point(u), Fraction(0))

    def dim(self):
        return len(next(iter(self.atoms)))

    def mean(self):
        return _moments(self.atoms.items(), self.dim()).mean

    def covariance(self):
        return _moments(self.atoms.items(), self.dim()).covariance

    def convolve(self, other):
        out = {}
        for u, w in self.atoms.items():
            for v, z in other.atoms.items():
                key = tuple(a + b for a, b in zip(u, v))
                out[key] = out.get(key, Fraction(0)) + w * z
        return DiscreteMeasure(out)

    def characteristic_function(self, x):
        """E[exp(i <x, u>)] at a real vector x."""
        out = 0j
        for u in sorted(self.atoms):
            phase = sum(float(a) * b for a, b in zip(x, u))
            out += float(self.atoms[u]) * cmath.exp(1j * phase)
        return out

    def total_variation(self, other):
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


def _multinomial(total, parts):
    out = math.factorial(total)
    for s in parts:
        out //= math.factorial(s)
    return out


def max_face_value(P):
    """Largest slack sum over the polytope; attained on a face."""
    points = lattice.vertex_points(P)
    if not points:
        raise EmptyPolytopeError("the half-space intersection is empty")
    v_delta = P.normal_sum()
    return max(sum(a * b for a, b in zip(p, v_delta)) for p in points) + P.offset_sum()


def max_face_points(P):
    """Lattice points whose slack sum is maximal, with their slacks."""
    target = max_face_value(P)
    out = []
    for point, slacks in lattice.points_with_slacks(P):
        if sum(slacks) == target:
            out.append((point, slacks))
    return out


def _face_weights(P):
    """Yield (point, multinomial coefficient of its slacks) on the max face.

    Points come in points_with_slacks order.  Each row starts from one
    multinomial; a unit step along the last coordinate moves slack i from
    t_i - d_i to t_i, d_i the last entry of normal i, which multiplies the
    weight by prod_i (t_i - d_i)! / t_i!.  A break in the row or in the face
    restarts the walk.  PreconditionError when no lattice point lies on the
    face.
    """
    target = max_face_value(P)
    deltas = [v[-1] for v in P.normals]
    prev = w = None
    for point, slacks in lattice.points_with_slacks(P):
        if sum(slacks) != target:
            continue
        if prev is not None and point[:-1] == prev[:-1] and point[-1] == prev[-1] + 1:
            num = den = 1
            for t, d in zip(slacks, deltas):
                if d > 0:
                    den *= math.perm(t, d)
                elif d < 0:
                    num *= math.perm(t - d, -d)
            w = w * num // den
        else:
            w = _multinomial(target, slacks)
        yield point, w
        prev = point
    if w is None:
        raise PreconditionError("no lattice points on the maximal face")


def mu_measure(P):
    """The multinomial limit measure of the polytope.

    Supported on the maximal-slack-sum face; the weight of u is the
    multinomial coefficient of its slack vector, walked along each row of
    the face by _face_weights.  When the normals sum to zero the support is
    every lattice point.
    """
    return DiscreteMeasure(dict(_face_weights(P)))


def mu_limit_estimate(P, q):
    """Normalized q-weights w_q(u) proportional to prod_i 1 / (q;q)_{t_i(u)}.

    q must be a rational in (0, 1); everything is exact.  As q -> 1- the
    result converges to mu_measure(P) in total variation.
    """
    q = Fraction(q)
    if not 0 < q < 1:
        raise InvalidInputError("q must lie strictly between 0 and 1")
    poch_cache = [Fraction(1)]

    def poch(s):
        while len(poch_cache) <= s:
            j = len(poch_cache)
            poch_cache.append(poch_cache[-1] * (1 - q ** j))
        return poch_cache[s]

    weights = {}
    for point, slacks in lattice.points_with_slacks(P):
        w = Fraction(1)
        for s in slacks:
            w /= poch(s)
        weights[point] = w
    if not weights:
        raise PreconditionError("empty polytope has no limit measure")
    return DiscreteMeasure(weights)


def log_weight_table(P, q):
    """Float log-domain q-weights, normalized to sum to one.

    Slacks are summed in sorted order so that points with equal slack
    multisets (for instance mirror images under a central symmetry) get
    bitwise identical weights.
    """
    if not 0.0 < q < 1.0:
        raise InvalidInputError("q must lie strictly between 0 and 1")
    prefix = [0.0]

    def log_poch(s):
        while len(prefix) <= s:
            j = len(prefix)
            prefix.append(prefix[-1] + math.log1p(-(q ** j)))
        return prefix[s]

    rows = []
    for point, slacks in lattice.points_with_slacks(P):
        logw = -sum(log_poch(s) for s in sorted(slacks))
        rows.append((point, logw))
    if not rows:
        raise PreconditionError("empty polytope has no weight table")
    top = max(logw for _, logw in rows)
    expd = [(point, math.exp(logw - top)) for point, logw in rows]
    norm = math.fsum(w for _, w in expd)
    return [(point, w / norm) for point, w in expd]


@dataclass(frozen=True)
class MomentData:
    point_count: int
    mean: tuple
    covariance: tuple

    def mean_floats(self):
        return [float(x) for x in self.mean]

    def covariance_floats(self):
        return [[float(x) for x in row] for row in self.covariance]


def _moments(weighted, n):
    """Exact moments of the (point, weight) pairs, normalized by their total.

    One pass sums w, w u and w u u^T; the divisions come once at the end.
    """
    count = 0
    s0 = 0
    s1 = [0] * n
    s2 = [[0] * n for _ in range(n)]
    for u, w in weighted:
        count += 1
        s0 += w
        for j in range(n):
            wj = w * u[j]
            s1[j] += wj
            for l in range(j, n):
                s2[j][l] += wj * u[l]
    mean = tuple(Fraction(s1[j], s0) for j in range(n))
    cov = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for l in range(j, n):
            cov[j][l] = Fraction(s2[j][l], s0) - mean[j] * mean[l]
            cov[l][j] = cov[j][l]
    return MomentData(count, mean, tuple(tuple(row) for row in cov))


def dilation_moments(P, k):
    """Exact mean and covariance of mu_measure(dilate(P, k)).

    One pass of _moments over the _face_weights walk of the dilation, so
    large dilations stay exact without a factorial per point or a stored
    measure.
    """
    return _moments(_face_weights(lattice.dilate(P, k)), P.dim)


def active_facets(P):
    """Facet indices whose slack is not identically zero on the polytope.

    A slack vanishes identically iff it vanishes at every basic feasible
    point, by convexity.
    """
    if not P.geometry.points:
        raise PreconditionError("empty polytope has no active facets")
    return P.geometry.active_facets


def potential(P, m):
    """prod_i t_i(m)^{t_i(m)} over the active facets, with 0^0 = 1.

    m must have one coordinate per dimension and lie in the polytope (all
    slacks nonnegative up to float noise).
    """
    if len(m) != P.dim:
        raise InvalidInputError(
            "point has %d coordinates, polytope has dimension %d" % (len(m), P.dim)
        )
    active = set(active_facets(P))
    total = 0.0
    for i, v in enumerate(P.normals):
        if i not in active:
            continue
        t = float(sum(float(a) * b for a, b in zip(m, v)) + P.offsets[i])
        if t < -1e-9:
            raise InvalidInputError("point lies outside the polytope (slack %d = %g)" % (i, t))
        if t > 0:
            total += t * math.log(t)
    return math.exp(total)


def minimize_potential(P, tol=1e-10, max_iter=200):
    """Interior minimizer of prod_i t_i(u)^{t_i(u)} by damped Newton steps.

    Needs a bounded, full-dimensional polytope with balanced normals; then
    the log-potential is strictly convex with a unique interior critical
    point.  Steps are clipped short of the boundary and backtracked until
    the Armijo condition holds.
    """
    report = lattice.validate(P)
    if not report.full_dimensional:
        raise PreconditionError("potential minimization needs a full-dimensional polytope")
    lattice.require_radially_symmetric(P)
    vs = np.array(P.normals, dtype=float)
    a = np.array(P.offsets, dtype=float)
    verts = np.array(lattice.vertex_points(P), dtype=float)
    u = verts.mean(axis=0)
    for _ in range(max_iter):
        t = vs @ u + a
        if np.any(t <= 0):
            raise ConvergenceError("iterate left the interior")
        g = vs.T @ (np.log(t) + 1.0)
        if float(np.linalg.norm(g)) <= tol:
            return tuple(float(x) for x in u)
        H = vs.T @ (vs / t[:, None])
        step = np.linalg.solve(H, -g)
        dt = vs @ step
        alpha = 1.0
        shrinking = dt < 0
        if shrinking.any():
            alpha = min(1.0, 0.95 * float(np.min(-t[shrinking] / dt[shrinking])))
        f0 = float(np.sum(t * np.log(t)))
        slope = float(g @ step)
        while alpha > 1e-14:
            t_new = vs @ (u + alpha * step) + a
            if np.all(t_new > 0):
                f_new = float(np.sum(t_new * np.log(t_new)))
                if f_new <= f0 + 1e-4 * alpha * slope:
                    break
            alpha *= 0.5
        else:
            raise ConvergenceError("line search stalled")
        u = u + alpha * step
    raise ConvergenceError("Newton iteration did not reach tolerance %g" % tol)


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

    def minimizer_array(self):
        return np.array(self.minimizer, dtype=float)

    def covariance_array(self):
        return np.array(self.covariance, dtype=float)

    def precision_array(self):
        return np.array(self.precision, dtype=float)


def gaussian_model(P, tol=1e-10):
    u = minimize_potential(P, tol=tol)
    active = active_facets(P)
    vs = np.array([P.normals[i] for i in active], dtype=float)
    a = np.array([P.offsets[i] for i in active], dtype=float)
    t = vs @ u + a
    precision = vs.T @ (vs / t[:, None])
    covariance = np.linalg.inv(precision)
    return GaussianModel(
        minimizer=tuple(float(x) for x in u),
        precision=tuple(tuple(float(x) for x in row) for row in precision),
        covariance=tuple(tuple(float(x) for x in row) for row in covariance),
        support_basis=P.geometry.support_basis,
        active_set=active,
    )


def convergence_report(P, k_values, tol=1e-10):
    """Scaled-moment errors of the dilation measures against the Gaussian.

    For each k reports || mean/k - m ||_2 and || cov/k - Sigma ||_F together
    with the relative Frobenius error; both errors decay like 1/k.
    """
    model = gaussian_model(P, tol=tol)
    m = model.minimizer_array()
    sigma = model.covariance_array()
    sigma_norm = float(np.linalg.norm(sigma))
    rows = []
    for k in k_values:
        data = dilation_moments(P, k)
        mean_scaled = np.array(data.mean_floats()) / k
        cov_scaled = np.array(data.covariance_floats()) / k
        mean_err = float(np.linalg.norm(mean_scaled - m))
        cov_err = float(np.linalg.norm(cov_scaled - sigma))
        rows.append(
            {
                "k": k,
                "points": data.point_count,
                "mean_scaled": [float(x) for x in mean_scaled],
                "cov_scaled": [[float(x) for x in r] for r in cov_scaled],
                "mean_err": mean_err,
                "cov_err": cov_err,
                "cov_rel_err": cov_err / sigma_norm if sigma_norm else cov_err,
            }
        )
    return {"model": model, "rows": rows}
