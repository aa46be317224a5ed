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


def dense_factors(c, powers, order):
    """prod over i in powers of (1 - c q^i), as dense products of factor
    series: the reference the in-place Pochhammer kernels are checked against."""
    from qbrion.qalg import TruncatedQSeries

    one = TruncatedQSeries.one(order)
    prod = one
    for i in powers:
        prod = prod * (one - TruncatedQSeries.constant(c, order).shift_pow_q(i))
    return prod


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
