"""Limit measures, potential minimization, Gaussian asymptotics."""

import cmath
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbrion import brion, fixtures, jackson, lattice, measures
from qbrion.errors import EmptyPolytopeError, InvalidInputError, PreconditionError, QBrionError
from qbrion.lattice import Polytope
from qbrion.measures import (
    DiscreteMeasure,
    convergence_report,
    dilation_moments,
    gaussian_model,
    log_weight_table,
    max_face_value,
    minimize_potential,
    mu_limit_estimate,
    mu_measure,
    potential,
)

from conftest import (
    face_measure_reference,
    reference_limit_estimate,
    segment,
    sheared,
    skewed,
    translate,
)


# ------------------------------------------------------------ discrete measure


def test_measure_normalizes_and_drops_zeros():
    mu = DiscreteMeasure({(0,): 2, (1,): 6, (2,): 0})
    assert mu.atoms == {(0,): Fraction(1, 4), (1,): Fraction(3, 4)}


def test_measure_rejects_bad_mass():
    with pytest.raises(InvalidInputError):
        DiscreteMeasure({(0,): -1, (1,): 2})
    with pytest.raises(InvalidInputError):
        DiscreteMeasure({(0,): 0})


@pytest.mark.parametrize(
    "weights",
    [
        {(0.5,): 1, (1,): 1},
        {(Fraction(3, 2),): 1},
        {(True,): 1},
        {(0, False): 1},
        {(0,): 1, (0, 1): 1},
        {(0,): 1, (0, 1): 0},
        {(): 1},
        {0: 1},
        {(float("nan"),): 1},
        {(float("inf"),): 1},
        {("1",): 1},
    ],
)
def test_measure_rejects_keys_that_are_not_lattice_points(weights):
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(weights)


@pytest.mark.parametrize(
    "weight",
    [float("nan"), float("inf"), float("-inf"), "abc", "1/3", None, True, False, 1j, [1]],
)
def test_measure_rejects_weights_that_are_not_exact_numbers(weight):
    with pytest.raises(InvalidInputError):
        DiscreteMeasure({(0,): 1, (1,): weight})


def test_measure_weights_mix_ints_fractions_and_floats_exactly():
    mu = DiscreteMeasure({(0,): 2, (1,): Fraction(1, 3), (2,): 0.25, (3,): -0.0})
    assert mu.atoms == {(0,): Fraction(24, 31), (1,): Fraction(4, 31), (2,): Fraction(3, 31)}


def test_measure_accepts_integral_entries_of_any_number_type():
    mu = DiscreteMeasure({(Fraction(2), 1.0): 1, (0, 0): 1})
    assert mu.atoms == {(2, 1): Fraction(1, 2), (0, 0): Fraction(1, 2)}
    assert all(type(x) is int for u in mu.atoms for x in u)


def test_measure_weight_off_the_lattice_is_zero():
    mu = DiscreteMeasure({(0,): 1, (1,): 3})
    assert mu.weight((0.7,)) == 0
    assert mu.weight((Fraction(1, 2),)) == 0
    assert mu.weight((1.0,)) == Fraction(3, 4)
    assert mu.weight((Fraction(0),)) == Fraction(1, 4)


def test_measure_weight_rejects_a_point_of_another_dimension():
    mu = DiscreteMeasure({(0, 0): 1, (1, 0): 3})
    assert mu.weight((2, 0)) == 0
    for u in ((0,), (0, 0, 0)):
        with pytest.raises(InvalidInputError, match="u has %d coordinates, the measure 2" % len(u)):
            mu.weight(u)


def test_measure_weight_rejects_a_real_point_of_another_dimension():
    mu = DiscreteMeasure({(0,): 1})
    assert mu.weight((0.5,)) == 0
    for u in ((0.5, 0.5), (Fraction(1, 3), 0), ()):
        with pytest.raises(InvalidInputError, match="u has %d coordinates, the measure 1" % len(u)):
            mu.weight(u)


@pytest.mark.parametrize("u", [5, 0.5, None, (True,), (0, False), ("0",), (1j,), "0"])
def test_measure_weight_rejects_what_is_not_a_sequence_of_real_numbers(u):
    mu = DiscreteMeasure({(0,): 1})
    with pytest.raises(InvalidInputError, match="is not a sequence of real numbers"):
        mu.weight(u)


def test_measure_moments_exact():
    mu = DiscreteMeasure({(0,): 1, (2,): 1})
    mean, cov = mu.mean(), mu.covariance()
    assert mean == (Fraction(1),)
    assert cov == ((Fraction(1),),)


def test_measure_moments_computed_once(monkeypatch, hexagon):
    mu = mu_measure(lattice.dilate(hexagon, 3))
    want_mean = tuple(sum(w * u[j] for u, w in mu.atoms.items()) for j in range(2))
    want_cov = tuple(
        tuple(
            sum(w * u[j] * u[l] for u, w in mu.atoms.items()) - want_mean[j] * want_mean[l]
            for l in range(2)
        )
        for j in range(2)
    )
    calls = []
    moments = measures._moments

    def counted(rows, dim):
        calls.append(dim)
        return moments(rows, dim)

    monkeypatch.setattr(measures, "_moments", counted)
    assert mu.mean() == want_mean
    assert mu.covariance() == want_cov
    assert mu.mean() == want_mean
    assert len(calls) == 1


def test_empty_polytope_weight_tables_raise_their_own_errors():
    for P in (
        Polytope(1, ((1,), (-1,)), (-3, 1)),  # 3 <= u <= 1
        # nonempty, with vertices (-4/5, -2/5), (-5/7, -4/7), (-1/2, -1/2),
        # but no lattice point
        Polytope(2, ((-1, -3), (-1, 3), (2, 1)), (-2, 1, 2)),
    ):
        assert lattice.sorted_slacks(P) == ([], [])
        with pytest.raises(PreconditionError, match="no lattice points, so no weight table"):
            log_weight_table(P, 0.5)
        with pytest.raises(PreconditionError, match="no lattice points, so no limit measure"):
            mu_limit_estimate(P, Fraction(1, 2))


def _reference_normalization(weights):
    """Per-atom normalization: Fraction(w) / the exact total, zeros dropped."""
    exact = {u: Fraction(w) for u, w in weights.items() if w}
    total = sum(exact.values())
    return {u: w / total for u, w in exact.items()}


def test_measure_repeated_mixed_weights_match_per_atom_normalization():
    weights = {
        (0,): 3, (1,): Fraction(3), (2,): Fraction(1, 6), (3,): 0.5, (4,): Fraction(1, 2),
        (5,): 3, (6,): 0.1, (7,): Fraction(1, 6), (8,): 0, (9,): Fraction(0), (10,): 0.1,
    }
    mu = DiscreteMeasure(weights)
    ref = _reference_normalization(weights)
    assert list(mu.atoms.items()) == list(ref.items())
    assert all(type(w) is Fraction for w in mu.atoms.values())
    # one Fraction per distinct weight, shared by the atoms that carry it
    assert len({id(w) for w in mu.atoms.values()}) == len(set(ref.values())) == 4


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.sampled_from([0, 1, 2, 7, Fraction(1, 3), Fraction(2, 3), Fraction(7, 12), 0.25, 0.1, 2.5]),
    min_size=1, max_size=30,
))
def test_measure_normalization_matches_per_atom_reference(values):
    weights = {(i, -i): w for i, w in enumerate(values)}
    if not any(values):
        with pytest.raises(InvalidInputError):
            DiscreteMeasure(weights)
        return
    mu = DiscreteMeasure(weights)
    assert list(mu.atoms.items()) == list(_reference_normalization(weights).items())


_TWO_ATOMS = {(0, 1): Fraction(2, 5), (1, 0): Fraction(3, 5)}


@pytest.mark.parametrize(
    "weights, want",
    [
        ({(0, 1): 2, (1, 0): -1}, "negative weight at (1, 0)"),
        ({(0, 1): 2, (1,): 1}, "points of different dimensions [1, 2]"),
        ({(): 1}, "() is not a lattice point"),
        ({(0, 1): True}, "weight True at (0, 1) is not an int, a Fraction or a finite float"),
        ({(0, True): 1}, "(0, True) is not a lattice point"),
        ({(0, 1): 0, (1, 0): 0}, "measure needs positive total mass"),
        ({}, "measure needs positive total mass"),
        ({(0, 1): 2, (1, 0): 3}, _TWO_ATOMS),
        ({(0, 1): 2.0, (1, 0): 3}, _TWO_ATOMS),
    ],
    # the ids these cases had while they compared an int fast path with the
    # per-atom checks, which are now the one path
    ids=["weights%d" % i for i in range(9)],
)
def test_int_measure_fast_path_keeps_every_error(weights, want):
    # int tuples and int weights take the same checks as every other input
    if isinstance(want, str):
        with pytest.raises(InvalidInputError) as info:
            DiscreteMeasure(weights)
        assert str(info.value) == want
    else:
        assert DiscreteMeasure(weights).atoms == want


def test_total_variation_basics():
    a = DiscreteMeasure({(0,): 1})
    b = DiscreteMeasure({(1,): 1})
    assert a.total_variation(b) == 1
    assert a.total_variation(a) == 0


def test_total_variation_rejects_another_dimension():
    mu = DiscreteMeasure({(0, 0): 1, (1, 1): 1})
    for other in (DiscreteMeasure({(0,): 1}), DiscreteMeasure({(0, 0, 0): 1})):
        with pytest.raises(InvalidInputError, match="cannot compare dimensions"):
            mu.total_variation(other)
        with pytest.raises(InvalidInputError, match="cannot compare dimensions"):
            other.total_variation(mu)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-(10**40), 10**40),
    st.integers(1, 10**40),
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**6),
)
def test_coprime_fraction_is_the_reduced_fraction(n, d, m, e):
    assume(math.gcd(n, d) == 1)
    got, want = measures._coprime_fraction(n, d), Fraction(n, d)
    other = Fraction(m, e)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator) == (n, d)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    for x, y in ((got + other, want + other), (got * other, want * other),
                 (got + got, want + want), (got * got, want * want), (got + 1, want + 1)):
        assert (x.numerator, x.denominator) == (y.numerator, y.denominator)


# ------------------------------------------------------------- limit measure


def binomial_measure(k):
    return DiscreteMeasure({(u,): math.comb(k, u) for u in range(k + 1)})


@pytest.mark.parametrize("k", range(1, 11))
def test_mu_measure_segment_is_binomial(k):
    assert mu_measure(segment(k)) == binomial_measure(k)


def test_mu_measure_trapezoid(trapezoid):
    mu = mu_measure(trapezoid)
    assert mu.atoms == {
        (0, 1): Fraction(1, 4),
        (1, 1): Fraction(1, 2),
        (2, 1): Fraction(1, 4),
    }


def test_max_face_trapezoid(trapezoid):
    assert max_face_value(trapezoid) == 3
    face = mu_measure(trapezoid).support()
    assert face == [(0, 1), (1, 1), (2, 1)]
    assert all(sum(trapezoid.slacks(u)) == 3 for u in face)


def test_mu_measure_hexagon_symmetry(hexagon):
    mu = mu_measure(hexagon)
    assert set(mu.atoms) == set(lattice.lattice_points(hexagon))
    for u, w in mu.atoms.items():
        mirror = (2 - u[0], 2 - u[1])
        assert mu.atoms[mirror] == w


def test_mu_measure_simplex_is_multinomial(simplex_p2):
    mu = mu_measure(simplex_p2)
    # slack multinomials over 2*simplex: trinomial distribution with 2 trials
    assert mu.atoms[(0, 0)] == Fraction(1, 9)
    assert mu.atoms[(1, 0)] == Fraction(2, 9)
    assert mu.atoms[(1, 1)] == Fraction(2, 9)


@pytest.mark.parametrize("name", ["trapezoid_f1", "hexagon", "segment_5"])
def test_limit_estimate_converges_in_tv(polytopes, name):
    P = polytopes[name]
    mu = mu_measure(P)
    d2 = mu_limit_estimate(P, Fraction(99, 100)).total_variation(mu)
    d3 = mu_limit_estimate(P, Fraction(999, 1000)).total_variation(mu)
    assert d3 < d2
    assert d3 <= Fraction(1, 100)


def test_limit_estimate_is_exact_rational(hexagon):
    est = mu_limit_estimate(hexagon, Fraction(1, 2))
    assert sum(est.atoms.values()) == 1
    for w in est.atoms.values():
        assert isinstance(w, Fraction)


def test_limit_estimate_rejects_bad_q(hexagon):
    with pytest.raises(InvalidInputError):
        mu_limit_estimate(hexagon, Fraction(3, 2))
    with pytest.raises(InvalidInputError):
        mu_limit_estimate(hexagon, 0)


@pytest.mark.parametrize(
    "q", ["abc", "1/2", None, True, 1, 0.0, 1.0, -0.5, float("nan"), float("inf"), complex(0.5, 0), [0.5]]
)
def test_q_weights_reject_bad_q_types(hexagon, q):
    # q is a non-bool int, a Fraction or a finite float in (0, 1); anything
    # else is an InvalidInputError, not a raw ValueError or TypeError
    with pytest.raises(InvalidInputError):
        mu_limit_estimate(hexagon, q)
    with pytest.raises(InvalidInputError):
        log_weight_table(hexagon, q)


def test_q_weights_accept_a_float_or_fraction_q(hexagon):
    assert mu_limit_estimate(hexagon, 0.5) == mu_limit_estimate(hexagon, Fraction(1, 2))
    assert log_weight_table(hexagon, Fraction(1, 2)) == log_weight_table(hexagon, 0.5)


def _limit_reference(P, q):
    """One Fraction product per lattice point, normalized by the exact sum."""
    weights = {}
    for point, slacks in lattice.points_with_slacks(P):
        w = Fraction(1)
        for s in slacks:
            for j in range(1, s + 1):
                w /= 1 - q ** j
        weights[point] = w
    total = sum(weights.values())
    return {u: w / total for u, w in weights.items()}


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(9, 10)])
@pytest.mark.parametrize("key", list(fixtures.NAMES) + ["hexagon*3", "trapezoid_f1*4"])
def test_limit_estimate_matches_per_point_reference(key, q):
    name, _, k = key.partition("*")
    P = fixtures.load(name)
    if k:
        P = lattice.dilate(P, int(k))
    est = mu_limit_estimate(P, q)
    assert list(est.atoms.items()) == list(_limit_reference(P, q).items())


def test_limit_estimate_builds_one_weight_per_slack_multiset(hexagon):
    P = lattice.dilate(hexagon, 4)
    est = mu_limit_estimate(P, Fraction(2, 3))
    by_multiset = {}
    for u, t in lattice.points_with_slacks(P):
        by_multiset.setdefault(tuple(sorted(t)), set()).add(id(est.atoms[u]))
    assert len(est.atoms) == len(lattice.lattice_points(P)) > len(by_multiset)
    # one atom object per multiset, shared by all of its points
    assert all(len(ids) == 1 for ids in by_multiset.values())
    assert len({id(w) for w in est.atoms.values()}) == len(by_multiset)


_EXACTNESS_QS = [Fraction(1, 2), Fraction(2, 3), Fraction(4, 9), Fraction(5, 12), Fraction(9, 10), 0.37]


def _exactness_cases():
    for name in fixtures.NAMES:
        for k in (1, 2, 3):
            yield "%s*%d" % (name, k)
    yield from ("cube", "simplex3", "hexagon_prism")


def _exactness_polytope(key, solids):
    name, _, k = key.partition("*")
    return lattice.dilate(fixtures.load(name), int(k)) if k else solids[name]


def _atom_triples(mu):
    return [(u, w.numerator, w.denominator) for u, w in mu.atoms.items()]


@pytest.mark.parametrize("q", _EXACTNESS_QS, ids=str)
@pytest.mark.parametrize("key", list(_exactness_cases()))
def test_limit_estimate_atoms_match_the_fraction_reference(key, q, solids):
    # keys, order, numerators and denominators, and every atom a Fraction
    P = _exactness_polytope(key, solids)
    est = mu_limit_estimate(P, q)
    assert _atom_triples(est) == _atom_triples(reference_limit_estimate(P, q))
    assert all(type(w) is Fraction for w in est.atoms.values())


@pytest.mark.parametrize(
    "name, q, coprime_part, power_part",
    [("hexagon", Fraction(1, 2), 3, 1), ("simplex_p2", Fraction(2, 3), 1, 3)],
)
def test_limit_estimate_takes_each_shared_factor(monkeypatch, polytopes, name, q, coprime_part, power_part):
    # the shared factor is gcd(C, T), prime to q's denominator b, times
    # gcd(b^e, T); the exactness matrix above runs these two cases, in which
    # one part each is above 1
    seen = []
    normalized = measures._normalized

    def capture(points, keys, nums, total, shared):
        seen.append(shared)
        return normalized(points, keys, nums, total, shared)

    monkeypatch.setattr(measures, "_normalized", capture)
    P = polytopes[name]
    est = mu_limit_estimate(P, q)
    (shared,) = seen
    power = math.gcd(shared, q.denominator ** shared.bit_length())
    assert (shared // power, power) == (coprime_part, power_part)
    assert _atom_triples(est) == _atom_triples(reference_limit_estimate(P, q))


@pytest.mark.parametrize("key", list(_exactness_cases()))
def test_mu_measure_matches_the_discrete_measure_path(key, solids):
    P = _exactness_polytope(key, solids)
    weights = dict(measures._face_weights(P))
    mu, want = mu_measure(P), DiscreteMeasure(weights)
    assert _atom_triples(mu) == _atom_triples(want)
    assert len({id(w) for w in mu.atoms.values()}) == len(set(weights.values()))


# ------------------------------------------------------------- weight tables


def test_log_weight_table_normalized(hexagon):
    for q in (0.2, 0.6, 0.9):
        rows = log_weight_table(lattice.dilate(hexagon, 6), q)
        assert abs(math.fsum(w for _, w in rows) - 1.0) <= 1e-12


def test_log_weight_table_bitwise_symmetric(hexagon):
    k = 6
    rows = dict(log_weight_table(lattice.dilate(hexagon, k), 0.37))
    for u, w in rows.items():
        mirror = (2 * k - u[0], 2 * k - u[1])
        assert rows[mirror] == w  # bitwise, not approximately


def _log_weight_reference(P, q):
    """The weight table one point at a time: sorted-slack log-weights, then
    the max, the exps, fsum and the division over the point list."""
    prefix = [0.0]
    for j in range(1, max(max(t) for _, t in lattice.points_with_slacks(P)) + 1):
        prefix.append(prefix[-1] + math.log1p(-(q ** j)))
    rows = [(u, -sum(prefix[s] for s in sorted(t))) for u, t in lattice.points_with_slacks(P)]
    top = max(logw for _, logw in rows)
    expd = [(u, math.exp(logw - top)) for u, logw in rows]
    norm = math.fsum(w for _, w in expd)
    return [(u, w / norm) for u, w in expd]


@pytest.mark.parametrize("q", [0.2, 0.37, 0.9])
@pytest.mark.parametrize("key", ["hexagon*5", "simplex_p2*6", "trapezoid_f1*3", "segment_5"])
def test_log_weight_table_matches_per_point_reference(key, q):
    name, _, k = key.partition("*")
    P = fixtures.load(name)
    if k:
        P = lattice.dilate(P, int(k))
    assert log_weight_table(P, q) == _log_weight_reference(P, q)  # bitwise


def test_log_weight_table_one_exp_per_slack_multiset(monkeypatch, hexagon):
    P = lattice.dilate(hexagon, 5)
    multisets = {tuple(sorted(t)) for _, t in lattice.points_with_slacks(P)}
    calls = []
    exp = math.exp

    def counting(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(math, "exp", counting)
    rows = log_weight_table(P, 0.6)
    assert len(rows) > len(multisets)
    assert len(calls) == len(multisets)


def test_log_weight_table_tracks_exact_weights(hexagon):
    q = Fraction(1, 2)
    exact = mu_limit_estimate(hexagon, q)
    rows = dict(log_weight_table(hexagon, float(q)))
    for u, w in rows.items():
        assert abs(w - float(exact.atoms[u])) <= 1e-12


# ---------------------------------------------------------------- potential


def test_potential_value_hexagon_center(hexagon):
    # all six slacks are 1 at the center: potential 1
    assert potential(hexagon, (1.0, 1.0)) == pytest.approx(1.0)


def test_minimize_potential_known_points(polytopes):
    cases = {
        "hexagon": (1.0, 1.0),
        "simplex_p2": (2 / 3, 2 / 3),
        "square_p1xp1": (0.5, 0.5),
        "segment_2": (1.0,),
    }
    for name, want in cases.items():
        got = minimize_potential(polytopes[name])
        assert got == pytest.approx(want, abs=1e-8), name


def test_minimizer_stationarity(polytopes):
    # sum over active facets of v_i log t_i vanishes at the minimizer
    for name in ("hexagon", "simplex_p2", "square_p1xp1"):
        P = polytopes[name]
        m = minimize_potential(P)
        active = P.geometry.active_facets
        for j in range(P.dim):
            s = sum(
                P.normals[i][j]
                * math.log(
                    sum(a * b for a, b in zip(m, P.normals[i])) + P.offsets[i]
                )
                for i in active
            )
            assert abs(s) <= 1e-8, name


def test_minimizer_beats_grid_search(polytopes):
    for name in ("hexagon", "simplex_p2"):
        P = polytopes[name]
        m = minimize_potential(P)
        best = potential(P, m)
        lo = [min(v.point[i] for v in lattice.enumerate_vertices(P)) for i in range(2)]
        hi = [max(v.point[i] for v in lattice.enumerate_vertices(P)) for i in range(2)]
        step = Fraction(1, 64)
        x = Fraction(lo[0])
        while x <= hi[0]:
            y = Fraction(lo[1])
            while y <= hi[1]:
                if all(
                    sum(c * b for c, b in zip((x, y), v)) + a >= 0
                    for v, a in zip(P.normals, P.offsets)
                ):
                    assert potential(P, (float(x), float(y))) >= best - 1e-9
                y += step
            x += step


def test_minimize_potential_needs_balanced_normals(trapezoid):
    # the stationarity condition divides out the normal sum; unbalanced
    # arrangements are outside the contract
    with pytest.raises(PreconditionError):
        minimize_potential(trapezoid)


def test_newton_steps_reach_the_minimizer_off_the_vertex_mean(monkeypatch, hexagon):
    # on every fixture the vertex mean is already the minimizer; with these
    # offsets the gradient there is (-0.0561, 0), so the damped steps run,
    # and they end at the exact mean of the undilated measure
    import numpy as np

    P = Polytope(2, hexagon.normals, (0, 0, 1, 3, 4, 3))
    steps = []
    solve = measures._solve
    monkeypatch.setattr(measures, "_solve", lambda *args: steps.append(1) or solve(*args))
    m = minimize_potential(P)
    monkeypatch.undo()
    assert steps
    vs, a = np.array(P.normals, dtype=float), np.array(P.offsets, dtype=float)
    assert np.linalg.norm(vs.T @ (np.log(vs @ m + a) + 1.0)) <= 1e-10
    mean = dilation_moments(P, 1).mean
    assert mean == (Fraction(15, 11), Fraction(24, 11))
    assert max(abs(x - float(y)) for x, y in zip(m, mean)) <= 1e-12
    # the scaled covariance error decays like 1/k: a quarter per fourfold k
    errs = [row["cov_err"] for row in convergence_report(P, [50, 200, 800])["rows"]]
    assert all(3.5 <= e / f <= 4.5 for e, f in zip(errs, errs[1:])), errs


def test_potential_outside_point_rejected(hexagon):
    with pytest.raises(InvalidInputError):
        potential(hexagon, (-1.0, 0.0))


@pytest.mark.parametrize(
    "P, m",
    [
        (fixtures.load("segment_0"), (7,)),  # P = {0}
        # the segment [0, 2] x {0} in the plane: only the y-facets reject m
        (Polytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (0, 2, 0, 0)), (1, 5)),
    ],
    ids=["point", "planar-segment"],
)
def test_potential_checks_facets_whose_slack_vanishes_on_P(P, m):
    with pytest.raises(InvalidInputError, match="point lies outside"):
        potential(P, m)


def test_potential_beyond_the_float_range_is_a_precondition_error(hexagon):
    P = lattice.dilate(hexagon, 40)
    with pytest.raises(PreconditionError, match="exceeds the float range") as info:
        potential(P, (40.0, 40.0))
    assert "log-potential" in str(info.value)
    assert potential(lattice.dilate(hexagon, 30), (30.0, 30.0)) == pytest.approx(7.6e265, rel=0.01)


@pytest.mark.parametrize("m", [(1,), (1, 1, 5), ()])
def test_potential_rejects_point_of_wrong_length(hexagon, m):
    with pytest.raises(InvalidInputError):
        potential(hexagon, m)


@pytest.mark.parametrize(
    "m",
    [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0), ("a", 1), None, (True, 0), (1j, 0), (10**400, 0)],
    ids=["nan", "inf", "-inf", "string", "None", "bool", "complex", "huge-int"],
)
def test_potential_rejects_a_point_that_is_not_real_and_finite(hexagon, m):
    with pytest.raises(InvalidInputError):
        potential(hexagon, m)


def test_empty_polytope_raises_empty_error():
    P = Polytope(1, ((1,), (-1,)), (-3, 1))  # 3 <= u <= 1
    for fn in (max_face_value, mu_measure):
        with pytest.raises(EmptyPolytopeError):
            fn(P)
    with pytest.raises(EmptyPolytopeError):
        dilation_moments(P, 2)


EMPTY_TRIANGLE = Polytope(2, ((1, 0), (0, 1), (-1, -1)), (0, 0, -1))  # x, y >= 0, x + y <= -1


@pytest.mark.parametrize(
    "call",
    [
        lattice.validate,
        lattice.enumerate_vertices,
        lambda P: brion.verify_identity(P, order=4),
        mu_measure,
        lambda P: dilation_moments(P, 2),
        max_face_value,
        gaussian_model,
        lambda P: potential(P, (0.0, 0.0)),
        minimize_potential,
        jackson.FirstOrthantDivisor.from_polytope,
        jackson.leading_term_check,
        jackson.leading_term_expected,
    ],
    ids=["validate", "enumerate_vertices", "verify_identity", "mu_measure",
         "dilation_moments", "max_face_value", "gaussian_model", "potential",
         "minimize_potential", "first_orthant_divisor", "leading_term_check",
         "leading_term_expected"],
)
def test_every_entry_point_rejects_an_empty_polytope_alike(call):
    with pytest.raises(EmptyPolytopeError, match="the half-space intersection is empty"):
        call(EMPTY_TRIANGLE)


# ------------------------------------------------------------ Gaussian model


def test_gaussian_model_hexagon(hexagon):
    import numpy as np

    model = gaussian_model(hexagon)
    assert model.minimizer == pytest.approx((1.0, 1.0))
    assert np.allclose(np.array(model.precision), [[4.0, -2.0], [-2.0, 4.0]], atol=1e-9)
    assert np.allclose(
        np.array(model.covariance), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-10
    )
    assert model.support_basis == ((0, 1), (1, 0))
    assert model.active_set == tuple(range(6))


@pytest.mark.parametrize(
    "dim, facets, basis",
    [
        (2, [((0, 1), 0), ((1, -1), 0), ((-1, -1), 2)], ((1, 1), (0, -1))),
        (2, [((1, -1), 0), ((-1, 1), 0), ((1, 0), 0), ((-1, 0), 3)], ((1, 1),)),
        (
            3,
            [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
             ((-1, 0, 0), 1), ((0, -1, 0), 1), ((0, 0, -1), 1)],
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        ),
    ],
)
def test_support_basis_literals(dim, facets, basis):
    # primitive vertex differences, each reduced against the earlier ones only
    assert Polytope.from_facets(dim, facets).geometry.support_basis == basis


def test_gaussian_precision_symmetric_psd(polytopes):
    import numpy as np

    for name in ("hexagon", "simplex_p2", "square_p1xp1"):
        model = gaussian_model(polytopes[name])
        A = np.array(model.precision)
        assert abs(A - A.T).max() <= 1e-9
        eigs = np.linalg.eigvalsh(A)
        assert (eigs > 0).all(), name


FROZEN_COV = {
    # exact k-scaled covariance of the dilation measures
    "segment_1": ((Fraction(1, 4),),),
    "simplex_p2": (
        (Fraction(4, 9), Fraction(-2, 9)),
        (Fraction(-2, 9), Fraction(4, 9)),
    ),
    "square_p1xp1": (
        (Fraction(1, 4), Fraction(0)),
        (Fraction(0), Fraction(1, 4)),
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_COV))
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 10**3, 10**6])
def test_covariance_linear_in_k(polytopes, name, k):
    P = polytopes[name]
    want = tuple(tuple(k * x for x in row) for row in FROZEN_COV[name])
    if k <= 8:
        assert mu_measure(lattice.dilate(P, k)).covariance() == want
    assert dilation_moments(P, k).covariance == want


@pytest.mark.parametrize("k", [1, 2, 7, 10**3, 10**6])
def test_trapezoid_moments_exact(trapezoid, k):
    # the max face is the top edge: u_1 is binomial(2k, 1/2), u_2 = k
    data = dilation_moments(trapezoid, k)
    assert data.point_count == 2 * k + 1
    assert data.mean == (Fraction(k), Fraction(k))
    assert data.covariance == ((Fraction(k, 2), Fraction(0)), (Fraction(0), Fraction(0)))


@pytest.mark.parametrize("k", [1, 2, 7, 10**3, 10**6])
def test_hexagon_moments_exact(hexagon, k):
    # the three facet pairs under one relation: multivariate hypergeometric
    data = dilation_moments(hexagon, k)
    c = Fraction(k * k, 6 * k - 1)
    assert data.point_count == 3 * k * k + 3 * k + 1
    assert data.mean == (Fraction(k), Fraction(k))
    assert data.covariance == ((2 * c, c), (c, 2 * c))
    assert {type(x) for x in data.mean + data.covariance[0] + data.covariance[1]} == {Fraction}


@pytest.mark.parametrize("name", sorted(FROZEN_COV))
def test_gaussian_covariance_matches_exact_limit(polytopes, name):
    model = gaussian_model(polytopes[name])
    want = FROZEN_COV[name]
    for i, row in enumerate(model.covariance):
        for j, x in enumerate(row):
            assert abs(x - float(want[i][j])) <= 1e-9


def test_dilation_moments_match_direct_measure(hexagon):
    for k in (1, 2, 4):
        data = dilation_moments(hexagon, k)
        mu = mu_measure(lattice.dilate(hexagon, k))
        mean, cov = mu.mean(), mu.covariance()
        assert data.mean == mean
        assert data.covariance == cov
        assert data.point_count == len(mu.atoms)


def transpose(P):
    """P with its two coordinates swapped."""
    return Polytope(2, tuple(v[::-1] for v in P.normals), P.offsets)


def assert_matches_reference(P, k):
    """The face-weight walk, mu_measure, its moments and dilation_moments
    against the direct factorial reference on dilate(P, k)."""
    Q = lattice.dilate(P, k)
    weights, mean, cov = face_measure_reference(Q)
    assert dict(measures._face_weights(Q)) == weights
    mu = mu_measure(Q)
    face = mu.support()
    assert face == sorted(weights)
    top = max_face_value(Q)
    assert all(sum(Q.slacks(u)) == top for u in face)
    assert mu == DiscreteMeasure(weights)
    assert mu.mean() == mean
    assert mu.covariance() == cov
    data = dilation_moments(P, k)
    assert data.point_count == len(weights)
    assert data.mean == mean
    assert data.covariance == cov


@pytest.mark.parametrize("shift", [(0, 0), (3, -2), (-5, 7)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", fixtures.NAMES)
def test_q1_layer_matches_reference(polytopes, name, k, shift):
    P = polytopes[name]
    assert_matches_reference(translate(P, shift[: P.dim]), k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_q1_layer_proper_face_matches_reference(trapezoid, k):
    # the max face is a proper subset of the points, once across the rows
    # and once along them, so the walk restarts inside the polytope
    for P in (trapezoid, transpose(trapezoid)):
        Q = lattice.dilate(P, k)
        assert len(face_measure_reference(Q)[0]) < len(lattice.lattice_points(Q))
        assert_matches_reference(P, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["hexagon", "simplex_p2", "square_p1xp1", "trapezoid_f1"])
def test_q1_layer_sheared_rows_match_reference(polytopes, name, k):
    # under (x, y) -> (x, y + 2x) one row of points can end just below where
    # the next one starts, so only the row prefix tells the two rows apart
    assert_matches_reference(sheared(polytopes[name]), k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("name", ["hexagon", "simplex_p2", "square_p1xp1", "trapezoid_f1"])
def test_q1_layer_skewed_rows_match_reference(polytopes, name, k):
    # under (x, y) -> (x + 2y, y) the last normal entries reach +-2 and +-3:
    # a step along a face row takes math.perm factors, and the trapezoid's
    # rows (slack sum slope 1) meet the face in single points
    assert_matches_reference(skewed(polytopes[name]), k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_q1_layer_inexact_face_crossings_match_reference(trapezoid, k):
    # the slack sum grows by 2 per step along each row, so a row whose gap
    # to the target is odd steps over the face, and one with an even gap
    # meets it
    P = skewed(transpose(trapezoid), -2)
    assert sum(v[-1] for v in P.normals) == 2
    assert_matches_reference(P, k)


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_one_point_face_rows_match_the_per_point_weights(trapezoid, k):
    # the trapezoid's face meets each row in one point, and transposed it
    # lies along rows: each row's weights against the multinomial of each
    # point's slacks
    for P in (trapezoid, transpose(trapezoid)):
        Q = lattice.dilate(P, k)
        rows = list(measures._weight_rows(Q))
        assert all(len(w) == 1 for _, _, w in rows) == (P is trapezoid)
        got = {prefix + (lo + m,): x for prefix, lo, w in rows for m, x in enumerate(w)}
        assert got == face_measure_reference(Q)[0]


def test_q1_layer_needs_a_lattice_point_on_the_max_face():
    # the slack sum is largest at a rational vertex; 6 lattice points lie elsewhere
    P = Polytope(2, ((-2, 1), (1, -2), (1, 2)), (1, 3, 1))
    assert len(lattice.lattice_points(P)) == 6
    for fn in (mu_measure, lambda P: dilation_moments(P, 1)):
        with pytest.raises(PreconditionError):
            fn(P)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["cube", "simplex3", "hexagon_prism"])
def test_q1_layer_solids_match_reference(solids, name, k):
    assert_matches_reference(solids[name], k)


def permuted(P, order):
    """P with its coordinates taken in the given order."""
    return Polytope(P.dim, tuple(tuple(v[j] for j in order) for v in P.normals), P.offsets)


# the fixtures, the solids and their images in other bases: every one takes
# the face law, so dilation_moments walks no face row
def closed_form_families(polytopes, solids):
    out = {}
    for name in ("hexagon", "simplex_p2", "square_p1xp1", "segment_0", "segment_5"):
        P = polytopes[name]
        out[name] = P
        out[name + "+shift"] = translate(P, (3, -2)[: P.dim])
        if P.dim == 2:
            out[name + "^T"] = transpose(P)
            out[name + "+sheared"] = sheared(P)
    out["simplex_p2+skewed1"] = skewed(polytopes["simplex_p2"], 1)
    out["cube"] = solids["cube"]
    out["simplex3"] = solids["simplex3"]
    out["hexagon_prism"] = solids["hexagon_prism"]
    # the hexagon's second coordinate last: two rising and two falling slacks in 3-D
    out["hexagon_prism_permuted"] = permuted(solids["hexagon_prism"], (2, 0, 1))
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_closed_form_row_sums_match_reference(polytopes, solids, monkeypatch, k):
    families = closed_form_families(polytopes, solids)
    for P in families.values():
        assert_matches_reference(P, k)
    # the moments above took no weight walk
    monkeypatch.setattr(measures, "_weight_rows", None)
    for P in families.values():
        dilation_moments(P, k)


# faces the face law does not describe: the octagon's four facet pairs leave
# two relations, and the diamond is not smooth
OCTAGON = Polytope(
    2,
    ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (-1, 1), (1, -1)),
    (0, 0, 3, 3, -1, 5, 2, 2),
)
DIAMOND = Polytope(2, ((1, 1), (-1, 1), (-1, -1), (1, -1)), (1, 1, 1, 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rows_outside_the_closed_forms_take_the_walk(polytopes, monkeypatch, k):
    walked = []
    weight_rows = measures._weight_rows

    def spy(Q):
        walked.append(Q)
        return weight_rows(Q)

    monkeypatch.setattr(measures, "_weight_rows", spy)
    # the skewed rows step by |d_i| >= 2, with math.perm factors
    for P in (OCTAGON, DIAMOND, skewed(polytopes["hexagon"]), skewed(polytopes["simplex_p2"], -2)):
        walked.clear()
        assert_matches_reference(P, k)
        assert lattice.dilate(P, k) in walked


def test_closed_form_needs_a_lattice_point_on_the_max_face():
    # two rising and two falling slacks; the slack sum is largest at the
    # vertex (2/3, 1/3), so the face has no lattice point until k = 3
    P = Polytope(2, ((-2, 1), (1, 1), (-1, -1), (3, -1)), (1, 2, 1, 2))
    assert len(lattice.lattice_points(P)) == 4
    for k in (1, 2, 4):
        with pytest.raises(PreconditionError):
            dilation_moments(P, k)
    assert dilation_moments(P, 3).point_count == 1


def walked_moments(P, k):
    """The face-row walk that dilation_moments takes where the face law does not
    apply."""
    return measures._moments(measures._row_sums(lattice.dilate(P, k)), P.dim)


def moments_outcome(call):
    """call()'s MomentData with the type of every entry, or its error type."""
    try:
        data = call()
    except QBrionError as exc:
        return type(exc)
    entries = data.mean + tuple(x for row in data.covariance for x in row)
    return data, type(data.point_count), tuple(map(type, entries))


def assert_closed_form_matches_the_walk(P, k):
    """dilation_moments(P, k) against the walk; returns its outcome."""
    got = moments_outcome(lambda: dilation_moments(P, k))
    assert got == moments_outcome(lambda: walked_moments(P, k))
    if not isinstance(got, type):
        assert set(got[2]) <= {Fraction} and got[1] is int
    return got


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_closed_form_moments_match_the_walk_on_the_fixtures(polytopes, name):
    for k in (1, 2, 3, 4, 5, 6, 7, 8, 300):
        assert_closed_form_matches_the_walk(polytopes[name], k)


@pytest.mark.parametrize("name", ["cube", "simplex3", "hexagon_prism"])
def test_closed_form_moments_match_the_walk_on_the_solids(solids, name):
    for k in (1, 2, 3, 4, 9):
        assert_closed_form_matches_the_walk(solids[name], k)


_UNIT3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_CUBE = _UNIT3 + tuple(tuple(-x for x in v) for v in _UNIT3)
_HEXAGON = fixtures.load("hexagon")
_HEXAGON_PRISM = tuple(v + (0,) for v in _HEXAGON.normals) + ((0, 0, 1), (0, 0, -1))
PRODUCT_TEST_FANS = {
    **{name: fixtures.load(name).normals for name in fixtures.NAMES},
    "cube": _CUBE,
    "simplex3": _UNIT3 + ((-1, -1, -1),),
    "triangle_prism": ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)),
    "hexagon_prism": _HEXAGON_PRISM,
    "hexagon^T": transpose(_HEXAGON).normals,
    "hexagon+sheared": sheared(_HEXAGON).normals,
    # the hexagon's second coordinate last, as permuted(P, (2, 0, 1)) takes it
    "hexagon_prism_permuted": tuple((c, a, b) for a, b, c in _HEXAGON_PRISM),
    "cube+diagonals": _CUBE + ((1, 1, 1), (-1, -1, -1)),
}


@given(
    st.sampled_from(sorted(PRODUCT_TEST_FANS)),
    st.lists(st.integers(0, 4), min_size=8, max_size=8),
    st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_closed_form_moments_match_the_walk_at_random_offsets(fan, offsets, k):
    # the face law where it describes the max face, the walk elsewhere: the
    # same MomentData, Fraction entries and errors either way
    normals = PRODUCT_TEST_FANS[fan]
    P = Polytope(len(normals[0]), normals, tuple(offsets[: len(normals)]))
    got = assert_closed_form_matches_the_walk(P, k)
    if not isinstance(got, type):
        mu = mu_measure(lattice.dilate(P, k))
        assert (mu.mean(), mu.covariance()) == (got[0].mean, got[0].covariance)


def path_polytopes(polytopes, solids):
    """The polytopes whose moments path is pinned, by name."""
    hexagon = polytopes["hexagon"]
    return {
        **polytopes,
        **solids,
        "hexagon^T": transpose(hexagon),
        "hexagon+sheared": sheared(hexagon),
        "hexagon+skewed": skewed(hexagon),
        "simplex_p2+skewed": skewed(polytopes["simplex_p2"], -2),
        "hexagon_prism_permuted": permuted(solids["hexagon_prism"], (2, 0, 1)),
        # [-1, 1]^3 cut by |x + y + z| <= 2: four facet pairs and one relation
        "cube+diagonals": Polytope(3, PRODUCT_TEST_FANS["cube+diagonals"], (1,) * 6 + (2, 2)),
        "diamond": DIAMOND,
        "octagon": OCTAGON,
        # the 3-simplex's facets pair up by exchange, but the slack sums of
        # those pairs vary on the face
        "simplex3+slab": Polytope(3, _UNIT3 + ((-1, -1, -1), (1, 0, 1), (-1, 0, -1)), (3, 3, 0, 0, 4, 0)),
        # the face is an edge on which the pairs of the x- and y-slabs keep
        # t_x + 2 t_y: one relation, with unequal coefficients
        "cube+unequal": Polytope(
            3, _CUBE + ((-1, -2, -1), (-1, -2, 0), (1, 2, 0)), (4, 1, 3, 4, 0, 4, 2, 1, 1)
        ),
    }


@pytest.mark.parametrize(
    "name,closed",
    [(name, True) for name in fixtures.NAMES]
    + [(name, True) for name in ("cube", "simplex3", "hexagon_prism", "hexagon^T", "hexagon+sheared",
                                 "hexagon+skewed", "simplex_p2+skewed", "hexagon_prism_permuted",
                                 "cube+diagonals")]
    + [(name, False) for name in ("diamond", "octagon", "simplex3+slab", "cube+unequal")],
)
def test_dilation_moments_takes_the_closed_form_on_products_of_simplices(
    polytopes, solids, monkeypatch, name, closed
):
    # the face law on every fixture, every solid and their images in other
    # bases (the skews and shears are unimodular, so they stay smooth); the
    # walk where the law does not hold, each case for one of its conditions,
    # and the two paths agree on every case
    P = path_polytopes(polytopes, solids)[name]
    assert (measures._face_law(P) is not None) == closed
    for k in (1, 2):
        assert_closed_form_matches_the_walk(P, k)
    walked = []
    row_sums = measures._row_sums

    def spy(Q):
        walked.append(Q)
        return row_sums(Q)

    monkeypatch.setattr(measures, "_row_sums", spy)
    dilation_moments(P, 5)
    assert walked == ([] if closed else [lattice.dilate(P, 5)])


def test_closed_form_moments_at_a_huge_dilation(simplex_p2):
    # the slacks are multinomial(2k; 1/3, 1/3, 1/3): no face row is walked
    k = 10**6
    data = dilation_moments(simplex_p2, k)
    assert data.point_count == (2 * k + 1) * (2 * k + 2) // 2
    assert data.mean == (Fraction(2 * k, 3),) * 2


@pytest.mark.parametrize("k", [True, 1.0, 0, -1])
def test_dilation_moments_rejects_bad_factor(hexagon, k):
    with pytest.raises(InvalidInputError):
        dilation_moments(hexagon, k)


def test_dilation_mean_exact_by_symmetry(hexagon):
    for k in (1, 3, 10):
        data = dilation_moments(hexagon, k)
        assert data.mean == (Fraction(k), Fraction(k))


def test_hexagon_large_dilation_covariance(hexagon):
    import numpy as np

    k = 120
    data = dilation_moments(hexagon, k)
    cov = np.array(data.covariance_floats()) / k
    target = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    rel = np.linalg.norm(cov - target) / np.linalg.norm(target)
    assert rel <= 0.03


@pytest.mark.parametrize("k_values", [5, None, [0], [-3], [True], [2.0], [Fraction(2)], "5", [1, 2.5]])
def test_convergence_report_rejects_bad_k_values(hexagon, k_values):
    with pytest.raises(InvalidInputError):
        convergence_report(hexagon, k_values)


@pytest.mark.parametrize(
    "k, message",
    [(0, "dilation factor must be >= 1, got 0"), (True, "dilation factor must be an integer, got True")],
    ids=["0", "True"],
)
def test_dilation_factor_is_checked_with_one_message(hexagon, k, message):
    calls = [
        lambda: lattice.dilate(hexagon, k),
        lambda: dilation_moments(hexagon, k),
        lambda: convergence_report(hexagon, [k]),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(InvalidInputError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {message}


def test_convergence_report_takes_any_iterable_of_ints(hexagon):
    report = convergence_report(hexagon, (k for k in (2, 4)))
    assert [row["k"] for row in report["rows"]] == [2, 4]


def test_convergence_report_errors_decay(hexagon):
    report = convergence_report(hexagon, [5, 20, 80])
    errs = [row["cov_rel_err"] for row in report["rows"]]
    assert errs[0] > errs[1] > errs[2]
    means = [row["mean_err"] for row in report["rows"]]
    assert all(e <= 1e-9 for e in means)  # exact symmetry: mean error is zero


# ------------------------------------------------------- float model helpers


finite = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


@given(finite, finite, finite)
@example(0.1, 10.0, -1.0)  # 2**-54 with one rounding, 0.0 with two
@example(1e-200, 1e-120, 0.0)  # a subnormal product
@settings(max_examples=300)
def test_fma_rounds_the_exact_value_once(x, y, z):
    want = float(Fraction(x) * Fraction(y) + Fraction(z))
    assert measures._fma(x, y, z) == want
    if hasattr(math, "fma"):  # Python 3.13+
        assert math.fma(x, y, z) == want


@given(st.lists(st.tuples(finite, finite), max_size=9))
@settings(max_examples=100)
def test_dot_is_one_chain_of_fmas_in_index_order(pairs):
    want = 0.0
    for x, y in pairs:
        want = float(Fraction(x) * Fraction(y) + Fraction(want))
    assert measures._dot([x for x, _ in pairs], [y for _, y in pairs]) == want


def exact_inverse(matrix):
    """The inverse of a 1x1 or 2x2 float matrix over its Fractions."""
    if len(matrix) == 1:
        return ((1 / Fraction(matrix[0][0]),),)
    (a, b), (c, d) = [[Fraction(x) for x in row] for row in matrix]
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


@pytest.mark.parametrize("name", ["hexagon", "simplex_p2", "square_p1xp1", "segment_1", "segment_5"])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_covariance_is_the_exact_inverse_of_the_precision_rounded(polytopes, name, k):
    # on 7·hexagon LAPACK's inverse gave 1.1666666666666665 above the
    # diagonal and 1.1666666666666667 below it
    model = gaussian_model(lattice.dilate(polytopes[name], k))
    want = exact_inverse(model.precision)
    assert model.covariance == tuple(tuple(float(x) for x in row) for row in want)
    assert model.covariance == tuple(zip(*model.covariance))


@pytest.mark.parametrize("offsets", [(3, 1, 4, 0, 4, 2), (2, 3, 0, 0, 3, 3), (4, 2, 3, 2, 3, 1)])
def test_newton_converges_where_a_rounded_solve_stalled(hexagon, offsets):
    # numpy's LU solve left these at "did not reach tolerance" or "line
    # search stalled"
    P = Polytope(2, hexagon.normals, offsets)
    m = minimize_potential(P)
    vs = [[float(x) for x in v] for v in P.normals]
    t = measures._slacks(vs, [float(x) for x in P.offsets], m)
    assert min(t) > 0
    dfdt = [math.log(x) + 1.0 for x in t]
    grad = [measures._dot(col, dfdt) for col in zip(*vs)]
    assert measures._norm(grad) <= 1e-10
    # ... and as small with each gradient entry summed exactly
    assert math.hypot(*(math.fsum(map(operator.mul, col, dfdt)) for col in zip(*vs))) <= 1e-10


@pytest.mark.parametrize("offsets", [(1, 4, 2, 1, 4, 0), (0, 2, 0, 4, 3, 1), (0, 1, 4, 2, 4, 0)])
def test_newton_takes_the_whole_step_below_the_rounding_of_the_potential(monkeypatch, hexagon, offsets):
    # two steps leave the gradient near 2e-9 and the Newton decrement near
    # 3e-18, far below the rounding of a log-potential near 11: the Armijo
    # test then compared noise, and the gradient wandered between 1e-9 and
    # 4e-10 until "did not reach tolerance"; the whole step converges
    P = Polytope(2, hexagon.normals, offsets)
    steps = []
    solve = measures._solve
    monkeypatch.setattr(measures, "_solve", lambda *args: steps.append(1) or solve(*args))
    m = minimize_potential(P)
    monkeypatch.undo()
    assert len(steps) <= 8
    vs = [[float(x) for x in v] for v in P.normals]
    t = measures._slacks(vs, [float(x) for x in P.offsets], m)
    assert min(t) > 0
    dfdt = [math.log(x) + 1.0 for x in t]
    assert measures._norm([measures._dot(col, dfdt) for col in zip(*vs)]) <= 1e-10


# ------------------------------------------------------- characteristic func


@pytest.mark.parametrize("k", [5, 50])
@pytest.mark.parametrize("x", [0.1, 1.0, math.pi])
def test_characteristic_function_segment(k, x):
    mu = mu_measure(segment(k))
    got = mu.characteristic_function((x / k,))
    want = cmath.exp(1j * x / 2) * math.cos(x / (2 * k)) ** k
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("x", [(1.0,), (1.0, 2.0, 3.0), ()])
def test_characteristic_function_rejects_a_vector_of_another_dimension(hexagon, x):
    with pytest.raises(InvalidInputError, match="coordinates"):
        mu_measure(hexagon).characteristic_function(x)


@pytest.mark.parametrize("x", [3, None, ("1",), (True, 0.5)])
def test_characteristic_function_rejects_what_is_not_a_real_vector(hexagon, x):
    with pytest.raises(InvalidInputError, match="is not a sequence of real numbers"):
        mu_measure(hexagon).characteristic_function(x)


@pytest.mark.parametrize("other", [3, None, {(0, 0): 1}])
def test_convolve_rejects_what_is_not_a_measure(hexagon, other):
    with pytest.raises(InvalidInputError, match="cannot convolve a measure with"):
        mu_measure(hexagon).convolve(other)


@pytest.mark.parametrize("other", [3, None, {(0, 0): 1}])
def test_total_variation_rejects_what_is_not_a_measure(hexagon, other):
    with pytest.raises(InvalidInputError, match="cannot compare a measure with"):
        mu_measure(hexagon).total_variation(other)


# ----------------------------------------------------------------- convolution


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("l", range(1, 5))
def test_convolution_homomorphism_p1(k, l):
    a = mu_measure(segment(k))
    b = mu_measure(segment(l))
    assert a.convolve(b) == mu_measure(segment(k + l))


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("l", range(1, 5))
def test_convolution_homomorphism_p2(k, l):
    simplex = Polytope.from_facets(
        2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)]
    )
    a = mu_measure(lattice.dilate(simplex, k))
    b = mu_measure(lattice.dilate(simplex, l))
    assert a.convolve(b) == mu_measure(lattice.dilate(simplex, k + l))


def test_convolution_of_mirrored_trapezoid_is_symmetric(trapezoid):
    mu = mu_measure(trapezoid)
    flipped = DiscreteMeasure({(-u[0], -u[1]): w for u, w in mu.atoms.items()})
    sym = mu.convolve(flipped)
    for u, w in sym.atoms.items():
        assert sym.atoms[(-u[0], -u[1])] == w


@pytest.mark.parametrize("other", [{(3,): 1}, {(3, 1, 4): 1}])
def test_convolution_rejects_a_measure_of_another_dimension(hexagon, other):
    with pytest.raises(InvalidInputError, match="dimensions"):
        mu_measure(hexagon).convolve(DiscreteMeasure(other))
    with pytest.raises(InvalidInputError, match="dimensions"):
        DiscreteMeasure(other).convolve(mu_measure(hexagon))
