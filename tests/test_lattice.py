"""Polytope geometry: validation, vertices, points, degree enumeration."""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrion import fixtures, lattice, measures
from qbrion.errors import EmptyPolytopeError, InvalidInputError, PreconditionError, SmoothnessError
from qbrion.lattice import Polytope

from conftest import (
    reference_geometry,
    reference_inverse_unimodular,
    reference_is_bounded,
    reference_row_reduce,
    segment,
    sheared,
    skewed,
    translate,
)


# ---------------------------------------------------------------- validation


def test_fixture_validation_flags(polytopes):
    expected = {
        "segment_0": (True, True, 1, 1),
        "segment_1": (True, True, 2, 2),
        "segment_2": (True, True, 2, 3),
        "segment_5": (True, True, 2, 6),
        "hexagon": (True, True, 6, 7),
        "simplex_p2": (True, True, 3, 6),
        "square_p1xp1": (True, True, 4, 4),
        "trapezoid_f1": (True, False, 4, 5),
    }
    for name, (smooth, radial, nvert, npts) in expected.items():
        report = lattice.validate(polytopes[name])
        assert report.smooth is smooth, name
        assert report.radially_symmetric is radial, name
        assert report.vertex_count == nvert, name
        assert report.lattice_point_count == npts, name
        assert report.all_facets_touch, name
        assert not report.problems, name


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("name", fixtures.NAMES)
def test_validate_counts_points_by_row_lengths(polytopes, name, k):
    P = lattice.dilate(polytopes[name], k)
    assert lattice.validate(P).lattice_point_count == len(lattice.lattice_points(P))


def test_a_coordinate_range_too_wide_to_walk_is_a_precondition_error():
    # a coordinate before the last that spans more than sys.maxsize values
    # cannot be stepped through; the last coordinate's row is counted, not
    # stepped, so a 1-D segment of any length validates
    P = Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 10**20)])
    with pytest.raises(PreconditionError, match=r"coordinate u_1 spans 100000000000000000001 values"):
        lattice.validate(P)
    with pytest.raises(PreconditionError, match="coordinate u_1"):
        lattice.sorted_slacks(P)
    assert lattice.validate(segment(10**30)).lattice_point_count == 10**30 + 1


def test_degenerate_segment_is_flagged_lower_dimensional():
    report = lattice.validate(fixtures.load("segment_0"))
    assert not report.full_dimensional
    assert report.smooth


def test_non_primitive_normal_rejected():
    with pytest.raises(InvalidInputError):
        Polytope.from_facets(2, [((2, 0), 0), ((0, 1), 0), ((-1, -1), 2)])


def test_non_smooth_triangle_flagged():
    P = Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
    report = lattice.validate(P)
    assert not report.smooth
    assert report.problems


def test_vertex_on_too_many_facets_problem_text():
    # x, y >= 0, x <= 2, y <= 2, x + y <= 4: the vertex (2, 2) lies on three facets
    P = Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), 2), ((0, -1), 2), ((-1, -1), 4)])
    assert lattice.validate(P).to_dict()["problems"] == [
        "vertex ['2', '2'] lies on 3 facets, expected 2"
    ]


@pytest.mark.parametrize(
    "normals, offsets",
    [
        ([[1, 0], [0, 1], [-1, -1]], [0, 0, 1]),
        (((1, 0), (0, 1), (-1, -1)), [0, 0, 1]),
        ([(1, 0), [0, 1], (-1, -1)], (0, 0, 1)),
    ],
)
def test_polytope_built_from_lists_equals_the_tuple_built_one(normals, offsets):
    P = Polytope(2, ((1, 0), (0, 1), (-1, -1)), (0, 0, 1))
    Q = Polytope(2, normals, offsets)
    assert Q == P and hash(Q) == hash(P)
    assert type(Q.normals) is tuple and all(type(v) is tuple for v in Q.normals)
    assert type(Q.offsets) is tuple


@pytest.mark.parametrize(
    "normals, offsets",
    [
        (5, (0, 0, 1)),
        (((1, 0), 7, (-1, -1)), (0, 0, 1)),
        (((1, 0), (0, 1), (-1, -1)), 1),
        ([[1, 0], [0, 1], [-1, -1]], [0, 0, 1.0]),
    ],
)
def test_polytope_rejects_non_sequences_and_non_int_entries(normals, offsets):
    with pytest.raises(InvalidInputError):
        Polytope(2, normals, offsets)


def test_empty_intersection_raises():
    P = Polytope.from_facets(1, [((1,), 0), ((-1,), -3)])
    with pytest.raises(EmptyPolytopeError):
        lattice.validate(P)


def test_unbounded_input_rejected():
    with pytest.raises(InvalidInputError):
        Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0)])


def test_slack_facet_does_not_touch():
    P = Polytope.from_facets(
        2,
        [
            ((1, 0), 0),
            ((-1, 0), 1),
            ((0, 1), 0),
            ((0, -1), 1),
            ((1, 1), 10),
        ],
    )
    report = lattice.validate(P)
    assert not report.all_facets_touch


@pytest.mark.parametrize(
    "name, vertices, points", [("cube", 8, 8), ("simplex3", 4, 10), ("hexagon_prism", 12, 14)]
)
def test_validate_3d(solids, name, vertices, points):
    report = lattice.validate(solids[name])
    assert report.smooth and report.full_dimensional and report.all_facets_touch
    assert report.radially_symmetric
    assert (report.vertex_count, report.lattice_point_count) == (vertices, points)
    assert not report.problems


def test_unbounded_3d_input_rejected():
    # the normals span R^3, but the prism over a triangle is open along z
    with pytest.raises(InvalidInputError, match="unbounded"):
        Polytope.from_facets(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, 0), 2)]
        )


@pytest.mark.parametrize(
    "data",
    [
        {"dim": 1, "facets": [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": 2.7}]},
        {"dim": 1, "facets": [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": "2"}]},
        {"dim": 1, "facets": [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": True}]},
        {"dim": "2", "facets": [{"normal": [1, 0], "offset": 0}]},
        {"dim": 1.0, "facets": [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": 2}]},
        {"dim": 1, "facets": [{"normal": ["x"], "offset": 0}, {"normal": [-1], "offset": 2}]},
        {"dim": 1, "facets": [{"normal": [1.0], "offset": 0}, {"normal": [-1], "offset": 2}]},
        {"dim": 1, "facets": [{"normal": [True], "offset": 0}, {"normal": [-1], "offset": 2}]},
        {"dim": 1, "facets": [{"normal": 1, "offset": 0}, {"normal": [-1], "offset": 2}]},
    ],
)
def test_from_dict_rejects_non_integer_entries(data):
    # nothing is coerced: 2.7 must not be read as the offset 2
    with pytest.raises(InvalidInputError):
        Polytope.from_dict(data)


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = (-1) ** inversions
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


@pytest.mark.parametrize(
    "m",
    [
        [[0, 1], [1, 0]],
        [[2, 1], [1, 3]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[0, 2, 1], [3, 0, -1], [1, 1, 1]],
        [[1, 2, 3], [2, 4, 6], [0, 1, 1]],
    ],
)
def test_row_reduce_solves_square_systems(m):
    # the integer eliminator: every entry stays an int, each reduced row is
    # d = |det| at its pivot and 0 at the other pivots, and its carried
    # column is d times the solution
    n = len(m)
    rhs = [1, -2, 5][:n]
    reduced, pivots, leads, det = lattice.bareiss_reduce([row + [b] for row, b in zip(m, rhs)], n)
    assert type(det) is int
    assert all(type(x) is int for row in reduced + leads for x in row)
    want = leibniz_det(m)
    if want == 0:
        assert len(pivots) < n
        return
    assert det == want
    d = abs(det)
    for e, p in zip(reduced, pivots):
        assert e[p] == d and all(e[q] == 0 for q in pivots if q != p)
    x = {p: e[n] for e, p in zip(reduced, pivots)}
    for row, b in zip(m, rhs):
        assert sum(row[j] * x[j] for j in range(n)) == d * b
    # each lead starts at its pivot and vanishes at the earlier pivots
    for k, (lead, p) in enumerate(zip(leads, pivots)):
        assert lead[p] != 0 and not any(lead[:p])
        assert all(lead[q] == 0 for q in pivots[:k])


@given(
    st.integers(1, 4).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.lists(
                st.lists(st.integers(-4, 4), min_size=width + 2, max_size=width + 2),
                max_size=5,
            ),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_bareiss_reduce_scales_the_fraction_reduction(case):
    # against the Fraction Gauss-Jordan reference: the same pivots and
    # determinant, each reduced row |det| times the reference one, and each
    # lead a positive multiple of the reference lead
    width, rows = case
    reduced, pivots, leads, det = lattice.bareiss_reduce(rows, width)
    want_reduced, want_pivots, want_leads, want_det = reference_row_reduce(rows, width)
    assert pivots == want_pivots and det == want_det
    d = abs(det)
    assert [[Fraction(x, d) for x in e] for e in reduced] == want_reduced
    for lead, want, p in zip(leads, want_leads, pivots):
        scale = lead[p] / want[p]
        assert scale > 0 and [scale * x for x in want] == lead


# ------------------------------------------------------------------ vertices


def brute_force_vertices(P):
    """All points obtained by solving every n-subset of facet equalities that
    lies in P; rational solves via Fraction elimination."""
    n, r = P.dim, P.facet_count
    found = set()
    for subset in itertools.combinations(range(r), n):
        rows = [
            [Fraction(x) for x in P.normals[i]] + [Fraction(-P.offsets[i])]
            for i in subset
        ]
        # Gaussian elimination
        mat = [row[:] for row in rows]
        cols = []
        for col in range(n):
            piv = next((k for k in range(len(cols), n) if mat[k][col] != 0), None)
            if piv is None:
                break
            mat[len(cols)], mat[piv] = mat[piv], mat[len(cols)]
            prow = mat[len(cols)]
            prow[:] = [x / prow[col] for x in prow]
            for k in range(n):
                if k != len(cols) and mat[k][col] != 0:
                    f = mat[k][col]
                    mat[k] = [a - f * b for a, b in zip(mat[k], prow)]
            cols.append(col)
        if len(cols) < n:
            continue
        sol = [mat[i][n] for i in range(n)]
        if all(
            sum(a * b for a, b in zip(sol, v)) + a0 >= 0
            for v, a0 in zip(P.normals, P.offsets)
        ):
            found.add(tuple(sol))
    return found


@pytest.mark.parametrize("u", [(1, 1, 1), (1,), ()])
def test_slacks_and_contains_reject_a_point_of_another_dimension(hexagon, u):
    for call in (hexagon.slacks, hexagon.contains):
        with pytest.raises(InvalidInputError, match="coordinates"):
            call(u)


@pytest.mark.parametrize(
    "name",
    ["segment_2", "hexagon", "simplex_p2", "square_p1xp1", "trapezoid_f1",
     "cube", "simplex3", "hexagon_prism"],
)
def test_vertex_enumeration_matches_brute_force(polytopes, solids, name):
    P = {**polytopes, **solids}[name]
    vs = lattice.enumerate_vertices(P)
    assert {v.point for v in vs} == {
        tuple(int(c) for c in p) for p in brute_force_vertices(P)
    }
    for vd in vs:
        # every vertex satisfies all inequalities
        assert P.contains(vd.point)
        # dual-basis contract: pairing of edge directions with the vertex
        # normals is the identity matrix
        for col in range(P.dim):
            for row in range(P.dim):
                pair = sum(
                    a * b
                    for a, b in zip(vd.edge_dirs[col], P.normals[vd.facet_set[row]])
                )
                assert pair == (1 if col == row else 0)


def test_degenerate_segment_has_one_cone_per_facet():
    P = fixtures.load("segment_0")
    vs = lattice.enumerate_vertices(P)
    assert [v.point for v in vs] == [(0,), (0,)]
    assert {v.facet_set for v in vs} == {(0,), (1,)}


_HEXAGON = fixtures.load("hexagon").normals
_TRAPEZOID = fixtures.load("trapezoid_f1").normals

# lower-dimensional polytopes whose independent facet pairs are no complete
# fan: at parent commits they validated as smooth, and their corner sums
# missed the lattice-point side
NO_FAN = {
    "point hexagon": Polytope(2, _HEXAGON, (0,) * 6),
    "hexagon point (0, 0, 0, 2, 0, 2)": Polytope(2, _HEXAGON, (0, 0, 0, 2, 0, 2)),
    "hexagon edge (0, 0, 2, 2, 0, 0)": Polytope(2, _HEXAGON, (0, 0, 2, 2, 0, 0)),
    "point trapezoid": Polytope(2, _TRAPEZOID, (0,) * 4),
}


def fan_cases():
    """Every fixture, every fixture at offsets 0 but the hexagon and
    trapezoid_f1, and the square's normals at (0, 0, 2, 0), a segment."""
    for name in fixtures.NAMES:
        P = fixtures.load(name)
        yield name, P
        if name not in ("hexagon", "trapezoid_f1"):
            yield name + " at 0", Polytope(P.dim, P.normals, (0,) * P.facet_count)
    yield "square edge", Polytope(2, fixtures.load("square_p1xp1").normals, (0, 0, 2, 0))


@pytest.mark.parametrize("label", sorted(NO_FAN))
def test_facet_subsets_that_are_no_complete_fan_are_not_smooth(tmp_path, label):
    from qbrion import cli

    P = NO_FAN[label]
    report = lattice.validate(P)
    assert not report.smooth and not report.full_dimensional
    assert any(p.endswith("facet subsets, not 2") for p in report.problems)
    with pytest.raises(SmoothnessError):
        lattice.enumerate_vertices(P)
    path = tmp_path / "P.json"
    path.write_text(P.to_json())
    assert cli.main(["verify", str(path), "--order", "6"]) == 3


@pytest.mark.parametrize("label,P", list(fan_cases()), ids=[label for label, _ in fan_cases()])
def test_facet_subsets_of_a_complete_fan_verify(label, P):
    from qbrion import brion

    report = lattice.validate(P)
    assert report.smooth and not report.problems, label
    assert brion.verify_identity(P, 6).equal, label


def scan_cases(polytopes, solids):
    """Every fixture at dilations 1-3 and translated, the 3-D solids, and
    polytopes the smooth scan must flag or see as degenerate or empty."""
    for name, P in polytopes.items():
        for k in (1, 2, 3):
            Q = Polytope(P.dim, P.normals, tuple(k * a for a in P.offsets))
            yield "%s*%d" % (name, k), Q
            yield "%s*%d+shift" % (name, k), translate(Q, (3, -5)[: P.dim])
    for name, P in solids.items():
        yield name, Polytope(P.dim, P.normals, P.offsets)
    # the vertex (0, 1/2) is not integral
    yield "non-integral", Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 1)])
    # facets 0 and 2 meet at (0, 2) with determinant -2
    yield "det -2", Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 4)])
    # (2, 2) lies on three facets
    yield "three facets", Polytope.from_facets(
        2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), 2), ((0, -1), 2), ((-1, -1), 4)]
    )
    # degenerate offsets: the triangle and the cube shrunk to a point
    yield "point triangle", Polytope(2, polytopes["simplex_p2"].normals, (0, 0, 0))
    yield "point cube", Polytope(3, solids["cube"].normals, (0,) * 6)
    yield "flat cube", Polytope(3, solids["cube"].normals, (0, 0, 0, 1, 1, 0))
    # lower-dimensional, with facet subsets that are no complete fan
    for label, P in NO_FAN.items():
        yield label, P
    yield "empty", Polytope(2, ((1, 0), (0, 1), (-1, -1)), (-1, -1, 1))
    yield "empty segment", Polytope.from_facets(1, [((1,), -1), ((-1,), 0)])


def test_integer_vertex_scan_matches_the_fraction_scan(polytopes, solids):
    # every field of the scan, problem texts, determinants and the signs of
    # the support basis included, equals the Fraction elimination's; the
    # points stay Fraction tuples and the determinants ints
    for label, P in scan_cases(polytopes, solids):
        geo, want = vars(lattice.Geometry(P)), reference_geometry(P)
        assert sorted(geo) == sorted(want), label
        for field in want:
            assert geo[field] == want[field], (label, field)
        for (point, _, det), (want_point, _, _) in zip(geo["solutions"], want["solutions"]):
            assert type(det) is int, label
            assert all(type(x) is Fraction for x in point + want_point), label
        if want["smooth"] and want["solutions"]:
            assert lattice.Geometry(P).vertices == [
                lattice.VertexData(
                    point=tuple(int(x) for x in point),
                    facet_set=subset,
                    edge_dirs=tuple(reference_inverse_unimodular([P.normals[i] for i in subset])),
                )
                for point, subset, _ in sorted(want["solutions"])
            ], label


def test_scan_cases_cover_the_flagged_and_degenerate_polytopes(polytopes, solids):
    # the cases above reach every branch of the scan the comparison is for
    geos = {label: lattice.Geometry(P) for label, P in scan_cases(polytopes, solids)}
    assert any("non-integral" in p for p in geos["non-integral"].problems)
    assert any(det == -2 for _, _, det in geos["det -2"].solutions)
    assert [p.endswith("lies on 3 facets, expected 2") for p in geos["three facets"].problems] == [True]
    assert len(geos["point triangle"].solutions) == 3 and len(geos["point triangle"].points) == 1
    assert not geos["flat cube"].full_dimensional
    assert len(geos["flat cube"].support_basis) == 2
    assert len(geos["segment_0*1"].solutions) == 2
    assert geos["empty"].solutions == [] and geos["empty"].box is None
    assert geos["empty segment"].box is None


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(-3, 3)] * n).filter(lambda v: any(v) and math.gcd(*v) == 1),
            min_size=1,
            max_size=n + 3,
            unique=True,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_boundedness_matches_the_fraction_check(normals):
    assert lattice._is_bounded(tuple(normals)) == reference_is_bounded(tuple(normals))


def test_vertex_scan_runs_once_per_polytope(monkeypatch):
    P = lattice.dilate(fixtures.load("hexagon"), 2)  # a fresh object, not scanned yet
    solves = []
    reduce = lattice.bareiss_reduce

    def counting(rows, width):
        rows = list(rows)
        if len(rows) == width and all(len(row) == width + 1 for row in rows):
            solves.append(rows)  # one facet system [A | -a]
        return reduce(rows, width)

    monkeypatch.setattr(lattice, "bareiss_reduce", counting)
    lattice.validate(P)
    assert "vertices" not in vars(P.geometry)  # validate leaves the cones lazy
    lattice.enumerate_vertices(P)
    lattice.vertex_points(P)
    lattice.basic_solutions(P)
    P.geometry.active_facets
    measures.max_face_value(P)
    for _ in range(100):
        measures.potential(P, (2.0, 2.0))
    assert len(solves) == math.comb(P.facet_count, P.dim)


# ------------------------------------------------------------- lattice points


def brute_force_points(P):
    vs = brute_force_vertices(P)
    lo = [min(v[i] for v in vs) for i in range(P.dim)]
    hi = [max(v[i] for v in vs) for i in range(P.dim)]
    out = []
    import math

    ranges = [
        range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)
    ]
    for u in itertools.product(*ranges):
        if P.contains(u):
            out.append(u)
    return sorted(out)


@pytest.mark.parametrize("name", list(fixtures.NAMES))
def test_lattice_points_match_brute_force(polytopes, name):
    P = polytopes[name]
    assert lattice.lattice_points(P) == brute_force_points(P)


def test_points_with_slacks_consistency(hexagon):
    for point, slacks in lattice.points_with_slacks(hexagon):
        assert slacks == hexagon.slacks(point)
        assert all(s >= 0 for s in slacks)


def brute_force_rows(P):
    """(prefix, lo, hi, slacks at lo) for each row, by testing every point
    of a box one unit wider than the brute-force vertices' in lexicographic
    order; each row must come out as one run of consecutive points."""
    vs = brute_force_vertices(P)
    if not vs:
        return []
    ranges = [
        range(math.floor(min(v[j] for v in vs)) - 1, math.ceil(max(v[j] for v in vs)) + 2)
        for j in range(P.dim)
    ]
    runs = {}
    for u in itertools.product(*ranges):
        if P.contains(u):
            prefix, t = u[:-1], u[-1]
            lo, hi = runs.get(prefix, (t, t - 1))
            assert t == hi + 1, u
            runs[prefix] = (lo, t)
    return [(prefix, lo, hi, P.slacks(prefix + (lo,))) for prefix, (lo, hi) in runs.items()]


def triangle_prism(k):
    """The triangle x, y >= 0, x + y <= 2k times the segment -1 <= z <= k:
    its normal (-1, -1, 0) leaves the box corners x + y > 2k with no row."""
    return Polytope(
        3,
        ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)),
        (0, 0, 2 * k, 1, k),
    )


def row_walk_cases(polytopes, solids):
    for name, P in polytopes.items():
        for k in (1, 2, 3, 4):
            Q = lattice.dilate(P, k)
            yield "%s*%d" % (name, k), Q
            yield "%s*%d+shift" % (name, k), translate(Q, (3, -5)[: P.dim])
            if P.dim == 2:
                yield "sheared %s*%d" % (name, k), sheared(Q)
                yield "skewed %s*%d" % (name, k), skewed(Q)
    for name, P in solids.items():
        for k in (1, 2, 3):
            yield "%s*%d" % (name, k), lattice.dilate(P, k)
    for m in (0, 1, 4):
        yield "segment %d" % m, segment(m)
        yield "segment %d-3" % m, translate(segment(m), (-3,))
    for k in (1, 2, 3):
        yield "triangle_prism*%d" % k, triangle_prism(k)


def test_points_with_slacks_flattens_rows_with_slacks(polytopes, solids):
    """Each row is the maximal run of lattice points over its prefix, with the
    slacks at its low end, exactly as a box scan finds it; the rows in prefix
    order, flattened, are the points_with_slacks sequence and the brute-force
    point list."""
    for label, P in row_walk_cases(polytopes, solids):
        rows = list(lattice.rows_with_slacks(P))
        assert rows == brute_force_rows(P), label
        prefixes = [prefix for prefix, _, _, _ in rows]
        assert prefixes == sorted(set(prefixes)), label
        flat = []
        for prefix, lo, hi, slacks in rows:
            assert lo <= hi, label
            assert slacks == P.slacks(prefix + (lo,)), label
            assert not P.contains(prefix + (lo - 1,)), label
            assert not P.contains(prefix + (hi + 1,)), label
            flat += [(prefix + (t,), P.slacks(prefix + (t,))) for t in range(lo, hi + 1)]
        assert list(lattice.points_with_slacks(P)) == flat, label
        assert [u for u, _ in flat] == brute_force_points(P), label


def test_rows_with_slacks_of_an_empty_polytope():
    for P in (
        Polytope(2, ((1, 0), (0, 1), (-1, -1)), (-1, -1, 1)),  # x, y >= 1, x + y <= 1
        Polytope.from_facets(1, [((1,), -1), ((-1,), 0)]),  # 1 <= x <= 0
    ):
        assert brute_force_rows(P) == []
        assert list(lattice.rows_with_slacks(P)) == []
        assert list(lattice.points_with_slacks(P)) == []


def test_a_flat_facet_leaves_heads_of_the_box_without_a_row():
    # normal (-1, -1, 0) has last entry 0: it cuts the corners x + y > 4 off
    # the (x, y) box, so 10 of its 25 heads have no row
    P = triangle_prism(2)
    lo, hi = P.geometry.box
    heads = {prefix for prefix, _, _, _ in lattice.rows_with_slacks(P)}
    assert len(heads) == 15 < (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) == 25


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_sorted_slacks_lists_points_with_their_multisets(polytopes, name):
    P = lattice.dilate(polytopes[name], 2)
    flat = list(lattice.points_with_slacks(P))
    assert lattice.sorted_slacks(P) == ([u for u, _ in flat], [tuple(sorted(s)) for _, s in flat])


def test_slack_sum_constant_on_radially_symmetric(polytopes):
    for name in ("segment_5", "hexagon", "simplex_p2", "square_p1xp1"):
        P = polytopes[name]
        total = P.offset_sum()
        for point, slacks in lattice.points_with_slacks(P):
            assert sum(slacks) == total, name


def test_dilate_ehrhart_counts(hexagon):
    # smooth hexagon has Ehrhart polynomial 3k^2 + 3k + 1
    for k in (1, 2, 3, 5):
        Q = lattice.dilate(hexagon, k)
        assert len(lattice.lattice_points(Q)) == 3 * k * k + 3 * k + 1


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_dilation_of_a_scanned_smooth_polytope_scales_its_geometry(polytopes, solids, k):
    # the scan of kP is P's scan with every point and the box times k: the
    # same facet subsets, determinants, edge directions and flags
    def times_k(point):
        return tuple(k * x for x in point)

    def rest(geo):
        return {f: x for f, x in vars(geo).items() if f not in ("solutions", "points", "box", "vertices")}

    for name, P in [*polytopes.items(), *solids.items()]:
        geo = P.geometry
        assert geo.smooth, name
        got = lattice.dilate(P, k).geometry
        assert got.solutions == [(times_k(p), subset, det) for p, subset, det in geo.solutions], name
        assert got.points == [times_k(p) for p in geo.points], name
        assert got.box == tuple([k * x for x in bound] for bound in geo.box), name
        assert got.vertices == [replace(vd, point=times_k(vd.point)) for vd in geo.vertices], name
        assert rest(got) == rest(geo), name


def test_polytopes_on_known_normals_skip_the_boundedness_check(monkeypatch, polytopes):
    # boundedness depends on the normals alone: a dilation, an offset shift or
    # a derived divisor of a polytope already built does no row reduction
    built = {name: Polytope(P.dim, P.normals, P.offsets) for name, P in polytopes.items()}
    solves = []
    reduce = lattice.bareiss_reduce

    def counting(rows, width):
        solves.append(width)
        return reduce(rows, width)

    monkeypatch.setattr(lattice, "bareiss_reduce", counting)
    for name, P in built.items():
        for k in (1, 2, 5):
            lattice.dilate(P, k)
        Polytope(P.dim, P.normals, tuple(a + 1 for a in P.offsets))
        assert solves == [], name


def test_unbounded_normals_are_rejected_every_time():
    for _ in range(2):
        with pytest.raises(InvalidInputError):
            Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0)])
        with pytest.raises(InvalidInputError):
            Polytope.from_facets(2, [((1, 0), 3), ((0, 1), 1), ((-1, 1), 2)])


def test_dilation_of_a_non_smooth_polytope_is_scanned_anew():
    # the vertex (0, 1/2) is not integral, but (0, 1) in the dilation is
    P = Polytope.from_facets(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 1)])
    assert any("non-integral" in p for p in P.geometry.problems)
    Q = lattice.dilate(P, 2)
    assert "geometry" not in vars(Q)
    assert not any("non-integral" in p for p in Q.geometry.problems)
    assert vars(Q.geometry) == vars(lattice.Geometry(Q))


@pytest.mark.parametrize("k", [0, -2, True, False, 1.0, 2.0, "2"])
def test_dilate_rejects_non_positive_or_non_integer_factors(hexagon, k):
    with pytest.raises(InvalidInputError):
        lattice.dilate(hexagon, k)


def test_dilate_by_one_is_the_polytope_itself(polytopes):
    for P in polytopes.values():
        assert lattice.dilate(P, 1) is P


def test_segment_point_counts():
    for m in (0, 1, 2, 5, 9):
        assert len(lattice.lattice_points(segment(m))) == m + 1


# --------------------------------------------------------------- file format


def test_json_roundtrip(hexagon):
    Q = Polytope.from_json(hexagon.to_json())
    assert Q.to_dict() == hexagon.to_dict()
    assert Q.content_hash() == hexagon.content_hash()


def test_from_dict_rejects_malformed():
    with pytest.raises(InvalidInputError):
        Polytope.from_dict({"dim": 2})
    with pytest.raises(InvalidInputError):
        Polytope.from_dict({"dim": 2, "facets": [{"normal": [1], "offset": 0}]})
    with pytest.raises(InvalidInputError):
        Polytope.from_json("not json at all {")


def test_from_file(tmp_path, hexagon):
    path = tmp_path / "hex.json"
    path.write_text(hexagon.to_json())
    Q = Polytope.from_file(str(path))
    assert Q.to_dict() == hexagon.to_dict()


# --------------------------------------------------------- degree enumeration


def box_kernel_vectors(P, ranges):
    """All integer kernel vectors b (sum_i b_i v_i = 0) with lo_i <= b_i <=
    hi_i, ranges[i] = (lo_i, hi_i), in lexicographic order.  The box is
    scanned one value of b_0 at a time, by one integer matrix product."""
    normals = np.array(P.normals, dtype=np.int64)
    rest = np.stack(
        np.meshgrid(*(np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges[1:]), indexing="ij"),
        axis=-1,
    ).reshape(-1, len(ranges) - 1)
    base = rest @ normals[1:]
    out = []
    for b0 in range(ranges[0][0], ranges[0][1] + 1):
        hits = rest[~(base + b0 * normals[0]).any(axis=1)]
        out.extend((b0,) + tuple(map(int, b)) for b in hits)
    return out


def kernel_vectors_in_box(P, bound):
    """All nonnegative integer kernel vectors with every entry <= bound."""
    return box_kernel_vectors(P, [(0, bound)] * P.facet_count)


def nonnegative_valuation(P, b):
    """sum_i b_i (b_i + 1)/2 + a_i b_i: the q-power of a nonnegative degree vector."""
    return sum(x * (x + 1) // 2 + a * x for x, a in zip(b, P.offsets))


def nonnegative_corner_degrees(P, vd, order):
    """The entrywise nonnegative vectors among one vertex's corner degrees."""
    return [
        b for b in lattice.enumerate_corner_degrees(P, vd, order) if min(b) >= 0
    ]


@pytest.mark.parametrize("name", ["segment_2", "simplex_p2", "square_p1xp1", "trapezoid_f1"])
def test_enumerate_degrees_brute_force(polytopes, name):
    # every vertex sees all nonnegative kernel vectors of valuation <= K
    P = polytopes[name]
    K = 6
    want = sorted(
        b
        for b in kernel_vectors_in_box(P, 2 * K + 2)
        if sum(b) <= 2 * K + 2 and nonnegative_valuation(P, b) <= K
    )
    for vd in lattice.enumerate_vertices(P):
        assert nonnegative_corner_degrees(P, vd, K) == want, vd.point


def test_enumerate_degrees_hexagon_brute_force(hexagon):
    K = 4
    want = sorted(
        b
        for b in kernel_vectors_in_box(hexagon, K + 1)
        if nonnegative_valuation(hexagon, b) <= K
    )
    for vd in lattice.enumerate_vertices(hexagon):
        assert nonnegative_corner_degrees(hexagon, vd, K) == want, vd.point


def test_enumerate_degrees_monotone_in_order(hexagon):
    # the nonnegative part is the same at every vertex and grows with the order
    vertices = lattice.enumerate_vertices(hexagon)
    small = {tuple(nonnegative_corner_degrees(hexagon, vd, 3)) for vd in vertices}
    large = {tuple(nonnegative_corner_degrees(hexagon, vd, 7)) for vd in vertices}
    assert len(small) == len(large) == 1
    assert set(small.pop()) <= set(large.pop())


def test_degree_valuation_values(hexagon):
    # all-ones vector: sum of d(d+1)/2 plus the offset pairing, at every vertex
    b = (1, 1, 1, 1, 1, 1)
    for vd in lattice.enumerate_vertices(hexagon):
        assert lattice.corner_degree_valuation(hexagon, vd, b) == 6 * 1 + sum(hexagon.offsets)


# ------------------------------------------------------ corner degree vectors


def corner_vectors_brute_force(P, vd, order, bound):
    """Signed kernel vectors, nonnegative off the vertex facet set, with
    corner valuation <= order; entries scanned over [-bound, bound]."""
    ranges = [(-bound if i in vd.facet_set else 0, bound) for i in range(P.facet_count)]
    return [
        b
        for b in box_kernel_vectors(P, ranges)
        if lattice.corner_degree_valuation(P, vd, b) <= order
    ]


@pytest.mark.parametrize("name", ["hexagon", "trapezoid_f1", "square_p1xp1", "simplex_p2"])
def test_enumerate_corner_degrees_brute_force(polytopes, name):
    P = polytopes[name]
    K = 5
    for vd in lattice.enumerate_vertices(P):
        got = lattice.enumerate_corner_degrees(P, vd, K)
        assert got == corner_vectors_brute_force(P, vd, K, bound=K + 3), (
            name,
            vd.point,
        )


def test_corner_degrees_monotone(hexagon):
    for vd in lattice.enumerate_vertices(hexagon):
        small = set(lattice.enumerate_corner_degrees(hexagon, vd, 3))
        large = set(lattice.enumerate_corner_degrees(hexagon, vd, 8))
        assert small <= large


def test_corner_degrees_on_product_fan_match_global_set(square):
    # product-of-segments fan: the relation lattice splits, so every corner
    # sees exactly the globally nonnegative kernel vectors
    K = 7
    global_set = {
        b for b in kernel_vectors_in_box(square, K + 1) if nonnegative_valuation(square, b) <= K
    }
    for vd in lattice.enumerate_vertices(square):
        assert set(lattice.enumerate_corner_degrees(square, vd, K)) == global_set


def test_corner_degrees_hexagon_include_signed_vector(hexagon):
    vd = next(
        v for v in lattice.enumerate_vertices(hexagon) if v.point == (0, 0)
    )
    b = (1, -1, 1, 0, 0, 0)
    assert lattice.corner_degree_valuation(hexagon, vd, b) == 3
    assert b in lattice.enumerate_corner_degrees(hexagon, vd, 3)
    assert b not in lattice.enumerate_corner_degrees(hexagon, vd, 2)


def test_corner_valuation_rejects_negative_free_entry(hexagon):
    vd = next(
        v for v in lattice.enumerate_vertices(hexagon) if v.point == (0, 0)
    )
    with pytest.raises(InvalidInputError):
        lattice.corner_degree_valuation(hexagon, vd, (0, 0, -1, 0, 0, -1))


def test_point_fan_has_single_empty_degree():
    P = segment(0)
    for vd in lattice.enumerate_vertices(P):
        assert lattice.enumerate_corner_degrees(P, vd, 0) == [(0, 0)]


@given(
    st.sampled_from(fixtures.NAMES),
    st.integers(1, 4),
    st.lists(st.integers(-6, 6), min_size=2, max_size=2),
    st.integers(0, 10),
)
@settings(max_examples=60, deadline=None)
def test_corner_degrees_translation_invariant(name, k, shift, K):
    # the degree sets depend on the vertex slacks only, which a lattice
    # translation leaves alone
    P = lattice.dilate(fixtures.load(name), k)
    Q = translate(P, shift[: P.dim])
    for vd, wd in zip(lattice.enumerate_vertices(P), lattice.enumerate_vertices(Q), strict=True):
        assert wd.point == tuple(x + y for x, y in zip(vd.point, shift))
        assert lattice.enumerate_corner_degrees(Q, wd, K) == lattice.enumerate_corner_degrees(
            P, vd, K
        )


def test_corner_valuation_is_slack_form(polytopes, solids):
    # on the kernel, sum_i a_i b_i = sum_i b_i s_i(p): the valuation is a sum
    # of nonnegative terms
    cases = [lattice.dilate(P, k) for P in polytopes.values() for k in (1, 3)]
    cases += [translate(polytopes["hexagon"], (5, -7)), translate(polytopes["trapezoid_f1"], (-3, 4))]
    cases += list(solids.values())
    K = 8
    for P in cases:
        for vd in lattice.enumerate_vertices(P):
            slacks = P.slacks(vd.point)
            for b in lattice.enumerate_corner_degrees(P, vd, K):
                assert all(
                    sum(bi * v[j] for bi, v in zip(b, P.normals)) == 0 for j in range(P.dim)
                )
                val = lattice.corner_degree_valuation(P, vd, b)
                assert val == sum(bi * s for bi, s in zip(b, slacks)) + sum(
                    bi * (bi + 1) // 2 for bi in b if bi > 0
                )
                assert 0 <= val <= K


@pytest.mark.parametrize(
    "name, k, shift, K", [("hexagon", 1, (5, -7), 3), ("trapezoid_f1", 3, (0, 0), 6)]
)
def test_corner_degrees_moved_polytopes_brute_force(polytopes, name, k, shift, K):
    # every order up to K, so that vectors right at the order are checked
    P = translate(lattice.dilate(polytopes[name], k), shift)
    for vd in lattice.enumerate_vertices(P):
        want = corner_vectors_brute_force(P, vd, K, bound=K + 3)
        for order in range(K + 1):
            assert lattice.enumerate_corner_degrees(P, vd, order) == [
                b for b in want if lattice.corner_degree_valuation(P, vd, b) <= order
            ], (vd.point, order)
