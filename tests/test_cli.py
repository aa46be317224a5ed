"""End-to-end command line checks: formats, determinism, exit codes."""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbrion import brion, cli, fixtures, jackson, lattice, measures
from qbrion.qalg import QPolynomial, TruncatedQSeries


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qbrion", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    paths = {}
    for name in fixtures.NAMES:
        path = root / (name + ".json")
        path.write_text(fixtures.text(name))
        paths[name] = str(path)
    return paths


# ------------------------------------------------------------------ validate


def test_validate_hexagon(fixture_files):
    r = run_cli("validate", fixture_files["hexagon"])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["smooth"] is True
    assert payload["radially_symmetric"] is True
    assert payload["vertex_count"] == 6
    assert payload["lattice_point_count"] == 7


def test_validate_missing_file_exit_2(tmp_path):
    r = run_cli("validate", str(tmp_path / "nope.json"))
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_validate_non_utf8_file_exit_2(tmp_path):
    path = tmp_path / "latin1.json"
    # a valid segment but for its encoding
    text = '{"dim": 1, "facets": [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": 2}], "name": "\u00e9"}'
    path.write_bytes(text.encode("latin-1"))
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: cannot read %s: " % path), r.stderr
    assert "Traceback" not in r.stderr


def test_validate_malformed_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    r = run_cli("validate", str(path))
    assert r.returncode == 2


@pytest.mark.parametrize(
    "facets, dim",
    [
        ([{"normal": [1], "offset": 0}, {"normal": [-1], "offset": 2.7}], 1),
        ([{"normal": [1, 0], "offset": 0}], "2"),
        ([{"normal": ["x"], "offset": 0}, {"normal": [-1], "offset": 2}], 1),
    ],
)
@pytest.mark.parametrize("command", ["validate", "rs"])
def test_non_integer_entries_exit_2(tmp_path, command, facets, dim):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": dim, "facets": facets}))
    r = run_cli(command, str(path))
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


# -------------------------------------------------------------------- verify


def test_verify_hexagon_and_determinism(fixture_files):
    args = ("verify", fixture_files["hexagon"], "--order", "10", "--trials", "2", "--seed", "1")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    payload = json.loads(first.stdout)
    assert payload["equal"] is True
    assert payload["first_mismatch"] is None
    # wall-clock timing never lands in the payload, only on stderr
    assert "elapsed_ms" not in payload
    assert "elapsed_ms" in first.stderr
    assert first.stdout == second.stdout


def test_verify_theorem1_on_asymmetric_exit_3(fixture_files):
    r = run_cli("verify", fixture_files["trapezoid_f1"], "--theorem1")
    assert r.returncode == 3


def test_verify_non_smooth_exit_3(tmp_path):
    path = tmp_path / "bad_triangle.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "facets": [
                    {"normal": [1, 0], "offset": 0},
                    {"normal": [0, 1], "offset": 0},
                    {"normal": [-1, -2], "offset": 2},
                ],
            }
        )
    )
    r = run_cli("verify", str(path), "--order", "4", "--trials", "1")
    assert r.returncode == 3


def test_verify_output_file(fixture_files, tmp_path):
    out = tmp_path / "report.json"
    r = run_cli(
        "verify", fixture_files["segment_2"], "--order", "8", "--output", str(out)
    )
    assert r.returncode == 0
    assert json.loads(out.read_text())["equal"] is True


# ------------------------------------------------------------------------ rs


def test_rs_segment_2(fixture_files):
    r = run_cli("rs", fixture_files["segment_2"])
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"[0]": [1], "[1]": [1, 1], "[2]": [1]}


def test_rs_needs_radial_symmetry(fixture_files):
    r = run_cli("rs", fixture_files["trapezoid_f1"])
    assert r.returncode == 3


# ----------------------------------------------------------------------- lhs


def test_lhs_segment_2(fixture_files):
    r = run_cli("lhs", fixture_files["segment_2"], "--order", "3")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert set(payload) == {"[0]", "[1]", "[2]"}
    # endpoint weight 1/(q;q)_2 = 1 + q + 2 q^2 + 2 q^3 + ...
    assert payload["[0]"] == [1, 1, 2, 2]
    # midpoint weight 1/(q;q)_1^2 = 1 + 2q + 3q^2 + 4q^3
    assert payload["[1]"] == [1, 2, 3, 4]


# -------------------------------------------------------------------- measure


def test_measure_trapezoid_rows(fixture_files):
    r = run_cli("measure", fixture_files["trapezoid_f1"])
    assert r.returncode == 0
    rows = list(csv.DictReader(r.stdout.splitlines()))
    table = {
        (int(row["u_1"]), int(row["u_2"])): (
            int(row["weight_num"]),
            int(row["weight_den"]),
        )
        for row in rows
    }
    assert table == {(0, 1): (1, 4), (1, 1): (1, 2), (2, 1): (1, 4)}
    floats = [float(row["weight_float"]) for row in rows]
    assert abs(sum(floats) - 1.0) < 1e-12


def test_measure_dilated_segment(fixture_files):
    r = run_cli("measure", fixture_files["segment_1"], "--dilate", "4")
    rows = list(csv.DictReader(r.stdout.splitlines()))
    nums = {int(row["u_1"]): int(row["weight_num"]) for row in rows}
    assert nums == {0: 1, 1: 1, 2: 3, 3: 1, 4: 1}
    dens = {int(row["u_1"]): int(row["weight_den"]) for row in rows}
    assert dens == {0: 16, 1: 4, 2: 8, 3: 4, 4: 16}


# ----------------------------------------------------------------- asymptotics


def test_asymptotics_hexagon(fixture_files):
    r = run_cli("asymptotics", fixture_files["hexagon"], "--k", "2,8")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert any(line.startswith("# minimizer") for line in lines)
    data_rows = [l for l in lines if l and l[0].isdigit()]
    assert len(data_rows) == 2


def test_asymptotics_needs_radial_symmetry(fixture_files):
    r = run_cli("asymptotics", fixture_files["trapezoid_f1"], "--k", "2")
    assert r.returncode == 3


# sha256 of `qbrion asymptotics P --k ks` on every balanced fixture, recorded
# from the numpy model (numpy 2.4.6 on OpenBLAS 0.3.31) that the plain-Python
# one replaced; pinned here rather than compared live, as another BLAS may
# round differently
ASYMPTOTICS_SHA256 = {
    ("hexagon", "25,100,400"): "81a73303b323dbb71a4dbbb990a1050382a13205a94261654f9cd79a9859e644",
    ("hexagon", "2,8"): "6b2c2f65da5e231a561013be936833ec67316ddf16015b48137b88bf9f34b5f6",
    ("hexagon", "5,20,80"): "74694cdc4033732fc191cf33cb5bab30fefd5529e1cd8410e61dfd4f909b6c10",
    ("hexagon", "1,3"): "8d2bae48927c67c23faade4c6be1c00c16a91e36aa9bc0b768cfe2701db614c0",
    ("simplex_p2", "25,100,400"): "c87d0f328357051ff57b0f319528c63247e824e3fda3ceb9bf39e8d6950b20a8",
    ("simplex_p2", "2,8"): "80afaee367636ccd454b76ee9c4275c0ac1dc72d567bb00bd2c731b747f5391e",
    ("simplex_p2", "5,20,80"): "5b13ab454441802829e10d46b36bf03cb13934e9a3fb801d1bffef2417ef5678",
    ("simplex_p2", "1,3"): "f754a8bb7de2ee7a0eb7e6cde32f8fc5e315184ed048a6863493e33c12287185",
    ("square_p1xp1", "25,100,400"): "613e134ab6867a904398c6a5bcee08d91ba3ecd20dda23a8e0dab0b1a73af0b7",
    ("square_p1xp1", "2,8"): "eeb3306515eb8024ffe014d9f7020cf6bc837107b201b8e376ec648852c75c54",
    ("square_p1xp1", "5,20,80"): "f286cf84a096bf5cec113abdec406ba74471f88e20b340725ad4d4a6114172dd",
    ("square_p1xp1", "1,3"): "afd7917b3f5ab1407ce035336ffe8527259b2bf0c645dc89fe945303c2aad6f1",
    ("segment_1", "25,100,400"): "e073738818afaba5433f72c2ee6370e98b50f56b8571f0b4bafeb20f337261b7",
    ("segment_1", "2,8"): "1bc02913edd48c0fb55417099ae30c3b8a2c8445f60ecfd097904f90bb68c649",
    ("segment_1", "5,20,80"): "00c52e4f3167d45eba49ff160ae132d34fad7b8b837aa77e7cbb7ba86ef1f478",
    ("segment_1", "1,3"): "b33dbb95d1ed2cedb99edbfcaaa248b90909d9558246159c9ff6a7c5d17217dd",
    ("segment_2", "25,100,400"): "9d9e19b072afc1dfb2c6cee341f8c8093dfaab1d6e46d2174a95e3ce263d2b18",
    ("segment_2", "2,8"): "fdb4c5de46c170031dad174a29de6558c23f66f8822573c1a43c49b8731cf711",
    ("segment_2", "5,20,80"): "cc9d92cca89ca7ac0729dfa97c79db8e8d22c9dc41cc739f8c69ed3570698a43",
    ("segment_2", "1,3"): "1ddf0c98b7366bdd7952a6842d21878a178eaab398e364aa8dab6827e46179bc",
    ("segment_5", "25,100,400"): "3b49841908e8c6a73bba58ce1fb38a7107da1be0b132a2235d54fdb72f2f24c6",
    ("segment_5", "2,8"): "2b5e29751e7fc630bb5875f8d8c0fe499dd67e7817373d3f8f6f96bc03387268",
    ("segment_5", "5,20,80"): "906859470b77095ac3787da9a23d10884b95c7a48fb63f1cdb7198958a8a12d4",
    ("segment_5", "1,3"): "341e47eb8224cc0ddeb310b41c6fa9cf0c29cdd2db27949dc07e9a21cc3c4641",
}


@pytest.mark.parametrize("name, ks", sorted(ASYMPTOTICS_SHA256))
def test_asymptotics_output_bytes_are_pinned(fixture_files, tmp_path, name, ks):
    out = tmp_path / "out.tsv"
    assert cli.main(["asymptotics", fixture_files[name], "--k", ks, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ASYMPTOTICS_SHA256[name, ks]


# -------------------------------------------------------------------- heatmap


def test_heatmap_files_sum_and_symmetry(fixture_files, tmp_path):
    base = tmp_path / "heat"
    k = 6
    r = run_cli(
        "heatmap",
        fixture_files["hexagon"],
        "--dilate",
        str(k),
        "--q",
        "0.2,0.9",
        "--output",
        str(base),
    )
    assert r.returncode == 0
    for qtag in ("0.2", "0.9"):
        path = tmp_path / ("heat_q%s.tsv" % qtag)
        assert path.exists()
        rows = [line.split("\t") for line in path.read_text().strip().splitlines()]
        assert rows[0] == ["u_1", "u_2", "weight"]
        table = {
            (int(a), int(b)): float(w) for a, b, w in rows[1:]
        }
        assert abs(math.fsum(table.values()) - 1.0) <= 1e-12
        for (a, b), w in table.items():
            assert table[(2 * k - a, 2 * k - b)] == w


def test_heatmap_determinism(fixture_files, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        r = run_cli(
            "heatmap",
            fixture_files["hexagon"],
            "--dilate",
            "3",
            "--q",
            "0.5",
            "--output",
            str(out),
        )
        assert r.returncode == 0
    a = (tmp_path / "a_q0.5.tsv").read_bytes()
    b = (tmp_path / "b_q0.5.tsv").read_bytes()
    assert a == b


def test_heatmap_rejects_asymmetric_exit_3(fixture_files, tmp_path):
    r = run_cli(
        "heatmap",
        fixture_files["trapezoid_f1"],
        "--q",
        "0.5",
        "--output",
        str(tmp_path / "x"),
    )
    assert r.returncode == 3


def test_heatmap_rejects_bad_q(fixture_files, tmp_path):
    # a bad token after a good one must not leave the good one's table behind
    for qs in ("1.5", "0.5,abc", "0.3,1.5"):
        r = run_cli(
            "heatmap",
            fixture_files["hexagon"],
            "--q",
            qs,
            "--output",
            str(tmp_path / "x"),
        )
        assert r.returncode == 2, qs
        assert list(tmp_path.glob("x_q*.tsv")) == [], qs


def test_heatmap_matches_one_weight_table_per_q(fixture_files, tmp_path, capsys):
    base = tmp_path / "h"
    tokens = ("0.2", "0.61", "0.9")
    argv = ["heatmap", fixture_files["hexagon"], "--dilate", "5", "--q", ",".join(tokens)]
    assert cli.main(argv + ["--output", str(base)]) == 0
    assert capsys.readouterr().out.split() == [str(base) + "_q%s.tsv" % tok for tok in tokens]
    Q = lattice.dilate(fixtures.load("hexagon"), 5)
    for tok in tokens:
        lines = ["u_1\tu_2\tweight"]
        for point, w in measures.log_weight_table(Q, float(tok)):
            lines.append("\t".join([str(x) for x in point] + [repr(w)]))
        expected = ("\n".join(lines) + "\n").encode("utf-8")
        assert (tmp_path / ("h_q%s.tsv" % tok)).read_bytes() == expected, tok


def test_heatmap_walks_the_points_once_for_all_q(fixture_files, tmp_path, monkeypatch, capsys):
    Q = lattice.dilate(fixtures.load("hexagon"), 4)
    multisets = {tuple(sorted(t)) for _, t in lattice.points_with_slacks(Q)}
    walks, exps = [], []
    walk, exp = lattice.sorted_slacks, math.exp

    def counting_walk(P):
        walks.append(P)
        return walk(P)

    def counting_exp(x):
        exps.append(x)
        return exp(x)

    monkeypatch.setattr(lattice, "sorted_slacks", counting_walk)
    monkeypatch.setattr(math, "exp", counting_exp)
    argv = ["heatmap", fixture_files["hexagon"], "--dilate", "4", "--q", "0.2,0.5,0.8"]
    assert cli.main(argv + ["--output", str(tmp_path / "h")]) == 0
    capsys.readouterr()
    assert walks.count(Q) == 1
    assert len(exps) == 3 * len(multisets)


def test_heatmap_reports_each_table_as_it_is_written(fixture_files, tmp_path):
    base = tmp_path / "base"
    (tmp_path / "base_q0.6.tsv").mkdir()  # the second table cannot be written
    r = run_cli("heatmap", fixture_files["hexagon"], "--dilate", "2", "--q", "0.2,0.6",
                "--output", str(base))
    assert r.returncode == 2
    assert r.stdout.split() == [str(base) + "_q0.2.tsv"]
    assert (tmp_path / "base_q0.2.tsv").is_file()
    assert r.stderr.startswith("error: cannot write"), r.stderr


# -------------------------------------------------------------------- jackson


def test_jackson_axis_report(fixture_files):
    r = run_cli("jackson", fixture_files["simplex_p2"], "--axis", "1")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["holds"] is True
    assert payload["axis"] == 1


def test_jackson_axis_needs_first_orthant_symmetric(fixture_files):
    r = run_cli("jackson", fixture_files["trapezoid_f1"], "--axis", "1")
    assert r.returncode == 3


def test_jackson_ladder_report():
    r = run_cli("ladder", "1,4")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["all_ok"] is True
    assert payload["convention"] == "vars_with_one"


def test_jackson_requires_exactly_one_mode(fixture_files):
    # --axis is required, and the ladder is its own command, `ladder n,k`
    r = run_cli("jackson", fixture_files["hexagon"])
    assert r.returncode == 2
    for extra in ([], ["--axis", "1"]):
        r = run_cli("jackson", fixture_files["hexagon"], *extra, "--ladder", "2,1")
        assert r.returncode == 2
        assert r.stdout == ""


def test_jackson_ladder_reads_no_polytope(monkeypatch, capsys):
    # the report depends on n and k alone
    def no_file(path):
        raise AssertionError("ladder read %s" % path)

    monkeypatch.setattr(lattice.Polytope, "from_file", no_file)
    assert cli.main(["ladder", "2,1"]) == 0
    report = jackson.verify_ladder(2, 1)
    report["failures"] = [list(f) for f in report["failures"]]
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"


# -------------------------------------------------------------- input guards

EMPTY_TRIANGLE = {  # x, y >= 0, x + y <= -1
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "offset": 0},
        {"normal": [0, 1], "offset": 0},
        {"normal": [-1, -1], "offset": -1},
    ],
}

EVERY_COMMAND = [
    ["validate"],
    ["verify", "--order", "4"],
    ["rs"],
    ["lhs", "--order", "4"],
    ["measure"],
    ["asymptotics", "--k", "2"],
    ["heatmap", "--q", "0.5"],
    ["jackson", "--axis", "1"],
    ["ladder", "2,1"],
]


def _argv(command, path):
    """command with the polytope path after its name; ladder takes none."""
    return command if command[0] == "ladder" else [command[0], path, *command[1:]]


@pytest.mark.parametrize(
    "command", EVERY_COMMAND[:-1], ids=lambda c: "_".join(c).replace("-", "")
)
def test_every_command_that_reads_a_polytope_rejects_an_empty_one(tmp_path, command, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(EMPTY_TRIANGLE))
    argv = [command[0], str(path)] + command[1:] + ["--output", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: the half-space intersection is empty\n"
    assert list(tmp_path.iterdir()) == [path]


def test_only_the_validate_command_builds_a_validation_report(
    fixture_files, tmp_path, monkeypatch, capsys
):
    calls = []
    validate = lattice.validate

    def counting(P):
        calls.append(command[0])
        return validate(P)

    monkeypatch.setattr(lattice, "validate", counting)
    for i, command in enumerate(EVERY_COMMAND):
        argv = _argv(command, fixture_files["hexagon"])
        assert cli.main(argv + ["--output", str(tmp_path / str(i))]) in (0, 1), command
    capsys.readouterr()
    assert calls == ["validate"]


# -------------------------------------------------------------- output paths


@pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["verify", "--order", "4"],
        ["rs"],
        ["lhs", "--order", "4"],
        ["measure"],
        ["asymptotics", "--k", "2"],
        ["jackson", "--axis", "1"],
        ["ladder", "2,1"],
        ["heatmap", "--q", "0.5"],  # --output is the base path of the tables
    ],
)
def test_unwritable_output_exit_2(fixture_files, tmp_path, command):
    out = tmp_path / "missing" / "out"
    r = run_cli(*_argv(command, fixture_files["simplex_p2"]), "--output", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: cannot write"), r.stderr
    assert "Traceback" not in r.stderr


def test_readme_cli_table_flags_exist():
    # every --flag a row of README's subcommand table shows is an option of
    # that subcommand, so a removed option cannot stay advertised
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        rows = re.findall(r"^\| `(\w+)(?: P\.json)?([^`]*)` \|", fh.read(), re.M)
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert {command for command, _ in rows} == set(subparsers)
    for command, usage in rows:
        options = subparsers[command]._option_string_actions
        for flag in re.findall(r"--[\w-]+", usage):
            assert flag in options, (command, flag)


# -------------------------------------------------------------- JSON writers


def _json_oracle(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _table_oracle(poly):
    return _json_oracle({json.dumps(list(u)): list(c.coeffs) for u, c in poly.terms.items()})


JSON_COMMANDS = [
    ["validate"],
    ["verify"],
    ["verify", "--theorem1"],
    ["rs"],
    ["lhs"],
    ["jackson", "--axis", "1"],
    ["ladder", "2,1"],
]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", fixtures.NAMES)
def test_json_writer_matches_json_dumps_on_cli_outputs(tmp_path, monkeypatch, capsys, name, k):
    # each JSON command hands one object to one of the two writers, and its
    # output is json.dumps of that object (for a table, of its int lists)
    path = tmp_path / "P.json"
    path.write_text(lattice.dilate(fixtures.load(name), k).to_json())
    seen = []
    report, table = cli._json_report, cli._table_text

    def report_spy(obj):
        seen.append(_json_oracle(obj))
        return report(obj)

    def table_spy(poly):
        seen.append(_table_oracle(poly))
        return table(poly)

    monkeypatch.setattr(cli, "_json_report", report_spy)
    monkeypatch.setattr(cli, "_table_text", table_spy)
    written = 0
    for command in JSON_COMMANDS:
        out = tmp_path / "out.json"
        if out.exists():
            out.unlink()
        seen.clear()
        code = cli.main(_argv(command, str(path)) + ["--output", str(out)])
        assert len(seen) == (1 if code in (0, 1) else 0), (command, code)
        if seen:
            assert out.read_text(encoding="utf-8") == seen[0], command
            written += 1
    capsys.readouterr()
    assert written >= 4


_big_ints = st.one_of(st.integers(-9, 9), st.integers(min_value=-(2**200), max_value=2**200))


@st.composite
def _tables(draw):
    # 1-3 variables, exponents with negative and multi-digit entries (so the
    # string order of the keys differs from the tuple order), each term one of
    # a few coefficient objects, so that several terms share one
    n = draw(st.integers(1, 3))
    coefficients = st.lists(_big_ints, min_size=1, max_size=6).map(QPolynomial)
    pool = draw(st.lists(coefficients, min_size=1, max_size=4))
    points = draw(st.lists(st.tuples(*[st.integers(-120, 120)] * n), unique=True, max_size=16))
    return brion.LaurentQPoly({u: draw(st.sampled_from(pool)) for u in points})


@settings(max_examples=200, deadline=None)
@given(_tables())
@example(brion.LaurentQPoly())
def test_json_writer_matches_json_dumps(poly):
    assert "".join(cli._table_text(poly)) == _table_oracle(poly)


_SHARED = QPolynomial((3, 1, 4, 1, 5))
_SINGLE = QPolynomial((-(2**100), 0, 7))
_SHARED_SERIES = TruncatedQSeries(4, (3, 1, 4, 1, 5))
_SINGLE_SERIES = TruncatedQSeries(2, (-(2**100), 0, 7))


@pytest.mark.parametrize(
    "poly",
    [
        # a shared object between terms that hold their own, its text kept
        # across them: int polynomials as rs hands them, int series as lhs does
        {(0,): _SHARED, (1,): _SINGLE, (-1,): _SHARED, (12,): QPolynomial((1,))},
        {(0,): _SHARED_SERIES, (1,): _SINGLE_SERIES, (-1,): _SHARED_SERIES},
        # every term shares one object, at keys whose string order is not their order
        {u: _SHARED for u in [(-1, 0), (-10, 2), (2, -3), (10, 0), (9, 0)]},
        {u: _SHARED_SERIES for u in [(-1, 0), (-10, 2), (2, -3), (10, 0), (9, 0)]},
        # two objects, each shared, with big and negative ints, in three variables
        {(i, -i, 3 * i): (_SHARED, _SINGLE)[i % 2] for i in range(-4, 5)},
    ],
    # the ids of the nested-object cases of the general renderer these replace
    ids=["two-depths", "two-depths-list", "one-depth", "one-depth-list", "value-and-element"],
)
def test_json_writer_renders_shared_objects_like_json_dumps(poly):
    poly = brion.LaurentQPoly(poly)
    assert "".join(cli._table_text(poly)) == _table_oracle(poly)


class _CountedCoefficient:
    """A coefficient that counts how often its list is read."""

    is_zero = False

    def __init__(self, coeffs):
        self._coeffs, self.reads = coeffs, 0

    @property
    def coeffs(self):
        self.reads += 1
        return self._coeffs


def test_table_writer_converts_each_distinct_coefficient_once():
    # lhs gives points with the same slack multiset one series object; the
    # writer renders each such object once
    series = brion.lhs_series(lattice.dilate(fixtures.load("hexagon"), 3), 12)
    counted = {id(s): _CountedCoefficient(s.coeffs) for s in series.terms.values()}
    assert len(counted) < len(series.terms)
    poly = brion.LaurentQPoly({u: counted[id(s)] for u, s in series.terms.items()})
    assert "".join(cli._table_text(poly)) == _table_oracle(series)
    assert [c.reads for c in counted.values()] == [1] * len(counted)


_RADIAL = [name for name in fixtures.NAMES if fixtures.load(name).is_radially_symmetric()]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", _RADIAL)
def test_rs_and_lhs_write_what_json_dumps_writes(tmp_path, capsys, name, k):
    # the streamed writer against json.dumps of data built from the library,
    # to stdout and to --output
    P = lattice.dilate(fixtures.load(name), k)
    path = tmp_path / "P.json"
    path.write_text(P.to_json())
    rs = {json.dumps(list(u)): list(c.coeffs) for u, c in brion.rs_polynomial(P).terms.items()}
    lhs = {json.dumps(list(u)): list(c.coeffs) for u, c in brion.lhs_series(P, 12).terms.items()}
    for command, data in (("rs", rs), ("lhs", lhs)):
        want = _json_oracle(data)
        capsys.readouterr()
        assert cli.main([command, str(path)]) == 0
        assert capsys.readouterr().out == want, command
        out = tmp_path / (command + ".json")
        assert cli.main([command, str(path), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == want, command


def _traced_peak_and_size(tmp_path, P, command):
    # the traced peak of a whole call, and the size of the file it writes
    path, out = tmp_path / "P.json", tmp_path / "out.json"
    path.write_text(P.to_json())
    argv = [command[0], str(path)] + command[1:] + ["--output", str(out)]
    cli.main(argv)  # warm the caches first
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out.stat().st_size


def test_rs_output_is_streamed(tmp_path):
    # the peak stays below the file size: no full document is built in memory
    peak, size = _traced_peak_and_size(tmp_path, lattice.dilate(fixtures.load("hexagon"), 8), ["rs"])
    assert size > 5 * 10**6
    assert peak < size, (peak, size)


def test_lhs_output_is_streamed(tmp_path):
    # as for rs; the int series that lhs_series holds are most of the peak,
    # so the order is high enough for the file to outweigh them
    P = lattice.dilate(fixtures.load("hexagon"), 20)
    peak, size = _traced_peak_and_size(tmp_path, P, ["lhs", "--order", "150"])
    assert size > 4 * 10**6
    assert peak < size, (peak, size)


def test_json_writer_yields_one_top_level_entry_at_a_time():
    shared = QPolynomial((1, 2, 3))
    poly = brion.LaurentQPoly({(1,): shared, (0,): shared, (-1,): QPolynomial((4,))})
    pieces = list(cli._table_text(poly))
    assert len(pieces) == len(poly.terms) + 1
    assert "".join(pieces) == _table_oracle(poly)


# ------------------------------------------------------------ repeated calls


def _outputs(tmp_path, tag, commands, run):
    """Run each command with --output under tmp_path/tag; the bytes of every
    file written, with the stdout of each run, paths made relative."""
    root = tmp_path / tag
    root.mkdir()
    seen = []
    for i, command in enumerate(commands):
        out = root / ("c%d" % i)
        code, stdout = run(command + ["--output", str(out)])
        seen.append((code, stdout.replace(str(root), "<root>")))
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
    return seen, files


def test_repeated_main_calls_write_what_fresh_calls_write(fixture_files, tmp_path, capsys):
    hexagon, trapezoid = fixture_files["hexagon"], fixture_files["trapezoid_f1"]
    commands = [
        ["verify", hexagon, "--order", "6", "--theorem1"],
        ["heatmap", hexagon, "--dilate", "2"],
        ["verify", hexagon],  # the defaults again, after other values
        ["measure", trapezoid, "--dilate", "2"],
        ["ladder", "2,2"],
        ["heatmap", hexagon, "--q", "0.5"],
        ["jackson", hexagon, "--axis", "1"],
        ["rs", hexagon],
        ["validate", trapezoid],
    ]

    def in_process(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    def fresh(argv):
        r = run_cli(*argv)
        return r.returncode, r.stdout

    assert _outputs(tmp_path, "in_process", commands, in_process) == _outputs(
        tmp_path, "fresh", commands, fresh
    )
