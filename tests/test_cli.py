"""End-to-end command line checks: formats, determinism, exit codes."""

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrion import brion, cli, fixtures, jackson, lattice, measures


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
    walk, exp = lattice.points_with_slacks, math.exp

    def counting_walk(P):
        walks.append(P)
        return walk(P)

    def counting_exp(x):
        exps.append(x)
        return exp(x)

    monkeypatch.setattr(lattice, "points_with_slacks", counting_walk)
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


# --------------------------------------------------------------- JSON writer


def _json_oracle(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
    path = tmp_path / "P.json"
    path.write_text(lattice.dilate(fixtures.load(name), k).to_json())
    seen = []
    writer = cli._json_text

    def spy(obj):
        seen.append(obj)
        return writer(obj)

    monkeypatch.setattr(cli, "_json_text", spy)
    written = 0
    for command in JSON_COMMANDS:
        out = tmp_path / "out.json"
        if out.exists():
            out.unlink()
        seen.clear()
        code = cli.main(_argv(command, str(path)) + ["--output", str(out)])
        assert len(seen) == (1 if code in (0, 1) else 0), (command, code)
        if seen:
            assert out.read_text(encoding="utf-8") == _json_oracle(seen[0]), command
            written += 1
    capsys.readouterr()
    assert written >= 4


_json_leaves = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00", "\u00e9\u4e2d\U0001f600", ""]),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_json_writer_matches_json_dumps(obj):
    assert "".join(cli._json_text(obj)) == _json_oracle(obj)


_SHARED = (3, 1, 4, 1, 5)
_SHARED_LIST = [True, None, 2.5, "x", [7, 8]]


@pytest.mark.parametrize(
    "obj",
    [
        # one tuple at two depths: rendered at each indent
        {"a": _SHARED, "b": [_SHARED, {"c": _SHARED}]},
        [_SHARED, [[_SHARED]]],
        # one tuple repeated at one depth
        {"[0, 0]": _SHARED, "[0, 1]": _SHARED, "[1, 0]": _SHARED},
        [_SHARED] * 4,
        # one list that is a dict value and an element of a nested list
        {"a": _SHARED_LIST, "b": [[_SHARED_LIST], _SHARED_LIST], "c": [{"d": _SHARED_LIST}]},
    ],
    ids=["two-depths", "two-depths-list", "one-depth", "one-depth-list", "value-and-element"],
)
def test_json_writer_renders_shared_objects_like_json_dumps(obj):
    assert "".join(cli._json_text(obj)) == _json_oracle(obj)


@pytest.mark.parametrize("obj", [{1: 2}, {None: 1}, {(1, 2): 3}, {"a": [{2.5: 1}]}])
def test_json_writer_rejects_keys_that_are_not_str(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj)


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
    lhs = {json.dumps(list(u)): [int(x) for x in c.coeffs] for u, c in brion.lhs_series(P, 12).terms.items()}
    for command, data in (("rs", rs), ("lhs", lhs)):
        want = _json_oracle(data)
        capsys.readouterr()
        assert cli.main([command, str(path)]) == 0
        assert capsys.readouterr().out == want, command
        out = tmp_path / (command + ".json")
        assert cli.main([command, str(path), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == want, command


def test_rs_output_is_streamed(tmp_path, capsys):
    # the traced peak of a whole rs call stays below the size of the file it
    # writes: no full document is built in memory
    path, out = tmp_path / "P.json", tmp_path / "rs.json"
    path.write_text(lattice.dilate(fixtures.load("hexagon"), 8).to_json())
    cli.main(["rs", str(path), "--output", str(out)])  # warm the caches first
    tracemalloc.start()
    try:
        assert cli.main(["rs", str(path), "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 5 * 10**6
    assert peak < size, (peak, size)


def test_json_writer_checks_keys_before_the_first_piece(tmp_path):
    # a bad key deep in a later entry raises before any piece is written
    # and before the output file is opened
    obj = {"a": [1, 2], "b": [{"c": 1}, {2: 3}]}
    with pytest.raises(TypeError):
        cli._json_text(obj)
    out = tmp_path / "out.json"
    with pytest.raises(TypeError):
        cli._write_text(str(out), cli._json_text(obj))
    assert not out.exists()


def test_json_writer_yields_one_top_level_entry_at_a_time():
    shared = (1, 2, 3)
    obj = {"b": shared, "a": shared, "c": {"d": [shared]}}
    pieces = list(cli._json_text(obj))
    assert len(pieces) == len(obj) + 1
    assert "".join(pieces) == _json_oracle(obj)


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
