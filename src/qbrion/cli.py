"""Command line surface for the library.

main loads the polytope from a JSON facet file once, rejects an empty one
and hands it to the subcommand (ladder, which needs only n and k, reads
none), which emits a deterministic report: JSON by json.dumps for
verification and operator checks, JSON tables streamed one entry at a time
for rs and lhs, CSV for measures, TSV for asymptotics tables and heatmap
weights.  Exit codes: 0 success, 1 verification mismatch, 2 invalid input
(an unreadable polytope file, an empty polytope or an unwritable output
path too), 3 precondition violation.  Identical invocations produce
byte-identical output files; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import sys

from . import brion, jackson, lattice, measures
from .errors import ConvergenceError, InvalidInputError, PreconditionError


def _write_text(path, text):
    """text, a str or an iterable of str pieces, to stdout (path None or
    "-") or to the file at path, the pieces joined into writes of about
    64 KiB; a failed write is InvalidInputError, as a failed read of the
    polytope file is."""
    if path is None or path == "-":
        _write_pieces(sys.stdout, text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _write_pieces(fh, text)
    except OSError as exc:
        raise InvalidInputError("cannot write %s: %s" % (path, exc)) from exc


def _write_pieces(fh, text):
    if isinstance(text, str):
        text = (text,)
    batch, size = [], 0
    for piece in text:
        batch.append(piece)
        size += len(piece)
        if size >= 1 << 16:
            fh.write("".join(batch))
            batch, size = [], 0
    fh.write("".join(batch))


def _json_report(obj):
    # the small reports: validate, verify, jackson and ladder
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _table_text(poly):
    """The pieces of the JSON object that maps each term u -> c of the
    LaurentQPoly poly, its coefficients ints, to the list c.coeffs under the
    key _exponent_key(u): joined, byte for byte what _json_report writes for
    that object.

    One piece per entry, in json's key order, so the whole document is never
    held in memory.  json runs its C encoder only without an indent, so each
    int list is one "%d" template.  A coefficient object that several terms
    share (rs and lhs give every point with the same slack multiset the same
    one) is rendered once, and only such texts are kept.
    """
    entries = {_exponent_key(u): c for u, c in poly.terms.items()}
    counts = collections.Counter(map(id, entries.values()))
    texts = {}
    sep = "{\n  "
    for key in sorted(entries):
        c = entries[key]
        text = texts.get(id(c))
        if text is None:
            xs = c.coeffs
            text = "[\n    " + ("%d" + ",\n    %d" * (len(xs) - 1)) % xs + "\n  ]"
            if counts[id(c)] > 1:
                texts[id(c)] = text
        yield sep + '"' + key + '": ' + text
        sep = ",\n  "
    yield "\n}\n" if entries else "{}\n"


def _exponent_key(u):
    # json.dumps(list(u)) for a tuple of ints
    return "[%s]" % ", ".join(map(str, u))


def _tsv_vector(xs):
    # the asymptotics TSV format: a vector's entries by repr, comma-separated
    return ",".join(map(repr, xs))


def _tsv_matrix(rows):
    # ... and a matrix's rows, semicolon-separated
    return ";".join(map(_tsv_vector, rows))


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %d" % value)
    return value


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list") from None


def cmd_validate(P, args):
    report = lattice.validate(P)
    data = report.to_dict()
    data["content_hash"] = P.content_hash()
    data["facet_count"] = P.facet_count
    data["dim"] = P.dim
    _write_text(args.output, _json_report(data))
    return 0


def cmd_verify(P, args):
    report = brion.verify_identity(
        P,
        order=args.order,
        trials=args.trials,
        seed=args.seed,
        finite_form=args.theorem1,
    )
    data = report.to_dict()
    # timing to stderr so output files stay byte-identical across runs, and
    # after the report, so a failed write prints its error alone
    elapsed = data.pop("elapsed_ms")
    _write_text(args.output, _json_report(data))
    print("elapsed_ms: %.3f" % elapsed, file=sys.stderr)
    return 0 if report.equal else 1


def cmd_rs(P, args):
    _write_text(args.output, _table_text(brion.rs_polynomial(P)))
    return 0


def cmd_lhs(P, args):
    _write_text(args.output, _table_text(brion.lhs_series(P, args.order)))
    return 0


def cmd_measure(P, args):
    Q = lattice.dilate(P, args.dilate)
    measure = measures.mu_measure(Q)
    n = Q.dim
    lines = [",".join(["u_%d" % (j + 1) for j in range(n)] + ["weight_num", "weight_den", "weight_float"])]
    for u in measure.support():
        w = measure.atoms[u]
        lines.append(
            ",".join([str(x) for x in u] + [str(w.numerator), str(w.denominator), repr(float(w))])
        )
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_asymptotics(P, args):
    ks = args.k
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])) or ks[0] < 1:
        raise InvalidInputError("--k needs an ascending list of positive integers")
    report = measures.convergence_report(P, ks)
    model = report["model"]
    lines = [
        "# minimizer\t" + _tsv_vector(model.minimizer),
        "# precision\t" + _tsv_matrix(model.precision),
        "# covariance\t" + _tsv_matrix(model.covariance),
        "# support_basis\t" + _tsv_matrix(model.support_basis),
        "# active_set\t" + _tsv_vector(model.active_set),
        "k\tpoints\tmean_scaled\tcov_scaled\tmean_err\tcov_err\tcov_rel_err",
    ]
    for row in report["rows"]:
        lines.append("\t".join([
            str(row["k"]), str(row["points"]),
            _tsv_vector(row["mean_scaled"]), _tsv_matrix(row["cov_scaled"]),
            repr(row["mean_err"]), repr(row["cov_err"]), repr(row["cov_rel_err"]),
        ]))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_heatmap(P, args):
    if P.dim != 2:
        raise PreconditionError("heatmap needs a 2-dimensional polytope")
    lattice.require_radially_symmetric(P)
    Q = lattice.dilate(P, args.dilate)
    q_tokens = [tok for tok in args.q.split(",") if tok]
    if not q_tokens:
        raise InvalidInputError("--q needs at least one value")
    qs = []
    for tok in q_tokens:  # all of them before any table is written
        try:
            q = float(tok)
        except ValueError:
            raise InvalidInputError("bad q value %r" % tok) from None
        if not 0.0 < q < 1.0:
            raise InvalidInputError("q must lie strictly between 0 and 1, got %r" % tok)
        qs.append(q)
    # one walk over the points for every q: each point's coordinate columns
    # are written once, each distinct weight's text once per q
    points, keys = measures._slack_keys(Q, "weight table")
    header = "\t".join(["u_%d" % (j + 1) for j in range(Q.dim)] + ["weight"]) + "\n"
    template = "%d\t" * Q.dim
    columns = [template % point for point in points]
    for tok, q in zip(q_tokens, qs):
        weights = measures._multiset_weights(keys, q)
        text = {key: repr(w) + "\n" for key, w in weights.items()}
        path = "%s_q%s.tsv" % (args.output, tok)
        _write_text(path, header + "".join(map(str.__add__, columns, map(text.__getitem__, keys))))
        print(path)  # at once, so a later failed write leaves no table unreported
    return 0


def cmd_jackson(P, args):
    axis = args.axis
    if axis < 1 or axis > P.dim:
        raise InvalidInputError("--axis must lie in 1..%d" % P.dim)
    D = jackson.FirstOrthantDivisor.from_polytope(P)
    result = jackson.verify_derivative_identity(D, axis - 1)
    result["axis"] = axis
    _write_text(args.output, _json_report(result))
    return 0 if result["holds"] else 1


def cmd_ladder(args):
    if len(args.degrees) != 2:
        raise InvalidInputError("ladder needs n,k")
    report = jackson.verify_ladder(*args.degrees)
    _write_text(args.output, _json_report(report))
    return 0 if report["all_ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qbrion",
        description="q-weighted lattice point enumeration on smooth polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("polytope", help="polytope facet JSON file")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "structural report: smoothness, symmetry, counts")

    p = command("verify", cmd_verify, "randomized exact check of the corner decomposition")
    p.add_argument("--order", type=_positive_int, default=12, help="truncation order K")
    p.add_argument("--trials", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--theorem1",
        action="store_true",
        help="after the corner sum, also compare the lattice-point side times "
        "(q;q)_m with the symmetric-weight polynomial (needs normals summing to zero)",
    )

    command("rs", cmd_rs, "symmetric-weight polynomial as JSON")

    p = command("lhs", cmd_lhs, "truncated weight series per lattice point as JSON")
    p.add_argument("--order", type=_positive_int, default=12)

    p = command("measure", cmd_measure, "multinomial limit measure as CSV")
    p.add_argument("--dilate", type=_positive_int, default=1)

    p = command("asymptotics", cmd_asymptotics, "Gaussian model and scaled-moment errors as TSV")
    p.add_argument("--k", type=_int_list, default=[25, 100, 400], help="ascending dilations")

    p = command("heatmap", cmd_heatmap, "normalized q-weight tables, one TSV per q")
    p.add_argument("--dilate", type=_positive_int, default=1)
    p.add_argument("--q", default="0.2,0.6,0.9", help="comma-separated q values in (0,1)")

    p = command("jackson", cmd_jackson, "derivative recursion check along one axis")
    p.add_argument("--axis", type=int, required=True, help="1-based axis for the derivative identity")

    p = sub.add_parser("ladder", help="ladder identity report, no polytope")
    p.add_argument("degrees", type=_int_list, metavar="n,k",
                   help="variable count n and top degree k")

    # --output last, after each command's own options, as usage lists them
    for name, p in sub.choices.items():
        if name == "heatmap":
            p.add_argument("--output", default="heatmap", help="output base path")
        else:
            p.add_argument("--output", default=None, help="output path (default stdout)")
    return parser


# built once per process: parse_args reads the parser and changes nothing in it
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "ladder":  # the one command that reads no polytope
            return cmd_ladder(args)
        P = lattice.require_nonempty(lattice.Polytope.from_file(args.polytope))
        return args.func(P, args)
    except InvalidInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (PreconditionError, ConvergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
