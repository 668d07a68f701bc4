"""Command-line front end for construction, certification, lifting, and tables.

Every run produces a RunReport; the process exits 0 exactly when the report
status is "pass", 1 on a failed verdict, 2 on bad input, and 3 on a defect:
an internal invariant that failed (AssertionError) or memory that ran out,
reported on stderr with status "defect". Every report value, in text and in
--json, is serialized by `_render`, which gives both forms in one place, and
an artifact (gen's matrix, lift's edge list) goes to -o FILE, into the --json
report, or to stdout through `_deliver`. File formats:
`verify` and `spectrum` read matrix files, `lift`, `ramanujan` and
`switch-classes` read signed-graph files, `twograph` reads triple files.
Passing "-" reads the input from stdin. A command takes one parser pass: argv that
names a subcommand goes to that subcommand's parser alone (`_parse_args`), and
only argv it cannot take whole goes through the full parser, for its usage and errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import constructions, core, io, lifts_ramanujan, spectra, twographs


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: list[tuple[str, object]] = field(default_factory=list)
    status: str = "pass"
    quiet_text: bool = False  # gen's matrix went to stdout, which must stay a parseable file

    def add(self, label: str, value) -> None:
        self.results.append((label, value))


def _render(value) -> tuple[str, object]:
    """The text and JSON forms of one report value."""
    if value is None:
        return "absent", None
    if isinstance(value, bool):
        return ("true" if value else "false"), value
    if isinstance(value, (int, np.integer)):
        return str(value), int(value)
    if isinstance(value, float):
        return spectra.text_float(value), spectra.json_float(value)
    if isinstance(value, core.OrthogonalityCertificate):
        return f"alpha = {value.alpha}", {"alpha": value.alpha}
    if isinstance(value, spectra.TwoEigCertificate):
        lam, mu = value.lam, value.mu
        return (f"a = {value.a}, b = {value.b}, lambda = {spectra.text_float(lam)} "
                f"(x{value.mult_lam}), mu = {spectra.text_float(mu)} (x{value.mult_mu})",
                {"a": value.a, "b": value.b, "lambda": spectra.json_float(lam),
                 "mu": spectra.json_float(mu), "mult_lambda": value.mult_lam,
                 "mult_mu": value.mult_mu})
    if isinstance(value, spectra.Spectrum):
        return str(value), [{"value": spectra.json_float(v), "multiplicity": m}
                            for v, m in value.pairs]
    return str(value), str(value)


def _emit(report: RunReport, as_json: bool, stream=None) -> None:
    out = stream or sys.stdout
    inputs = [(key, *_render(value)) for key, value in report.inputs.items()]
    results = [(label, *_render(value)) for label, value in report.results]
    if as_json:
        payload = {
            "command": report.command,
            "inputs": {key: js for key, _, js in inputs},
            "results": [{"label": label, "value": js} for label, _, js in results],
            "status": report.status,
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        lines = [f"command: {report.command}"]
        lines += [f"input {key}: {text}" for key, text, _ in inputs]
        lines += [f"{label}: {text}" for label, text, _ in results]
        lines.append(f"status: {report.status}")
        print("\n".join(lines), file=out)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _deliver(report: RunReport, args, label: str, text: str) -> bool:
    """Send an artifact to -o FILE (reporting `written: FILE`), into the --json report
    under label, or else to stdout; True when it went to stdout."""
    to_file = args.output not in (None, "-")
    if args.as_json:
        report.add(label, text)
    elif not to_file:
        sys.stdout.write(text)
        return True
    if to_file:
        Path(args.output).write_text(text)
        report.add("written", args.output)
    return False


GEN_KINDS = ("hadamard", "conference", "williamson", "double", "kron", "conference-block")
# the kinds that read each gen flag; the argparse dest is the flag without its dashes
GEN_FLAG_READERS = {"-k": ("hadamard",), "-q": ("conference",), "--preset": ("williamson",),
                    "--input": ("williamson", "double", "kron", "conference-block")}


def _gen_matrix(args) -> core.SignedMatrix:
    """The generated matrix, which keeps the certificate its construction proved."""
    kind = args.kind
    for flag, readers in GEN_FLAG_READERS.items():
        if getattr(args, flag.lstrip("-")) is not None and kind not in readers:
            raise ValueError(f"kind {kind!r} does not read {flag}")
    inputs = [io.parse_matrix(_read_text(f)) for f in (args.input or [])]

    def one_input() -> core.SignedMatrix:
        if len(inputs) != 1:
            raise ValueError(f"kind {kind!r} needs exactly one --input matrix file")
        return inputs[0]

    if kind == "hadamard":
        if args.k is None:
            raise ValueError("kind 'hadamard' needs -k, the base-two exponent of the order")
        return constructions.sylvester_hadamard(args.k)
    if kind == "conference":
        if args.q is None:
            raise ValueError("kind 'conference' needs -q, a prime congruent to 1 mod 4")
        return constructions.paley_conference(args.q)
    if kind == "williamson":
        if args.preset is None:
            raise ValueError("kind 'williamson' needs --preset")
        return constructions.williamson_preset(one_input(), args.preset)
    if kind == "double":
        return constructions.double(one_input())[0]
    if kind == "conference-block":
        return constructions.conference_block(one_input())
    if len(inputs) != 2:
        raise ValueError("kind 'kron' needs exactly two --input matrix files")
    return constructions.kronecker_orthogonal(*inputs)[0]


def cmd_gen(args) -> RunReport:
    report = RunReport("gen", {"kind": args.kind})
    m = _gen_matrix(args)
    text = io.format_matrix(m)
    if args.certify:
        alpha = core.is_orthogonal(m).alpha  # the construction's kept certificate
        text += f"alpha = {alpha}\n"
        report.add("alpha", alpha)
    report.add("order", f"{m.rows}x{m.cols}")
    report.quiet_text = _deliver(report, args, "matrix", text)
    return report


def cmd_verify(args) -> RunReport:
    """One certificate decides every line: symmetric zero-diagonal M has M^2 = alpha I iff
    it certifies with a = 0, b = -alpha (zero trace rules out odd orders); star(M) certifies
    iff M is orthogonal, with a = 0, alpha = -b, so it is built only for eigvalsh, which
    only uncertified input reaches, and only at an order eigvalsh solves. An all-zero M
    has the one eigenvalue 0 and no certificate: a failed verdict, not bad input."""
    report = RunReport("verify", {"file": args.file})
    m = io.parse_matrix(_read_text(args.file))
    if not m.is_square:
        raise ValueError(f"matrix must be square to verify, got {m.rows}x{m.cols}")
    try:
        sg, obj = core.SignedGraph(m), "matrix"
    except ValueError:
        sg, obj = None, "star"
    cert = (spectra.star_certificate(m) if sg is None
            else spectra.certify_two_eigenvalues(sg) if sg.data.any() else None)
    orthogonal = cert is not None and cert.a == 0
    report.add("orthogonal", core.OrthogonalityCertificate(-cert.b) if orthogonal else None)
    report.add("certified object", obj)
    report.add("two-eigenvalue certificate", cert)
    if cert is not None:
        report.add("ground degree", spectra.degree_from_certificate(cert))
        report.add("spectrum", cert.spectrum(args.tol))
    else:
        report.add("spectrum", spectra.star_spectrum(m, args.tol) if sg is None
                   else spectra.eigenvalues_symmetric(sg, args.tol))
    report.status = "pass" if cert is not None else "fail"
    return report


def cmd_spectrum(args) -> RunReport:
    report = RunReport("spectrum", {"file": args.file})
    m = io.parse_matrix(_read_text(args.file))
    s = spectra.eigenvalues_symmetric(m, args.tol)
    report.add("order", m.rows)
    report.add("spectrum", s)
    report.add("distinct values", len(s.pairs))
    return report


def cmd_lift(args) -> RunReport:
    report = RunReport("lift", {"file": args.file})
    sg = io.parse_signed_graph(_read_text(args.file))
    lift = lifts_ramanujan.two_lift(sg)
    _deliver(report, args, "lift", io.format_graph(lift.graph))
    verdict = lift.is_lift_of(sg)
    report.add("base vertices", sg.n)
    report.add("lift vertices", lift.graph.n)
    report.add("lift edges", lift.graph.m)
    report.add("spectrum union verdict", verdict)
    report.status = "pass" if verdict else "fail"
    return report


def cmd_ramanujan(args) -> RunReport:
    mode = args.mode.replace("-", "_")
    report = RunReport("ramanujan", {"file": args.file, "mode": mode})
    sg = io.parse_signed_graph(_read_text(args.file))
    g = core.ground(sg)
    rep = lifts_ramanujan.is_ramanujan(g, mode)
    report.add("degree", rep.degree)
    report.add("vertices", rep.n)
    report.add("lambda2", rep.lambda2)
    report.add("bound", rep.bound)
    report.add("ramanujan", rep.verdict)
    verdicts = [rep.verdict]
    if (sg.data < 0).any():
        good = lifts_ramanujan.is_good_signature(sg)
        report.add("good signature", good)
        verdicts.append(good)
    report.status = "pass" if all(verdicts) else "fail"
    return report


def cmd_table(args) -> RunReport:
    report = RunReport("table", {"family": args.family, "n": args.n})
    row = lifts_ramanujan.table_row(args.family, args.n, args.tol)
    report.add("signature good", row.signature_good)
    report.add("expected", row.expected)
    report.add("computed", row.computed)
    if row.note:
        report.add("note", row.note)
    report.add("match", "PASS" if row.match else "FAIL")
    report.status = "pass" if row.match else "fail"
    return report


def cmd_switch_classes(args) -> RunReport:
    report = RunReport("switch-classes", {"file": args.file})
    g = core.ground(io.parse_signed_graph(_read_text(args.file)))
    components = len(g.components())
    formula = core.count_switching_classes(g, components)
    # the representatives as sign strings straight from their edge signs: no
    # (classes, n, n) block of adjacencies, whose memory would grow with n
    signs = core.switching_class_signs(g)
    m = g.m
    text = np.where(signs > 0, b"+", b"-").tobytes().decode("ascii")
    report.add("vertices", g.n)
    report.add("edges", m)
    report.add("components", components)
    report.add("formula count", formula)
    report.add("enumerated count", len(signs))
    report.add("edge order", " ".join(f"{u + 1}-{v + 1}" for u, v in g.sorted_edges()))
    for i in range(len(signs)):
        report.add(f"representative {i + 1}", text[i * m : (i + 1) * m])
    agree = formula == len(signs)
    report.add("counts agree", agree)
    report.status = "pass" if agree else "fail"
    return report


def cmd_twograph(args) -> RunReport:
    report = RunReport("twograph", {"file": args.file})
    n, triples = io.parse_triples(_read_text(args.file))
    tg = twographs.validate_twograph(n, triples)
    report.add("valid", tg is not None)
    if tg is None:
        report.status = "fail"
        return report
    cert = spectra.certify_two_eigenvalues(tg.seidel) if n >= 2 else None
    pair_count = twographs.pair_count(n, cert)
    report.add("regular", pair_count is not None)
    if pair_count is not None:
        report.add("pair count", pair_count)
    if n >= 2:
        report.add("two-eigenvalue certificate", cert)
    return report


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommand parsers by name, built once per process:
    parse_args keeps no state in them."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the run report as JSON")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=spectra.DEFAULT_GROUP_TOL,
                     help="grouping/comparison tolerance (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="twoeig",
        description="Signed graphs with two distinct eigenvalues: "
                    "exact constructions, certificates, and Ramanujan 2-lifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate an orthogonal signed matrix")
    p.add_argument("kind", choices=GEN_KINDS)
    p.add_argument("-k", type=int, default=None, help="Hadamard order exponent (order 2^k)")
    p.add_argument("-q", type=int, default=None, help="conference prime (order q+1)")
    p.add_argument("--preset", choices=constructions.WILLIAMSON_PRESETS, default=None)
    p.add_argument("--input", action="append", default=None, metavar="FILE",
                   help="input matrix file (twice for kron)")
    p.add_argument("-o", "--output", default=None, help="write the matrix here instead of stdout")
    p.add_argument("--certify", action="store_true",
                   help="append the exact certificate line to generated matrices")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", parents=[common, tol],
                       help="orthogonality and two-eigenvalue certificates for a matrix file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", parents=[common, tol], help="eigenvalues of a symmetric matrix file")
    p.add_argument("file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("lift", parents=[common],
                       help="2-lift of a signed graph file, with its exact spectrum-union verdict")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None, help="write the lifted edge list here")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("ramanujan", parents=[common],
                       help="Ramanujan bound check for the ground graph of a signed graph file")
    p.add_argument("file")
    p.add_argument("--mode", choices=("paper-literal", "bipartite-strict"),
                   default="paper-literal")
    p.set_defaults(func=cmd_ramanujan)

    p = sub.add_parser("table", parents=[common, tol], help="check one certified-family table row")
    p.add_argument("--family", choices=lifts_ramanujan.TABLE_FAMILIES, required=True)
    p.add_argument("-n", type=int, required=True, help="base matrix order")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("switch-classes", parents=[common],
                       help="enumerate switching classes of a graph file against the formula")
    p.add_argument("file")
    p.set_defaults(func=cmd_switch_classes)

    p = sub.add_parser("twograph", parents=[common],
                       help="validate a triple file and test the regularity correspondence")
    p.add_argument("file")
    p.set_defaults(func=cmd_twograph)
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """The full parser's Namespace for argv, in one parser pass when argv[0] names a
    subcommand: the full parser hands argv[1:] to that subcommand's parser, sets command
    and adds nothing else. Any other argv, or one that leaves extras, goes through the
    full parser, so usage and error text are its own."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        report = args.func(args)
    except (ValueError, OSError, RuntimeError, AssertionError, MemoryError) as exc:
        defect = isinstance(exc, (AssertionError, MemoryError))
        err = RunReport(args.command, {}, status="defect" if defect else "error")
        err.add("error", str(exc) or type(exc).__name__)
        _emit(err, args.as_json, stream=sys.stderr)
        return 3 if defect else 2
    if args.as_json or not report.quiet_text:
        _emit(report, args.as_json)
    return 0 if report.status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
