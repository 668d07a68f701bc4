"""Command-line front end for construction, certification, lifting, and tables.

Every run produces a RunReport; the process exits 0 exactly when the report
status is "pass", 1 on a failed verdict, 2 on bad input, and 3 on a defect:
an internal invariant that failed (AssertionError) or memory that ran out,
reported on stderr with status "defect". File formats:
`verify` and `spectrum` read matrix files, `lift`, `ramanujan` and
`switch-classes` read signed-graph files, `twograph` reads triple files.
Passing "-" reads the input from stdin.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import constructions, core, io, lifts_ramanujan, spectra, twographs

REPORT_FLOAT_DECIMALS = 6


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: list[tuple[str, object]] = field(default_factory=list)
    status: str = "pass"
    quiet_text: bool = False

    def add(self, label: str, value) -> None:
        self.results.append((label, value))


def _fnum(v: float) -> str:
    return f"{round(float(v), REPORT_FLOAT_DECIMALS) + 0.0:.{REPORT_FLOAT_DECIMALS}f}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fnum(value)
    if isinstance(value, core.OrthogonalityCertificate):
        return f"alpha = {value.alpha}"
    if isinstance(value, spectra.TwoEigCertificate):
        return (
            f"a = {value.a}, b = {value.b}, lambda = {_fnum(value.lam)} (x{value.mult_lam}), "
            f"mu = {_fnum(value.mu)} (x{value.mult_mu})"
        )
    if value is None:
        return "absent"
    return str(value)


def _jsonable(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return round(value, 12) + 0.0
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, spectra.Spectrum):
        return value.records()
    if isinstance(value, core.OrthogonalityCertificate):
        return {"alpha": value.alpha}
    if isinstance(value, spectra.TwoEigCertificate):
        return {
            "a": value.a,
            "b": value.b,
            "lambda": _jsonable(value.lam),
            "mu": _jsonable(value.mu),
            "mult_lambda": value.mult_lam,
            "mult_mu": value.mult_mu,
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _emit(report: RunReport, as_json: bool, stream=None) -> None:
    out = stream or sys.stdout
    if as_json:
        payload = {
            "command": report.command,
            "inputs": _jsonable(report.inputs),
            "results": [{"label": k, "value": _jsonable(v)} for k, v in report.results],
            "status": report.status,
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"command: {report.command}", file=out)
        for key, value in report.inputs.items():
            print(f"input {key}: {_fmt(value)}", file=out)
        for label, value in report.results:
            print(f"{label}: {_fmt(value)}", file=out)
        print(f"status: {report.status}", file=out)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


GEN_KINDS = ("hadamard", "conference", "williamson", "double", "kron", "conference-block")
# the kinds that read each gen flag; the argparse dest is the flag without its dashes
GEN_FLAG_READERS = {"-k": ("hadamard",), "-q": ("conference",), "--preset": ("williamson",),
                    "--input": ("williamson", "double", "kron", "conference-block")}


def _gen_matrix(args) -> core.SignedMatrix:
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
    if args.certify:
        return constructions.kronecker_orthogonal(*inputs)[0]
    return constructions.kronecker(*inputs)


def cmd_gen(args) -> RunReport:
    report = RunReport("gen", {"kind": args.kind})
    m = _gen_matrix(args)
    text = io.format_matrix(m)
    if args.certify:
        cert = core.is_orthogonal(m)
        if cert is None:
            raise ValueError("generated matrix is not orthogonal, nothing to certify")
        text += f"alpha = {cert.alpha}\n"
        report.add("alpha", cert.alpha)
    report.add("order", f"{m.rows}x{m.cols}")
    to_file = args.output is not None and args.output != "-"
    if args.as_json:
        report.add("matrix", text)
        if to_file:
            Path(args.output).write_text(text)
    else:
        _write_output(text, args.output)
        report.quiet_text = not to_file
    if to_file:
        report.add("written", args.output)
    return report


def cmd_verify(args) -> RunReport:
    """One certificate decides every line: symmetric zero-diagonal M has M^2 = alpha I iff
    it certifies with a = 0, b = -alpha (zero trace rules out odd orders); star(M) certifies
    iff M is orthogonal, with a = 0, alpha = -b. Only uncertified input reaches eigvalsh."""
    report = RunReport("verify", {"file": args.file})
    m = io.parse_matrix(_read_text(args.file))
    if not m.is_square:
        raise ValueError(f"matrix must be square to verify, got {m.rows}x{m.cols}")
    try:
        sg, obj = core.SignedGraph(m), "matrix"
    except ValueError:
        sg, obj = core.star(m), "star"
    cert = spectra.certify_two_eigenvalues(sg)
    orthogonal = cert is not None and cert.a == 0
    report.add("orthogonal", core.OrthogonalityCertificate(-cert.b) if orthogonal else None)
    report.add("certified object", obj)
    report.add("two-eigenvalue certificate", cert)
    if cert is not None:
        report.add("ground degree", spectra.degree_from_certificate(cert))
        report.add("spectrum", cert.spectrum(args.tol))
    else:
        report.add("spectrum", spectra.eigenvalues_symmetric(sg, args.tol))
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


def _format_lift(lift: lifts_ramanujan.LiftedGraph) -> str:
    g = lift.graph
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u + 1} {v + 1}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def cmd_lift(args) -> RunReport:
    report = RunReport("lift", {"file": args.file})
    sg = io.parse_signed_graph(_read_text(args.file))
    lift = lifts_ramanujan.two_lift(sg)
    text = _format_lift(lift)
    to_file = args.output is not None and args.output != "-"
    if args.as_json:
        report.add("lift", text)
        if to_file:
            Path(args.output).write_text(text)
    else:
        _write_output(text, args.output)
    verdict = lifts_ramanujan.lift_spectrum_check(sg)
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
    if (sg.matrix.data < 0).any():
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
    formula = core.count_switching_classes(g)
    reps = core.enumerate_switching_classes(g)
    edges = g.sorted_edges()
    report.add("vertices", g.n)
    report.add("edges", g.m)
    report.add("components", len(g.components()))
    report.add("formula count", formula)
    report.add("enumerated count", len(reps))
    report.add("edge order", " ".join(f"{u + 1}-{v + 1}" for u, v in edges))
    for i, rep in enumerate(reps):
        signs = rep.edge_signs()
        report.add(f"representative {i + 1}",
                   "".join("+" if signs[e] == 1 else "-" for e in edges))
    agree = formula == len(reps)
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
    pair_count = twographs.is_regular_twograph(tg)
    report.add("regular", pair_count is not None)
    if pair_count is not None:
        report.add("pair count", pair_count)
    if n >= 2:
        report.add("two-eigenvalue certificate", spectra.certify_two_eigenvalues(tg.seidel))
    return report


def _build_parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
