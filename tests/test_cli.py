import argparse
import ast
import itertools
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import twoeig
from twoeig import spectra
from twoeig import (
    Graph,
    SignedGraph,
    SignedMatrix,
    certify_two_eigenvalues,
    enumerate_switching_classes,
    eigenvalues_symmetric,
    is_orthogonal,
    paley_conference,
    star,
    sylvester_hadamard,
)
from twoeig.cli import _build_parser, _render, main
from twoeig.io import format_matrix, format_signed_graph, format_triples, parse_matrix

from conftest import K6_MATRIX, K6_TRIPLES, counted_grams, odd_product_triples

ONE_NEGATIVE_C4 = "4 4\n1 2 1\n2 3 1\n3 4 1\n1 4 -1\n"
ALL_POSITIVE_C4 = "4 4\n1 2\n2 3\n3 4\n1 4\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_hadamard_streams_matrix(capsys):
    code, out, err = run(capsys, "gen", "hadamard", "-k", "2")
    assert code == 0 and err == ""
    assert parse_matrix(out) == sylvester_hadamard(2)
    assert "status" not in out


def test_gen_certify_appends_alpha(capsys):
    code, out, _ = run(capsys, "gen", "conference", "-q", "5", "--certify")
    assert code == 0
    assert "alpha = 5" in out
    assert parse_matrix(out) == paley_conference(5)


def test_gen_to_file_reports(tmp_path, capsys):
    target = tmp_path / "h.txt"
    code, out, _ = run(capsys, "gen", "hadamard", "-k", "1", "-o", str(target))
    assert code == 0
    assert f"written: {target}" in out
    assert "status: pass" in out
    assert parse_matrix(target.read_text()) == sylvester_hadamard(1)


def test_gen_kron_and_williamson(tmp_path, capsys):
    h = tmp_path / "h2.txt"
    h.write_text(format_matrix(sylvester_hadamard(1)))
    code, out, _ = run(
        capsys, "gen", "kron", "--input", str(h), "--input", str(h), "--certify"
    )
    assert code == 0 and "alpha = 4" in out

    c = tmp_path / "co6.txt"
    c.write_text(format_matrix(paley_conference(5)))
    code, out, _ = run(
        capsys, "gen", "williamson", "--input", str(c),
        "--preset", "two-shifted", "--certify",
    )
    assert code == 0 and "alpha = 22" in out
    assert parse_matrix(out).rows == 24


def test_gen_certify_reuses_the_construction_certificate(tmp_path, capsys, monkeypatch):
    """Every gen kind keeps its certificate on the matrix, so --certify reports it with no
    second Gram product. Outputs built in blocks are certified by their block structure:
    kron makes Gram products only for its two factors, double, conference-block and
    every Williamson preset for their input, and hadamard none. Only conference checks
    its output by a Gram product."""
    calls = counted_grams(monkeypatch)
    h, c = tmp_path / "h.txt", tmp_path / "c.txt"
    h.write_text(format_matrix(sylvester_hadamard(2)))
    c.write_text(format_matrix(paley_conference(5)))
    for argv, product, alpha, count in [
        (["kron", "--input", str(h), "--input", str(c)],
         twoeig.kronecker(sylvester_hadamard(2), paley_conference(5)), 20, 2),
        (["double", "--input", str(c)], twoeig.double(paley_conference(5))[0], 12, 1),
        (["hadamard", "-k", "3"], sylvester_hadamard(3), 8, 0),
        (["conference", "-q", "5"], paley_conference(5), 5, 1),
        (["conference-block", "--input", str(c)],
         twoeig.conference_block(paley_conference(5)), 10, 1),
        (["williamson", "--preset", "nonsymmetric-all-c", "--input", str(h)],
         twoeig.williamson_preset(sylvester_hadamard(2), "nonsymmetric-all-c"), 16, 1),
        *((["williamson", "--preset", preset, "--input", str(c)],
           twoeig.williamson_preset(paley_conference(5), preset), alpha, 1)
          for preset, alpha in (("all-c", 20), ("two-shifted", 22), ("four-shifted", 24))),
    ]:
        calls.clear()
        code, out, err = run(capsys, "gen", *argv, "--certify")
        assert (code, err) == (0, "")
        assert out == format_matrix(product) + f"alpha = {alpha}\n"
        assert len(calls) == count


@pytest.mark.parametrize("argv, flag", [
    (["hadamard", "-k", "1", "--input", "never-read.graph"], "--input"),
    (["conference", "-q", "5", "-k", "2"], "-k"),
    (["williamson", "--input", "never-read.txt", "--preset", "all-c", "-q", "5"], "-q"),
    (["double", "--input", "never-read.txt", "-k", "3"], "-k"),
    (["kron", "--input", "never-read.txt", "--input", "never-read.txt", "--preset", "all-c"],
     "--preset"),
    (["conference-block", "--input", "never-read.txt", "-q", "7"], "-q"),
])
def test_gen_rejects_flags_its_kind_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2 and out == ""
    assert f"error: kind {argv[0]!r} does not read {flag}" in err


def test_gen_rejects_missing_parameters(capsys):
    code, out, err = run(capsys, "gen", "hadamard")
    assert code == 2 and out == ""
    assert "needs -k" in err
    code, _, err = run(capsys, "gen", "conference", "-q", "3")
    assert code == 2 and "1 mod 4" in err
    code, _, err = run(capsys, "gen", "kron")
    assert code == 2 and "exactly two" in err


def test_verify_conference_matrix_directly(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text(format_matrix(paley_conference(5)))
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0
    assert "orthogonal: alpha = 5" in out
    assert "certified object: matrix" in out
    assert "a = 0, b = -5" in out
    assert "ground degree: 5" in out
    assert "status: pass" in out


def test_verify_star_of_hadamard(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text(format_matrix(sylvester_hadamard(2)))
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0
    assert "orthogonal: alpha = 4" in out
    assert "certified object: star" in out
    assert "a = 0, b = -4" in out
    assert "ground degree: 4" in out


def test_verify_signed_adjacency_directly(tmp_path, capsys):
    f = tmp_path / "k6.txt"
    f.write_text(format_matrix(SignedMatrix(K6_MATRIX)))
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0
    assert "certified object: matrix" in out
    assert "a = 0, b = -5" in out


def test_verify_fails_without_certificate(tmp_path, capsys):
    f = tmp_path / "ones.txt"
    f.write_text("2 2\n1 1\n1 1\n")
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 1
    assert "two-eigenvalue certificate: absent" in out
    assert "status: fail" in out


def test_verify_rejects_nonsquare(tmp_path, capsys):
    f = tmp_path / "r.txt"
    f.write_text("1 2\n1 1\n")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2 and "square" in err


def test_verify_refuses_eigvalsh_past_order_4096(tmp_path, capsys, count_eigvalsh, monkeypatch):
    """An uncertified order-2049 matrix would be shown by the eigvalsh of its
    order-4098 star: exit 2 instead, with the message naming the certificate route,
    before that 16 MB star is built: from the failed certificate on (past the parse
    and the certificate's own float32 copy), the traced peak stays within 1 MB of
    what was held then."""
    c = np.random.default_rng(2049).integers(-1, 2, size=(2049, 2049))
    f = tmp_path / "c.txt"
    f.write_text(format_matrix(SignedMatrix(c)))
    certificate, held = spectra.star_certificate, []

    def then_reset_peak(m):
        cert = certificate(m)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return cert

    monkeypatch.setattr(spectra, "star_certificate", then_reset_peak)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and count_eigvalsh == []
    assert "order 4098 is above 4096" in err and "certificate route" in err
    assert len(held) == 1 and peak - held[0] < 2**20, (held, peak)


def _verify_corpus():
    """Every symmetric zero-diagonal matrix of order 1 to 4, seeded random square
    matrices of order 1 to 8, and Hadamard and Paley matrices with and without
    one flipped entry."""
    for n in range(1, 5):
        iu = np.triu_indices(n, 1)
        for signs in itertools.product((-1, 0, 1), repeat=len(iu[0])):
            a = np.zeros((n, n), dtype=np.int8)
            a[iu] = signs
            yield a + a.T
    rng = np.random.default_rng(20261018)
    for n in range(1, 9):
        for _ in range(6):
            yield rng.integers(-1, 2, size=(n, n)).astype(np.int8)
            b = np.triu(rng.integers(-1, 2, size=(n, n)), 1).astype(np.int8)
            yield b + b.T
    for c in (sylvester_hadamard(2), sylvester_hadamard(3), paley_conference(5),
              paley_conference(13)):
        yield c.data
        flipped = c.data.copy()
        flipped[1, 2] *= -1
        yield flipped


def test_verify_matches_orthogonality_and_eigvalsh(tmp_path, capsys):
    """The orthogonal line is is_orthogonal(M), the spectrum line is eigvalsh of the
    certified object grouped at 6 decimals, and the exit code says whether that
    object has two distinct eigenvalues."""
    f = tmp_path / "m.txt"
    for a in _verify_corpus():
        f.write_text(format_matrix(SignedMatrix(a)))
        code, out, err = run(capsys, "verify", str(f))
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        cert = is_orthogonal(SignedMatrix(a))
        assert lines["orthogonal"] == (f"alpha = {cert.alpha}" if cert else "absent")
        if np.array_equal(a, a.T) and not np.diagonal(a).any():
            obj, kind = a, "matrix"
        else:
            n = a.shape[0]
            obj, kind = np.block([[np.zeros((n, n)), a], [a.T, np.zeros((n, n))]]), "star"
        assert lines["certified object"] == kind
        spectrum = eigenvalues_symmetric(obj)
        assert lines["spectrum"] == str(spectrum)
        assert code == (0 if len(spectrum.pairs) == 2 else 1)


def test_verify_eigensolves_only_uncertified_inputs(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eigenvalues_symmetric(*args, **kwargs)

    monkeypatch.setattr(spectra, "eigenvalues_symmetric", counted)
    f = tmp_path / "h.txt"
    f.write_text(format_matrix(sylvester_hadamard(3)))
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0 and "spectrum: {2.828427: 8, -2.828427: 8}" in out
    assert calls == []

    f.write_text("2 2\n1 1\n1 1\n")
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 1 and len(calls) == 1


def test_verify_builds_the_star_only_for_eigvalsh(tmp_path, capsys, monkeypatch):
    """A non-symmetric input is certified by is_orthogonal(M), so star(M), of twice the
    order, is built only for the eigvalsh of an uncertified input, and the report is the
    one the star's own certificate gives."""
    from twoeig import core

    calls = []
    build = core.star

    def counted(c):
        calls.append(c)
        return build(c)

    monkeypatch.setattr(core, "star", counted)
    monkeypatch.setattr(spectra, "star", counted)  # star_spectrum's name for it
    flipped = sylvester_hadamard(3).data.copy()
    flipped[0, 5] *= -1
    f = tmp_path / "m.txt"
    for m, stars in ((sylvester_hadamard(3), 0), (SignedMatrix(flipped), 1)):
        f.write_text(format_matrix(m))
        calls.clear()
        code, out, _ = run(capsys, "verify", str(f))
        assert len(calls) == stars and code == stars  # exit 1: uncertified, so eigvalsh
        assert "certified object: star\n" in out
        cert = certify_two_eigenvalues(build(SignedMatrix(m.data)))
        assert f"two-eigenvalue certificate: {_render(cert)[0]}\n" in out
    f.write_text(format_matrix(sylvester_hadamard(3)))
    assert run(capsys, "verify", str(f))[1] == (
        f"command: verify\ninput file: {f}\northogonal: alpha = 8\n"
        "certified object: star\ntwo-eigenvalue certificate: a = 0, b = -8, "
        "lambda = 2.828427 (x8), mu = -2.828427 (x8)\nground degree: 8\n"
        "spectrum: {2.828427: 8, -2.828427: 8}\nstatus: pass\n")


def test_verify_certified_input_rejects_bad_tolerance(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text(format_matrix(sylvester_hadamard(2)))
    code, out, err = run(capsys, "verify", str(f), "--tol", "-1")
    assert code == 2 and out == ""
    assert "error: grouping tolerance must be positive, got -1.0" in err


def test_verify_certified_spectrum_groups_at_tol(tmp_path, capsys):
    """A tolerance wider than lam - mu merges the certified values, as eigvalsh grouping does."""
    f = tmp_path / "h.txt"
    f.write_text(format_matrix(sylvester_hadamard(1)))
    code, out, _ = run(capsys, "verify", str(f), "--tol", "5")
    assert code == 0 and "spectrum: {0.000000: 4}" in out


def test_spectrum_command(tmp_path, capsys):
    f = tmp_path / "k6.txt"
    f.write_text(format_matrix(SignedMatrix(K6_MATRIX)))
    code, out, _ = run(capsys, "spectrum", str(f))
    assert code == 0
    assert "distinct values: 2" in out
    assert "2.236068: 3" in out and "-2.236068: 3" in out


def test_spectrum_json_prints_zero_without_sign(tmp_path, capsys):
    f = tmp_path / "p3.txt"
    f.write_text("3 3\n0 1 0\n1 0 1\n0 1 0\n")
    code, out, _ = run(capsys, "spectrum", str(f), "--json")
    assert code == 0
    spectrum = {r["label"]: r["value"] for r in json.loads(out)["results"]}["spectrum"]
    assert [r["multiplicity"] for r in spectrum] == [1, 1, 1]
    assert '"value": 0.0' in out and "-0.0" not in out


def test_spectrum_from_stdin(monkeypatch, capsys):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO("2 2\n0 1\n1 0\n"))
    code, out, _ = run(capsys, "spectrum", "-")
    assert code == 0
    assert "1.000000: 1" in out and "-1.000000: 1" in out


def test_spectrum_rejects_bad_tolerance(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("1 1\n0\n")
    code, _, err = run(capsys, "spectrum", str(f), "--tol", "-1")
    assert code == 2 and "tolerance must be positive" in err


def test_lift_command(tmp_path, capsys):
    f = tmp_path / "c4.txt"
    f.write_text(ONE_NEGATIVE_C4)
    code, out, _ = run(capsys, "lift", str(f))
    assert code == 0
    assert out.startswith("8 8\n")
    assert "lift vertices: 8" in out
    assert "spectrum union verdict: true" in out

    out_file = tmp_path / "lift.txt"
    code, out, _ = run(capsys, "lift", str(f), "-o", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("8 8\n")


def test_lift_json_is_valid(tmp_path, capsys):
    f = tmp_path / "c4.txt"
    f.write_text(ONE_NEGATIVE_C4)
    code, out, _ = run(capsys, "lift", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "lift"
    assert payload["status"] == "pass"
    labels = {r["label"]: r["value"] for r in payload["results"]}
    assert labels["lift"].startswith("8 8\n")
    assert labels["spectrum union verdict"] is True


def test_ramanujan_command(tmp_path, capsys):
    f = tmp_path / "c4.txt"
    f.write_text(ONE_NEGATIVE_C4)
    code, out, _ = run(capsys, "ramanujan", str(f))
    assert code == 0
    assert "degree: 2" in out
    assert "ramanujan: true" in out
    assert "good signature: true" in out

    g = tmp_path / "plain.txt"
    g.write_text(ALL_POSITIVE_C4)
    code, out, _ = run(capsys, "ramanujan", str(g))
    assert code == 0
    assert "good signature" not in out

    code, out, _ = run(capsys, "ramanujan", str(f), "--mode", "bipartite-strict")
    assert code == 0
    assert "input mode: bipartite_strict" in out


def test_ramanujan_rejects_irregular(tmp_path, capsys):
    f = tmp_path / "p3.txt"
    f.write_text("3 2\n1 2\n2 3\n")
    code, _, err = run(capsys, "ramanujan", str(f))
    assert code == 2 and "not regular" in err


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--family", "knn", "-n", "4")
    assert code == 0
    assert "match: PASS" in out
    assert "signature good: true" in out

    code, _, err = run(capsys, "table", "--family", "knn", "-n", "3")
    assert code == 2 and "power of two" in err

    code, out, _ = run(capsys, "table", "--family", "nc4-complement", "-n", "6")
    assert code == 0
    assert "note: " in out


def test_switch_classes_command(tmp_path, capsys):
    f = tmp_path / "c4.txt"
    f.write_text(ONE_NEGATIVE_C4)
    code, out, _ = run(capsys, "switch-classes", str(f))
    assert code == 0
    assert "formula count: 2" in out
    assert "enumerated count: 2" in out
    assert "edge order: 1-2 1-4 2-3 3-4" in out
    assert "counts agree: true" in out
    reps = [line.split(": ")[1] for line in out.splitlines()
            if line.startswith("representative")]
    assert set(reps) == {"++++", "+++-"}


def test_twograph_command(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text(format_triples(6, K6_TRIPLES))
    code, out, _ = run(capsys, "twograph", str(f))
    assert code == 0
    assert "valid: true" in out
    assert "pair count: 2" in out
    assert "two-eigenvalue certificate: a = 0, b = -5," in out

    bad = tmp_path / "bad.txt"
    bad.write_text("4 1\n1 2 3\n")
    code, out, _ = run(capsys, "twograph", str(bad))
    assert code == 1
    assert "valid: false" in out


def test_json_runs_are_deterministic(tmp_path, capsys):
    f = tmp_path / "c4.txt"
    f.write_text(ONE_NEGATIVE_C4)
    code, first, _ = run(capsys, "ramanujan", str(f), "--json")
    assert code == 0
    _, second, _ = run(capsys, "ramanujan", str(f), "--json")
    assert first == second


def test_signed_graph_round_trip_through_cli(tmp_path, capsys):
    from twoeig import SignedGraph

    sg = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])
    f = tmp_path / "sg.txt"
    f.write_text(format_signed_graph(sg))
    code, out, _ = run(capsys, "lift", str(f))
    assert code == 0
    assert "base vertices: 3" in out


def test_cli_rejects_extra_data_lines(tmp_path, capsys):
    f = tmp_path / "c4.txt"
    f.write_text("4 3\n1 2\n2 3\n3 4\n1 4 -1\n")
    code, out, err = run(capsys, "lift", str(f))
    assert code == 2 and out == ""
    assert "expected 3 edge lines, found 4" in err and "status: error" in err


def test_defect_exits_3_with_report(monkeypatch, capsys):
    from twoeig import lifts_ramanujan

    def broken(*args, **kwargs):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(lifts_ramanujan, "table_row", broken)
    code, out, err = run(capsys, "table", "--family", "knn", "-n", "4")
    assert code == 3 and out == ""
    assert "error: invariant broken" in err and "status: defect" in err
    code, out, err = run(capsys, "table", "--family", "knn", "-n", "4", "--json")
    assert code == 3 and json.loads(err)["status"] == "defect"


def test_corrupted_kronecker_output_is_a_defect(tmp_path, monkeypatch, capsys):
    """A Kronecker-shaped gen output that is not the product of its factors is never
    certified: its structure check fails and gen exits 3, writing no matrix."""
    from twoeig import constructions

    build = constructions.kronecker

    def corrupted(a, b):
        m = build(a, b).data.copy()
        m[-1, 0] = -m[-1, 0] if m[-1, 0] else 1
        return SignedMatrix(m)

    h, c = tmp_path / "h.txt", tmp_path / "c.txt"
    h.write_text(format_matrix(sylvester_hadamard(2)))
    c.write_text(format_matrix(paley_conference(5)))
    monkeypatch.setattr(constructions, "kronecker", corrupted)
    for argv in (["hadamard", "-k", "3"], ["kron", "--input", str(h), "--input", str(c)],
                 ["conference-block", "--input", str(c)],
                 ["williamson", "--preset", "nonsymmetric-all-c", "--input", str(h)]):
        code, out, err = run(capsys, "gen", *argv, "--certify")
        assert code == 3 and out == "", argv
        assert "not the Kronecker product" in err and "status: defect" in err


def test_switch_classes_memory_does_not_grow_with_isolated_vertices(tmp_path, capsys):
    """20 edges on 7 of 60 vertices: 2^14 classes, printed from their signature codes
    in a traced peak under 16 MB (a (classes, n, n) block of them would take 59 MB),
    the same sign strings in the same order as enumerate_switching_classes."""
    edges = list(itertools.combinations(range(7), 2))[:20]
    f = tmp_path / "k7.graph"
    f.write_text(format_signed_graph(SignedGraph.from_edges(60, [(u, v, 1) for u, v in edges])))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "switch-classes", str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "enumerated count: 16384\n" in out and "counts agree: true" in out
    assert peak < 16 * 2**20, peak
    g = Graph(7, edges)
    iu, iv = np.nonzero(np.triu(g.adjacency(), 1))
    expected = ["".join(np.where(rep.matrix.data[iu, iv] > 0, "+", "-"))
                for rep in enumerate_switching_classes(g)]
    assert [line.split(": ")[1] for line in out.splitlines()
            if line.startswith("representative ")] == expected


def test_flags_only_where_read(tmp_path, capsys):
    f = tmp_path / "c4.txt"
    f.write_text(ONE_NEGATIVE_C4)
    for argv in (["switch-classes", "--certify", str(f)],
                 ["switch-classes", "--tol", "5", str(f)],
                 ["ramanujan", "--tol", "5", str(f)],
                 ["ramanujan", "--seed", "7", str(f)],
                 ["lift", "--tol", "5", str(f)],
                 ["verify", "--certify", str(f)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_gen_kron_rejects_non_orthogonal_factors(tmp_path, capsys):
    ones = tmp_path / "ones.txt"
    ones.write_text("2 2\n1 1\n1 1\n")
    target = tmp_path / "k.txt"
    code, out, err = run(capsys, "gen", "kron", "--input", str(ones), "--input", str(ones),
                         "-o", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert "error: left factor is not an orthogonal signed matrix" in err


def _one_path_commands(tmp_path):
    """One invocation of each subcommand; gen and lift write to a file, so that their
    text report is printed."""
    conf = tmp_path / "c6.txt"
    conf.write_text(format_matrix(paley_conference(5)))
    c4 = tmp_path / "c4.txt"
    c4.write_text(ONE_NEGATIVE_C4)
    tri = tmp_path / "t.txt"
    tri.write_text(format_triples(6, K6_TRIPLES))
    return [
        (["gen", "conference", "-q", "5", "--certify", "-o", str(tmp_path / "g.txt")], "matrix"),
        (["verify", str(conf)], None),
        (["spectrum", str(conf)], None),
        (["lift", str(c4), "-o", str(tmp_path / "l.txt")], "lift"),
        (["ramanujan", str(c4)], None),
        (["table", "--family", "nc4-complement", "-n", "6"], None),
        (["switch-classes", str(c4)], None),
        (["twograph", str(tri)], None),
    ]


def test_text_and_json_reports_render_each_value_once(tmp_path, capsys, monkeypatch):
    """Text and --json reports list the same result labels in the same order (JSON also
    holds the artifact that text sends to the file), and each text line and JSON value are
    the two forms _render gives the same report value."""
    from twoeig import cli

    emitted, emit = [], cli._emit

    def recording_emit(report, *args, **kwargs):
        emitted.append(report)
        emit(report, *args, **kwargs)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    for argv, artifact in _one_path_commands(tmp_path):
        code, text, _ = run(capsys, *argv)
        report = emitted[-1]
        json_code, json_text, _ = run(capsys, *argv, "--json")
        assert code == json_code == 0, argv
        lines = text.splitlines()
        assert lines[0] == f"command: {argv[0]}" and lines[-1] == "status: pass"
        text_results = [line.split(": ", 1) for line in lines[1 + len(report.inputs):-1]]
        json_results = [(r["label"], r["value"]) for r in json.loads(json_text)["results"]
                        if r["label"] != artifact]
        assert [label for label, _ in text_results] == [label for label, _ in json_results]
        assert [label for label, _ in report.results] == [label for label, _ in text_results]
        assert [cli._render(value) for _, value in report.results] == \
            [(text_value, json_value)
             for (_, text_value), (_, json_value) in zip(text_results, json_results)]


def test_twograph_certifies_once(tmp_path, capsys, monkeypatch):
    from twoeig import twographs

    calls = []

    def counted(sg):
        calls.append(sg)
        return spectra_certify(sg)

    spectra_certify = spectra.certify_two_eigenvalues
    monkeypatch.setattr(spectra, "certify_two_eigenvalues", counted)
    monkeypatch.setattr(twographs, "certify_two_eigenvalues", counted)
    f = tmp_path / "t.txt"
    f.write_text(format_triples(6, K6_TRIPLES))
    code, out, _ = run(capsys, "twograph", str(f))
    assert code == 0 and "pair count: 2" in out
    assert len(calls) == 1


def test_lift_builds_the_lift_once(tmp_path, capsys, monkeypatch):
    from twoeig import lifts_ramanujan

    calls = []

    def counted(sg):
        calls.append(sg)
        return build(sg)

    build = lifts_ramanujan.two_lift
    monkeypatch.setattr(lifts_ramanujan, "two_lift", counted)
    f = tmp_path / "c4.txt"
    f.write_text(ONE_NEGATIVE_C4)
    code, out, _ = run(capsys, "lift", str(f))
    assert code == 0 and "spectrum union verdict: true" in out
    assert len(calls) == 1


def test_successive_main_calls_share_no_state(tmp_path, capsys):
    """The parser is built once per process; each call still starts from the defaults:
    --input lists, --tol and --json do not carry over from one call to the next."""
    h, c = tmp_path / "h.txt", tmp_path / "c.txt"
    h.write_text(format_matrix(sylvester_hadamard(1)))
    c.write_text(format_matrix(paley_conference(5)))
    commands = [
        ["gen", "kron", "--input", str(h), "--input", str(c), "--json"],
        ["gen", "double", "--input", str(c)],
        ["verify", str(c), "--tol", "0.5", "--json"],
        ["verify", str(c)],
        ["spectrum", str(c), "--tol", "3"],
        ["table", "--family", "knn", "-n", "8"],
        ["gen", "kron", "--input", str(h)],
        ["spectrum", str(c)],
    ]
    assert _build_parser() is _build_parser()
    warm = [run(capsys, *argv) for argv in commands]
    fresh = []
    for argv in commands:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert warm == fresh
    assert warm[6][0] == 2 and "exactly two --input" in warm[6][2]


def test_cli_as_a_process(tmp_path):
    """`python -m twoeig.cli` in its own process: gen's stdout is a matrix file, and
    lift -o reports the file it wrote."""
    env = {**os.environ, "PYTHONPATH": str(Path(twoeig.__file__).parents[1])}

    def twoeig_process(*argv):
        return subprocess.run([sys.executable, "-m", "twoeig.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    gen = twoeig_process("gen", "conference", "-q", "5", "--certify")
    assert gen.returncode == 0 and gen.stderr == ""
    assert parse_matrix(gen.stdout) == paley_conference(5)
    f, target = tmp_path / "c4.txt", tmp_path / "lift.txt"
    f.write_text(ONE_NEGATIVE_C4)
    lift = twoeig_process("lift", str(f), "-o", str(target))
    assert lift.returncode == 0 and f"written: {target}\n" in lift.stdout
    assert target.read_text().startswith("8 8\n")


def test_python_m_twoeig_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(twoeig.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "twoeig", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: twoeig") and "switch-classes" in proc.stdout


def test_cli_reads_only_public_names_of_other_twoeig_modules():
    """The report layer uses the other twoeig modules through public names only, the ones
    their __all__ lists: no `module._name` attribute and no `from ... import _name` out of
    a twoeig module."""
    tree = ast.parse(Path(twoeig.cli.__file__).read_text())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("twoeig")):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
            if node.module in (None, "twoeig"):
                modules |= {alias.asname or alias.name for alias in node.names}
    assert {"constructions", "core", "io", "lifts_ramanujan", "spectra", "twographs"} <= modules
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


SUBCOMMANDS = ("gen", "verify", "spectrum", "lift", "ramanujan", "table", "switch-classes",
               "twograph")


def _session_argv(d: Path) -> list[list[str]]:
    """Small input files under d with the names the cli-session benchmark reads, and the
    argv of its 40 commands; -o writes into d / "out"."""
    rng = np.random.default_rng(20261020)
    h8, h32, p30 = sylvester_hadamard(3), sylvester_hadamard(5), paley_conference(29)
    f32, fs30 = h32.data.copy(), p30.data.copy()
    f32[3, 5] *= -1
    fs30[2, 7] = fs30[7, 2] = -fs30[2, 7]
    upper = np.triu(rng.choice((-1, 1), size=(20, 20)), 1)
    matrices = {"h4": sylvester_hadamard(2), "h8": h8, "h16": sylvester_hadamard(4),
                "p6": paley_conference(5), "p14": paley_conference(13), "v32": h32,
                "f32": SignedMatrix(f32), "s30": p30, "fs30": SignedMatrix(fs30),
                "r16": SignedMatrix(rng.choice((-1, 1), size=(16, 16))),
                "y20": SignedMatrix(upper + upper.T), "x8": SignedMatrix(h8.data[::-1])}
    for name, m in matrices.items():
        (d / f"{name}.txt").write_text(format_matrix(m))
    (d / "bad.txt").write_text(format_matrix(sylvester_hadamard(2))[:-3] + "\n")
    k4 = list(itertools.combinations(range(4), 2))
    graphs = {"g12": star(paley_conference(5)),
              "g16": SignedGraph(np.abs(star(h8).matrix.data)),
              "g8": SignedGraph.from_edges(8, [(u + o, v + o, int(s)) for (u, v), o, s in zip(
                  k4 * 2, [0] * 6 + [4] * 6, rng.choice((-1, 1), size=12))]),
              "e7": SignedGraph.from_edges(7, [(i, (i + 1) % 7, 1) for i in range(7)]
                                           + [(0, 3, -1), (2, 5, 1), (4, 6, -1)]),
              "e8": SignedGraph.from_edges(8, [(i, (i + 1) % 8, 1) for i in range(8)]
                                           + [(0, 4, 1), (1, 5, -1), (2, 6, 1), (3, 7, 1)])}
    for name, sg in graphs.items():
        (d / f"{name}.graph").write_text(format_signed_graph(sg))
    seven = 1 - np.eye(7, dtype=np.int8) - 2 * Graph.path(7).adjacency()
    triples = {"t6": K6_TRIPLES, "t7": odd_product_triples(seven), "t6bad": K6_TRIPLES[:7]}
    for name, t in triples.items():
        (d / f"{name}.triples").write_text(format_triples(6 if name != "t7" else 7, t))
    f, o = (lambda name: str(d / name)), (lambda name: str(d / "out" / name))
    return [
        ["gen", "hadamard", "-k", "5"],
        ["gen", "hadamard", "-k", "6", "-o", o("out_h64.txt"), "--certify"],
        ["gen", "conference", "-q", "13"],
        ["gen", "conference", "-q", "29", "-o", o("out_p30.txt"), "--certify"],
        ["gen", "williamson", "--preset", "all-c", "--input", f("h8.txt")],
        ["gen", "williamson", "--preset", "two-shifted", "--input", f("p14.txt"), "--certify"],
        ["gen", "williamson", "--preset", "four-shifted", "--input", f("p6.txt"), "--json"],
        ["gen", "williamson", "--preset", "nonsymmetric-all-c", "--input", f("x8.txt")],
        ["gen", "double", "--input", f("p14.txt"), "--certify"],
        ["gen", "kron", "--input", f("h4.txt"), "--input", f("p6.txt"), "--certify"],
        ["gen", "kron", "--input", f("h8.txt"), "--input", f("h4.txt"), "-o", o("out_kron.txt")],
        ["gen", "conference-block", "--input", f("p14.txt"), "--json"],
        ["verify", f("h16.txt")],
        ["verify", f("v32.txt")],
        ["verify", f("f32.txt")],
        ["verify", f("s30.txt"), "--json"],
        ["verify", f("fs30.txt")],
        ["verify", f("r16.txt"), "--json"],
        ["verify", f("p14.txt")],
        ["verify", f("bad.txt")],
        ["spectrum", f("p14.txt")],
        ["spectrum", f("h16.txt"), "--json"],
        ["spectrum", f("y20.txt")],
        ["spectrum", f("s30.txt")],
        ["lift", f("g12.graph")],
        ["lift", f("g12.graph"), "-o", o("out_lift.graph")],
        ["lift", f("g16.graph"), "--json"],
        ["ramanujan", f("g12.graph")],
        ["ramanujan", f("g12.graph"), "--mode", "bipartite-strict"],
        ["ramanujan", f("g16.graph"), "--json"],
        ["ramanujan", f("g8.graph")],
        ["table", "--family", "knn", "-n", "8"],
        ["table", "--family", "knn-minus-m", "-n", "14"],
        ["table", "--family", "nc4-complement", "-n", "6", "--json"],
        ["switch-classes", f("e7.graph")],
        ["switch-classes", f("e8.graph"), "--json"],
        ["twograph", f("t6.triples")],
        ["twograph", f("t7.triples")],
        ["twograph", f("t6bad.triples")],
        ["verify", f("v32.txt"), "--json"],
    ]


def test_each_subcommand_takes_one_parser_pass(tmp_path, capsys, monkeypatch):
    """argv that names a subcommand is parsed by that subcommand's parser alone."""
    session = _session_argv(tmp_path)
    (tmp_path / "out").mkdir()
    calls, parse = [], argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for command in SUBCOMMANDS:
        argv = next(a for a in session if a[0] == command)
        calls.clear()
        code, _, err = run(capsys, *argv)
        assert code in (0, 1) and err == "", argv
        assert calls == [f"twoeig {command}"], argv


def test_one_pass_dispatch_matches_the_full_parser(tmp_path, capsys, monkeypatch):
    """Every cli-session command, each subcommand's -h, no argv, and argv the full parser
    rejects give the same stdout, stderr, exit code, written files and Namespace as the
    full parser's parse_args with the same handler."""
    f = str(tmp_path / "h16.txt")
    table = _session_argv(tmp_path) + [[command, "-h"] for command in SUBCOMMANDS] + [
        [], ["-h"], ["frobnicate", f], ["gen", "bogus"], ["verify"],
        ["table", "--family", "knn"], ["verify", f, "--frob"], ["verify", f, "extra"],
        ["--json", "verify", f], ["verify", "--", f], ["verify", f, "--js"],
        ["gen", "kron", "-o"], ["lift", f, "--", "extra"],
    ]
    out_dir = tmp_path / "out"

    def outcome(argv, parse):
        namespaces = []

        def recorded(argv):
            namespaces.append(vars(parse(argv)))
            return argparse.Namespace(**namespaces[-1])

        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        monkeypatch.setattr(twoeig.cli, "_parse_args", recorded)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        return code, captured.out, captured.err, written, namespaces

    one_pass, full = twoeig.cli._parse_args, lambda argv: _build_parser()[0].parse_args(argv)
    codes = set()
    for argv in table:
        got = outcome(argv, one_pass)
        assert got == outcome(argv, full), argv
        codes.add(got[0])
    assert codes == {0, 1, 2}
