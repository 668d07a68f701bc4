import itertools
import json

import numpy as np
import pytest

from twoeig import (
    SignedMatrix,
    eigenvalues_symmetric,
    is_orthogonal,
    paley_conference,
    sylvester_hadamard,
)
from twoeig.cli import main
from twoeig.io import format_matrix, format_signed_graph, format_triples, parse_matrix

from conftest import K6_MATRIX, K6_TRIPLES

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
        if not a.any():
            assert code == 2 and "no edges" in err
            continue
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
    from twoeig import spectra

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
