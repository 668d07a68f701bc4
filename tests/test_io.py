import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import twoeig
from twoeig import SignedGraph, SignedMatrix, constructions, star, two_lift
from twoeig.cli import main
from twoeig.io import (
    format_graph,
    format_matrix,
    format_signed_graph,
    format_triples,
    parse_matrix,
    parse_signed_graph,
    parse_triples,
)

from conftest import (
    K6_MATRIX,
    K6_TRIPLES,
    edge_signs,
    format_lift_oracle,
    format_matrix_oracle,
    format_signed_graph_oracle,
    format_triples_oracle,
    odd_product_triples,
    parse_matrix_oracle,
    parse_signed_graph_oracle,
    parse_triples_oracle,
    random_signed_graph,
    traced_peak,
)


def test_matrix_round_trip():
    m = SignedMatrix(K6_MATRIX)
    assert parse_matrix(format_matrix(m)) == m
    rect = SignedMatrix([[1, 0, -1], [0, 1, 1]])
    assert parse_matrix(format_matrix(rect)) == rect


def test_matrix_trailing_lines_ignored():
    text = format_matrix(SignedMatrix([[1, 1], [1, -1]])) + "alpha = 2\n"
    assert parse_matrix(text).rows == 2


def test_matrix_parse_errors():
    with pytest.raises(ValueError, match="empty"):
        parse_matrix("  \n ")
    with pytest.raises(ValueError, match="header"):
        parse_matrix("2\n1 1\n1 1\n")
    with pytest.raises(ValueError, match="expected 3 data rows"):
        parse_matrix("3 2\n1 1\n1 1\n")
    with pytest.raises(ValueError, match="row 2 has 1 entries"):
        parse_matrix("2 2\n1 1\n1\n")
    with pytest.raises(ValueError, match="non-integer"):
        parse_matrix("1 2\n1 x\n")
    with pytest.raises(ValueError, match="entries must be"):
        parse_matrix("1 2\n1 5\n")
    with pytest.raises(ValueError, match="positive"):
        parse_matrix("0 2\n")


def test_signed_graph_round_trip():
    sg = SignedGraph(K6_MATRIX)
    assert parse_signed_graph(format_signed_graph(sg)) == sg


def test_signed_graph_default_sign():
    sg = parse_signed_graph("3 2\n1 2\n2 3 -1\n")
    assert edge_signs(sg) == {(0, 1): 1, (1, 2): -1}


def test_signed_graph_parse_errors():
    with pytest.raises(ValueError, match="out of range 1..3"):
        parse_signed_graph("3 1\n1 4\n")
    with pytest.raises(ValueError, match="edge line 1 must be"):
        parse_signed_graph("3 1\n1 2 1 1\n")
    with pytest.raises(ValueError, match="expected 2 edge lines"):
        parse_signed_graph("3 2\n1 2\n")
    with pytest.raises(ValueError, match="sign"):
        parse_signed_graph("3 1\n1 2 7\n")


def test_triples_round_trip():
    text = format_triples(6, K6_TRIPLES)
    n, triples = parse_triples(text)
    assert n == 6
    assert triples.dtype == np.intp and triples.tolist() == sorted(map(list, K6_TRIPLES))


def test_triples_parse_errors():
    with pytest.raises(ValueError, match="three labels"):
        parse_triples("4 1\n1 2\n")
    with pytest.raises(ValueError, match="distinct"):
        parse_triples("4 1\n1 2 2\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_triples("4 1\n1 2 5\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_triples("4 2\n1 2 3\n3 1 2\n")


def test_formats_are_one_based():
    sg = SignedGraph.from_edges(2, [(0, 1, -1)])
    assert format_signed_graph(sg) == "2 1\n1 2 -1\n"
    assert format_triples(3, [(0, 1, 2)]) == "3 1\n1 2 3\n"


def test_parsers_reject_extra_data_lines():
    with pytest.raises(ValueError, match="expected 3 edge lines, found 4"):
        parse_signed_graph("4 3\n1 2\n2 3\n3 4\n1 4 -1\n")
    with pytest.raises(ValueError, match="expected 1 triple lines, found 2"):
        parse_triples("4 1\n1 2 3\n2 3 4\n")
    with pytest.raises(ValueError, match="'key = value' annotations, got '1 1'"):
        parse_matrix("2 2\n1 1\n1 -1\n1 1\n")
    with pytest.raises(ValueError, match="annotations, got 'alpha ='"):
        parse_matrix("2 2\n1 1\n1 -1\nalpha =\n")
    text = "2 2\n1 1\n1 -1\n\nalpha = 2\nnote = order 2\n"
    assert parse_matrix(text) == SignedMatrix([[1, 1], [1, -1]])


PARSERS = {
    "matrix": (parse_matrix, parse_matrix_oracle),
    "graph": (parse_signed_graph, parse_signed_graph_oracle),
    "triples": (parse_triples, parse_triples_oracle),
}
# each token goes into an entry, label or sign position of every format
TEMPLATES = {
    "matrix": ["2 2{e}1{s}{tok}{e}0{s}-1{e}", "1 3{e}{tok}{s}1{s}0{e}alpha = 2{e}"],
    "graph": ["3 2{e}1{s}2{s}{tok}{e}2{s}3{e}", "3 2{e}1{s}{tok}{e}2{s}3{s}-1{e}"],
    "triples": ["4 2{e}1{s}2{s}{tok}{e}2{s}3{s}4{e}", "4 2{e}{tok}{s}3{s}4{e}1{s}2{s}4{e}"],
}
# separators and line ends: spaces, tabs, CRLF, trailing spaces
LAYOUTS = [(" ", "\n"), ("\t", "\n"), (" ", "\r\n"), ("  ", "  \n"), ("\t", " \t\r\n")]


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(value, tuple):  # (n, triples): the reader's array, the oracle's list
        value = value[0], list(map(tuple, np.asarray(value[1]).tolist()))
    return "ok", value.data.tolist() if isinstance(value, SignedMatrix) else value


@pytest.mark.parametrize("token", [
    "300", "255", "18446744073709551617", "-18446744073709551617", "9223372036854775808",
    "- 1", "1.5", "1e0", "abc", "+1", "-0", "01", "-1", "+-1", "1-", "0x1", "\x00"])
def test_adversarial_tokens_keep_the_reference_verdicts(token):
    """Same accept or reject verdict and the same message as the per-line reader. int64
    saturates, so 300 or 2^64 + 1 can never wrap into a trit, a sign or a label."""
    for fmt, templates in TEMPLATES.items():
        parse, oracle = PARSERS[fmt]
        for template in templates:
            for sep, end in LAYOUTS:
                text = template.format(tok=token, s=sep, e=end)
                assert _outcome(parse, text) == _outcome(oracle, text), text


def test_out_of_range_entries_are_rejected_not_wrapped():
    for big in ("300", "18446744073709551617", "-18446744073709551617"):
        with pytest.raises(ValueError, match="entries must be -1, 0 or \\+1"):
            parse_matrix(f"1 2\n1 {big}\n")
        with pytest.raises(ValueError, match="vertex out of range 1..3"):
            parse_signed_graph(f"3 1\n1 {big}\n")
        with pytest.raises(ValueError, match="label out of range 1..4"):
            parse_triples(f"4 1\n1 2 {big}\n")
    with pytest.raises(ValueError, match="^edge \\(0, 1\\) has sign 18446744073709551617, expected"):
        parse_signed_graph("3 1\n1 2 18446744073709551617\n")


def test_vertex_counts_stop_below_the_int64_limit():
    """Labels are read as int64, which saturates; a larger count could take a label
    past the limit for an in-range one."""
    for parse, what in [(parse_signed_graph, "1 2"), (parse_triples, "1 2 3")]:
        with pytest.raises(ValueError, match="vertex count must be below 9223372036854775807"):
            parse(f"9223372036854775807 1\n{what}\n")
    assert parse_triples("9223372036854775806 1\n1 2 9223372036854775806\n")[1].tolist() == [
        [0, 1, 9223372036854775805]]


def test_a_detached_sign_is_not_an_integer():
    """'- 1' is two tokens to str.split; np.fromstring alone would read it as -1."""
    with pytest.raises(ValueError, match="row 1 has a non-integer entry"):
        parse_matrix("1 3\n- 1 1\n")
    with pytest.raises(ValueError, match="row 1 has 3 entries, expected 2"):
        parse_matrix("1 2\n- 1 1\n")
    with pytest.raises(ValueError, match="edge line 1 has a non-integer field"):
        parse_signed_graph("3 1\n1 2 -\n")


@pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11"])
def test_underscores_and_non_ascii_digits_are_not_integers(token):
    """The token grammar is ASCII: an optional sign, then digits 0-9. Python int, which
    the per-line reader used, reads "1_0" as 10 and the Arabic-Indic and fullwidth
    digit one as 1."""
    reference = ("error", "entries must be -1, 0 or +1") if token == "1_0" else ("ok", [[1]])
    assert _outcome(parse_matrix_oracle, f"1 1\n{token}\n") == reference
    with pytest.raises(ValueError, match="row 1 has a non-integer entry"):
        parse_matrix(f"1 2\n1 {token}\n")
    with pytest.raises(ValueError, match="edge line 1 has a non-integer field"):
        parse_signed_graph(f"3 1\n1 2 {token}\n")
    with pytest.raises(ValueError, match="triple line 1 has a non-integer label"):
        parse_triples(f"4 1\n1 2 {token}\n")
    with pytest.raises(ValueError, match="header must be two integers"):
        parse_matrix(f"{token} 2\n1 1\n")


def test_every_whitespace_character_splits_as_str_split_does():
    """Non-ASCII spaces and line breaks separate tokens and lines as str.split and
    str.splitlines do, and an error message quotes the line as written."""
    for ch in (chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()):
        for fmt, text in [("matrix", f"2 2\n1{ch}1\n1 -1{ch}\n"),
                          ("matrix", f"1 2{ch}1 1{ch}note = a{ch}b\n"),
                          ("graph", f"3 1{ch}1{ch}2{ch}-1{ch}"),
                          ("graph", f"3 1\n1{ch}2{ch}1{ch}1\n"),
                          ("triples", f"4 1\n{ch}1 2{ch}3\n{ch}")]:
            parse, oracle = PARSERS[fmt]
            assert _outcome(parse, text) == _outcome(oracle, text), repr(text)


def test_annotations_may_hold_any_text():
    text = "2 2\n1 1\n1 -1\nnote = \u00fcn\u00efcode 1_0 \u0661 x\ud800\n"
    assert parse_matrix(text) == SignedMatrix([[1, 1], [1, -1]])


@pytest.fixture(params=["by length", "bytes"])
def route(request, monkeypatch):
    """Run a test as the reader chooses its integer route, and again with every data
    region long enough for the byte decode, so that small texts exercise it too."""
    if request.param == "bytes":
        monkeypatch.setattr(twoeig.io, "_DECODE_MIN_BYTES", 0)
    return request.param


@pytest.fixture
def fromstring_calls(monkeypatch):
    """The number of np.fromstring calls made so far in the test."""
    calls = []
    fromstring = np.fromstring

    def counted(*args, **kwargs):
        calls.append(1)
        return fromstring(*args, **kwargs)

    monkeypatch.setattr(np, "fromstring", counted)
    return calls


# separators and line ends beyond LAYOUTS: \x1f (a space) and \x1c-\x1e (line breaks),
# which np.fromstring does not skip, non-ASCII spaces and line breaks, and blank lines
BYTE_LAYOUTS = LAYOUTS + [("\x1f", "\n"), ("\x1f", "\x1c"), (" ", "\x1d"), ("\t", "\x1e"),
                          ("\u2003", "\u2028"), ("\xa0", "\x85"), (" ", "\n \n\t\n")]


@pytest.mark.parametrize("token", ["+1", "-0", "+0", "01", "-01", "+01", "2", "3", "4", "5",
                                   "6", "7", "8", "9", "-9", "+9", "10", "-10"])
def test_single_digit_tokens_keep_the_reference_verdicts(route, token):
    """A one-digit token is its digit, negated after "-"; "01" and "-01" have two digits
    and are read by np.fromstring. Each token lands in an entry, label or sign position
    after the header, in every layout, with "alpha = N" annotations after the rows."""
    for fmt, templates in TEMPLATES.items():
        parse, oracle = PARSERS[fmt]
        for template in templates:
            for sep, end in BYTE_LAYOUTS:
                text = template.format(tok=token, s=sep, e=end)
                assert _outcome(parse, text) == _outcome(oracle, text), repr(text)


@pytest.mark.parametrize("head", ["\n", "\r\n", "\x1c", "\u2028", " \n\n"])
def test_a_token_may_start_the_data_region(route, head):
    """The first data token right after the header's line break: a digit, whose byte
    before it is that break, or a sign."""
    for parse, oracle, body in [(parse_matrix, parse_matrix_oracle, "2 2{e}1 -1{e}-1 0"),
                                (parse_matrix, parse_matrix_oracle, "2 2{e}-1 1{e}0 +1"),
                                (parse_signed_graph, parse_signed_graph_oracle, "3 2{e}1 2 -1{e}2 3"),
                                (parse_triples, parse_triples_oracle, "4 2{e}3 1 2{e}4 2 1")]:
        text = body.format(e=head)
        got = _outcome(parse, text)
        assert got == _outcome(oracle, text) and got[0] == "ok", repr(text)


def _relaid(text: str, sep: str, end: str) -> str:
    return text.replace(" ", sep).replace("\n", end)


def test_long_texts_match_the_oracles_on_both_routes(fromstring_calls):
    """Texts past the decode threshold: a trit matrix file, and graph and triple files
    of one-digit labels, are decoded from the bytes with no np.fromstring call, in
    every layout; one two-digit token sends its block, here the whole text, to
    np.fromstring."""
    m = constructions.paley_conference(61)
    text = format_matrix(m) + "alpha = 61\n"
    for sep, end in BYTE_LAYOUTS:
        relaid = _relaid(text, sep, end)
        assert parse_matrix(relaid) == m == parse_matrix_oracle(relaid)
    assert not fromstring_calls
    head, _, rest = text.partition("\n0 ")
    for token, outcome in [("01", "ok"), ("00", "ok"), ("-00", "ok"), ("10", "error")]:
        changed = f"{head}\n{token} {rest}"
        got = _outcome(parse_matrix, changed)
        assert got == _outcome(parse_matrix_oracle, changed) and got[0] == outcome
    assert len(fromstring_calls) == 4
    edges = "8 400\n" + "1 5 -1\n" * 400
    assert len(edges) > twoeig.io._DECODE_MIN_BYTES
    assert _outcome(parse_signed_graph, edges) == _outcome(parse_signed_graph_oracle, edges)
    triples = "9 400\n" + "1 2 3\n" * 400
    assert _outcome(parse_triples, triples) == _outcome(parse_triples_oracle, triples)
    assert len(fromstring_calls) == 4


# Row blocks: _Lines classifies and decodes a text one block of about _BLOCK_BYTES
# at a time, each ending just after a "\n". These texts span several blocks of a
# small budget; each is read in blocks and as one block (a budget above its size),
# and the two reads must agree array for array and with the per-line oracle.
BLOCK = 256
# text sizes k budgets and a few bytes, as PANEL_ORDERS are for the product panels
BLOCK_SIZES = [k * BLOCK + d for k in (1, 2, 4) for d in (-2, -1, 0, 1, 2)]


@pytest.fixture
def small_blocks(monkeypatch):
    """Read texts in BLOCK-byte blocks, each data region by the byte decode; the
    returned function reads a text both ways and returns the blocked read's outcome
    and its block bounds."""
    monkeypatch.setattr(twoeig.io, "_DECODE_MIN_BYTES", 0)

    def read(parse, text):
        reads = []
        for budget in (BLOCK, 4 * len(text) + 1):
            monkeypatch.setattr(twoeig.io, "_BLOCK_BYTES", budget)
            lines = twoeig.io._Lines(text)
            reads.append((_outcome(parse, text), lines))
        (blocked, lines), (whole, one) = reads
        assert len(one.cuts) == 2 and blocked == whole, repr(text)
        for name in ("begin", "end", "count", "bad"):
            a, b = getattr(lines, name), getattr(one, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        monkeypatch.setattr(twoeig.io, "_BLOCK_BYTES", BLOCK)
        return blocked, lines.cuts

    return read


def _trit_text(rng, size: int, sep: str = " ", end: str = "\n") -> str:
    """A matrix text of rows of 12 trits and exactly size characters: the rows, then a
    "pad = x..." annotation that fills what is left."""
    rows = []
    while len(end.join(rows)) < size - 60:
        rows.append(sep.join(map(str, rng.integers(-1, 2, size=12))))
    text = f"{len(rows)}{sep}12{end}" + "".join(row + end for row in rows)
    pad = size - len(text) - len(f"pad{sep}={sep}{end}")
    assert pad >= 1
    return f"{text}pad{sep}={sep}{'x' * pad}{end}"


def _changed(text: str, at: int, new: str, old_len: int = 1) -> str:
    return text[:at] + new + text[at + old_len :]


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_block_edges_keep_every_verdict_and_message(rng, small_blocks, size):
    """Valid texts in four layouts (CRLF, \x1f and \x1c, blank lines), then with a bad
    byte first in the second block and last before it, and with one entry too few in
    the second block's first row."""
    for sep, end in [(" ", "\n"), ("\t", "\r\n"), ("\x1f", "\x1c\n"), (" ", " \n \n\t\n")]:
        text = _trit_text(rng, size, sep, end)
        got, cuts = small_blocks(parse_matrix, text)
        assert got == _outcome(parse_matrix_oracle, text) and got[0] == "ok"
        assert len(cuts) > 2 or size < 2 * BLOCK
        if len(cuts) < 4:
            continue
        last = max(i for i in range(cuts[1]) if not text[i].isspace())
        first = min(i for i in range(cuts[1], len(text)) if not text[i].isspace())
        short = _changed(text, first, "", text.index(sep, first) + len(sep) - first)
        for bad in [_changed(text, cuts[1], "x"), _changed(text, last, "x"), short]:
            got = small_blocks(parse_matrix, bad)[0]
            assert got == _outcome(parse_matrix_oracle, bad) and got[0] == "error", repr(bad)
        assert "has 11 entries, expected 12" in got[1]


UMLAUT = "\xfc"


def test_block_edges_keep_non_ascii_breaks_and_annotations(rng, small_blocks):
    """Non-ASCII line breaks and spaces at every block edge (lines and tokens as
    str.splitlines and str.split see them), and annotations across block edges, one
    of them bad, whose message quotes its line as written."""
    for sep, end in [("\u2003", "\u2028"), ("\xa0", "\x85"), (" ", "\u2028\n")]:
        text = _trit_text(rng, 4 * BLOCK, sep, end)
        got, cuts = small_blocks(parse_matrix, text)
        assert got == _outcome(parse_matrix_oracle, text) and got[0] == "ok" and len(cuts) > 3
    m = SignedMatrix(rng.integers(-1, 2, size=(3, 3)))
    notes = "".join(f"note_{k} = {UMLAUT * (k % 7)} {k}\n\n" for k in range(60))
    text = format_matrix(m) + notes
    got, cuts = small_blocks(parse_matrix, text)
    assert got == ("ok", m.data.tolist()) and len(cuts) > 3
    bad = text.replace("note_40 = ", "note 40 = ")
    got = small_blocks(parse_matrix, bad)[0]
    assert got == _outcome(parse_matrix_oracle, bad)
    assert got[1].endswith(f"got 'note 40 = {UMLAUT * 5} 40'")


def test_a_two_digit_token_in_the_last_block_reads_that_block_by_fromstring(
        rng, small_blocks, fromstring_calls):
    """The byte decode counts digits block by block; a "01" in the last block sends
    that block alone to np.fromstring, which reads it as 1."""
    text = _trit_text(rng, 4 * BLOCK)
    got, cuts = small_blocks(parse_matrix, text)
    assert got[0] == "ok" and not fromstring_calls
    at = text.rindex(" 1 ", 0, text.index("pad")) + 1
    assert at > cuts[-2]
    changed = _changed(text, at, "01")
    got = small_blocks(parse_matrix, changed)[0]
    assert got == _outcome(parse_matrix_oracle, changed) == ("ok", parse_matrix(text).data.tolist())
    assert len(fromstring_calls) == 2  # the blocked read and the one-block read


def test_a_two_digit_token_costs_one_block_of_a_long_text(monkeypatch):
    """The order-1024 Hadamard text is ten default blocks. A "01" in its first or its
    last block sends that block alone to np.fromstring, saturated into the int8
    result: the parse equals the oracle's, and its traced peak is within 1.2 times
    the text's as written (an int64 array of every entry would be 8 MB more). A "10"
    there is the out-of-range error."""
    m = constructions.sylvester_hadamard(10)
    text = format_matrix(m)
    assert len(twoeig.io._Lines(text).cuts) == 11
    clean = traced_peak(parse_matrix, text)
    reads = []
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda body, **kw: reads.append(len(body)) or
                        fromstring(body, **kw))
    for at in (text.index(" 1 ") + 1, text.rindex(" 1 ") + 1):
        changed = _changed(text, at, "01")
        assert parse_matrix(changed) == m == parse_matrix_oracle(changed)
        assert traced_peak(parse_matrix, changed) <= 1.2 * clean
    wrong = _changed(text, at, "10")
    got = _outcome(parse_matrix, wrong)
    assert got == _outcome(parse_matrix_oracle, wrong) and got[0] == "error"
    assert len(reads) == 5 and max(reads) < 2 * twoeig.io._BLOCK_BYTES


def test_graph_and_triple_texts_span_blocks(small_blocks):
    """Edge and triple files of several blocks, and a fault in a later block."""
    edges = [(u, v, 1 - 2 * ((u + v) % 2)) for u in range(1, 21) for v in range(u + 1, 21)]
    text = f"20 {len(edges)}\n" + "".join(f"{u} {v} {s}\n" for u, v, s in edges)
    for graph in [text, text.replace(" 1\n", "\n"), text.replace("\n9 11 1\n", "\n9 21 1\n"),
                  text.replace("\n9 11 1\n", "\n9 11 1 1\n"), text.replace("\n9 11", "\n9 x")]:
        got, cuts = small_blocks(parse_signed_graph, graph)
        assert got == _outcome(parse_signed_graph_oracle, graph) and len(cuts) > 3, got
    triples = odd_product_triples(constructions.paley_conference(13).data)
    text = format_triples(14, triples)
    for system in [text, text.replace("\n5 ", "\n15 ", 1), text + "1 2 3\n"]:
        got, cuts = small_blocks(parse_triples, system)
        assert got == _outcome(parse_triples_oracle, system) and len(cuts) > 3, got


def test_texts_of_several_default_blocks_match_the_oracle_and_one_block(monkeypatch):
    """The order-510 Paley text (649 KB) is three default blocks, order 1024 (2.6 MB)
    ten."""
    for m in (constructions.sylvester_hadamard(10), constructions.paley_conference(509)):
        text = format_matrix(m)
        lines = twoeig.io._Lines(text)
        assert len(lines.cuts) - 1 == -(-len(text) // twoeig.io._BLOCK_BYTES)
        assert parse_matrix(text) == m
        monkeypatch.setattr(twoeig.io, "_BLOCK_BYTES", len(text) + 1)
        one = twoeig.io._Lines(text)
        monkeypatch.undo()
        for name in ("begin", "end", "count", "bad"):
            assert np.array_equal(getattr(lines, name), getattr(one, name))
    assert parse_matrix_oracle(text) == m


def _constructed_matrices() -> list[SignedMatrix]:
    c = constructions.paley_conference(13)
    h = constructions.sylvester_hadamard(2)
    out = [constructions.sylvester_hadamard(k) for k in range(0, 7)]
    out += [constructions.paley_conference(q) for q in (5, 13, 29, 61)]
    out += [constructions.double(c)[0], constructions.conference_block(c),
            constructions.kronecker(h, c), constructions.kronecker_orthogonal(h, c)[0],
            constructions.shift_antisymmetric(SignedMatrix([[0, 1], [-1, 0]]))[0]]
    out += [constructions.williamson_preset(c, p) for p in constructions.WILLIAMSON_PRESETS]
    return out


def _random_matrices(rng) -> list[SignedMatrix]:
    shapes = [(1, 1), (1, 37), (37, 1), (5, 9), (9, 5), (40, 40)]
    return [SignedMatrix(rng.integers(-1, 2, size=shape)) for shape in shapes]


def test_matrix_writer_and_reader_match_the_per_entry_oracles(rng):
    for m in _constructed_matrices() + _random_matrices(rng):
        text = format_matrix(m)
        assert text == format_matrix_oracle(m)
        assert parse_matrix(text) == m == parse_matrix_oracle(text)
        assert format_matrix(parse_matrix(text)) == text


def _signed_graphs(rng) -> list[SignedGraph]:
    graphs = [SignedGraph([[0]]), SignedGraph(np.zeros((5, 5), dtype=np.int8)),
              SignedGraph.from_edges(7, [(0, 3, -1), (3, 5, 1), (2, 6, -1)]),
              SignedGraph(K6_MATRIX), SignedGraph(constructions.paley_conference(29)),
              star(constructions.sylvester_hadamard(5)), star(constructions.paley_conference(13))]
    graphs += [random_signed_graph(rng, n, p) for n, p in [(2, 1.0), (9, 0.3), (31, 0.5), (120, 0.1)]]
    return graphs


def test_signed_graph_and_lift_writers_match_the_per_edge_oracles(rng):
    for sg in _signed_graphs(rng):
        text = format_signed_graph(sg)
        assert text == format_signed_graph_oracle(sg)
        assert parse_signed_graph(text) == sg == parse_signed_graph_oracle(text)
        assert format_signed_graph(parse_signed_graph(text)) == text
        lift = two_lift(sg)
        lifted = format_graph(lift.graph)
        assert lifted == format_lift_oracle(lift)
        assert parse_signed_graph(lifted) == SignedGraph(lift.graph.adjacency())


def test_lift_command_prints_the_oracle_edge_list(tmp_path, capsys):
    sg = star(constructions.paley_conference(5))
    f = tmp_path / "s.graph"
    f.write_text(format_signed_graph(sg))
    assert main(["lift", str(f)]) == 0
    assert capsys.readouterr().out.startswith(format_lift_oracle(two_lift(sg)) + "command: lift\n")


def test_triple_writer_and_reader_match_the_per_triple_oracles():
    paley = odd_product_triples(constructions.paley_conference(61).data)
    shuffled = [(c, a, b) for a, b, c in reversed(paley)]
    for n, triples in [(62, paley), (62, shuffled), (62, frozenset(paley)), (6, K6_TRIPLES),
                       (4, []), (5, [(3, 1, 2), (0, 4, 2), (1, 2, 3), (0, 1, 2)])]:
        text = format_triples(n, triples)
        assert text == format_triples_oracle(n, triples)
    for n, triples in [(62, paley), (4, [])]:
        text = format_triples(n, triples)
        got = parse_triples(text)
        assert got[1].dtype == np.intp
        assert (got[0], list(map(tuple, got[1].tolist()))) == (n, sorted(triples)) == \
            parse_triples_oracle(text)
        assert format_triples(*got) == text
    assert format_triples(4, []) == "4 0\n"


def test_triple_writer_rejects_triples_that_are_not_three_vertices():
    with pytest.raises(ValueError, match="three integer vertices"):
        format_triples(5, [(0, 1), (2, 3, 4, 1)])


def test_triple_writer_rejects_labels_outside_the_vertex_range():
    """Its reader rejects all three; the writer wrapped 2^63 - 1 to a negative label,
    wrote -1 as label 0 and 5 as 6."""
    for label in (2**63 - 1, -1, 5, 3):
        with pytest.raises(ValueError, match=r"^triple \(.*\) has a vertex out of range \[0, 3\)$"):
            format_triples(3, [(0, 1, 2), (label, 0, 1)])
    assert format_triples(3, [(2, 0, 1)]) == "3 1\n1 2 3\n"


def _rows_oracle(header: str, rows) -> str:
    return "".join(f"{line}\n" for line in [header, *(" ".join(map(str, r)) for r in rows)])


def _rows_of_width(rng, width: int, shape) -> np.ndarray:
    """Random int64 rows whose largest magnitude has exactly width digits: every digit
    count up to width, both signs, zeros, and the int64 extremes at width 19."""
    top = min(10**width - 1, np.iinfo(np.int64).max)
    digits = rng.integers(1, width + 1, size=np.prod(shape)).tolist()
    rows = np.array([int(rng.integers(10 ** (d - 1), min(10**d, top)))
                     for d in digits]).reshape(shape)
    rows[rng.random(shape) < 0.3] *= -1
    rows[rng.random(shape) < 0.1] = 0
    rows.flat[0] = top
    if width == 19:
        rows.flat[1:4] = [np.iinfo(np.int64).min, -top, -(10**18)]
    return rows


def test_writers_match_the_per_entry_join_for_every_width(rng):
    """Byte-identical to " ".join(map(str, row)) for entries of 1 to 19 digits, as rows,
    as triple labels (in range: non-negative, 0-based labels up to 2^63 - 2, written 1-based)
    and as graph labels."""
    for width in range(1, 20):
        for shape in [(1, 1), (1, 5), (7, 3), (40, 9)]:
            rows = _rows_of_width(rng, width, shape)
            assert twoeig.io._write_rows("h 1", rows) == _rows_oracle("h 1", rows.tolist())
        labels = np.abs(_rows_of_width(rng, width, (50, 3)).clip(-np.iinfo(np.int64).max))
        labels[labels == np.iinfo(np.int64).max] -= 1
        n = int(labels.max()) + 1
        assert format_triples(n, labels.tolist()) == _rows_oracle(
            f"{n} 50", sorted(sorted(x + 1 for x in t) for t in labels.tolist()))
    for m in _random_matrices(rng) + [SignedMatrix(-np.ones((3, 4))), SignedMatrix([[0, 0]])]:
        assert format_matrix(m) == _rows_oracle(f"{m.rows} {m.cols}", m.data.tolist())
    for n in (9, 10, 99, 100, 1001):
        sg = random_signed_graph(rng, n, 3 / n)
        assert format_signed_graph(sg) == format_signed_graph_oracle(sg)


def test_text_io_peak_memory_stays_below_the_per_entry_code():
    """tracemalloc peaks on an order-1024 Hadamard matrix, in bytes per entry: the
    per-entry writer peaked at 7.6 and the per-entry reader at 20.2. The reader that
    read every entry with np.fromstring peaked at 15.02, and the whole-text byte decode
    at 11.0 (int64 positions and a digit mask). Read in row blocks, the peak is the
    text's bytes (2.5 per entry), the int8 result and one block's working arrays: 5.64."""
    m = constructions.sylvester_hadamard(10)
    entries = m.rows * m.cols
    text = format_matrix(m)
    tracemalloc.start()
    try:
        format_matrix(m)
        format_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        parse_matrix(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert format_peak <= 7.6 * entries
    assert parse_peak <= 6.2 * entries


def test_parse_peak_memory_stays_within_twice_the_text():
    """At order 2048 (10.5 MB of text) a parse holds the text's bytes, the int8 result
    (0.4 of the text) and one block's working arrays: 1.62 times the text. The whole-text
    passes peaked at 6.0 times it."""
    text = format_matrix(constructions.sylvester_hadamard(11))
    tracemalloc.start()
    try:
        parse_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text)


def test_text_io_loads_no_module():
    """Reading and writing every format, error paths included, imports nothing new
    (np.unique, for one, would pull in numpy.ma)."""
    script = """
import sys
from twoeig import constructions, io, lifts_ramanujan, star
m = constructions.sylvester_hadamard(3)
before = set(sys.modules)
io.parse_matrix(io.format_matrix(m))
sg = star(m)
io.parse_signed_graph(io.format_signed_graph(sg))
io.format_graph(lifts_ramanujan.two_lift(sg).graph)
io.parse_triples(io.format_triples(5, [(0, 1, 2), (1, 2, 3)]))
for parse, text in [(io.parse_matrix, "1 2\\n1 x\\n"), (io.parse_signed_graph, "3 2\\n1 2\\n2 1\\n"),
                    (io.parse_triples, "4 2\\n1 2 3\\n3 2 1\\n")]:
    try:
        parse(text)
    except ValueError:
        pass
print(sorted(set(sys.modules) - before))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(twoeig.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
