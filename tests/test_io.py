import numpy as np
import pytest

from twoeig import SignedGraph, SignedMatrix
from twoeig.io import (
    format_matrix,
    format_signed_graph,
    format_triples,
    parse_matrix,
    parse_signed_graph,
    parse_triples,
)

from conftest import K6_MATRIX, K6_TRIPLES


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
    assert sg.edge_signs() == {(0, 1): 1, (1, 2): -1}


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
    assert triples == sorted(K6_TRIPLES)


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
