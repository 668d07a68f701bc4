import math

import numpy as np
import pytest

from twoeig import (
    Graph,
    LiftedGraph,
    SignedGraph,
    SignedMatrix,
    bipartite_complement,
    complement,
    disjoint_union,
    double,
    eigenvalues_symmetric,
    ground,
    ground_ramanujan_from_symmetric,
    is_good_signature,
    is_ramanujan,
    k_c4_complement,
    lemma_ram_check,
    lift_spectrum_check,
    paley_conference,
    resign,
    star,
    sylvester_hadamard,
    table_row,
    two_lift,
)

from conftest import lift_union_oracle, petersen, random_signed_graph


def one_negative_cycle(n):
    edges = [(i, i + 1, 1) for i in range(n - 1)] + [(0, n - 1, -1)]
    return SignedGraph.from_edges(n, edges)


def test_two_lift_layouts():
    lift = two_lift(SignedGraph.all_positive(Graph.cycle(4)))
    assert lift.base_n == 4
    assert len(lift.graph.components()) == 2
    assert is_ramanujan(lift.graph).degree == 2

    crossed = two_lift(one_negative_cycle(4))
    assert len(crossed.graph.components()) == 1
    assert eigenvalues_symmetric(crossed.graph).close_to(
        eigenvalues_symmetric(Graph.cycle(8)).pairs
    )


def test_two_lift_edge_images():
    sg = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])
    lift = two_lift(sg)
    assert lift.graph.edges == Graph(6, [(0, 1), (3, 4), (1, 5), (2, 4)]).edges


def test_lifted_graph_validation():
    with pytest.raises(ValueError, match="must have 4"):
        LiftedGraph(2, Graph(3))
    with pytest.raises(ValueError, match="mismatched degrees"):
        LiftedGraph(2, Graph(4, [(0, 1)]))


def test_lift_spectrum_union_rule(k6_signing, rng):
    assert lift_spectrum_check(k6_signing) and lift_union_oracle(k6_signing)
    assert lift_spectrum_check(one_negative_cycle(5)) and lift_union_oracle(one_negative_cycle(5))
    for _ in range(15):
        sg = random_signed_graph(rng, int(rng.integers(2, 8)))
        assert lift_spectrum_check(sg) and lift_union_oracle(sg)


def test_lift_spectrum_check_rejects_a_crossed_positive_edge(monkeypatch):
    """A lift that crosses one positive edge of an all-positive triangle lifts the
    unbalanced triangle instead: the block identity fails, and so does the union."""
    from twoeig import lifts_ramanujan

    sg = SignedGraph.all_positive(Graph.complete(3))

    def crossed(base):
        a = np.array(two_lift(base).graph.adjacency())
        a[[0, 1, 3, 4], [1, 0, 4, 3]] = 0
        a[[0, 1, 3, 4], [4, 3, 1, 0]] = 1
        return LiftedGraph(base.n, Graph.from_adjacency(a))

    assert lift_spectrum_check(sg) is True
    monkeypatch.setattr(lifts_ramanujan, "two_lift", crossed)
    assert lift_spectrum_check(sg) is False
    assert not lift_union_oracle(sg, crossed(sg))


def test_is_ramanujan_examples():
    assert is_ramanujan(Graph.complete(6)).verdict
    assert is_ramanujan(petersen()).lambda2 == pytest.approx(1.0, abs=1e-9)
    two_squares = disjoint_union(Graph.cycle(4), Graph.cycle(4))
    report = is_ramanujan(two_squares)
    assert report.verdict and report.lambda2 == pytest.approx(2.0, abs=1e-9)
    assert report.bound == pytest.approx(2.0)
    two_k33 = disjoint_union(
        Graph.complete_bipartite(3, 3), Graph.complete_bipartite(3, 3)
    )
    assert not is_ramanujan(two_k33).verdict


def test_ramanujan_modes_can_disagree():
    """Complete tripartite on 8+8+8: second eigenvalue 0, smallest -8."""
    g = complement(disjoint_union(*(Graph.complete(8),) * 3))
    literal = is_ramanujan(g, "paper_literal")
    strict = is_ramanujan(g, "bipartite_strict")
    assert literal.degree == strict.degree == 16
    assert literal.verdict
    assert not strict.verdict
    assert strict.lambda2 == pytest.approx(8.0, abs=1e-8)


def test_bipartite_strict_drops_both_extremes():
    report = is_ramanujan(Graph.complete_bipartite(3, 3), "bipartite_strict")
    assert report.verdict and report.lambda2 == pytest.approx(0.0, abs=1e-9)


def test_is_ramanujan_rejections():
    with pytest.raises(ValueError, match="not regular"):
        is_ramanujan(Graph.path(3))
    with pytest.raises(ValueError, match="degree at least 1"):
        is_ramanujan(Graph(3))
    with pytest.raises(ValueError, match="unknown mode"):
        is_ramanujan(Graph.complete(3), "strict")


def test_good_signature(k6_signing, rng):
    assert is_good_signature(k6_signing)
    assert not is_good_signature(SignedGraph.all_positive(Graph.complete(6)))
    sg = k6_signing
    for _ in range(8):
        sg = resign(sg, int(rng.integers(6)))
        assert is_good_signature(sg)
    with pytest.raises(ValueError, match="not regular"):
        is_good_signature(SignedGraph.all_positive(Graph.path(3)))
    with pytest.raises(ValueError, match="at least 2"):
        is_good_signature(SignedGraph.from_edges(2, [(0, 1, -1)]))


def test_complement_basics(rng):
    assert complement(Graph.complete(4)).m == 0
    assert complement(Graph(3)).edges == Graph.complete(3).edges
    c5 = Graph.cycle(5)
    assert sorted(complement(c5).degrees()) == [2] * 5
    for _ in range(10):
        n = int(rng.integers(1, 9))
        g = ground(random_signed_graph(rng, n)) if n > 1 else Graph(1)
        assert complement(complement(g)) == g


def test_bipartite_complement_examples():
    c4 = Graph.cycle(4)
    empty = bipartite_complement(c4, ([0, 2], [1, 3]))
    assert empty.m == 0
    matching = Graph(4, [(0, 2), (1, 3)])
    flipped = bipartite_complement(matching, ([0, 1], [2, 3]))
    assert flipped.edges == Graph(4, [(0, 3), (1, 2)]).edges


def test_bipartite_complement_rejections():
    g = Graph(4, [(0, 2), (1, 3)])
    with pytest.raises(ValueError, match="do not partition"):
        bipartite_complement(g, ([0, 1], [2]))
    with pytest.raises(ValueError, match="equal size"):
        bipartite_complement(Graph(4, [(0, 3)]), ([0], [1, 2, 3]))
    with pytest.raises(ValueError, match="inside one part"):
        bipartite_complement(Graph(4, [(0, 1)]), ([0, 1], [2, 3]))


def test_lemma_ram_check_examples():
    squares = disjoint_union(*(Graph.cycle(4),) * 5)
    report = lemma_ram_check(squares)
    assert report.inequality_holds
    assert report.complement_report.degree == 17
    assert report.complement_report.verdict

    report = lemma_ram_check(Graph(4))
    assert report.inequality_holds
    assert report.complement_report.degree == 3

    report = lemma_ram_check(Graph.complete(6))
    assert not report.inequality_holds
    assert report.complement_report is None

    with pytest.raises(ValueError, match="not regular"):
        lemma_ram_check(Graph.path(4))


def test_ground_ramanujan_accepts_valid_inputs():
    report = ground_ramanujan_from_symmetric(paley_conference(5))
    assert (report.alpha, report.n, report.k) == (5, 6, 0)
    assert report.lambda1 == pytest.approx(math.sqrt(5), abs=1e-9)
    assert report.signature_good and report.ground_report.verdict

    report = ground_ramanujan_from_symmetric(star(sylvester_hadamard(2)).matrix)
    assert (report.alpha, report.n, report.k) == (4, 8, 3)
    assert report.lambda1 == pytest.approx(2.0, abs=1e-9)
    assert report.signature_good and report.ground_report.verdict


def test_ground_ramanujan_rejections():
    with pytest.raises(ValueError, match="at least 2"):
        ground_ramanujan_from_symmetric(SignedMatrix([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="precondition failed"):
        ground_ramanujan_from_symmetric(star(paley_conference(5)).matrix)
    doubled, _ = double(paley_conference(5))
    with pytest.raises(ValueError, match="diagonal entries must all be 0"):
        ground_ramanujan_from_symmetric(doubled)
    with pytest.raises(ValueError, match="not an orthogonal"):
        ground_ramanujan_from_symmetric(Graph.cycle(4).adjacency())


def test_k_c4_complement_spectra():
    for k in range(2, 7):
        comp, spec = k_c4_complement(k)
        assert comp.n == 4 * k
        assert sorted(comp.degrees()) == [2 * k - 2] * (4 * k)
        assert eigenvalues_symmetric(comp).close_to(spec.pairs)
    with pytest.raises(ValueError, match="at least 2"):
        k_c4_complement(1)


def test_table_rows():
    row = table_row("knn", 4)
    assert row.match and row.signature_good and row.note is None
    assert row.expected.close_to([(4, 1), (2, 4), (0, 6), (-2, 4), (-4, 1)])

    row = table_row("knn-minus-m", 6)
    assert row.match and row.signature_good
    root = math.sqrt(5)
    assert row.expected.close_to(
        [(5, 1), (root, 6), (1, 5), (-1, 5), (-root, 6), (-5, 1)]
    )

    row = table_row("nc4-complement", 6)
    assert row.match and row.signature_good
    assert "multiset-union" in row.note
    assert row.computed.order == 48


def test_table_row_rejections():
    with pytest.raises(ValueError, match="unknown family"):
        table_row("km", 4)
    with pytest.raises(ValueError, match="power of two"):
        table_row("knn", 3)
    with pytest.raises(ValueError, match="power of two"):
        table_row("knn", 1)
    with pytest.raises(ValueError, match="prime congruent"):
        table_row("knn-minus-m", 5)
    with pytest.raises(ValueError, match="prime congruent"):
        table_row("nc4-complement", 8)


def test_table_good_signature_invariant_under_resigning(rng):
    sg = star(sylvester_hadamard(2))
    for _ in range(8):
        sg = resign(sg, int(rng.integers(8)))
        assert is_good_signature(sg)
