"""Acceptance gate: one test per shipped guarantee, each printing a PASS line.

Every criterion pins its tolerance explicitly (exact integer identities where
the guarantee is exact, 1e-4 against printed reference values, 1e-6 for
spectral comparisons) and asserts its runtime budget where one is promised.
Run with `pytest -v` to get one pass/fail line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from twoeig import (
    Graph,
    SignedGraph,
    SignedMatrix,
    Spectrum,
    WilliamsonQuadruple,
    certify_two_eigenvalues,
    complement,
    conference_block,
    count_switching_classes,
    degree_from_certificate,
    descendant,
    disjoint_union,
    double,
    eigenvalues_symmetric,
    enumerate_switching_classes,
    ground,
    ground_ramanujan_from_symmetric,
    is_orthogonal,
    is_regular,
    is_regular_twograph,
    k_c4_complement,
    kronecker,
    kronecker_orthogonal,
    lemma_ram_check,
    lift_spectrum_check,
    paley_conference,
    shift_antisymmetric,
    signed_complete_from_graph,
    star,
    sylvester_hadamard,
    table_row,
    twograph_from_signed_complete,
    validate_twograph,
    williamson_preset,
)
from twoeig.io import format_triples, parse_triples

from conftest import (
    K6_DESCENDANT_EDGES,
    K6_MATRIX,
    K6_TRIPLES,
    lift_union_oracle,
    odd_product_triples,
    pair_count_oracle,
    petersen,
    random_signed_graph,
    wide,
)

PRINTED_VALUE_TOL = 1e-4
SPECTRAL_TOL = 1e-6

ROTATION = SignedMatrix([[0, 1], [-1, 0]])


def _passed(number, started, budget=None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.3f} s, over its {budget:.0f} s budget"
        )
        print(f"criterion {number}: PASS ({elapsed:.3f} s < {budget:.0f} s)")
    else:
        print(f"criterion {number}: PASS ({elapsed:.3f} s)")


def test_criterion_01_six_vertex_example_end_to_end():
    started = time.perf_counter()
    tg = validate_twograph(6, K6_TRIPLES)
    assert tg is not None
    assert is_regular_twograph(tg) == 2

    d = descendant(tg, 0)
    assert d.sorted_edges() == K6_DESCENDANT_EDGES

    sg = signed_complete_from_graph(d)
    assert sg == SignedGraph(K6_MATRIX)

    a = wide(sg.matrix)
    assert np.array_equal(a @ a, 5 * np.eye(6, dtype=np.int64))
    cert = certify_two_eigenvalues(sg)
    assert (cert.a, cert.b) == (0, -5)
    assert (cert.mult_lam, cert.mult_mu) == (3, 3)
    assert abs(cert.lam - 2.2361) <= PRINTED_VALUE_TOL
    assert eigenvalues_symmetric(sg).close_to(
        [(2.2361, 3), (-2.2361, 3)], tol=PRINTED_VALUE_TOL
    )

    assert twograph_from_signed_complete(sg) == tg
    n, triples = parse_triples(format_triples(6, K6_TRIPLES))
    assert (n, triples.tolist()) == (6, sorted(list(t) for t in K6_TRIPLES))
    _passed(1, started, budget=1.0)


def test_criterion_02_construction_certificates_exact():
    """Exact integer certificates for every generator.

    The doubled matrix [[C+I, C-I], [C-I, -C-I]] satisfies B^2 = (2a+2)I,
    not (a+2)I: the diagonal blocks of B^2 are (C+I)^2 + (C-I)^2 = 2C^2 + 2I,
    and for a conference matrix C every entry of B is +-1, so each diagonal
    entry of B^2 counts a full row of squares, which is the order 2n = 2a+2.
    The assertions below pin that corrected constant.
    """
    started = time.perf_counter()
    for k in range(11):
        assert is_orthogonal(sylvester_hadamard(k)).alpha == 2**k

    for q in (5, 13, 17, 29, 37, 41):
        assert is_orthogonal(paley_conference(q)).alpha == q

    _, cert = kronecker_orthogonal(sylvester_hadamard(1), paley_conference(5))
    assert cert.alpha == 2 * 5
    _, cert = kronecker_orthogonal(sylvester_hadamard(2), sylvester_hadamard(3))
    assert cert.alpha == 4 * 8
    _, cert = kronecker_orthogonal(paley_conference(5), paley_conference(13))
    assert cert.alpha == 5 * 13

    for q in (5, 13):
        c = paley_conference(q)
        doubled, cert = double(c)
        assert cert.alpha == 2 * q + 2 == doubled.rows
        assert np.array_equal(
            wide(doubled) @ wide(doubled),
            (2 * q + 2) * np.eye(2 * (q + 1), dtype=np.int64),
        )

    _, cert = shift_antisymmetric(ROTATION)
    assert cert.alpha == 1 + 1
    for copies in (2, 3, 4):
        block = kronecker(SignedMatrix.identity(copies), ROTATION)
        assert is_orthogonal(block).alpha == 1
        _, cert = shift_antisymmetric(block)
        assert cert.alpha == 2
    _passed(2, started, budget=5.0)


def test_criterion_03_williamson_presets():
    started = time.perf_counter()
    c = paley_conference(5)
    for preset, alpha in (("all-c", 20), ("two-shifted", 22), ("four-shifted", 24)):
        h = williamson_preset(c, preset)
        assert h.rows == 24
        assert is_orthogonal(h).alpha == alpha

    h = williamson_preset(sylvester_hadamard(1), "nonsymmetric-all-c")
    assert h.rows == 8
    assert is_orthogonal(h).alpha == 8

    swap = SignedMatrix([[0, 1], [1, 0]])
    flip = SignedMatrix([[1, 0], [0, -1]])
    with pytest.raises(ValueError, match="do not commute"):
        WilliamsonQuadruple(swap, flip, swap, swap)
    _passed(3, started, budget=1.0)


def test_criterion_04_switching_class_count_oracle():
    started = time.perf_counter()
    corpus = [
        Graph.path(3),
        Graph.cycle(4),
        Graph.complete(4),
        Graph.complete_bipartite(2, 3),
        disjoint_union(Graph.cycle(3), Graph.cycle(3)),
    ]
    p = petersen()
    doomed = p.sorted_edges()
    for removed in (1, 2, 3):
        kept = [e for e in p.sorted_edges() if e not in doomed[:removed]]
        corpus.append(Graph(10, kept))

    for g in corpus:
        classes = enumerate_switching_classes(g)
        expected = count_switching_classes(g)
        assert len(classes) == expected
        comps = len(g.components())
        assert expected == 2 ** (g.m - g.n + comps)
    _passed(4, started, budget=30.0)


def test_criterion_05_lift_spectrum_union():
    started = time.perf_counter()
    rng = np.random.default_rng(20260815)
    for _ in range(50):
        sg = random_signed_graph(rng, int(rng.integers(2, 9)))
        assert lift_spectrum_check(sg) and lift_union_oracle(sg)

    smallest = [
        star(sylvester_hadamard(1)),
        star(paley_conference(5)),
        star(conference_block(paley_conference(5))),
    ]
    for sg in smallest:
        assert lift_spectrum_check(sg) and lift_union_oracle(sg)
    _passed(5, started, budget=10.0)


def test_criterion_06_certified_family_table_rows():
    started = time.perf_counter()
    for n in (2, 4, 8):
        row = table_row("knn", n, tol=SPECTRAL_TOL)
        assert row.match and row.signature_good and row.note is None
        root = math.sqrt(n)
        assert row.expected.close_to(
            [(n, 1), (root, n), (0, 2 * n - 2), (-root, n), (-n, 1)], tol=SPECTRAL_TOL
        )

    for n in (6, 14):
        row = table_row("knn-minus-m", n, tol=SPECTRAL_TOL)
        assert row.match and row.signature_good and row.note is None
        root = math.sqrt(n - 1)
        assert row.expected.close_to(
            [(n - 1, 1), (root, n), (1, n - 1), (-1, n - 1), (-root, n), (-(n - 1), 1)],
            tol=SPECTRAL_TOL,
        )

    for n in (6, 14):
        row = table_row("nc4-complement", n, tol=SPECTRAL_TOL)
        assert row.match and row.signature_good
        assert row.note is not None and "multiset-union" in row.note
    _passed(6, started, budget=10.0)


def test_criterion_07_disjoint_squares_complement_spectrum():
    started = time.perf_counter()
    for k in range(2, 7):
        comp, spec = k_c4_complement(k)
        expected = Spectrum.from_pairs(
            [(2 * k - 2, 1), (2, k - 1), (0, 2 * k), (-2, k - 1), (-(2 * k - 2), 1)]
        )
        assert spec.close_to(expected.pairs, tol=SPECTRAL_TOL)
        assert eigenvalues_symmetric(comp).close_to(expected.pairs, tol=SPECTRAL_TOL)
    _passed(7, started)


def test_criterion_08_two_eigenvalues_force_regularity():
    started = time.perf_counter()
    instances = [SignedGraph(K6_MATRIX)]
    matrices = []
    matrices += [sylvester_hadamard(k) for k in range(11)]
    matrices += [paley_conference(q) for q in (5, 13, 17, 29, 37, 41)]
    matrices.append(kronecker_orthogonal(sylvester_hadamard(1), paley_conference(5))[0])
    matrices.append(double(paley_conference(5))[0])
    matrices.append(double(paley_conference(13))[0])
    matrices.append(shift_antisymmetric(ROTATION)[0])
    matrices.append(shift_antisymmetric(kronecker(SignedMatrix.identity(3), ROTATION))[0])
    matrices += [
        williamson_preset(paley_conference(5), preset)
        for preset in ("all-c", "two-shifted", "four-shifted")
    ]
    matrices.append(williamson_preset(sylvester_hadamard(1), "nonsymmetric-all-c"))
    matrices.append(conference_block(paley_conference(5)))
    instances += [star(m) for m in matrices]

    for sg in instances:
        cert = certify_two_eigenvalues(sg)
        assert cert is not None
        degree = degree_from_certificate(cert)
        assert degree == -cert.b
        assert cert.lam * cert.mu == pytest.approx(cert.b, abs=1e-9)
        assert is_regular(ground(sg)) == degree
    _passed(8, started)


def test_criterion_09_regular_twograph_iff_two_eigenvalues():
    started = time.perf_counter()
    edges = Graph.complete(5).sorted_edges()
    certified = 0
    regular = 0
    for signs in itertools.product((1, -1), repeat=len(edges)):
        sg = SignedGraph.from_edges(5, [(u, v, s) for (u, v), s in zip(edges, signs)])
        has_cert = certify_two_eigenvalues(sg) is not None
        count = is_regular_twograph(twograph_from_signed_complete(sg))
        is_reg = count is not None
        assert has_cert == is_reg
        # is_regular_twograph is itself a certificate, so also compare it with
        # the triples through each pair, counted one at a time
        assert count == pair_count_oracle(5, odd_product_triples(sg.matrix.data))
        certified += has_cert
        regular += is_reg
    assert certified == regular
    assert 0 < certified < 2 ** len(edges)
    _passed(9, started, budget=10.0)


def test_criterion_10_ground_ramanujan_pipeline():
    """Good signatures whose ground graphs verify as Ramanujan.

    The doubled conference matrix of order 12 is orthogonal with alpha = 12
    (its entries are all +-1, so B^2 = 12I; see the doubling construction)
    and carries +-1 diagonal entries, so it is not a signed adjacency matrix
    and the pipeline must reject it. The verified instances below are the
    order-6 conference matrix itself (complement degree k = 0) and the star
    of the order-4 Hadamard matrix (k = 3), which satisfy every step of the
    chain: the degree-budget inequality, lambda1 = sqrt(alpha) within 1e-6,
    a good signature, and a Ramanujan ground graph.
    """
    started = time.perf_counter()
    doubled, cert = double(paley_conference(5))
    assert cert.alpha == 12
    assert is_orthogonal(doubled).alpha == 12
    assert np.any(np.diagonal(doubled.data) != 0)
    with pytest.raises(ValueError, match="diagonal entries must all be 0"):
        ground_ramanujan_from_symmetric(doubled)

    report = ground_ramanujan_from_symmetric(paley_conference(5))
    assert (report.alpha, report.n, report.k) == (5, 6, 0)
    assert abs(report.lambda1 - math.sqrt(5)) <= SPECTRAL_TOL
    assert report.lambda1 <= 2 * math.sqrt(report.alpha - 1) + SPECTRAL_TOL
    assert report.signature_good
    assert report.ground_report.verdict and report.ground_report.degree == 5

    report = ground_ramanujan_from_symmetric(star(sylvester_hadamard(2)).matrix)
    assert (report.alpha, report.n, report.k) == (4, 8, 3)
    assert abs(report.lambda1 - 2.0) <= SPECTRAL_TOL
    assert report.signature_good
    assert report.ground_report.verdict and report.ground_report.degree == 4

    with pytest.raises(ValueError, match="precondition failed"):
        ground_ramanujan_from_symmetric(star(paley_conference(5)).matrix)

    two_k4 = complement(ground(star(sylvester_hadamard(2))))
    lemma = lemma_ram_check(two_k4)
    assert lemma.k == 3 and lemma.inequality_holds
    assert lemma.complement_report.verdict
    _passed(10, started)
