import itertools
from functools import reduce

import numpy as np
import pytest

from twoeig import (
    Graph,
    SignedGraph,
    TwoGraph,
    certify_two_eigenvalues,
    descendant,
    is_regular_twograph,
    paley_conference,
    resign,
    signed_complete_from_graph,
    star,
    switching_equivalent,
    sylvester_hadamard,
    twograph_from_signed_complete,
    validate_twograph,
)
from twoeig import twographs
from twoeig.twographs import _odd_count, _odd_slabs

from conftest import (
    K6_TRIPLES,
    edge_signs,
    odd_product_triples,
    pair_count_oracle,
    random_signed_graph,
    twograph_parity_oracle,
)


def complete_twograph(n):
    return validate_twograph(n, itertools.combinations(range(n), 3))


def test_twograph_container_and_cleaning():
    t = TwoGraph(4, [(2, 1, 0), (0, 1, 2), (1, 2, 3)])
    assert t.sorted_triples().tolist() == [[0, 1, 2], [1, 2, 3]]
    with pytest.raises(ValueError, match="distinct"):
        TwoGraph(4, [(0, 1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        TwoGraph(4, [(0, 1, 4)])
    with pytest.raises(ValueError, match="non-negative"):
        TwoGraph(-1, [])


def test_validate_twograph_parity():
    assert validate_twograph(4, [(0, 1, 2)]) is None
    assert validate_twograph(4, [(0, 1, 2), (0, 1, 3)]) is not None
    assert validate_twograph(3, [(0, 1, 2)]) is not None
    empty = validate_twograph(5, [])
    assert empty is not None and empty.triples == frozenset()
    assert complete_twograph(5) is not None
    with pytest.raises(ValueError, match="at least 1x1"):
        validate_twograph(0, [])


def test_k6_triples_form_a_regular_twograph():
    t = validate_twograph(6, K6_TRIPLES)
    assert t is not None
    assert len(t.triples) == 10
    assert is_regular_twograph(t) == 2


def test_regularity_examples():
    assert is_regular_twograph(complete_twograph(5)) == 3
    assert is_regular_twograph(TwoGraph(5, [])) == 0
    assert is_regular_twograph(TwoGraph(1, [])) == 0
    lopsided = validate_twograph(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert lopsided is not None
    assert is_regular_twograph(lopsided) is None


def test_descendant_examples():
    t = complete_twograph(5)
    d = descendant(t, 4)
    assert d.n == 5
    assert d.edges == Graph.complete(4).edges
    assert d.adjacency().sum(axis=1).tolist() == [3, 3, 3, 3, 0]
    with pytest.raises(ValueError, match="out of range"):
        descendant(t, 5)


def test_descendant_of_complete_twograph_is_k4_plus_isolated():
    d = descendant(complete_twograph(5), 0)
    assert sorted(d.adjacency().sum(axis=1).tolist()) == [0, 3, 3, 3, 3]
    assert all(0 not in edge for edge in d.edges)


def test_signed_complete_round_trip(k6_signing):
    t = validate_twograph(6, K6_TRIPLES)
    assert twograph_from_signed_complete(k6_signing) == t
    g = descendant(t, 0)
    sg = signed_complete_from_graph(g)
    assert twograph_from_signed_complete(sg) == t
    assert switching_equivalent(sg, k6_signing)


def test_twograph_invariant_under_resigning(k6_signing, rng):
    t = twograph_from_signed_complete(k6_signing)
    sg = k6_signing
    for _ in range(12):
        sg = resign(sg, int(rng.integers(6)))
        assert twograph_from_signed_complete(sg) == t


def test_signed_complete_from_graph_signs():
    g = Graph(3, [(0, 1)])
    sg = signed_complete_from_graph(g)
    signs = edge_signs(sg)
    assert signs[(0, 1)] == -1
    assert signs[(0, 2)] == 1 and signs[(1, 2)] == 1
    with pytest.raises(ValueError, match="at least 1x1"):
        signed_complete_from_graph(Graph(0))


def test_twograph_from_incomplete_rejected():
    sg = resign(signed_complete_from_graph(Graph(3, [])), 0)
    assert twograph_from_signed_complete(sg).triples == frozenset()
    with pytest.raises(ValueError, match="not complete"):
        twograph_from_signed_complete(SignedGraph.all_positive(Graph.path(3)))


def test_regular_twograph_matches_two_eigenvalue_signing(k6_signing):
    t = twograph_from_signed_complete(k6_signing)
    assert is_regular_twograph(t) == 2
    assert certify_two_eigenvalues(k6_signing) is not None
    skewed = signed_complete_from_graph(Graph(5, [(0, 1), (2, 3)]))
    assert is_regular_twograph(twograph_from_signed_complete(skewed)) is None
    assert certify_two_eigenvalues(skewed) is None


def random_complete_signing(rng, n):
    signs = np.triu(rng.choice((-1, 1), size=(n, n)), 1).astype(np.int8)
    return SignedGraph(signs + signs.T)


def check_against_oracles(n, triples):
    tg = validate_twograph(n, triples)
    valid = twograph_parity_oracle(n, triples)
    assert (tg is not None) == valid
    if valid:
        assert tg.triples == {tuple(sorted(t)) for t in triples}
        assert np.all(tg.seidel.matrix.data[0, 1:] == 1)
        assert is_regular_twograph(tg) == pair_count_oracle(n, triples)
    return valid


def test_validate_matches_brute_force_on_every_five_vertex_set():
    allt = list(itertools.combinations(range(5), 3))
    valid = regular = 0
    for bits in range(2 ** len(allt)):
        triples = [t for k, t in enumerate(allt) if bits >> k & 1]
        if check_against_oracles(5, triples):
            valid += 1
            regular += pair_count_oracle(5, triples) is not None
    # the two-graphs on 5 vertices are the 2^(m - n + 1) switching classes of K_5
    assert valid == 2 ** (10 - 5 + 1)
    assert 0 < regular < valid


def test_validate_matches_brute_force_on_random_sets(rng):
    verdicts = set()
    for n in range(6, 10):
        allt = list(itertools.combinations(range(n), 3))
        for _ in range(12):
            good = odd_product_triples(random_complete_signing(rng, n).matrix.data)
            flipped = sorted(set(good) ^ {allt[int(rng.integers(len(allt)))]})
            pick = rng.random(len(allt)) < rng.choice([0.1, 0.5, 0.9])
            chosen = [t for t, keep in zip(allt, pick) if keep]
            for triples in (good, flipped, chosen):
                verdicts.add(check_against_oracles(n, triples))
    assert verdicts == {True, False}


def test_odd_count_from_the_trace_matches_the_slab_listing(rng):
    """(C(n, 3) - tr(S^3) / 6) / 2 is the number of odd triples: on every signing of K_5
    and 200 seeded signings of each K_n for n = 6..40, against a product over all C(n, 3)
    triples of each stack of signings, and against _odd_slabs' listing on K_5 and the first
    20 of each stack; and 0 below n = 3."""
    pairs = np.array(list(itertools.combinations(range(5), 2)))
    bits = (np.arange(2 ** len(pairs))[:, None] >> np.arange(len(pairs))) & 1
    k5 = np.ones((len(bits), 5, 5), dtype=np.int8)
    k5[:, pairs[:, 0], pairs[:, 1]] = k5[:, pairs[:, 1], pairs[:, 0]] = 1 - 2 * bits
    k5[:, range(5), range(5)] = 0
    stacks = [k5]
    for n in range(6, 41):
        upper = np.triu(rng.choice((-1, 1), size=(200, n, n)), 1).astype(np.int8)
        stacks.append(upper + upper.transpose(0, 2, 1))
    for stack in stacks:
        x, y, z = np.array(list(itertools.combinations(range(stack.shape[1]), 3))).T
        odd = np.count_nonzero(stack[:, x, y] * stack[:, x, z] * stack[:, y, z] < 0, axis=1)
        assert [_odd_count(s) for s in stack] == odd.tolist()
        listed = stack if stack is k5 else stack[:20]
        assert [sum(map(len, _odd_slabs(s))) for s in listed] == odd[: len(listed)].tolist()
    for n in range(3):
        for sign in (1, -1):
            assert _odd_count(sign * (1 - np.eye(n, dtype=np.int8))) == 0


def test_validate_twograph_counts_without_listing(monkeypatch):
    """validate_twograph compares sizes by the trace count; the slab listing is only
    for sorted_triples."""
    def listed(s):
        raise AssertionError("validate_twograph listed the odd triples")

    monkeypatch.setattr(twographs, "_odd_slabs", listed)
    assert validate_twograph(6, K6_TRIPLES) is not None
    short = [t for t in K6_TRIPLES if t != (1, 2, 5)]  # every member still odd in S
    assert validate_twograph(6, short) is None
    assert validate_twograph(6, K6_TRIPLES + [(1, 2, 3)]) is None


def test_twograph_rejects_a_set_that_is_not_a_twograph():
    with pytest.raises(ValueError, match="two-graph"):
        TwoGraph(4, [(0, 1, 2)])
    with pytest.raises(ValueError, match="two-graph"):
        TwoGraph(6, K6_TRIPLES[1:])
    with pytest.raises(ValueError, match="integer"):
        TwoGraph(4, [(0.0, 1.0, 2.0)])


def test_paley_61_twograph_is_regular_with_its_certificate():
    c = paley_conference(61).data
    triples = odd_product_triples(c)
    assert len(triples) == 18910
    tg = validate_twograph(62, triples)
    assert tg is not None
    assert tg.triples == set(triples)
    assert is_regular_twograph(tg) == 30 == pair_count_oracle(62, triples)
    cert = certify_two_eigenvalues(tg.seidel)
    assert (cert.a, cert.b) == (0, -61)


def test_switching_invariance_of_twograph_and_certificate(rng):
    """Resigning at a random vertex set keeps the two-graph and the certificate."""
    def signature(cert):
        return None if cert is None else (cert.a, cert.b, cert.mult_lam, cert.mult_mu)

    cases = [(random_complete_signing(rng, n), True) for n in range(3, 13) for _ in range(6)]
    cases += [(SignedGraph(paley_conference(q)), True) for q in (5, 13, 17)]
    cases.append((star(sylvester_hadamard(3)), False))
    cases += [(random_signed_graph(rng, int(rng.integers(2, 13))), False) for _ in range(60)]
    certified = 0
    for sg, is_complete in cases:
        flips = np.flatnonzero(rng.random(sg.n) < 0.5).tolist()
        switched = reduce(resign, flips, sg)
        if is_complete:
            assert twograph_from_signed_complete(switched) == twograph_from_signed_complete(sg)
        want = signature(certify_two_eigenvalues(sg))
        assert signature(certify_two_eigenvalues(switched)) == want
        certified += want is not None
    assert certified >= 4
