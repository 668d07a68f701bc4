import itertools
from collections import Counter

import numpy as np
import pytest

from twoeig import Graph, SignedGraph

# The 6-vertex regular two-graph worked through in the docs: ten triples,
# pair count 2, descendant at vertex 0 has edges 12, 13, 24, 35, 45 and the
# induced complete signing has spectrum +-sqrt(5) with multiplicity 3.
K6_TRIPLES = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]

K6_MATRIX = [
    [0, 1, 1, 1, 1, 1],
    [1, 0, -1, -1, 1, 1],
    [1, -1, 0, 1, -1, 1],
    [1, -1, 1, 0, 1, -1],
    [1, 1, -1, 1, 0, -1],
    [1, 1, 1, -1, -1, 0],
]

K6_DESCENDANT_EDGES = [(1, 2), (1, 3), (2, 4), (3, 5), (4, 5)]


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def random_signed_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> SignedGraph:
    """Random graph with random signs, resampled until it has an edge."""
    while True:
        upper = rng.random((n, n)) < p
        signs = rng.choice((-1, 1), size=(n, n))
        a = np.triu(upper, 1).astype(np.int8) * signs.astype(np.int8)
        a = a + a.T
        if np.any(a):
            return SignedGraph(a)


def twograph_parity_oracle(n: int, triples) -> bool:
    """Brute force over 4-subsets: each must hold an even number of the triples."""
    present = {tuple(sorted(t)) for t in triples}
    return all(sum(t in present for t in itertools.combinations(four, 3)) % 2 == 0
               for four in itertools.combinations(range(n), 4))


def pair_count_oracle(n: int, triples) -> int | None:
    """The common number of triples through each vertex pair, counted pair by pair, or None."""
    counts = Counter()
    for a, b, c in {tuple(sorted(t)) for t in triples}:
        counts[(a, b)] += 1
        counts[(a, c)] += 1
        counts[(b, c)] += 1
    values = {counts[pair] for pair in itertools.combinations(range(n), 2)}
    if len(values) > 1:
        return None
    return values.pop() if values else 0


def odd_product_triples(a) -> list[tuple[int, int, int]]:
    """Triples of a signing of K_n whose three edge signs multiply to -1, one at a time."""
    a = np.asarray(a)
    return [(x, y, z) for x, y, z in itertools.combinations(range(a.shape[0]), 3)
            if int(a[x, y]) * int(a[x, z]) * int(a[y, z]) == -1]


@pytest.fixture
def k6_signing() -> SignedGraph:
    return SignedGraph(K6_MATRIX)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
