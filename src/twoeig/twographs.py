"""Two-graphs and their correspondence with signed complete graphs.

A two-graph is a set of vertex triples such that every 4-subset of the
vertex set contains an even number of them. Each one matches a switching
class of signed complete graphs: a triple is a member exactly when the
product of its three edge signs is -1, and a graph G on the vertex set
induces the signing that is -1 on edges of G and +1 elsewhere, J - I - 2A in
terms of G's 0/1 adjacency A. Descendants are built as such arrays too.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import Graph, SignedGraph

__all__ = [
    "TwoGraph",
    "validate_twograph",
    "is_regular_twograph",
    "descendant",
    "signed_complete_from_graph",
    "twograph_from_signed_complete",
]


def _clean_triples(n: int, triples) -> frozenset[tuple[int, int, int]]:
    out = set()
    for t in triples:
        vals = tuple(sorted(t))
        if len(vals) != 3 or len(set(vals)) != 3:
            raise ValueError(f"triple {tuple(t)} must have three distinct vertices")
        if not (0 <= vals[0] and vals[2] < n):
            raise ValueError(f"triple {tuple(t)} out of range [0, {n})")
        out.add(vals)
    return frozenset(out)


@dataclass(frozen=True)
class TwoGraph:
    """Vertex count plus a set of sorted triples.

    Construct through validate_twograph, which guarantees the even-parity
    property on 4-subsets; this container only checks well-formedness.
    """

    n: int
    triples: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        object.__setattr__(self, "triples", _clean_triples(self.n, self.triples))

    def sorted_triples(self) -> list[tuple[int, int, int]]:
        return sorted(self.triples)


def validate_twograph(n: int, triples) -> TwoGraph | None:
    """The TwoGraph on these triples, or None if some 4-subset holds an odd count."""
    cleaned = _clean_triples(n, triples)
    for four in itertools.combinations(range(n), 4):
        count = sum(1 for t in itertools.combinations(four, 3) if t in cleaned)
        if count % 2:
            return None
    return TwoGraph(n, cleaned)


def is_regular_twograph(t: TwoGraph) -> int | None:
    """The common number of triples through each vertex pair, or None."""
    counts = Counter()
    for a, b, c in t.triples:
        counts[(a, b)] += 1
        counts[(a, c)] += 1
        counts[(b, c)] += 1
    if t.n < 2:
        return 0
    first = counts[(0, 1)]
    for pair in itertools.combinations(range(t.n), 2):
        if counts[pair] != first:
            return None
    return first


def descendant(t: TwoGraph, x: int) -> Graph:
    """Graph on the same vertex set joining y, z whenever {x, y, z} is a triple."""
    if not (0 <= x < t.n):
        raise ValueError(f"vertex {x} out of range [0, {t.n})")
    triples = np.array(list(t.triples), dtype=np.intp).reshape(-1, 3)
    through_x = triples[(triples == x).any(axis=1)]
    y, z = through_x[through_x != x].reshape(-1, 2).T
    a = np.zeros((t.n, t.n), dtype=np.int8)
    a[y, z] = a[z, y] = 1
    return Graph.from_adjacency(a)


def signed_complete_from_graph(g: Graph) -> SignedGraph:
    """Complete signed graph that is -1 on edges of g and +1 elsewhere: J - I - 2A."""
    return SignedGraph(1 - np.eye(g.n, dtype=np.int8) - 2 * g.adjacency())


def twograph_from_signed_complete(sg: SignedGraph) -> TwoGraph:
    """Triples of a complete signed graph whose edge-sign product is -1.

    This is the unique switching-invariant inverse of
    signed_complete_from_graph: resigning at a vertex flips exactly two of
    the three signs in each affected triple, leaving the product fixed.
    """
    a = sg.matrix.data
    if np.any((a == 0) & ~np.eye(sg.n, dtype=bool)):
        raise ValueError("ground graph is not complete")
    triples = [
        (x, y, z)
        for x, y, z in itertools.combinations(range(sg.n), 3)
        if int(a[x, y]) * int(a[y, z]) * int(a[x, z]) == -1
    ]
    out = validate_twograph(sg.n, triples)
    if out is None:
        raise AssertionError("odd-product triples of a complete signing must form a two-graph")
    return out
