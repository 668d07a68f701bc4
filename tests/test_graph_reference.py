"""Differential tests: the dense-adjacency Graph against plain edge-set references.

The reference functions below walk Python sets of (u, v) tuples, one edge at
a time, the way an edge-set graph would. Every array-based view and graph
operation must agree with them exactly on seeded random graphs of up to 12
vertices, disconnected ones and ones with odd cycles included.
"""

import itertools
from collections import deque

import numpy as np
import pytest

from twoeig import (
    Graph,
    SignedGraph,
    bipartite_complement,
    complement,
    descendant,
    disjoint_union,
    two_lift,
)
from twoeig.core import _bfs_forest
from twoeig.twographs import TwoGraph

from conftest import wide


def ref_neighbors(n, edges):
    nbr = [[] for _ in range(n)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    return [sorted(lst) for lst in nbr]


def ref_degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def ref_bfs(n, edges):
    """Components in root order, with their (parent, child) forest edges."""
    nbr = ref_neighbors(n, edges)
    seen = [False] * n
    comps, forest = [], []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp, queue = [root], deque([root])
        while queue:
            u = queue.popleft()
            for v in nbr[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    forest.append((u, v))
                    queue.append(v)
        comps.append(sorted(comp))
    return comps, forest


def ref_bipartition(n, edges):
    nbr = ref_neighbors(n, edges)
    color = [-1] * n
    sides = ([], [])
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        part, queue = ([root], []), deque([root])
        while queue:
            u = queue.popleft()
            for v in nbr[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    part[color[v]].append(v)
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
        big, small = (part[0], part[1]) if len(part[0]) >= len(part[1]) else (part[1], part[0])
        if len(sides[0]) <= len(sides[1]):
            sides[0].extend(big)
            sides[1].extend(small)
        else:
            sides[0].extend(small)
            sides[1].extend(big)
    return sorted(sides[0]), sorted(sides[1])


def ref_complement(n, edges):
    return {(u, v) for u, v in itertools.combinations(range(n), 2) if (u, v) not in edges}


def ref_bipartite_complement(edges, parts):
    x, y = parts
    return {(min(u, v), max(u, v)) for u in x for v in y
            if (u, v) not in edges and (v, u) not in edges}


def ref_two_lift(n, signs):
    out = set()
    for (u, v), s in signs.items():
        if s == 1:
            out |= {(u, v), (u + n, v + n)}
        else:
            out |= {(u, v + n), (v, u + n)}
    return {(min(u, v), max(u, v)) for u, v in out}


def random_edges(rng, n):
    """A random edge set whose density ranges from empty to nearly complete."""
    p = rng.choice([0.1, 0.2, 0.3, 0.5, 0.8])
    return {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p}


@pytest.fixture
def graphs(rng):
    out = [(n, random_edges(rng, n)) for n in rng.integers(0, 13, size=150).tolist()]
    comps = [len(ref_bfs(n, e)[0]) for n, e in out]
    # the sample must hold disconnected, bipartite and odd-cycle graphs
    assert any(c > 1 for c in comps)
    assert any(ref_bipartition(n, e) is None for n, e in out)
    assert any(ref_bipartition(n, e) is not None and c > 1 and len(e)
               for (n, e), c in zip(out, comps))
    return out


def test_views_match_edge_set_reference(graphs):
    for n, edges in graphs:
        g = Graph(n, edges)
        comps, forest = ref_bfs(n, edges)
        assert g.n == n and g.m == len(edges) and g.edges == frozenset(edges)
        assert g.sorted_edges() == sorted(edges)
        assert g.adjacency().sum(axis=1).tolist() == ref_degrees(n, edges)
        assert [np.flatnonzero(row).tolist() for row in g.adjacency()] == ref_neighbors(n, edges)
        assert g.components() == comps
        assert g.bipartition() == ref_bipartition(n, edges)
        assert _bfs_forest(g) == forest


def test_complements_match_reference(graphs):
    for n, edges in graphs:
        g = Graph(n, edges)
        assert complement(g).edges == ref_complement(n, edges)
        parts = ref_bipartition(n, edges)
        if parts is not None and len(parts[0]) == len(parts[1]):
            assert bipartite_complement(g, parts).edges == ref_bipartite_complement(edges, parts)


def test_disjoint_union_matches_reference(rng, graphs):
    for start in range(0, 30, 3):
        chunk = graphs[start : start + 3]
        want, offset = set(), 0
        for n, edges in chunk:
            want |= {(u + offset, v + offset) for u, v in edges}
            offset += n
        union = disjoint_union(*(Graph(n, e) for n, e in chunk))
        assert union.n == offset and union.edges == want


def test_descendant_matches_reference(rng):
    for _ in range(60):
        n = int(rng.integers(3, 13))
        # a random two-graph: the odd-product triples of a random signing of K_n
        p = rng.choice([0.05, 0.3, 0.7])
        sign = {e: -1 if rng.random() < p else 1 for e in itertools.combinations(range(n), 2)}
        triples = [(a, b, c) for a, b, c in itertools.combinations(range(n), 3)
                   if sign[(a, b)] * sign[(a, c)] * sign[(b, c)] == -1]
        x = int(rng.integers(n))
        want = set()
        for t in triples:
            if x in t:
                y, z = (v for v in t if v != x)
                want.add((y, z))
        d = descendant(TwoGraph(n, triples), x)
        assert d.n == n and d.edges == want


def test_two_lift_edges_and_exact_identity(rng):
    for _ in range(80):
        n = int(rng.integers(1, 13))
        signs = {e: int(rng.choice((-1, 1))) for e in random_edges(rng, n)}
        sg = SignedGraph.from_edges(n, [(u, v, s) for (u, v), s in signs.items()])
        lift = two_lift(sg).graph
        assert lift.edges == ref_two_lift(n, signs)
        # Q L Q = 2 diag(|A|, A) over the integers, Q = [[I, I], [I, -I]]
        a = wide(sg.matrix)
        eye, zero = np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)
        q = np.block([[eye, eye], [eye, -eye]])
        ell = lift.adjacency().astype(np.int64)
        assert np.array_equal(q @ ell @ q, 2 * np.block([[np.abs(a), zero], [zero, a]]))
