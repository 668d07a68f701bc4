"""Two-graphs as Seidel matrices.

A two-graph is a set of vertex triples in which every 4-subset holds an even
number of members. Two-graphs are the switching classes of signings S of K_n:
the triples are the {x, y, z} with S_xy S_xz S_yz = -1, which resigning keeps.
A TwoGraph stores the S with row 0 all +1, so S_yz = -1 iff {0, y, z} is a
triple: the triples through 0 fix S, and a triple set is a two-graph iff it
is the odd-product set of that S. A pair {y, z} lies in ((n - 2) - S_yz
(S^2)_yz) / 2 triples, so the two-graph is regular, with (n - 2 + a) / 2 per
pair, iff S^2 + aS - (n - 1)I = 0, iff S has two eigenvalues (Seidel, "A
survey of two-graphs", 1976; Taylor, "Regular 2-graphs", 1977).
S's odd set is counted without listing it: the diagonal is zero, so tr(S^3) =
6 * sum over x < y < z of S_xy S_xz S_yz, and C(n, 3) - 2 * odd is that sum.
Triples come and go as (t, 3) integer arrays; any iterable of triples is read as rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Graph, SignedGraph, _int_rows, _lex_order
from .spectra import TwoEigCertificate, certify_two_eigenvalues

__all__ = [
    "TwoGraph",
    "validate_twograph",
    "is_regular_twograph",
    "pair_count",
    "descendant",
    "signed_complete_from_graph",
    "twograph_from_signed_complete",
]


def _odd_count(s: np.ndarray) -> int:
    """The number of x < y < z with S_xy S_xz S_yz = -1, for S symmetric with a zero
    diagonal: (C(n, 3) - tr(S^3) / 6) / 2, both products exact (validate_twograph)."""
    n = s.shape[0]
    assert n**3 < 2**53, f"order {n} is past the exact float64 trace"
    f = s.astype(np.float32)
    trace = int(np.sum(f * (f @ f), dtype=np.float64))
    return (math.comb(n, 3) - trace // 6) // 2


def _odd_slabs(s: np.ndarray):
    """Per vertex x, the (k, 3) lexicographic array of x < y < z with S_xy S_xz S_yz = -1."""
    for x in range(s.shape[0] - 2):
        row = s[x, x + 1 :]
        y, z = np.nonzero(row[:, None] * s[x + 1 :, x + 1 :] * row[None, :] < 0)
        yield np.array([np.full(y.size, x), y + x + 1, z + x + 1]).T[y < z]


@dataclass(frozen=True, init=False)
class TwoGraph:
    """A two-graph on vertices 0..n-1, held as its read-only Seidel matrix with row 0 all +1."""

    seidel: SignedGraph

    def __init__(self, n: int, triples=()):
        t = validate_twograph(n, triples)
        if t is None:
            raise ValueError("triples do not form a two-graph: some 4-subset holds an odd count")
        object.__setattr__(self, "seidel", t.seidel)

    @property
    def n(self) -> int:
        return self.seidel.n

    @property
    def triples(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(map(tuple, self.sorted_triples().tolist()))

    def sorted_triples(self) -> np.ndarray:
        """The (t, 3) intp array of triples x < y < z, in lexicographic order."""
        slabs = _odd_slabs(self.seidel.data)
        return np.concatenate([np.empty((0, 3), dtype=np.intp), *slabs])


def validate_twograph(n: int, triples) -> TwoGraph | None:
    """The TwoGraph on these triples (duplicates dropped), or None if they are not one.

    Each member must have product -1 in S, and S's odd set the same size. That set holds
    (C(n, 3) - tr(S^3) / 6) / 2 triples (_odd_count), and the trace is exact: S^2 is a
    float32 product whose partial sums are integers of size at most n - 1 < 2^24, and
    tr(S^3), the sum of S o S^2, a float64 sum of integers of size below n^3 < 2^53.
    S is symmetric and +-1 off a zero diagonal by construction, so it is not checked again.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    t = np.sort(_int_rows(triples, 3, "each triple must be three integer vertices"), axis=1)
    bad = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] < 0) | (t[:, 2] >= n)
    if bad.any():
        raise ValueError(f"triple {tuple(t[bad.argmax()].tolist())} must have three distinct "
                         f"vertices, none out of range [0, {n})")
    x, y, z = t[~_lex_order(t)[1]].T
    s = 1 - np.eye(n, dtype=np.int8)
    s[y[x == 0], z[x == 0]] = s[z[x == 0], y[x == 0]] = -1
    if (s[x, y] * s[x, z] * s[y, z] != -1).any() or x.size != _odd_count(s):
        return None
    return twograph_from_signed_complete(SignedGraph._trusted(s))


def is_regular_twograph(t: TwoGraph) -> int | None:
    """The common number of triples through each vertex pair, (n - 2 + a) / 2, or None."""
    return pair_count(t.n, certify_two_eigenvalues(t.seidel) if t.n >= 3 else None)


def pair_count(n: int, cert: TwoEigCertificate | None) -> int | None:
    """The pair count (n - 2 + a) / 2 of a two-graph on n vertices whose Seidel matrix has
    certificate cert (0 for n < 3, where no pair lies in a triple), or None if uncertified."""
    if n < 3:
        return 0
    return None if cert is None else (n - 2 + cert.a) // 2


def descendant(t: TwoGraph, x: int) -> Graph:
    """Graph joining y, z whenever {x, y, z} is a triple: the -1 entries of S switched at x,
    a valid adjacency (unchecked) because D S D is symmetric with a zero diagonal."""
    if not (0 <= x < t.n):
        raise ValueError(f"vertex {x} out of range [0, {t.n})")
    s = t.seidel.data
    d = s[x] + (np.arange(t.n) == x)  # row x of S + I: D S D has row x all +1
    return Graph._trusted((d[:, None] * s * d[None, :] < 0).view(np.int8))


def signed_complete_from_graph(g: Graph) -> SignedGraph:
    """Complete signed graph, -1 on edges of g and +1 elsewhere: J - I - 2A, valid as A is."""
    return SignedGraph._trusted(1 - np.eye(g.n, dtype=np.int8) - 2 * g.adjacency())


def twograph_from_signed_complete(sg: SignedGraph) -> TwoGraph:
    """The two-graph of a signing A of K_n: its triples whose sign product is -1. Its
    Seidel matrix D A D, D = diag(row 0 of A + I), is a switching of A, so it is unchecked."""
    a = sg.data
    if np.count_nonzero(a) != sg.n * (sg.n - 1):
        raise ValueError("ground graph is not complete")
    d = a[0] + (np.arange(sg.n) == 0)  # row 0 of A + I: D A D has row 0 all +1
    t = object.__new__(TwoGraph)
    object.__setattr__(t, "seidel", SignedGraph._trusted(d[:, None] * a * d[None, :]))
    return t
