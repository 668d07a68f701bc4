"""2-lifts, Ramanujan verdicts, complements, and certified Ramanujan families.

A 2-lift doubles the vertex set of a signed graph, lifting positive edges
as parallel pairs and negative edges crossed. Its spectrum is the multiset
union of the spectra of the ground graph and the signed adjacency, which is
what makes signatures with small largest eigenvalue (good signatures) the
engine for building regular Ramanujan graphs of twice the order. A certified
signing is not eigensolved: its spectrum, largest eigenvalue included, is read
from its certificate (table_row, ground_ramanujan_from_symmetric).

Graphs are dense 0/1 adjacency arrays (core.Graph), so every operation here
is an array expression: the lift is [[P, N], [N, P]] for the positive and
negative parts P, N of A (its union verdict is the exact block identity
Q L Q = 2 diag(|A|, A)), the complement is J - I - A, and the bipartite
complement is K_{X,Y} - A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import (
    _is_prime,
    conference_block,
    paley_conference,
    sylvester_hadamard,
)
from .core import Graph, SignedGraph, _row_nonzeros, ground, is_orthogonal, is_regular, star
from .spectra import (
    DEFAULT_GROUP_TOL,
    Spectrum,
    eigenvalues_symmetric,
    spectrum_union,
    star_certificate,
)

__all__ = [
    "LiftedGraph",
    "RamanujanReport",
    "LemmaRamReport",
    "GroundRamanujanReport",
    "TableRowReport",
    "two_lift",
    "lift_spectrum_check",
    "is_ramanujan",
    "is_good_signature",
    "complement",
    "bipartite_complement",
    "lemma_ram_check",
    "ground_ramanujan_from_symmetric",
    "k_c4_complement",
    "table_row",
]

RAMANUJAN_SLACK = 1e-9
RAMANUJAN_MODES = ("paper_literal", "bipartite_strict")
TABLE_FAMILIES = ("knn", "knn-minus-m", "nc4-complement")


@dataclass(frozen=True)
class LiftedGraph:
    """2-lift of a signed graph: vertex (u, layer) maps to u + layer*base_n."""

    base_n: int
    graph: Graph

    def __post_init__(self):
        if self.graph.n != 2 * self.base_n:
            raise ValueError(f"lift of {self.base_n} vertices must have {2 * self.base_n}")
        deg = _row_nonzeros(self.graph.adjacency())
        if not np.array_equal(deg[: self.base_n], deg[self.base_n :]):
            raise ValueError("lift layers have mismatched degrees")

    def is_lift_of(self, sg: SignedGraph) -> bool:
        """True iff this lift L = [[P, N], [N, P]] has P - N = A and P + N = |A|, compared
        entrywise. Then Q L Q = 2 diag(|A|, A) with Q = [[I, I], [I, -I]] = Q^t, Q^2 = 2I:
        spec(L) is exactly spec(|A|) union spec(A) (Bilu-Linial 2006, Lemma 3.1)."""
        a, n = sg.data, sg.n
        lift = self.graph.adjacency()
        pos, neg = lift[:n, :n], lift[:n, n:]
        return bool(np.array_equal(lift[n:, n:], pos) and np.array_equal(lift[n:, :n], neg)
                    and np.array_equal(pos - neg, a) and np.array_equal(pos + neg, np.abs(a)))


@dataclass(frozen=True)
class RamanujanReport:
    """Outcome of comparing a spectral statistic against 2*sqrt(degree-1).

    lambda2 holds the statistic the verdict used: the second largest
    eigenvalue in paper_literal mode, or the largest remaining absolute
    eigenvalue after dropping one copy of +d (and -d when bipartite) in
    bipartite_strict mode.
    """

    degree: int
    n: int
    lambda2: float
    bound: float
    mode: str
    verdict: bool


def two_lift(sg: SignedGraph) -> LiftedGraph:
    """Double cover [[P, N], [N, P]]: positive edges (P) lift parallel, negative (N) crossed.
    P and N are 0/1, symmetric and zero-diagonal as A is, so the lift is not checked."""
    a, n = sg.data, sg.n
    lift = np.empty((2 * n, 2 * n), dtype=np.int8)
    lift[:n, :n] = lift[n:, n:] = a > 0
    lift[:n, n:] = lift[n:, :n] = a < 0
    return LiftedGraph(n, Graph._trusted(lift))


def lift_spectrum_check(sg: SignedGraph) -> bool:
    """True iff two_lift(sg) is exactly a lift of sg (LiftedGraph.is_lift_of), so that its
    spectrum is spec(|A|) union spec(A)."""
    return two_lift(sg).is_lift_of(sg)


def _regular_degree(g: Graph, what: str) -> int:
    d = is_regular(g)
    if d is None:
        raise ValueError(f"{what} is not regular")
    return d


def is_ramanujan(g: Graph, mode: str = "paper_literal") -> RamanujanReport:
    """Compare g's spectrum against the Ramanujan bound 2*sqrt(d-1).

    paper_literal tests the second largest eigenvalue only;
    bipartite_strict drops one copy of +d, plus one copy of -d when g is
    bipartite, and tests the largest absolute value left over.
    """
    if mode not in RAMANUJAN_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {RAMANUJAN_MODES}")
    d = _regular_degree(g, "graph")
    if d < 1:
        raise ValueError("graph must have degree at least 1")
    bound = 2.0 * math.sqrt(d - 1)
    eigs = eigenvalues_symmetric(g).expand()
    if mode == "paper_literal":
        stat = eigs[1]
    else:
        rest = eigs[1:]
        if g.bipartition() is not None:
            rest = rest[:-1]
        stat = max((abs(v) for v in rest), default=0.0)
    return RamanujanReport(d, g.n, stat, bound, mode, stat <= bound + RAMANUJAN_SLACK)


def _is_good(top: float, d: int) -> bool:
    """The good-signature rule: the largest signed eigenvalue top is at most
    2*sqrt(d-1), for ground degree d >= 2."""
    return top <= 2.0 * math.sqrt(d - 1) + RAMANUJAN_SLACK


def is_good_signature(sg: SignedGraph) -> bool:
    """True iff the largest signed eigenvalue is at most 2*sqrt(d-1)."""
    d = _regular_degree(ground(sg), "ground graph")
    if d < 2:
        raise ValueError(f"ground degree must be at least 2, got {d}")
    return _is_good(eigenvalues_symmetric(sg).expand()[0], d)


def complement(g: Graph) -> Graph:
    """Off-diagonal edge flip: J - I - A, valid (0/1, symmetric, zero diagonal) whenever A is."""
    return Graph._trusted(1 - np.eye(g.n, dtype=np.int8) - g.adjacency())


def bipartite_complement(g: Graph, parts: tuple[list[int], list[int]]) -> Graph:
    """Flip only the cross edges of a balanced bipartition, keeping the parts. With no
    edge inside a part, A <= K_{X,Y}, so K_{X,Y} - A is valid and is not checked."""
    x, y = parts
    if sorted(list(x) + list(y)) != list(range(g.n)):
        raise ValueError("parts do not partition the vertex set")
    if len(x) != len(y):
        raise ValueError(f"parts must have equal size, got {len(x)} and {len(y)}")
    in_y = np.zeros(g.n, dtype=bool)
    in_y[list(y)] = True
    cross = (in_y[:, None] != in_y[None, :]).astype(np.int8)
    inside = np.argwhere(np.triu(g.adjacency() > cross))
    if inside.size:
        u, v = inside[0].tolist()
        raise ValueError(f"edge ({u}, {v}) lies inside one part")
    return Graph._trusted(cross - g.adjacency())


@dataclass(frozen=True)
class LemmaRamReport:
    """Degree-budget test (k-1)^2/4 + k + 2 <= n and the complement verdict."""

    k: int
    n: int
    inequality_holds: bool
    complement_report: RamanujanReport | None


def lemma_ram_check(g: Graph) -> LemmaRamReport:
    """If (k-1)^2/4 + k + 2 <= n, the complement must verify as Ramanujan.

    The inequality is evaluated exactly as (k-1)^2 + 4k + 8 <= 4n. When it
    holds, a failed complement verdict is raised as a defect rather than
    reported, since the bound guarantees it.
    """
    k = _regular_degree(g, "graph")
    holds = (k - 1) ** 2 + 4 * k + 8 <= 4 * g.n
    if not holds:
        return LemmaRamReport(k, g.n, False, None)
    report = is_ramanujan(complement(g), "paper_literal")
    if not report.verdict:
        raise AssertionError(f"complement of a {k}-regular graph on {g.n} vertices "
                             "must be Ramanujan under the degree bound")
    return LemmaRamReport(k, g.n, True, report)


@dataclass(frozen=True)
class GroundRamanujanReport:
    """Good-signature and ground-Ramanujan verdicts for a symmetric orthogonal matrix."""

    alpha: int
    n: int
    k: int
    lambda1: float
    signature_good: bool
    ground_report: RamanujanReport


def ground_ramanujan_from_symmetric(c) -> GroundRamanujanReport:
    """For symmetric zero-diagonal C with C^2 = alpha I, alpha >= 2.

    Requires the complement degree k = n - 1 - alpha to satisfy
    (k-1)^2/4 + k + 2 <= n; then the alpha-regular ground graph is verified
    Ramanujan (lemma_ram_check on its complement), and C is a good signature
    of it: C^2 = alpha I proves lambda1 = sqrt(alpha), with no eigensolve.
    """
    sg = SignedGraph(c)
    cert = is_orthogonal(sg)
    if cert is None:
        raise ValueError("input is not an orthogonal signed matrix")
    alpha, n = cert.alpha, sg.n
    if alpha < 2:
        raise ValueError(f"alpha must be at least 2, got {alpha}")
    lemma = lemma_ram_check(complement(ground(sg)))
    k = lemma.k
    if not lemma.inequality_holds:
        raise ValueError(f"precondition failed: (1/4)({k}-1)^2 + {k} + 2 = "
                         f"{(k - 1) ** 2 / 4 + k + 2} > {n}")
    lam1 = math.sqrt(alpha)
    return GroundRamanujanReport(alpha, n, k, lam1, _is_good(lam1, alpha), lemma.complement_report)


def _k_c4(k: int) -> tuple[Graph, tuple[list[int], list[int]]]:
    """k disjoint 4-cycles drawn bipartite: parts 0..2k-1 and 2k..4k-1 joined by
    B = I_k (x) J_2. B is symmetric and 0/1, so [[O, B], [B, O]] is not checked."""
    b = np.kron(np.eye(k, dtype=np.int8), np.ones((2, 2), dtype=np.int8))
    a = np.zeros((4 * k, 4 * k), dtype=np.int8)
    a[: 2 * k, 2 * k :] = a[2 * k :, : 2 * k] = b
    return Graph._trusted(a), (list(range(2 * k)), list(range(2 * k, 4 * k)))


def _k_c4_spectrum(k: int) -> Spectrum:
    """The spectrum of the bipartite complement of k disjoint 4-cycles."""
    return Spectrum.from_pairs(
        [(2 * k - 2, 1), (2, k - 1), (0, 2 * k), (-2, k - 1), (-(2 * k - 2), 1)]
    )


def k_c4_complement(k: int) -> tuple[Graph, Spectrum]:
    """Bipartite complement of k disjoint 4-cycles and its closed-form spectrum.

    The spectrum is {2k-2: 1, 2: k-1, 0: 2k, -2: k-1, -(2k-2): 1}; the
    numeric eigenvalues are checked against it before returning.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    cycles, parts = _k_c4(k)
    comp = bipartite_complement(cycles, parts)
    expected = _k_c4_spectrum(k)
    if not eigenvalues_symmetric(comp).close_to(expected.pairs):
        raise AssertionError(f"complement of {k} disjoint 4-cycles missed its closed-form spectrum")
    return comp, expected


@dataclass(frozen=True)
class TableRowReport:
    """One certified-family table row: base signature goodness plus lift spectrum match."""

    family: str
    n: int
    signature_good: bool
    expected: Spectrum
    computed: Spectrum
    match: bool
    note: str | None = None


def _conference_order(n: int, family: str) -> int:
    q = n - 1
    if not _is_prime(q) or q % 4 != 1:
        raise ValueError(f"unsupported order {n} for family {family!r}: "
                         f"{q} is not a prime congruent to 1 mod 4")
    return q


def table_row(family: str, n: int, tol: float = DEFAULT_GROUP_TOL) -> TableRowReport:
    """Build one family instance, check its signature is good, and lift it.

    Families: "knn" signs the complete bipartite graph with a Hadamard
    matrix of order n (a power of two, at least 2); "knn-minus-m" signs the
    matching-deleted complete bipartite graph with a conference matrix of
    order n; "nc4-complement" signs the bipartite complement of n disjoint
    4-cycles with the doubled conference block. Goodness and the expected
    lift spectrum, the ground's closed form union spec(star(C)) (is_lift_of),
    come from C's kept certificate (star_certificate), with no eigensolve;
    the computed lift spectrum is compared against it within tol.
    """
    if family not in TABLE_FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {TABLE_FAMILIES}")
    note = None
    if family == "knn":
        k = n.bit_length() - 1
        if n < 2 or n != 2**k:
            raise ValueError(f"unsupported order {n} for family 'knn': "
                             "need a power of two at least 2")
        c = sylvester_hadamard(k)
        base = Spectrum.from_pairs([(n, 1), (0, 2 * n - 2), (-n, 1)])
    elif family == "knn-minus-m":
        c = paley_conference(_conference_order(n, family))
        base = Spectrum.from_pairs([(n - 1, 1), (1, n - 1), (-1, n - 1), (-(n - 1), 1)])
    else:
        c = conference_block(paley_conference(_conference_order(n, family)))
        base = _k_c4_spectrum(n)
        note = (
            f"the commonly quoted spectrum for this family lists only the {4 * n} "
            f"base-graph values {base}; the lift has {8 * n} vertices and the "
            f"multiset-union rule restores +-sqrt({2 * n - 2}) with multiplicity "
            f"{2 * n} each, which the expected column includes"
        )
    cert = star_certificate(c)
    good = _is_good(cert.lam, -cert.b)
    if not good:
        raise AssertionError(f"constructed signature for family {family!r} must be good")
    expected = spectrum_union(base, cert.spectrum())
    computed = eigenvalues_symmetric(two_lift(star(c)).graph, tol)
    return TableRowReport(family, n, good, expected, computed, computed.close_to(expected.pairs, tol), note)
