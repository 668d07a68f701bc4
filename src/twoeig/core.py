"""Signed matrices, signed graphs, graphs, and switching equivalence.

Everything in this module is exact: entries live in {-1, 0, +1} (stored as
int8), and a product identity such as C C^t = alpha I is checked by one
kernel, _product_is: float32 products of packed row-panel pairs, over inner
chunks whose every partial sum is an integer below 2^24, added in float64 when
there are several (its docstring says why that is the same integer identity,
and why half of a Gram product decides it), so orthogonality is never a
numerical judgement. There is one matrix type: a SignedGraph is a SignedMatrix
that is a signed adjacency (symmetric, zero diagonal), and a Graph is a
SignedGraph with 0/1 entries, or none. Each level adds its checks and views to
the one read-only array; equality and hash go by shape and entries across all three.
Arrays are validated once, by the public constructors: a derivation whose
validity follows from its validated input (star, ground, a switching) wraps
its fresh array with the private _trusted constructor, with no check or copy.
Edges and triples are held as (m, 2 or 3) integer arrays (_int_rows), checked
by array expressions: _edge_array finds a repeated edge by counting the
nonzero entries of the adjacency it builds, and _lex_order finds repeated
rows (triples, and the first faulty edge of a list that fails).
A matrix keeps its orthogonality verdict once proven (is_orthogonal), and a
star-shaped graph [[O, C], [C^t, O]] keeps its C (_star_half), whose verdict
certifies it: star keeps the C it read, and the fixed-halves scan and the
bipartite check's BFS gather keep the C they find (_keep_half).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignedMatrix",
    "SignedGraph",
    "Graph",
    "OrthogonalityCertificate",
    "ground",
    "star",
    "is_orthogonal",
    "resign",
    "switching_canonical",
    "switching_equivalent",
    "count_switching_classes",
    "enumerate_switching_classes",
    "switching_class_signs",
    "is_regular",
    "disjoint_union",
]

MAX_ENUM_EDGES = 20
PANEL_ROWS = 256
FLOAT32_EXACT_BOUND = 2**24
# star writes C^t in strips of this many rows of C: a strip of an order-2048 C then
# spans 64 KB, where a PANEL_ROWS strip spans 512 KB (128 pages), and at order 256 a
# PANEL_ROWS strip's power-of-two row stride puts it all in the same cache sets.
# Whole star(C), best of 7 (timeit, 2-vCPU AVX-512 host): 32 rows take 0.034 ms at
# order 256 and 4.0 ms at order 2048, 256 rows 0.072 and 6.1 ms, 16 rows 0.048 and
# 5.2 ms, 64 rows 0.031 and 4.7 ms; below order 256 the strips cost 1-3 us more
_STAR_STRIP_ROWS = 32


def _entries_within(arr: np.ndarray, lo: int, hi: int) -> bool:
    """True iff every entry of arr is one of the integers lo..hi.

    Integer and bool dtypes need only min and max, with no n x n temporary.
    """
    if arr.dtype.kind in "biu":
        return not arr.size or bool(arr.min() >= lo and arr.max() <= hi)
    return bool(functools.reduce(np.logical_or, (arr == v for v in range(lo, hi + 1))).all())


def _as_trit_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got shape {arr.shape}")
    if not _entries_within(arr, -1, 1):
        raise ValueError("entries must be -1, 0 or +1")
    out = arr.astype(np.int8)
    out.setflags(write=False)
    return out


def _packing(k: int) -> tuple[int, int]:
    """(B, kc) for inner dimension k: B = 2k + 1, and kc = (2^24 - 1) // (2k + 2), the
    widest inner chunk whose packed partial sums stay below 2^24 (kc >= k to 2895)."""
    kc = (FLOAT32_EXACT_BOUND - 1) // (2 * k + 2)
    assert kc >= 1, f"inner dimension {k} is too large for exact float32 sums"
    return 2 * k + 1, kc


def _packed_panel(x: np.ndarray, r0: int, base: int, pack):
    """(rows, m, left) for the step of the panel loop at row r0 of the C-ordered
    float32 array x.

    left is the panel x[r0:r1] + base * x[r1:r1+m], r1 = r0 + rows: the
    second panel's m rows are added into the first m rows of the first, in
    pack (PANEL_ROWS x k float32). For a last panel that no second one
    follows, m is 0 and left is the view x[r0:r1], with no copy.
    """
    n = x.shape[0]
    r1 = min(r0 + PANEL_ROWS, n)
    m = min(r1 + PANEL_ROWS, n) - r1
    if not m:
        return r1 - r0, 0, x[r0:r1]
    np.multiply(x[r1 : r1 + m], np.float32(base), out=pack[:m])
    pack[:m] += x[r0 : r0 + m]
    pack[m:] = x[r0 + m : r1]
    return PANEL_ROWS, m, pack


def _product_is(left: np.ndarray, right: np.ndarray | None, shift: int, scale: int = 0) -> bool:
    """True iff left @ right == scale * left + shift * I, two row panels per product.

    left (n x k) and right hold entries in {-1, 0, 1}; right None stands for
    left^t, the Gram product. With scale != 0, left @ right has left's shape
    and left[i, i] = 0. |scale|, |shift| <= k (asserted), so every entry G of
    the product and T of the target is an integer of magnitude at most k. The
    callers' identities are C C^t = alpha I (is_orthogonal: right None, shift
    alpha), A^2 = -aA - bI for a signed adjacency A (the dense certificate:
    right None, as A A = A A^t) and the Williamson commute and square-sum
    products.

    The rows [r0, r1) and [r1, r1 + m) of a pair are packed into one panel
    X_a + B X_b with B = 2k + 1, multiplied by right, and compared with the
    packed target T_a + B T_b: scale times the packed panel, plus shift at
    (i, r0 + i) and B shift at (i, r1 + i). Only a last panel with no
    partner goes alone. Why this is exact:
    - A packed operand entry has magnitude at most B + 1 = 2k + 2, so the
      partial sums of a float32 product over a chunk of kc inner columns
      (_packing) are integers below kc(2k + 2) < 2^24: float32 holds them,
      and each BLAS addition is exact whatever its order.
    - One chunk covers k up to k = 2895. Past it, the chunk products are
      added into one float64 block, exactly: all are integers below
      k(2k + 2) < 2^53. A packed target entry is at most k(2k + 2) too, and
      is formed and subtracted in the product's dtype.
    - Equality forces G_a - T_a = B (T_b - G_b), a multiple of B, but
      |G_a - T_a| <= 2k < B, so G_a = T_a and then G_b = T_b: the packed
      comparison is the same integer identity, one product per pair.

    A Gram product multiplies the pair by left[r0:]^t and compares only the
    columns r0..n-1. They include every entry with j >= i of both panels,
    and that is the whole identity: left left^t and the target are both
    symmetric, so a mismatch at (i, j) with i > j is also one at (j, i),
    which the same or an earlier step compares. A pair costs one product of
    PANEL_ROWS rows where two panels cost two, so at n = 2048 the trapezoid
    takes 0.31 n^2 k multiplications, against 0.56 n^2 k panel by panel and
    n^2 k for the full product. Any other right is multiplied in full,
    since a general product need not be symmetric.

    The bounds are asserted before any float32 copy, and an operand already
    float32 is not copied. At most the float32 operands, one packed panel,
    its product (past k = 2895, a float64 block and one chunk product) and
    the scale target are alive at a time; the check stops at the first pair
    that differs.
    A panel matches when y.any() is False (-0.0 is zero to it): on a 256 x 2048
    panel any took 0.09 ms and np.count_nonzero 0.42 ms (2-vCPU host); below
    about 40 x 40 the count is the faster, by at most 1 us.
    """
    n, k = left.shape
    base, kc = _packing(k)
    assert max(abs(scale), abs(shift)) <= k, f"target exceeds the inner dimension {k}"
    left32 = np.asarray(left, dtype=np.float32, order="C")
    right32 = None if right is None else np.asarray(right, dtype=np.float32)
    pack = np.empty((PANEL_ROWS, k), dtype=np.float32) if n > PANEL_ROWS else None
    for r0 in range(0, n, 2 * PANEL_ROWS):
        rows, m, packed = _packed_panel(left32, r0, base, pack)
        col, other = (r0, left32[r0:].T) if right is None else (0, right32)
        y = packed @ other if kc >= k else packed[:, :kc] @ other[:kc]
        for c0 in range(kc, k, kc):  # float64 holds the sums of several chunks exactly
            y = y.astype(np.float64, copy=False)
            y += packed[:, c0 : c0 + kc] @ other[c0 : c0 + kc]
        if scale:
            y -= np.multiply(packed[:, col:], scale, dtype=y.dtype)
        if shift:  # y is C-contiguous, so y.ravel() is a view
            y.ravel()[r0 - col :: y.shape[1] + 1][:rows] -= shift
            if m:
                y.ravel()[r0 - col + PANEL_ROWS :: y.shape[1] + 1][:m] -= base * shift
        if y.any():
            return False
    return True


def _is_symmetric(a: np.ndarray, sign: int = 1) -> bool:
    """True iff the square array a equals sign * a^t (sign -1: antisymmetric).

    Each PANEL_ROWS x PANEL_ROWS tile (i, j) with j >= i is compared with the
    transpose of tile (j, i). A tile's transposed read stays in cache, where
    a whole a.T read strides across rows at every element, and the only
    temporaries are one tile and its comparison.
    """
    n = a.shape[0]
    for i0 in range(0, n, PANEL_ROWS):
        i1 = i0 + PANEL_ROWS
        for j0 in range(i0, n, PANEL_ROWS):
            mirror = a[j0 : j0 + PANEL_ROWS, i0:i1].T
            if not (a[i0:i1, j0 : j0 + PANEL_ROWS] == (mirror if sign == 1 else -mirror)).all():
                return False
    return True


class SignedMatrix:
    """Dense rectangular matrix over {-1, 0, +1}, one read-only int8 array (data), as are
    its subclasses SignedGraph and Graph; _verdict is is_orthogonal's kept verdict."""

    __slots__ = ("data", "_verdict")

    def __init__(self, data):
        self._own(_as_trit_array(data))

    def _own(self, arr: np.ndarray) -> None:
        """Hold arr, made read-only, with no kept verdict (nor, in a subclass, kept half)."""
        arr.setflags(write=False)
        self.data = arr
        self._verdict = None

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "SignedMatrix":
        """Own a fresh 2-D int8 array of {-1, 0, 1} entries, made read-only: no check, no copy.
        Only an empty array is refused, with the public constructor's message."""
        if 0 in arr.shape:
            raise ValueError(f"matrix must be at least 1x1, got shape {arr.shape}")
        m = cls.__new__(cls)
        m._own(arr)
        return m

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "SignedMatrix":
        """C^t, a view of C's read-only entries: transposing keeps them in {-1, 0, 1}."""
        return SignedMatrix._trusted(self.data.T)

    @staticmethod
    def identity(n: int) -> "SignedMatrix":
        """The n x n identity, a SignedMatrix whatever the class it is called on: its
        diagonal of ones is no signed adjacency."""
        return SignedMatrix._trusted(np.eye(n, dtype=np.int8))

    def __eq__(self, other):
        if not isinstance(other, SignedMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.data.shape, self.data.tobytes()))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"{type(self).__name__}({self.data.tolist()!r})"


@dataclass(frozen=True)
class OrthogonalityCertificate:
    """Witness that C C^t = C^t C = alpha I holds exactly."""

    alpha: int

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be a positive integer")


def _check_adjacency(a: np.ndarray) -> None:
    """Raise unless a is square, symmetric and zero on the diagonal."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if not _is_symmetric(a):
        raise ValueError("adjacency matrix must be symmetric")
    if np.diagonal(a).any():
        raise ValueError("diagonal entries must all be 0")


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or len(mask)."""
    return int(mask.argmax()) if mask.any() else mask.size


def _upper_pairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows u and columns v of a's nonzero entries with u < v, row by row: the one edge
    order (Graph.sorted_edges) that switching_class_signs' codes and io's lists follow."""
    return np.nonzero(np.triu(a, 1))


def _lex_order(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of the rows of a 2-D integer array, and per
    row whether an earlier row is equal. Rows are ranked, and compared, by one
    int64 key when the key fits, else by np.lexsort."""
    low = int(rows.min(initial=0))
    span = int(rows.max(initial=0)) - low + 1
    if span ** rows.shape[1] < 2**63:
        key = np.ravel_multi_index((rows - low).T, (span,) * rows.shape[1])
        order = np.argsort(key, kind="stable")
        ranked = key[order, None]
    else:
        order = np.lexsort(rows.T[::-1])
        ranked = rows[order]
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]] = True
    return order, repeat


def _int_rows(data, width: int, what: str) -> np.ndarray:
    """data as an (m, width) int64 array: an ndarray as it is, else a sequence of rows.
    Ragged rows, another shape or non-int64 entries (no float is truncated) raise ValueError."""
    rows = data if isinstance(data, np.ndarray) else list(data) or np.empty((0, width), np.int64)
    try:
        arr = np.asarray(rows)
    except ValueError:
        raise ValueError(f"{what}, got rows of different lengths") from None
    if not (arr.ndim == 2 and arr.shape[1] == width and arr.dtype.kind in "iu"
            and np.can_cast(arr.dtype, np.int64)):
        raise ValueError(f"{what}, got {arr.dtype} rows of shape {arr.shape}")
    return arr.astype(np.int64, copy=False)


def _clamped_ints(rows: list, width: int) -> np.ndarray | None:
    """Rows of width Python ints as int64, each clamped to the int64 range, or None if
    some row is not such a row. A clamped value is never a sign or a vertex in 0..n-1."""
    if not all(isinstance(r, (list, tuple)) and len(r) == width
               and all(isinstance(x, int) for x in r) for r in rows):
        return None
    lo, hi = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    return np.array([[min(max(x, lo), hi) for x in r] for r in rows], dtype=np.int64)


def _edge_array(n: int, edges, width: int, exact=None) -> np.ndarray:
    """Symmetric n x n int8 array with a[u, v] = a[v, u] = sign for each row (u, v, sign),
    or (u, v) with sign +1 for width 2. The first row that is not an edge raises the error
    of its first failing check (sign +-1, no loop, vertices in 0..n-1, a new pair), worded
    from Python ints: exact(j) for row j if given (a reader's text: its array saturates).
    So is a list of rows of Python ints past int64: it is read clamped, and every row
    holding such an int is faulty, as it is unclamped.

    Rows that pass the sign, loop and range checks are written straight into the array,
    and they hold no repeated pair iff it has 2m nonzero entries: with no loop and a
    nonzero sign, each row writes two distinct nonzero entries, (u, v) and (v, u), and
    two rows write the same entries iff they name the same pair, so k distinct pairs
    leave exactly 2k. Only a faulty list is sorted (_lex_order), to name its first
    faulty row."""
    what = "(u, v, sign)" if width == 3 else "(u, v)"
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        rows = _int_rows(edges, width, f"each edge must be {what} integers")
    except ValueError:
        rows = _clamped_ints(edges, width)
        if rows is None:
            raise
        exact = edges.__getitem__
    u, v = rows[:, 0], rows[:, 1]
    s = rows[:, 2] if width == 3 else 1
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = ((s != 1) & (s != -1)) | (lo == hi) | (lo < 0) | (hi >= n)
    if not bad.any():
        a = np.zeros((n, n), dtype=np.int8)
        a[u, v] = a[v, u] = s
        if np.count_nonzero(a) == 2 * len(rows):
            return a
    j = _first(bad | _lex_order(np.column_stack((lo, hi)))[1])
    x, y, sign = [*(exact(j) if exact else rows[j].tolist()), 1][:3]  # no sign: +1
    if sign not in (1, -1):
        raise ValueError(f"edge ({x}, {y}) has sign {sign}, expected +1 or -1")
    if x == y:
        raise ValueError(f"loop at vertex {x} not allowed")
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"edge ({x}, {y}) out of range [0, {n})")
    raise ValueError(f"duplicate edge ({min(x, y)}, {max(x, y)})")


class SignedGraph(SignedMatrix):
    """Symmetric zero-diagonal signed matrix: a graph plus signature on vertices 0..n-1.

    It adds the adjacency check to SignedMatrix's, n, the edge-list
    constructors and _half, its kept C (_star_half).
    """

    __slots__ = ("_half",)

    def __init__(self, matrix):
        # a SignedMatrix's read-only array is shared, so its kept verdict holds here too:
        # _stored_verdict accepts one only on the very array it was proven on. A
        # SignedGraph's array is an adjacency by its type and is not checked again. An
        # empty Graph goes to _as_trit_array, which refuses it with the public message.
        shared = isinstance(matrix, SignedMatrix) and matrix.data.size
        arr = matrix.data if shared else _as_trit_array(matrix)
        if not (shared and isinstance(matrix, SignedGraph)):
            _check_adjacency(arr)
        memo = _stored_verdict(matrix) if shared else None
        self._own(arr)
        self._verdict = memo

    def _own(self, arr: np.ndarray) -> None:
        super()._own(arr)
        self._half = None

    @property
    def matrix(self) -> "SignedGraph":
        """The graph itself, which is its matrix (for callers that read sg.matrix.data)."""
        return self

    @property
    def n(self) -> int:
        return self.rows

    @classmethod
    def from_edges(cls, n: int, signed_edges) -> "SignedGraph":
        """Build from (u, v, sign) rows, sign +1 or -1, as an (m, 3) integer array or an
        iterable; _edge_array validates them, so they are not checked again."""
        return cls._trusted(_edge_array(n, signed_edges, 3))

    @staticmethod
    def all_positive(g: Graph) -> "SignedGraph":
        """g's all-positive signing, sharing g's array (and kept verdict) unchecked."""
        return SignedGraph(g)


class Graph(SignedGraph):
    """Simple labeled graph on vertices 0..n-1: the all-positive SignedGraph.

    It adds the 0/1 check, the graph on no vertices, and edge lists,
    components and bipartitions, which are views computed from its array.
    """

    __slots__ = ()

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self._own(_edge_array(n, edges, 2))

    @classmethod
    def from_adjacency(cls, a) -> "Graph":
        """The graph whose adjacency is a: square, symmetric, 0/1, zero diagonal."""
        arr = np.asarray(a)
        if not _entries_within(arr, 0, 1):
            raise ValueError("graph adjacency entries must be 0 or 1")
        adj = arr.astype(np.int8)
        _check_adjacency(adj)
        return cls._trusted(adj)

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "Graph":
        """As SignedMatrix._trusted, for a square, symmetric, zero-diagonal 0/1 int8 array,
        which may be empty."""
        g = cls.__new__(cls)
        g._own(arr)
        return g

    @property
    def m(self) -> int:
        return int(np.count_nonzero(self.data)) // 2

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    def sorted_edges(self) -> list[tuple[int, int]]:
        iu, iv = _upper_pairs(self.data)
        return list(zip(iu.tolist(), iv.tolist()))

    def adjacency(self) -> np.ndarray:
        """The read-only int8 adjacency array."""
        return self.data

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest vertex."""
        return [np.sort(np.concatenate([layer for layer, _ in layers])).tolist()
                for layers, _ in _bfs_components(self.data)]

    def bipartition(self) -> tuple[list[int], list[int]] | None:
        """A 2-coloring (X, Y) of the vertices, or None if an odd cycle exists.

        Components are colored independently; each component's larger color
        class goes to whichever side is currently smaller, so equal-size
        bipartitions are found whenever the component structure allows it.
        """
        in_y = np.zeros(self.n, dtype=bool)
        sizes = [0, 0]
        for layers, odd in _bfs_components(self.data):
            if odd:
                return None
            count = [sum(layer.size for layer, _ in layers[c::2]) for c in (0, 1)]
            big = 0 if count[0] >= count[1] else 1
            big_to_y = sizes[0] > sizes[1]
            for k, (layer, _) in enumerate(layers):
                in_y[layer] = (k % 2 == big) == big_to_y
            sizes[big_to_y] += count[big]
            sizes[not big_to_y] += count[1 - big]
        return np.flatnonzero(~in_y).tolist(), np.flatnonzero(in_y).tolist()

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_adjacency(1 - np.eye(n, dtype=np.int8))

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        return cls(a + b, np.argwhere(np.ones((a, b), dtype=bool)) + [0, a])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(n, np.column_stack((np.arange(n), np.roll(np.arange(n), -1))))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))

    def __repr__(self):
        return f"Graph({self.n}, {self.sorted_edges()!r})"


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union, relabeling each graph's vertices after the previous one: valid
    adjacencies on the diagonal of a zero array make a valid one, so it is not checked."""
    n = sum(g.n for g in graphs)
    a = np.zeros((n, n), dtype=np.int8)
    start = 0
    for g in graphs:
        a[start : start + g.n, start : start + g.n] = g.adjacency()
        start += g.n
    return Graph._trusted(a)


def _bfs_layers(
    a: np.ndarray, root: int, seen: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], bool]:
    """Breadth-first layers of root's component in a 0/1 adjacency; marks them seen.

    Each layer is (vertices, parents), the vertices in the order a FIFO search
    visiting neighbors by increasing index finds them, each parent the first
    vertex of the previous layer adjacent to it. The root is its own parent.
    The flag says whether an edge joins two vertices of one layer. Layers
    are 2-colored by parity and every edge joins the same or adjacent
    layers, so the flag is set iff the component has an odd cycle.
    """
    layer = np.array([root])
    seen[root] = True
    layers = [(layer, layer)]
    odd = False
    while True:
        rows = a[layer]
        reach = rows.any(axis=0)
        odd = odd or bool(np.count_nonzero(reach[layer]))
        fresh = np.flatnonzero(reach & ~seen)
        if not fresh.size:
            return layers, odd
        first = rows[:, fresh].argmax(axis=0)
        # fresh is ascending, so a stable sort orders by (first, vertex)
        order = first.argsort(kind="stable")
        parents, layer = layer[first[order]], fresh[order]
        seen[layer] = True
        layers.append((layer, parents))


def _bfs_components(a: np.ndarray):
    """The BFS layers and odd-cycle flag of each component, in order of its smallest vertex."""
    seen = np.zeros(a.shape[0], dtype=bool)
    for root in range(a.shape[0]):
        if not seen[root]:
            yield _bfs_layers(a, root, seen)


def ground(sg: SignedGraph) -> Graph:
    """The underlying unsigned graph |A|, unchecked: 0/1, symmetric, zero diagonal as A is."""
    return Graph._trusted(np.abs(sg.data))


def star(c: SignedMatrix) -> SignedGraph:
    """The bipartite signed graph [[O, C], [C^t, O]], symmetric and zero on the diagonal,
    which keeps c, whose orthogonality verdict certifies it (_star_half)."""
    if not c.is_square:
        raise ValueError(f"star operator needs a square matrix, got {c.rows}x{c.cols}")
    n = c.rows
    a = np.zeros((2 * n, 2 * n), dtype=np.int8)
    a[:n, n:] = c.data
    # C^t one column strip at a time: each strip reads _STAR_STRIP_ROWS whole rows
    # of C, where one a[n:, :n] = C^t write strides down C's columns
    for r0 in range(0, n, _STAR_STRIP_ROWS):
        r1 = min(r0 + _STAR_STRIP_ROWS, n)
        a[n:, r0:r1] = c.data[r0:r1].T
    sg = SignedGraph._trusted(a)
    _keep_half(sg, c)
    return sg


def _keep_half(sg: SignedGraph, c: SignedMatrix) -> SignedMatrix:
    """c, kept on sg as its half: its caller found that sg's current array is
    [[O, C], [C^t, O]] on c's entries, up to the order of the vertices."""
    sg._half = (sg.data, c, c.data)
    return c


def _star_half(sg: SignedGraph) -> SignedMatrix | None:
    """The C of sg = [[O, C], [C^t, O]] up to vertex order, or None.

    That is the C kept on sg, by star, by an earlier scan or by the bipartite
    check's BFS gather (_keep_half), while sg holds the array it was found on
    and C the array it held then, both still read-only: the same bytes, as for
    a kept verdict (is_orthogonal). Else, when both diagonal h x h blocks of
    sg's order-2h array are zero, it is the view a[:h, h:], kept; else None.
    A kept C keeps its own verdict, so each C is proven at most once."""
    a = sg.data
    held, c, block = sg._half or (None, None, None)
    if held is a and block is c.data and not (a.flags.writeable or block.flags.writeable):
        return c
    h = len(a) // 2
    if len(a) % 2 or a[:h, :h].any() or a[h:, h:].any():
        return None
    return _keep_half(sg, SignedMatrix._trusted(a[:h, h:]))


def _stored_verdict(m: SignedMatrix) -> tuple | None:
    """m's kept (data, verdict) pair while m.data is the array it was proven on, still read-only."""
    memo = m._verdict
    return memo if memo and memo[0] is m.data and not m.data.flags.writeable else None


def _keep_verdict(m: SignedMatrix, cert: OrthogonalityCertificate) -> SignedMatrix:
    """m, holding cert, which its caller proved exactly on m.data, as its kept verdict."""
    m._verdict = (m.data, cert)
    return m


def is_orthogonal(c: SignedMatrix) -> OrthogonalityCertificate | None:
    """Certificate with CC^t = C^tC = alpha I, checked in exact integer arithmetic.

    alpha can only be (CC^t)_00, the support size of row 0. Only CC^t = alpha I
    is checked (by the Gram product _product_is(c, None, alpha), on and above
    the diagonal): for square C with
    alpha >= 1 it makes C invertible with C^-1 = C^t / alpha, and a one-sided
    inverse of a square matrix is two-sided, so C^tC = alpha I follows.

    The verdict, a rejection too, is proven once and kept on c, as is a
    construction's certificate (_keep_verdict). A later call returns it while
    c.data is the array it was proven on and is read-only: the exact identity
    on the same bytes, unchanged by the invariant that _trusted and
    validate-once rest on. A reassigned or writeable c.data is proven again,
    and no verdict passes between two objects that hold equal arrays.
    """
    if not c.is_square:
        raise ValueError(f"orthogonality is defined for square matrices, got {c.rows}x{c.cols}")
    memo = _stored_verdict(c)
    if memo is None:
        memo = c._verdict = (c.data, _orthogonality(c.data))
    return memo[1]


def _orthogonality(c: np.ndarray) -> OrthogonalityCertificate | None:
    """is_orthogonal's exact Gram proof on a square array of {-1, 0, 1} entries.
    Only is_orthogonal calls it, and the tests, as the route that every kept
    verdict must agree with."""
    alpha = int(np.count_nonzero(c[0]))
    if alpha < 1 or not _product_is(c, None, alpha):
        return None
    return OrthogonalityCertificate(alpha)


def resign(sg: SignedGraph, v: int) -> SignedGraph:
    """Negate all edge signs at vertex v: D A D for a +-1 diagonal D, valid as A is, unchecked."""
    if not (0 <= v < sg.n):
        raise ValueError(f"vertex {v} out of range [0, {sg.n})")
    a = sg.data.copy()
    a[v, :] *= -1
    a[:, v] *= -1
    return SignedGraph._trusted(a)


def _bfs_forest(g: Graph) -> list[tuple[int, int]]:
    """BFS spanning-forest edges (parent, child) in discovery order.

    Each component is rooted at its lowest-index vertex and neighbors are
    visited in increasing index order, so the forest is canonical.
    """
    order: list[tuple[int, int]] = []
    for layers, _ in _bfs_components(g.adjacency()):
        for layer, parents in layers[1:]:
            order += zip(parents.tolist(), layer.tolist())
    return order


def switching_canonical(sg: SignedGraph) -> SignedGraph:
    """Deterministic representative of the switching class.

    Resigns so that every edge of the canonical BFS spanning forest gets sign
    +1; the residual signs on the co-forest edges depend only on the class.
    D A D for a +-1 diagonal D is valid as A is, so it is not checked again.
    """
    g = ground(sg)
    a = sg.data
    d = np.ones(g.n, dtype=np.int8)
    for u, v in _bfs_forest(g):
        d[v] = d[u] * a[u, v]
    return SignedGraph._trusted(d[:, None] * a * d[None, :])


def switching_equivalent(a: SignedGraph, b: SignedGraph) -> bool:
    """True iff the two signed graphs are related by a sequence of resignings."""
    if a.n != b.n:
        raise ValueError(f"ground mismatch: {a.n} vs {b.n} vertices")
    return switching_canonical(a) == switching_canonical(b)


def count_switching_classes(g: Graph, components: int | None = None) -> int:
    """2^(m - n + c): the number of distinct signed graphs on g.

    A caller that already holds c, the number of components of g, passes it
    as components, which saves the BFS."""
    if components is None:
        components = len(g.components())
    return 2 ** (g.m - g.n + components)


def enumerate_switching_classes(g: Graph) -> list[SignedGraph]:
    """Brute force over all 2^m signatures, grouped by canonical form.

    Returns one representative (the canonical form) per switching class, in the
    order of their sign tuples over the sorted edges, -1 before +1. This is the
    oracle against the 2^(m-n+c) formula, so it deliberately maps every signature
    to its switching_canonical form and counts the distinct forms instead of
    using the formula; switching_class_signs says how. The representatives
    are k = 2^(m-n+c) arrays of n x n entries, so their memory grows with n
    where the signs' does not. Signs written at the edges of a zero array are
    valid adjacencies, so they are not checked.
    """
    signs = switching_class_signs(g)
    iu, iv = _upper_pairs(g.adjacency())
    a = np.zeros((len(signs), g.n, g.n), dtype=np.int8)
    a[:, iu, iv] = a[:, iv, iu] = signs
    return [SignedGraph._trusted(rep) for rep in a]


def switching_class_signs(g: Graph) -> np.ndarray:
    """The (classes, m) int8 signs on g.sorted_edges() of the canonical
    switching-class representatives, in enumerate_switching_classes' order.

    Signature `code` in 0..2^m - 1 has bit m-1-i set iff sorted edge i is
    negative, so the sign-tuple order, -1 before +1, is descending code.
    switching_canonical switches vertex v iff the code bits on v's canonical
    BFS forest path from its root have odd parity, so one Python walk of the
    forest (n - c steps) records each switch as a mask of code bits. The key
    negates edge (u, v) iff its own bit and the switches of u and v have odd
    parity, so every key bit is a XOR of code bits and key(r + 2^j) =
    key(r) ^ key(2^j) for r < 2^j: m XOR passes write the keys of all 2^m
    codes into one uint32 array, and a 2^m boolean array marks those present,
    the representatives' codes, which are decoded into signs. It is still
    brute force: every signature gets its key, and the classes are the
    distinct keys, with no count assumed. The memory is 2^m words whatever n
    is: at m = MAX_ENUM_EDGES = 20 the keys take 4 MB and the marks 1 MB.
    """
    m = g.m
    if m > MAX_ENUM_EDGES:
        raise ValueError(f"too many edges for enumeration: {m} > {MAX_ENUM_EDGES}")
    iu, iv = _upper_pairs(g.adjacency())
    bits = {(u, v): 1 << (m - 1 - i) for i, (u, v) in enumerate(zip(iu.tolist(), iv.tolist()))}
    switch = [0] * g.n
    for u, v in _bfs_forest(g):
        switch[v] = switch[u] ^ bits[min(u, v), max(u, v)]
    flips = [(bit, switch[u] ^ switch[v]) for (u, v), bit in bits.items()]
    keys = np.zeros(2**m, dtype=np.uint32)
    for j in range(m):
        b = 1 << j
        key = functools.reduce(operator.xor, (bit for bit, mask in flips if mask & b), b)
        np.bitwise_xor(keys[:b], key, out=keys[b : 2 * b])
    present = np.zeros(2**m, dtype=bool)
    present[keys] = True
    codes = np.flatnonzero(present)[::-1].astype(np.uint32)
    negative = (codes[:, None] >> np.arange(m - 1, -1, -1, dtype=np.uint32)) & 1
    return 1 - 2 * negative.astype(np.int8)


def _row_nonzeros(a: np.ndarray) -> np.ndarray:
    """The number of nonzero entries in each row of the 0/1 int8 array a (a
    graph adjacency, or a support mask viewed as int8): its row sums,
    accumulated in np.min_scalar_type(a.shape[1]).

    That is exact: a row of w entries has at most w nonzeros, so its sum is
    at most w, which the dtype holds, and cannot wrap. A uint16 sum reads
    the int8 array in place; an int64 one widens every entry, and a
    count_nonzero with an axis sums a bool copy into intp. At order 2048 the
    row sums took 0.38 ms in uint16 and 1.7-1.9 ms in int64 (2-vCPU host).
    """
    return a.sum(axis=1, dtype=np.min_scalar_type(a.shape[1]))


def is_regular(g: Graph) -> int | None:
    """The common vertex degree, or None if degrees differ."""
    degrees = _row_nonzeros(g.adjacency())
    if not degrees.size:
        return None
    return int(degrees[0]) if (degrees == degrees[0]).all() else None
