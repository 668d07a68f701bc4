import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from twoeig import Graph, SignedGraph, SignedMatrix, constructions, core, spectra, two_lift
from twoeig.core import PANEL_ROWS, _as_trit_array, _bfs_forest, _check_adjacency, _entries_within

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


def pytest_configure(config):
    config.addinivalue_line("markers", "unchecked_trusted: run without the checks that "
                            "the autouse fixture adds to every _trusted construction")


def _check_signed(arr: np.ndarray) -> None:
    _as_trit_array(arr)
    _check_adjacency(arr)


def _check_graph(arr: np.ndarray) -> None:
    if not _entries_within(arr, 0, 1):
        raise ValueError("graph adjacency entries must be 0 or 1")
    _check_adjacency(arr)


@pytest.fixture(autouse=True)
def checked_trusted(request, monkeypatch):
    """Every _trusted construction in a test also runs the public constructor's checks on
    its array, so each derivation that skips them is still shown to give a valid object.
    An empty matrix goes on to _trusted itself, which rejects it with the public message.
    Every kept orthogonality verdict that is_orthogonal returns is also proven afresh by
    core._orthogonality on the matrix's array, with the unpatched product kernel (a test
    may count its calls), so a kept verdict is held to the exact route. An invalid array
    or a differing verdict fails the test (pytest.fail is not an exception the code
    catches)."""
    product_is, stored = core._product_is, core._stored_verdict

    def checked_verdict(m):
        memo = stored(m)
        if memo is not None:
            with monkeypatch.context() as patch:
                patch.setattr(core, "_product_is", product_is)
                fresh = core._orthogonality(m.data)
            if fresh != memo[1]:
                pytest.fail(f"kept verdict {memo[1]} differs from the exact route's {fresh}")
        return memo

    monkeypatch.setattr(core, "_stored_verdict", checked_verdict)
    if request.node.get_closest_marker("unchecked_trusted"):
        return
    checks = {SignedMatrix: _as_trit_array, SignedGraph: _check_signed, Graph: _check_graph}
    # SignedGraph inherits SignedMatrix._trusted: each call checks once, by its own class
    for cls in [c for c in checks if "_trusted" in c.__dict__]:
        bare = cls.__dict__["_trusted"].__func__

        def trusted(klass, arr, bare=bare):
            check = next(checks[c] for c in klass.__mro__ if c in checks)
            if not (isinstance(arr, np.ndarray) and arr.dtype == np.int8):
                pytest.fail(f"{klass.__name__}._trusted got {type(arr).__name__} "
                            f"{getattr(arr, 'dtype', '')}, not an int8 array")
            try:
                if arr.size or klass is Graph:
                    check(arr)
            except ValueError as exc:
                pytest.fail(f"{klass.__name__}._trusted got an invalid array: {exc}")
            return bare(klass, arr)

        monkeypatch.setattr(cls, "_trusted", classmethod(trusted))


@pytest.fixture
def count_eigvalsh(monkeypatch) -> list[tuple[int, ...]]:
    """The operand shapes of the np.linalg.eigvalsh calls made while the test runs, in order."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


def _counted_kernel(monkeypatch) -> dict[bool, list[int]]:
    """The row counts of the exact products checked from here on, keyed by whether each
    is a Gram product (right is None), through core._product_is and the names spectra
    (the dense certificate) and constructions (the Williamson checks) imported it by.
    The kernel is patched once per test, so two counters read the same calls."""
    kernel = core._product_is
    if hasattr(kernel, "rows"):
        return kernel.rows
    rows = {True: [], False: []}

    def counted(left, right, shift, scale=0):
        rows[right is None].append(left.shape[0])
        return kernel(left, right, shift, scale)

    counted.rows = rows
    for module in (core, spectra, constructions):
        monkeypatch.setattr(module, "_product_is", counted)
    return rows


def counted_grams(monkeypatch) -> list[int]:
    """The orders of the Gram products x x^t formed from here on."""
    return _counted_kernel(monkeypatch)[True]


def counted_products(monkeypatch) -> list[int]:
    """The row counts of the general products checked from here on."""
    return _counted_kernel(monkeypatch)[False]


def traced_peak(f, *args) -> int:
    """The traced peak of f(*args), in bytes above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def edge_signs(sg: SignedGraph) -> dict[tuple[int, int], int]:
    """Map (u, v) with u < v to the sign of each edge of sg, as Python ints."""
    a = sg.matrix.data
    iu, iv = np.nonzero(np.triu(a, 1))
    return dict(zip(zip(iu.tolist(), iv.tolist()), a[iu, iv].tolist()))


def wide(m: SignedMatrix) -> np.ndarray:
    """A signed matrix's entries as a fresh int64 array, for exact products in the tests."""
    return m.data.astype(np.int64)


def bipartite_bfs_oracle(signings: np.ndarray) -> list[int | None]:
    """bipartite_two_eig_check's alpha by the BFS route alone, for a stack of signings of
    one bipartite ground graph: the block C over the ground's BFS bipartition, with
    C C^t = alpha I checked by int64 products; None where it fails or the bipartition is
    unbalanced."""
    x, y = Graph.from_adjacency(np.abs(signings[0])).bipartition()
    if len(x) != len(y):
        return [None] * len(signings)
    c = signings[:, x][:, :, y].astype(np.int64)
    alpha = np.count_nonzero(c[:, 0], axis=1)
    gram = c @ c.transpose(0, 2, 1)
    ok = (alpha > 0) & (gram == alpha[:, None, None] * np.eye(len(x), dtype=np.int64)).all(
        axis=(1, 2))
    return [int(a) if k else None for a, k in zip(alpha, ok)]


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


def lift_union_oracle(sg: SignedGraph, lift=None) -> bool:
    """The numeric union rule: eigvalsh of a lift (two_lift(sg) by default) against
    eigvalsh(|A|) and eigvalsh(A)."""
    a = sg.matrix.data.astype(np.float64)
    union = np.sort(np.concatenate([np.linalg.eigvalsh(np.abs(a)), np.linalg.eigvalsh(a)]))
    graph = (lift or two_lift(sg)).graph
    values = np.linalg.eigvalsh(np.asarray(graph, dtype=np.float64))
    return bool(np.allclose(values, union, rtol=0, atol=1e-9))


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


# The full-panel product check that core._product_is halves for a Gram product: every
# column of every float32 row panel of X X^t against the whole target, so no entry is
# left to symmetry. The oracle for is_orthogonal and the dense two-eigenvalue route.


def full_panel_gram_oracle(x: np.ndarray, target: np.ndarray) -> bool:
    x32 = x.astype(np.float32)
    return all((x32[r0 : r0 + PANEL_ROWS] @ x32.T == target[r0 : r0 + PANEL_ROWS]).all()
               for r0 in range(0, x.shape[0], PANEL_ROWS))


def orthogonal_oracle(c: np.ndarray) -> bool:
    """C C^t = alpha I, with alpha the support size of row 0."""
    alpha = np.count_nonzero(c[0])
    return alpha > 0 and full_panel_gram_oracle(c, alpha * np.eye(c.shape[0]))


def annihilated_oracle(a: np.ndarray) -> bool:
    """A^2 + aA + bI = 0 for the (a, b) that row 0 forces: b = -deg(0), and
    a = -(A^2)_0j A_0j at the first neighbor j of vertex 0."""
    row = a[0].astype(np.int64)
    j = np.flatnonzero(row)[0]
    coef = -int(a[j].astype(np.int64) @ row) * int(row[j])
    b = -np.count_nonzero(row)
    return full_panel_gram_oracle(a, -coef * a.astype(np.float64) - b * np.eye(a.shape[0]))


def edge_array_oracle(n: int, signed_edges) -> np.ndarray:
    """The adjacency of (u, v, sign) edges, checked one edge at a time, in order: its
    sign, a loop, its range, then a pair already seen. The oracle for core._edge_array,
    behind Graph(n, edges), SignedGraph.from_edges and the signed graph reader."""
    signs: dict[tuple[int, int], int] = {}
    for u, v, s in signed_edges:
        if s not in (1, -1):
            raise ValueError(f"edge ({u}, {v}) has sign {s}, expected +1 or -1")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")
        key = (u, v) if u < v else (v, u)
        if key in signs:
            raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
        signs[key] = s
    a = np.zeros((n, n), dtype=np.int8)
    for (u, v), s in signs.items():
        a[u, v] = a[v, u] = s
    return a


def enumerate_switching_classes_oracle(g: Graph) -> list[tuple[int, ...]]:
    """The sorted sign tuples, over g's sorted edges, of the canonical forms of all 2^m
    signatures, walked one signature at a time: each is resigned to +1 along the
    canonical BFS forest. The oracle for core.enumerate_switching_classes."""
    edges = g.sorted_edges()
    forest = [(u, v, edges.index((min(u, v), max(u, v)))) for u, v in _bfs_forest(g)]
    classes: set[tuple[int, ...]] = set()
    d = [1] * g.n
    for signs in itertools.product((1, -1), repeat=g.m):
        for u, v, i in forest:
            d[v] = d[u] * signs[i]
        classes.add(tuple(d[u] * d[v] * signs[i] for i, (u, v) in enumerate(edges)))
    return sorted(classes)


# Per-line and per-entry reference readers and writers for the text formats: the
# differential oracles for twoeig.io, which reads and writes on byte arrays. They
# read integers with Python int, which also takes "1_0" and non-ASCII digits.


def _data_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if line.strip()]


def _header(line: str, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"{what} header must be two integers, got {line!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{what} header must be two integers, got {line!r}") from None
    return a, b


def parse_matrix_oracle(text: str) -> SignedMatrix:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty matrix text")
    rows, cols = _header(lines[0], "matrix")
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(lines) < 1 + rows:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    for line in lines[1 + rows :]:
        key, eq, value = line.partition("=")
        if not (eq and key.strip().isidentifier() and value.strip()):
            raise ValueError(f"expected {rows} data rows, then only 'key = value' "
                             f"annotations, got {line!r}")
    data = []
    for i in range(rows):
        parts = lines[1 + i].split()
        if len(parts) != cols:
            raise ValueError(f"row {i + 1} has {len(parts)} entries, expected {cols}")
        try:
            row = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"row {i + 1} has a non-integer entry") from None
        data.append(row)
    return SignedMatrix(data)


def format_matrix_oracle(m: SignedMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for row in m.data:
        lines.append(" ".join(f"{int(x):d}" for x in row))
    return "\n".join(lines) + "\n"


def parse_signed_graph_oracle(text: str) -> SignedGraph:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty graph text")
    n, m = _header(lines[0], "graph")
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    if len(lines) != 1 + m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    triples = []
    for i in range(m):
        parts = lines[1 + i].split()
        if len(parts) not in (2, 3):
            raise ValueError(f"edge line {i + 1} must be 'u v' or 'u v sign', got {lines[1 + i]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            s = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ValueError(f"edge line {i + 1} has a non-integer field") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge line {i + 1}: vertex out of range 1..{n}")
        triples.append((u - 1, v - 1, s))
    return SignedGraph(edge_array_oracle(n, triples))


def format_signed_graph_oracle(sg: SignedGraph) -> str:
    signs = edge_signs(sg)
    lines = [f"{sg.n} {len(signs)}"]
    for (u, v), s in sorted(signs.items()):
        lines.append(f"{u + 1} {v + 1} {s:d}")
    return "\n".join(lines) + "\n"


def parse_triples_oracle(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty triple text")
    n, t = _header(lines[0], "triple")
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if t < 0:
        raise ValueError(f"triple count must be non-negative, got {t}")
    if len(lines) != 1 + t:
        raise ValueError(f"expected {t} triple lines, found {len(lines) - 1}")
    triples = set()
    for i in range(t):
        parts = lines[1 + i].split()
        if len(parts) != 3:
            raise ValueError(f"triple line {i + 1} must have three labels, got {lines[1 + i]!r}")
        try:
            vals = sorted(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"triple line {i + 1} has a non-integer label") from None
        a, b, c = vals
        if not (1 <= a and c <= n):
            raise ValueError(f"triple line {i + 1}: label out of range 1..{n}")
        if a == b or b == c:
            raise ValueError(f"triple line {i + 1}: labels must be distinct")
        key = (a - 1, b - 1, c - 1)
        if key in triples:
            raise ValueError(f"duplicate triple {{{a}, {b}, {c}}}")
        triples.add(key)
    return n, sorted(triples)


def format_triples_oracle(n: int, triples) -> str:
    rows = sorted(tuple(sorted(t)) for t in triples)
    lines = [f"{n} {len(rows)}"]
    for a, b, c in rows:
        lines.append(f"{a + 1} {b + 1} {c + 1}")
    return "\n".join(lines) + "\n"


def format_lift_oracle(lift) -> str:
    g = lift.graph
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u + 1} {v + 1}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


@pytest.fixture
def k6_signing() -> SignedGraph:
    return SignedGraph(K6_MATRIX)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
