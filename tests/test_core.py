import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import twoeig
from twoeig import (
    Graph,
    SignedGraph,
    SignedMatrix,
    TwoGraph,
    count_switching_classes,
    disjoint_union,
    double,
    eigenvalues_symmetric,
    enumerate_switching_classes,
    ground,
    is_orthogonal,
    is_regular,
    kronecker,
    paley_conference,
    resign,
    shift_antisymmetric,
    star,
    switching_canonical,
    switching_equivalent,
    validate_twograph,
    williamson_preset,
)
from twoeig.core import (MAX_ENUM_EDGES, PANEL_ROWS, _STAR_STRIP_ROWS, _bfs_forest,
                         _is_symmetric)
from twoeig.io import format_triples, parse_signed_graph

import conftest
from conftest import (K6_TRIPLES, counted_grams, edge_array_oracle, edge_signs,
                      enumerate_switching_classes_oracle, petersen, random_signed_graph, wide)


def test_signed_matrix_validates_entries():
    with pytest.raises(ValueError, match="entries must be"):
        SignedMatrix([[0, 2], [1, 0]])
    with pytest.raises(ValueError, match="2-dimensional"):
        SignedMatrix([1, 0, -1])
    with pytest.raises(ValueError, match="at least 1x1"):
        SignedMatrix(np.zeros((0, 3)))


def test_signed_matrix_is_read_only():
    m = SignedMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        m.data[0, 0] = 1


def test_signed_matrix_basics():
    m = SignedMatrix([[1, -1, 0], [0, 1, 1]])
    assert (m.rows, m.cols) == (2, 3)
    assert not m.is_square
    assert m.transpose().data.shape == (3, 2)
    assert np.array_equal(wide(m.transpose()), wide(m).T)
    assert SignedMatrix.identity(3) == SignedMatrix(np.eye(3))
    assert hash(m) == hash(SignedMatrix(m.data))
    assert m != SignedMatrix([[1, -1], [0, 1]])


def test_one_matrix_type():
    """A Graph is a SignedGraph, which is a SignedMatrix: one read-only array, and
    sg.matrix is sg itself."""
    g = Graph.complete(3)
    sg = SignedGraph.from_edges(3, [(0, 1, -1), (1, 2, 1)])
    assert isinstance(g, SignedGraph) and isinstance(g, SignedMatrix)
    assert isinstance(sg, SignedMatrix) and not isinstance(sg, Graph)
    assert issubclass(Graph, SignedGraph) and issubclass(SignedGraph, SignedMatrix)
    assert sg.matrix is sg and g.matrix is g
    assert g.adjacency() is g.data and not g.data.flags.writeable
    assert Graph.__slots__ == () and SignedGraph.__slots__ == ("_half",)


def test_equality_and_hash_go_by_entries_across_the_types():
    g = Graph.complete(3)
    sg = SignedGraph.all_positive(g)
    m = SignedMatrix(g.data)
    assert g == sg == m and sg == g and m == g
    assert hash(g) == hash(sg) == hash(m)
    assert len({g, sg, m}) == 1
    assert resign(sg, 0) != g and hash(resign(sg, 0)) != hash(g)
    assert Graph.path(3) != sg
    assert Graph(2, [(0, 1)]) != g
    row, column = SignedMatrix([[0, 1, 1]]), SignedMatrix([[0], [1], [1]])
    assert row != column and hash(row) != hash(column)


def test_np_asarray_reads_each_type():
    a = np.array([[0, 1, -1], [1, 0, 0], [-1, 0, 0]], dtype=np.int8)
    for obj, want in ((SignedMatrix(a[:2]), a[:2]), (SignedGraph(a), a),
                      (ground(SignedGraph(a)), np.abs(a)), (Graph(0), np.zeros((0, 0)))):
        arr = np.asarray(obj)
        assert arr.dtype == np.int8 and np.array_equal(arr, want)
        assert np.array_equal(np.asarray(obj, dtype=np.float64), want)


def test_only_a_graph_may_be_empty():
    for g in (Graph(0), Graph.from_adjacency(np.zeros((0, 0), dtype=np.int8))):
        assert g.n == 0 and g.m == 0 and g.sorted_edges() == [] and g == Graph(0)
    message = r"matrix must be at least 1x1, got shape \(0, 0\)"
    with pytest.raises(ValueError, match=message):
        SignedGraph.from_edges(0, [])
    with pytest.raises(ValueError, match=message):
        SignedGraph(Graph(0))
    with pytest.raises(ValueError, match=message):
        validate_twograph(0, [])


def test_signed_graph_of_a_matrix_shares_its_array_and_verdict(monkeypatch):
    c = paley_conference(13)
    grams = counted_grams(monkeypatch)
    sg = SignedGraph(c)
    assert sg.data is c.data and sg._verdict is c._verdict
    assert is_orthogonal(sg) == is_orthogonal(c) and is_orthogonal(sg).alpha == 13
    assert grams == []
    # a verdict proven on the graph is kept on the graph, not on the matrix it shares
    m = SignedMatrix(c.data)
    sm = SignedGraph(m)
    assert sm._verdict is None and is_orthogonal(sm).alpha == 13 and grams == [14]
    assert m._verdict is None


def test_identity_is_a_signed_matrix_on_every_class():
    """I_n's diagonal of ones is no signed adjacency: identity gives the SignedMatrix
    I_n whichever of the three classes it is called on."""
    for cls in (SignedMatrix, SignedGraph, Graph):
        eye = cls.identity(3)
        assert type(eye) is SignedMatrix and eye == SignedMatrix(np.eye(3))
        assert eye.data.dtype == np.int8 and not eye.data.flags.writeable
    with pytest.raises(ValueError, match=r"at least 1x1, got shape \(0, 0\)"):
        SignedGraph.identity(0)


def test_a_signed_graph_input_is_shared_unchecked(monkeypatch):
    """A SignedGraph, a Graph too, is an adjacency by its type: all_positive and
    SignedGraph share its array and run no symmetry check on it, while a SignedMatrix
    is still checked."""
    g = Graph.complete(512)
    calls, is_symmetric = [], twoeig.core._is_symmetric

    def counted(a, *args):
        calls.append(a.shape[0])
        return is_symmetric(a, *args)

    monkeypatch.setattr(twoeig.core, "_is_symmetric", counted)
    plus = SignedGraph.all_positive(g)
    assert type(plus) is SignedGraph and plus.data is g.data and plus == g
    assert SignedGraph(plus).data is g.data and SignedGraph(g).data is g.data
    assert calls == []
    assert SignedGraph(SignedMatrix(g.data)) == g and calls == [512]


def test_checked_trusted_runs_each_class_check_once(monkeypatch):
    """The autouse fixture checks a _trusted array once, by the called class's own check:
    trit entries, signed adjacency or 0/1 adjacency, also for the inherited
    SignedGraph._trusted, and an empty graph is checked as Graph(0) is."""
    calls = []

    def counting(module, name, label):
        inner = getattr(module, name)

        def counted(arr, *args):
            calls.append(label(*args))
            return inner(arr, *args)

        monkeypatch.setattr(module, name, counted)

    counting(twoeig.core, "_entries_within", lambda lo, hi: "trits")
    counting(conftest, "_entries_within", lambda lo, hi: "0/1")
    counting(conftest, "_check_adjacency", lambda: "adjacency")
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int8)
    for make, want in ((SignedMatrix._trusted, ["trits"]),
                       (SignedGraph._trusted, ["trits", "adjacency"]),
                       (Graph._trusted, ["0/1", "adjacency"])):
        calls.clear()
        make(a.copy())
        assert calls == want, make
    calls.clear()
    assert Graph._trusted(np.zeros((0, 0), dtype=np.int8)) == Graph(0)
    assert calls == ["0/1", "adjacency"]


def test_no_module_reads_a_matrix_attribute():
    """SignedGraph.matrix is the graph itself, kept for outside callers: the package
    reads the array as .data."""
    readers = [f"{path.stem}:{node.lineno}"
               for path in sorted(Path(twoeig.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "matrix"]
    assert readers == []


def test_one_panel_loop_checks_every_exact_product():
    """core._product_is is the one exact product kernel: it is the only function that
    calls _packing and _packed_panel, and no module defines, imports or names a second
    kernel such as _gram_is, so every packing or chunking route goes into its loop."""
    callers, named = {"_packing": set(), "_packed_panel": set()}, []
    for path in sorted(Path(twoeig.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        name = getattr(node.func, "id", getattr(node.func, "attr", None))
                        callers.get(name, set()).add(f"{path.stem}.{fn.name}")
        named += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if "_gram_is" in (getattr(node, "name", None), getattr(node, "asname", None),
                                    getattr(node, "id", None), getattr(node, "attr", None))]
    assert callers == {"_packing": {"core._product_is"}, "_packed_panel": {"core._product_is"}}
    assert named == []


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])


def test_graph_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.m == 3
    assert g.adjacency().sum(axis=1).tolist() == [1, 2, 2, 1]
    assert [np.flatnonzero(row).tolist() for row in g.adjacency()] == [[1], [0, 2], [1, 3], [2]]
    assert g.adjacency().sum() == 6
    assert g.components() == [[0, 1, 2, 3]]
    assert g.sorted_edges() == [(0, 1), (1, 2), (2, 3)]


def test_graph_generators():
    assert Graph.complete(4).m == 6
    assert Graph.cycle(5).adjacency().sum(axis=1).tolist() == [2] * 5
    assert Graph.path(4).m == 3
    assert Graph.complete_bipartite(2, 3).m == 6
    with pytest.raises(ValueError, match="at least 3"):
        Graph.cycle(2)


def test_components_and_union():
    g = disjoint_union(Graph.complete(3), Graph.cycle(4))
    assert g.n == 7
    assert g.components() == [[0, 1, 2], [3, 4, 5, 6]]


def test_bipartition():
    assert Graph.cycle(4).bipartition() == ([0, 2], [1, 3])
    assert Graph.cycle(5).bipartition() is None
    x, y = Graph.complete_bipartite(3, 3).bipartition()
    assert (len(x), len(y)) == (3, 3)
    # isolated vertices are balanced across sides
    x, y = Graph(4, [(0, 1)]).bipartition()
    assert len(x) == len(y) == 2


def test_signed_graph_validation():
    with pytest.raises(ValueError, match="square"):
        SignedGraph(SignedMatrix([[0, 1, 0], [1, 0, 1]]))
    with pytest.raises(ValueError, match="symmetric"):
        SignedGraph([[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        SignedGraph([[1, 1], [1, 0]])


def test_signed_graph_from_edges():
    sg = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])
    assert edge_signs(sg) == {(0, 1): 1, (1, 2): -1}
    with pytest.raises(ValueError, match="sign"):
        SignedGraph.from_edges(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        SignedGraph.from_edges(3, [(0, 1, 1), (1, 0, 1)])


def test_malformed_edges_raise_a_clear_value_error():
    """A float is never truncated to a vertex or a sign, and a row of the wrong width or
    length says so, where a per-edge unpacking raised IndexError or "too many values"."""
    for make, edges, found in [
        (Graph, [(0, 1.0)], "float64 rows of shape (1, 2)"),
        (Graph, [(0, 1, 1)], "int64 rows of shape (1, 3)"),
        (Graph, [(0, 1), (1, 2, 1)], "rows of different lengths"),
        (SignedGraph.from_edges, [(0, 1, 1.0)], "float64 rows of shape (1, 3)"),
        (SignedGraph.from_edges, [(0, 1, 1.5)], "float64 rows of shape (1, 3)"),
        (SignedGraph.from_edges, [(0, 1)], "int64 rows of shape (1, 2)"),
        (SignedGraph.from_edges, np.ones((1, 3), dtype=np.uint64), "uint64 rows of shape (1, 3)"),
    ]:
        what = "(u, v)" if make is Graph else "(u, v, sign)"
        with pytest.raises(ValueError) as caught:
            make(3, edges)
        assert str(caught.value) == f"each edge must be {what} integers, got {found}"


_PAST_INT64 = (2**63, -(2**63) - 1, 2**64, 2**70)


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def _faulty_edge_list(rng, n: int) -> list[tuple[int, int, int]]:
    """Random signed edges on 0..n-1 (maybe fewer vertices than needed) with up to three
    faults at random positions: a bad sign, a loop, a vertex out of range in either slot,
    or an earlier pair again in either orientation. Bad signs and vertices include Python
    ints past int64."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    rows = [(*pairs[k], int(rng.choice((-1, 1))))
            for k in rng.choice(len(pairs), size=min(len(pairs), int(rng.integers(0, 9))))]
    for _ in range(int(rng.integers(0, 4))):
        at = int(rng.integers(0, len(rows) + 1))
        u, v, s = rows[int(rng.integers(len(rows)))] if rows else (0, 1, 1)
        fault = int(rng.integers(4))
        if fault == 0:
            s = _pick(rng, (0, 2, -2, 7, 2**62, -(2**63), 2**63 - 1, *_PAST_INT64))
        elif fault == 1:
            v = u
        elif fault == 2:
            v = _pick(rng, (n, n + 3, -1, -(2**63), 2**63 - 1, *_PAST_INT64))
            if rng.random() < 0.5:
                u, v = v, u
        elif rng.random() < 0.5:
            u, v = v, u
        rows.insert(at, (u, v, s))
    return rows


def _built(make):
    try:
        return "ok", np.asarray(make()).tolist()
    except ValueError as exc:
        return "error", str(exc)


def test_edge_validation_matches_the_per_edge_oracle(rng):
    """Graph(n, edges) and SignedGraph.from_edges, from lists and int64 arrays, give the
    per-edge oracle's array or its exact message. A list holding a Python int past int64
    has no int64 array; its message quotes that int."""
    verdicts = set()
    for _ in range(400):
        n = int(rng.integers(0, 7))
        rows = _faulty_edge_list(rng, n)
        past = any(not -(2**63) <= x < 2**63 for row in rows for x in row)
        arrays = [] if past else [np.array(rows, dtype=np.int64).reshape(-1, 3)]
        signed = _built(lambda: SignedGraph(edge_array_oracle(n, rows)).matrix.data)
        for edges in (rows, *arrays):
            assert _built(lambda: SignedGraph.from_edges(n, edges).matrix.data) == signed, rows
        unsigned = _built(lambda: edge_array_oracle(n, [(u, v, 1) for u, v, _ in rows]))
        for edges in ([(u, v) for u, v, _ in rows], *(a[:, :2] for a in arrays)):
            assert _built(lambda: Graph(n, edges)) == unsigned, rows
        verdicts |= {k for k in ("has sign", "loop", "out of range", "duplicate", "ok")
                     for want in (signed, unsigned) if k in str(want)}
        verdicts |= {f"past int64: {k}" for k in ("has sign", "out of range")
                     if past and k in str(signed)}
    assert verdicts == {"has sign", "loop", "out of range", "duplicate", "ok",
                        "past int64: has sign", "past int64: out of range"}


@pytest.mark.parametrize("n, rows", [
    (4, [(0, 1, 1), (2, 3, -1), (0, 1, 1)]),
    (4, [(0, 1, 1), (2, 3, -1), (0, 1, -1)]),
    (4, [(0, 1, 1), (1, 2, 1), (1, 0, -1), (2, 3, 1)]),
    (5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 3, 1)]),
    (4, [(0, 1, 1), (1, 0, 1), (2, 2, 1), (0, 1, 1)]),
    (4, [(0, 1, 1), (2, 3, 5), (1, 0, 1), (3, 2, 1)]),
    (4, [(0, 1, 1), (1, 2, 1), (0, 4, 1), (2, 1, 1)]),
    (4, [(0, 1, 1), (1, 2, 2**63), (1, 0, 1)]),
    (4, [(0, 1, 1), (0, 1, 1), (1, -(2**64), 1)]),
    (4, [(0, 1, 1), (2, 2**70, 1), (0, 1, 1)]),
    (4, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (3, 0, -1)]),
    (0, []),
], ids=["same-sign", "opposite-sign", "reversed", "last-row", "duplicate-before-loop",
        "duplicate-after-bad-sign", "duplicate-after-out-of-range", "past-int64-before",
        "past-int64-after", "past-int64-vertex", "valid", "empty"])
def test_edge_array_duplicates_and_precedence_match_the_oracle(n, rows):
    """Duplicates in either orientation and sign, in the last row, and beside a faulty
    row, for (u, v, sign) rows, (u, v) rows through Graph(n, edges), and lists holding
    Python ints past int64: the per-edge oracle's array or its first message."""
    past = any(not -(2**63) <= x < 2**63 for row in rows for x in row)
    arrays = [] if past else [np.array(rows, dtype=np.int64).reshape(-1, 3)]
    signed = _built(lambda: SignedGraph(edge_array_oracle(n, rows)).matrix.data)
    for edges in (rows, *arrays):
        assert _built(lambda: SignedGraph.from_edges(n, edges).matrix.data) == signed
    unsigned = _built(lambda: edge_array_oracle(n, [(u, v, 1) for u, v, _ in rows]))
    for edges in ([(u, v) for u, v, _ in rows], *(a[:, :2] for a in arrays)):
        assert _built(lambda: Graph(n, edges)) == unsigned


def test_edge_array_finds_one_planted_duplicate_among_many_edges():
    """200,000 distinct edges on 2,000 vertices, then one of them again in reverse, placed
    after a random later row: the oracle's message, and the valid list's array."""
    rng = np.random.default_rng(2026)
    n, m = 2000, 200_000
    iu, iv = np.triu_indices(n, 1)
    pick = rng.choice(iu.size, size=m, replace=False)
    rows = np.column_stack((iu[pick], iv[pick], rng.choice((-1, 1), size=m)))
    assert np.array_equal(SignedGraph.from_edges(n, rows).matrix.data,
                          edge_array_oracle(n, rows.tolist()))
    k = int(rng.integers(m))
    twin = rows[k, [1, 0, 2]]
    planted = np.insert(rows, int(rng.integers(k + 1, m + 1)), twin, axis=0)
    with pytest.raises(ValueError) as caught:
        edge_array_oracle(n, planted.tolist())
    want = str(caught.value)
    assert want == f"duplicate edge ({min(twin[:2])}, {max(twin[:2])})"
    for make in (lambda: SignedGraph.from_edges(n, planted), lambda: Graph(n, planted[:, :2])):
        with pytest.raises(ValueError) as caught:
            make()
        assert str(caught.value) == want


def test_a_valid_edge_list_is_never_sorted(monkeypatch):
    """Valid edges are checked by their adjacency's nonzero count alone; _lex_order runs
    only to name the first faulty row of a list that fails."""
    calls, lex_order = [], twoeig.core._lex_order

    def counted(rows):
        calls.append(len(rows))
        return lex_order(rows)

    monkeypatch.setattr(twoeig.core, "_lex_order", counted)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    assert Graph(4, edges).m == 5
    assert SignedGraph.from_edges(4, [(u, v, -1) for u, v in edges]).matrix.data.sum() == -10
    assert parse_signed_graph("4 2\n1 2 -1\n3 4\n").matrix.data[0, 1] == -1
    assert calls == []
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph(4, [*edges, (2, 0)])
    assert calls == [6]


class _RowsWithoutIteration(np.ndarray):
    def __iter__(self):
        raise AssertionError("rows were iterated one by one")


def _no_iteration(rows) -> np.ndarray:
    return np.array(rows).view(_RowsWithoutIteration)


@pytest.mark.parametrize("build, want", [
    (lambda: Graph(3, _no_iteration([[0, 1], [1, 2]])), lambda: Graph.path(3)),
    (lambda: SignedGraph.from_edges(3, _no_iteration([[0, 1, -1], [2, 1, 1]])),
     lambda: SignedGraph([[0, -1, 0], [-1, 0, 1], [0, 1, 0]])),
    (lambda: validate_twograph(6, _no_iteration(K6_TRIPLES)), lambda: TwoGraph(6, K6_TRIPLES)),
    (lambda: TwoGraph(6, _no_iteration(K6_TRIPLES)), lambda: TwoGraph(6, K6_TRIPLES)),
    (lambda: format_triples(6, _no_iteration(K6_TRIPLES)), lambda: format_triples(6, K6_TRIPLES)),
], ids=["Graph", "from_edges", "validate_twograph", "TwoGraph", "format_triples"])
def test_edge_and_triple_arrays_are_never_iterated_row_by_row(build, want):
    assert build() == want()


def test_ground_and_all_positive():
    sg = SignedGraph.from_edges(4, [(0, 1, -1), (2, 3, 1)])
    g = ground(sg)
    assert g.sorted_edges() == [(0, 1), (2, 3)]
    assert ground(SignedGraph.all_positive(g)) == g


def test_star_layout(rng):
    c = SignedMatrix([[1, -1], [0, 1]])
    sg = star(c)
    assert sg.n == 4
    a = sg.matrix.data
    assert np.array_equal(a[:2, 2:], c.data)
    assert np.array_equal(a[2:, :2], c.data.T)
    assert not a[:2, :2].any() and not a[2:, 2:].any()
    with pytest.raises(ValueError, match="square"):
        star(SignedMatrix([[1, 0, 1], [0, 1, 1]]))
    # C^t is written one column strip at a time: orders around the strip height, and
    # at 256 and 257 a last strip of 32 rows and one of a single row
    for n in (_STAR_STRIP_ROWS - 1, _STAR_STRIP_ROWS, _STAR_STRIP_ROWS + 1,
              2 * _STAR_STRIP_ROWS + 1, 256, 257):
        c = rng.integers(-1, 2, size=(n, n), dtype=np.int8)
        zero = np.zeros_like(c)
        assert np.array_equal(star(SignedMatrix(c)).matrix.data, np.block([[zero, c], [c.T, zero]]))


SYMMETRY_ORDERS = [1, 2, 255, 256, 257, 513, 4096]


def symmetry_breaks(n: int) -> list[tuple[int, int]]:
    """Entries (i, j), i <= j, in a diagonal tile, in off-diagonal tiles (one
    across the first tile border) and in the last partial tile."""
    last = n - 1
    pairs = {(0, min(1, last)), (0, last), (max(last - 1, 0), last), (last, last)}
    if n > PANEL_ROWS:
        pairs.add((PANEL_ROWS - 1, PANEL_ROWS))
    return sorted(pairs)


def changed(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """A copy of a trit array with entry (i, j) moved to another trit."""
    b = a.copy()
    b[i, j] = (b[i, j] + 2) % 3 - 1
    return b


@pytest.mark.parametrize("n", SYMMETRY_ORDERS)
def test_tiled_symmetry_check_matches_array_equal(n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.integers(-1, 2, size=(n, n), dtype=np.int8), 1)
    breaks = [p for i, j in symmetry_breaks(n) for p in ((i, j), (j, i))]
    # at order 4096 each array_equal oracle call takes ~0.15 s: sign +1 and one
    # break in the last tile; order 513 covers every tile position
    if n == 4096:
        breaks = [(n - 1, n - 2)]
    for sign in (1, -1) if n < 4096 else (1,):
        base = upper + sign * upper.T
        cases = [base] + [changed(base, *p) for p in breaks]
        for a in cases:
            assert _is_symmetric(a, sign) == np.array_equal(a, a.T if sign == 1 else -a.T)
        assert _is_symmetric(base, sign)
        assert n == 1 or not _is_symmetric(changed(base, n - 1, 0), sign)


def test_float_symmetry_is_checked_by_tiles():
    n = 257
    x = np.random.default_rng(n).standard_normal((n, n))
    f = x + x.T
    assert eigenvalues_symmetric(f).order == n
    for i, j in symmetry_breaks(n):
        bad = f.copy()
        bad[i, j] += 2.0**-30
        assert _is_symmetric(bad) == (i == j) == np.array_equal(bad, bad.T)
        if i != j:
            with pytest.raises(ValueError, match="^matrix is not symmetric$"):
                eigenvalues_symmetric(bad)


def test_symmetry_errors_keep_their_messages():
    """Each check sees one broken pair in the last partial tile of order 258."""
    n = 258
    rotations = kronecker(SignedMatrix.identity(n // 2), SignedMatrix([[0, 1], [-1, 0]]))
    assert shift_antisymmetric(rotations)[1].alpha == 2
    bad = rotations.data.copy()
    bad[n - 1, n - 2] = 1
    with pytest.raises(ValueError, match="^input must be an antisymmetric square matrix$"):
        shift_antisymmetric(SignedMatrix(bad))
    # a 3-cycle on the last three indices: orthogonal, symmetric outside the last tile
    cycle = np.eye(n, dtype=np.int8)
    cycle[n - 3 :, n - 3 :] = np.roll(np.eye(3, dtype=np.int8), 1, axis=1)
    assert is_orthogonal(SignedMatrix(cycle)).alpha == 1
    with pytest.raises(ValueError, match="^input must be a symmetric square matrix$"):
        double(SignedMatrix(cycle))
    with pytest.raises(ValueError, match="^preset 'all-c' requires a symmetric matrix$"):
        williamson_preset(SignedMatrix(cycle), "all-c")
    with pytest.raises(ValueError, match="^matrix is not symmetric$"):
        eigenvalues_symmetric(cycle)
    adjacency = cycle - np.eye(n, dtype=np.int8)
    with pytest.raises(ValueError, match="^adjacency matrix must be symmetric$"):
        SignedGraph(adjacency)
    with pytest.raises(ValueError, match="^adjacency matrix must be symmetric$"):
        Graph.from_adjacency(np.abs(adjacency))


@pytest.mark.parametrize("dtype", [np.int8, np.uint64, np.int64, bool, np.float64, object])
def test_graph_from_adjacency_checks_entries_and_copies(dtype):
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=dtype)
    g = Graph.from_adjacency(a)
    assert g == Graph.path(3)
    assert not np.shares_memory(g.adjacency(), a) and a.flags.writeable
    bad = a.copy()
    bad[0, 2] = bad[2, 0] = 2 if dtype is not bool else 1
    if dtype is bool:
        bad[0, 0] = True
        with pytest.raises(ValueError, match="diagonal"):
            Graph.from_adjacency(bad)
    else:
        with pytest.raises(ValueError, match="^graph adjacency entries must be 0 or 1$"):
            Graph.from_adjacency(bad)
    assert Graph.from_adjacency(np.zeros((0, 0), dtype=dtype)).n == 0


def test_is_orthogonal():
    assert is_orthogonal(SignedMatrix([[1, 1], [1, -1]])).alpha == 2
    assert is_orthogonal(SignedMatrix([[0, 1], [-1, 0]])).alpha == 1
    assert is_orthogonal(SignedMatrix([[1, 1], [1, 1]])) is None
    assert is_orthogonal(SignedMatrix([[0, 0], [0, 0]])) is None
    # rows orthonormal but a zero first row is not certifiable
    assert is_orthogonal(SignedMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])).alpha == 1
    with pytest.raises(ValueError, match="square"):
        is_orthogonal(SignedMatrix([[1, 0]]))


def test_is_orthogonal_rejects_oblique_rows():
    # constant row norms are not enough: rows 1 and 4 overlap
    m = SignedMatrix([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 1, 0, -1]])
    assert is_orthogonal(m) is None


def test_resign_flips_one_vertex(k6_signing):
    flipped = resign(k6_signing, 2)
    a, b = k6_signing.matrix.data, flipped.matrix.data
    for u in range(6):
        for v in range(6):
            want = -a[u, v] if (u == 2) != (v == 2) else a[u, v]
            assert b[u, v] == want
    assert resign(flipped, 2) == k6_signing
    with pytest.raises(ValueError, match="out of range"):
        resign(k6_signing, 6)


def test_switching_canonical_normalizes_forest(rng):
    for _ in range(25):
        sg = random_signed_graph(rng, int(rng.integers(2, 9)))
        canon = switching_canonical(sg)
        a = canon.matrix.data
        assert all(a[u, v] == 1 for u, v in _bfs_forest(ground(sg)))
        assert switching_canonical(canon) == canon


def test_switching_canonical_is_class_invariant(rng):
    for _ in range(25):
        sg = random_signed_graph(rng, int(rng.integers(2, 9)))
        resigned = sg
        for _ in range(8):
            resigned = resign(resigned, int(rng.integers(sg.n)))
        assert switching_canonical(resigned) == switching_canonical(sg)
        assert switching_equivalent(sg, resigned)


def test_switching_equivalent_distinguishes_classes():
    c4 = Graph.cycle(4)
    plus = SignedGraph.all_positive(c4)
    minus = SignedGraph.from_edges(4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert not switching_equivalent(plus, minus)
    with pytest.raises(ValueError, match="mismatch"):
        switching_equivalent(plus, SignedGraph.all_positive(Graph.cycle(5)))


def test_count_switching_classes_formula():
    assert count_switching_classes(Graph.path(3)) == 1
    assert count_switching_classes(Graph.cycle(4)) == 2
    assert count_switching_classes(Graph.complete(4)) == 8
    two_triangles = disjoint_union(Graph.complete(3), Graph.complete(3))
    assert count_switching_classes(two_triangles) == 4


def test_enumerate_switching_classes_matches_formula():
    for g in [
        Graph.path(3),
        Graph.cycle(4),
        Graph.complete(4),
        Graph.complete_bipartite(2, 3),
        disjoint_union(Graph.complete(3), Graph.complete(3)),
    ]:
        reps = enumerate_switching_classes(g)
        assert len(reps) == count_switching_classes(g)
        # representatives are canonical and pairwise inequivalent
        for r in reps:
            assert switching_canonical(r) == r
        for a, b in itertools.combinations(reps, 2):
            assert not switching_equivalent(a, b)


def _all_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        yield Graph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def _random_graph(rng, n: int, max_edges: int, isolated: int) -> Graph:
    """A random graph on n vertices and at most max_edges edges, with `isolated` more
    vertices that no edge touches, all labels shuffled."""
    pairs = list(itertools.combinations(range(n), 2))
    m = int(rng.integers(0, min(len(pairs), max_edges) + 1))
    label = rng.permutation(n + isolated)
    return Graph(n + isolated, [(label[pairs[k][0]], label[pairs[k][1]])
                                for k in rng.choice(len(pairs), size=m, replace=False)])


def test_enumerate_switching_classes_matches_the_per_signature_oracle(rng):
    """The same representatives, in the same order, as the walk one signature at a time:
    on every labelled graph on 1 to 5 vertices and on random graphs of up to 9 vertices
    and 16 edges, isolated vertices included."""
    graphs = [g for n in range(1, 6) for g in _all_graphs(n)]
    graphs += [_random_graph(rng, int(rng.integers(1, 8)), 16, int(rng.integers(0, 3)))
               for _ in range(24)]
    graphs += [_random_graph(rng, 9, 16, 0), Graph(9, list(itertools.combinations(range(6), 2))
                                                   + [(6, 7)])]
    assert max(g.m for g in graphs) == 16
    for g in graphs:
        iu, iv = np.nonzero(np.triu(g.adjacency(), 1))
        reps = [tuple(rep.matrix.data[iu, iv].tolist()) for rep in enumerate_switching_classes(g)]
        assert reps == enumerate_switching_classes_oracle(g), g


@pytest.mark.parametrize("g", [
    Graph(40, [(2 * i, 2 * i + 1) for i in range(20)]),
    Graph.path(21),
    Graph(9, list(itertools.combinations(range(7), 2))[:19] + [(7, 8)]),
], ids=["matching", "path", "nine-vertices"])
def test_enumerate_switching_classes_at_the_edge_limit(g):
    """At m = MAX_ENUM_EDGES = 20 the walk of all 2^20 signatures gives 2^(m - n + c)
    canonical representatives and allocates at most 64 MB at its peak."""
    assert g.m == MAX_ENUM_EDGES
    tracemalloc.start()
    try:
        reps = enumerate_switching_classes(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reps) == 2 ** (g.m - g.n + len(g.components()))
    assert peak <= 64 * 2**20, peak
    for rep in reps[:3] + reps[-3:]:
        assert ground(rep) == g and switching_canonical(rep) == rep


def test_enumerate_switching_classes_guard():
    with pytest.raises(ValueError, match="too many edges"):
        enumerate_switching_classes(Graph.complete(7))


def test_is_regular():
    assert is_regular(Graph.complete(4)) == 3
    assert is_regular(petersen()) == 3
    assert is_regular(Graph.path(3)) is None
    assert is_regular(Graph(3)) == 0
    assert is_regular(Graph(0)) is None


@pytest.mark.parametrize("n", [255, 256, 257])
def test_is_regular_where_the_degree_accumulator_widens(n):
    """Degrees are summed in np.min_scalar_type(n): uint8 up to n = 255, uint16 from 256.
    Cycles and paths on either side agree with int64 row sums."""
    for g in (Graph.cycle(n), Graph.path(n)):
        degrees = g.adjacency().sum(axis=1, dtype=np.int64)
        want = int(degrees[0]) if (degrees == degrees[0]).all() else None
        assert is_regular(g) == want
    assert is_regular(Graph.cycle(n)) == 2 and is_regular(Graph.path(n)) is None


def test_is_regular_of_a_star_past_uint8():
    """K_{1,257}: the centre's degree 257 is 1 modulo 256, the leaves' degree, so a
    uint8 accumulator would call the star 1-regular."""
    g = Graph.complete_bipartite(1, 257)
    assert g.adjacency()[0].sum(dtype=np.uint8) == 1
    assert is_regular(g) is None


def _widened_reductions(source: str) -> list[str]:
    """The calls in source that reduce along an axis at numpy's default width: a sum,
    reduce or reduceat given an axis (by keyword or position) but no dtype=, and a
    count_nonzero given an axis. functools.reduce and the builtin sum take no axis."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name, owner = node.func.attr, node.func.value
        keywords = {k.arg for k in node.keywords}
        on_module = isinstance(owner, ast.Name) and owner.id in ("np", "numpy")
        if name == "sum":
            axis_at = 1 if on_module else 0
        elif name in ("reduce", "reduceat") and isinstance(owner, ast.Attribute):
            axis_at = 1 if name == "reduce" else 2
        elif name == "count_nonzero":
            axis_at = 1
        else:
            continue
        has_axis = "axis" in keywords or len(node.args) > axis_at
        if has_axis and (name == "count_nonzero" or "dtype" not in keywords):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def _block_calls(source: str) -> list[str]:
    """The np.block calls in source, by attribute (np.block, numpy.block) or bare name."""
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and "block" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_no_source_builds_an_array_with_np_block():
    """Block arrays are written into one preallocated int8 array or concatenated:
    np.block's depth checks and dispatch took 15.5 us on four 6 x 6 blocks, where
    np.concatenate took 5.4 us. The detector finds both spellings of the call."""
    assert _block_calls("np.block([[a, b]])") and _block_calls("block([[a]])")
    assert not _block_calls("np.concatenate((a, b))") and not _block_calls("x = np.block")
    found = {path.name: _block_calls(path.read_text())
             for path in sorted(Path(twoeig.__file__).parent.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_widened_reduction_detector():
    flagged = ["a.sum(axis=1)", "a.sum(1)", "np.sum(a, 0)", "np.add.reduce(a, axis=0)",
               "np.add.reduce(a, 1)", "np.add.reduceat(a, i, 1)", "np.count_nonzero(a, axis=1)",
               "np.count_nonzero(a, 1)", "np.count_nonzero(a, axis=1, keepdims=True)"]
    passed = ["a.sum()", "a.sum(axis=1, dtype=np.uint16)", "np.sum(a, 0, dtype=np.int64)",
              "np.add.reduceat(a, i, dtype=np.uint32)", "np.count_nonzero(a)", "sum(a, 1)",
              "functools.reduce(f, xs, 0)"]
    for line in flagged:
        assert _widened_reductions(line), line
    for line in passed:
        assert not _widened_reductions(line), line


def test_no_source_reduces_along_an_axis_at_default_width():
    """Every sum, reduce or reduceat along an axis names its accumulator dtype, and no
    count_nonzero takes an axis: numpy's defaults widen an int8 reduction to int64 or
    intp (is_regular took 1.9 ms at order 2048 in int64, 0.38 ms in uint16)."""
    found = {path.name: _widened_reductions(path.read_text())
             for path in sorted(Path(twoeig.__file__).parent.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}
