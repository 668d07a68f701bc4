import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import twoeig
from twoeig import (
    Graph,
    SignedGraph,
    SignedMatrix,
    Spectrum,
    bipartite_two_eig_check,
    certify_two_eigenvalues,
    degree_from_certificate,
    eigenvalues_symmetric,
    ground,
    is_regular,
    paley_conference,
    resign,
    spectrum_union,
    star,
    sylvester_hadamard,
)
from twoeig.core import _bfs_forest, _star_half

from conftest import bipartite_bfs_oracle, random_signed_graph, traced_peak, wide

SQRT2 = math.sqrt(2)
SQRT5 = math.sqrt(5)


def test_spectrum_grouping_and_order():
    s = Spectrum.from_values([1.0, 1.0 + 1e-9, -2.0, 0.5])
    assert len(s.pairs) == 3
    assert [m for _, m in s.pairs] == [2, 1, 1]
    assert s.pairs[0][0] == pytest.approx(1.0, abs=1e-9)
    assert s.order == 4
    values = s.expand()
    assert len(values) == 4
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_spectrum_invariants():
    with pytest.raises(ValueError, match="descending"):
        Spectrum(((1.0, 1), (2.0, 1)))
    with pytest.raises(ValueError, match="positive"):
        Spectrum(((1.0, 0),))
    with pytest.raises(ValueError, match="at least one"):
        Spectrum.from_values([])
    # a NaN compares false with every value, so grouping would merge 1.0 into {nan: 2}
    for values in ([1.0, math.nan], [math.inf, 1.0], [-math.inf]):
        with pytest.raises(ValueError, match="is not finite"):
            Spectrum.from_values(values)
    with pytest.raises(ValueError, match="nan is not finite"):
        Spectrum(((math.nan, 1),))


def test_spectrum_close_to():
    s = Spectrum.from_values([2.0000001, 2.0000002, -1.0])
    assert s.close_to([(2, 2), (-1, 1)], tol=1e-6)
    assert not s.close_to([(2, 1), (-1, 2)], tol=1e-6)
    assert not s.close_to([(2, 2)], tol=1e-6)


def test_spectrum_union_examples():
    a = Spectrum.from_values([2.0])
    b = Spectrum.from_values([-2.0])
    assert spectrum_union(a, b).pairs == ((2.0, 1), (-2.0, 1))
    assert spectrum_union(
        Spectrum(((1.0, 2),)), Spectrum(((1.0, 3),))
    ).pairs == ((1.0, 5),)
    k22 = eigenvalues_symmetric(Graph.complete_bipartite(2, 2))
    sh2 = eigenvalues_symmetric(star(sylvester_hadamard(1)))
    union = spectrum_union(k22, sh2)
    assert union.close_to([(2, 1), (SQRT2, 2), (0, 2), (-SQRT2, 2), (-2, 1)])


def test_eigenvalues_zero_and_complete():
    assert eigenvalues_symmetric(np.zeros((3, 3))).pairs == ((0.0, 3),)
    assert eigenvalues_symmetric(Graph.complete(6)).close_to([(5, 1), (-1, 5)])


def test_eigenvalues_match_reference_solver(rng):
    """Grouped eigenvalues expand to numpy's eigvalsh on random symmetric integer matrices."""
    for _ in range(40):
        n = int(rng.integers(1, 13))
        a = rng.integers(-3, 4, size=(n, n))
        a = a + a.T
        ours = eigenvalues_symmetric(a, tol=1e-10).expand()
        ref = np.linalg.eigvalsh(a.astype(np.float64))[::-1]
        assert np.allclose(sorted(ours), sorted(ref), atol=1e-9)


def test_eigenvalue_sums_match_trace_and_frobenius(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        sg = random_signed_graph(rng, n)
        eigs = np.array(eigenvalues_symmetric(sg, tol=1e-10).expand())
        a = wide(sg.matrix)
        assert abs(eigs.sum() - a.trace()) <= 1e-9
        assert abs((eigs**2).sum() - (a**2).sum()) <= 1e-6


def test_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigenvalues_symmetric([[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="square"):
        eigenvalues_symmetric([[0, 1, 0], [1, 0, 1]])
    with pytest.raises(ValueError, match="finite"):
        eigenvalues_symmetric([[0, np.inf], [np.inf, 0]])


def test_eigenvalues_refuse_orders_above_4096_before_any_copy(count_eigvalsh):
    """An order-4097 matrix is refused before its float64 copy (134 MB) or eigvalsh;
    order 4096 is the largest solved, and only a certificate decides larger ones."""
    a = np.zeros((4097, 4097), dtype=np.int8)
    for m in (a, SignedGraph._trusted(a)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^order 4097 is above 4096, the largest that "
                               "eigvalsh solves; .* certificate route"):
                eigenvalues_symmetric(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    assert count_eigvalsh == []
    with pytest.raises(ValueError, match="square"):
        eigenvalues_symmetric(np.zeros((4097, 3)))


def test_eigenvalues_refuse_a_non_square_input_before_any_copy():
    """A 1 x 3,000,000 matrix and a 2 x 1000 x 1000 array are refused by their shape
    before any float64 copy, which would take 24 MB and 16 MB."""
    for m in (SignedMatrix(np.ones((1, 3_000_000), dtype=np.int8)),
              np.zeros((2, 1000, 1000), dtype=np.int8)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^matrix must be square, got shape \("):
                eigenvalues_symmetric(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_eigenvalues_refuse_a_non_symmetric_input_before_its_float64_copy():
    """An order-2048 signed matrix whose one asymmetric pair lies in the last tile is
    refused on its int8 array, every tile compared, before the 32 MB float64 copy."""
    a = np.ones((2048, 2048), dtype=np.int8)
    a[2047, 2046] = -1
    m = SignedMatrix(a)

    def refused():
        with pytest.raises(ValueError, match="^matrix is not symmetric$"):
            eigenvalues_symmetric(m)

    assert traced_peak(refused) < 2**20


def test_spectrum_text_has_no_signed_zero():
    from twoeig.cli import _render

    s = Spectrum.from_values([-1e-17, 1, -1])
    assert str(s) == "{1.000000: 1, 0.000000: 1, -1.000000: 1}"
    assert _render(s)[0] == str(s)


def test_certificate_spectrum_groups_at_tol(k6_signing):
    cert = certify_two_eigenvalues(k6_signing)
    assert cert.spectrum().pairs == ((cert.lam, 3), (cert.mu, 3))
    assert cert.spectrum(tol=5.0).pairs == ((0.0, 6),)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        cert.spectrum(tol=-1.0)


def test_certify_k6_signing(k6_signing):
    cert = certify_two_eigenvalues(k6_signing)
    assert (cert.a, cert.b) == (0, -5)
    assert cert.lam == pytest.approx(SQRT5, abs=1e-12)
    assert (cert.mult_lam, cert.mult_mu) == (3, 3)
    a = wide(k6_signing.matrix)
    assert np.array_equal(a @ a, 5 * np.eye(6, dtype=np.int64))
    assert degree_from_certificate(cert) == 5
    assert cert.spectrum().close_to([(SQRT5, 3), (-SQRT5, 3)])


def test_certify_integer_roots_branch():
    """All-positive K6 satisfies A^2 - 4A - 5I = 0 with integer roots 5 and -1."""
    sg = SignedGraph.all_positive(Graph.complete(6))
    cert = certify_two_eigenvalues(sg)
    assert (cert.a, cert.b) == (-4, -5)
    assert (cert.lam, cert.mu) == (5.0, -1.0)
    assert (cert.mult_lam, cert.mult_mu) == (1, 5)
    assert degree_from_certificate(cert) == 5


def test_certify_star_h2():
    cert = certify_two_eigenvalues(star(sylvester_hadamard(1)))
    assert (cert.a, cert.b) == (0, -2)
    assert (cert.mult_lam, cert.mult_mu) == (2, 2)
    assert degree_from_certificate(cert) == 2


def test_certify_absent_and_errors():
    assert certify_two_eigenvalues(SignedGraph.all_positive(Graph.path(3))) is None
    assert certify_two_eigenvalues(SignedGraph.all_positive(Graph.cycle(5))) is None
    with pytest.raises(ValueError, match="no edges"):
        certify_two_eigenvalues(SignedGraph(np.zeros((3, 3), dtype=np.int8)))


def test_certificate_matches_numeric_spectrum(k6_signing):
    for sg in [k6_signing, star(paley_conference(5)), star(sylvester_hadamard(2))]:
        cert = certify_two_eigenvalues(sg)
        assert cert is not None
        assert eigenvalues_symmetric(sg).close_to(cert.spectrum().pairs)
        assert is_regular(ground(sg)) == degree_from_certificate(cert)


def test_certificate_survives_resigning(k6_signing, rng):
    sg = k6_signing
    for _ in range(10):
        sg = resign(sg, int(rng.integers(6)))
    cert = certify_two_eigenvalues(sg)
    assert (cert.a, cert.b) == (0, -5)


def test_bipartite_check_examples():
    assert bipartite_two_eig_check(star(sylvester_hadamard(2))).alpha == 4
    assert bipartite_two_eig_check(star(paley_conference(5))).alpha == 5
    assert bipartite_two_eig_check(SignedGraph.all_positive(Graph.cycle(6))) is None
    with pytest.raises(ValueError, match="not bipartite"):
        bipartite_two_eig_check(SignedGraph.all_positive(Graph.cycle(5)))
    star3 = SignedGraph.all_positive(Graph.complete_bipartite(1, 3))
    assert bipartite_two_eig_check(star3) is None


def test_bipartite_check_agrees_with_certify(rng):
    """Block orthogonality and the quadratic certificate give the same verdict."""
    trials = 0
    while trials < 40:
        n = int(rng.integers(1, 5))
        block = rng.choice((-1, 0, 1), size=(n, n)).astype(np.int8)
        if not (block.any(axis=0).all() and block.any(axis=1).all()):
            continue
        trials += 1
        sg = star(SignedMatrix(block))
        cert_block = bipartite_two_eig_check(sg)
        cert_quad = certify_two_eigenvalues(sg)
        assert (cert_block is None) == (cert_quad is None)
        if cert_block is not None:
            assert cert_block.alpha == -cert_quad.b


def test_bipartite_check_matches_eigvalsh_on_every_small_graph():
    """Every signed graph on 2 to 5 vertices with a bipartite ground graph: the block
    certificate exists iff eigvalsh finds exactly two distinct eigenvalues, and an
    unbalanced bipartition (K_{1,3}, a path, an isolated vertex) gives None."""
    unbalanced = 0
    for n in range(2, 6):
        iu = np.triu_indices(n, 1)
        for support in itertools.product((0, 1), repeat=len(iu[0])):
            ground_adj = np.zeros((n, n), dtype=np.int8)
            ground_adj[iu] = support
            parts = Graph.from_adjacency(ground_adj + ground_adj.T).bipartition()
            if parts is None:
                continue
            unbalanced += len(parts[0]) != len(parts[1])
            where = np.flatnonzero(support)
            signings = np.zeros((2 ** where.size, n, n), dtype=np.int8)
            for k, signs in enumerate(itertools.product((1, -1), repeat=where.size)):
                signings[k][iu[0][where], iu[1][where]] = signs
            signings += signings.transpose(0, 2, 1)
            eigs = np.linalg.eigvalsh(signings.astype(np.float64))
            distinct = (np.diff(eigs, axis=1) > 1e-6).sum(axis=1) + 1
            for a, count in zip(signings, distinct):
                cert = bipartite_two_eig_check(SignedGraph(a))
                assert (cert is not None) == (count == 2), a
    assert unbalanced > 0


def alpha_of(sg: SignedGraph) -> int | None:
    cert = bipartite_two_eig_check(sg)
    return None if cert is None else cert.alpha


def bipartite_grounds(n: int):
    """Every bipartite graph on n vertices: each subset of the cross pairs of each 2-coloring."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for colors in itertools.product((0, 1), repeat=n - 1):
        side = (0, *colors)
        cross = [k for k, (u, v) in enumerate(pairs) if side[u] != side[v]]
        for chosen in itertools.product((0, 1), repeat=len(cross)):
            key = frozenset(k for k, bit in zip(cross, chosen) if bit)
            if key not in seen:
                seen.add(key)
                yield Graph(n, [pairs[k] for k in sorted(key)])


def _side_counts(g: Graph) -> list[tuple[int, int]]:
    """The two color class sizes of each component of g, by a walk over its edge list."""
    nbrs = {v: [] for v in range(g.n)}
    for u, v in g.sorted_edges():
        nbrs[u].append(v)
        nbrs[v].append(u)
    color, counts = {}, []
    for root in range(g.n):
        if root not in color:
            color[root], todo, sizes = 0, [root], [0, 0]
            while todo:
                u = todo.pop()
                sizes[color[u]] += 1
                for v in nbrs[u]:
                    if v not in color:
                        color[v] = 1 - color[u]
                        todo.append(v)
            counts.append(tuple(sizes))
    return counts


def test_bipartition_sides_differ_by_at_most_one_components_difference():
    """Every bipartite graph on up to 6 vertices: Graph.bipartition is a 2-coloring whose
    sides differ by at most the largest difference within one component, so they are
    equal whenever every component's are, the property both half routes rely on."""
    for n in range(1, 7):
        for g in bipartite_grounds(n):
            x, y = g.bipartition()
            assert sorted(x + y) == list(range(n))
            assert all((u in x) != (v in x) for u, v in g.sorted_edges())
            gap = max(abs(p - q) for p, q in _side_counts(g))
            assert abs(len(x) - len(y)) <= gap, g
    paths_and_star = Graph(10, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (6, 8), (6, 9)])
    assert sorted(map(len, paths_and_star.bipartition())) == [4, 6]


def test_bipartite_check_matches_the_bfs_route_on_every_5_and_6_vertex_graph():
    """Every bipartite ground graph on 5 and 6 vertices and every switching class on it
    (forest edges positive, any sign on the rest; both routes' verdicts are switching
    invariant). The 2^9 grounds inside the 3 + 3 split have both diagonal half-blocks
    zero; _star_half finds a half exactly on those and on the grounds whose BFS
    bipartition is balanced (the split can hold a ground whose BFS sides are 4 and 2,
    such as the star at vertex 2 over 3, 4, 5); each verdict must equal the BFS-route
    oracle's."""
    split_grounds = 0
    for n, count in ((5, 376), (6, 5177)):
        grounds = list(bipartite_grounds(n))
        assert len(grounds) == count
        for g in grounds:
            a, h = g.adjacency(), n // 2
            split = n == 2 * h and not (a[:h, :h].any() or a[h:, h:].any())
            x, y = g.bipartition()
            assert (_star_half(SignedGraph(a)) is not None) == (split or len(x) == len(y)), g
            split_grounds += split
            forest = {tuple(sorted(e)) for e in _bfs_forest(g)}
            free = np.array([e for e in g.sorted_edges() if e not in forest], dtype=int)
            signings = np.repeat(g.adjacency()[None], 2 ** len(free), axis=0)
            if len(free):
                signs = np.array(list(itertools.product((1, -1), repeat=len(free))), np.int8)
                signings[:, free[:, 0], free[:, 1]] = signings[:, free[:, 1], free[:, 0]] = signs
            want = bipartite_bfs_oracle(signings)
            assert [alpha_of(SignedGraph(a)) for a in signings] == want, g
    assert split_grounds == 2**9


def test_bipartite_check_matches_the_bfs_route_on_permuted_stars(rng):
    """Stars with their vertices permuted: a random order mixes the halves (BFS route),
    and swapping the two sides of one block of a block-diagonal C keeps both diagonal
    half-blocks zero with a split that is not the star's own bipartition."""
    blocks = [sylvester_hadamard(1).data, sylvester_hadamard(2).data, paley_conference(5).data,
              np.eye(3, dtype=np.int8), np.array([[1, 1], [1, 1]], dtype=np.int8)]
    blocks += [rng.integers(-1, 2, size=(k, k), dtype=np.int8) for k in (1, 2, 3, 4, 5)]
    for c1, c2 in itertools.product(blocks, repeat=2):
        n1, n2 = len(c1), len(c2)
        c = np.block([[c1, np.zeros((n1, n2), dtype=np.int8)],
                      [np.zeros((n2, n1), dtype=np.int8), c2]])
        a = star(SignedMatrix(c)).matrix.data
        n = n1 + n2
        side = np.arange(n1, n)  # C2's rows; its columns are the vertices n later
        swap = np.arange(2 * n)
        swap[side], swap[side + n] = side + n, side
        assert _star_half(SignedGraph(a[np.ix_(swap, swap)])) is not None
        for p in (swap, rng.permutation(2 * n)):
            permuted = a[np.ix_(p, p)]
            assert [alpha_of(SignedGraph(permuted))] == bipartite_bfs_oracle(permuted[None]), p
            assert alpha_of(SignedGraph(permuted)) == alpha_of(star(SignedMatrix(c)))


def test_numeric_spectrum_invariant_under_resigning(rng):
    for _ in range(10):
        sg = random_signed_graph(rng, 7)
        resigned = resign(sg, int(rng.integers(7)))
        a = eigenvalues_symmetric(sg, tol=1e-10).expand()
        b = eigenvalues_symmetric(resigned, tol=1e-10).expand()
        assert np.allclose(a, b, atol=1e-9)


def test_only_spectra_solved_builds_a_two_eigenvalue_certificate():
    """Every certified spectrum is derived once: no source file calls TwoEigCertificate(...)
    anywhere but inside spectra._solved."""
    builders = []
    for path in sorted(Path(twoeig.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}
        for node in ast.walk(tree):  # breadth first, so a node's scope is set before its children's
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for child in ast.iter_child_nodes(node):
                scope[child] = getattr(node, "name", "<lambda>") if is_def else scope.get(node)
        builders += [(path.stem, scope.get(node)) for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and "TwoEigCertificate" in (getattr(node.func, "id", None),
                                                 getattr(node.func, "attr", None))]
    assert builders == [("spectra", "_solved")]
