"""Float32 row-panel certificates against independent integer and numeric oracles."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from twoeig import (
    Graph,
    OrthogonalityCertificate,
    SignedGraph,
    SignedMatrix,
    WilliamsonQuadruple,
    bipartite_two_eig_check,
    certify_two_eigenvalues,
    conference_block,
    is_orthogonal,
    paley_conference,
    star,
    sylvester_hadamard,
    williamson,
    williamson_preset,
)
from twoeig import core, spectra
from twoeig.core import FLOAT32_EXACT_BOUND, PANEL_ROWS, _packing, _product_is

from conftest import (
    annihilated_oracle,
    counted_grams,
    full_panel_gram_oracle,
    orthogonal_oracle,
    random_signed_graph,
    traced_peak,
)

EIG_TOL = 1e-6


def distinct_eigenvalue_counts(mats: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvalsh(mats.astype(np.float64))
    return 1 + (np.diff(eigs, axis=-1) > EIG_TOL).sum(axis=-1)


def quadratic_oracle(a: np.ndarray) -> tuple[int, int] | None:
    """(a, b) with A^2 + aA + bI = 0, from a plain int64 square, or None."""
    a = a.astype(np.int64)
    sq = a @ a
    diag = np.diagonal(sq)
    off = sq - np.diag(diag)
    i, j = np.argwhere(a)[0]
    c = int(sq[i, j] * a[i, j])
    if not (diag == diag[0]).all() or not np.array_equal(off, c * a):
        return None
    return -c, -int(diag[0])


def signed_equivalent(rng, c: np.ndarray) -> np.ndarray:
    """D1 P1 C P2 D2 for random signed permutations: orthogonality is kept."""
    n = c.shape[0]
    d1, d2 = rng.choice((-1, 1), size=(2, n))
    p1, p2 = rng.permutation(n), rng.permutation(n)
    return (d1[:, None] * c[p1][:, p2] * d2[None, :]).astype(np.int8)


def test_exhaustive_five_vertex_certificates_match_eigvalsh():
    n = 5
    iu = np.triu_indices(n, 1)
    codes = np.array(list(itertools.product((0, 1, -1), repeat=len(iu[0]))), dtype=np.int8)[1:]
    mats = np.zeros((len(codes), n, n), dtype=np.int8)
    mats[:, iu[0], iu[1]] = codes
    mats += mats.transpose(0, 2, 1)
    two = distinct_eigenvalue_counts(mats) == 2
    certified = np.array([certify_two_eigenvalues(SignedGraph(a)) is not None for a in mats])
    assert len(mats) == 59048
    assert two.sum() == 32
    assert np.array_equal(certified, two)


def test_random_graphs_orders_6_to_12_match_eigvalsh():
    rng = np.random.default_rng(6_12)
    for n in range(6, 13):
        for p in (0.3, 0.6, 1.0):
            for _ in range(20):
                sg = random_signed_graph(rng, n, p)
                cert = certify_two_eigenvalues(sg)
                two = distinct_eigenvalue_counts(sg.matrix.data) == 2
                want = quadratic_oracle(sg.matrix.data)
                assert (cert is not None) == two == (want is not None)
                if cert is not None:
                    assert (cert.a, cert.b) == want


def test_random_stars_match_int64_oracle_on_both_routes():
    rng = np.random.default_rng(20240601)
    orthogonal = [sylvester_hadamard(k).data for k in (1, 2, 3)]
    orthogonal += [paley_conference(q).data for q in (5, 13)]
    orthogonal += [np.eye(n, dtype=np.int8) for n in (1, 3, 7)]
    inputs = [signed_equivalent(rng, c) for c in orthogonal for _ in range(3)]
    for n in range(1, 9):
        for _ in range(6):
            c = rng.integers(-1, 2, size=(n, n)).astype(np.int8)
            if c.any():
                inputs.append(c)
    accepted = 0
    for c in inputs:
        sg = star(SignedMatrix(c))
        want = quadratic_oracle(sg.matrix.data)
        perm = rng.permutation(sg.n)
        mixed = SignedGraph(sg.matrix.data[np.ix_(perm, perm)])
        for g in (sg, mixed):
            cert = certify_two_eigenvalues(g)
            assert (cert is not None) == (want is not None)
            assert (cert is not None) == (distinct_eigenvalue_counts(g.matrix.data) == 2)
            if cert is not None:
                assert (cert.a, cert.b) == want
                assert cert.mult_lam + cert.mult_mu == g.n
        accepted += want is not None
        assert (is_orthogonal(SignedMatrix(c)) is not None) == (want is not None)
    assert accepted >= len(orthogonal) * 3


# just below, at and just above one, two and four panel heights, in steps of 4
# so that every H2 and K4 block below lies inside one panel. Two panels go into
# each product: 4 PANEL_ROWS + {-4, 0, 4} give a partial second pair, two full
# pairs, and two pairs with a lone trailing panel.
PANEL_ORDERS = [k * PANEL_ROWS + d for k in (1, 2, 4) for d in (-4, 0, 4)]


def sparse_gram(x: np.ndarray) -> np.ndarray:
    """x x^t in int64: row i is the sum of x[i, l] x[:, l] over the nonzero entries
    x[i, l], so a row of few nonzeros costs a few vectors and no int64 matmul."""
    w = x.astype(np.int64)
    rows, cols = np.nonzero(w)
    g = np.zeros((len(w), len(w)), dtype=np.int64)
    np.add.at(g, rows, w[rows, cols, None] * w[:, cols].T)
    return g


def h2_blocks(rng, n: int) -> np.ndarray:
    """Block-diagonal 2x2 Hadamard blocks with random row and column signs: alpha = 2."""
    c = np.kron(np.eye(n // 2, dtype=np.int8), np.array([[1, 1], [1, -1]], dtype=np.int8))
    d1, d2 = rng.choice((-1, 1), size=(2, n)).astype(np.int8)
    return d1[:, None] * c * d2[None, :]


def k4_blocks(rng, n: int) -> np.ndarray:
    """Disjoint K4s under a random switching: A^2 - 2A - 3I = 0."""
    a = np.kron(np.eye(n // 4, dtype=np.int8), np.ones((4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8))
    d = rng.choice((-1, 1), size=n).astype(np.int8)
    return d[:, None] * a * d[None, :]


@pytest.mark.parametrize("n", PANEL_ORDERS)
def test_orthogonality_detects_a_flip_in_first_and_last_panel(n):
    rng = np.random.default_rng(n)
    c = h2_blocks(rng, n)
    assert is_orthogonal(SignedMatrix(c)).alpha == 2
    cert = certify_two_eigenvalues(star(SignedMatrix(c)))
    assert (cert.a, cert.b) == (0, -2)
    # each row shares its support only with its block partner, so a flip in
    # row r changes C C^t only inside the rows of r's own panel
    for r in (0, n - 1):
        bad = c.copy()
        bad[r, r] *= -1
        assert is_orthogonal(SignedMatrix(bad)) is None
        assert certify_two_eigenvalues(star(SignedMatrix(bad))) is None


@pytest.mark.parametrize("n", PANEL_ORDERS)
def test_general_route_detects_a_flip_in_first_and_last_panel(n):
    rng = np.random.default_rng(n + 1)
    a = k4_blocks(rng, n)
    cert = certify_two_eigenvalues(SignedGraph(a))
    assert (cert.a, cert.b, cert.mult_lam) == (-2, -3, n // 4)
    # A is block diagonal, so a flipped edge inside one K4 changes A^2 only
    # in the four rows of that K4, all inside one panel
    for u, v in ((0, 1), (n - 2, n - 1)):
        bad = a.copy()
        bad[u, v] *= -1
        bad[v, u] *= -1
        assert distinct_eigenvalue_counts(bad) > 2
        assert certify_two_eigenvalues(SignedGraph(bad)) is None


@pytest.mark.parametrize("n", PANEL_ORDERS)
def test_half_products_agree_with_the_full_panel_oracle(n):
    """One flip in the first, a middle and the last panel, on both Gram routes and on
    both of the kernel's column ranges, against an int64 oracle."""
    rng = np.random.default_rng(n + 2)
    mid = n // 2 - n // 2 % 4
    c = h2_blocks(rng, n)
    a = k4_blocks(rng, n)
    flips = [c] + [c.copy() for _ in range(3)]
    edges = [a] + [a.copy() for _ in range(3)]
    for k, (r, (u, v)) in enumerate(zip((0, mid, n - 1), ((0, 1), (mid, mid + 1), (n - 2, n - 1))), 1):
        flips[k][r, r] *= -1
        edges[k][u, v] *= -1
        edges[k][v, u] *= -1
    for x in flips:
        assert (is_orthogonal(SignedMatrix(x)) is not None) == orthogonal_oracle(x)
    for x in edges:
        assert (certify_two_eigenvalues(SignedGraph(x)) is not None) == annihilated_oracle(x)
    assert orthogonal_oracle(c) and annihilated_oracle(a)
    assert not any(map(orthogonal_oracle, flips[1:])) and not any(map(annihilated_oracle, edges[1:]))
    # the kernel's two column ranges, the Gram trapezoid and the full product, on the
    # targets 2I and 2A + 3I
    for xs, shift, scale in ((flips, 2, 0), (edges, 3, 2)):
        for x in xs:
            want = np.array_equal(sparse_gram(x), scale * x + shift * np.eye(n, dtype=np.int64))
            assert _product_is(x, None, shift, scale) is _product_is(x, x.T, shift, scale) is want


@pytest.mark.parametrize("n", PANEL_ORDERS)
def test_is_orthogonal_sees_a_defect_on_or_off_the_diagonal_tiles(n):
    """C C^t = I except a 0 at (n - 1, n - 1), inside the last panel's diagonal
    tile; and I with row n - 1 set to e_0, where C C^t = I except a 1 at
    (0, n - 1) and (n - 1, 0), outside every diagonal tile once n > PANEL_ROWS."""
    on = np.eye(n, dtype=np.int8)
    on[n - 1, n - 1] = 0
    off = np.eye(n, dtype=np.int8)[np.r_[: n - 1, 0]]
    for c in (on, off):
        assert not orthogonal_oracle(c)
        assert is_orthogonal(SignedMatrix(c)) is None


@pytest.mark.parametrize("n", PANEL_ORDERS + [m + 1 for m in PANEL_ORDERS])
def test_dense_certificate_sees_a_defect_on_the_diagonal_only(n):
    """A signed perfect matching on the first 2 floor((n - 1) / 2) vertices; the
    one (n odd) or two (n even) vertices left are isolated and lie in the last
    panel. A^2 = I except a 0 at each isolated vertex, inside the diagonal tile.
    With n odd the +-1 multiplicities cannot balance either, so only n even
    needs the product to see the defect."""
    m = 2 * ((n - 1) // 2)
    signs = np.random.default_rng(n).choice((-1, 1), size=m // 2).astype(np.int8)
    a = np.zeros((n, n), dtype=np.int8)
    a[np.arange(0, m, 2), np.arange(1, m, 2)] = signs
    a[np.arange(1, m, 2), np.arange(0, m, 2)] = signs
    assert a[: n // 2, : n // 2].any()
    assert not annihilated_oracle(a)
    assert certify_two_eigenvalues(SignedGraph(a)) is None
    if n % 2 == 0:
        # an edge between the two isolated vertices completes the matching: A^2 = I
        a[n - 2, n - 1] = a[n - 1, n - 2] = 1
        assert annihilated_oracle(a)
        assert certify_two_eigenvalues(SignedGraph(a)).b == -1


@pytest.mark.parametrize("n", PANEL_ORDERS)
def test_dense_certificate_sees_a_defect_off_the_diagonal_tiles_only(n):
    """Unbalanced signed 4-cycles, under a random switching, have A^2 = 2I. One
    balanced 4-cycle through 0, 1, n - 1, n - 2 instead makes A^2 = 2I except
    at (0, n - 1) and (1, n - 2) and their mirrors, outside every diagonal
    tile once n > PANEL_ROWS; its diagonal and row 0's (a, b) = (0, -2) are
    those of A^2 = 2I."""
    rng = np.random.default_rng(n + 3)
    cycles = [(0, 1, n - 1, n - 2)] + [tuple(range(v, v + 4)) for v in range(2, n - 2, 4)]
    a = np.zeros((n, n), dtype=np.int8)
    for cycle in cycles:
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            a[u, v] = a[v, u] = 1
        a[cycle[3], cycle[0]] = a[cycle[0], cycle[3]] = -1
    d = rng.choice((-1, 1), size=n).astype(np.int8)
    a = d[:, None] * a * d[None, :]
    assert annihilated_oracle(a)
    cert = certify_two_eigenvalues(SignedGraph(a))
    assert (cert.a, cert.b) == (0, -2)
    # flipping one edge balances the first cycle
    a[0, 1] *= -1
    a[1, 0] *= -1
    # float64 holds every sum of this product (at most n) exactly, and runs in BLAS
    wrong = np.nonzero(a.astype(np.float64) @ a - 2 * np.eye(n))
    assert set(zip(*wrong)) == {(0, n - 1), (n - 1, 0), (1, n - 2), (n - 2, 1)}
    assert not annihilated_oracle(a)
    assert certify_two_eigenvalues(SignedGraph(a)) is None


@pytest.mark.parametrize("n", PANEL_ORDERS)
def test_williamson_checks_see_the_last_panel(n):
    """Blocks I (+) X differ from I only in their last two rows and columns,
    so A_i A_j - A_j A_i and sum A_i^2 - 4I are nonzero only in the last panel."""

    def tail(x) -> SignedMatrix:
        a = np.eye(n, dtype=np.int8)
        a[-2:, -2:] = x
        return SignedMatrix(a)

    swap, flip, rot = tail([[0, 1], [1, 0]]), tail([[1, 0], [0, -1]]), tail([[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="do not commute"):
        WilliamsonQuadruple(swap, swap, swap, flip)
    # rot^2 = -I on the tail, so sum A_i^2 = 4 (I (+) -I)
    assert williamson(WilliamsonQuadruple(*(rot,) * 4)) is None
    # swap^2 = I, so the square sum holds and the array is re-verified with alpha 4
    assert williamson(WilliamsonQuadruple(*(swap,) * 4)) is not None


def test_a_defect_in_the_second_half_of_a_later_pair_is_seen():
    """Order 4 PANEL_ROWS + 4: pairs from rows 0 and 2 PANEL_ROWS, then a lone
    panel. Each defect (i, j) has i in the second half of the second pair and j
    in the lone panel, whose step compares row j only at columns >= 4
    PANEL_ROWS: only the packed second half sees it."""
    n = 4 * PANEL_ROWS + 4
    i, j = 3 * PANEL_ROWS, n - 1
    c = np.eye(n, dtype=np.int8)
    c[j] = c[i]
    assert not orthogonal_oracle(c)
    assert is_orthogonal(SignedMatrix(c)) is None
    assert certify_two_eigenvalues(star(SignedMatrix(c))) is None
    # unbalanced signed 4-cycles have A^2 = 2I; the cycle i, i + 1, j, j - 1 is
    # balanced, so A^2 = 2I except at (i, j) and (i + 1, j - 1) and their mirrors
    rest = [v for v in range(n) if v not in (i, i + 1, j - 1, j)]
    a = np.zeros((n, n), dtype=np.int8)
    for k, cycle in enumerate([(i, i + 1, j, j - 1)] + [tuple(rest[v : v + 4]) for v in range(0, n - 4, 4)]):
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            a[u, v] = a[v, u] = 1
        if k:
            a[cycle[3], cycle[0]] = a[cycle[0], cycle[3]] = -1
    # float64 holds every sum of this product (at most n) exactly, and runs in BLAS
    wrong = np.nonzero(a.astype(np.float64) @ a - 2 * np.eye(n))
    assert set(zip(*wrong)) == {(i, j), (j, i), (i + 1, j - 1), (j - 1, i + 1)}
    assert not annihilated_oracle(a)
    assert certify_two_eigenvalues(SignedGraph(a)) is None
    a[i, i + 1] = a[i + 1, i] = -1
    assert annihilated_oracle(a)
    assert certify_two_eigenvalues(SignedGraph(a)).b == -2


@pytest.mark.parametrize("k", [2895, 2896])
def test_gram_kernel_at_the_packing_bound(k):
    """k(2k + 2) < 2^24 holds up to k = 2895, so 2895 takes one float32 chunk
    per packed product and 2896 two. Rows with disjoint supports of size 5 give
    x x^t = 5I; an antipodal pair of full rows, one in a second half, makes
    partial sums of k(2k + 1) and an inner product of -k."""
    base, kc = _packing(k)
    assert base == 2 * k + 1 and (kc >= k) is (k == 2895)
    n = 2 * PANEL_ROWS + 4
    rng = np.random.default_rng(k)
    x = np.zeros((n, k), dtype=np.int8)
    x[np.arange(n).repeat(5), np.arange(5 * n)] = rng.choice((-1, 1), size=5 * n)
    antipodal = x.copy()
    antipodal[PANEL_ROWS + 1] = rng.choice((-1, 1), size=k)
    antipodal[2 * PANEL_ROWS + 1] = -antipodal[PANEL_ROWS + 1]
    # a sixth entry in row PANEL_ROWS + 3, in the support of row 2 PANEL_ROWS + 2:
    # wrong at (r, r) and (r, 2 PANEL_ROWS + 2), both compared only in the second half
    flipped = x.copy()
    flipped[PANEL_ROWS + 3, 5 * (2 * PANEL_ROWS + 2)] = 1
    for arr, want in ((x, True), (antipodal, False), (flipped, False)):
        assert full_panel_gram_oracle(arr, 5 * np.eye(n)) is want
        assert _product_is(arr, None, 5) is want
    g = antipodal.astype(np.int64) @ antipodal[2 * PANEL_ROWS + 1].astype(np.int64)
    assert g[PANEL_ROWS + 1] == -k and g[2 * PANEL_ROWS + 1] == k


def int64_product(x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """x @ right in int64, one right row per nonzero entry of x: a row of x with few
    nonzeros costs a few vectors, and no int64 matmul runs."""
    out = np.zeros((x.shape[0], right.shape[1]), dtype=np.int64)
    for i, l in zip(*np.nonzero(x)):
        out[i] += int(x[i, l]) * right[l].astype(np.int64)
    return out


def zero_sum_rows(k: int) -> tuple[np.ndarray, np.ndarray]:
    """2 PANEL_ROWS + 4 rows of length k, each with two +1 and two -1 in its own four
    columns, the last row's ending at column k: x x^t = 4I, and x[i, i] = 0 for k > 4n.
    The second: row PANEL_ROWS + 1, in the first pair's second panel, replaced by a
    dense row with zero sum and zero diagonal entry, +1 on its first k // 2 columns and
    -1 on its last, so that its packed sums in column order reach (k // 2 - 1)(2k + 1)."""
    n, h = 2 * PANEL_ROWS + 4, k // 2
    rng = np.random.default_rng(k)
    x = np.zeros((n, k), dtype=np.int8)
    signs = rng.permuted(np.tile(np.array([1, 1, -1, -1], dtype=np.int8), (n, 1)), axis=1)
    x[np.arange(n).repeat(4), np.arange(k - 4 * n, k)] = signs.ravel()
    dense = x.copy()
    row = dense[PANEL_ROWS + 1]
    row[:h], row[h:], row[k - h :] = 1, 0, -1
    row[PANEL_ROWS + 1] = row[k - h] = 0
    return x, dense


@pytest.mark.parametrize("k", [2895, 2896, 4096])
def test_chunked_kernel_matches_an_int64_oracle(k):
    """At k = 2895 each packed product is one float32 chunk, past it two or three chunks
    added in float64. The verdicts of the Gram product (right None), of x @ x^t with
    x^t given, and of x @ (J - 2I) = -2x (scale != 0, as every row sums to 0) equal the
    int64 oracle's, on rows that hold, on a dense row whose packed sums come within
    0.04 % of 2^24 at k = 4096, and with one entry changed in the last inner chunk of
    the last panel pair."""
    base, kc = _packing(k)
    assert (kc >= k) is (k == 2895) and kc * (base + 1) < FLOAT32_EXACT_BOUND
    x, dense = zero_sum_rows(k)
    n = x.shape[0]
    # (2 PANEL_ROWS - 1, k - 1) is in row n - 1's support: wrong at (511, 511) and (511, n - 1)
    flipped, unbalanced = x.copy(), dense.copy()
    flipped[2 * PANEL_ROWS - 1, k - 1] = 1
    unbalanced[PANEL_ROWS + 1, k - 1] *= -1
    for arr, want in ((x, True), (dense, False), (flipped, False)):
        assert np.array_equal(int64_product(arr, arr.T), 4 * np.eye(n, dtype=np.int64)) is want
        assert _product_is(arr, None, 4) is _product_is(arr, arr.T, 4) is want
    spread = np.ones((k, k), dtype=np.int8) - 2 * np.eye(k, dtype=np.int8)
    for arr, want in ((x, True), (dense, True), (unbalanced, False)):
        assert np.array_equal(int64_product(arr, spread), -2 * arr.astype(np.int64)) is want
        assert _product_is(arr, spread, 0, -2) is want


@pytest.mark.parametrize("k", [2895, 2896, 4096])
def test_a_packed_target_past_2_24_is_exact(k):
    """Rows 1 - e_i sum to k - 1, so x @ (-J) = (1 - k) J = (1 - k) x + (1 - k) I: the
    packed target (1 - k)(X_a + B X_b) reaches (k - 1)(2k + 2), past 2^24 at k = 4096,
    where float32 would round it. A zero in the last inner chunk of the last panel pair
    breaks the identity there."""
    n = 2 * PANEL_ROWS + 4
    x = np.ones((n, k), dtype=np.int8) - np.eye(n, k, dtype=np.int8)
    flipped = x.copy()
    flipped[2 * PANEL_ROWS - 1, k - 1] = 0
    minus_j = np.full((k, k), -1, dtype=np.int8)
    for arr, want in ((x, True), (flipped, False)):
        # x @ (-J) in int64: every column is minus the row sums
        product = -arr.sum(axis=1, dtype=np.int64)[:, None] * np.ones(k, dtype=np.int64)
        target = (1 - k) * (arr.astype(np.int64) + np.eye(n, k, dtype=np.int64))
        assert np.array_equal(product, target) is want
        assert _product_is(arr, minus_j, 1 - k, 1 - k) is want


def test_zero_test_rejects_one_flip_in_the_last_panel_pair():
    """At order 1024 the loop takes two packed pairs of panels. x = I_256 (x) H_4 has
    x x^t = 4I; one flipped entry in the last 4 x 4 block, in the last pair's second
    panel, makes nonzeros only in that pair's rows and columns, which only its
    product's zero test can see."""
    assert _packing(1024)[1] >= 1024 and 1024 == 4 * PANEL_ROWS
    x = np.kron(np.eye(256, dtype=np.int8), sylvester_hadamard(2).data)
    flipped = x.copy()
    flipped[1023, 1020] *= -1
    diff = flipped.astype(np.int64) @ flipped.T.astype(np.int64) - 4 * np.eye(1024, dtype=np.int64)
    rows, cols = np.nonzero(diff)
    assert rows.size and rows.min() >= 3 * PANEL_ROWS and cols.min() >= 3 * PANEL_ROWS
    assert _product_is(x, None, 4) and _product_is(x, x.T, 4)
    assert not _product_is(flipped, None, 4) and not _product_is(flipped, flipped.T, 4)


def test_nonsymmetric_orthogonal_matrices_keep_their_alpha():
    block = conference_block(paley_conference(37))
    spun = williamson_preset(block, "nonsymmetric-all-c")
    assert spun.rows > PANEL_ROWS
    for m, alpha in ((block, 2 * 37), (spun, 4 * 2 * 37)):
        assert not np.array_equal(m.data, m.data.T)
        assert is_orthogonal(m).alpha == alpha
        # the unchecked product C^tC = alpha I, by an int64 oracle
        w = m.data.astype(np.int64)
        assert np.array_equal(w.T @ w, alpha * np.eye(m.rows, dtype=np.int64))


def test_product_bound_is_asserted_without_allocating():
    k = FLOAT32_EXACT_BOUND
    left = np.broadcast_to(np.int8(1), (1, k))
    right = np.broadcast_to(np.int8(1), (k, 1))
    assert left.strides == (0, 0) and right.strides == (0, 0)
    with pytest.raises(AssertionError, match="inner dimension"):
        _product_is(left, right, k)


def test_symmetry_validation_peaks_at_a_few_tiles():
    m = star(sylvester_hadamard(11)).matrix
    assert m.rows == 4096
    # an n x n bool temporary would be 16 MB; one tile and its comparison are 128 KB
    assert traced_peak(SignedGraph, m) <= 4 * PANEL_ROWS**2


@pytest.mark.unchecked_trusted
def test_star_writes_one_array_and_checks_nothing(monkeypatch):
    """star's array is valid by construction: it is neither checked nor copied, so the
    order-4096 star of H_11 costs one 16 MB int8 array (the parent checked and copied it,
    a peak of 32 MB)."""
    c = sylvester_hadamard(11)
    calls = []
    for name in ("_check_adjacency", "_entries_within", "_as_trit_array"):
        monkeypatch.setattr(core, name, lambda *args, name=name: calls.append(name))
    tracemalloc.start()
    try:
        sg = star(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert sg.n == 4096 and not sg.matrix.data.flags.writeable
    assert sg.matrix.data.nbytes <= peak <= 1.05 * sg.matrix.data.nbytes


def test_certificate_memory_stays_within_a_few_bytes_per_entry():
    # a fresh matrix, so that the star's certificate forms its Gram product rather
    # than return the one the construction keeps
    sg = star(SignedMatrix(sylvester_hadamard(10).data))
    assert sg.n == 2048
    assert traced_peak(certify_two_eigenvalues, sg) <= 3 * sg.n**2
    sg = SignedGraph(paley_conference(1021))
    assert traced_peak(certify_two_eigenvalues, sg) <= 8 * sg.n**2


def test_chunked_kernel_holds_one_float64_block():
    """Past k = 2895 the kernel holds the float32 copy, one packed panel, one float64
    block of PANEL_ROWS rows and one chunk product, never an n x n array (2.1 MB in
    float64 here). 128 KB more covers y.any()'s 8192-entry cast buffers."""
    x = sylvester_hadamard(12).data[: 2 * PANEL_ROWS + 1]
    n, k = x.shape
    assert _packing(k)[1] < k
    bound = 4 * n * k + 4 * PANEL_ROWS * k + (8 + 4) * PANEL_ROWS * n
    assert traced_peak(_product_is, x, None, k) <= bound + 2**17
    assert _product_is(x, None, k)


def test_order_4096_seidel_matrix_certifies_on_the_chunked_route():
    """S = B^(x)6 - I, B = J - 2P the 4 x 4 matrix with B^2 = 4I (P the anti-identity),
    has S^2 + 2S - 4095 I = 0; one flipped symmetric pair in the last panel pair and
    the last inner chunk breaks it."""
    b = np.ones((4, 4), dtype=np.int8) - 2 * np.fliplr(np.eye(4, dtype=np.int8))
    s = functools.reduce(np.kron, [b] * 6) - np.eye(4096, dtype=np.int8)
    assert certify_two_eigenvalues(SignedGraph(s)) == spectra._solved(4096, 2, -4095)
    s[4094, 4095] *= -1
    s[4095, 4094] *= -1
    assert certify_two_eigenvalues(SignedGraph(s)) is None


# Kept verdicts: is_orthogonal proves a matrix's verdict once and keeps it on the
# object, and a star-shaped graph keeps its half C for both star routes.


def test_a_verdict_is_proven_once_for_a_matrix_and_its_star(monkeypatch):
    c = SignedMatrix(paley_conference(13).data)
    grams = counted_grams(monkeypatch)
    assert is_orthogonal(c) == OrthogonalityCertificate(13) and grams == [14]
    assert is_orthogonal(c) == OrthogonalityCertificate(13) and grams == [14]
    sg = star(c)
    cert = certify_two_eigenvalues(sg)
    assert (cert.a, cert.b, cert.mult_lam, cert.mult_mu) == (0, -13, 14, 14)
    assert bipartite_two_eig_check(sg) == is_orthogonal(c) and grams == [14]
    # a graph with the same entries that star did not build keeps the half its scan finds
    plain = SignedGraph(sg.matrix.data)
    assert certify_two_eigenvalues(plain) == cert and grams == [14, 14]
    assert bipartite_two_eig_check(plain) == is_orthogonal(c) and grams == [14, 14]


def test_a_star_that_star_did_not_build_is_proven_once(monkeypatch):
    plain = SignedGraph(star(paley_conference(13)).matrix.data)
    grams = counted_grams(monkeypatch)
    for _ in range(2):
        cert = certify_two_eigenvalues(plain)
        assert (cert.a, cert.b, cert.mult_lam, cert.mult_mu) == (0, -13, 14, 14)
        assert bipartite_two_eig_check(plain) == OrthogonalityCertificate(13)
    assert grams == [14]


def test_a_permuted_star_keeps_the_half_its_bfs_gathers(monkeypatch):
    """Interleaving the two sides puts edges in both diagonal half-blocks, so the first
    bipartite check gathers C over the BFS bipartition; the certificate takes that C."""
    mixed = np.arange(28).reshape(2, 14).T.ravel()
    a = star(paley_conference(13)).matrix.data
    sg = SignedGraph(a[np.ix_(mixed, mixed)])
    assert sg.matrix.data[:14, :14].any() and sg.matrix.data[14:, 14:].any()
    grams = counted_grams(monkeypatch)
    for _ in range(2):
        assert bipartite_two_eig_check(sg) == OrthogonalityCertificate(13)
        cert = certify_two_eigenvalues(sg)
        assert (cert.a, cert.b, cert.mult_lam, cert.mult_mu) == (0, -13, 14, 14)
    assert grams == [14]
    # a rejected half is kept as well
    bad = a.copy()
    bad[0, 15] = bad[15, 0] = -a[0, 15]
    sg = SignedGraph(bad[np.ix_(mixed, mixed)])
    grams.clear()
    assert bipartite_two_eig_check(sg) is None and certify_two_eigenvalues(sg) is None
    assert grams == [14]


STAR_HALVES = pytest.mark.parametrize(
    "c", [*(sylvester_hadamard(k) for k in range(1, 6)), *(paley_conference(q) for q in (5, 13, 29)),
          conference_block(paley_conference(5))],
    ids=[*(f"H{k}" for k in range(1, 6)), "P5", "P13", "P29", "block-P5"])


@STAR_HALVES
def test_the_dense_route_and_star_certificate_agree(monkeypatch, c):
    """With no half found (spectra._star_half patched to None), an interleaved star(C) is
    certified by the dense route's Gram product of its own order; its certificate equals
    star_certificate(C) in every field, floats included. alpha is a square for H2 and H4
    and not for the rest, so both branches of spectra._solved run."""
    n = c.rows
    mixed = np.arange(2 * n).reshape(2, n).T.ravel()
    sg = SignedGraph(star(c).matrix.data[np.ix_(mixed, mixed)])
    monkeypatch.setattr(spectra, "_star_half", lambda sg: None)
    grams = counted_grams(monkeypatch)
    cert = certify_two_eigenvalues(sg)
    assert grams == [2 * n]
    assert cert == spectra.star_certificate(c) and grams == [2 * n]


@STAR_HALVES
def test_a_permuted_star_is_certified_through_its_half(monkeypatch, rng, c):
    """star(C) with its vertices in a random or interleaved order: certify_two_eigenvalues
    gathers C over the BFS bipartition and proves it with one Gram product of C's order,
    equal to star_certificate(C), and bipartite_two_eig_check then takes C's kept verdict.
    One flipped symmetric pair is rejected by both, again with one product."""
    n = c.rows
    want = spectra.star_certificate(c)
    grams = counted_grams(monkeypatch)
    for order in (rng.permutation(2 * n), np.arange(2 * n).reshape(2, n).T.ravel()):
        a = star(c).data[np.ix_(order, order)]
        grams.clear()
        sg = SignedGraph(a)
        assert certify_two_eigenvalues(sg) == want and grams == [n]
        assert bipartite_two_eig_check(sg) == is_orthogonal(c) and grams == [n]
        flipped = a.copy()
        i, j = np.argwhere(a)[int(rng.integers(np.count_nonzero(a)))]
        flipped[i, j] = flipped[j, i] = -a[i, j]
        grams.clear()
        sg = SignedGraph(flipped)
        assert certify_two_eigenvalues(sg) is None and bipartite_two_eig_check(sg) is None
        assert grams == [n]


def test_a_graph_with_no_balanced_bipartition_goes_dense(monkeypatch):
    """Of even order with deg(v0) <= n/2 but no half: two triangles (not bipartite, with
    A^2 - A - 2I = 0) and K_{1,3} beside an edge (bipartite, sides 4 and 2) are decided by
    the dense Gram product of their own order."""
    grams = counted_grams(monkeypatch)
    triangles = SignedGraph(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    assert certify_two_eigenvalues(triangles) == spectra._solved(6, -1, -2) and grams == [6]
    with pytest.raises(ValueError, match="not bipartite"):
        bipartite_two_eig_check(triangles)
    unbalanced = SignedGraph(Graph(6, [(0, 1), (0, 2), (0, 3), (4, 5)]))
    assert bipartite_two_eig_check(unbalanced) is None and grams == [6]
    assert certify_two_eigenvalues(unbalanced) is None and grams == [6, 6]


def test_a_rejection_is_kept_on_every_route(monkeypatch):
    bad = paley_conference(13).data.copy()
    bad[1, 2] *= -1
    c = SignedMatrix(bad)
    grams = counted_grams(monkeypatch)
    sg = star(c)
    assert certify_two_eigenvalues(sg) is None
    assert bipartite_two_eig_check(sg) is None
    assert is_orthogonal(c) is None
    assert grams == [14]


def test_equal_arrays_each_prove_their_own_verdict(monkeypatch):
    h = sylvester_hadamard(3).data
    grams = counted_grams(monkeypatch)
    assert is_orthogonal(SignedMatrix(h)) == is_orthogonal(SignedMatrix(h))
    assert grams == [8, 8]
    shared = h.copy()
    a, b = SignedMatrix._trusted(shared), SignedMatrix._trusted(shared)
    assert is_orthogonal(a) == is_orthogonal(b) == OrthogonalityCertificate(8)
    assert is_orthogonal(a) == OrthogonalityCertificate(8) and grams == [8] * 4


def test_a_changed_array_is_proven_again(monkeypatch):
    h = sylvester_hadamard(3).data
    c = SignedMatrix(h)
    sg = star(c)
    grams = counted_grams(monkeypatch)
    assert is_orthogonal(c).alpha == 8 and grams == [8]
    with pytest.raises(ValueError, match="read-only"):
        c.data[0, 0] = 0
    assert is_orthogonal(c).alpha == 8 and grams == [8]
    # a reassigned array: C and its star part ways, and sg keeps its own entries
    flipped = h.copy()
    flipped[0, 0] = -1
    flipped.setflags(write=False)
    c.data = flipped
    assert is_orthogonal(c) is None and grams == [8, 8]
    assert certify_two_eigenvalues(sg).b == -8 and grams == [8, 8, 8]
    assert is_orthogonal(c) is None and grams == [8, 8, 8]
    # an array made writeable again is proven at every call, whatever it holds
    c.data.setflags(write=True)
    c.data[0, 0] = 1
    assert is_orthogonal(c).alpha == 8 and grams == [8] * 4
    assert is_orthogonal(c).alpha == 8 and grams == [8] * 5
    # the same for the star's own array
    sg.matrix.data.setflags(write=True)
    sg.matrix.data[0, 8] = -sg.matrix.data[0, 8]
    assert certify_two_eigenvalues(sg) is None and grams == [8] * 6


def test_a_forged_kept_verdict_fails_the_test():
    """The autouse fixture proves every kept verdict again, so a wrong one cannot pass."""
    m = core._keep_verdict(SignedMatrix(sylvester_hadamard(2).data), OrthogonalityCertificate(3))
    with pytest.raises(pytest.fail.Exception, match="kept verdict"):
        is_orthogonal(m)


@pytest.mark.parametrize(
    "data",
    [
        np.array([[0, -2]], dtype=np.int8),
        np.array([[1, 2]], dtype=np.uint8),
        np.array([[1, 2**40]], dtype=np.int64),
        [[0.5, 1.0]],
        [[float("nan"), 1.0]],
        [["1", "0"]],
    ],
)
def test_trit_validation_rejects_every_dtype(data):
    with pytest.raises(ValueError, match="entries must be"):
        SignedMatrix(data)


@pytest.mark.parametrize(
    "data",
    [
        np.array([[-1, 0, 1]], dtype=np.int8),
        np.array([[0, 1, 1]], dtype=np.uint64),
        np.array([[True, False, True]]),
        [[-1.0, 0.0, 1.0]],
        np.array([[-1, 0, 1]], dtype=object),
    ],
)
def test_trit_validation_accepts_every_dtype(data):
    m = SignedMatrix(data)
    assert m.data.dtype == np.int8
    assert np.array_equal(m.data, np.asarray(data).astype(np.int64))
