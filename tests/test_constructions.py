import itertools
import math

import numpy as np
import pytest

from twoeig import constructions, core
from twoeig import (
    SignedMatrix,
    WilliamsonQuadruple,
    conference_block,
    double,
    eigenvalues_symmetric,
    is_orthogonal,
    kronecker,
    kronecker_orthogonal,
    paley_conference,
    shift_antisymmetric,
    sylvester_hadamard,
    williamson,
    williamson_preset,
)

from conftest import counted_grams, counted_products, wide

ROTATION = SignedMatrix([[0, 1], [-1, 0]])
SWAP = SignedMatrix([[0, 1], [1, 0]])
C4_ADJACENCY = SignedMatrix([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])


def test_kronecker_shapes_and_identity():
    a = SignedMatrix(np.ones((2, 3), dtype=np.int8))
    b = SignedMatrix(np.ones((5, 7), dtype=np.int8))
    prod = kronecker(a, b)
    assert (prod.rows, prod.cols) == (10, 21)
    h = sylvester_hadamard(2)
    assert kronecker(SignedMatrix.identity(1), h) == h
    assert kronecker(sylvester_hadamard(1), sylvester_hadamard(1)) == h


def test_kronecker_equals_np_kron():
    """The broadcast product is np.kron's, for every pair of rectangular, 1 x 1 and
    2-row factors."""
    rng = np.random.default_rng(50)
    shapes = [(1, 1), (1, 4), (2, 1), (2, 2), (2, 5), (3, 2), (4, 7)]
    for sa, sb in itertools.product(shapes, repeat=2):
        a = rng.integers(-1, 2, size=sa).astype(np.int8)
        b = rng.integers(-1, 2, size=sb).astype(np.int8)
        m = kronecker(SignedMatrix(a), SignedMatrix(b))
        assert m.data.dtype == np.int8 and np.array_equal(m.data, np.kron(a, b)), (sa, sb)


def test_kronecker_orthogonal_multiplies_alphas():
    m, cert = kronecker_orthogonal(sylvester_hadamard(1), paley_conference(5))
    assert cert.alpha == 10
    assert (m.rows, m.cols) == (12, 12)
    assert eigenvalues_symmetric(m).close_to(
        [(math.sqrt(10), 6), (-math.sqrt(10), 6)]
    )
    with pytest.raises(ValueError, match="left factor"):
        kronecker_orthogonal(C4_ADJACENCY, sylvester_hadamard(1))
    with pytest.raises(ValueError, match="right factor"):
        kronecker_orthogonal(sylvester_hadamard(1), C4_ADJACENCY)


def test_sylvester_small_orders():
    assert sylvester_hadamard(0) == SignedMatrix([[1]])
    assert sylvester_hadamard(1) == SignedMatrix([[1, 1], [1, -1]])
    for k in range(9):
        h = sylvester_hadamard(k)
        assert h.rows == 2**k
        assert np.array_equal(h.data, h.data.T)
        assert is_orthogonal(h).alpha == 2**k


def test_sylvester_equals_an_np_kron_chain():
    h, signs = np.ones((1, 1), dtype=np.int8), np.array([[1, 1], [1, -1]], dtype=np.int8)
    for k in range(constructions.MAX_HADAMARD_EXPONENT + 1):
        assert np.array_equal(sylvester_hadamard(k).data, h), k
        h = np.kron(signs, h)


def test_sylvester_rejects_bad_exponents():
    with pytest.raises(ValueError, match="non-negative"):
        sylvester_hadamard(-1)
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        sylvester_hadamard(13)


def test_paley_conference_structure():
    for q in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
        c = paley_conference(q)
        assert c.rows == q + 1
        assert np.array_equal(c.data, c.data.T)
        assert np.all(np.diagonal(c.data) == 0)
        off = c.data[~np.eye(q + 1, dtype=bool)]
        assert np.all(np.abs(off) == 1)
        assert is_orthogonal(c).alpha == q


@pytest.mark.parametrize("q", [5, 13, 61, 113, 509])
def test_paley_core_is_the_character_of_the_index_difference(q):
    """c[1 + i, 1 + j] is the Legendre symbol of i - j by Euler's criterion, read
    through an index table; the border is +1 around a zero corner."""
    euler = np.array([0] + [1 if pow(x, (q - 1) // 2, q) == 1 else -1 for x in range(1, q)])
    diff = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    c = paley_conference(q).data
    assert np.array_equal(c[1:, 1:], euler[diff])
    assert c[0, 0] == 0 and (c[0, 1:] == 1).all() and (c[1:, 0] == 1).all()


def test_paley_conference_rejects_bad_q():
    with pytest.raises(ValueError, match="odd"):
        paley_conference(4)
    with pytest.raises(ValueError, match="prime"):
        paley_conference(9)
    with pytest.raises(ValueError, match="1 mod 4"):
        paley_conference(3)


def test_double_conference():
    b, cert = double(paley_conference(5))
    assert cert.alpha == 12
    assert b.rows == 12
    assert np.array_equal(b.data, b.data.T)
    assert np.all(np.abs(b.data) == 1)
    assert np.array_equal(wide(b) @ wide(b), 12 * np.eye(12, dtype=np.int64))
    c, eye = wide(paley_conference(5)), np.eye(6, dtype=np.int64)
    assert np.array_equal(wide(b), np.block([[c + eye, c - eye], [c - eye, -c - eye]]))


def test_double_is_certified_by_its_blocks_with_one_gram_product(monkeypatch):
    """double proves its input by a Gram product and its output by block structure
    only; the certificate it keeps on the output equals a fresh Gram proof."""
    orders = counted_grams(monkeypatch)
    for q in (5, 13, 29, 61):
        c = SignedMatrix(paley_conference(q).data)
        orders.clear()
        b, cert = double(c)
        assert orders == [q + 1] and cert.alpha == 2 * q + 2
        assert is_orthogonal(b) is cert and orders == [q + 1]
        assert core._orthogonality(b.data) == cert and orders == [q + 1, 2 * q + 2]


def test_double_rejects_bad_inputs():
    with pytest.raises(ValueError, match="symmetric"):
        double(ROTATION)
    with pytest.raises(ValueError, match="zero diagonal"):
        double(sylvester_hadamard(1))
    with pytest.raises(ValueError, match="not an orthogonal"):
        double(C4_ADJACENCY)


def test_shift_antisymmetric():
    m, cert = shift_antisymmetric(ROTATION)
    assert cert.alpha == 2
    assert m == SignedMatrix([[1, 1], [-1, 1]])
    block = kronecker(SignedMatrix.identity(3), ROTATION)
    shifted, cert = shift_antisymmetric(block)
    assert cert.alpha == 2
    assert shifted.rows == 6


ROTATED_H3 = kronecker(sylvester_hadamard(3), ROTATION)  # antisymmetric: H_3 is symmetric
P5, P13 = paley_conference(5), paley_conference(13)
# kind: (inputs, construction, orders of the Gram products it forms, alpha of its output)
CONSTRUCTIONS = {
    "kronecker": ((sylvester_hadamard(2), P5), lambda a, b: kronecker_orthogonal(a, b)[0],
                  [4, 6], 20),
    "sylvester": ((), lambda: sylvester_hadamard(6), [], 64),
    "conference-block": ((P13,), conference_block, [14], 26),
    "double": ((P13,), lambda c: double(c)[0], [14], 28),
    "shift": ((ROTATED_H3,), lambda c: shift_antisymmetric(c)[0], [16], 9),
    "paley": ((), lambda: paley_conference(13), [14], 13),
    "quadruple": ((P5,), lambda c: williamson(WilliamsonQuadruple(c, c, c, c)), [], 20),
    **{preset: ((P13,), lambda c, preset=preset: williamson_preset(c, preset), [14], alpha)
       for preset, alpha in (("all-c", 52), ("two-shifted", 54), ("four-shifted", 56),
                             ("nonsymmetric-all-c", 52))},
}


@pytest.mark.parametrize("kind", CONSTRUCTIONS)
def test_only_paley_forms_a_gram_product_of_its_output(kind, monkeypatch):
    """Each construction forms Gram products only for its inputs, which hold no kept
    verdict here (paley_conference, which has none, for its output), and is_orthogonal
    of the output returns the kept certificate with none; the fixture holds that
    certificate to the Gram route."""
    inputs, build, want, alpha = CONSTRUCTIONS[kind]
    inputs = [SignedMatrix(m.data) for m in inputs]
    orders = counted_grams(monkeypatch)
    m = build(*inputs)
    assert orders == want
    assert is_orthogonal(m).alpha == alpha and orders == want


def test_shift_rejects_bad_inputs():
    with pytest.raises(ValueError, match="antisymmetric"):
        shift_antisymmetric(SWAP)
    lone = SignedMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="not an orthogonal"):
        shift_antisymmetric(lone)


def test_quadruple_records_row_counts():
    c = paley_conference(5)
    eye = np.eye(6, dtype=np.int64)
    plus = SignedMatrix(wide(c) + eye)
    minus = SignedMatrix(wide(c) - eye)
    quad = WilliamsonQuadruple(c, c, minus, plus)
    assert quad.row_counts() == (5, 5, 6, 6)
    assert quad.order == 6


def test_quadruple_row_counts_are_not_constructor_arguments():
    c = paley_conference(5)
    with pytest.raises(TypeError):
        WilliamsonQuadruple(c, c, c, c, 99, 98, 97, 96)
    with pytest.raises(TypeError):
        WilliamsonQuadruple(c, c, c, c, k1=99)


def test_quadruple_rejects_bad_blocks():
    with pytest.raises(ValueError, match="do not commute"):
        WilliamsonQuadruple(SWAP, SignedMatrix([[1, 0], [0, -1]]), SWAP, SWAP)
    ragged = SignedMatrix([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="constant number"):
        WilliamsonQuadruple(ragged, ragged, ragged, ragged)
    with pytest.raises(ValueError, match="expected 2x2"):
        WilliamsonQuadruple(SWAP, SWAP, SWAP, SignedMatrix([[1]]))


def test_quadruple_row_counts_past_uint8():
    """Blocks of order 258 have supports of 257 and 258, which uint8 would wrap to 1
    and 2; the counts are summed in np.min_scalar_type(258), uint16."""
    c = paley_conference(257)
    eye = np.eye(258, dtype=np.int8)
    minus, plus = SignedMatrix(c.data - eye), SignedMatrix(c.data + eye)
    assert WilliamsonQuadruple(c, c, minus, plus).row_counts() == (257, 257, 258, 258)
    # row 0 has 257 nonzeros, the other rows one: equal modulo 256, not equal
    ragged = np.eye(258, dtype=np.int8)
    ragged[0, :257] = -1
    ragged = SignedMatrix(ragged)
    with pytest.raises(ValueError, match="constant number"):
        WilliamsonQuadruple(ragged, ragged, ragged, ragged)


def test_williamson_of_the_zero_quadruple_is_none():
    """Zero blocks commute and pass the square sum with s = 0, and no orthogonal matrix
    has alpha 0: williamson returns None, as for a failed square sum."""
    for zero in (SignedMatrix([[0]]), SignedMatrix([[0, 0], [0, 0]])):
        assert williamson(WilliamsonQuadruple(zero, zero, zero, zero)) is None


FLIP = SignedMatrix([[1, 0], [0, -1]])


def test_williamson_checks_a_reassigned_block_again():
    """A block array reassigned after the quadruple was built is checked again: -I
    commutes with I and is assembled; diag(1, -1) and the swap square to I but
    anticommute, so with the old checks' verdicts W W^t would not be 4 I."""
    blocks = [SignedMatrix.identity(2) for _ in range(4)]
    quad = WilliamsonQuadruple(*blocks)
    blocks[0].data = SignedMatrix(-np.eye(2, dtype=np.int8)).data
    w = williamson(quad)
    assert np.array_equal(w.data[:2, :2], -np.eye(2)) and is_orthogonal(w).alpha == 4
    blocks[0].data, blocks[1].data = FLIP.data, SWAP.data
    with pytest.raises(ValueError, match="blocks 1 and 2 do not commute"):
        williamson(quad)


def test_williamson_checks_a_writeable_block_again():
    """A block array made writeable is checked again, whether it was changed or not."""
    blocks = [SignedMatrix.identity(2) for _ in range(4)]
    quad = WilliamsonQuadruple(*blocks)
    blocks[0].data.setflags(write=True)
    blocks[0].data[...] = -np.eye(2, dtype=np.int8)
    w = williamson(quad)
    assert np.array_equal(w.data[:2, :2], -np.eye(2)) and is_orthogonal(w).alpha == 4
    for m, new in zip(blocks, (FLIP, SWAP)):
        m.data.setflags(write=True)
        m.data[...] = new.data
    with pytest.raises(ValueError, match="blocks 1 and 2 do not commute"):
        williamson(quad)


def test_williamson_square_sum_gate():
    bad = WilliamsonQuadruple(*(C4_ADJACENCY,) * 4)
    assert williamson(bad) is None
    c = paley_conference(5)
    quad = WilliamsonQuadruple(*(c,) * 4)
    m = williamson(quad)
    assert m is not None
    assert is_orthogonal(m).alpha == 20
    assert np.array_equal(m.data[:6, :6], c.data)
    assert np.array_equal(m.data[6:12, :6], -c.data)


def test_williamson_presets():
    c = paley_conference(5)
    for preset, alpha in (("all-c", 20), ("two-shifted", 22), ("four-shifted", 24)):
        m = williamson_preset(c, preset)
        assert m.rows == 24
        assert is_orthogonal(m).alpha == alpha
    nonsym = williamson_preset(sylvester_hadamard(1), "nonsymmetric-all-c")
    assert nonsym.rows == 8
    assert is_orthogonal(nonsym).alpha == 8
    spun = williamson_preset(ROTATION, "nonsymmetric-all-c")
    assert is_orthogonal(spun).alpha == 4


def test_williamson_preset_rejections():
    with pytest.raises(ValueError, match="unknown preset"):
        williamson_preset(paley_conference(5), "five-shifted")
    with pytest.raises(ValueError, match="requires a symmetric"):
        williamson_preset(ROTATION, "all-c")
    with pytest.raises(ValueError, match="requires a zero diagonal"):
        williamson_preset(sylvester_hadamard(1), "two-shifted")
    with pytest.raises(ValueError, match="not an orthogonal"):
        williamson_preset(C4_ADJACENCY, "all-c")


SYMMETRIC_PRESETS = ("all-c", "two-shifted", "four-shifted")


def _reference_quadruple(c, preset):
    """The quadruple a symmetric preset names, (C, C, C, C), (C, C, C-I, C+I) or
    (C+I, C+I, C-I, C-I), from int64 sums, for williamson's checked route."""
    shifts = {"all-c": (0, 0, 0, 0), "two-shifted": (0, 0, -1, 1),
              "four-shifted": (1, 1, -1, -1)}[preset]
    eye = np.eye(c.rows, dtype=np.int64)
    return WilliamsonQuadruple(*(SignedMatrix(wide(c) + e * eye) for e in shifts))


def test_symmetric_presets_equal_the_quadruple_route():
    """Each symmetric preset gives the array and alpha that williamson gives for its
    quadruple, after the commute and square-sum products that the preset skips."""
    cases = [(paley_conference(q), SYMMETRIC_PRESETS) for q in (5, 13, 29, 61)]
    cases += [(sylvester_hadamard(k), ("all-c",)) for k in range(1, 5)]
    for c, presets in cases:
        for preset in presets:
            m, want = williamson_preset(c, preset), williamson(_reference_quadruple(c, preset))
            assert m == want and is_orthogonal(m) == is_orthogonal(want), (c.rows, preset)


@pytest.mark.parametrize("preset", SYMMETRIC_PRESETS)
def test_symmetric_presets_form_no_product(preset, monkeypatch):
    """From C's kept verdict a preset forms no Gram and no general product; the
    counters see the quadruple route's six commute products and its square sum."""
    c = paley_conference(13)
    products, grams = counted_products(monkeypatch), counted_grams(monkeypatch)
    m = williamson_preset(c, preset)
    assert is_orthogonal(m).alpha == 4 * 13 + {"all-c": 0, "two-shifted": 2,
                                               "four-shifted": 4}[preset]
    assert products == [] and grams == []
    williamson(_reference_quadruple(c, preset))
    assert products == [14] * 7 and grams == []


@pytest.mark.parametrize("preset", SYMMETRIC_PRESETS)
def test_a_preset_with_one_flipped_entry_raises(preset, monkeypatch):
    """Every single-entry change of the tiled array is caught by the block comparison."""
    c, tiled, where = paley_conference(5), constructions._tiled, []

    def flipped(tiles, blocks):
        out = tiled(tiles, blocks)
        out.flat[where[-1]] = -out.flat[where[-1]] or 1
        return out

    monkeypatch.setattr(constructions, "_tiled", flipped)
    for i in range(24 * 24):
        where.append(i)
        with pytest.raises(AssertionError, match="not the Williamson array"):
            williamson_preset(c, preset)


def test_conference_block():
    m = conference_block(paley_conference(5))
    assert m.rows == 12
    assert is_orthogonal(m).alpha == 10
    assert not np.array_equal(m.data, m.data.T)
    small = conference_block(SWAP)
    assert is_orthogonal(small).alpha == 2


def test_conference_block_rejections():
    with pytest.raises(ValueError, match="must be square"):
        conference_block(SignedMatrix(np.zeros((2, 3), dtype=np.int8)))
    with pytest.raises(ValueError, match="nonzero diagonal"):
        conference_block(sylvester_hadamard(1))
    with pytest.raises(ValueError, match="zero off the diagonal"):
        conference_block(C4_ADJACENCY)
    dense = SignedMatrix(np.ones((4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8))
    with pytest.raises(ValueError, match="not an orthogonal"):
        conference_block(dense)


KRONECKER_INPUTS = [sylvester_hadamard(1), sylvester_hadamard(3), paley_conference(5),
                    paley_conference(13), ROTATION, SWAP]


def test_kronecker_routes_return_the_gram_certificate():
    """The four Kronecker-shaped constructions certify their output by its block
    structure and keep that certificate on it: is_orthogonal returns it, and it is the
    one the exact Gram check (core._orthogonality) finds."""
    for k in range(12):
        h = sylvester_hadamard(k)
        assert is_orthogonal(h) == core._orthogonality(h.data) and is_orthogonal(h).alpha == 2**k
    for a in KRONECKER_INPUTS:
        for b in KRONECKER_INPUTS:
            m, cert = kronecker_orthogonal(a, b)
            assert cert == is_orthogonal(m) == core._orthogonality(m.data)
            assert m == kronecker(a, b)
        m = williamson_preset(a, "nonsymmetric-all-c")
        assert is_orthogonal(m) == core._orthogonality(m.data)
        assert is_orthogonal(m).alpha == 4 * is_orthogonal(a).alpha
    for c in (SWAP, *(paley_conference(q) for q in (5, 13, 29, 61))):
        m = conference_block(c)
        assert is_orthogonal(m) == core._orthogonality(m.data)
        assert np.array_equal(wide(m), np.block([[wide(c), wide(c)], [-wide(c), wide(c)]]))


def test_sylvester_hadamard_makes_no_gram_call(monkeypatch):
    """Each doubling is certified against the last by its block structure, so no order
    2^k Gram product is formed, nor by is_orthogonal of the result, which returns the
    kept certificate (the counter does see is_orthogonal's of a fresh matrix)."""
    orders = counted_grams(monkeypatch)
    for k in range(constructions.MAX_HADAMARD_EXPONENT + 1):
        assert sylvester_hadamard(k).rows == 2**k
    assert orders == []
    assert is_orthogonal(sylvester_hadamard(2)).alpha == 4 and orders == []
    is_orthogonal(SignedMatrix(sylvester_hadamard(2).data))
    assert orders == [4]


def _block_case(kind):
    """(output, terms, alpha, what, decoy) of each construction that _certify_blocks
    certifies, on a small input; the decoy has the output's shape and other entries."""
    c = paley_conference(5)
    eye = np.eye(6, dtype=np.int8)
    if kind == "kronecker":
        a, b = sylvester_hadamard(1).data, c.data
        return np.kron(a, b), [(a, b)], 10, "the Kronecker product", np.kron(b, a)
    if kind == "double":
        return (double(c)[0].data, [(constructions._DOUBLE_SIGNS, c.data),
                                    (constructions._DOUBLE_SHIFTS, eye)], 12,
                "the doubling", np.kron(np.ones((2, 2), np.int8), c.data))
    if kind == "shift":
        r = kronecker(SignedMatrix.identity(3), ROTATION).data
        return (shift_antisymmetric(SignedMatrix(r))[0].data,
                [(constructions._ONE, r), (constructions._ONE, eye)], 2, "the shift", r - eye)
    quad = WilliamsonQuadruple(c, c, SignedMatrix(c.data - eye), SignedMatrix(c.data + eye))
    return (williamson(quad).data, list(zip(constructions._WILLIAMSON_TERMS, quad._arrays)), 22,
            "the Williamson array", williamson_preset(c, "four-shifted").data)


@pytest.mark.parametrize("kind", ["kronecker", "double", "shift", "williamson"])
def test_certify_blocks_rejects_every_single_entry_change(kind):
    """The one structure certificate keeps alpha on the output it was built for, and
    raises on every single-entry change of it, on another output of its shape, and on
    every shape that is not sum_t S_t (x) B_t."""
    out, terms, alpha, what, decoy = _block_case(kind)
    m = constructions._certify_blocks(SignedMatrix(out), terms, alpha, what)
    assert is_orthogonal(m).alpha == alpha
    for i, j in np.ndindex(out.shape):
        bad = out.copy()
        bad[i, j] = -out[i, j] if out[i, j] else 1
        with pytest.raises(AssertionError, match=f"not {what}"):
            constructions._certify_blocks(SignedMatrix(bad), terms, alpha, what)
    with pytest.raises(AssertionError, match=f"not {what}"):
        constructions._certify_blocks(SignedMatrix(decoy), terms, alpha, what)
    (s, b), rest = terms[0], terms[1:]
    for wrong, wrong_terms in ((out[:, :-1], terms), (out[:-1, :-1], terms),
                               (out, [(s, b[:, :-1]), *rest]), (out, [(np.vstack((s, s)), b), *rest]),
                               (out, [*terms, (s, b[:-1, :-1])])):
        with pytest.raises(AssertionError, match="block shape"):
            constructions._certify_blocks(SignedMatrix(wrong), wrong_terms, alpha, what)


def test_williamson_sign_patterns_satisfy_the_array_identities():
    """williamson's proof uses S_i S_i^t = I_4 and S_i S_j^t antisymmetric for i != j, and
    the patterns place each block once: sum_i |S_i| = J_4 and sum_i S_i = _WILLIAMSON_SIGNS."""
    terms = [t.astype(np.int64) for t in constructions._WILLIAMSON_TERMS]
    for (i, s), (j, t) in itertools.product(enumerate(terms), repeat=2):
        product = s @ t.T
        assert np.array_equal(product, np.eye(4)) if i == j else np.array_equal(product, -product.T)
    assert np.array_equal(sum(np.abs(t) for t in terms), np.ones((4, 4)))
    assert np.array_equal(sum(terms), constructions._WILLIAMSON_SIGNS.data)


def _passing_quadruples(n):
    """The blocks, and per index quadruple (i, j, k, l) of them its sum of supports s and
    whether it passes: every n x n trit block with constant row support, each quadruple
    passing when its blocks commute pairwise and their squares sum to s I. int64
    products over all of them, independent of WilliamsonQuadruple."""
    trits = np.array(list(itertools.product((-1, 0, 1), repeat=n * n))).reshape(-1, n, n)
    support = (trits != 0).sum(axis=2, dtype=np.int64)
    keep = (support == support[:, :1]).all(axis=1)
    blocks, k = trits[keep], support[keep, 0]
    products = np.einsum("iab,jbc->ijac", blocks, blocks)
    commute = (products == products.transpose(1, 0, 2, 3)).all(axis=(2, 3))
    squares = np.einsum("iab,ibc->iac", blocks, blocks).astype(np.int8)
    grid = np.ix_(*[np.arange(len(blocks))] * 4)
    s = sum(k[g] for g in grid)
    square_sum = sum(squares[g] for g in grid)
    passes = (square_sum == s[..., None, None] * np.eye(n, dtype=np.int8)).all(axis=(-2, -1))
    for a, b in itertools.combinations(range(4), 2):
        passes &= commute[grid[a], grid[b]]
    return blocks, s, passes


def test_williamson_agrees_with_the_gram_route_on_every_small_quadruple():
    """Every quadruple of 1 x 1 or 2 x 2 blocks with constant row support that passes the
    commute and square-sum tests (81 and 3,553 of them) gives W with the kept alpha s,
    which the exact Gram route finds too, but for the all-zero quadruple (s = 0), where
    williamson returns None. A sample of the failing quadruples is refused."""
    rng = np.random.default_rng(0)
    passed = 0
    for n in (1, 2):
        blocks, s, passes = _passing_quadruples(n)
        mats = [SignedMatrix(b) for b in blocks]
        for idx in zip(*np.nonzero(passes)):
            w = williamson(WilliamsonQuadruple(*(mats[i] for i in idx)))
            if s[idx] == 0:
                assert w is None
            else:
                assert is_orthogonal(w).alpha == s[idx] == core._orthogonality(w.data).alpha
            passed += 1
        failing = np.argwhere(~passes)  # none for n = 1
        for idx in failing[rng.choice(len(failing), 200 if len(failing) else 0)]:
            try:
                quad = WilliamsonQuadruple(*(mats[i] for i in idx))
            except ValueError as exc:
                assert "do not commute" in str(exc)
                continue
            assert williamson(quad) is None
    assert passed == 81 + 3553
