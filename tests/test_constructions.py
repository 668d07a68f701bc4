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

from conftest import wide

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
    orders, gram_is = [], core._gram_is

    def counted(x, scale, shift):
        orders.append(x.shape[0])
        return gram_is(x, scale, shift)

    monkeypatch.setattr(core, "_gram_is", counted)
    for q in (5, 13, 29, 61):
        c = SignedMatrix(paley_conference(q).data)
        orders.clear()
        b, cert = double(c)
        assert orders == [q + 1] and cert.alpha == 2 * q + 2
        assert is_orthogonal(b) is cert and orders == [q + 1]
        assert core._orthogonality(b.data) == cert and orders == [q + 1, 2 * q + 2]


def test_double_certificate_rejects_every_single_entry_change():
    d = paley_conference(5).data
    b = double(paley_conference(5))[0].data
    assert constructions._double_certificate(b, d, 5).alpha == 12
    for i, j in np.ndindex(b.shape):
        bad = b.copy()
        bad[i, j] = -b[i, j] if b[i, j] else 1
        with pytest.raises(AssertionError, match="not the doubling"):
            constructions._double_certificate(bad, d, 5)
    for out in (b[:, :11], b[:10, :10], np.kron(np.ones((2, 2), np.int8), d)):
        with pytest.raises(AssertionError, match="not the doubling"):
            constructions._double_certificate(out, d, 5)


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


def test_kronecker_certificate_rejects_every_single_entry_change():
    a, b = sylvester_hadamard(1).data, paley_conference(5).data
    m = np.kron(a, b)
    assert constructions._kronecker_certificate(m, a, 2, b, 5).alpha == 10
    for i, j in np.ndindex(m.shape):
        bad = m.copy()
        bad[i, j] = -m[i, j] if m[i, j] else 1
        with pytest.raises(AssertionError, match="not the Kronecker product"):
            constructions._kronecker_certificate(bad, a, 2, b, 5)
    with pytest.raises(AssertionError, match="not the Kronecker product"):
        constructions._kronecker_certificate(np.kron(b, a), a, 2, b, 5)
    for out, left, right in ((m, a, a), (m, b, b), (m[:, :11], a, b), (m, a, b[:, :5]),
                             (m, a[:1], b)):
        with pytest.raises(AssertionError, match="Kronecker shape"):
            constructions._kronecker_certificate(out, left, 1, right, 1)


def test_sylvester_hadamard_makes_no_gram_call(monkeypatch):
    """Each doubling is certified against the last by its block structure, so no order
    2^k Gram product is formed, nor by is_orthogonal of the result, which returns the
    kept certificate (the counter does see is_orthogonal's of a fresh matrix)."""
    orders = []
    gram_is = core._gram_is

    def counted(x, scale, shift):
        orders.append(x.shape[0])
        return gram_is(x, scale, shift)

    monkeypatch.setattr(core, "_gram_is", counted)
    for k in range(constructions.MAX_HADAMARD_EXPONENT + 1):
        assert sylvester_hadamard(k).rows == 2**k
    assert orders == []
    assert is_orthogonal(sylvester_hadamard(2)).alpha == 4 and orders == []
    is_orthogonal(SignedMatrix(sylvester_hadamard(2).data))
    assert orders == [4]
