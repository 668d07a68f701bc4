"""Generators for orthogonal signed matrices.

Every construction proves C C^t = C^t C = alpha I for its output in exact
integer arithmetic and keeps that certificate on it, so is_orthogonal of an
output proves nothing again. An output built in blocks of certified inputs
is compared entry by entry with sum_t S_t (x) B_t, small sign patterns S_t
times input blocks B_t (_certify_blocks, O(n^2)), and the algebra of each
construction turns the match into its alpha: the Kronecker products
(sylvester_hadamard, kronecker_orthogonal, conference_block, the
"nonsymmetric-all-c" Williamson preset), double, shift_antisymmetric,
williamson and the symmetric Williamson presets each say how. Only
paley_conference, built from quadratic residues rather than blocks, checks
its output by a Gram product, and only williamson, over an arbitrary
quadruple, checks products of its blocks (the commute and square-sum
tests); a preset's blocks are polynomials in one certified C, whose verdict
implies both. Every Kronecker product is one broadcast (kronecker).
Entries are not checked again: each output is a closed operation on
{-1, 0, 1} (a Kronecker product, blocks of validated blocks and their
negations, D +- I on a zero diagonal), wrapped by SignedMatrix._trusted.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (OrthogonalityCertificate, SignedMatrix, _is_symmetric, _keep_verdict,
                   _product_is, _row_nonzeros, is_orthogonal)

__all__ = [
    "WilliamsonQuadruple",
    "kronecker",
    "kronecker_orthogonal",
    "sylvester_hadamard",
    "paley_conference",
    "double",
    "shift_antisymmetric",
    "williamson",
    "williamson_preset",
    "conference_block",
]

MAX_HADAMARD_EXPONENT = 12
KRON_PANEL_BYTES = 2**18

# the symmetric presets' blocks are A_i = C + e_i I, for these shifts e
_PRESET_SHIFTS = {"all-c": (0, 0, 0, 0), "two-shifted": (0, 0, -1, 1),
                  "four-shifted": (1, 1, -1, -1)}
WILLIAMSON_PRESETS = (*_PRESET_SHIFTS, "nonsymmetric-all-c")


def kronecker(a: SignedMatrix, b: SignedMatrix) -> SignedMatrix:
    """Kronecker product; sign entries are closed under it, so int8 is exact.

    Entry (i, j, k, l) of the (p, r, q, s) broadcast a[i, k] * b[j, l] is entry
    (i r + j, k s + l) of a (x) b, so the product is one broadcast, reshaped as a view.
    np.kron builds the same array with about 12 us more of wrapper: H_1 (x) B takes 2.4
    against 14.5 us for B of order 14, and 1.2 ms either way at order 2048 (2-vCPU host).
    """
    (p, q), (r, s) = a.data.shape, b.data.shape
    return SignedMatrix._trusted((a.data[:, None, :, None] * b.data[None, :, None, :])
                                 .reshape(p * r, q * s))


def _require_orthogonal(c: SignedMatrix, name: str) -> int:
    cert = is_orthogonal(c)
    if cert is None:
        raise ValueError(f"{name} is not an orthogonal signed matrix")
    return cert.alpha


def _certify_blocks(m: SignedMatrix, terms, alpha: int, what: str) -> SignedMatrix:
    """m, keeping OrthogonalityCertificate(alpha), once m.data = sum_t S_t (x) B_t.

    terms holds pairs (S_t, B_t), a p x p sign pattern and an n x n input
    block, int8 arrays of {-1, 0, 1}. The caller's algebra turns the match
    into m m^t = alpha I, and m^t m = alpha I follows for the square m as in
    is_orthogonal. The (p, n, p, n) view of m is compared with the broadcast
    sum of S_t[r, c] * B_t[j, l], which the code that built m takes no part
    in; each product is in {-1, 0, 1}, and a sum of fewer than 128 fits int8.
    Each entry of m is read once, O(n^2) where a Gram product is O(n^3), a
    panel of rows j at a time so that the broadcast stays near
    KRON_PANEL_BYTES: at order 4096 one whole-matrix broadcast took 19-21 ms
    and the panels take 5 ms (2-vCPU host). A mismatch, in shape or in any
    entry, is a defect of the construction and raises AssertionError.
    """
    p, n = len(terms[0][0]), len(terms[0][1])
    if m.data.shape != (p * n, p * n) or any(s.shape != (p, p) or b.shape != (n, n)
                                             for s, b in terms):
        raise AssertionError(f"{m.data.shape} is not the block shape of {what}")
    view = m.data.reshape(p, n, p, n)
    step = max(1, KRON_PANEL_BYTES // (p * p * n))
    for j0 in range(0, n, step):
        panel = functools.reduce(np.add, (s[:, None, :, None] * b[None, j0 : j0 + step, None, :]
                                          for s, b in terms))
        if not (view[:, j0 : j0 + step] == panel).all():
            raise AssertionError(f"order-{p * n} output is not {what}")
    return _keep_verdict(m, OrthogonalityCertificate(alpha))


def _tiled(tiles, blocks) -> np.ndarray:
    """The array whose block (r, c) is sign(t) * blocks[|t| - 1], t = tiles[r][c],
    written into one preallocated int8 array; negation keeps the entries in
    {-1, 0, 1}. The 16 blocks of a Williamson array of order 24-56 take
    11-17 us so and 33-41 us by np.block (2-vCPU host)."""
    p, n = len(tiles), len(blocks[0])
    out = np.empty((p, n, p, n), dtype=np.int8)
    for r, row in enumerate(tiles):
        for c, t in enumerate(row):
            block = blocks[abs(t) - 1]
            out[r, :, c] = block if t > 0 else -block
    return out.reshape(p * n, p * n)


def _certified_kronecker(a: SignedMatrix, alpha_a: int, b: SignedMatrix, alpha_b: int) -> SignedMatrix:
    """a (x) b for square a, b with certified a a^t = alpha_a I and b b^t = alpha_b I.
    On a match with [(a, b)] the mixed-product identity gives m m^t =
    (a a^t) (x) (b b^t) = alpha_a alpha_b I; kronecker builds m."""
    return _certify_blocks(kronecker(a, b), [(a.data, b.data)], alpha_a * alpha_b,
                           "the Kronecker product of its factors")


def kronecker_orthogonal(
    a: SignedMatrix, b: SignedMatrix
) -> tuple[SignedMatrix, OrthogonalityCertificate]:
    """Kronecker product of two orthogonal matrices; alphas multiply."""
    alpha_a = _require_orthogonal(a, "left factor")
    alpha_b = _require_orthogonal(b, "right factor")
    m = _certified_kronecker(a, alpha_a, b, alpha_b)
    return m, is_orthogonal(m)


# the constant left factors, each certified once by an exact Gram product
_SYLVESTER_SIGNS = SignedMatrix([[1, 1], [1, -1]])
_SYLVESTER_ALPHA = _require_orthogonal(_SYLVESTER_SIGNS, "Sylvester sign pattern")
_BLOCK_SIGNS = SignedMatrix([[1, 1], [-1, 1]])
_BLOCK_ALPHA = _require_orthogonal(_BLOCK_SIGNS, "conference block sign pattern")


def sylvester_hadamard(k: int) -> SignedMatrix:
    """Hadamard matrix of order 2^k built by iterated doubling from [[1,1],[1,-1]]: each
    doubling h' = H_1 (x) h is certified against the already certified h, O(4^k) work
    in all."""
    if k < 0:
        raise ValueError(f"exponent must be non-negative, got {k}")
    if k > MAX_HADAMARD_EXPONENT:
        raise ValueError(f"order 2^{k} exceeds the supported maximum 2^{MAX_HADAMARD_EXPONENT}")
    # [1] [1]^t = 1 I: the 1 x 1 start is orthogonal with alpha 1
    h = _keep_verdict(SignedMatrix._trusted(np.ones((1, 1), np.int8)), OrthogonalityCertificate(1))
    for _ in range(k):
        h = _certified_kronecker(_SYLVESTER_SIGNS, _SYLVESTER_ALPHA, h, is_orthogonal(h).alpha)
    return h


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def paley_conference(q: int) -> SignedMatrix:
    """Symmetric conference matrix of order q + 1 from quadratic residues mod q.

    The core block holds the residue character of the index difference,
    chi[(i - j) % q]; a border of +1 entries (with a zero corner) completes
    the matrix. Symmetry needs -1 to be a residue, hence q = 1 (mod 4).
    With chi doubled, chi[(i - j) % q] = twice[q + i - j], and q + i - j
    runs over 1..2q - 1, inside the 2q entries of twice: the core is a
    read-only strided view of twice (one byte down a row, one back along
    it), copied into place with no q x q index table. At q = 509 the int64
    table took 1.4-3.0 ms and the view takes 0.02 ms; at q = 5, 13 the view
    costs about 1 us more, where a sliding_window_view took 10 us more
    (2-vCPU host).
    """
    if q % 2 == 0:
        raise ValueError(f"q must be odd, got {q}")
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q % 4 != 1:
        raise ValueError(f"q must be congruent to 1 mod 4, got {q}")
    residues = {(x * x) % q for x in range(1, q)}
    chi = np.array([0] + [1 if x in residues else -1 for x in range(1, q)], dtype=np.int8)
    c = np.ones((q + 1, q + 1), dtype=np.int8)
    c[0, 0] = 0
    twice = np.concatenate((chi, chi))
    c[1:, 1:] = as_strided(twice[q:], shape=(q, q), strides=(1, -1), writeable=False)
    if not _is_symmetric(c):
        raise AssertionError(f"conference matrix for q = {q} failed the symmetry check")
    m = SignedMatrix._trusted(c)
    if is_orthogonal(m) != OrthogonalityCertificate(q):
        raise AssertionError(f"conference matrix for q = {q} failed the exact Gram check")
    return m


# double's output is tiled from (D+I, D-I) and checked as S (x) D + E (x) I
_DOUBLE_TILES = ((1, 2), (2, -1))
_DOUBLE_SIGNS = np.array([[1, 1], [1, -1]], dtype=np.int8)
_DOUBLE_SHIFTS = np.array([[1, -1], [-1, -1]], dtype=np.int8)
_ONE = np.ones((1, 1), dtype=np.int8)


def double(c: SignedMatrix) -> tuple[SignedMatrix, OrthogonalityCertificate]:
    """[[C+I, C-I], [C-I, -C-I]] = S (x) C + E (x) I for symmetric zero-diagonal
    orthogonal C, with S = [[1, 1], [1, -1]] and E = [[1, -1], [-1, -1]].

    It is certified by its blocks from the verdict kept on C, with no Gram
    product at its order: b b^t = b^2 has the diagonal blocks (C+I)^2 +
    (C-I)^2 = 2C^2 + 2I = (2 alpha + 2) I and the off-diagonal blocks
    (C+I)(C-I) - (C-I)(C+I) = 0. C +- I only fills the zero diagonal.
    """
    if not c.is_square or not _is_symmetric(c.data):
        raise ValueError("input must be a symmetric square matrix")
    if np.any(np.diagonal(c.data) != 0):
        raise ValueError("input must have a zero diagonal")
    alpha = _require_orthogonal(c, "input")
    d, eye = c.data, np.eye(c.rows, dtype=np.int8)
    b = _certify_blocks(SignedMatrix._trusted(_tiled(_DOUBLE_TILES, (d + eye, d - eye))),
                        [(_DOUBLE_SIGNS, d), (_DOUBLE_SHIFTS, eye)], 2 * alpha + 2,
                        "the doubling of its input")
    return b, is_orthogonal(b)


def shift_antisymmetric(c: SignedMatrix) -> tuple[SignedMatrix, OrthogonalityCertificate]:
    """C + I for antisymmetric (so zero-diagonal) orthogonal C; the certificate grows by one.

    C^t = -C is checked exactly, so on a match with C + I the output has
    (C + I)(C + I)^t = C C^t + C + C^t + I = (alpha + 1) I, with no Gram
    product at its order."""
    if not c.is_square or not _is_symmetric(c.data, -1):
        raise ValueError("input must be an antisymmetric square matrix")
    alpha = _require_orthogonal(c, "input")
    eye = np.eye(c.rows, dtype=np.int8)
    m = _certify_blocks(SignedMatrix._trusted(c.data + eye), [(_ONE, c.data), (_ONE, eye)],
                        alpha + 1, "the shift of its input")
    return m, is_orthogonal(m)


# the six pairs (i, j), i < j, of a quadruple's blocks, and per pair the blocks (j, i)
_PAIRS = list(itertools.combinations(range(4), 2))
_SWAPPED_PAIRS = np.array(_PAIRS)[:, ::-1]


@dataclass(frozen=True)
class WilliamsonQuadruple:
    """Four same-order blocks with row-constant supports, pairwise commuting.

    k1..k4 hold the per-row support size of each block; they are computed,
    never passed, and the commuting invariant is verified exactly at construction, one
    product per pair: [A_i | A_j] @ [A_j ; -A_i] = A_i A_j - A_j A_i must be
    0. Both factors hold {-1, 0, 1} entries and the inner dimension is 2n,
    so every entry is an integer of magnitude at most 2n, and
    core._product_is compares it exactly (its docstring says why). _arrays
    keeps the arrays these checks read, for williamson to square and assemble.
    """

    a1: SignedMatrix
    a2: SignedMatrix
    a3: SignedMatrix
    a4: SignedMatrix
    k1: int = field(init=False)
    k2: int = field(init=False)
    k3: int = field(init=False)
    k4: int = field(init=False)
    _arrays: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = tuple(m.data for m in self.blocks())
        object.__setattr__(self, "_arrays", arrays)
        n = arrays[0].shape[0]
        for idx, a in enumerate(arrays, start=1):
            if a.shape != (n, n):
                raise ValueError(f"block {idx} is {a.shape[0]}x{a.shape[1]}, expected {n}x{n}")
        f32 = np.array(arrays, dtype=np.float32)
        counts = _row_nonzeros((f32 != 0).view(np.int8).reshape(4 * n, n)).reshape(4, n)
        ragged = counts != counts[:, :1]
        if np.count_nonzero(ragged):
            raise ValueError(f"block {ragged.any(axis=1).argmax() + 1} does not have a constant "
                             "number of nonzero entries per row")
        for name, k in zip(("k1", "k2", "k3", "k4"), counts[:, 0].tolist()):
            object.__setattr__(self, name, k)
        # the six right factors [A_j; -A_i] (class docstring), taken in one copy
        rights = f32[_SWAPPED_PAIRS]
        rights[:, 1] *= -1
        for (i, j), right in zip(_PAIRS, rights.reshape(len(_PAIRS), 2 * n, n)):
            if not _product_is(np.concatenate((f32[i], f32[j]), 1), right, 0):
                raise ValueError(f"blocks {i + 1} and {j + 1} do not commute")

    def blocks(self) -> tuple[SignedMatrix, SignedMatrix, SignedMatrix, SignedMatrix]:
        return self.a1, self.a2, self.a3, self.a4

    @property
    def order(self) -> int:
        return self.a1.rows

    def row_counts(self) -> tuple[int, int, int, int]:
        return self.k1, self.k2, self.k3, self.k4

    def _checked(self) -> "WilliamsonQuadruple":
        """self while every block holds the array that its checks read, still
        read-only (as for a kept verdict, core._stored_verdict), else the
        quadruple of the blocks as they are now, checked again."""
        if all(m.data is a and not a.flags.writeable for m, a in zip(self.blocks(), self._arrays)):
            return self
        return WilliamsonQuadruple(*self.blocks())


# block (r, c) of the Williamson array is sign(t) A_|t| for t = _WILLIAMSON_TILES[r][c],
# so W = sum_i S_i (x) A_i for the sign patterns S_i of A_i's places
_WILLIAMSON_TILES = ((1, 2, 3, 4), (-2, 1, -4, 3), (-3, 4, 1, -2), (-4, -3, 2, 1))
_WILLIAMSON_TERMS = [np.array([[(t == i) - (t == -i) for t in row] for row in _WILLIAMSON_TILES],
                              dtype=np.int8) for i in (1, 2, 3, 4)]
# S, the block sign pattern: the array of four equal blocks C is S (x) C
_WILLIAMSON_SIGNS = SignedMatrix(sum(_WILLIAMSON_TERMS))
_WILLIAMSON_ALPHA = _require_orthogonal(_WILLIAMSON_SIGNS, "Williamson sign pattern")


def williamson(quad: WilliamsonQuadruple) -> SignedMatrix | None:
    """The Williamson array W = sum_i S_i (x) A_i of order 4n over a quadruple,
    when the square-sum test passes.

    Returns W, with alpha = s = k1 + k2 + k3 + k4, exactly when s >= 1 and
    sum(A_i^2) = s I; otherwise None (the all-zero quadruple has s = 0). The
    square sum is one product [A1 A2 A3 A4] @ [A1; A2; A3; A4] of
    {-1, 0, 1} matrices with inner dimension 4n, so each entry is an integer
    of magnitude at most 4n, and so is s; core._product_is compares it with
    s I exactly (its docstring says why).

    W is certified by its blocks, with no Gram product at order 4n:
    - Every block is symmetric. (A_i^2)_xx = sum_y A_i[x, y] A_i[y, x] is
      at most k_i, each term being at most |A_i[x, y]|, and the square sum
      makes the four add up to s = sum k_i. So each term with A_i[x, y] != 0
      is 1: A_i[y, x] = A_i[x, y] for every x and y.
    - So with the quadruple's A_i A_j = A_j A_i, W W^t = sum_i S_i S_i^t (x)
      A_i^2 + sum_{i<j} (S_i S_j^t + S_j S_i^t) (x) A_i A_j = s I, as each
      S_i S_i^t = I_4 and each S_i S_j^t (i != j) is antisymmetric.
    It reads the arrays the commute check read (WilliamsonQuadruple._checked).
    """
    quad = quad._checked()
    s, blocks = sum(quad.row_counts()), quad._arrays
    if not s or not _product_is(np.hstack(blocks), np.vstack(blocks), s):
        return None
    w = SignedMatrix._trusted(_tiled(_WILLIAMSON_TILES, blocks))
    return _certify_blocks(w, list(zip(_WILLIAMSON_TERMS, blocks)), s, "the Williamson array")


def williamson_preset(c: SignedMatrix, preset: str) -> SignedMatrix:
    """The Williamson array of a quadruple filled from one orthogonal matrix C.

    Presets: "all-c" uses four copies of a symmetric orthogonal C;
    "two-shifted" uses (C, C, C-I, C+I) and "four-shifted" uses
    (C+I, C+I, C-I, C-I), both needing a zero diagonal on top of symmetry;
    "nonsymmetric-all-c" accepts any orthogonal C and assembles directly:
    four equal blocks make S (x) C for the 4 x 4 sign pattern S of the
    array, certified as a Kronecker product.

    The symmetric presets need no product of their own. Their blocks are
    A_i = C + e_i I, e_i from _PRESET_SHIFTS:
    - each A_i is symmetric, and the four commute, each being a polynomial
      in C;
    - sum_i e_i = 0 and C^2 = C C^t = alpha I (C's verdict), so
      sum_i A_i^2 = 4 alpha I + 2 (sum_i e_i) C + (sum_i e_i^2) I = s I with
      s = 4 alpha + sum_i e_i^2.
    These are williamson's premises, so W = sum_i S_i (x) A_i has
    W W^t = s I, and one _certify_blocks comparison of the tiled W with that
    sum keeps s on it. The preset stays exact because every premise is: C's
    verdict is an exact Gram proof (or kept from one), symmetry and the zero
    diagonal are compared entry by entry, and C +- I on a zero diagonal keeps
    the entries in {-1, 0, 1}. It forms no WilliamsonQuadruple and no
    _product_is product; williamson takes arbitrary quadruples.
    """
    if preset not in WILLIAMSON_PRESETS:
        raise ValueError(f"unknown preset {preset!r}, expected one of {WILLIAMSON_PRESETS}")
    alpha = _require_orthogonal(c, "input")
    if preset == "nonsymmetric-all-c":
        return _certified_kronecker(_WILLIAMSON_SIGNS, _WILLIAMSON_ALPHA, c, alpha)
    if not _is_symmetric(c.data):
        raise ValueError(f"preset {preset!r} requires a symmetric matrix")
    shifts, d = _PRESET_SHIFTS[preset], c.data
    if any(shifts):
        if np.diagonal(d).any():
            raise ValueError(f"preset {preset!r} requires a zero diagonal")
        eye = np.eye(c.rows, dtype=np.int8)
        shifted = {0: d, 1: d + eye, -1: d - eye}
        blocks = [shifted[e] for e in shifts]
    else:
        blocks = [d] * 4
    w = SignedMatrix._trusted(_tiled(_WILLIAMSON_TILES, blocks))
    return _certify_blocks(w, list(zip(_WILLIAMSON_TERMS, blocks)),
                           4 * alpha + sum(e * e for e in shifts), "the Williamson array")


def conference_block(c: SignedMatrix) -> SignedMatrix:
    """[[C, C], [-C, C]] = [[1, 1], [-1, 1]] (x) C for a conference matrix C;
    alpha doubles to 2(n-1), certified as a Kronecker product."""
    if not c.is_square:
        raise ValueError("input must be square")
    if np.any(np.diagonal(c.data) != 0):
        raise ValueError("input has a nonzero diagonal entry, so it is not a conference matrix")
    off = c.data[~np.eye(c.rows, dtype=bool)]
    if np.any(off == 0):
        raise ValueError("input has a zero off the diagonal, so it is not a conference matrix")
    alpha = _require_orthogonal(c, "input")
    return _certified_kronecker(_BLOCK_SIGNS, _BLOCK_ALPHA, c, alpha)
