"""Generators for orthogonal signed matrices.

Every construction here proves the orthogonality identity C C^t = C^t C =
alpha I of its output in exact integer arithmetic before the result is
handed back, by one of two routes, and takes nothing on faith:
- an output built in blocks of certified inputs is compared entry by entry
  with those blocks, computed again from the inputs, an O(n^2) check of
  structure: a Kronecker product A (x) B (sylvester_hadamard,
  kronecker_orthogonal, conference_block, the "nonsymmetric-all-c"
  Williamson preset) against the product of its factors
  (_kronecker_certificate), and double's [[C+I, C-I], [C-I, -C-I]] against
  C (_double_certificate); each says why a match proves the identity;
- every other output (paley_conference, shift_antisymmetric, the Williamson
  quadruple) is checked by an exact Gram product (is_orthogonal).
Their entries are not checked again: each is a closed operation on
{-1, 0, 1} (a Kronecker product, blocks of validated blocks and their
negations, D +- I on a zero diagonal), wrapped by SignedMatrix._trusted.
Each output keeps the certificate proven for it, so is_orthogonal of it (in
gen --certify, or in a certificate of its star) proves nothing again.
"""

from __future__ import annotations

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

WILLIAMSON_PRESETS = ("all-c", "two-shifted", "four-shifted", "nonsymmetric-all-c")


def kronecker(a: SignedMatrix, b: SignedMatrix) -> SignedMatrix:
    """Kronecker product; sign entries are closed under it, so int8 is exact."""
    return SignedMatrix._trusted(np.kron(a.data, b.data))


def _require_orthogonal(c: SignedMatrix, name: str) -> int:
    cert = is_orthogonal(c)
    if cert is None:
        raise ValueError(f"{name} is not an orthogonal signed matrix")
    return cert.alpha


def _verified(m: SignedMatrix, alpha: int, what: str) -> tuple[SignedMatrix, OrthogonalityCertificate]:
    """m and its exact Gram certificate, which must have alpha; is_orthogonal keeps it on m."""
    cert = is_orthogonal(m)
    if cert is None or cert.alpha != alpha:
        raise AssertionError(f"{what} failed exact verification with alpha = {alpha}")
    return m, cert


def _kronecker_certificate(
    m: np.ndarray, a: np.ndarray, alpha_a: int, b: np.ndarray, alpha_b: int
) -> OrthogonalityCertificate:
    """Certificate of m = a (x) b with alpha = alpha_a * alpha_b, for square a and b
    with certified a a^t = alpha_a I and b b^t = alpha_b I.

    m is compared with a (x) b entry by entry, as the (na, nb, na, nb) view
    of m against the broadcast a[i, k] * b[j, l]; np.kron, which builds the
    outputs, takes no part in the check. On a match the mixed-product
    identity gives m m^t = (a a^t) (x) (b b^t) = alpha_a I (x) alpha_b I =
    alpha_a alpha_b I, and m^t m = alpha I follows for the square m as in
    is_orthogonal: m^t / alpha is a one-sided, so two-sided, inverse. No
    arithmetic can overflow: every entry is in {-1, 0, 1}, and so is every
    int8 product of two of them. The check reads each entry of m once,
    O(n^2) where a Gram product is O(n^3), a panel of rows of b at a time so
    that the broadcast product stays near KRON_PANEL_BYTES: at order 4096
    one whole-matrix broadcast took 19-21 ms and the panels take 5 ms
    (2-vCPU host).
    A mismatch, in shape or in any entry, is a defect of the construction
    and raises AssertionError.
    """
    na, nb = a.shape[0], b.shape[0]
    if a.shape != (na, na) or b.shape != (nb, nb) or m.shape != (na * nb, na * nb):
        raise AssertionError(f"{m.shape} is not the Kronecker shape of {a.shape} and {b.shape}")
    view = m.reshape(na, nb, na, nb)
    step = max(1, KRON_PANEL_BYTES // (na * na * nb))
    for j0 in range(0, nb, step):
        panel = a[:, None, :, None] * b[None, j0 : j0 + step, None, :]
        if not (view[:, j0 : j0 + step] == panel).all():
            raise AssertionError(
                f"order-{na * nb} output is not the Kronecker product of its factors")
    return OrthogonalityCertificate(alpha_a * alpha_b)


def _certified_kronecker(
    a: SignedMatrix, alpha_a: int, b: SignedMatrix, alpha_b: int
) -> SignedMatrix:
    """a (x) b, keeping the certificate that _kronecker_certificate proves for it."""
    m = kronecker(a, b)
    return _keep_verdict(m, _kronecker_certificate(m.data, a.data, alpha_a, b.data, alpha_b))


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
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


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
    return _verified(SignedMatrix._trusted(c), q, f"conference matrix of order {q + 1}")[0]


# S and E of the doubling [[D+I, D-I], [D-I, -D-I]] = S (x) D + E (x) I
_DOUBLE_SIGNS = np.array([[1, 1], [1, -1]], dtype=np.int8)
_DOUBLE_SHIFTS = np.array([[1, -1], [-1, -1]], dtype=np.int8)


def _double_certificate(b: np.ndarray, d: np.ndarray, alpha: int) -> OrthogonalityCertificate:
    """Certificate of b = [[D+I, D-I], [D-I, -D-I]] with alpha' = 2 alpha + 2, for
    symmetric zero-diagonal d with certified D D^t = D^2 = alpha I.

    b is compared entry by entry with S (x) d + E (x) I, computed from d as
    a broadcast over the (2, n, 2, n) view of b, so np.block, which builds
    the output, takes no part in the check. On a match b is symmetric, and
    b b^t = b^2 has the diagonal blocks (D+I)^2 + (D-I)^2 = 2D^2 + 2I =
    (2 alpha + 2) I and the off-diagonal blocks (D+I)(D-I) - (D-I)(D+I) = 0,
    because D commutes with I; b^t b is the same product. The entries stay
    in {-1, 0, 1}: D +- I only fills the zero diagonal. The check reads each
    entry of b once, O(n^2) where the Gram product of b is O(n^3). A
    mismatch, in shape or in any entry, is a defect of the construction and
    raises AssertionError.
    """
    n = d.shape[0]
    if b.shape != (2 * n, 2 * n) or not (b.reshape(2, n, 2, n) == (
            _DOUBLE_SIGNS[:, None, :, None] * d[None, :, None, :]
            + _DOUBLE_SHIFTS[:, None, :, None] * np.eye(n, dtype=np.int8)[None, :, None, :])).all():
        raise AssertionError(f"order-{2 * n} output is not the doubling of its input")
    return OrthogonalityCertificate(2 * alpha + 2)


def double(c: SignedMatrix) -> tuple[SignedMatrix, OrthogonalityCertificate]:
    """[[C+I, C-I], [C-I, -C-I]] for symmetric zero-diagonal orthogonal C.

    The result is symmetric of twice the order, with square (2*alpha+2) I,
    certified by its block structure (_double_certificate) from the verdict
    kept on C: no Gram product at the output's order.
    """
    if not c.is_square or not _is_symmetric(c.data):
        raise ValueError("input must be a symmetric square matrix")
    if np.any(np.diagonal(c.data) != 0):
        raise ValueError("input must have a zero diagonal")
    alpha = _require_orthogonal(c, "input")
    d = c.data
    eye = np.eye(c.rows, dtype=np.int8)
    b = SignedMatrix._trusted(np.block([[d + eye, d - eye], [d - eye, -d - eye]]))
    cert = _double_certificate(b.data, d, alpha)
    return _keep_verdict(b, cert), cert


def shift_antisymmetric(c: SignedMatrix) -> tuple[SignedMatrix, OrthogonalityCertificate]:
    """C + I for antisymmetric (so zero-diagonal) orthogonal C; the certificate grows by one."""
    if not c.is_square or not _is_symmetric(c.data, -1):
        raise ValueError("input must be an antisymmetric square matrix")
    alpha = _require_orthogonal(c, "input")
    shifted = c.data + np.eye(c.rows, dtype=np.int8)
    return _verified(SignedMatrix._trusted(shifted), alpha + 1, "shifted matrix")


def _row_count(m: SignedMatrix, name: str) -> int:
    counts = _row_nonzeros((m.data != 0).view(np.int8))
    k = int(counts[0])
    if np.any(counts != k):
        raise ValueError(f"{name} does not have a constant number of nonzero entries per row")
    return k


@dataclass(frozen=True)
class WilliamsonQuadruple:
    """Four same-order blocks with row-constant supports, pairwise commuting.

    k1..k4 hold the per-row support size of each block; they are computed,
    never passed, and the commuting invariant is verified exactly at construction, one
    product per pair: [A_i | -A_j] @ [A_j ; A_i] = A_i A_j - A_j A_i must be
    0. Both factors hold {-1, 0, 1} entries and the inner dimension is 2n,
    so every entry is an integer of magnitude at most 2n, and
    core._product_is compares it exactly (its docstring says why). The blocks
    and their negations are cast to float32 once.
    """

    a1: SignedMatrix
    a2: SignedMatrix
    a3: SignedMatrix
    a4: SignedMatrix
    k1: int = field(init=False)
    k2: int = field(init=False)
    k3: int = field(init=False)
    k4: int = field(init=False)

    def __post_init__(self):
        mats = self.blocks()
        n = mats[0].rows
        for idx, m in enumerate(mats, start=1):
            if not m.is_square or m.rows != n:
                raise ValueError(f"block {idx} is {m.rows}x{m.cols}, expected {n}x{n}")
        for name, m in zip(("k1", "k2", "k3", "k4"), mats):
            object.__setattr__(self, name, _row_count(m, f"block {name[1]}"))
        f32 = [m.data.astype(np.float32) for m in mats]
        neg = [-f for f in f32]
        for i in range(4):
            for j in range(i + 1, 4):
                left, right = np.concatenate((f32[i], neg[j]), 1), np.concatenate((f32[j], f32[i]))
                if not _product_is(left, right, 0):
                    raise ValueError(f"blocks {i + 1} and {j + 1} do not commute")

    def blocks(self) -> tuple[SignedMatrix, SignedMatrix, SignedMatrix, SignedMatrix]:
        return self.a1, self.a2, self.a3, self.a4

    @property
    def order(self) -> int:
        return self.a1.rows

    def row_counts(self) -> tuple[int, int, int, int]:
        return self.k1, self.k2, self.k3, self.k4


def _williamson_assemble(a1, a2, a3, a4) -> SignedMatrix:
    return SignedMatrix._trusted(np.block([[a1, a2, a3, a4],
                                           [-a2, a1, -a4, a3],
                                           [-a3, a4, a1, -a2],
                                           [-a4, -a3, a2, a1]]))


# S, the block sign pattern: the assembly of four equal blocks C is S (x) C
_WILLIAMSON_SIGNS = _williamson_assemble(*[np.ones((1, 1), dtype=np.int8)] * 4)
_WILLIAMSON_ALPHA = _require_orthogonal(_WILLIAMSON_SIGNS, "Williamson sign pattern")


def williamson(quad: WilliamsonQuadruple) -> SignedMatrix | None:
    """4n-order block matrix over a quadruple, when the square-sum test passes.

    Returns the assembled matrix exactly when sum(A_i^2) equals the sum of
    the per-row support sizes times the identity; otherwise None. A returned
    matrix is re-verified orthogonal with alpha = k1 + k2 + k3 + k4.

    The square sum is one product [A1 A2 A3 A4] @ [A1; A2; A3; A4] of
    {-1, 0, 1} matrices with inner dimension 4n, so each entry is an integer
    of magnitude at most 4n, and so is s; core._product_is compares it with
    s I exactly (its docstring says why).
    """
    s = sum(quad.row_counts())
    blocks = [m.data for m in quad.blocks()]
    if not _product_is(np.hstack(blocks), np.vstack(blocks), s):
        return None
    return _verified(_williamson_assemble(*blocks), s, "Williamson block matrix")[0]


def williamson_preset(c: SignedMatrix, preset: str) -> SignedMatrix:
    """Fill the Williamson quadruple from one matrix.

    Presets: "all-c" uses four copies of a symmetric orthogonal C;
    "two-shifted" uses (C, C, C-I, C+I) and "four-shifted" uses
    (C+I, C+I, C-I, C-I), both needing a zero diagonal on top of symmetry;
    "nonsymmetric-all-c" accepts any orthogonal C and assembles directly:
    four equal blocks make S (x) C for the 4 x 4 sign pattern S of the
    assembly, certified as a Kronecker product (_kronecker_certificate).
    """
    if preset not in WILLIAMSON_PRESETS:
        raise ValueError(f"unknown preset {preset!r}, expected one of {WILLIAMSON_PRESETS}")
    alpha = _require_orthogonal(c, "input")
    d = c.data
    if preset == "nonsymmetric-all-c":
        return _certified_kronecker(_WILLIAMSON_SIGNS, _WILLIAMSON_ALPHA, c, alpha)
    if not _is_symmetric(c.data):
        raise ValueError(f"preset {preset!r} requires a symmetric matrix")
    if preset == "all-c":
        quad = WilliamsonQuadruple(c, c, c, c)
    else:
        if np.any(np.diagonal(c.data) != 0):
            raise ValueError(f"preset {preset!r} requires a zero diagonal")
        eye = np.eye(c.rows, dtype=np.int8)
        minus = SignedMatrix._trusted(d - eye)
        plus = SignedMatrix._trusted(d + eye)
        if preset == "two-shifted":
            quad = WilliamsonQuadruple(c, c, minus, plus)
        else:
            quad = WilliamsonQuadruple(plus, plus, minus, minus)
    out = williamson(quad)
    if out is None:
        raise AssertionError(f"preset {preset!r} failed the square-sum condition")
    return out


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
