"""Eigenvalue computation and exact two-eigenvalue certificates.

Two independent routes to a spectrum live here. The floating-point route
calls LAPACK's symmetric eigensolver (np.linalg.eigvalsh) on any real
symmetric matrix; it prints spectra and compares them with bounds such as
2 sqrt(d - 1), and never decides a certificate. The exact route applies
only to signed graphs whose adjacency satisfies a quadratic
A^2 + aA + bI = 0 with integer a, b: such a certificate is verified entry by
entry with exact integer sums, so it is a proof that the spectrum is exactly
{lambda, mu} with the stated multiplicities, not a numerical estimate.
A star-shaped graph [[O, C], [C^t, O]], up to the order of its vertices, is
certified by its half C alone (star_certificate): the half that core keeps
on the graph (core._star_half), with C's own kept verdict. Both routes end
in one solver, _solved(n, a, b): the whole certified spectrum follows from
the order and the proven identity, so it is derived in that one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OrthogonalityCertificate,
    SignedGraph,
    SignedMatrix,
    _is_symmetric,
    _keep_half,
    _product_is,
    _star_half,
    ground,
    is_orthogonal,
    star,
)

__all__ = [
    "Spectrum",
    "TwoEigCertificate",
    "eigenvalues_symmetric",
    "certify_two_eigenvalues",
    "star_certificate",
    "star_spectrum",
    "degree_from_certificate",
    "bipartite_two_eig_check",
    "spectrum_union",
]

TRACE_CHECK_TOL = 1e-9
DEFAULT_GROUP_TOL = 1e-6
# the largest order eigenvalues_symmetric solves: its float64 copy is then 128 MB and
# np.linalg.eigvalsh copies it once more, and the order-8192 star of an order-4096 C
# would take 512 MB each and tens of seconds; larger orders are for certificates only
_EIGVALSH_MAX_ORDER = 4096


def text_float(v: float) -> str:
    """A report float as text: 6 decimals, and never a signed zero (-1e-17 prints 0.000000)."""
    return f"{round(float(v), 6) + 0.0:.6f}"


def json_float(v: float) -> float:
    """A report float for JSON: rounded to 12 decimals, and never a signed zero."""
    return round(float(v), 12) + 0.0


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues as (value, multiplicity) pairs, finite and descending by value."""

    pairs: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("spectrum must contain at least one eigenvalue")
        for v, m in self.pairs:
            if not math.isfinite(v):
                raise ValueError(f"eigenvalue {v} is not finite")
            if m < 1:
                raise ValueError(f"multiplicity of {v} must be positive, got {m}")
        vals = [v for v, _ in self.pairs]
        if any(x <= y for x, y in zip(vals, vals[1:])):
            raise ValueError("pair values must be strictly descending")

    @property
    def order(self) -> int:
        return sum(m for _, m in self.pairs)

    @classmethod
    def from_values(cls, values, tol: float = DEFAULT_GROUP_TOL) -> "Spectrum":
        """Group raw eigenvalues that lie within tol of their neighbor."""
        return cls.from_pairs(((float(v), 1) for v in values), tol)

    @classmethod
    def from_pairs(cls, pairs, tol: float = DEFAULT_GROUP_TOL) -> "Spectrum":
        """Merge (value, multiplicity) pairs, regrouping at tol."""
        if tol <= 0:
            raise ValueError(f"grouping tolerance must be positive, got {tol}")
        items = sorted((float(v), int(m)) for v, m in pairs)
        if not items:
            raise ValueError("spectrum must contain at least one eigenvalue")
        groups: list[tuple[float, int]] = []
        acc_sum, acc_m, last = 0.0, 0, None
        for v, m in items:
            if m < 1:
                raise ValueError(f"multiplicity of {v} must be positive, got {m}")
            if last is not None and v - last > tol:
                groups.append((acc_sum / acc_m, acc_m))
                acc_sum, acc_m = 0.0, 0
            acc_sum += v * m
            acc_m += m
            last = v
        groups.append((acc_sum / acc_m, acc_m))
        return cls(tuple(reversed(groups)))

    def expand(self) -> list[float]:
        """All eigenvalues with multiplicity, descending."""
        out: list[float] = []
        for v, m in self.pairs:
            out.extend([v] * m)
        return out

    def close_to(self, expected, tol: float = DEFAULT_GROUP_TOL) -> bool:
        """True if pairs match the expected (value, multiplicity) list within tol."""
        want = sorted((float(v), int(m)) for v, m in expected)
        got = sorted(self.pairs)
        return len(want) == len(got) and all(
            abs(v - w) <= tol and m == k for (v, m), (w, k) in zip(got, want)
        )

    def __str__(self):
        return "{" + ", ".join(f"{text_float(v)}: {m}" for v, m in self.pairs) + "}"


@dataclass(frozen=True)
class TwoEigCertificate:
    """Exact witness that a signed adjacency matrix has spectrum {lam, mu}.

    The defining identity A^2 + a A + b I = 0 is checked over the integers
    before this object is built; lam > mu are the real roots of x^2 + ax + b
    and the multiplicities solve the zero-trace linear system.
    """

    a: int
    b: int
    lam: float
    mu: float
    mult_lam: int
    mult_mu: int

    def __post_init__(self):
        if self.lam <= self.mu:
            raise ValueError("lam must exceed mu")
        if self.mult_lam < 1 or self.mult_mu < 1:
            raise ValueError("multiplicities must be positive")

    def spectrum(self, tol: float = DEFAULT_GROUP_TOL) -> Spectrum:
        """{lam: mult_lam, mu: mult_mu}, exact unless lam - mu <= tol merges them."""
        pairs = ((self.lam, self.mult_lam), (self.mu, self.mult_mu))
        return Spectrum(pairs) if self.lam - self.mu > tol > 0 else Spectrum.from_pairs(pairs, tol)


def _refuse_past_eigvalsh(order: int) -> None:
    """Raise ValueError if eigenvalues_symmetric would refuse a matrix of this order."""
    if order > _EIGVALSH_MAX_ORDER:
        raise ValueError(f"order {order} is above {_EIGVALSH_MAX_ORDER}, the largest "
                         "that eigvalsh solves; at this order only the exact certificate "
                         "route (certify_two_eigenvalues, star_certificate) decides")


def _to_symmetric_float(m) -> np.ndarray:
    a = m.data if isinstance(m, SignedMatrix) else np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    _refuse_past_eigvalsh(a.shape[0])
    out = np.array(a, dtype=np.float64)
    if out.shape[0] < 1:
        raise ValueError("matrix must have positive order")
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite")
    if not _is_symmetric(out):
        raise ValueError("matrix is not symmetric")
    return out


def eigenvalues_symmetric(m, tol: float = DEFAULT_GROUP_TOL) -> Spectrum:
    """All eigenvalues of a symmetric matrix, grouped into multiplicities at tol.

    The eigenvalues come from LAPACK's symmetric eigensolver
    (np.linalg.eigvalsh). Their sum is checked against the trace to 1e-9
    before grouping. An order above _EIGVALSH_MAX_ORDER (4096) raises
    ValueError before any float64 copy is made.
    """
    if tol <= 0:
        raise ValueError(f"grouping tolerance must be positive, got {tol}")
    a = _to_symmetric_float(m)
    trace = float(a.trace())
    eigs = np.linalg.eigvalsh(a)
    drift = abs(float(eigs.sum()) - trace)
    if drift > TRACE_CHECK_TOL * max(1.0, abs(trace)):
        raise RuntimeError(f"eigenvalue sum drifted {drift:.3e} from the trace")
    return Spectrum.from_values(eigs, tol)


def certify_two_eigenvalues(sg: SignedGraph) -> TwoEigCertificate | None:
    """Exact certificate that sg has exactly two distinct eigenvalues.

    A^2 + aA + bI = 0 pins (a, b) down: its (0, 0) entry gives b = -deg(v0),
    and at a nonzero entry A_0j it gives a = -(A^2)_0j A_0j. The identity is
    then verified at every entry on and above the diagonal, A^2 = A A^t two
    float32 row panels per product (see core._product_is), which is exact
    because every entry of A^2 and of -aA - bI is an integer of magnitude at
    most n, and enough because both are symmetric. Returns None when no such
    quadratic annihilates A. deg(v0) >= 1 here, so the discriminant
    a^2 - 4b = a^2 + 4 deg(v0) of the roots is at least 4.

    When sg is star(C) = [[O, C], [C^t, O]] up to the order of its vertices,
    A^2 + aA + bI = [[CC^t + bI, aC], [aC^t, C^tC + bI]] in that order. C is
    nonzero, so the identity holds iff a = 0 and CC^t = C^tC = -bI, which is
    is_orthogonal(C) with alpha = -b: the same verdict from a product of half
    the order, 1/8 of the flops (star_certificate). C is the half kept on sg
    (core._star_half), with its own kept verdict, proven at most once per C:
    it stays exact because it is that integer identity on C's bytes, which
    are sg's, and both arrays are still the read-only ones it was found on
    (core._star_half, core.is_orthogonal).
    """
    data = sg.data
    row = data[0]
    degree = int(np.count_nonzero(row))
    if not degree:
        if not data.any():
            raise ValueError("signed graph has no edges")
        # every degree equals -b = deg(v0) = 0 under the identity
        return None
    c = _star_half(sg)
    if c is not None:
        return star_certificate(c)
    j = int(row.nonzero()[0][0])
    a = -int(data[j].astype(np.float32) @ row) * int(row[j])
    b = -degree
    if not _product_is(data, None, -b, -a):
        return None
    return _solved(sg.n, a, b)


def _solved(n: int, a: int, b: int) -> TwoEigCertificate:
    """The certificate of an order-n signed adjacency A with A^2 + aA + bI = 0 proven,
    b < 0: every TwoEigCertificate is built here.

    A is nonzero with zero diagonal, so it is not a multiple of I, and x^2 + ax + b,
    whose discriminant a^2 - 4b is positive, is its minimal polynomial: both roots
    lam > mu are eigenvalues, with multiplicities m_lam, m_mu >= 1 summing to n. With
    r = sqrt(a^2 - 4b), the zero trace reads m_lam lam + m_mu mu =
    (r (m_lam - m_mu) - a n) / 2 = 0. For integer r this gives m_lam = n (a + r) / (2r),
    an integer because it is a multiplicity. For irrational r, r (m_lam - m_mu) = a n
    forces m_lam = m_mu and a = 0: the roots are +-sqrt(-b), n / 2 times each.
    """
    disc = a * a - 4 * b
    r = math.isqrt(disc)
    if r * r == disc:
        lam, mu = (-a + r) / 2, (-a - r) / 2
        mult_lam = n * (a + r) // (2 * r)
    else:
        lam = math.sqrt(-b)
        mu, mult_lam = -lam, n // 2
    return TwoEigCertificate(a, b, float(lam), float(mu), mult_lam, n - mult_lam)


def star_certificate(c: SignedMatrix) -> TwoEigCertificate | None:
    """The certificate of star(C), of order 2n, from C's kept verdict (is_orthogonal),
    without building star(C): A^2 = alpha I, so it is _solved(2n, 0, -alpha)."""
    orth = is_orthogonal(c)
    return None if orth is None else _solved(2 * c.rows, 0, -orth.alpha)


def star_spectrum(c: SignedMatrix, tol: float = DEFAULT_GROUP_TOL) -> Spectrum:
    """eigenvalues_symmetric of star(C), refused by order 2n, with eigenvalues_symmetric's
    message, before the 4n^2-byte star is built."""
    _refuse_past_eigvalsh(2 * c.rows)
    return eigenvalues_symmetric(star(c), tol)


def degree_from_certificate(cert: TwoEigCertificate) -> int:
    """Common degree of the ground graph: -lam*mu, which is -b."""
    return -cert.b


def bipartite_two_eig_check(sg: SignedGraph) -> OrthogonalityCertificate | None:
    """Orthogonality certificate for the off-diagonal block of a bipartite sg.

    Over any balanced bipartition A is [[O, C], [C^t, O]] up to the order of
    the vertices, and A^2 = alpha I iff CC^t = alpha I for its square block C
    (C^tC = alpha I follows), which holds exactly when sg has two distinct
    eigenvalues: the verdict of certify_two_eigenvalues, the same for every
    balanced bipartition. The verdict is that of the half C kept on sg
    (core._star_half), with no ground graph, BFS or gather. Otherwise the
    BFS bipartition balances its components, so it comes out unbalanced only
    when some component is, and then the verdict is None: that component has
    eigenvalue 0, and any edge adds a pair +-lambda (a signed bipartite
    spectrum is symmetric). A balanced one gives C, which is kept on sg for
    the next call of either check (core._keep_half).
    """
    c = _star_half(sg)
    if c is None:
        parts = ground(sg).bipartition()
        if parts is None:
            raise ValueError("ground graph is not bipartite")
        if len(parts[0]) != len(parts[1]):
            return None
        c = _keep_half(sg, SignedMatrix._trusted(sg.data[np.ix_(*parts)]))
    return is_orthogonal(c)


def spectrum_union(a: Spectrum, b: Spectrum, tol: float = DEFAULT_GROUP_TOL) -> Spectrum:
    """Multiset union of two spectra, regrouped at tol."""
    return Spectrum.from_pairs(list(a.pairs) + list(b.pairs), tol)
