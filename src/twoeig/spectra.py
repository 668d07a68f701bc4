"""Eigenvalue computation and exact two-eigenvalue certificates.

Two independent routes to a spectrum live here. The floating-point route
calls LAPACK's symmetric eigensolver (np.linalg.eigvalsh) on any real
symmetric matrix; it prints spectra and compares them with bounds such as
2 sqrt(d - 1), and never decides a certificate. The exact route applies
only to signed graphs whose adjacency satisfies a quadratic
A^2 + aA + bI = 0 with integer a, b: such a certificate is verified entry by
entry with exact integer sums, so it is a proof that the spectrum is exactly
{lambda, mu} with the stated multiplicities, not a numerical estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OrthogonalityCertificate,
    SignedGraph,
    SignedMatrix,
    _product_is,
    ground,
    is_orthogonal,
)

__all__ = [
    "Spectrum",
    "TwoEigCertificate",
    "eigenvalues_symmetric",
    "certify_two_eigenvalues",
    "degree_from_certificate",
    "bipartite_two_eig_check",
    "spectrum_union",
]

TRACE_CHECK_TOL = 1e-9
DEFAULT_GROUP_TOL = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues as (value, multiplicity) pairs, descending by value."""

    pairs: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("spectrum must contain at least one eigenvalue")
        for v, m in self.pairs:
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

    def records(self) -> list[dict]:
        return [{"value": round(v, 12) + 0.0, "multiplicity": m} for v, m in self.pairs]

    def __str__(self):
        return "{" + ", ".join(f"{round(v, 6) + 0.0:.6f}: {m}" for v, m in self.pairs) + "}"


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


def _to_symmetric_float(m) -> np.ndarray:
    if isinstance(m, SignedGraph):
        a = m.matrix.data
    elif isinstance(m, SignedMatrix):
        a = m.data
    else:
        a = np.asarray(m)
    out = np.array(a, dtype=np.float64)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"matrix must be square, got shape {out.shape}")
    if out.shape[0] < 1:
        raise ValueError("matrix must have positive order")
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(out, out.T):
        raise ValueError("matrix is not symmetric")
    return out


def eigenvalues_symmetric(m, tol: float = DEFAULT_GROUP_TOL) -> Spectrum:
    """All eigenvalues of a symmetric matrix, grouped into multiplicities at tol.

    The eigenvalues come from LAPACK's symmetric eigensolver
    (np.linalg.eigvalsh). Their sum is checked against the trace to 1e-9
    before grouping.
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
    then verified at every entry, A^2 one float32 row panel at a time, which
    is exact because every entry is an integer of magnitude at most n (see
    core._product_is). Returns None when no such quadratic annihilates A.

    When n is even and both diagonal n/2 x n/2 blocks are zero, A is
    star(C) = [[O, C], [C^t, O]] and A^2 + aA + bI = [[CC^t + bI, aC],
    [aC^t, C^tC + bI]]. C is nonzero, so the identity holds iff a = 0 and
    CC^t = C^tC = -bI, which is is_orthogonal(C) with alpha = -b: the same
    verdict from a product of half the order, 1/8 of the flops.
    """
    data = sg.matrix.data
    n = sg.n
    row = data[0]
    degree = int(np.count_nonzero(row))
    if not degree:
        if not data.any():
            raise ValueError("signed graph has no edges")
        # every degree equals -b = deg(v0) = 0 under the identity
        return None
    h = n // 2
    if n % 2 == 0 and not data[:h, :h].any() and not data[h:, h:].any():
        cert = is_orthogonal(SignedMatrix(data[:h, h:]))
        if cert is None:
            return None
        a, b = 0, -cert.alpha
    else:
        j = int(row.nonzero()[0][0])
        a = -int(data[j].astype(np.float32) @ row) * int(row[j])
        b = -degree

        def target(r0: int, r1: int) -> np.ndarray:
            t = data[r0:r1] * np.float32(-a)
            np.fill_diagonal(t[:, r0:r1], -b)
            return t

        if not _product_is(data, data, target):
            return None
    disc = a * a - 4 * b
    if disc <= 0:
        return None
    r = math.isqrt(disc)
    if r * r == disc:
        lam = (-a + r) / 2
        mu = (-a - r) / 2
        num = n * (a + r)
        if num % (2 * r):
            return None
        mult_lam = num // (2 * r)
    else:
        # Irrational roots come in a conjugate pair, forcing equal
        # multiplicities, which with zero trace forces a = 0.
        if a != 0 or n % 2:
            return None
        root = math.sqrt(-b)
        lam, mu = root, -root
        mult_lam = n // 2
    mult_mu = n - mult_lam
    if mult_lam < 1 or mult_mu < 1:
        return None
    return TwoEigCertificate(a, b, float(lam), float(mu), mult_lam, mult_mu)


def degree_from_certificate(cert: TwoEigCertificate) -> int:
    """Common degree of the ground graph: -lam*mu, which is -b."""
    return -cert.b


def bipartite_two_eig_check(sg: SignedGraph) -> OrthogonalityCertificate | None:
    """Orthogonality certificate for the off-diagonal block of a bipartite sg.

    The block C over a balanced bipartition satisfies CC^t = C^tC = alpha I
    exactly when sg has two distinct eigenvalues, so this is an exact
    integer-arithmetic route to the same verdict as certify_two_eigenvalues.
    """
    parts = ground(sg).bipartition()
    if parts is None:
        raise ValueError("ground graph is not bipartite")
    x, y = parts
    if len(x) != len(y):
        raise ValueError(f"bipartition is unbalanced: parts of size {len(x)} and {len(y)}")
    block = SignedMatrix(sg.matrix.data[np.ix_(x, y)])
    return is_orthogonal(block)


def spectrum_union(a: Spectrum, b: Spectrum, tol: float = DEFAULT_GROUP_TOL) -> Spectrum:
    """Multiset union of two spectra, regrouped at tol."""
    return Spectrum.from_pairs(list(a.pairs) + list(b.pairs), tol)
