import math

import numpy as np
import pytest

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

from conftest import random_signed_graph

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
        a = sg.matrix.wide()
        assert abs(eigs.sum() - a.trace()) <= 1e-9
        assert abs((eigs**2).sum() - (a**2).sum()) <= 1e-6


def test_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigenvalues_symmetric([[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="square"):
        eigenvalues_symmetric([[0, 1, 0], [1, 0, 1]])
    with pytest.raises(ValueError, match="finite"):
        eigenvalues_symmetric([[0, np.inf], [np.inf, 0]])


def test_spectrum_text_has_no_signed_zero():
    from twoeig.cli import _fmt

    s = Spectrum.from_values([-1e-17, 1, -1])
    assert str(s) == "{1.000000: 1, 0.000000: 1, -1.000000: 1}"
    assert _fmt(s) == str(s)


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
    a = k6_signing.matrix.wide()
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
    with pytest.raises(ValueError, match="unbalanced"):
        bipartite_two_eig_check(SignedGraph.all_positive(Graph.complete_bipartite(1, 3)))


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


def test_numeric_spectrum_invariant_under_resigning(rng):
    for _ in range(10):
        sg = random_signed_graph(rng, 7)
        resigned = resign(sg, int(rng.integers(7)))
        a = eigenvalues_symmetric(sg, tol=1e-10).expand()
        b = eigenvalues_symmetric(resigned, tol=1e-10).expand()
        assert np.allclose(a, b, atol=1e-9)
