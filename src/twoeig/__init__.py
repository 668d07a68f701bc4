"""Signed graphs with exactly two distinct adjacency eigenvalues.

Exact integer-arithmetic certificates for orthogonal signed matrices and
two-eigenvalue adjacency spectra, the classical generators (Hadamard,
conference, Kronecker, doubling, Williamson blocks), the two-graph
correspondence, and 2-lifts that turn good signatures into regular
Ramanujan graphs.
"""

import types as _types

from .constructions import (
    WilliamsonQuadruple,
    conference_block,
    double,
    kronecker,
    kronecker_orthogonal,
    paley_conference,
    shift_antisymmetric,
    sylvester_hadamard,
    williamson,
    williamson_preset,
)
from .core import (
    Graph,
    OrthogonalityCertificate,
    SignedGraph,
    SignedMatrix,
    count_switching_classes,
    disjoint_union,
    enumerate_switching_classes,
    ground,
    is_orthogonal,
    is_regular,
    resign,
    star,
    switching_canonical,
    switching_equivalent,
)
from .lifts_ramanujan import (
    GroundRamanujanReport,
    LemmaRamReport,
    LiftedGraph,
    RamanujanReport,
    TableRowReport,
    bipartite_complement,
    complement,
    ground_ramanujan_from_symmetric,
    is_good_signature,
    is_ramanujan,
    k_c4_complement,
    lemma_ram_check,
    lift_spectrum_check,
    table_row,
    two_lift,
)
from .spectra import (
    Spectrum,
    TwoEigCertificate,
    bipartite_two_eig_check,
    certify_two_eigenvalues,
    degree_from_certificate,
    eigenvalues_symmetric,
    spectrum_union,
)
from .twographs import (
    TwoGraph,
    descendant,
    is_regular_twograph,
    signed_complete_from_graph,
    twograph_from_signed_complete,
    validate_twograph,
)

__version__ = "0.1.0"

# every name imported above, and only those, is public
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _types.ModuleType)))
