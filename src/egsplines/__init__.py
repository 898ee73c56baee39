"""Exact toolkit for extending generalized spline modules on edge-labeled graphs.

Computes the key element from one all-pairs (lcm, gcd) closure of the edge
labels, certifies candidate bases via the determinant criterion over GCD
domains, and synthesizes flow-up bases over PIDs by intersecting one edge
congruence at a time into a triangular basis and normalizing it into
Hermite form.  The brute-force oracle in egsplines.oracle cross-checks
integer instances by a route that shares no code with these.
"""

from .graph import LabeledGraph
from .pid import (
    FlowUpClass,
    TriangularBasis,
    flow_up_basis,
    verify_flow_up,
)
from .rings import (
    QQ,
    ZZ,
    RingDescriptor,
    RingElement,
    format_element,
    parse_element,
    polynomial_ring,
)
from .splines import (
    BasisCertificate,
    NotInSpanError,
    Spline,
    SplineMatrix,
    Verdict,
    certify_basis,
    classical_qg,
    coprime_witness_matrices,
    express_in_basis,
    h_factor,
    is_spline,
    key_element,
    qhat,
    qhat_components,
    spline_determinant,
)

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "ZZ",
    "BasisCertificate",
    "FlowUpClass",
    "LabeledGraph",
    "NotInSpanError",
    "RingDescriptor",
    "RingElement",
    "Spline",
    "SplineMatrix",
    "TriangularBasis",
    "Verdict",
    "certify_basis",
    "classical_qg",
    "coprime_witness_matrices",
    "express_in_basis",
    "flow_up_basis",
    "format_element",
    "h_factor",
    "is_spline",
    "key_element",
    "parse_element",
    "polynomial_ring",
    "qhat",
    "qhat_components",
    "spline_determinant",
    "verify_flow_up",
]
