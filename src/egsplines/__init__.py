"""Exact toolkit for extending generalized spline modules on edge-labeled graphs.

Computes the key element from one all-pairs (lcm, gcd) closure of the edge
labels, certifies candidate bases via the determinant criterion over GCD
domains, and synthesizes flow-up bases over PIDs by intersecting one edge
congruence at a time into a triangular basis and normalizing it into
Hermite form, with brute-force oracles for integer instances.
"""

from .graph import LabeledGraph
from .oracle import Trail, trails_between
from .pid import (
    FlowUpClass,
    TriangularBasis,
    flow_up_basis,
    hermite_form,
    verify_flow_up,
)
from .rings import (
    QQ,
    ZZ,
    Congruence,
    RingDescriptor,
    RingElement,
    crt,
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
    "Congruence",
    "FlowUpClass",
    "LabeledGraph",
    "NotInSpanError",
    "RingDescriptor",
    "RingElement",
    "Spline",
    "SplineMatrix",
    "Trail",
    "TriangularBasis",
    "Verdict",
    "certify_basis",
    "classical_qg",
    "coprime_witness_matrices",
    "crt",
    "express_in_basis",
    "flow_up_basis",
    "format_element",
    "h_factor",
    "hermite_form",
    "is_spline",
    "key_element",
    "parse_element",
    "polynomial_ring",
    "qhat",
    "qhat_components",
    "spline_determinant",
    "trails_between",
    "verify_flow_up",
]
