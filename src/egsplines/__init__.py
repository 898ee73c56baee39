"""Exact toolkit for extending generalized spline modules on edge-labeled graphs.

Computes the key element from one all-pairs (lcm, gcd) closure of the edge
labels, certifies candidate bases via the determinant criterion over GCD
domains, and synthesizes flow-up bases over PIDs by intersecting one edge
congruence at a time into a triangular basis and normalizing it into
Hermite form, with brute-force oracles for integer instances.
"""

from .graph import LabeledGraph, trail_constraint
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
    exact_div,
    format_element,
    gcd,
    gcd_many,
    is_associate,
    is_unit,
    lcm,
    lcm_many,
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
    qhat_span_decomposition,
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
    "exact_div",
    "express_in_basis",
    "flow_up_basis",
    "format_element",
    "gcd",
    "gcd_many",
    "h_factor",
    "hermite_form",
    "is_associate",
    "is_spline",
    "is_unit",
    "key_element",
    "lcm",
    "lcm_many",
    "parse_element",
    "polynomial_ring",
    "qhat",
    "qhat_components",
    "qhat_span_decomposition",
    "spline_determinant",
    "trail_constraint",
    "trails_between",
    "verify_flow_up",
]
