"""Isoperimetric, gauge-theoretic and spectral computations on magnetic graphs."""

from .errors import MagnetoError
from .groups import CIRCLE, CYCLIC, GroupElement
from .graph import (
    MagneticGraph,
    build_graph,
    cartesian_product,
    cartesian_product_many,
    graph_from_json,
    graph_from_json_dict,
)
from .frustration import (
    FrustrationResult,
    PackedCycle,
    frustrated_cycle_packing,
    frustration_cycle_oracle,
    frustration_exact,
    frustration_heuristic,
    l1_switch_cost,
)
from .isoperimetry import (
    CutReport,
    IsoperimetricResult,
    ProductAdditivityReport,
    SearchStats,
    cheeger_constant,
    isoperimetric_constant,
    torus_cheeger_bounds,
    verify_product_additivity,
)
from .functional import (
    QuotientReport,
    bernoulli_check,
    coarea_lhs,
    complex_power,
    extremal_certificate,
    key_average_circle,
    key_average_cyclic,
    measure_norm,
    normalize_vertex_function,
    quotient_infimum_search,
    radial_function,
    sector_function,
    signed_gradient_norm,
    verify_sobolev,
)
from .spectral import (
    SpectralData,
    domination_check,
    eigendecomposition,
    eigenvalue_lower_bound_check,
    heat_kernel,
    heat_kernel_properties_check,
    kato_check,
    magnetic_laplacian,
    positivity_check,
    spectral_data,
    trace_bound_check,
    trace_bound_constant,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
