"""Exact root-system combinatorics for quasisimple regular Kac-Moody superalgebras."""

from .cartan import CartanData, RankOneType, ValidationReport, normalize, rank_one_type, symmetrizer, validate
from .catalog import CatalogType, EpsDeltaVector, RootSystemHandle, build, parse_type
from .basegraph import (
    Base,
    RealRootsResult,
    enumerate_real_roots,
    even_reflect_base,
    odd_reflect_base,
    principal_roots,
    standard_base,
)
from .pisystem import (
    RootSet,
    admits_pi_system,
    classify_subset,
    closure_S_infinity,
    is_pi_system,
    minimal_positive_elements,
    pi_of_psi,
    reflect,
    root_set,
)
from .rootstring import check_unbroken, pairing_laws, root_string, string_pattern, sweep_strings
from .oracle import (
    GradedMatrix,
    bracket_criteria_sweep,
    generated_subalgebra,
    osp12_module_table,
    realize,
    subalgebra_real_roots,
    verify_dynkin_maps,
    verify_theorem_main,
)

__version__ = "0.1.0"

__all__ = [
    "CartanData",
    "RankOneType",
    "ValidationReport",
    "normalize",
    "validate",
    "symmetrizer",
    "rank_one_type",
    "CatalogType",
    "EpsDeltaVector",
    "RootSystemHandle",
    "build",
    "parse_type",
    "Base",
    "RealRootsResult",
    "standard_base",
    "odd_reflect_base",
    "even_reflect_base",
    "enumerate_real_roots",
    "principal_roots",
    "RootSet",
    "root_set",
    "reflect",
    "is_pi_system",
    "closure_S_infinity",
    "classify_subset",
    "minimal_positive_elements",
    "pi_of_psi",
    "admits_pi_system",
    "verify_dynkin_maps",
    "root_string",
    "check_unbroken",
    "string_pattern",
    "pairing_laws",
    "sweep_strings",
    "GradedMatrix",
    "realize",
    "generated_subalgebra",
    "subalgebra_real_roots",
    "verify_theorem_main",
    "bracket_criteria_sweep",
    "osp12_module_table",
    "__version__",
]
