"""gyrokit: gyrogroup models, axiom verification, cosets, and prenorm metrics."""

from .core import (AxiomReport, CarrierError, ChainError, CheckResult,
                   CosetError, GyroModel, SampleSpec, TableError,
                   check_axioms, check_identities)
from .cosets import (CosetPartition, homogeneity_translate, is_L_subgyrogroup,
                     is_subgyrogroup, left_cosets, same_coset)
from .models import (EinsteinModel, FiniteTable, MobiusModel, cyclic_table,
                     klein_table, radial_add, radial_half, radial_third,
                     table_load)
from .prenorm import (ChainReport, DyadicChain, DyadicFamily, admissible_hull,
                      admissible_intersection,
                      admissible_quotient_inclusion_check, ball,
                      build_dyadic_family, chain_load, coset_invariant_N_check,
                      metric_d, micro_assoc_check, prenorm_laws_check,
                      quotient_ball, quotient_metric, rho_N, rho_ball, shrink,
                      validate_chain)
from .sets import AxisSet, FiniteSet, OriginSet, RadialBall, parse_subset

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "CarrierError", "ChainError", "CheckResult", "CosetError",
    "GyroModel", "SampleSpec", "TableError", "check_axioms",
    "check_identities", "CosetPartition", "homogeneity_translate",
    "is_L_subgyrogroup", "is_subgyrogroup", "left_cosets", "same_coset",
    "EinsteinModel", "FiniteTable", "MobiusModel", "cyclic_table",
    "klein_table", "radial_add", "radial_half", "radial_third", "table_load",
    "ChainReport", "DyadicChain", "DyadicFamily", "admissible_hull",
    "admissible_intersection", "admissible_quotient_inclusion_check", "ball",
    "build_dyadic_family", "chain_load", "coset_invariant_N_check",
    "metric_d", "micro_assoc_check", "prenorm_laws_check",
    "quotient_ball", "quotient_metric", "rho_N", "rho_ball", "shrink",
    "validate_chain",
    "AxisSet", "FiniteSet", "OriginSet", "RadialBall", "parse_subset",
    "__version__",
]
