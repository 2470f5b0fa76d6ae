"""Fourier-analytic toolkit for mutually unbiased bases.

Exact classification of torus points into orthogonality/unbiasedness sets,
complex Hadamard and MUB family constructions with verification, witness
bounds (|B| <= d^2 for orthogonal-or-unbiased systems), Sidon-set row
systems, and the pseudo-MUB linear program with dual certificates.
"""

from .config import BudgetExceededError
from .constructions import (
    ConstructionError,
    SidonSet,
    fourier_matrix,
    prime_mubs,
    prime_power_mubs,
    sidon_row_system,
    sidon_search,
    sidon_verify,
)
from .cyclo import (
    CycloInt,
    IntPolynomial,
    cyclo_add,
    cyclo_conj,
    cyclo_equals_integer,
    cyclo_from_exponent,
    cyclo_mul,
    cyclotomic_polynomial,
)
from .hadamard import (
    HadamardCheck,
    MubFamily,
    dephase,
    family_to_points,
    is_hadamard,
    is_unbiased_pair,
    row_quotient_check,
    verify_family,
)
from .lp import (
    LpProblem,
    LpSolution,
    OrbitTable,
    build_orbits,
    export_lp,
    extract_dual_witness,
    pseudo_mub_check,
    solve_lp,
)
from .torus import PointClass, TorusPoint, classify, difference, ort_ub_rows
from .witness import (
    BoundReport,
    TrigPolynomial,
    check_point_set,
    delsarte_bound,
    eval_h,
    eval_trig,
    expand_h,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "BoundReport",
    "ConstructionError",
    "CycloInt",
    "HadamardCheck",
    "IntPolynomial",
    "LpProblem",
    "LpSolution",
    "MubFamily",
    "OrbitTable",
    "PointClass",
    "SidonSet",
    "TorusPoint",
    "TrigPolynomial",
    "build_orbits",
    "check_point_set",
    "classify",
    "cyclo_add",
    "cyclo_conj",
    "cyclo_equals_integer",
    "cyclo_from_exponent",
    "cyclo_mul",
    "cyclotomic_polynomial",
    "delsarte_bound",
    "dephase",
    "difference",
    "eval_h",
    "eval_trig",
    "expand_h",
    "export_lp",
    "extract_dual_witness",
    "family_to_points",
    "fourier_matrix",
    "is_hadamard",
    "is_unbiased_pair",
    "ort_ub_rows",
    "prime_mubs",
    "prime_power_mubs",
    "pseudo_mub_check",
    "row_quotient_check",
    "sidon_row_system",
    "sidon_search",
    "sidon_verify",
    "solve_lp",
    "verify_family",
]
