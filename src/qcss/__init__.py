"""Quasi-complementary sequence sets from quaternary families and almost
difference sets: construction, exact correlation verification, and
asymptotic tightness tables.
"""

from .analysis import (
    ConstructionParams,
    TableRecord,
    asymptotic_rho,
    bound_rho,
    construction_params,
    sweep,
    table_rows,
    tables_to_csv,
)
from .binpoly import (
    PRIMITIVE_POLYS,
    is_primitive_binary,
    primitive_polynomial,
)
from .correlation import (
    CorrelationReport,
    PhaseSequence,
    QcssSet,
    build_qcss,
    correlation_tensor,
    periodic_correlation,
    phase_transform,
    report_per_shift_csv,
    report_to_json,
    roots_table,
    tolerances,
    welch_lower_bound,
)
from .diffsets import (
    CANONICAL_PATTERN,
    CosetPattern,
    CyclicSubset,
    SetClassification,
    classify_set,
    coset_union,
    exp_sum_bound,
    exp_sum_profile,
    find_canonical_pattern,
    legendre_ds,
    lift_ads_to_z4f,
    singer_ds,
)
from .errors import ConstructionError
from .z4 import (
    FamilyA,
    build_family_a,
    family_alpha_max,
    family_from_json,
    family_to_json,
    graeffe_lift,
    run_z4_recurrence,
    subset_l,
    z4_correlation,
)

__version__ = "0.1.0"
