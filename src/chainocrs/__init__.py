"""Matroid online contention resolution via sampled spanning chains."""

from .bitset import full_mask, ids_of, iter_ids, mask_of
from .chains import (
    BuildTrace,
    ChainPlan,
    LinkParams,
    LinkTrace,
    ParamOverrides,
    SpanningChain,
    chain_plan,
    minimal_link_construction,
    ocrs_chain,
    scheme_plan,
    single_ocrs_link,
)
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    ValidationReport,
    matroid_from_descriptor,
    validate_axioms,
)
from .sampling import (
    RngStream,
    as_marginals,
    filter_actives,
    in_scaled_polytope,
    sample_active_set,
    scale,
    span_probabilities,
)
from .selection import (
    SelectabilityReport,
    TrialOutcome,
    chain_ocrs_trial,
    element_last_accepts,
    run_selection,
    selectability_experiment,
    worst_case_order,
)
from .verify import (
    AuditTable,
    TAlphaResult,
    VerifyReport,
    brute_force_T_alpha,
    sample_complexity_audit,
    t_alpha_bullets_hold,
    verify_freeness_likely,
    verify_in_link_loss,
    verify_progress,
    verify_spanning,
    verify_t_alpha,
)

__version__ = "0.1.0"
