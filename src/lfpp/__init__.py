"""Lattice Liouville first passage percolation: fields, metrics, estimates.

The public surface re-exports the field samplers and smoothing operators,
the weighted-grid distance functionals, the Monte Carlo normalizer
estimation layer, and the experiment harness.  `lfpp.cli.main` backs the
`lfpp` console script.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateAnnulus,
    DegenerateFit,
    EmptyRegion,
    InsufficientTrials,
    InvalidArgument,
    InvalidSpec,
    LfppError,
    MollificationTooFine,
    OutOfDomain,
    OutOfRegion,
)
from .gff import (
    XI_CRIT_REF,
    FieldKind,
    FieldSample,
    LatticeSpec,
    MollifiedField,
    Params,
    add_function,
    bump,
    mollify,
    mollify_localized,
    normalizer_Z,
    rescale_field,
    sample_dirichlet_gff,
    sample_torus_gff,
)
from .metric import (
    Annulus,
    Disk,
    DistResult,
    Mask,
    Path,
    Rect,
    WeightedGrid,
    build_weighted_grid,
    dist_around_annulus,
    dist_internal,
    dist_point,
    dist_sets,
    edge_weight,
    lr_crossing,
    region_box,
    region_mask,
)
from .renorm import (
    ExponentFit,
    MCConfig,
    MedianEstimate,
    RatioSeries,
    clear_estimate_cache,
    crossing_square,
    estimate_a_eps,
    estimate_cache_key,
    estimate_ladder,
    fit_exponent,
    scaling_ratio,
    trial_seed,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentReport,
    Verdict,
    annulus_event_stats,
    convergence_diagnostic,
    field_continuity_check,
    field_sup_bound_check,
    gmc_mass,
    localized_gap,
    run_experiment,
    scale_covariance_test,
    small_segment_sup,
    spearman_trend,
    weyl_shift_test,
)
from .fieldio import read_field, write_field
from .cache import cache_key, cache_lookup, cache_store

__all__ = [
    "__version__",
    # errors
    "LfppError", "InvalidSpec", "InvalidArgument", "OutOfDomain",
    "MollificationTooFine", "EmptyRegion", "OutOfRegion", "DegenerateAnnulus",
    "InsufficientTrials", "DegenerateFit",
    # fields
    "XI_CRIT_REF", "FieldKind", "FieldSample", "LatticeSpec", "MollifiedField",
    "Params", "add_function", "bump", "mollify", "mollify_localized",
    "normalizer_Z", "rescale_field", "sample_dirichlet_gff", "sample_torus_gff",
    # metric
    "Annulus", "Disk", "DistResult", "Mask", "Path", "Rect", "WeightedGrid",
    "build_weighted_grid", "dist_around_annulus", "dist_internal",
    "dist_point", "dist_sets", "edge_weight", "lr_crossing", "region_box",
    "region_mask",
    # renorm
    "ExponentFit", "MCConfig", "MedianEstimate", "RatioSeries",
    "clear_estimate_cache", "crossing_square", "estimate_a_eps",
    "estimate_cache_key", "estimate_ladder", "fit_exponent", "scaling_ratio",
    "trial_seed",
    # experiments
    "EXPERIMENTS", "ExperimentReport", "Verdict",
    "annulus_event_stats", "convergence_diagnostic", "field_continuity_check",
    "field_sup_bound_check", "gmc_mass", "localized_gap", "run_experiment",
    "scale_covariance_test", "small_segment_sup", "spearman_trend",
    "weyl_shift_test",
    # persistence
    "read_field", "write_field",
    "cache_key", "cache_lookup", "cache_store",
]
