"""Bit-probe membership schemes with one-sided error and a cached seed word."""

from .bits import Bitmap
from .gf import (
    GF2_3,
    GF2_8,
    GF2_16,
    GF2_32,
    GF2_64,
    FieldSpec,
    PolySeed,
    default_indep_k,
    draw_seed,
    field_for_width,
    field_mul,
    poly_eval,
    poly_eval_block,
    seed_from_index,
)
from .graph import (
    ExplicitGraph,
    GraphParams,
    SeededGraph,
    derive_params,
    edge_targets,
    materialize,
    neighbor,
    neighborhood_bitmap,
)
from .reduction import (
    ReductionReport,
    check_reduction_property,
    check_strong_reduction,
    overlap_threshold,
    probe_overlap,
)
from .bmrv import (
    BmrvScheme,
    Labeling,
    LabelingReport,
    NonConvergence,
    greedy_label,
    verify_labeling,
)
from .scheme import RetriesExhausted, Scheme, Stage
from .scheme_one import OneProbeScheme
from .scheme_two import TwoProbeScheme, compute_misclassified
from .oracle import (
    BudgetExceeded,
    ErrorProfile,
    error_profile,
    kwise_uniformity_check,
    verify_expander,
)
from .storage import (
    BadMagic,
    InvariantViolation,
    SchemeFileError,
    TruncatedSection,
    UnsupportedVersion,
    load,
    save,
    section_layout,
)

__version__ = "0.1.0"
