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
    poly_eval,
    poly_eval_block,
)
from .graph import (
    GraphParams,
    SeededGraph,
    derive_params,
    edge_targets,
    neighbor,
    neighborhood_bitmap,
)
from .reduction import (
    ReductionReport,
    check_strong_reduction,
    overlap_threshold,
    probe_overlap,
)
from .bmrv import (
    BmrvScheme,
    Labeling,
    NonConvergence,
    greedy_label,
)
from .scheme import RetriesExhausted, Scheme, Stage
from .scheme_one import OneProbeScheme
from .scheme_two import TwoProbeScheme
from .oracle import (
    BudgetExceeded,
    ErrorProfile,
    KernelMismatch,
    error_profile,
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
