"""Exact-rational constructions of pattern-avoiding sets and their
finite-scale certification.

The package builds the classical avoiders for slowly decreasing
sequences, gap-tree presentations of Cantor sets with thickness
accounting, constructive intersection walkers, windowed avoiders for
unbounded sequences, and density/coverage probes, all over exact
rational arithmetic so every reported quantity is a certificate rather
than an approximation.
"""

__version__ = "0.1.0"

from .intervals import (
    Gap,
    Interval,
    IntervalSet,
    ParamBox,
    box_image,
    ivl,
)
from .gaptree import (
    GapTree,
    Thickness,
    affine_tree,
    decompose,
    from_middle_ratio,
    thickness,
    to_interval_set,
    tree_from_json,
    tree_to_json,
)
from .intersect import (
    GapLemmaVerdict,
    WalkTrace,
    build_tilde,
    check_gap_lemma,
    containment_walk,
    perturbation_delta,
)
from .enclosures import ln2_enclosure, ln_enclosure, ln_interval, root_enclosure, sqrt_enclosure
from .rationals import as_rational, format_rational, parse_rational
from .sequences import (
    SequenceSpec,
    custom,
    explicit,
    geometric_down,
    geometric_up,
    linear,
    reciprocal,
    reciprocal_power,
)
from .smallscale import (
    AvoiderResult,
    EscapeCertificate,
    PiecewiseLinearMap,
    build_sublacunary_avoider,
    certify_no_affine_copy,
    embed_lacunary,
    erdos_point_probe,
    grid_boxes,
    kolountzakis_delta,
    regularize_subsequence,
    slope_envelope,
    steinhaus_embed,
    validate_certificate,
)
from .largescale import (
    ClusterCheck,
    CoefficientMassBound,
    DigitSchedule,
    LinearEscapeCertificate,
    LogEscapeCertificate,
    Mod1Profile,
    PLargeSet,
    certify_linear_escape,
    countable_dilation_avoider,
    density_mod1,
    digit_avoider,
    dubickas_gap_check,
    ell_upper_bound,
    fractional_set,
    geometric_escape_via_log,
    is_p_large,
    point_escape_index,
    quotient_avoider,
    sweep_linear_escape,
    sweep_log_escape,
    validate_linear_escape,
)
from .sumsets import (
    CoverageReport,
    DyadicFamily,
    FrameCertifier,
    FrameTrace,
    build_dyadic_family,
    escape_to_coverage_params,
    select_frame,
    sumset_cover_probe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
