"""Exact-rational constructions of pattern-avoiding sets and their
finite-scale certification.

The package builds the classical avoiders for slowly decreasing
sequences, gap-tree presentations of Cantor sets with thickness
accounting, constructive intersection walkers, windowed avoiders for
unbounded sequences, and density/coverage probes, all over exact
rational arithmetic so every reported quantity is a certificate rather
than an approximation.

Submodules load on first use.  `import erdosavoid` registers each one
in `sys.modules` as an `importlib.util.LazyLoader` placeholder, and a
placeholder runs its module at the first attribute read.  The public
names below resolve through the module `__getattr__` (PEP 562), so a
process, each CLI target included, runs only the modules it touches.
"""

import importlib.machinery
import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "intervals": ("Gap", "Interval", "IntervalSet", "ParamBox", "box_image", "ivl"),
    "gaptree": (
        "GapTree", "Thickness", "affine_tree", "from_middle_ratio", "thickness",
        "to_interval_set", "tree_to_json",
    ),
    "intersect": (
        "GapLemmaVerdict", "WalkTrace", "build_tilde", "check_gap_lemma",
        "containment_walk", "perturbation_delta",
    ),
    "enclosures": (
        "ln2_enclosure", "ln_enclosure", "ln_interval", "sqrt_enclosure",
    ),
    "rationals": ("as_rational", "format_rational", "parse_rational"),
    "sequences": (
        "SequenceSpec", "custom", "explicit", "geometric_down", "geometric_up",
        "linear", "reciprocal", "reciprocal_power",
    ),
    "smallscale": (
        "AvoiderResult", "EscapeCertificate", "PiecewiseLinearMap",
        "build_sublacunary_avoider", "certify_no_affine_copy", "embed_lacunary",
        "grid_boxes", "kolountzakis_delta", "slope_envelope",
    ),
    "largescale": (
        "ClusterCheck", "CoefficientMassBound", "DigitSchedule",
        "LinearEscapeCertificate", "LogEscapeCertificate", "Mod1Profile", "PLargeSet",
        "certify_linear_escape", "density_mod1", "digit_avoider",
        "dubickas_gap_check", "ell_upper_bound", "fractional_set",
        "geometric_escape_via_log", "is_p_large", "point_escape_index",
        "quotient_avoider", "sweep_linear_escape", "sweep_log_escape",
        "validate_linear_escape",
    ),
    "sumsets": (
        "CoverageReport", "DyadicFamily", "FrameCertifier", "FrameTrace",
        "build_dyadic_family", "escape_to_coverage_params", "select_frame",
        "sumset_cover_probe",
    ),
}
# public name -> the submodule that defines it
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("errors", *_EXPORTS)

__all__ = sorted([*_OWNER, *_SUBMODULES])


def _placeholder(name: str):
    """The submodule `name`, registered in `sys.modules` as a placeholder
    that runs it on first use."""
    fullname = f"{__name__}.{name}"
    spec = importlib.machinery.PathFinder.find_spec(fullname, __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _placeholder(name) for name in _SUBMODULES})


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
