"""Computational toolkit for del Pezzo fibrations over the projective line:
Picard lattices, curve-class enumeration, Weyl monodromy, Fujita invariants,
height thresholds, ruled-surface fiber calculus, and section counting.

The names in `__all__`, the public API of the submodules and the submodules
themselves, load their module on first access (PEP 562), so importing the
package, or one module of it, loads nothing else.
"""

from importlib import import_module as _import_module

# module -> the public names it exports at the top level
_EXPORTS = {
    "counting": (
        "AlphaResult", "CountingModel", "alpha", "asymptotic", "convergence_report",
        "count_exact", "default_model", "lattice_points_at_height", "load_model",
        "model_from_json", "model_to_json", "tau", "theorem_constant",
    ),
    "curves": (
        "Cone", "CurveClassKind", "break_fiber_class", "classify_kind",
        "decompose_nef_integral", "effective_cone_generators", "enumerate_conic_classes",
        "enumerate_cubic_classes", "enumerate_neg_one_curves", "is_nef",
        "nef_classes_of_height", "nef_curve_cone",
    ),
    "errors": (
        "CapExceeded", "DecompositionNotFound", "DomainError", "FieldError",
        "HeightBelowModel", "NonIntegralCoefficient", "NotApplicable", "NotFound",
        "ToolkitError",
    ),
    "fujita": (
        "INFINITE_A", "AInvariantClass", "PolarizedSurface", "a_invariant",
        "classify_vertical_family", "hirzebruch_polarized", "larger_a_locus",
        "polarized_del_pezzo",
    ),
    "linalg": (),
    "picard": (
        "DEFAULT_CAP", "WEYL_ORDERS", "PicardLattice", "Vec", "anticanonical_degree",
        "check_cap", "make_lattice", "pair",
    ),
    "ruled": (
        "BreakResult", "FiberTree", "HirzebruchModel", "NormalBundleType", "SectionClass",
        "blow_up_fiber", "break_section", "contract_keeping_section", "fibertree_from_json",
        "fibertree_to_json", "fuzz_blow_up_sequences", "glue_normal_bundle",
        "irreducible_fiber", "minimal_moving_height", "reachable_balanced_heights",
        "section_height", "verify_second_minus_one", "with_marked",
    ),
    "thresholds": (
        "FibrationProfile", "MbbSource", "NefConeEta", "ThresholdReport", "gw_thresholds",
        "list_shipped_profiles", "load_profile", "maxdef_height_bound", "maxdef_of_x",
        "mbb_bound", "monotone_corners", "non_dominant_threshold", "profile_to_dict",
        "q_of_x", "same_a_low_height_bound", "threshold_report",
    ),
    "weyl": (
        "FiniteGroup", "OrbitPartition", "conic_bundle_extension_analysis",
        "find_diagonal_cubic_subgroup", "generate_group", "invariant_sublattice", "orbits",
        "orbits_under_generators", "simple_roots", "validate_isometry", "weyl_generators",
    ),
}
# exported name -> its module; a submodule name is its own module
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
