"""Exact combinatorics of blow-ups of products of projective spaces.

The lattice layer (contexts, divisor and curve classes, the pairing)
feeds a T-shaped root system whose Weyl orbits enumerate degree-one
classes; the blow-up layer handles minimal divisors, projections and
effective decompositions; the section layer computes exact h0 values,
distinguished sections and generation spans over rational point
configurations on a rational normal curve; the invariant layer builds
the determinantal semiinvariants matching those classes.  Everything is
exact: Fractions and integers throughout, no floating point.
"""

from .blowup_divisors import (
    BlowupContext,
    MembershipResult,
    ProjectionResult,
    classify_minimal_projection,
    decompose_degree1,
    eff_membership,
    effective_decompose,
    enumerate_minimal,
    minimal_class,
    minimal_parameters,
    mult_lower_bound,
    project_class,
)
from .errors import CapExceeded, CoxforgeError, PreconditionError
from .multipoly import MultiPoly
from .nagata_invariants import (
    NagataParams,
    build_F,
    divisor_class_of,
    is_invariant,
    torus_weight,
)
from .picard_lattice import (
    CurveClass,
    DivisorClass,
    LatticeContext,
    anticanonical,
    canonical_class,
    degree,
    format_curve,
    format_divisor,
    hdeg,
    intersect,
    pairing,
)
from .root_system import (
    RootSystemData,
    degree_one_divisors,
    dynkin_label,
    is_finite_type,
    is_minuscule,
    reflect,
    simple_roots,
    weight_coords,
    weights_of_irrep,
    weyl_orbit,
    weyl_orbit_curves,
    weyl_orbit_weights,
)
from .section_spaces import (
    FormSpace,
    GenerationReport,
    PointConfig,
    form_space,
    generation_test,
    h0,
    mult_along_curve,
    mult_at_point,
    section_of,
)
from .verify import CheckResult, Report, render_report, run_all, run_criterion

__version__ = "0.1.0"

__all__ = [
    "BlowupContext", "CapExceeded", "CheckResult", "CoxforgeError",
    "CurveClass", "DivisorClass", "FormSpace", "GenerationReport",
    "LatticeContext", "MembershipResult", "MultiPoly", "NagataParams",
    "PointConfig", "PreconditionError", "ProjectionResult", "Report",
    "RootSystemData", "anticanonical", "build_F",
    "canonical_class", "classify_minimal_projection", "decompose_degree1",
    "degree", "degree_one_divisors", "divisor_class_of", "dynkin_label",
    "eff_membership", "effective_decompose", "enumerate_minimal",
    "form_space", "format_curve", "format_divisor", "generation_test", "h0",
    "hdeg", "intersect", "is_finite_type", "is_invariant", "is_minuscule",
    "minimal_class", "minimal_parameters", "mult_along_curve",
    "mult_at_point", "mult_lower_bound", "pairing", "project_class",
    "reflect", "render_report", "run_all", "run_criterion", "section_of",
    "simple_roots", "torus_weight", "weight_coords", "weights_of_irrep",
    "weyl_orbit", "weyl_orbit_curves", "weyl_orbit_weights",
]
