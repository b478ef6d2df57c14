"""The package's public names: a frozen list, every name resolving, no
class that reads JSON back (the package writes JSON and never parses it),
and no private helper or unexported public function that only tests reach."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import coxforge

PUBLIC = [
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


def test_public_names_are_frozen_and_resolve():
    assert sorted(coxforge.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(coxforge, name) is not None


def test_no_class_defines_a_json_reader():
    for info in pkgutil.iter_modules(coxforge.__path__):
        module = importlib.import_module(f"coxforge.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                assert "from_json" not in vars(cls), cls.__qualname__


def _uncalled(src: Path, wanted) -> list:
    """Top-level functions and methods of top-level classes under `src` that
    `wanted(function, in_class)` selects and no code under `src` names
    outside their own body."""
    defs, refs = [], []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            in_class = isinstance(node, ast.ClassDef)
            members = node.body if in_class else [node]
            defs += [(path.name, f) for f in members
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and wanted(f, in_class)]
        refs += [n for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]
    uncalled = []
    for module, fn in defs:
        inside = {id(n) for n in ast.walk(fn)}
        if not any(getattr(n, "id", getattr(n, "attr", None)) == fn.name and id(n) not in inside
                   for n in refs):
            uncalled.append(f"{module}:{fn.name}")
    return uncalled


def test_every_private_helper_has_a_caller_in_the_package():
    src = Path(coxforge.__file__).parent
    assert _uncalled(src, lambda f, _: f.name.startswith("_") and not f.name.endswith("__")) == []


# the benchmark traces nullspace by name, so it stays until the benchmark drops it
UNEXPORTED_AND_UNCALLED = ["linalg.py:nullspace"]


def test_every_unexported_public_function_has_a_caller_in_the_package():
    src = Path(coxforge.__file__).parent
    exported = set(coxforge.__all__)
    assert _uncalled(src, lambda f, in_class: not in_class and not f.name.startswith("_")
                     and f.name not in exported) == UNEXPORTED_AND_UNCALLED
