"""The package's public surface: the 52 names `effectgeom` exports, each
declared once in the `__all__` of the module that defines it."""

import ast
import importlib
from pathlib import Path

import pytest

import effectgeom

PUBLIC = [
    "CellCounts",
    "CompatibilityQuery",
    "DEFAULT_BOUNDS",
    "DEFAULT_EPS",
    "DegenerateCountsError",
    "DomainError",
    "EffectGeomError",
    "HomogeneityQuery",
    "LogisticCoords",
    "MEASURES",
    "OutOfDomainError",
    "PoissonCoords",
    "PowerResult",
    "PriorSpec",
    "RiskTable",
    "RrEtaCoords",
    "RrOpCoords",
    "SCALES",
    "SYSTEMS",
    "ScalePower",
    "StratumPair",
    "StudyDesign",
    "UnsupportedSystemError",
    "UnsupportedTargetError",
    "VolumeEstimate",
    "check_compatibility",
    "complete_table",
    "estimate",
    "eta",
    "eta_attainable",
    "eta_infimum",
    "exact_probability",
    "from_logistic",
    "from_poisson",
    "from_rr_eta",
    "from_rr_op",
    "is_feasible",
    "measure_range",
    "odds_product",
    "odds_ratio",
    "relative_risk",
    "risk_difference",
    "simulate_dataset",
    "simulate_power",
    "solve_stratum_from_rr_eta",
    "solve_stratum_from_rr_op",
    "to_logistic",
    "to_poisson",
    "to_rr_eta",
    "to_rr_op",
    "wald_interaction",
    "wald_interaction_pvalue",
]

MODULES = ["coords", "errors", "homogeneity", "power", "table", "volume"]


def _module(name):
    return importlib.import_module(f"effectgeom.{name}")


def _top_level_definitions(module):
    """Names a module binds at top level by def, class or assignment, not by import."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_exports_the_52_names():
    assert len(PUBLIC) == 52
    assert sorted(effectgeom.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from effectgeom import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert not set(namespace) & {*MODULES, "mc", "cli"}


def test_each_name_is_declared_in_exactly_one_module():
    declared = [name for module in MODULES for name in _module(module).__all__]
    assert sorted(declared) == PUBLIC


@pytest.mark.parametrize("module", MODULES)
def test_module_all_lists_only_its_own_definitions(module):
    mod = _module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert set(mod.__all__) <= _top_level_definitions(mod)


@pytest.mark.parametrize("module", MODULES)
def test_package_names_are_the_module_objects(module):
    mod = _module(module)
    for name in mod.__all__:
        assert getattr(effectgeom, name) is getattr(mod, name), name
