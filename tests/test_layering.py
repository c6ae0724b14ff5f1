"""Module boundaries of the package, checked from the source text.

No module imports a private name from another, no import hides inside a
function body, every module can be the first one a fresh interpreter
imports (so no import order is needed to break a cycle), and every public
module-level function serves the package: something in ``src/`` uses it or
``infogame`` exports it. Test-only helpers live under ``tests/``. The
production game builds on the kernel alone, not on the formation game's
equilibrium or analytic layers, the kernel builds on the entropy module
alone, and the kernel alone turns spanning trees into profiles: every other
module takes its sponsored trees from it. ``kernel.components`` is the one
component walk; no module defines or names the scalar one. Each kernel table
has one form: no module names a per-size cache switch (``TABLE_AGENTS``), an
uncached twin of a cached function (``__wrapped__``) or a second walk
(``_reach``). Retired names stay retired: no module defines or names the
tree-slice knob (``TREE_ROWS``), a count kept apart from the candidates
it counts (``_candidate_count``), or a batch-of-one or delegate wrapper: the
production check of one profile (``is_production_ne``), the pmf builder of
one pmf (``from_joint_pmf``), the cost model's least link cost
(``min_cost``), which its one reader takes inline, a private cached twin
of the config's ``h_bar`` (``_h_bar``), and the production config's regime test
(``high_cost``), a second tie rule: every threshold is judged by ``entropy.band``.
No module imports numpy's random module or reads it as ``np.random``: it maps OpenSSL into every
process that loads it, and verify draws from a pure-Python stream. Every sort is numpy's stable one: no module
calls ``np.unique``, and every ``sort`` / ``argsort`` call passes ``kind="stable"`` (``np.lexsort``
is stable already), since a process maps each numpy sort kernel's code the first time it runs it.
No module imports a flag parser (``argparse``, ``optparse``, ``getopt``): each loads ``gettext``, and
argparse's first message loads ``locale``'s alias tables, about 0.6 MB in every CLI process that
reads three flags. The package exports a fixed set of names: a link profile is an int64 row array,
so no profile class is among them. The package's modules hold at most ``SRC_LINES`` lines in all.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

import infogame

SRC = Path(infogame.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
SCALAR_WALK = {"component_masks", "undirected_adjacency"}
SECOND_FORMS = {"TABLE_AGENTS", "__wrapped__", "_reach"}
RETIRED = {"TREE_ROWS", "_candidate_count", "is_production_ne", "from_joint_pmf", "min_cost", "_h_bar", "high_cost"}
FLAG_PARSERS = {"argparse", "optparse", "getopt"}
# the size gate of the whole package
SRC_LINES = 3000


def parsed(module):
    path = SRC / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_imported_across_modules(module):
    bad = [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
           for node in ast.walk(parsed(module))
           if isinstance(node, ast.ImportFrom) and node.level > 0
           for alias in node.names if alias.name.startswith("_")]
    assert bad == []


def imported_modules(module):
    """Sibling modules that ``module`` imports, relatively or as ``infogame.<name>``."""
    paths = []
    for node in ast.walk(parsed(module)):
        if isinstance(node, ast.ImportFrom):
            base = ("infogame." if node.level else "") + (node.module or "")
            paths += [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
    return {path.split(".")[1] for path in paths if path.startswith("infogame.")}


def test_kernel_builds_on_entropy_only():
    # the payoff tables it reads belong to the game, so the kernel never sees a GameConfig
    assert imported_modules("kernel") <= {"entropy"}


def test_production_builds_on_the_kernel_only():
    assert imported_modules("production") & {"equilibrium", "analytic"} == set()
    assert "kernel" in imported_modules("production")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "kernel"])
def test_only_the_kernel_names_spanning_trees(module):
    names = [node.lineno for node in ast.walk(parsed(module))
             if getattr(node, "id", None) == "spanning_trees" or getattr(node, "attr", None) == "spanning_trees"
             or isinstance(node, ast.alias) and node.name == "spanning_trees"]
    assert names == []


def lines_naming(module, names):
    """Lines of ``module`` that define, import or name one of ``names``."""
    return [node.lineno for node in ast.walk(parsed(module))
            if isinstance(node, (ast.FunctionDef, ast.alias)) and node.name in names
            or getattr(node, "id", None) in names or getattr(node, "attr", None) in names]


@pytest.mark.parametrize("module", MODULES)
def test_the_kernel_walk_is_the_only_component_walk(module):
    # the scalar walk lives under tests/ as the oracle of kernel.components
    assert lines_naming(module, SCALAR_WALK) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_kernel_table_has_one_form(module):
    assert lines_naming(module, SECOND_FORMS) == []


@pytest.mark.parametrize("module", MODULES)
def test_retired_names_stay_retired(module):
    # the forests' tree slices follow their one caller's buffer; the candidates count themselves;
    # a single profile or pmf is the batch of one, and a wrapper with one caller is inlined there
    assert lines_naming(module, RETIRED) == []


def numpy_name(node, name):
    """Is ``node`` numpy's ``name``, as ``np.<name>`` / ``numpy.<name>`` or imported from numpy?"""
    return (isinstance(node, ast.Attribute) and node.attr == name and getattr(node.value, "id", None) in ("np", "numpy")
            or isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(a.name == name for a in node.names))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reaches_numpy_random(module):
    assert [node.lineno for node in ast.walk(parsed(module)) if numpy_name(node, "random")] == []
    assert "numpy.random" not in (SRC / f"{module}.py").read_text()


def is_stable(call):
    return any(k.arg == "kind" and isinstance(k.value, ast.Constant) and k.value.value == "stable"
               for k in call.keywords)


@pytest.mark.parametrize("module", MODULES)
def test_every_sort_is_numpys_stable_one(module):
    # the np.unique attribute, not the name: the full scan has a local called ``unique``
    bad = [f"line {node.lineno}: np.unique" for node in ast.walk(parsed(module)) if numpy_name(node, "unique")]
    bad += [f"line {node.lineno}: {node.func.attr} without kind='stable'" for node in ast.walk(parsed(module))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("sort", "argsort") and not is_stable(node)]
    assert bad == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_flag_parser(module):
    bad = [f"line {node.lineno}" for node in ast.walk(parsed(module))
           if isinstance(node, ast.Import) and any(a.name.split(".")[0] in FLAG_PARSERS for a in node.names)
           or isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] in FLAG_PARSERS]
    assert bad == []


@pytest.mark.parametrize("module", MODULES)
def test_no_imports_inside_functions(module):
    bad = [f"line {inner.lineno} in {node.name}"
           for node in ast.walk(parsed(module))
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert bad == []


@pytest.mark.parametrize("module", MODULES)
def test_importable_first_in_fresh_interpreter(module):
    src_root = str(SRC.parent)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src_root!r}); import infogame.{module}"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_public_function_is_used_or_exported():
    used = set()
    for module in MODULES:
        for top in parsed(module).body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            names.discard(getattr(top, "name", None))  # a function calling itself does not count
            used |= names
    unused = [f"{module}.{node.name}" for module in MODULES for node in parsed(module).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in used and node.name not in infogame.__all__]
    assert unused == []


def test_the_public_surface_is_pinned():
    assert set(infogame.__all__) == {
        "Aggregation", "BenefitFunction", "CapExceededError", "ConnectivityRegion", "CostModel",
        "EntropicVector", "EquilibriumReport", "FewSweepPoint", "GameConfig", "JointPmf", "Prediction",
        "ProductionGameConfig", "ShannonReport", "ShannonViolation", "VerifyReport", "classify_homogeneous",
        "component_structures", "enumerate_games", "enumerate_nash", "family_independent",
        "family_max_correlated", "family_pair_redundancy", "few_sweep", "from_joint_pmfs", "h_bar",
        "mil_predict", "poa_monotonicity_sweep", "poa_predict", "production_ne_mask", "region_heterogeneous",
        "run_verification", "shape_mask", "social_optimum", "subset_mask", "thresholds_homogeneous", "validate_shannon"}
    assert len(infogame.__all__) == len(set(infogame.__all__))
    assert all(hasattr(infogame, name) for name in infogame.__all__)


def test_the_package_stays_within_its_line_gate():
    # counted as the benchmark's src.lines metric counts them: splitlines of every module
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINES
