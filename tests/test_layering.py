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
component walk; no module defines or names the scalar one.
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


@pytest.mark.parametrize("module", MODULES)
def test_the_kernel_walk_is_the_only_component_walk(module):
    # the scalar walk lives under tests/ as the oracle of kernel.components
    names = [node.lineno for node in ast.walk(parsed(module))
             if isinstance(node, (ast.FunctionDef, ast.alias)) and node.name in SCALAR_WALK
             or getattr(node, "id", None) in SCALAR_WALK or getattr(node, "attr", None) in SCALAR_WALK]
    assert names == []


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
