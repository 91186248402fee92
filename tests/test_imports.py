"""Every imported name is used, every private name of the package is
loaded, and every third-party import of the tests and the benchmark is
declared: AST scans of the package, the tests and perfbench.

The package's `__init__.py` is skipped by the import scan, since its
imports are the public re-exports. A name counts as used when it appears
as a bare name anywhere in the module (an attribute chain `np.linalg.svd`
uses `np`). A module-level `_name` (function, class or constant) of the
package counts as loaded when some package module reads it as a bare
name; a use in the tests alone does not keep it.

Each decision has one owning module: only `core` imports `csv` or `json`
(it holds the one reader and the one pair of output writers), and only
`balance` imports from `dist` (thresholds and shrinkage come from the
calibrated criterion); `__init__` does not re-export `dist`. The distance
kernel is `balance`'s own: no other module imports its term product,
reduction or ridge weights, so every criterion value comes from it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_FILES = sorted(
    p for p in [*(_ROOT / "src" / "rerand").glob("*.py"), *(_ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _unloaded_private_names(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    loaded = {
        node.id for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    defined = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined[name.id] = node.lineno
    return [
        f"{name} (line {line})" for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    ]


# Imported module or package name -> the package modules allowed to import it.
_IMPORT_OWNERS = {"csv": {"core"}, "json": {"core"}, ".dist": {"balance"},
                  **{f".balance.{name}": {"balance"} for name in ("_terms", "_reduce",
                                                                  "_ridge_weights")}}


def _foreign_imports(modules: dict[str, str]) -> list[str]:
    """Imports of an owned module or package name (see _IMPORT_OWNERS) by
    any other package module; `modules` maps module names to their source.
    A name imported from a package module counts as `.module.name`."""
    found = []
    for module, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                names = ["." + alias.name for alias in node.names]  # from . import x
            elif isinstance(node, ast.ImportFrom):
                names = ["." * node.level + node.module]
                if names[0].startswith((".", "rerand.")):
                    names += [f"{names[0]}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                if name.startswith("rerand."):
                    name = name[len("rerand"):]  # rerand.dist is .dist
                elif not name.startswith("."):
                    name = name.split(".")[0]  # os.path is os
                if name in _IMPORT_OWNERS and module not in _IMPORT_OWNERS[name]:
                    found.append(f"{module} imports {name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", _FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert _unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def test_every_private_name_is_loaded():
    sources = [p.read_text() for p in sorted((_ROOT / "src" / "rerand").glob("*.py"))]
    assert _unloaded_private_names(sources) == []


def test_scan_flags_an_unloaded_private_name():
    source = (
        "_A, _B = 1, 2\n_C: int = 3\n\n\ndef _f():\n    return _A\n\n\n"
        "class _K:\n    pass\n\n\ndef g():\n    _local = _f()\n    return _local\n"
    )
    other = "__all__ = ['g']\nprint(_C)\n"
    assert _unloaded_private_names([source, other]) == ["_B (line 1)", "_K (line 9)"]


def test_only_owners_import_output_libraries_and_dist():
    modules = {p.stem: p.read_text() for p in sorted((_ROOT / "src" / "rerand").glob("*.py"))}
    assert _foreign_imports(modules) == []


def test_scan_flags_a_foreign_import():
    modules = {
        "core": "import csv\nimport json\n",
        "balance": "from .dist import chi2_quantile\n",
        "__init__": "from .dist import chi2_cdf\n",
        "cli": "import json\nfrom csv import writer\nfrom . import dist\n",
        "engine": "import numpy as np\nfrom rerand.dist import shrinkage_coeff\n"
                  "from .balance import BalanceCriterion, _chunk_distances, _ridge_weights\n",
        "spectral": "import os.path\nfrom .core import standardize\n"
                    "from rerand.balance import _terms\nfrom .balance import _reduce\n",
    }
    assert _foreign_imports(modules) == [
        "__init__ imports .dist (line 1)",
        "cli imports json (line 1)",
        "cli imports csv (line 2)",
        "cli imports .dist (line 3)",
        "engine imports .dist (line 2)",
        "engine imports .balance._ridge_weights (line 3)",
        "spectral imports .balance._terms (line 3)",
        "spectral imports .balance._reduce (line 4)",
    ]


def _third_party_imports(paths: list[Path]) -> dict[str, str]:
    """Top-level modules that the files import, other than the standard
    library, rerand and the files themselves, each with its first importer."""
    local = {p.stem for p in paths} | {"rerand"}
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in (name.split(".")[0] for name in names):
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, f"{path.parent.name}/{path.name}")
    return found


def test_test_and_benchmark_imports_are_declared():
    # `pip install -e ".[test]"` has to give every module the tests and the
    # benchmark import; numpy is the package's own dependency. The extra is
    # read with a regex so that this runs without tomllib (Python 3.10).
    pyproject = (_ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    declared = {re.split(r"[<>=!~\[ ;]", req)[0].lower().replace("-", "_")
                for req in re.findall(r'"([^"]+)"', extra)}
    paths = sorted([*(_ROOT / "tests").glob("*.py"), *(_ROOT / "perfbench").glob("*.py")])
    imported = _third_party_imports(paths)
    assert {m: f for m, f in imported.items() if m not in declared | {"numpy"}} == {}
