"""Each hxtwin module's __all__ matches what the module defines, every
name a module imports is used or exported, no module imports an
underscore name of another, and every name the benchmark imports from
hxtwin resolves."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hxtwin

ROOT = Path(__file__).resolve().parent.parent

MODULES = [
    importlib.import_module(f"hxtwin.{info.name}")
    for info in pkgutil.iter_modules(hxtwin.__path__)
]


# (file, module, name, line) of each `from hxtwin.<module> import <name>`
# under perfbench/, function-local imports included
BENCH_IMPORTS = [
    (path.name, node.module.removeprefix("hxtwin."), alias.name, node.lineno)
    for path in sorted((ROOT / "perfbench").glob("*.py"))
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hxtwin.")
    for alias in node.names
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_lists_exactly_the_public_functions_and_classes(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"listed in __all__ but not defined: {missing}"
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set(), "defined but not in __all__"


def test_every_hxtwin_name_the_benchmark_imports_resolves():
    assert BENCH_IMPORTS, "no hxtwin import found under perfbench/"
    unresolved = [
        f"{file}:{line}: from hxtwin.{module} import {name}"
        for file, module, name, line in BENCH_IMPORTS
        if not hasattr(importlib.import_module(f"hxtwin.{module}"), name)
    ]
    assert unresolved == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_imported_name_is_used_or_exported(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    allowed = used | set(getattr(module, "__all__", ()))
    if module.__name__ == "hxtwin.harness":
        # the names perfbench imports from hxtwin.harness are re-exported
        allowed |= {name for _file, mod, name, _line in BENCH_IMPORTS if mod == "harness"}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in allowed)
    assert unused == []


def private_imports(source: str) -> list[str]:
    """The underscore names that source imports from hxtwin modules."""
    return [
        f"line {node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "hxtwin")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_imports_finds_relative_and_absolute_imports():
    assert private_imports(
        "from .ekf import EkfConfig, _conductances\n"
        "from hxtwin.scenario import _FINITE\n"
        "from numpy import _private\n"
        "from . import _helpers\n"
    ) == ["line 1: _conductances from .ekf", "line 2: _FINITE from hxtwin.scenario",
          "line 4: _helpers from ."]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_module_imports_an_underscore_name_of_another(module):
    assert private_imports(Path(module.__file__).read_text(encoding="utf-8")) == []
