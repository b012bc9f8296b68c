"""Each hxtwin module's __all__ matches what the module defines."""

import importlib
import inspect
import pkgutil

import pytest

import hxtwin

MODULES = [
    importlib.import_module(f"hxtwin.{info.name}")
    for info in pkgutil.iter_modules(hxtwin.__path__)
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
