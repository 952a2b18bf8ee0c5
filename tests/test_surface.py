"""The package's public surface: the root exports nothing, so every
``qatkit.<submodule>`` attribute is the submodule itself, and every name a
submodule lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import qatkit

# ``__main__`` runs the CLI when imported
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(qatkit.__path__) if m.name != "__main__")


def test_submodules_found():
    assert {"cli", "experiments", "quantize", "transform"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_as_module(name):
    module = importlib.import_module(f"qatkit.{name}")
    assert getattr(qatkit, name) is module


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qatkit.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
