"""Every module that declares ``__all__`` lists exactly its public API."""

import importlib
import inspect
import pkgutil

import pytest

import commexp

MODULES = ["commexp"] + [f"commexp.{info.name}"
                         for info in pkgutil.iter_modules(commexp.__path__)]
DECLARING = [name for name in MODULES
             if hasattr(importlib.import_module(name), "__all__")]


def test_the_library_modules_declare_all():
    assert {"commexp", "commexp.conditions", "commexp.bench"} <= set(DECLARING)


@pytest.mark.parametrize("module_name", DECLARING)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module_name", DECLARING)
def test_public_definitions_are_listed(module_name):
    module = importlib.import_module(module_name)
    defined = [name for name, value in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module_name]
    assert [name for name in defined if name not in module.__all__] == []


def test_package_dir_lists_every_public_name():
    # the dense layer's names are served on first use, not stored in the package
    assert [name for name in commexp.__all__ if name not in dir(commexp)] == []


def test_package_refuses_an_unknown_name():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        commexp.nosuch


def test_package_serves_dense_names_from_their_modules(monkeypatch):
    # looked up on every access, so a patch of the defining module shows
    # through the package and is gone from it once undone
    from commexp import matform

    original = matform.make_pair
    monkeypatch.setattr(matform, "make_pair", lambda *args: None)
    assert commexp.make_pair is matform.make_pair
    monkeypatch.undo()
    assert commexp.make_pair is original
