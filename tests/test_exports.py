"""The public names: each module's ``__all__`` and the package's re-exports."""

import importlib
import inspect
import pkgutil

import ergolab

MODULES = [
    importlib.import_module(f"ergolab.{info.name}")
    for info in pkgutil.iter_modules(ergolab.__path__)
    if info.name != "__main__"
]


def test_every_name_in_all_is_defined():
    assert {m.__name__ for m in MODULES} >= {"ergolab.tower", "ergolab.extension", "ergolab.cli"}
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, module.__name__


def test_package_reexports_only_exported_names():
    exported = {name for module in MODULES for name in module.__all__}
    reexported = {
        name
        for name, value in vars(ergolab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert reexported
    assert sorted(reexported - exported) == []
