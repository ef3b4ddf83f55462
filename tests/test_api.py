"""The public surface: every module's ``__all__`` and the package re-exports."""

import importlib

import pytest

import graph_matern

MODULES = ("graphs", "spectral", "kernels", "regression", "classification", "optim")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_are_reexported(name):
    module = importlib.import_module(f"graph_matern.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"
        assert getattr(graph_matern, attr, None) is getattr(module, attr), (
            f"graph_matern does not re-export {name}.{attr}"
        )


def test_package_exports_come_from_module_all():
    listed = {attr for name in MODULES
              for attr in importlib.import_module(f"graph_matern.{name}").__all__}
    public = {attr for attr, value in vars(graph_matern).items()
              if not attr.startswith("_") and not isinstance(value, type(graph_matern))}
    assert public - listed == set()
