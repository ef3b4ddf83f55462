"""The public surface: every module's ``__all__`` and the package re-exports."""

import ast
import importlib
from pathlib import Path

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


def _calls(tree, names):
    """(enclosing function, callee name, call) for every call of ``names``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                if name in names:
                    found.append((func, name, child))
            visit(child, func)

    visit(tree, None)
    return found


def test_sparse_factorizations_share_the_minimum_degree_helper():
    """``spilu`` and ``splu`` run only in ``spectral._factor_spd``, each with
    its ordering named: ``splu`` orders by minimum degree itself
    (``MMD_AT_PLUS_A``) when no nodes go last, and otherwise ``spilu`` reads
    that ordering and ``splu`` factors in the order given (``NATURAL``).
    ``eigsh`` runs only with an ``OPinv`` built from it, and ``spsolve`` or
    ``factorized`` not at all, so no sparse solve falls back to SuperLU's
    default COLAMD ordering."""
    package = Path(graph_matern.__file__).parent
    specs = {"spilu": {"MMD_AT_PLUS_A"}, "splu": {"MMD_AT_PLUS_A", "NATURAL"}}
    seen = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {"spilu", "splu", "eigsh", "spsolve", "factorized"}
        for func, name, call in _calls(tree, names):
            where = f"{name} at {path.name}:{call.lineno}"
            keywords = {k.arg: k.value for k in call.keywords}
            seen.append(name)
            if name in specs:
                assert (path.name, func) == ("spectral.py", "_factor_spd"), where
                spec = keywords.get("permc_spec")
                assert isinstance(spec, ast.Constant) and spec.value in specs[name], where
            else:
                assert name == "eigsh" and "OPinv" in keywords, where
    assert sorted(seen) == ["eigsh", "spilu", "splu", "splu"]


def test_dense_spd_blocks_share_one_factor_and_one_inverse():
    """Every dense SPD block of the fits is factored by ``dpotrf`` in
    ``regression._spd_factor`` and its factor inverted by ``dtrtri`` only in
    ``regression._tri_inverse``; no other Cholesky entry point is called."""
    package = Path(graph_matern.__file__).parent
    homes = {"dpotrf": "_spd_factor", "dtrtri": "_tri_inverse"}
    seen = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, name, call in _calls(tree, {"dpotrf", "dtrtri", "cholesky", "cho_factor"}):
            seen.append(name)
            assert (path.name, func) == ("regression.py", homes.get(name)), (
                f"{name} at {path.name}:{call.lineno}"
            )
    assert sorted(seen) == ["dpotrf", "dtrtri"]


def test_one_site_chooses_the_eigensolver():
    """``eigsh`` is called only in ``spectral.eigendecompose_truncated``, and
    ``_dense_lowest`` only there and in ``eigendecompose_full``, whose
    request is always full. ``_eigensolver``, the rule, is read only there
    and by the CLI's run record, so the choice cannot grow a second site."""
    package = Path(graph_matern.__file__).parent
    homes = {
        "eigsh": {("spectral.py", "eigendecompose_truncated")},
        "_dense_lowest": {("spectral.py", "eigendecompose_truncated"),
                          ("spectral.py", "eigendecompose_full")},
        "_eigensolver": {("spectral.py", "eigendecompose_truncated"),
                         ("cli.py", "_basis_for")},
    }
    seen = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, name, call in _calls(tree, set(homes)):
            seen.append((name, path.name, func))
            assert (path.name, func) in homes[name], f"{name} at {path.name}:{call.lineno}"
    assert sorted(seen) == sorted((name, *home) for name in homes for home in homes[name])


def test_every_benchmark_wrapped_name_resolves():
    """The traced benchmark replaces the names in ``bench/tracing.py``'s
    ``WRAPPED`` where they are looked up, so each must exist there, and each
    layer must be a module of the package. The file is parsed, not run."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (wrapped,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    assert wrapped
    for module, attr, layer in wrapped:
        namespace = importlib.import_module(f"graph_matern.{module}")
        assert callable(getattr(namespace, attr, None)), f"graph_matern.{module}.{attr}"
        importlib.import_module(f"graph_matern.{layer}")
