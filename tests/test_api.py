"""The public surface: every module's ``__all__`` and the package re-exports."""

import ast
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import graph_matern
from graph_matern import cli, kernels
from graph_matern.regression import _SNAPSHOT_FIELDS
from helpers import random_connected_graph

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


def test_package_init_only_republishes_each_module_all():
    """``__init__.py`` names no public symbol itself: it star-imports each
    library module, which republishes that module's ``__all__``, and sets
    ``__version__``, so no list of names is kept twice."""
    tree = ast.parse(Path(graph_matern.__file__).read_text(encoding="utf-8"))
    docstring, *body = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    imports = [(node.level, node.module, [alias.name for alias in node.names])
               for node in body if isinstance(node, ast.ImportFrom)]
    assert imports == [(1, name, ["*"]) for name in MODULES]
    (version,) = [node for node in body if not isinstance(node, ast.ImportFrom)]
    assert [target.id for target in version.targets] == ["__version__"]


# One spec of each family; a new family needs one here.
_SPECS = {
    "matern": kernels.KernelSpec("matern", nu=1.5, kappa=2.0),
    "diffusion": kernels.KernelSpec("diffusion", kappa=1.2),
    "random_walk": kernels.KernelSpec("random_walk", alpha=0.6, p=3,
                                      laplacian_kind="sym_normalized"),
    "inverse_cosine": kernels.KernelSpec("inverse_cosine", laplacian_kind="sym_normalized"),
}


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("family", kernels.FAMILIES)
def test_trainable_params_are_the_gradient_keys(family, normalize):
    """The family table gives ``trainable_params``; ``spectral_weights``
    writes each family's gradients out by hand. The two must name the same
    parameters in the same order, which is the order a fit steps them in."""
    assert set(_SPECS) == set(kernels.FAMILIES)
    spec = _SPECS[family].with_params(normalize_variance=normalize)
    _, grads = kernels.spectral_weights(spec, np.linspace(0.0, 1.5, 7))
    assert tuple(grads) == kernels.trainable_params(spec)


def test_no_function_takes_a_with_grads_switch():
    """Every fit, prediction and CLI command asks for gradients, so every
    weight and ELBO evaluation returns them: no function under the package
    takes a ``with_grads`` parameter to turn them off."""
    takers = []
    for path in sorted(Path(graph_matern.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "with_grads" in names:
                    takers.append(f"{path.name}:{node.lineno}")
    assert takers == []


@pytest.mark.parametrize("kind, diag_cov", [("regression", None), ("classifier", True),
                                            ("classifier", False)])
def test_a_saved_snapshot_has_exactly_its_schema_fields(kind, diag_cov, tmp_path):
    """The writer reads its fields from ``_SNAPSHOT_FIELDS``, the schema the
    reader checks, so a saved snapshot holds the base fields, its kind and
    that kind's fields, each of its JSON type, and nothing else."""
    gm = graph_matern
    graph = gm.WeightedGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
    spec = _SPECS["matern" if kind == "regression" else "random_walk"]
    basis = gm.eigendecompose_full(gm.build_laplacian(graph, spec.laplacian_kind))
    if kind == "regression":
        model = gm.GPRegressionModel(spec, basis, np.array([0, 3]), np.array([1.0, -1.0]))
        gm.save_model(model, tmp_path / "model.json")
    else:
        model = gm.VariationalClassifier.create(spec, basis, 3, np.array([1, 4]),
                                                diag_cov=diag_cov)
        gm.save_classifier(model, tmp_path / "model.json")
    payload = json.loads((tmp_path / "model.json").read_text())
    assert set(payload) == {"kind", *_SNAPSHOT_FIELDS[None], *_SNAPSHOT_FIELDS[kind]}
    assert payload["kind"] == kind
    loaded = gm.regression._read_snapshot(tmp_path / "model.json", kind)
    assert loaded["kernel"] == spec


def test_only_regression_reads_a_snapshots_model_fields():
    """The snapshot format lives in ``regression``: no other module
    subscripts a name ``snapshot`` by a field of a kind's schema, so
    ``load_model``, ``load_classifier`` and ``predict`` all build their models
    from the one mapping's keywords (``_snapshot_kwargs``)."""
    keys = {*_SNAPSHOT_FIELDS["regression"], *_SNAPSHOT_FIELDS["classifier"]}
    sites = []
    for path in sorted(Path(graph_matern.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "snapshot" and isinstance(node.slice, ast.Constant)
                    and node.slice.value in keys):
                sites.append(f"{path.name}:{node.lineno}")
    assert [site for site in sites if not site.startswith("regression.py:")] == []


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
    ``regression._tri_inverse``; no other Cholesky entry point is called,
    and no module solves with a Cholesky factor (``dpotrs``, ``cho_solve``):
    a factor is read through L and L^-1 alone."""
    package = Path(graph_matern.__file__).parent
    homes = {"dpotrf": "_spd_factor", "dtrtri": "_tri_inverse"}
    names = {"dpotrf", "dtrtri", "cholesky", "cho_factor", "dpotrs", "cho_solve"}
    seen = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, name, call in _calls(tree, names):
            seen.append(name)
            assert name in homes and (path.name, func) == ("regression.py", homes[name]), (
                f"{name} at {path.name}:{call.lineno}"
            )
    assert sorted(seen) == ["dpotrf", "dtrtri"]


def test_superlu_u_is_read_only_for_its_diagonal():
    """``gmrf_posterior`` reads the factor of the posterior precision
    through L and the pivots: in this unpivoted symmetric factor U = D L^T,
    so every ``.U`` that ``regression`` reads is ``.U.diagonal()``."""
    path = Path(graph_matern.__file__).parent / "regression.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "U"]
    assert reads
    for node in reads:
        outer = parents[node]
        assert (isinstance(outer, ast.Attribute) and outer.attr == "diagonal"
                and isinstance(parents[outer], ast.Call) and parents[outer].func is outer), (
            f"U read at regression.py:{node.lineno}"
        )


def test_one_site_chooses_the_eigensolver():
    """``eigsh`` and ``_dense_lowest`` are called only in
    ``spectral.eigendecompose_truncated``, which ``eigendecompose_full``
    calls with a full request. ``_eigensolver``, the rule, is read only there
    and by the CLI's run record, so the choice cannot grow a second site."""
    package = Path(graph_matern.__file__).parent
    homes = {
        "eigsh": {("spectral.py", "eigendecompose_truncated")},
        "_dense_lowest": {("spectral.py", "eigendecompose_truncated")},
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


def test_threads_start_only_in_spectral_and_blas_threads_are_left_alone():
    """Only ``spectral`` imports ``threading`` or ``concurrent.futures``, for
    the dense eigensolve's two index chunks, so concurrency stays in one
    place; and no module names an OpenBLAS ``set_num_threads`` symbol, so the
    BLAS thread count is the one the environment sets."""
    imports, setters = [], []
    for path in sorted(Path(graph_matern.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            imports += [(path.name, name) for name in names
                        if name.split(".")[0] in ("threading", "concurrent")]
            text = (node.value if isinstance(node, ast.Constant) else
                    node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else "")
            if isinstance(text, str) and "set_num_threads" in text:
                setters.append(f"{path.name}:{node.lineno}")
    assert imports == [("spectral.py", "concurrent.futures")]
    assert setters == []


@pytest.mark.parametrize("pattern, home", [
    (r"node out of range \[0,", ("graphs.py", "_node_indices")),
    (r"label.* out of range", ("classification.py", "_check_labels")),
    (r"non-positive weight on edge", ("graphs.py", "__post_init__")),
    (r"self-loop at node", ("graphs.py", "__post_init__")),
    (r"element limit of an n-length node array", ("graphs.py", "__post_init__")),
    (r"must be positive and finite", ("kernels.py", "_positive")),
    (r"must be an integer, got", ("graphs.py", "_count")),
    (r"must be >= \S*, got", ("graphs.py", "_count")),
    (r"epsilon must lie in \(0, 1\)", ("classification.py", "_check_epsilon")),
], ids=["node", "label", "weight", "self_loop", "node_budget", "positive", "count_integer",
        "count_low", "epsilon"])
def test_one_function_forms_each_range_message(pattern, home):
    """Each range rule ("a node index lies in [0, n)", "a label lies in
    [0, C)", "an edge weight is positive and finite", "no edge is a
    self-loop", "a graph's node count fits the n-length array budget", "a
    real parameter is positive and finite", "a count is an integer of at
    least its floor", "the robust-max epsilon lies in (0, 1)") and its
    message live in one function alone, and the CLI keeps no copy of a
    model's checks: it calls the models' own before the eigensolve. A
    message is matched on its literal text.

    ``cmd_compare_kernels``' "--test-size must be >= 1 for compare-kernels"
    is its own site, and the count pattern does not match it: every other
    command takes a test size of 0, so the flag loop in ``cli.main`` checks
    ``--test-size`` against 0, and only the comparison, which scores every
    split on its test nodes, needs one."""
    package = Path(graph_matern.__file__).parent
    sites = []

    def visit(node, func, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, path)
                continue
            if isinstance(child, ast.JoinedStr):
                text = "".join(part.value for part in child.values
                               if isinstance(part, ast.Constant))
                if re.search(pattern, text):
                    sites.append((path.name, func))
                continue
            if isinstance(child, ast.Constant) and re.search(pattern, str(child.value)):
                sites.append((path.name, func))
            visit(child, func, path)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path)
    assert sites == [home]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_check_snapshot_fits" not in defined


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_tree(name):
    """The parsed ``bench/<name>``; the benchmark files are read, not run."""
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _wrapped():
    """``WRAPPED`` of ``bench/tracing.py``: (module, name, layer) triples."""
    (wrapped,) = [ast.literal_eval(node.value) for node in _bench_tree("tracing.py").body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    return wrapped


def _patched():
    """(module, name) of every ``monkeypatch.setattr`` in ``bench/test_smoke.py``.
    The target is ``modules["cli"]`` or a local named after its module."""
    found = set()
    for _, _, call in _calls(_bench_tree("test_smoke.py"), {"setattr"}):
        target, name = call.args[:2]
        module = target.slice.value if isinstance(target, ast.Subscript) else target.id
        found.add((module, name.value))
    return found


def test_every_benchmark_wrapped_name_resolves():
    """The traced benchmark replaces the names in ``bench/tracing.py``'s
    ``WRAPPED`` where they are looked up, so each must exist there, and each
    layer must be a module of the package. The file is parsed, not run."""
    wrapped = _wrapped()
    assert wrapped
    for module, attr, layer in wrapped:
        namespace = importlib.import_module(f"graph_matern.{module}")
        assert callable(getattr(namespace, attr, None)), f"graph_matern.{module}.{attr}"
        importlib.import_module(f"graph_matern.{layer}")


def test_benchmark_hooks_resolve_and_cli_looks_them_up_by_bare_name():
    """Every name the benchmark wraps or its smoke test patches is a callable
    of its module. A ``cli`` one only takes effect if ``cli.py`` looks it up
    in its own globals when it runs: by bare name inside a function, never
    as a module attribute and never bound at import time."""
    hooks = {(module, attr) for module, attr, _ in _wrapped()} | _patched()
    assert {("cli", "cmd_predict"), ("cli", "fit"), ("regression", "gmrf_posterior"),
            ("kernels", "matern_precision_sparse"), ("spectral", "save_basis")} <= hooks
    for module, attr in sorted(hooks):
        namespace = importlib.import_module(f"graph_matern.{module}")
        assert callable(getattr(namespace, attr, None)), f"graph_matern.{module}.{attr}"
    names = {attr for module, attr in hooks if module == "cli"}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert names & attributes == set()
    loads = {name: set() for name in names}
    for func, name in _loads(tree, names):
        loads[name].add(func)
    for name, funcs in loads.items():
        assert funcs and None not in funcs, f"cli.{name} looked up in {funcs or 'no function'}"


def _loads(tree, names):
    """(enclosing function, name) for every bare-name read of ``names``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                    and child.id in names):
                found.append((func, child.id))
            visit(child, func)

    visit(tree, None)
    return found


def test_each_task_fits_and_predicts_in_one_cli_function():
    """Every CLI command that fits or predicts goes through one reader, one
    fit and one predict: each library entry point is named in exactly one
    function of ``cli.py``, so no command keeps its own copy."""
    homes = {"read_targets_csv": "_read_rows", "read_labels_csv": "_read_rows",
             "fit": "_fit", "fit_classifier": "_fit",
             "woodbury_posterior": "_predict", "predict_classes": "_predict"}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    found = {}
    for func, name in _loads(tree, set(homes)):
        found.setdefault(name, set()).add(func)
    assert found == {name: {home} for name, home in homes.items()}


# A 10-node graph and one small model of each kind, for the argument rules.
_GRAPH = random_connected_graph(np.random.default_rng(391), 10)
_OPERATOR = graph_matern.build_laplacian(_GRAPH, "sym_normalized")
_BASIS = graph_matern.eigendecompose_full(_OPERATOR)
_SPEC = kernels.KernelSpec("matern", nu=1.5, kappa=2.0, laplacian_kind="sym_normalized")
_REGRESSION = graph_matern.GPRegressionModel(
    spec=_SPEC, basis=_BASIS, train_nodes=np.arange(4),
    targets=np.array([0.3, -1.0, 0.5, 0.2]), noise2=0.1)
_CLASSIFIER = graph_matern.VariationalClassifier.create(_SPEC, _BASIS, 3, np.arange(4))
_LABELED = (np.arange(4), np.array([0, 1, 2, 0]))
_ONE_STEP = graph_matern.AdamConfig(iterations=1)


@pytest.mark.parametrize("name, call", [
    ("n_samples", lambda: graph_matern.pathwise_sample(_REGRESSION, n_samples=2.0)),
    ("mc_samples", lambda: graph_matern.elbo(_CLASSIFIER, *_LABELED, mc_samples=2.5)),
    ("mc_samples", lambda: graph_matern.fit_classifier(_CLASSIFIER, *_LABELED, _ONE_STEP,
                                                       mc_samples=2.5)),
    ("mc_samples", lambda: graph_matern.predict_classes(_CLASSIFIER, mc_samples=2.5)),
    ("batch_size", lambda: graph_matern.fit_classifier(_CLASSIFIER, *_LABELED, _ONE_STEP,
                                                       batch_size=1.5)),
    ("n_pairs", lambda: graph_matern.eigendecompose_truncated(_OPERATOR, 3.0)),
    ("n_pairs", lambda: graph_matern.cached_eigendecomposition(_OPERATOR, 2.5)),
    ("n_train", lambda: graph_matern.random_split(np.arange(10), 2.5, 0)),
    ("iterations", lambda: graph_matern.AdamConfig(iterations=2.5)),
], ids=["pathwise_sample", "elbo", "fit_classifier", "predict_classes", "batch_size",
        "eigendecompose_truncated", "cached_eigendecomposition", "random_split",
        "AdamConfig"])
def test_every_entry_point_refuses_a_count_that_is_not_an_integer(name, call):
    """A count is an integer in the ``operator.index`` sense: a float, even
    an integral one, is refused by ``ValueError`` naming the argument, not
    by numpy's ``TypeError`` or a silent truncation."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize("nu", [np.inf, np.nan, None], ids=["inf", "nan", "none"])
def test_the_sparse_precision_refuses_a_nu_that_is_no_integer(nu):
    with pytest.raises(ValueError, match=r"^nu must be an integer in 1\.\.4 for the sparse "
                                         f"precision path, got {nu!r}; "):
        kernels.matern_precision_sparse(_OPERATOR, nu, 2.0)


@pytest.mark.parametrize("mask", [np.array([True, False]), [False, True, True],
                                  np.zeros(10, dtype=bool)], ids=["array", "list", "all_false"])
def test_a_boolean_node_mask_is_refused_by_name(mask):
    """A mask cast to integers would name nodes 0 and 1, so it is refused
    wherever nodes are taken; labels are class indices and keep their rule."""
    with pytest.raises(ValueError, match="^query node array is boolean; pass the node "
                                         "indices it selects$"):
        graph_matern.posterior(_REGRESSION, query=mask)
    with pytest.raises(ValueError, match="^inducing node array is boolean; "):
        graph_matern.VariationalClassifier.create(_SPEC, _BASIS, 3, mask)
    nodes = np.arange(2)
    assert graph_matern.elbo(_CLASSIFIER, nodes, np.array([True, False])) == \
        graph_matern.elbo(_CLASSIFIER, nodes, np.array([1, 0]))
