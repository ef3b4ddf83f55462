"""Command line interface.

Subcommands:

    eigen            eigendecompose a graph Laplacian (with on-disk cache)
    fit-regression   GP regression on node targets
    fit-classify     variational multi-class classification on node labels
    predict          evaluate a saved model snapshot on all nodes
    compare-kernels  repeated-split comparison across kernel families

All commands write into the ``--out`` directory: one JSON run record
(``_write_record``) plus CSV outputs that are byte-identical across reruns
with the same inputs. Seeds: repeat k of compare-kernels uses
``seed + k``; within one run the same seed value drives the split and the
fit (separate generators). The eigenpair cache directory comes from
``--cache-dir`` or the GRAPH_MATERN_CACHE_DIR environment variable.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .classification import (
    VariationalClassifier,
    _check_variational,
    _initial_fields,
    fit_classifier,
    predict_classes,
    read_labels_csv,
    save_classifier,
)
from .graphs import LAPLACIAN_KINDS, _count, build_laplacian, read_edge_list
from .kernels import KernelSpec
from .optim import AdamConfig, metrics, random_split
from .regression import (
    GPRegressionModel,
    PosteriorSummary,
    _check_observations,
    _read_snapshot,
    _route,
    _snapshot_kwargs,
    _write_json,
    fit,
    posterior,
    read_targets_csv,
    save_model,
    woodbury_posterior,
)
from .spectral import _blas_threads, _eigensolver, _residual_norms, cached_eigendecomposition

_SCHEMA_VERSION = 2  # of the run records; model.json snapshots stay at 1

_COMPARE_ROWS = (
    ("matern", "unnormalized"),
    ("matern", "sym_normalized"),
    ("diffusion", "unnormalized"),
    ("diffusion", "sym_normalized"),
    ("random_walk", "sym_normalized"),
    ("inverse_cosine", "sym_normalized"),
)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _write_csv(path, header, rows):
    """Write ``header`` and one line per row of already formatted cells."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in rows)


def _write_predictions(path, result):
    """predictions.csv of a ``_predict`` result, one row per node: the
    posterior mean and std, or the label and every class probability."""
    if isinstance(result, PosteriorSummary):
        rows = zip(result.mean, result.stddev)
        _write_csv(path, "node_index,mean,std", (
            (str(i), _fmt(mean), _fmt(std)) for i, (mean, std) in enumerate(rows)
        ))
        return
    probs, pred = result
    header = ",".join(f"p{c}" for c in range(probs.shape[1]))
    _write_csv(path, f"node_index,label,{header}", (
        (str(i), str(int(label)), *map(_fmt, row))
        for i, (label, row) in enumerate(zip(pred, probs))
    ))


def _write_trace_csv(path, column, trace):
    _write_csv(path, f"step,{column}", (
        (str(step), _fmt(value)) for step, value in enumerate(trace)
    ))


def _split(count, train_size, test_size, seed):
    """Train/test indices into ``count`` rows (all train without a size).

    The split uses ``seed``; a test side larger than ``test_size`` is
    subsampled with ``seed + 1``.
    """
    if train_size is None:
        return np.arange(count), np.zeros(0, dtype=np.int64)
    train_idx, test_idx = random_split(np.arange(count), train_size, seed)
    if test_size is not None and test_idx.size > test_size:
        pick = np.random.default_rng(seed + 1).choice(
            test_idx.size, size=test_size, replace=False
        )
        test_idx = np.sort(test_idx[pick])
    return train_idx, test_idx


def _load_kernel_spec(text, default: KernelSpec) -> KernelSpec:
    if text is None:
        return default
    is_file = os.path.exists(text)
    if is_file:
        with open(text, "r", encoding="utf-8") as fh:
            source = fh.read()
    try:
        obj = json.loads(source if is_file else text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"--kernel file {text!r} is not valid JSON: {exc}" if is_file
            else f"--kernel is neither an existing file nor valid JSON: {text!r}"
        ) from None
    return KernelSpec.from_dict(obj)


def _timed(timings, name, fn, *args, **kwargs):
    """Call ``fn``, putting its wall time in seconds in ``timings[name]``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    timings[name] = time.perf_counter() - start
    return result


def _basis_for(graph, kind, eigenpairs, cache_dir, timings):
    """Laplacian, (cached) eigenpairs and the eigen-cache record: hit, file,
    and the solver that ran (None on a hit). Records ``laplacian_s`` and
    ``eigensolve_s`` (miss) or ``cache_load_s`` (hit) in ``timings``."""
    operator = _timed(timings, "laplacian_s", build_laplacian, graph, kind)
    start = time.perf_counter()
    basis, hit, path = cached_eigendecomposition(
        operator, min(eigenpairs, graph.node_count), cache_dir=cache_dir
    )
    timings["cache_load_s" if hit else "eigensolve_s"] = time.perf_counter() - start
    return operator, basis, {
        "cache_hit": hit,
        "cache_file": str(path) if path is not None else None,
        "eigensolver": None if hit else _eigensolver(operator, basis.n_retained),
    }


def _read_rows(args, n):
    """``(nodes, values, classes)`` from ``args.task``'s rows file: float
    targets and no class count for regression, integer labels and their
    class count (``--classes``, or one more than the largest label) for
    classification. A file not given or empty, or any row the task's model
    refuses on an ``n``-node graph, is refused before any eigenpair is
    computed. The rows pass every check of the model, so any train split of
    them does too, given ``--train-size`` >= 1."""
    regression = args.task == "regression"
    name = "targets" if regression else "labels"
    path = getattr(args, name)
    if path is None:
        raise ValueError(f"--{name} is required for the {args.task} task")
    nodes, values = read_targets_csv(path) if regression else read_labels_csv(path)
    if nodes.size == 0:
        raise ValueError(f"{name} file is empty")
    if regression:
        _check_observations(n, nodes, values, args.noise2)
        return nodes, values, None
    classes = args.classes if args.classes is not None else int(values.max()) + 1
    _check_variational(n, _initial_fields(classes, nodes), values)
    return nodes, values, classes


def _fit(args, spec, basis, nodes, values, classes, config, seed, timings):
    """``(model, trace)`` of ``args.task``'s model fitted to ``values`` at
    ``nodes``: GP regression, or the variational classifier with its inducing
    points there. The fit is timed as ``fit_s``."""
    if args.task == "regression":
        model = GPRegressionModel(spec=spec, basis=basis, train_nodes=nodes,
                                  targets=values, noise2=args.noise2)
        return _timed(timings, "fit_s", fit, model, config)
    model = VariationalClassifier.create(spec=spec, basis=basis, n_classes=classes,
                                         inducing_nodes=nodes)
    return _timed(timings, "fit_s", fit_classifier, model, nodes, values, config,
                  seed=seed, mc_samples=args.mc_samples)


def _predict(model, query, args, seed, timings):
    """``(point, result)`` at ``query`` (every node when None), timed as
    ``predict_s``: the posterior mean and its summary, or the labels and
    ``(probs, labels)``. ``result`` is what ``_write_predictions`` takes."""
    if isinstance(model, GPRegressionModel):
        route = woodbury_posterior if _route(model) == "spectral" else posterior
        summary = _timed(timings, "predict_s", route, model, query=query, diag=True)
        return summary.mean, summary
    probs, pred = _timed(timings, "predict_s", predict_classes, model, query=query,
                         mc_samples=args.predict_samples, seed=seed)
    return pred, (probs, pred)


def _peak_rss_mib() -> float | None:
    """The process's own resident high-water mark (``VmHWM``) in MiB, or None
    where ``/proc/self/status`` does not exist (off Linux)."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            kib = next((int(line.split()[1]) for line in fh if line.startswith("VmHWM:")), None)
    except OSError:
        return None
    return None if kib is None else kib / 1024


def _write_record(path, timings, **fields):
    """Write a command's JSON run record: the schema version, a UTC
    timestamp, the command's own ``fields``, its stage ``timings`` (seconds),
    the BLAS thread count and the peak RSS so far."""
    _write_json(path, {
        "schema_version": _SCHEMA_VERSION,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **fields, "timings": timings, "blas_threads": _blas_threads(),
        "peak_rss_mib": _peak_rss_mib(),
    })


def _default_spec(task, family="matern", kind=None, rw_p=None) -> KernelSpec:
    """The CLI's kernel for a task: Matern nu=1.5, kappa=3 on the unnormalized
    Laplacian for regression, nu=3, kappa=5 on the normalized one otherwise."""
    regression = task == "regression"
    kind = kind or ("unnormalized" if regression else "sym_normalized")
    if family == "matern":
        return KernelSpec(family="matern", nu=1.5 if regression else 3.0,
                          kappa=3.0 if regression else 5.0, laplacian_kind=kind)
    if family == "diffusion":
        return KernelSpec(family="diffusion", kappa=3.0 if regression else 5.0,
                          laplacian_kind=kind)
    if family == "random_walk":
        return KernelSpec(family="random_walk", alpha=0.5, p=rw_p, laplacian_kind=kind)
    return KernelSpec(family="inverse_cosine", laplacian_kind=kind)


def cmd_eigen(args) -> int:
    timings = {}
    graph = _timed(timings, "parse_s", read_edge_list, args.graph)
    operator, basis, eigen = _basis_for(
        graph, args.laplacian, args.eigenpairs, args.cache_dir, timings
    )
    residuals = _residual_norms(operator.matrix, basis.eigenvalues, basis.eigenvectors)
    _write_record(
        _out_dir(args) / "summary.json", timings, nodes=graph.node_count,
        edges=graph.edge_count, laplacian=args.laplacian, eigenpairs=basis.n_retained,
        lambda_min=float(basis.eigenvalues[0]), lambda_max=float(basis.eigenvalues[-1]),
        max_residual=float(residuals.max()), **eigen,
    )
    print(
        f"eigen: n={graph.node_count} pairs={basis.n_retained} "
        f"lambda_min={_fmt(basis.eigenvalues[0])} "
        f"lambda_max={_fmt(basis.eigenvalues[-1])} cache_hit={eigen['cache_hit']}"
    )
    return 0


def cmd_fit(args) -> int:
    """fit-regression and fit-classify: fit on the train rows, predict every
    node, score the train and test rows, and write the outputs."""
    timings = {}
    graph = _timed(timings, "parse_s", read_edge_list, args.graph)
    spec = _load_kernel_spec(args.kernel, _default_spec(args.task))
    nodes, values, classes = _read_rows(args, graph.node_count)
    config = AdamConfig(iterations=args.iterations, learning_rate=args.lr)
    train_idx, test_idx = _split(
        nodes.size, args.train_size, getattr(args, "test_size", None), args.seed
    )
    _, basis, eigen = _basis_for(
        graph, spec.laplacian_kind, args.eigenpairs, args.cache_dir, timings
    )
    model, trace = _fit(args, spec, basis, nodes[train_idx], values[train_idx],
                        classes, config, args.seed, timings)
    predicted, result = _predict(model, None, args, args.seed, timings)

    out = _out_dir(args)
    _write_predictions(out / "predictions.csv", result)
    record = {"task": args.task, "kernel": model.spec.to_dict()}
    if args.task == "regression":
        _write_trace_csv(out / "trace.csv", "loss", trace)
        save_model(model, out / "model.json")
        route = _route(model)
        record.update(
            noise2=model.noise2, iterations=args.iterations, final_loss=float(trace[-1]),
            best_loss=float(np.min(trace)), lml_route=route,
            jitter=model._c_factor[3] if route == "dense" else None,
        )
        score = "mse"
    else:
        _write_trace_csv(out / "trace.csv", "elbo", trace)
        save_classifier(model, out / "model.json")
        record.update(classes=classes, iterations=args.iterations,
                      final_elbo=float(trace[-1]) if trace.size else None)
        score = "accuracy"
    record.update(eigen, train_count=int(train_idx.size), test_count=int(test_idx.size))
    # Scored over the rows of the targets or labels file; a score is left
    # out when its split is empty.
    predicted, line = predicted[nodes], f"{args.command}:"
    for split, idx in (("train", train_idx), ("test", test_idx)):
        if idx.size:
            value = record[f"{split}_{score}"] = metrics(predicted[idx], values[idx], args.task)
            line += f" {split}_{score}={_fmt(value)}"
    _write_record(out / "metrics.json", timings, **record)
    print(line)
    return 0


def cmd_predict(args) -> int:
    timings = {}
    graph = _timed(timings, "parse_s", read_edge_list, args.graph)
    snapshot = _read_snapshot(args.model)
    kind = snapshot["kind"]
    # The model's checks that need only the node count, before the eigensolve.
    n = graph.node_count
    fields = _snapshot_kwargs(snapshot, min(snapshot["eigenpairs"], n))
    if kind == "regression":
        _check_observations(n, fields["train_nodes"], fields["targets"], fields["noise2"])
        build, rows = GPRegressionModel, "regression"
    else:
        _check_variational(n, fields)
        build, rows = VariationalClassifier, "classification"
    _, basis, eigen = _basis_for(
        graph, fields["spec"].laplacian_kind, snapshot["eigenpairs"], args.cache_dir, timings
    )
    model = build(basis=basis, **fields)
    _, result = _predict(model, None, args, args.seed, timings)
    out = _out_dir(args)
    _write_predictions(out / "predictions.csv", result)
    _write_record(out / "summary.json", timings, kind=kind, **eigen)
    print(f"predict: wrote {basis.total_dim} {rows} rows")
    return 0


def cmd_compare_kernels(args) -> int:
    timings = {}
    graph = _timed(timings, "parse_s", read_edge_list, args.graph)
    nodes, values, classes = _read_rows(args, graph.node_count)
    if args.train_size is None:
        raise ValueError("--train-size is required for compare-kernels")
    if args.test_size == 0:
        raise ValueError("--test-size must be >= 1 for compare-kernels, got 0")
    config = AdamConfig(iterations=args.iterations, learning_rate=args.lr)
    metric_name = "test_mse" if args.task == "regression" else "test_accuracy"
    seeds = range(args.seed, args.seed + args.repeats)
    splits = [_split(nodes.size, args.train_size, args.test_size, seed) for seed in seeds]
    if any(test_idx.size == 0 for _, test_idx in splits):
        raise ValueError("empty test split; lower --train-size")
    specs = [_default_spec(args.task, family, kind, args.rw_p) for family, kind in _COMPARE_ROWS]

    bases, eigen = {}, {}
    for kind in LAPLACIAN_KINDS:
        _, bases[kind], eigen[kind] = _basis_for(
            graph, kind, args.eigenpairs, args.cache_dir, timings.setdefault(kind, {})
        )

    start = time.perf_counter()
    rows = []
    for (family, kind), spec in zip(_COMPARE_ROWS, specs):
        scores = []
        for seed, (train_idx, test_idx) in zip(seeds, splits):
            model, _ = _fit(args, spec, bases[kind], nodes[train_idx], values[train_idx],
                            classes, config, seed, {})
            predicted, _ = _predict(model, nodes[test_idx], args, seed, {})
            scores.append(metrics(predicted, values[test_idx], args.task))
        scores = np.asarray(scores)
        rows.append({
            "kernel": family,
            "laplacian": kind,
            "mean": float(np.mean(scores)),
            "std": float(np.std(scores)),
            "runs": [float(s) for s in scores],
        })
        print(
            f"compare-kernels: {family}/{kind} {metric_name} "
            f"{np.mean(scores):.4f} ({np.std(scores):.4f})"
        )

    timings["compare_s"] = time.perf_counter() - start
    out = _out_dir(args)
    _write_csv(
        out / "results.csv",
        f"kernel,laplacian,{metric_name}_mean,{metric_name}_std,repeats",
        ((row["kernel"], row["laplacian"], _fmt(row["mean"]), _fmt(row["std"]),
          str(args.repeats)) for row in rows),
    )
    _write_record(
        out / "results.json", timings, task=args.task, metric=metric_name,
        repeats=args.repeats, train_size=args.train_size, test_size=args.test_size,
        iterations=args.iterations, eigen=eigen, rows=rows,
    )
    return 0


def _add_common(p, kernel=True, seed=True):
    p.add_argument("--graph", required=True, help="edge list file")
    p.add_argument("--eigenpairs", type=int, default=500,
                   help="spectral modes to retain (clamped to n)")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--cache-dir", default=None,
                   help="eigenpair cache directory (default $GRAPH_MATERN_CACHE_DIR)")
    if kernel:
        p.add_argument("--kernel", default=None,
                       help="kernel spec as inline JSON or a path to a JSON file")


def _add_fit(p, *tasks):
    """The fit options of commands that fit ``tasks``: the shared four, plus
    the noise for regression and the classes, test split and Monte Carlo
    sample counts for classification."""
    p.add_argument("--train-size", type=int, default=None)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--lr", type=float, default=0.001)
    if "regression" in tasks:
        p.add_argument("--noise2", type=float, default=0.01,
                       help="initial observation noise variance")
    if "classification" in tasks:
        p.add_argument("--classes", type=int, default=None)
        p.add_argument("--test-size", type=int, default=None)
        p.add_argument("--mc-samples", type=int, default=20)
        p.add_argument("--predict-samples", type=int, default=200)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graph-matern",
        description="Matern-family Gaussian processes on weighted graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="eigendecompose a graph Laplacian")
    _add_common(p, kernel=False, seed=False)
    p.add_argument("--laplacian", choices=LAPLACIAN_KINDS, default="unnormalized")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("fit-regression", help="GP regression on node targets")
    _add_common(p)
    p.add_argument("--targets", required=True, help="node_index,value CSV")
    _add_fit(p, "regression")
    p.set_defaults(func=cmd_fit, task="regression")

    p = sub.add_parser("fit-classify", help="variational classification on labels")
    _add_common(p)
    p.add_argument("--labels", required=True, help="node_index,class_index CSV")
    _add_fit(p, "classification")
    p.set_defaults(func=cmd_fit, task="classification")

    p = sub.add_parser("predict", help="evaluate a saved model snapshot")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True, help="model.json snapshot")
    p.add_argument("--out", default=".")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--predict-samples", type=int, default=200)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compare-kernels", help="repeated-split kernel comparison")
    _add_common(p, kernel=False)
    p.add_argument("--task", choices=("regression", "classification"), required=True)
    p.add_argument("--targets", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--repeats", type=int, default=10)
    _add_fit(p, "regression", "classification")
    p.add_argument("--rw-p", type=int, default=3,
                   help="fixed power for the random walk kernel row")
    p.set_defaults(func=cmd_compare_kernels)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, low in (("mc_samples", 1), ("predict_samples", 1), ("repeats", 1),
                          ("train_size", 1), ("test_size", 0), ("seed", 0),
                          ("eigenpairs", 1)):
            if getattr(args, name, None) is not None:
                _count(f"--{name.replace('_', '-')}", getattr(args, name), low)
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
