"""Command line interface.

Subcommands:

    eigen            eigendecompose a graph Laplacian (with on-disk cache)
    fit-regression   GP regression on node targets
    fit-classify     variational multi-class classification on node labels
    predict          evaluate a saved model snapshot on all nodes
    compare-kernels  repeated-split comparison across kernel families

All commands write into the ``--out`` directory: a JSON summary/metrics file
with a ``timestamp`` field plus CSV outputs that are byte-identical across
reruns with the same inputs. Seeds: repeat k of compare-kernels uses
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
    fit_classifier,
    load_classifier,
    predict_classes,
    read_labels_csv,
    save_classifier,
)
from .graphs import build_laplacian, read_edge_list
from .kernels import KernelSpec
from .optim import AdamConfig, metrics, random_split
from .regression import (
    GPRegressionModel,
    _lml_route,
    _write_json,
    fit,
    load_model,
    read_targets_csv,
    save_model,
    woodbury_posterior,
)
from .spectral import _residual_norms, cached_eigendecomposition

_SCHEMA_VERSION = 1

_COMPARE_ROWS = (
    ("matern", "unnormalized"),
    ("matern", "sym_normalized"),
    ("diffusion", "unnormalized"),
    ("diffusion", "sym_normalized"),
    ("random_walk", "sym_normalized"),
    ("inverse_cosine", "sym_normalized"),
)


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


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


def _write_regression_csv(path, summary):
    rows = zip(summary.mean, summary.stddev)
    _write_csv(path, "node_index,mean,std", (
        (str(i), _fmt(mean), _fmt(std)) for i, (mean, std) in enumerate(rows)
    ))


def _write_classification_csv(path, probs, pred):
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
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            raise ValueError(
                f"--kernel is neither an existing file nor valid JSON: {text!r}"
            ) from None
    return KernelSpec.from_dict(obj)


def _class_count(args, labels) -> int:
    """``--classes`` or one more than the top label: above every label, and >= 2."""
    n_classes = args.classes if args.classes is not None else int(labels.max()) + 1
    if labels.max() >= n_classes:
        raise ValueError(f"label {labels.max()} out of range for {n_classes} declared classes")
    if n_classes < 2:
        raise ValueError(f"need at least two classes, got {n_classes}")
    return n_classes


def _timed(timings, name, fn, *args, **kwargs):
    """Call ``fn``, putting its wall time in seconds in ``timings[name]``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    timings[name] = time.perf_counter() - start
    return result


def _basis_for(graph, kind, eigenpairs, cache_dir, timings):
    """Laplacian and (cached) eigenpairs; records ``laplacian_s`` and either
    ``eigensolve_s`` (cache miss) or ``cache_load_s`` (hit) in ``timings``."""
    operator = _timed(timings, "laplacian_s", build_laplacian, graph, kind)
    start = time.perf_counter()
    basis, hit, path = cached_eigendecomposition(
        operator, min(eigenpairs, graph.node_count), cache_dir=cache_dir
    )
    timings["cache_load_s" if hit else "eigensolve_s"] = time.perf_counter() - start
    return operator, basis, hit, path


def _write_fit_metrics(out, command, payload, predicted, truth, train_idx, test_idx):
    """Score a fit on its train and test rows, write metrics.json and print.

    ``predicted`` and ``truth`` run over the rows of the targets or labels
    file; a score is left out when its split is empty.
    """
    task = payload["task"]
    name = "mse" if task == "regression" else "accuracy"
    payload.update(
        schema_version=_SCHEMA_VERSION, timestamp=_timestamp(),
        train_count=int(train_idx.size), test_count=int(test_idx.size),
    )
    line = f"{command}:"
    for split, idx in (("train", train_idx), ("test", test_idx)):
        if idx.size:
            score = payload[f"{split}_{name}"] = metrics(predicted[idx], truth[idx], task)
            line += f" {split}_{name}={_fmt(score)}"
    _write_json(out / "metrics.json", payload)
    print(line)


def _run_record(hit, path, timings) -> dict:
    """A command's eigen-cache outcome and stage timings (seconds)."""
    return {
        "eigen_cache_hit": hit,
        "eigen_cache_file": str(path) if path is not None else None,
        "timings": timings,
    }


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
    operator, basis, hit, path = _basis_for(
        graph, args.laplacian, args.eigenpairs, args.cache_dir, timings
    )
    residuals = _residual_norms(operator.matrix, basis.eigenvalues, basis.eigenvectors)
    out = _out_dir(args)
    summary = {
        "schema_version": _SCHEMA_VERSION,
        "timestamp": _timestamp(),
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "laplacian": args.laplacian,
        "eigenpairs": basis.n_retained,
        "lambda_min": float(basis.eigenvalues[0]),
        "lambda_max": float(basis.eigenvalues[-1]),
        "max_residual": float(residuals.max()),
        "cache_file": str(path) if path is not None else None,
        "cache_hit": hit,
        "timings": timings,
    }
    _write_json(out / "summary.json", summary)
    print(
        f"eigen: n={graph.node_count} pairs={basis.n_retained} "
        f"lambda_min={_fmt(basis.eigenvalues[0])} "
        f"lambda_max={_fmt(basis.eigenvalues[-1])} cache_hit={hit}"
    )
    return 0


def cmd_fit_regression(args) -> int:
    timings = {}
    graph = _timed(timings, "parse_s", read_edge_list, args.graph)
    spec = _load_kernel_spec(args.kernel, _default_spec("regression"))
    nodes, values = read_targets_csv(args.targets)
    if nodes.size == 0:
        raise ValueError("targets file is empty")
    config = AdamConfig(iterations=args.iterations, learning_rate=args.lr)
    train_idx, test_idx = _split(nodes.size, args.train_size, None, args.seed)
    _, basis, hit, path = _basis_for(
        graph, spec.laplacian_kind, args.eigenpairs, args.cache_dir, timings
    )

    model, trace = _timed(timings, "fit_s", fit, GPRegressionModel(
        spec=spec, basis=basis, train_nodes=nodes[train_idx],
        targets=values[train_idx], noise2=args.noise2,
    ), config)

    summary = _timed(timings, "predict_s", woodbury_posterior, model,
                     query=None, diag=True)
    out = _out_dir(args)
    _write_regression_csv(out / "predictions.csv", summary)
    _write_trace_csv(out / "trace.csv", "loss", trace)
    save_model(model, out / "model.json")

    route = _lml_route(model)
    _write_fit_metrics(out, "fit-regression", {
        "task": "regression",
        "kernel": model.spec.to_dict(),
        "noise2": model.noise2,
        "iterations": args.iterations,
        "final_loss": float(trace[-1]),
        "best_loss": float(np.min(trace)),
        "lml_route": route,
        "jitter": model._train_chol()[1] if route == "dense" else None,
        **_run_record(hit, path, timings),
    }, summary.mean[nodes], values, train_idx, test_idx)
    return 0


def cmd_fit_classify(args) -> int:
    timings = {}
    graph = _timed(timings, "parse_s", read_edge_list, args.graph)
    spec = _load_kernel_spec(args.kernel, _default_spec("classification"))
    nodes, labels = read_labels_csv(args.labels)
    if nodes.size == 0:
        raise ValueError("labels file is empty")
    n_classes = _class_count(args, labels)
    config = AdamConfig(iterations=args.iterations, learning_rate=args.lr)
    train_idx, test_idx = _split(
        nodes.size, args.train_size, args.test_size, args.seed
    )
    _, basis, hit, path = _basis_for(
        graph, spec.laplacian_kind, args.eigenpairs, args.cache_dir, timings
    )

    model = VariationalClassifier.create(
        spec=spec,
        basis=basis,
        n_classes=n_classes,
        inducing_nodes=nodes[train_idx],
    )
    model, trace = _timed(
        timings, "fit_s", fit_classifier,
        model,
        nodes[train_idx],
        labels[train_idx],
        config,
        seed=args.seed,
        mc_samples=args.mc_samples,
    )

    probs, pred = _timed(
        timings, "predict_s", predict_classes,
        model, query=None, mc_samples=args.predict_samples, seed=args.seed,
    )
    out = _out_dir(args)
    _write_classification_csv(out / "predictions.csv", probs, pred)
    _write_trace_csv(out / "trace.csv", "elbo", trace)
    save_classifier(model, out / "model.json")

    _write_fit_metrics(out, "fit-classify", {
        "task": "classification",
        "kernel": model.spec.to_dict(),
        "classes": n_classes,
        "iterations": args.iterations,
        "final_elbo": float(trace[-1]) if trace.size else None,
        **_run_record(hit, path, timings),
    }, pred[nodes], labels, train_idx, test_idx)
    return 0


def cmd_predict(args) -> int:
    timings = {}
    graph = _timed(timings, "parse_s", read_edge_list, args.graph)
    with open(args.model, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    if not isinstance(snapshot, dict):
        raise ValueError(f"model snapshot {args.model} is not a JSON object")
    kind = snapshot.get("kind")
    if kind not in ("regression", "classifier"):
        raise ValueError(f"unknown snapshot kind {kind!r} in {args.model}")
    kernel = snapshot.get("kernel", {})
    if not isinstance(kernel, dict):
        raise ValueError(f"snapshot field 'kernel' in {args.model} is not a JSON object")
    pairs = snapshot.get("eigenpairs", graph.node_count)
    if type(pairs) is not int or pairs < 1:
        raise ValueError(f"snapshot field 'eigenpairs' is not a positive integer: {pairs!r}")
    lap = kernel.get("laplacian", "unnormalized")
    _, basis, hit, path = _basis_for(graph, lap, pairs, args.cache_dir, timings)
    out = _out_dir(args)
    if kind == "regression":
        model = load_model(args.model, basis)
        summary = _timed(timings, "predict_s", woodbury_posterior, model,
                         query=None, diag=True)
        _write_regression_csv(out / "predictions.csv", summary)
    else:
        model = load_classifier(args.model, basis)
        probs, pred = _timed(
            timings, "predict_s", predict_classes,
            model, query=None, mc_samples=args.predict_samples, seed=args.seed,
        )
        _write_classification_csv(out / "predictions.csv", probs, pred)
    _write_json(out / "summary.json", {
        "schema_version": _SCHEMA_VERSION,
        "timestamp": _timestamp(),
        "kind": kind,
        **_run_record(hit, path, timings),
    })
    rows = "regression" if kind == "regression" else "classification"
    print(f"predict: wrote {basis.total_dim} {rows} rows")
    return 0


def cmd_compare_kernels(args) -> int:
    timings = {}
    graph = _timed(timings, "parse_s", read_edge_list, args.graph)
    if args.task == "regression":
        if args.targets is None:
            raise ValueError("--targets is required for the regression task")
        nodes, values = read_targets_csv(args.targets)
        metric_name = "test_mse"
    else:
        if args.labels is None:
            raise ValueError("--labels is required for the classification task")
        nodes, labels = read_labels_csv(args.labels)
        n_classes = _class_count(args, labels)
        metric_name = "test_accuracy"
    if nodes.size == 0:
        raise ValueError("no labeled/targeted nodes")
    train_size = args.train_size
    if train_size is None:
        raise ValueError("--train-size is required for compare-kernels")
    config = AdamConfig(iterations=args.iterations, learning_rate=args.lr)

    bases = {}
    for kind in ("unnormalized", "sym_normalized"):
        stage = timings[kind] = {}
        _, bases[kind], stage["eigen_cache_hit"], _ = _basis_for(
            graph, kind, args.eigenpairs, args.cache_dir, stage)

    start = time.perf_counter()
    rows = []
    for family, kind in _COMPARE_ROWS:
        spec = _default_spec(args.task, family, kind, args.rw_p)
        scores = []
        for k in range(args.repeats):
            seed = args.seed + k
            train_idx, test_idx = _split(nodes.size, train_size, args.test_size, seed)
            if test_idx.size == 0:
                raise ValueError("empty test split; lower --train-size")
            basis = bases[kind]
            if args.task == "regression":
                model, _ = fit(GPRegressionModel(
                    spec=spec, basis=basis, train_nodes=nodes[train_idx],
                    targets=values[train_idx], noise2=args.noise2,
                ), config)
                summary = woodbury_posterior(model, query=nodes[test_idx], diag=True)
                scores.append(metrics(summary.mean, values[test_idx], "regression"))
            else:
                model = VariationalClassifier.create(
                    spec=spec, basis=basis, n_classes=n_classes,
                    inducing_nodes=nodes[train_idx],
                )
                model, _ = fit_classifier(
                    model, nodes[train_idx], labels[train_idx], config,
                    seed=seed, mc_samples=args.mc_samples,
                )
                _, pred = predict_classes(
                    model, query=nodes[test_idx],
                    mc_samples=args.predict_samples, seed=seed,
                )
                scores.append(metrics(pred, labels[test_idx], "classification"))
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
    _write_json(out / "results.json", {
        "schema_version": _SCHEMA_VERSION,
        "timestamp": _timestamp(),
        "task": args.task,
        "metric": metric_name,
        "repeats": args.repeats,
        "train_size": train_size,
        "test_size": args.test_size,
        "iterations": args.iterations,
        "rows": rows,
        "timings": timings,
    })
    return 0


def _add_common(p, kernel=True):
    p.add_argument("--graph", required=True, help="edge list file")
    p.add_argument("--eigenpairs", type=int, default=500,
                   help="spectral modes to retain (clamped to n)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--cache-dir", default=None,
                   help="eigenpair cache directory (default $GRAPH_MATERN_CACHE_DIR)")
    if kernel:
        p.add_argument("--kernel", default=None,
                       help="kernel spec as inline JSON or a path to a JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graph-matern",
        description="Matern-family Gaussian processes on weighted graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="eigendecompose a graph Laplacian")
    _add_common(p, kernel=False)
    p.add_argument("--laplacian", choices=("unnormalized", "sym_normalized"),
                   default="unnormalized")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("fit-regression", help="GP regression on node targets")
    _add_common(p)
    p.add_argument("--targets", required=True, help="node_index,value CSV")
    p.add_argument("--train-size", type=int, default=None)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--noise2", type=float, default=0.01,
                   help="initial observation noise variance")
    p.set_defaults(func=cmd_fit_regression)

    p = sub.add_parser("fit-classify", help="variational classification on labels")
    _add_common(p)
    p.add_argument("--labels", required=True, help="node_index,class_index CSV")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--train-size", type=int, default=None)
    p.add_argument("--test-size", type=int, default=None)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--mc-samples", type=int, default=20)
    p.add_argument("--predict-samples", type=int, default=200)
    p.set_defaults(func=cmd_fit_classify)

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
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--train-size", type=int, default=None)
    p.add_argument("--test-size", type=int, default=None)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--noise2", type=float, default=0.01)
    p.add_argument("--mc-samples", type=int, default=20)
    p.add_argument("--predict-samples", type=int, default=200)
    p.add_argument("--rw-p", type=int, default=3,
                   help="fixed power for the random walk kernel row")
    p.set_defaults(func=cmd_compare_kernels)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("mc_samples", "predict_samples", "repeats"):
            if getattr(args, name, 1) < 1:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} must be >= 1, got {getattr(args, name)}")
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
