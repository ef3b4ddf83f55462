"""One run of one benchmark workload, in a fresh process.

run.py starts this as a child process after writing the workload's inputs
into a work directory:

    python3 bench/worker.py --workload NAME --inputs DIR --work DIR --seed S \
        --seconds T --trace 0|1 --size full|tiny

The child imports ``graph_matern`` from the checkout's ``src/``, times the
program's CLI commands (called in-process through ``cli.main``) and library
calls, checks every output against references that do not use the
package, and writes ``result.json`` into its work directory. With
``--trace 1`` it also records spans (see tracing.py) and derives the
per-layer metrics from them.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import struct
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse.linalg import splu

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

# Operation sizes per workload. "full" is what the benchmark measures;
# "tiny" runs the same steps in a second or two for the smoke tests.
SIZES = {
    "full": {
        "cora_classify": dict(n=2485, edges=5069, eigenpairs=500, train=140,
                              test=1000, iterations=250, lr=0.01, mc_samples=20,
                              predict_samples=200, min_passes=4),
        "traffic_regression": dict(side=45, eigenpairs=500, train=800,
                                   iterations=20, lr=0.05, min_passes=4),
        "mesh_gmrf": dict(side=224, observed=2000, queries=100, eigenpairs=32,
                          min_passes=2),
    },
    "tiny": {
        "cora_classify": dict(n=150, edges=300, eigenpairs=60, train=40,
                              test=60, iterations=150, lr=0.02, mc_samples=5,
                              predict_samples=20, min_passes=2),
        "traffic_regression": dict(side=12, eigenpairs=60, train=80,
                                   iterations=40, lr=0.05, min_passes=2),
        "mesh_gmrf": dict(side=16, observed=40, queries=8, eigenpairs=8,
                          min_passes=2),
    },
}

WORKLOADS = tuple(SIZES["full"])

# Accuracy floor for the planted partition: halfway between always naming
# the largest class and a perfect score.
FLOOR_BETWEEN_CHANCE_AND_PERFECT = 0.5
# test_mse may exceed the exact posterior at the true hyperparameters by at
# most this factor (the CLI fits a different kernel on a truncated basis).
ORACLE_MSE_FACTOR = 2.0

_BASIS_HEADER = struct.Struct("<8sIQQ")


def generate(workload: str, seed: int, size: str, work: Path) -> dict:
    """Write the workload's input files and check references into ``work``.

    Returns the input properties that the program's behaviour depends on.
    """
    cfg = SIZES[size][workload]
    if workload == "cora_classify":
        inputs = workloads.cora_like(seed, n=cfg["n"], n_edges=cfg["edges"])
        workloads.write_pairs_csv(work / "labels.csv", "node_index,class_index",
                                  np.arange(inputs.graph.n), inputs.labels)
        props = dict(inputs.props, l=cfg["eigenpairs"], m=cfg["train"],
                     test=cfg["test"])
        refs = {"labels": inputs.labels}
    elif workload == "traffic_regression":
        inputs = workloads.road_like(seed, side=cfg["side"], train=cfg["train"],
                                     eigenpairs=cfg["eigenpairs"])
        workloads.write_pairs_csv(work / "targets.csv", "node_index,value",
                                  np.arange(inputs.graph.n), inputs.targets)
        props = inputs.props
        refs = {"targets": inputs.targets, "prior_cov": inputs.extra["prior_cov"]}
    elif workload == "mesh_gmrf":
        inputs = workloads.mesh_like(seed, side=cfg["side"], observed=cfg["observed"],
                                     queries=cfg["queries"])
        props = dict(inputs.props, eigenpairs=cfg["eigenpairs"])
        refs = {"targets": inputs.targets, "observed": inputs.extra["observed"],
                "query": inputs.extra["query"], "latent": inputs.extra["latent"]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    workloads.write_edge_list(work / "graph.txt", inputs.graph)
    g = inputs.graph
    np.savez(work / "reference.npz", u=g.u, v=g.v, w=g.w, n=g.n, **refs)
    props["seed"] = seed
    (work / "inputs.json").write_text(json.dumps(props, sort_keys=True))
    return props


def blas_record() -> dict:
    """OpenBLAS thread count as each loaded OpenBLAS library reports it."""
    record = {name: os.environ.get(name) for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[Path(path).name] = int(getter())
                break
    record["openblas_threads"] = threads
    record["pinned_by"] = ("OPENBLAS_NUM_THREADS/OMP_NUM_THREADS/MKL_NUM_THREADS=1 "
                           "in the child's environment, set by run.py before start")
    return record


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **blas_record(),
    }


class Run:
    """State of one child run: work directory, timers, checks, tracer."""

    def __init__(self, inputs: Path, ref: dict, work: Path, seed: int, seconds: float,
                 cfg: dict, modules: dict, tracer):
        self.inputs = inputs
        self.ref = ref
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.cfg = cfg
        self.mod = modules
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = None
        self._dirs = 0

    def fresh(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / f"{prefix}{self._dirs}"
        path.mkdir()
        return path

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return bool(ok)

    def cli(self, argv, phase: str, cold=False) -> float:
        """Time one CLI command in-process; a raise or non-zero exit fails.

        ``cold`` marks a command run against an empty eigen-cache directory.
        """
        argv = [str(a) for a in argv]
        span = self.tracer.open("cli.main", "cli") if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.mod["cli"].main(argv)
        except Exception as exc:  # a crashing command is a counted failure
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if span is not None:
            out = Path(argv[argv.index("--out") + 1]) / "predictions.csv"
            self.tracer.close(span, command=argv[0], phase=phase, cold=cold,
                              csv_out_bytes=out.stat().st_size if out.exists() else 0)
        self.check(f"{argv[0]} exits 0", code == 0, code)
        return elapsed

    def call(self, label: str, fn, *args):
        """Time one library call; a raise is a counted failure."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a crashing call is a counted failure
            result = None
            self.check(f"{label} runs", False, repr(exc))
        else:
            self.check(f"{label} runs", True)
        return time.perf_counter() - start, result

    def repeat(self, body):
        """Run measured passes until ``seconds`` have passed (at least
        ``min_passes``); then record the peak RSS, before any check runs."""
        deadline = time.perf_counter() + self.seconds
        done = 0
        while done < self.cfg["min_passes"] or time.perf_counter() < deadline:
            body()
            done += 1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- checks that do not use the package --------------------------------------


def read_basis(path):
    """Read an eigen-cache file: header, eigenvalues, column-major vectors."""
    data = Path(path).read_bytes()
    magic, _, n, l = _BASIS_HEADER.unpack_from(data)
    if magic != b"GMEIG\x00\x00\x00":
        raise ValueError(f"bad magic in {path}")
    body = np.frombuffer(data, dtype="<f8", offset=_BASIS_HEADER.size)
    return body[:l], body[l:].reshape((n, l), order="F")


def check_eigenpairs(run: Run, cache: Path, lap: sp.csr_array, n_pairs: int):
    files = sorted(cache.glob("*.eig"))
    if not run.check("eigen cache written", len(files) == 1, f"{len(files)} files"):
        return
    try:
        values, vectors = read_basis(files[0])
    except (OSError, ValueError, struct.error) as exc:
        run.check("eigen cache readable", False, repr(exc))
        return
    n = lap.shape[0]
    if not run.check("eigen cache shape", vectors.shape == (n, n_pairs),
                     f"{vectors.shape} != {(n, n_pairs)}"):
        return
    scale = max(1.0, float(abs(lap).sum(axis=1).max()))
    resid = np.linalg.norm(workloads.csr_matvec(lap, vectors) - vectors * values, axis=0)
    run.check("eigenpair residuals |L u - lambda u|", resid.max() <= 1e-8 * scale,
              f"max {resid.max():.3e}")
    gram = vectors.T @ vectors
    run.check("eigenvectors orthonormal",
              np.abs(gram - np.eye(n_pairs)).max() <= 1e-8,
              f"max {np.abs(gram - np.eye(n_pairs)).max():.3e}")
    run.check("eigenvalues ascending from 0",
              np.all(np.diff(values) >= -1e-12) and abs(values[0]) <= 1e-8 * scale,
              f"lambda_0 {values[0]:.3e}")


def _digest(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def check_predictions(run: Run, passes):
    """Fit outputs are byte-identical across passes (the determinism
    contract), and ``predict`` on the saved snapshot writes exactly what
    the fit command wrote."""
    first = _digest(passes[0][0] / "predictions.csv")
    run.check("predictions.csv written", first is not None)
    for fit_dir, predict_dir in passes:
        fit = _digest(fit_dir / "predictions.csv")
        run.check("predictions.csv identical across runs", fit == first and fit is not None,
                  fit_dir.name)
        run.check("predict output equals fit output",
                  _digest(predict_dir / "predictions.csv") == fit and fit is not None,
                  predict_dir.name)


def _json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _graph_laplacian(ref, kind):
    graph = workloads.Graph(n=int(ref["n"]), u=ref["u"], v=ref["v"], w=ref["w"])
    return workloads.laplacian(graph, kind)


# -- workloads --------------------------------------------------------------


def _eigen_argv(graph, kind, pairs, cache, out):
    return ["eigen", "--graph", graph, "--laplacian", kind, "--eigenpairs", pairs,
            "--cache-dir", cache, "--out", out]


def _cold_eigen(run: Run, graph, kind, pairs, phase):
    """One ``eigen`` command into a fresh cache directory, which it writes."""
    cache, out = run.fresh("cache"), run.fresh("eigen")
    elapsed = run.cli(_eigen_argv(graph, kind, pairs, cache, out), phase, cold=True)
    run.check("cold eigen misses the cache",
              _json(out / "summary.json").get("cache_hit") is False, out.name)
    return elapsed, cache


def _fit_and_predict(run: Run, kind, fit_argv, predict_argv):
    """Passes of one cold ``eigen`` into a fresh cache directory (the set-up,
    which writes the cache), then one fit command and one predict of its
    snapshot, which read it. Interleaving the set-up with the passes spreads
    every sample over the whole run. Returns the timings and the last fit's
    output directory."""
    cfg, g = run.cfg, run.inputs / "graph.txt"
    colds, caches, fits, predicts, passes = [], [], [], [], []

    def body():
        elapsed, cache = _cold_eigen(run, g, kind, cfg["eigenpairs"], "setup")
        colds.append(elapsed)
        caches.append(cache)
        common = ["--graph", g, "--cache-dir", cache, "--seed", run.seed]
        fit_dir, predict_dir = run.fresh("fit"), run.fresh("predict")
        fits.append(run.cli(fit_argv + common + ["--out", fit_dir], "pass"))
        predicts.append(run.cli(
            ["predict", "--model", fit_dir / "model.json", *predict_argv, *common,
             "--out", predict_dir], "pass"))
        passes.append((fit_dir, predict_dir))

    run.repeat(body)
    check_eigenpairs(run, caches[-1], _graph_laplacian(run.ref, kind),
                     cfg["eigenpairs"])
    check_predictions(run, passes)
    # eigen_s repeats setup_s on these workloads; bench/README.md says why.
    samples = {"setup_s": colds, "eigen_s": colds, "command_s": fits, "predict_s": predicts}
    return samples, passes[-1][0]


def cora_classify(run: Run, props):
    cfg = run.cfg
    samples, fit_dir = _fit_and_predict(
        run, "sym_normalized",
        ["fit-classify", "--labels", run.inputs / "labels.csv",
         "--eigenpairs", cfg["eigenpairs"], "--train-size", cfg["train"],
         "--test-size", cfg["test"], "--iterations", cfg["iterations"], "--lr", cfg["lr"],
         "--mc-samples", cfg["mc_samples"], "--predict-samples", cfg["predict_samples"]],
        ["--predict-samples", cfg["predict_samples"]])
    accuracy = _json(fit_dir / "metrics.json").get("test_accuracy")
    share = props["majority_share"]
    floor = share + FLOOR_BETWEEN_CHANCE_AND_PERFECT * (1.0 - share)
    run.check("test_accuracy above the planted-partition floor",
              accuracy is not None and accuracy >= floor, f"{accuracy} < {floor:.3f}")
    # The same floor on every node outside the training set, scored from
    # predictions.csv against the generated labels.
    labels = run.ref["labels"]
    train = _json(fit_dir / "model.json").get("inducing_nodes", [])
    held_out = np.setdiff1d(np.arange(labels.size), train)
    try:
        predicted = np.loadtxt(fit_dir / "predictions.csv", delimiter=",", skiprows=1,
                               usecols=1, dtype=np.int64)
        ours = float(np.mean(predicted[held_out] == labels[held_out]))
    except (OSError, ValueError, IndexError) as exc:
        run.check("predictions.csv parses", False, repr(exc))
        ours = None
    else:
        run.check("held-out accuracy above the planted-partition floor",
                  len(train) == run.cfg["train"] and ours >= floor, f"{ours} < {floor:.3f}")
    return samples, {"test_accuracy": accuracy, "held_out_accuracy": ours,
                     "accuracy_floor": floor}


def traffic_regression(run: Run, props):
    cfg = run.cfg
    samples, fit_dir = _fit_and_predict(
        run, "unnormalized",
        ["fit-regression", "--targets", run.inputs / "targets.csv",
         "--eigenpairs", cfg["eigenpairs"], "--train-size", cfg["train"],
         "--iterations", cfg["iterations"], "--lr", cfg["lr"]],
        [])
    reported = _json(fit_dir / "metrics.json").get("test_mse")
    train = np.asarray(_json(fit_dir / "model.json").get("train_nodes", []), dtype=np.int64)
    targets = run.ref["targets"]
    test = np.setdiff1d(np.arange(targets.size), train)
    quality = {"test_mse": reported}
    try:
        mean = np.loadtxt(fit_dir / "predictions.csv", delimiter=",", skiprows=1,
                          ndmin=2)[:, 1]
        ours = float(np.mean((mean[test] - targets[test]) ** 2))
    except (OSError, ValueError, IndexError) as exc:
        run.check("predictions.csv parses", False, repr(exc))
        return samples, quality
    run.check("test_mse matches predictions.csv",
              reported is not None and train.size == cfg["train"]
              and abs(ours - reported) <= 1e-6 * max(reported, 1e-12),
              f"{reported} vs {ours}")
    oracle = workloads.oracle_test_mse(run.ref["prior_cov"], props["noise2"], targets,
                                       train, test)
    run.check("test_mse within the oracle factor",
              reported is not None and reported <= ORACLE_MSE_FACTOR * oracle,
              f"{reported} > {ORACLE_MSE_FACTOR} x {oracle:.4f}")
    run.check("test_mse beats the constant predictor",
              reported is not None and reported <= 0.5 * float(np.var(targets[test])),
              f"{reported}")
    quality["oracle_mse"] = oracle
    return samples, quality


def mesh_gmrf(run: Run, props):
    cfg, g = run.cfg, run.inputs / "graph.txt"
    graphs, kernels, regression = (run.mod[k] for k in ("graphs", "kernels", "regression"))
    kappa, noise2 = props["kappa"], props["noise2"]

    def assemble():
        operator = graphs.build_laplacian(graphs.read_edge_list(g), "unnormalized")
        return operator, kernels.matern_precision_sparse(operator, props["nu"], kappa)

    ref = run.ref
    obs, y, query = ref["observed"], ref["targets"], ref["query"]
    setup, solves, colds, warms, posts, caches = [], [], [], [], [], []
    precision = None

    def body():
        """One pass: set-up (read, Laplacian, precision), the solve on that
        precision, then a cold and a warm ``eigen``. Only the latest
        precision is kept, so the peak RSS does not grow with the passes."""
        nonlocal precision
        span = run.tracer.open("bench.setup", "bench") if run.tracer else None
        elapsed, built = run.call("read, laplacian, precision", assemble)
        if span is not None:
            run.tracer.close(span)
        setup.append(elapsed)
        if built is None:
            posts.append(None)
        else:
            precision = built[1]
            elapsed, post = run.call("gmrf_posterior", regression.gmrf_posterior,
                                     precision, noise2, obs, y, query)
            solves.append(elapsed)
            posts.append(post)
        elapsed, cache = _cold_eigen(run, g, "unnormalized", cfg["eigenpairs"], "pass")
        colds.append(elapsed)
        caches.append(cache)
        out = run.fresh("eigen")
        warms.append(run.cli(_eigen_argv(g, "unnormalized", cfg["eigenpairs"], cache, out),
                             "pass"))
        run.check("warm eigen reads the cache",
                  _json(out / "summary.json").get("cache_hit") is True, out.name)

    run.repeat(body)
    if precision is None:
        raise RuntimeError("mesh set-up failed on every pass; nothing to measure")

    lap = _graph_laplacian(ref, "unnormalized")
    check_eigenpairs(run, caches[-1], lap, cfg["eigenpairs"])
    n = lap.shape[0]
    a = sp.csr_array((4.0 / kappa**2) * sp.eye_array(n, format="csr") + lap)
    own = (a @ a).tocsr()
    diff = abs(sp.csr_array(precision) - own).max()
    run.check("precision equals (4/kappa^2 I + L)^2", diff <= 1e-12 * abs(own).max(),
              f"max diff {diff:.3e}")
    counts = np.bincount(obs, minlength=n).astype(float)
    b = np.bincount(obs, y / noise2, minlength=n)
    # Reference mean over all nodes from our own posterior precision. A
    # minimum-degree ordering keeps the fill small on a symmetric pattern;
    # the residual, taken with our own matvec, is what vouches for it.
    q_post = sp.csr_array(own + sp.diags_array(counts / noise2))
    mean = splu(q_post.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
    resid = np.linalg.norm(workloads.csr_matvec(q_post, mean) - b) / np.linalg.norm(b)
    run.check("(Q + diag(counts)/noise2) mean = b", resid <= 1e-10, f"relative {resid:.3e}")
    scale = np.abs(mean).max()
    for post in posts:
        ok = post is not None and np.abs(post.mean - mean[query]).max() <= 1e-8 * scale
        run.check("gmrf_posterior mean at the queries", ok)
        run.check("gmrf_posterior variances positive",
                  post is not None and bool(np.all(post.variance > 0)))
    post = posts[-1]
    quality = {}
    if post is not None:
        mse = float(np.mean((post.mean - ref["latent"][query]) ** 2))
        var = float(np.mean(post.variance))
        run.check("query error consistent with posterior variance", mse <= 3.0 * var,
                  f"mse {mse:.4f} vs variance {var:.4f}")
        quality = {"query_mse": mse, "query_variance": var}
    return {"setup_s": setup, "eigen_s": colds, "command_s": solves,
            "predict_s": warms}, quality


RUNNERS = {"cora_classify": cora_classify, "traffic_regression": traffic_regression,
           "mesh_gmrf": mesh_gmrf}


# -- per-layer metrics from spans -------------------------------------------


def per_layer(tracer: tracing.Tracer) -> dict:
    """Per-layer metrics of one traced run: medians of span durations and
    self times, and exact counts per fit command or per cache lookup."""
    med, durations = tracing.median, tracing.durations
    parses = tracer.ending("read_edge_list")
    eigensolves = [s for s in tracer.spans if s.name.startswith("spectral.eigendecompose")
                   and not tracer.below_any(s, "spectral.eigendecompose")]
    lookups = tracer.named("cli.cached_eigendecomposition")
    cold = [s for s in lookups if tracer.ancestor(s, "cli.main").attrs["cold"]]
    warm = [s for s in lookups if not tracer.ancestor(s, "cli.main").attrs["cold"]]
    weights = tracer.ending("spectral_weights")
    adams = tracer.ending("adam_step")
    lml = tracer.named("regression.log_marginal_likelihood")
    precision = tracer.named("kernels.matern_precision_sparse")

    calls_per_step, adam_calls, step_self = [], [], []
    for fit in tracer.named("cli.fit") + tracer.named("cli.fit_classifier"):
        fit_adams = tracer.below(fit, adams)
        steps = tracer.below(fit, lml) if fit.name == "cli.fit" else fit_adams
        adam_calls.append(len(fit_adams))
        if steps:
            calls_per_step.append(len(tracer.below(fit, weights)) / len(steps))
        if fit.name == "cli.fit_classifier" and fit_adams:
            step_self.append(tracer.self_time(fit) / len(fit_adams) * 1e3)

    passes = [c for c in tracer.named("cli.main") if c.attrs["phase"] == "pass"]
    csv_mb = []
    for command in passes:
        read = sum(s.attrs["bytes"] for s in tracer.below(command, tracer.ending("_csv")))
        if read or command.attrs["csv_out_bytes"]:
            csv_mb.append((read + command.attrs["csv_out_bytes"]) / 1e6)
    lml_ms = [d * 1e3 for d in durations(lml)]
    return {
        "graphs.parse_s": med(durations(parses)),
        "graphs.laplacian_s": med(durations(tracer.ending("build_laplacian"))),
        "graphs.edges": max((s.attrs["edges"] for s in parses), default=0),
        "spectral.eigensolve_s": med(durations(eigensolves)),
        "spectral.cache_misses": sum(not s.attrs["hit"] for s in cold) / max(len(cold), 1),
        "spectral.cache_mb": med([s.attrs["bytes"] / 1e6
                                  for s in tracer.named("spectral.save_basis")]),
        "spectral.cache_load_s": med(durations(tracer.named("spectral.load_basis"))),
        "spectral.cache_hits": sum(s.attrs["hit"] for s in warm) / max(len(warm), 1),
        "kernels.weights_us": med([d * 1e6 for d in durations(weights)]),
        "kernels.weights_calls_per_step": med(calls_per_step),
        "kernels.precision_s": med(durations(precision)),
        "kernels.precision_nnz": max((s.attrs["nnz"] for s in precision), default=0),
        "regression.lml_ms_p50": float(np.percentile(lml_ms, 50)) if lml_ms else 0.0,
        "regression.lml_ms_p99": float(np.percentile(lml_ms, 99)) if lml_ms else 0.0,
        "regression.lml_self_ms": med([tracer.self_time(s) * 1e3 for s in lml]),
        "regression.posterior_s": med(durations(tracer.named("cli.woodbury_posterior"))),
        "regression.gmrf_s": med(durations(tracer.named("regression.gmrf_posterior"))),
        "classification.step_self_ms": med(step_self),
        "classification.predict_s": med(durations(tracer.named("cli.predict_classes"))),
        "optim.adam_us": med([d * 1e6 for d in durations(adams)]),
        "optim.adam_calls": med(adam_calls),
        "cli.self_s": med([tracer.self_time(c, layer="cli") for c in passes]),
        "cli.csv_mb": med(csv_mb),
        "trace.spans": len(tracer.spans),
    }


# -- entry point ------------------------------------------------------------


def load_package():
    """Import graph_matern from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "graph_matern" / "__init__.py").is_file():
        raise SystemExit(f"graph_matern sources not found under {src}")
    sys.path.insert(0, str(src))
    from graph_matern import classification, cli, graphs, kernels, regression, spectral

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"graph_matern imported from {cli.__file__}, not {src}")
    return {"cli": cli, "graphs": graphs, "spectral": spectral, "kernels": kernels,
            "regression": regression, "classification": classification}


def run_workload(workload, inputs, work, seed, seconds, trace, size="full",
                 modules=None) -> dict:
    """Run one workload on inputs already generated in ``inputs``; outputs
    go to ``work``."""
    modules = modules or load_package()
    inputs, work = Path(inputs), Path(work)
    props = json.loads((inputs / "inputs.json").read_text())
    tracer = tracing.Tracer() if trace else None
    # The archive reads an array only when it is indexed, so references that
    # only the checks use (the dense prior covariance, the graph arrays) are
    # loaded after the peak RSS has been read.
    ref = np.load(inputs / "reference.npz")
    run = Run(inputs, ref, work, seed, seconds, SIZES[size][workload], modules, tracer)
    if tracer is not None:
        tracer.install(modules)
    try:
        samples, quality = RUNNERS[workload](run, props)
    finally:
        ref.close()
        if tracer is not None:
            tracer.uninstall()
    result = {
        "samples": samples,
        "peak_rss_mb": run.peak_rss_mb,
        "attempted": run.attempted,
        "failures": run.failures,
        "quality": quality,
        "props": props,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer)
        result["spans"] = tracer.records()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    modules = load_package()
    result = run_workload(args.workload, args.inputs, args.work, args.seed,
                          args.seconds, bool(args.trace), args.size, modules)
    result["env"] = environment(args.seed)
    (Path(args.work) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
