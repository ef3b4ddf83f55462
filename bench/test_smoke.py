"""Smoke tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q bench/test_smoke.py

They drive every workload and every check through run.py, and show that a
deliberately corrupted output, a nondeterministic output and a crashing
command are each counted as failures rather than passing silently.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

import run as bench_run
import worker
import workloads

BENCH = Path(__file__).resolve().parent


def _bench(*args, cwd=BENCH.parent):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", worker.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_clean_at_tiny_size(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = bench_run.metric_units()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        layer = {k: v["value"] for k, v in result["metrics"].items()}
        cfg = worker.SIZES["tiny"][workload]
        steps = {"cora_classify": 1, "traffic_regression": 2, "mesh_gmrf": 0}[workload]
        assert layer["kernels.weights_calls_per_step"] == steps
        assert layer["optim.adam_calls"] == cfg.get("iterations", 0)
        assert layer["spectral.cache_hits"] == 1.0
        assert layer["spectral.cache_misses"] == 1.0
        spans = json.loads((BENCH / "out" / f"{workload}-seed5-spans.json").read_text())
        assert spans["env"]["openblas_threads"]
        assert all(s["end"] >= s["start"] for s in spans["spans"])


def test_all_workloads_in_one_command():
    proc = _bench("--workload", "all", "--seed", "2", "--seconds", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert "error_rate" in proc.stdout
    for name in bench_run.metric_units()[0]:
        for workload in worker.WORKLOADS:
            assert f"{workload}/{name}" in result["metrics"]


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    if (BENCH.parent / "BENCHMARK.json").exists():
        shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "cora_classify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.fixture(scope="module")
def modules():
    return worker.load_package()


def _run_tiny(tmp_path, workload, modules, seed=3):
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    worker.generate(workload, seed, "tiny", inputs)
    return worker.run_workload(workload, inputs, work, seed, 0.0, False, "tiny", modules)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_clean_tiny_run_in_process(tmp_path, modules, workload):
    """The control for the injected faults below: no fault, no failure."""
    result = _run_tiny(tmp_path, workload, modules)
    assert result["failures"] == []
    assert result["attempted"] > 10


def _corrupt_predict(modules, monkeypatch):
    cli = modules["cli"]
    original = cli.cmd_predict

    def corrupted(args):
        code = original(args)
        with open(Path(args.out) / "predictions.csv", "a", encoding="utf-8") as fh:
            fh.write("0\n")
        return code

    monkeypatch.setattr(cli, "cmd_predict", corrupted)


def _unseeded_predictions(modules, monkeypatch):
    cli = modules["cli"]
    original = cli.predict_classes
    draws = iter(range(1000))
    monkeypatch.setattr(cli, "predict_classes",
                        lambda model, query=None, mc_samples=100, seed=0:
                        original(model, query, mc_samples, seed + next(draws)))


def _shift_posterior(modules, monkeypatch):
    cli = modules["cli"]
    original = cli.woodbury_posterior

    def shifted(model, query=None, diag=False):
        summary = original(model, query, diag)
        return type(summary)(mean=summary.mean + 1.0, variance=summary.variance)

    monkeypatch.setattr(cli, "woodbury_posterior", shifted)


def _crash_fit(modules, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(modules["cli"], "fit", crash)


def _perturb_gmrf(modules, monkeypatch):
    regression = modules["regression"]
    original = regression.gmrf_posterior

    def perturbed(*args):
        summary = original(*args)
        return type(summary)(mean=summary.mean * (1 + 1e-4), variance=summary.variance,
                             covariance=summary.covariance)

    monkeypatch.setattr(regression, "gmrf_posterior", perturbed)


def _perturb_precision(modules, monkeypatch):
    kernels = modules["kernels"]
    original = kernels.matern_precision_sparse
    monkeypatch.setattr(kernels, "matern_precision_sparse",
                        lambda *args: original(*args) * 1.001)


def _bad_eigenvectors(modules, monkeypatch):
    spectral = modules["spectral"]
    original = spectral.save_basis

    def save(path, basis):
        vectors = np.roll(basis.eigenvectors, 1, axis=0)
        original(path, type(basis)(basis.eigenvalues, vectors, basis.total_dim,
                                   basis.laplacian_kind))

    monkeypatch.setattr(spectral, "save_basis", save)


@pytest.mark.parametrize("workload, inject, check", [
    ("cora_classify", _corrupt_predict, "predict output equals fit output"),
    ("cora_classify", _unseeded_predictions, "predictions.csv identical across runs"),
    ("traffic_regression", _shift_posterior, "test_mse within the oracle factor"),
    ("traffic_regression", _crash_fit, "fit-regression exits 0"),
    ("traffic_regression", _bad_eigenvectors, "eigenpair residuals"),
    ("mesh_gmrf", _perturb_gmrf, "gmrf_posterior mean at the queries"),
    ("mesh_gmrf", _perturb_precision, "precision equals"),
])
def test_corrupted_output_is_counted(tmp_path, modules, monkeypatch, workload, inject, check):
    inject(modules, monkeypatch)
    result = _run_tiny(tmp_path, workload, modules)
    assert any(f.startswith(check) for f in result["failures"]), result["failures"]


def test_generators_are_seeded_and_shaped():
    a, b = workloads.cora_like(7), workloads.cora_like(7)
    assert np.array_equal(a.graph.u, b.graph.u) and np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.graph.u, workloads.cora_like(8).graph.u)
    assert (a.graph.n, a.graph.edges, a.props["classes"]) == (2485, 5069, 7)
    intra = np.mean(a.labels[a.graph.u] == a.labels[a.graph.v])
    assert abs(intra - 0.81) < 0.005
    for inputs in (a, workloads.road_like(7, side=20, train=100),
                   workloads.mesh_like(7, side=30, observed=50, queries=10)):
        adj = sp.coo_array((inputs.graph.w, (inputs.graph.u, inputs.graph.v)),
                           shape=(inputs.graph.n,) * 2)
        assert csgraph.connected_components(adj, directed=False)[0] == 1
    mesh = workloads.mesh_like(7, side=30, observed=50, queries=10)
    assert mesh.graph.edges == 2 * 30 * 29 + 2 * 29 * 29
    assert not set(mesh.extra["observed"]) & set(mesh.extra["query"])


def test_own_matvec_matches_scipy():
    rng = np.random.default_rng(0)
    mat = sp.random_array((40, 30), density=0.2, random_state=1, format="csr")
    x = rng.standard_normal((30, 3))
    assert np.allclose(workloads.csr_matvec(mat, x), mat @ x, atol=1e-14)
    assert np.allclose(workloads.csr_matvec(mat, x[:, 0]), mat @ x[:, 0], atol=1e-14)
