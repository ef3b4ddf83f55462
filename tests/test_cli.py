"""End-to-end command line runs through main(argv) in-process, and in
subprocesses where a run needs its own BLAS thread count."""

import ctypes
import json
import mmap
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graph_matern import build_laplacian, cli, eigendecompose_full
from graph_matern.cli import main
from graph_matern.spectral import DENSE_SIZE_LIMIT
from helpers import lattice_graph, random_connected_graph, two_cliques


def _write_graph(path, graph):
    lines = [f"nodes {graph.node_count}"]
    for u, v, w in zip(graph.u, graph.v, graph.w):
        lines.append(f"{u} {v} {float(w)!r}")
    path.write_text("\n".join(lines) + "\n")


def assert_timings(timings, names):
    """``timings`` holds exactly ``names``, each a non-negative float (seconds)."""
    assert set(timings) == set(names)
    for value in timings.values():
        assert isinstance(value, float) and value >= 0.0


@pytest.fixture
def regression_case(tmp_path):
    rng = np.random.default_rng(201)
    g = random_connected_graph(rng, 30)
    graph_path = tmp_path / "graph.txt"
    _write_graph(graph_path, g)
    basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
    smooth = basis.eigenvectors[:, 1] * np.sqrt(30) * 1.5
    y = smooth + 0.05 * rng.standard_normal(30)
    targets_path = tmp_path / "targets.csv"
    rows = ["node,value"] + [f"{i},{float(y[i])!r}" for i in range(24)]
    targets_path.write_text("\n".join(rows) + "\n")
    return graph_path, targets_path, y


@pytest.fixture
def classify_case(tmp_path):
    g = two_cliques(k=6)
    graph_path = tmp_path / "graph.txt"
    _write_graph(graph_path, g)
    labels_path = tmp_path / "labels.csv"
    rows = ["node,class"] + [f"{i},{0 if i < 6 else 1}" for i in range(12)]
    labels_path.write_text("\n".join(rows) + "\n")
    return graph_path, labels_path


@pytest.fixture
def no_eigensolve(monkeypatch):
    """Fail the test if the command reaches the eigensolve."""
    def eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(cli, "cached_eigendecomposition", eigensolve)


class TestEigen:
    def test_summary_and_cache_roundtrip(self, tmp_path, capsys):
        rng = np.random.default_rng(210)
        g = random_connected_graph(rng, 20)
        graph_path = tmp_path / "g.txt"
        _write_graph(graph_path, g)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        cache = tmp_path / "cache"
        argv = [
            "eigen", "--graph", str(graph_path), "--eigenpairs", "6",
            "--cache-dir", str(cache), "--laplacian", "sym_normalized",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        s1 = json.loads((out1 / "summary.json").read_text())
        assert s1["nodes"] == 20
        assert s1["eigenpairs"] == 6
        assert s1["laplacian"] == "sym_normalized"
        assert s1["cache_hit"] is False
        assert s1["eigensolver"] == "dense"  # 20 nodes
        lap = build_laplacian(g, "sym_normalized").matrix
        bound = 1e-8 * max(1.0, float(abs(lap).sum(axis=1).max()))
        assert 0.0 <= s1["lambda_min"] <= bound
        assert s1["lambda_max"] <= 2.0 + 1e-9
        assert "eigen: n=20 pairs=6" in capsys.readouterr().out

        assert main(argv + ["--out", str(out2)]) == 0
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s2["cache_hit"] is True
        assert s2["eigensolver"] is None
        for summary in (s1, s2):
            assert 0.0 <= summary["max_residual"] <= bound
        for key in ("nodes", "edges", "eigenpairs", "lambda_min", "lambda_max", "cache_file"):
            assert s1[key] == s2[key]
        assert_timings(s1["timings"], ("parse_s", "laplacian_s", "eigensolve_s"))
        assert_timings(s2["timings"], ("parse_s", "laplacian_s", "cache_load_s"))

    def test_summary_names_the_lanczos_solver(self, tmp_path):
        """Ten pairs of a lattice past ``DENSE_SIZE_LIMIT`` nodes go to
        Lanczos, and the summary names it."""
        graph = lattice_graph(65)
        assert graph.node_count > DENSE_SIZE_LIMIT
        graph_path = tmp_path / "g.txt"
        _write_graph(graph_path, graph)
        out = tmp_path / "out"
        assert main(["eigen", "--graph", str(graph_path), "--eigenpairs", "10",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["eigensolver"] == "lanczos" and summary["cache_hit"] is False
        assert summary["max_residual"] <= 1e-10

    def test_huge_declared_node_count_fails_by_name(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("nodes 3000000000\n0 1\n")
        code = main(["eigen", "--graph", str(graph_path), "--out", str(tmp_path)])
        assert code == 1
        assert "error: node count 3000000000 exceeds the" in capsys.readouterr().err

    def test_eigenpairs_clamped_to_node_count(self, tmp_path):
        rng = np.random.default_rng(211)
        g = random_connected_graph(rng, 9)
        graph_path = tmp_path / "g.txt"
        _write_graph(graph_path, g)
        out = tmp_path / "out"
        assert main([
            "eigen", "--graph", str(graph_path), "--out", str(out),
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["eigenpairs"] == 9

    def test_index_past_int64_fails_cleanly(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("0 1\n1 99999999999999999999\n")
        code = main(["eigen", "--graph", str(graph_path), "--out", str(tmp_path)])
        assert code == 1
        assert "error: invalid node index at line 2" in capsys.readouterr().err

    def test_empty_graph_fails_by_name_without_a_clamp(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("# no edges\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eigen", "--graph", str(graph_path), "--eigenpairs", "3",
                         "--out", str(out)])
        assert code == 1
        assert "error: the graph has no nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_full_basis_past_dense_limit_fails_by_name(self, tmp_path, capsys,
                                                       monkeypatch):
        """A pair count clamped to n > DENSE_SIZE_LIMIT is refused by name
        before the n x n dense matrix is mapped."""
        def dense_matrix(*args, **kwargs):
            raise AssertionError("dense matrix mapped")

        monkeypatch.setattr(mmap, "mmap", dense_matrix)
        n = DENSE_SIZE_LIMIT + 1
        graph_path = tmp_path / "path.txt"
        graph_path.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        code = main([
            "eigen", "--graph", str(graph_path), "--eigenpairs", "60000",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert f"error: node count {n} exceeds dense limit" in capsys.readouterr().err

    def test_missing_graph_file_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "eigen", "--graph", str(tmp_path / "nope.txt"), "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFitRegression:
    def test_fits_and_reports_metrics(self, regression_case, tmp_path, capsys):
        graph_path, targets_path, y = regression_case
        out = tmp_path / "fit"
        code = main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(targets_path), "--out", str(out),
            "--train-size", "16", "--iterations", "60", "--lr", "0.05",
        ])
        assert code == 0
        assert "test_mse=" in capsys.readouterr().out

        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["task"] == "regression"
        assert metrics["train_count"] == 16 and metrics["test_count"] == 8
        assert metrics["best_loss"] <= metrics["final_loss"] + 1e-12
        assert metrics["test_mse"] < float(np.var(y[:24]))
        assert metrics["lml_route"] == "dense"  # 16 train nodes, 30 eigenpairs
        assert metrics["jitter"] == 0.0
        assert metrics["cache_hit"] is False
        assert metrics["cache_file"] is None  # no cache directory
        assert metrics["eigensolver"] == "dense"
        assert_timings(metrics["timings"], (
            "parse_s", "laplacian_s", "eigensolve_s", "fit_s", "predict_s"))

        lines = (out / "predictions.csv").read_text().strip().split("\n")
        assert lines[0] == "node_index,mean,std"
        assert len(lines) == 31
        first = lines[1].split(",")
        assert int(first[0]) == 0 and float(first[2]) >= 0.0

        snapshot = json.loads((out / "model.json").read_text())
        assert snapshot["kind"] == "regression"

        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "step,loss"
        assert len(trace) == 1 + 61  # the initial point plus one row per step
        assert trace[1].startswith("0,") and trace[-1].startswith("60,")
        assert float(trace[-1].split(",")[1]) == pytest.approx(metrics["final_loss"])

        rerun = tmp_path / "rerun"
        assert main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(targets_path), "--out", str(rerun),
            "--train-size", "16", "--iterations", "60", "--lr", "0.05",
        ]) == 0
        for name in ("predictions.csv", "trace.csv"):
            assert (rerun / name).read_bytes() == (out / name).read_bytes()

    def test_more_train_nodes_than_eigenpairs_takes_spectral_route(
        self, regression_case, tmp_path
    ):
        graph_path, targets_path, _ = regression_case
        out = tmp_path / "fit"
        assert main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(targets_path), "--out", str(out),
            "--eigenpairs", "5", "--train-size", "16", "--iterations", "20",
            "--lr", "0.05",
        ]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["lml_route"] == "spectral"
        assert metrics["jitter"] is None
        assert np.isfinite(metrics["final_loss"])
        # The CSVs hold numbers under fixed headers: no route, jitter or timestamp.
        for name, header in (("predictions.csv", "node_index,mean,std"),
                             ("trace.csv", "step,loss")):
            assert (out / name).read_text().split("\n", 1)[0] == header
            assert np.all(np.isfinite(np.loadtxt(out / name, delimiter=",", skiprows=1)))

    @pytest.mark.parametrize("eigenpairs,route,other", [
        ("30", "dense", "_b_factor"), ("5", "spectral", "_c_factor"),
    ])
    def test_fit_and_predict_build_only_their_routes_factor(
        self, regression_case, tmp_path, monkeypatch, eigenpairs, route, other
    ):
        """16 train nodes on 30 eigenpairs take the dense route, on 5 the
        spectral one; the fit's LML and the predictions of the fit and of
        ``predict`` all read that route's factor, and the other is never built."""
        def refuse(self):
            raise AssertionError(f"{other} built")

        monkeypatch.setattr(cli.GPRegressionModel, other, property(refuse))
        graph_path, targets_path, _ = regression_case
        out, again = tmp_path / "fit", tmp_path / "predict"
        assert main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(targets_path), "--out", str(out),
            "--eigenpairs", eigenpairs, "--train-size", "16", "--iterations", "20",
            "--lr", "0.05",
        ]) == 0
        assert json.loads((out / "metrics.json").read_text())["lml_route"] == route
        assert main(["predict", "--graph", str(graph_path),
                     "--model", str(out / "model.json"), "--out", str(again)]) == 0
        assert (again / "predictions.csv").read_bytes() == (
            out / "predictions.csv").read_bytes()

    def test_inline_kernel_json(self, regression_case, tmp_path):
        graph_path, targets_path, _ = regression_case
        out = tmp_path / "fit"
        code = main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(targets_path), "--out", str(out),
            "--iterations", "5", "--lr", "0.05",
            "--kernel", '{"family": "diffusion", "kappa": 2.0}',
        ])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["kernel"]["family"] == "diffusion"

    def test_bad_kernel_argument(self, regression_case, tmp_path, capsys):
        graph_path, targets_path, _ = regression_case
        code = main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(targets_path), "--out", str(tmp_path / "x"),
            "--kernel", "{not json",
        ])
        assert code == 1
        assert "neither an existing file nor valid JSON" in capsys.readouterr().err

    def test_kernel_file_with_bad_json_names_flag_and_file(self, regression_case, tmp_path,
                                                           capsys):
        graph_path, targets_path, _ = regression_case
        spec_path = tmp_path / "k.json"
        spec_path.write_text("{bad")
        code = main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(targets_path), "--out", str(tmp_path / "x"),
            "--kernel", str(spec_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"--kernel file {str(spec_path)!r} is not valid JSON: Expecting property name" in err

    def test_unnormalized_weight_past_float64_fails_by_name(self, regression_case, tmp_path,
                                                             capsys):
        graph_path, targets_path, _ = regression_case
        code = main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(targets_path), "--out", str(tmp_path / "x"),
            "--iterations", "1",
            "--kernel", '{"family": "matern", "nu": 1000, "kappa": 100, "normalize": false}',
        ])
        assert code == 1
        assert ("error: matern kernel with nu=1000, kappa=100, sigma2=1.0 and normalize off: "
                "the largest spectral weight passes float64's range") in capsys.readouterr().err

    def test_out_of_range_target_node(self, regression_case, tmp_path, capsys):
        graph_path, _, _ = regression_case
        bad = tmp_path / "bad.csv"
        bad.write_text("node,value\n99,1.0\n")
        code = main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(bad), "--out", str(tmp_path / "x"),
            "--iterations", "1",
        ])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_kernel_from_a_json_file(self, regression_case, tmp_path):
        """``--kernel`` names a JSON file as well as holding JSON inline, with
        the same outputs byte for byte."""
        graph_path, targets_path, _ = regression_case
        spec = '{"family": "diffusion", "kappa": 2.0}'
        (tmp_path / "kernel.json").write_text(spec)
        outs = [tmp_path / "file", tmp_path / "inline"]
        for out, kernel in zip(outs, (str(tmp_path / "kernel.json"), spec)):
            assert main(["fit-regression", "--graph", str(graph_path), "--targets",
                         str(targets_path), "--out", str(out), "--kernel", kernel,
                         "--train-size", "16", "--iterations", "5"]) == 0
        metrics = json.loads((outs[0] / "metrics.json").read_text())
        assert metrics["kernel"]["family"] == "diffusion"
        for name in ("predictions.csv", "trace.csv", "model.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestFitClassify:
    def test_test_size_subsamples_the_test_side(self, classify_case, tmp_path):
        """A ``--test-size`` below the 8-row test side scores that many of
        its rows, drawn with seed + 1; a rerun draws the same ones and
        writes the same bytes."""
        graph_path, labels_path = classify_case
        outs = [tmp_path / "run", tmp_path / "rerun"]
        for out in outs:
            assert main(["fit-classify", "--graph", str(graph_path), "--labels",
                         str(labels_path), "--out", str(out), "--train-size", "4",
                         "--test-size", "3", "--iterations", "20", "--mc-samples", "5",
                         "--predict-samples", "10", "--seed", "2"]) == 0
        records = [json.loads((out / "metrics.json").read_text()) for out in outs]
        assert records[0]["train_count"] == 4 and records[0]["test_count"] == 3
        assert records[0]["test_accuracy"] == records[1]["test_accuracy"]
        _, test_idx = cli._split(12, 4, 3, 2)
        assert test_idx.size == 3 and set(test_idx) < set(cli._split(12, 4, None, 2)[1])
        for name in ("predictions.csv", "trace.csv", "model.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_separates_cliques_and_predict_matches(self, classify_case, tmp_path, capsys):
        graph_path, labels_path = classify_case
        out = tmp_path / "fit"
        code = main([
            "fit-classify", "--graph", str(graph_path),
            "--labels", str(labels_path), "--out", str(out),
            "--train-size", "8", "--iterations", "200", "--lr", "0.05",
            "--mc-samples", "10", "--predict-samples", "50", "--seed", "3",
        ])
        assert code == 0
        assert "test_accuracy=" in capsys.readouterr().out

        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["task"] == "classification"
        assert metrics["classes"] == 2
        assert metrics["test_accuracy"] == 1.0

        lines = (out / "predictions.csv").read_text().strip().split("\n")
        assert lines[0] == "node_index,label,p0,p1"
        assert len(lines) == 13
        probs = np.array([[float(x) for x in l.split(",")[2:]] for l in lines[1:]])
        assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "step,elbo"
        assert len(trace) == 1 + 200  # one row per step
        assert trace[-1].startswith("199,")
        assert float(trace[-1].split(",")[1]) == pytest.approx(metrics["final_elbo"])

        rerun = tmp_path / "rerun"
        assert main([
            "fit-classify", "--graph", str(graph_path),
            "--labels", str(labels_path), "--out", str(rerun),
            "--train-size", "8", "--iterations", "200", "--lr", "0.05",
            "--mc-samples", "10", "--predict-samples", "50", "--seed", "3",
        ]) == 0
        for name in ("predictions.csv", "trace.csv"):
            assert (rerun / name).read_bytes() == (out / name).read_bytes()

        # the predict subcommand reproduces the training run's predictions
        out2 = tmp_path / "pred"
        code = main([
            "predict", "--graph", str(graph_path),
            "--model", str(out / "model.json"), "--out", str(out2),
            "--predict-samples", "50", "--seed", "3",
        ])
        assert code == 0
        assert (out2 / "predictions.csv").read_bytes() == (
            out / "predictions.csv"
        ).read_bytes()

    def test_metrics_record_eigen_cache_and_timings(self, classify_case, tmp_path):
        graph_path, labels_path = classify_case
        cache = tmp_path / "cache"
        runs = []
        for name in ("miss", "hit"):
            assert main([
                "fit-classify", "--graph", str(graph_path),
                "--labels", str(labels_path), "--out", str(tmp_path / name),
                "--cache-dir", str(cache), "--iterations", "3",
                "--mc-samples", "2", "--predict-samples", "5",
            ]) == 0
            runs.append(json.loads((tmp_path / name / "metrics.json").read_text()))
        miss, hit = runs
        assert miss["cache_hit"] is False and hit["cache_hit"] is True
        assert miss["eigensolver"] == "dense" and hit["eigensolver"] is None
        assert miss["cache_file"] == hit["cache_file"]
        assert Path(hit["cache_file"]).is_file()
        stages = ("parse_s", "laplacian_s", "fit_s", "predict_s")
        assert_timings(miss["timings"], stages + ("eigensolve_s",))
        assert_timings(hit["timings"], stages + ("cache_load_s",))

    def test_declared_class_count_validated(self, classify_case, tmp_path, capsys):
        graph_path, labels_path = classify_case
        labels_path.write_text(labels_path.read_text().replace("11,1", "11,2"))
        code = main([
            "fit-classify", "--graph", str(graph_path),
            "--labels", str(labels_path), "--out", str(tmp_path / "x"),
            "--classes", "2", "--iterations", "1",
        ])
        assert code == 1
        assert "label out of range [0, 2); check the class count" in capsys.readouterr().err

    def test_empty_labels_rejected(self, classify_case, tmp_path, capsys):
        graph_path, _ = classify_case
        empty = tmp_path / "empty.csv"
        empty.write_text("node,class\n")
        code = main([
            "fit-classify", "--graph", str(graph_path),
            "--labels", str(empty), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "labels file is empty" in capsys.readouterr().err


class TestPredict:
    def test_regression_snapshot_roundtrip(self, regression_case, tmp_path):
        graph_path, targets_path, _ = regression_case
        out = tmp_path / "fit"
        assert main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(targets_path), "--out", str(out),
            "--iterations", "10", "--lr", "0.05",
        ]) == 0
        out2 = tmp_path / "pred"
        assert main([
            "predict", "--graph", str(graph_path),
            "--model", str(out / "model.json"), "--out", str(out2),
        ]) == 0
        assert (out2 / "predictions.csv").read_bytes() == (
            out / "predictions.csv"
        ).read_bytes()

    def test_summary_records_eigen_cache_and_timings(self, regression_case, tmp_path, capsys):
        graph_path, targets_path, _ = regression_case
        fit_dir = tmp_path / "fit"
        assert main([
            "fit-regression", "--graph", str(graph_path),
            "--targets", str(targets_path), "--out", str(fit_dir),
            "--iterations", "3", "--lr", "0.05",
        ]) == 0
        cache = tmp_path / "cache"
        runs = []
        for name in ("miss", "hit"):
            capsys.readouterr()
            assert main([
                "predict", "--graph", str(graph_path),
                "--model", str(fit_dir / "model.json"), "--out", str(tmp_path / name),
                "--cache-dir", str(cache),
            ]) == 0
            assert capsys.readouterr().out == "predict: wrote 30 regression rows\n"
            assert (tmp_path / name / "predictions.csv").read_bytes() == (
                fit_dir / "predictions.csv"
            ).read_bytes()
            runs.append(json.loads((tmp_path / name / "summary.json").read_text()))
        miss, hit = runs
        for summary in runs:
            assert summary["schema_version"] == 2 and summary["kind"] == "regression"
            assert isinstance(summary["timestamp"], str)
        assert miss["cache_hit"] is False and hit["cache_hit"] is True
        assert miss["eigensolver"] == "dense" and hit["eigensolver"] is None
        assert miss["cache_file"] == hit["cache_file"]
        assert Path(hit["cache_file"]).is_file()
        stages = ("parse_s", "laplacian_s", "predict_s")
        assert_timings(miss["timings"], stages + ("eigensolve_s",))
        assert_timings(hit["timings"], stages + ("cache_load_s",))

    def test_unknown_snapshot_kind(self, regression_case, tmp_path, capsys, no_eigensolve):
        graph_path, _, _ = regression_case
        bogus = tmp_path / "weird.json"
        bogus.write_text(json.dumps({"kind": "mystery", "kernel": {}}))
        code = main([
            "predict", "--graph", str(graph_path),
            "--model", str(bogus), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "unknown snapshot kind 'mystery'" in capsys.readouterr().err


class TestCompareKernels:
    def test_classification_comparison_table(self, classify_case, tmp_path, capsys):
        graph_path, labels_path = classify_case
        out = tmp_path / "cmp"
        code = main([
            "compare-kernels", "--graph", str(graph_path),
            "--task", "classification", "--labels", str(labels_path),
            "--out", str(out), "--train-size", "6", "--repeats", "2",
            "--iterations", "40", "--lr", "0.05", "--mc-samples", "8",
            "--predict-samples", "50",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "matern/unnormalized test_accuracy" in stdout
        assert "inverse_cosine/sym_normalized" in stdout

        lines = (out / "results.csv").read_text().strip().split("\n")
        assert lines[0] == "kernel,laplacian,test_accuracy_mean,test_accuracy_std,repeats"
        assert len(lines) == 7

        results = json.loads((out / "results.json").read_text())
        assert results["task"] == "classification"
        assert len(results["rows"]) == 6
        for row in results["rows"]:
            runs = np.asarray(row["runs"])
            assert runs.shape == (2,)
            assert_allclose(row["mean"], runs.mean(), rtol=1e-12)
            assert_allclose(row["std"], runs.std(), rtol=1e-9, atol=1e-12)

    def test_results_record_timings_and_eigen_cache(self, classify_case, tmp_path):
        """``results.json`` times the parse, each Laplacian kind's basis and
        the comparison loop, and holds each kind's eigen record (cache
        outcome, file and solver, as the other commands give it) under
        ``eigen``; the CSV does not change between a cold and a warm cache."""
        graph_path, labels_path = classify_case
        cache = tmp_path / "cache"
        runs = []
        for name in ("miss", "hit"):
            assert main([
                "compare-kernels", "--graph", str(graph_path),
                "--task", "classification", "--labels", str(labels_path),
                "--out", str(tmp_path / name), "--cache-dir", str(cache),
                "--train-size", "6", "--repeats", "1", "--iterations", "3",
                "--mc-samples", "2", "--predict-samples", "5",
            ]) == 0
            runs.append(json.loads((tmp_path / name / "results.json").read_text()))
        kinds = ("unnormalized", "sym_normalized")
        for run, hit, stage in zip(runs, (False, True), ("eigensolve_s", "cache_load_s")):
            timings, eigen = run["timings"], run["eigen"]
            assert set(timings) == {"parse_s", "compare_s", *kinds}
            assert set(eigen) == set(kinds)
            assert_timings({k: timings[k] for k in ("parse_s", "compare_s")},
                           ("parse_s", "compare_s"))
            for kind in kinds:
                assert set(eigen[kind]) == {"cache_hit", "cache_file", "eigensolver"}
                assert eigen[kind]["cache_hit"] is hit
                assert Path(eigen[kind]["cache_file"]).parent == cache
                assert eigen[kind]["eigensolver"] == (None if hit else "dense")
                assert_timings(timings[kind], ("laplacian_s", stage))
        assert ((tmp_path / "miss" / "results.csv").read_bytes()
                == (tmp_path / "hit" / "results.csv").read_bytes())

    @pytest.mark.filterwarnings("ignore:random walk base", "ignore:dropping")
    def test_regression_comparison_runs(self, regression_case, tmp_path):
        graph_path, targets_path, _ = regression_case
        out = tmp_path / "cmp"
        code = main([
            "compare-kernels", "--graph", str(graph_path),
            "--task", "regression", "--targets", str(targets_path),
            "--out", str(out), "--train-size", "16", "--repeats", "2",
            "--iterations", "20", "--lr", "0.05",
        ])
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["metric"] == "test_mse"
        assert all(row["mean"] > 0 for row in results["rows"])

    def test_required_arguments(self, classify_case, tmp_path, capsys):
        graph_path, labels_path = classify_case
        code = main([
            "compare-kernels", "--graph", str(graph_path),
            "--task", "regression", "--out", str(tmp_path / "x"),
            "--train-size", "4",
        ])
        assert code == 1
        assert "--targets is required" in capsys.readouterr().err
        code = main([
            "compare-kernels", "--graph", str(graph_path),
            "--task", "classification", "--labels", str(labels_path),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "--train-size is required" in capsys.readouterr().err


@pytest.fixture
def records(classify_case, tmp_path):
    """Each command's JSON run record, from one run of each on the two-clique
    graph: the fits with a test split, ``predict`` on the classifier that
    ``fit-classify`` saved."""
    graph_path, labels_path = classify_case
    targets_path = tmp_path / "targets.csv"
    targets_path.write_text("node,value\n0,1.0\n3,0.5\n7,-1.0\n")
    common = ["--graph", str(graph_path), "--iterations", "2", "--mc-samples", "2",
              "--predict-samples", "5"]
    runs = {
        "eigen": (["--graph", str(graph_path)], "summary.json"),
        "fit-regression": (["--graph", str(graph_path), "--targets", str(targets_path),
                            "--iterations", "2", "--train-size", "2"], "metrics.json"),
        "fit-classify": (common + ["--labels", str(labels_path), "--train-size", "6"],
                         "metrics.json"),
        "predict": (["--graph", str(graph_path), "--predict-samples", "5",
                     "--model", str(tmp_path / "fit-classify" / "model.json")],
                    "summary.json"),
        "compare-kernels": (common + ["--task", "classification", "--labels",
                                      str(labels_path), "--train-size", "6",
                                      "--repeats", "1"], "results.json"),
    }
    found = {}
    for command, (args, record) in runs.items():
        out = tmp_path / command
        assert main([command, "--out", str(out), *args]) == 0, command
        found[command] = json.loads((out / record).read_text())
    return found


def _readme_record_table():
    """README's "Run records" table as ``{command: set of keys}``: a key
    belongs to a command when its cell in that command's column is not
    empty."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Run records\n", 1)[1].split("\n#", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    cells = [[c.strip().strip("`") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
             for line in lines]
    header, rows = cells[0], cells[2:]
    commands = header[1:-1]
    return {command: {row[0] for row in rows if row[1 + i]}
            for i, command in enumerate(commands)}


class TestBlasThreads:
    def test_every_record_carries_the_pinned_thread_count(self, records):
        """``tests/conftest.py`` pins OpenBLAS to 1 thread unless the caller
        set the variable; every command's JSON record reads it back."""
        pinned = int(os.environ["OPENBLAS_NUM_THREADS"])
        for command, record in records.items():
            value = record["blas_threads"]
            assert value == pinned and type(value) is int, (command, value)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="finds the libraries in /proc/self/maps")
    def test_scipys_own_openblas_is_read(self):
        """scipy's OpenBLAS, which runs its LAPACK, exports
        ``scipy_openblas_*`` beside numpy's ``scipy_openblas_*64_``; a larger
        count in scipy's is the one reported."""
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        libs = [ctypes.CDLL(path) for path in sorted(paths) if ".so" in path]
        scipys = [lib for lib in libs if hasattr(lib, "scipy_openblas_set_num_threads")]
        numpys = [lib for lib in libs if hasattr(lib, "scipy_openblas_get_num_threads64_")]
        if not (scipys and numpys):
            pytest.skip("numpy and scipy do not each load their own scipy-openblas")
        get = scipys[0].scipy_openblas_get_num_threads
        put = scipys[0].scipy_openblas_set_num_threads
        get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
        numpys[0].scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        before = get()
        try:
            put(numpys[0].scipy_openblas_get_num_threads64_() + 1)
            assert cli._blas_threads() == get() > before
        finally:
            put(before)

    def test_the_eigen_cache_keys_on_the_thread_count(self, tmp_path):
        """The dense solve's bits may differ between BLAS thread counts, so a
        basis cached at one count is not served at another. ``eigen`` runs in
        subprocesses, since OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when it
        loads. Two runs at one count, each into a fresh cache, write the same
        file; a 2-thread run into a 1-thread run's cache misses and writes a
        second file beside the first."""
        graph_path = tmp_path / "g.txt"
        _write_graph(graph_path, random_connected_graph(np.random.default_rng(241), 60))
        tests = Path(__file__).resolve().parent
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))

        def eigen(threads, cache, out):
            run = subprocess.run(
                [sys.executable, "-m", "graph_matern.cli", "eigen", "--graph", str(graph_path),
                 "--eigenpairs", "40", "--cache-dir", str(cache), "--out", str(out)],
                env=dict(env, OPENBLAS_NUM_THREADS=str(threads)),
                capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            record = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            if record["blas_threads"] != threads:
                pytest.skip(f"OpenBLAS runs {record['blas_threads']} threads, not {threads}")
            return record

        files = {}
        for threads in (1, 2):
            for repeat in (0, 1):
                cache = tmp_path / f"cache-t{threads}-{repeat}"
                record = eigen(threads, cache, tmp_path / f"out-t{threads}-{repeat}")
                assert (record["cache_hit"], record["eigensolver"]) == (False, "dense")
                files.setdefault(threads, []).extend(cache.glob("*.eig"))
            first, second = files[threads]
            assert first.name == second.name
            assert first.read_bytes() == second.read_bytes()
        cache = files[1][0].parent
        assert eigen(2, cache, tmp_path / "out-mixed")["cache_hit"] is False
        assert sorted(p.name for p in cache.glob("*.eig")) == sorted(
            [files[1][0].name, files[2][0].name])


class TestRunRecords:
    def test_every_record_holds_the_readme_table_keys(self, records):
        """Each command's record has exactly the top-level keys of its
        column in README's "Run records" table, at schema version 2, and
        ``compare-kernels`` holds each basis's eigen record under ``eigen``."""
        table = _readme_record_table()
        assert list(table) == list(records)
        for command, record in records.items():
            assert set(record) == table[command], command
            assert record["schema_version"] == 2, command
        eigen = records["compare-kernels"]["eigen"]
        assert set(eigen) == {"unnormalized", "sym_normalized"}
        for basis in eigen.values():
            assert set(basis) == {"cache_hit", "cache_file", "eigensolver"}

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak RSS from /proc/self/status")
    def test_peak_rss_is_this_process_high_water_mark(self, records):
        """Written in order by one process, the records' peaks never fall
        and none passes the mark read after them."""
        with open("/proc/self/status", encoding="utf-8") as fh:
            now = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        peaks = [record["peak_rss_mib"] for record in records.values()]
        assert 0 < peaks[0] and peaks == sorted(peaks) and peaks[-1] <= now / 1024

    def test_peak_rss_is_null_without_proc_status(self, monkeypatch):
        def missing(*args, **kwargs):
            raise FileNotFoundError(args[0])

        monkeypatch.setattr(cli, "open", missing, raising=False)
        assert cli._peak_rss_mib() is None


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_eigen_takes_no_seed(self, capsys):
        """The Lanczos start vector is fixed, so ``eigen`` has no seed to take."""
        with pytest.raises(SystemExit) as exc:
            main(["eigen", "--graph", "g.txt", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


class TestRefusedBeforeTheEigensolve:
    """Settings that cannot work fail by name with exit code 1, before any
    eigenpair is computed."""

    TEST_SPLIT = ["--train-size", "2", "--seed", "1"]
    RW_P = '{"family": "random_walk", "alpha": 0.5, "laplacian": "sym_normalized", "p": %s}'
    CASES = {
        "negative_iterations": ("fit-regression", ["--iterations", "-1"],
                                "iterations must be >= 0, got -1"),
        "negative_lr": ("fit-regression", ["--lr", "-1"],
                        "learning_rate must be positive and finite, got -1.0"),
        "nan_lr": ("fit-classify", ["--lr", "nan"],
                   "learning_rate must be positive and finite, got nan"),
        "zero_mc_samples": ("fit-classify", ["--mc-samples", "0"],
                            "--mc-samples must be >= 1, got 0"),
        "zero_predict_samples": ("fit-classify", ["--predict-samples", "0"],
                                 "--predict-samples must be >= 1, got 0"),
        "zero_repeats": ("compare-kernels", ["--repeats", "0"],
                         "--repeats must be >= 1, got 0"),
        "snapshot_not_an_object": ("predict", [], "is not a JSON object"),
        "snapshot_kernel_a_list": ("predict", ["--model", "kernel_list.json"],
                                   "snapshot field 'kernel'"),
        "snapshot_eigenpairs_not_a_count": ("predict", ["--model", "eigenpairs_all.json"],
                                            "snapshot field 'eigenpairs'"),
        "one_class_labels": ("fit-classify", ["--labels", "one_class.csv"],
                             "need at least two classes"),
        "compare_one_class_labels": ("compare-kernels", ["--labels", "one_class.csv"],
                                     "need at least two classes"),
        "compare_empty_labels": ("compare-kernels", ["--labels", "empty.csv"],
                                 "labels file is empty"),
        "kernel_nu_not_a_number": (
            "fit-regression", ["--kernel", '{"family":"matern","nu":"abc","kappa":1}'],
            "nu must be a number, got 'abc'"),
        "snapshot_lacks_train_nodes": ("predict", ["--model", "no_train_nodes.json"],
                                       "lacks field 'train_nodes'"),
        "snapshot_lacks_eigenpairs": ("predict", ["--model", "no_eigenpairs.json"],
                                      "lacks field 'eigenpairs'"),
        "snapshot_noise2_a_string": ("predict", ["--model", "noise2_text.json"],
                                     "snapshot field 'noise2'"),
        "snapshot_whitened_a_string": ("predict", ["--model", "whitened_text.json"],
                                       "snapshot field 'whitened'"),
        "snapshot_more_eigenpairs_than_nodes": (
            "predict", ["--model", "eigenpairs_30.json"],
            "snapshot expects 30 eigenpairs but basis holds 12"),
        "snapshot_train_node_past_the_graph": (
            "predict", ["--model", "train_node_40.json"],
            "training node out of range [0, 12)"),
        "snapshot_inducing_node_past_the_graph": (
            "predict", ["--model", "inducing_node_12.json"],
            "inducing node out of range [0, 12)"),
        # Every row of a targets or labels file is checked against the graph
        # by the model's own checks; a test-split row too (the row at file
        # index 3 is in the test split of --train-size 2 --seed 1).
        "negative_noise2": ("fit-regression", ["--noise2", "-1"],
                            "noise2 must be positive and finite, got -1.0"),
        "nan_target": ("fit-regression", ["--targets", "nan_target.csv"],
                       "targets must be finite"),
        "target_node_past_the_graph": ("fit-regression", ["--targets", "target_40.csv"],
                                       "training node out of range [0, 12)"),
        "test_target_node_past_the_graph": (
            "fit-regression", ["--targets", "test_target_40.csv", *TEST_SPLIT],
            "training node out of range [0, 12)"),
        "test_target_node_below_zero": (
            "fit-regression", ["--targets", "test_target_minus_1.csv", *TEST_SPLIT],
            "training node out of range [0, 12)"),
        "test_target_nan": ("fit-regression", ["--targets", "test_target_nan.csv", *TEST_SPLIT],
                            "targets must be finite"),
        "labels_name_a_node_twice": ("fit-classify", ["--labels", "node_twice.csv"],
                                     "inducing nodes must be distinct"),
        "label_node_past_the_graph": ("fit-classify", ["--labels", "label_40.csv"],
                                      "inducing node out of range [0, 12)"),
        "test_label_node_past_the_graph": (
            "fit-classify", ["--labels", "test_label_40.csv", *TEST_SPLIT],
            "inducing node out of range [0, 12)"),
        "snapshot_negative_noise2": ("predict", ["--model", "noise2_negative.json"],
                                     "noise2 must be positive and finite, got -0.01"),
        "snapshot_q_mu_shape": ("predict", ["--model", "q_mu_2x3.json"],
                                "q_mu must have shape (2, 2), got (2, 3)"),
        "snapshot_inducing_node_twice": ("predict", ["--model", "inducing_3_3.json"],
                                         "inducing nodes must be distinct"),
        "snapshot_epsilon_past_one": ("predict", ["--model", "epsilon_1.5.json"],
                                      "epsilon must lie in (0, 1), got 1.5"),
        "compare_train_size_all_rows": ("compare-kernels", ["--train-size", "12"],
                                        "empty test split; lower --train-size"),
        "compare_train_size_past_the_rows": ("compare-kernels", ["--train-size", "13"],
                                             "n_train=13 out of range for 12 nodes"),
        "compare_target_node_past_the_graph": (
            "compare-kernels", ["--task", "regression", "--targets", "target_40.csv",
                                "--train-size", "1"],
            "training node out of range [0, 12)"),
        # Labels are checked by the classifier's one label rule, train and
        # test rows alike; then the test size and every compare-kernels
        # row's kernel.
        "label_below_zero": ("fit-classify", ["--labels", "label_minus_1.csv"],
                             "label out of range [0, 2); check the class count"),
        "test_label_below_zero": (
            "fit-classify", ["--labels", "test_label_minus_1.csv", *TEST_SPLIT],
            "label out of range [0, 2); check the class count"),
        "label_past_the_declared_classes": (
            "fit-classify", ["--labels", "label_2.csv", "--classes", "2"],
            "label out of range [0, 2); check the class count"),
        "compare_label_below_zero": (
            "compare-kernels", ["--labels", "label_minus_1.csv", "--train-size", "1"],
            "label out of range [0, 2); check the class count"),
        # With no --classes, a negative label and no label above 0 imply
        # one class; the label rule names the label, not the class count.
        "only_label_below_zero": ("fit-classify", ["--labels", "only_minus_1.csv"],
                                  "label out of range [0, 1); check the class count"),
        "compare_only_label_below_zero": (
            "compare-kernels", ["--labels", "only_minus_1.csv"],
            "label out of range [0, 1); check the class count"),
        "negative_test_size": ("fit-classify", ["--test-size", "-1"],
                               "--test-size must be >= 0, got -1"),
        "compare_negative_test_size": ("compare-kernels", ["--test-size", "-1"],
                                       "--test-size must be >= 0, got -1"),
        "compare_test_size_zero": ("compare-kernels", ["--test-size", "0"],
                                   "--test-size must be >= 1 for compare-kernels, got 0"),
        # Every index a row or a snapshot gives is held to one integer rule,
        # and a kernel spec is a JSON object whose p is an int64 integer.
        "target_node_past_int64": ("fit-regression", ["--targets", "target_past_int64.csv"],
                                   "error: malformed row at line 3"),
        "label_past_int64": ("fit-classify", ["--labels", "label_past_int64.csv"],
                             "error: malformed row at line 3"),
        "snapshot_train_node_past_int64": (
            "predict", ["--model", "train_node_1e30.json"],
            f"node index {10**30} is not an int64 integer"),
        "kernel_a_number": ("fit-regression", ["--kernel", "1"],
                            "kernel spec must be a JSON object, got 1"),
        "kernel_null": ("fit-regression", ["--kernel", "null"],
                        "kernel spec must be a JSON object, got None"),
        "kernel_a_list": ("fit-regression", ["--kernel", "[1]"],
                          "kernel spec must be a JSON object, got [1]"),
        "kernel_p_inf": ("fit-classify", ["--kernel", RW_P % "Infinity"],
                         "p must be a positive integer, got inf"),
        "kernel_p_nan": ("fit-classify", ["--kernel", RW_P % "NaN"],
                         "p must be a positive integer, got nan"),
        "kernel_p_past_int64": ("fit-classify", ["--kernel", RW_P % 10**30],
                                f"p must be a positive integer, got {10**30}"),
        "compare_rw_p_zero": ("compare-kernels", ["--rw-p", "0"],
                              "p must be a positive integer, got 0"),
        "compare_rw_p_below_zero": ("compare-kernels", ["--rw-p", "-1"],
                                    "p must be a positive integer, got -1"),
        # A seed is refused by name by every command that takes one, whether
        # or not the command draws a split with it.
        "negative_seed_regression": ("fit-regression", ["--seed", "-1"],
                                     "--seed must be >= 0, got -1"),
        "negative_seed_classify": ("fit-classify", ["--seed", "-1"],
                                   "--seed must be >= 0, got -1"),
        "negative_seed_predict_classifier": (
            "predict", ["--model", "classifier.json", "--seed", "-1"],
            "--seed must be >= 0, got -1"),
        "compare_negative_seed": ("compare-kernels", ["--seed", "-1"],
                                  "--seed must be >= 0, got -1"),
        "snapshot_jitter_nan": ("predict", ["--model", "jitter_nan.json"],
                                "jitter must be finite and >= 0, got nan"),
        "snapshot_jitter_inf": ("predict", ["--model", "jitter_inf.json"],
                                "jitter must be finite and >= 0, got inf"),
        "snapshot_jitter_negative": ("predict", ["--model", "jitter_minus_1.json"],
                                     "jitter must be finite and >= 0, got -1.0"),
        # An integer past float64's range is refused by name, in a kernel
        # spec or in a snapshot's number field.
        "kernel_nu_past_float64": (
            "fit-regression", ["--kernel", '{"family":"matern","nu":%d,"kappa":1}' % 10**400],
            f"nu must be positive and finite, got {10**400}"),
        # A nu or kappa whose powers float64 cannot hold is refused with the
        # accepted range, before the graph is read.
        "kernel_kappa_past_float64_reach": (
            "fit-regression", ["--kernel", '{"family":"matern","nu":1.5,"kappa":1e120}'],
            "kappa must lie in [1e-100, 1e+100], got 1e+120"),
        "kernel_nu_past_float64_reach": (
            "fit-classify", ["--kernel", '{"family":"matern","nu":1.4e154,"kappa":1,'
                                         '"laplacian":"sym_normalized"}'],
            "nu must lie in [1e-100, 1e+100], got 1.4e+154"),
        "snapshot_noise2_past_float64": ("predict", ["--model", "noise2_1e400.json"],
                                         "snapshot field 'noise2'"),
        "snapshot_sigma2_past_float64": ("predict", ["--model", "sigma2_1e400.json"],
                                         f"sigma2 must be positive and finite, got {10**400}"),
        "snapshot_target_past_float64": ("predict", ["--model", "target_1e400.json"],
                                         "snapshot field 'targets'"),
        "snapshot_epsilon_past_float64": ("predict", ["--model", "epsilon_1e400.json"],
                                          "snapshot field 'epsilon'"),
        "snapshot_jitter_past_float64": ("predict", ["--model", "jitter_1e400.json"],
                                         "snapshot field 'jitter'"),
        "snapshot_q_mu_past_float64": ("predict", ["--model", "q_mu_1e400.json"],
                                       "snapshot field 'q_mu'"),
        # An eigenpair count or a train size is refused by name before the
        # graph is parsed.
        "zero_eigenpairs_eigen": ("eigen", ["--eigenpairs", "0"],
                                  "--eigenpairs must be >= 1, got 0"),
        "negative_eigenpairs_regression": ("fit-regression", ["--eigenpairs", "-3"],
                                           "--eigenpairs must be >= 1, got -3"),
        "compare_zero_eigenpairs": ("compare-kernels", ["--eigenpairs", "0"],
                                    "--eigenpairs must be >= 1, got 0"),
        "regression_train_size_zero": ("fit-regression", ["--train-size", "0"],
                                       "--train-size must be >= 1, got 0"),
        "classify_train_size_zero": ("fit-classify", ["--train-size", "0"],
                                     "--train-size must be >= 1, got 0"),
        "compare_train_size_zero": ("compare-kernels", ["--train-size", "0"],
                                    "--train-size must be >= 1, got 0"),
        "compare_regression_train_size_zero": (
            "compare-kernels", ["--task", "regression", "--targets", "targets.csv",
                                "--train-size", "0"],
            "--train-size must be >= 1, got 0"),
        "regression_train_size_negative": ("fit-regression", ["--train-size", "-1"],
                                           "--train-size must be >= 1, got -1"),
        # A noise2 that float64 reads as infinite, on the command line or in
        # a snapshot.
        "noise2_past_float64": ("fit-regression", ["--noise2", "1e400"],
                                "noise2 must be positive and finite, got inf"),
        "snapshot_noise2_inf": ("predict", ["--model", "noise2_1e999.json"],
                                "noise2 must be positive and finite, got inf"),
    }
    # Complete snapshots of each kind, which the files below break one field of.
    REGRESSION = {"schema_version": 1, "kind": "regression", "eigenpairs": 12,
                  "kernel": {"family": "matern", "nu": 1.5, "kappa": 3.0},
                  "noise2": 0.01, "train_nodes": [0, 5], "targets": [1.0, -1.0]}
    CLASSIFIER = {"schema_version": 1, "kind": "classifier", "eigenpairs": 12,
                  "kernel": {"family": "matern", "nu": 3.0, "kappa": 5.0,
                             "laplacian": "sym_normalized"},
                  "n_classes": 2, "inducing_nodes": [0, 7], "whitened": True,
                  "diag_cov": True, "epsilon": 0.001, "jitter": 1e-6,
                  "q_mu": [[0.0, 0.0], [0.0, 0.0]], "q_scale": [[0.0, 0.0], [0.0, 0.0]]}
    # Inputs that cases name, written into the working directory; a repeated
    # option takes the last value given.
    FILES = {
        "kernel_list.json": json.dumps({"kind": "regression", "kernel": ["matern"]}),
        "eigenpairs_all.json": json.dumps({"kind": "regression", "eigenpairs": "all"}),
        "one_class.csv": "node,class\n0,0\n5,0\n7,0\n",
        "empty.csv": "node,class\n",
        "no_train_nodes.json": json.dumps(
            {k: v for k, v in REGRESSION.items() if k != "train_nodes"}),
        "no_eigenpairs.json": json.dumps(
            {k: v for k, v in REGRESSION.items() if k != "eigenpairs"}),
        "noise2_text.json": json.dumps(dict(REGRESSION, noise2="x")),
        "whitened_text.json": json.dumps(dict(CLASSIFIER, whitened="false")),
        "eigenpairs_30.json": json.dumps(dict(REGRESSION, eigenpairs=30)),
        "train_node_40.json": json.dumps(dict(REGRESSION, train_nodes=[0, 40])),
        "inducing_node_12.json": json.dumps(dict(CLASSIFIER, inducing_nodes=[0, 12])),
        "nan_target.csv": "node,value\n0,1.0\n5,nan\n",
        "target_40.csv": "node,value\n0,1.0\n40,2.0\n",
        "test_target_40.csv": "node,value\n0,1.0\n5,-1.0\n7,0.5\n40,2.0\n",
        "test_target_minus_1.csv": "node,value\n0,1.0\n5,-1.0\n7,0.5\n-1,2.0\n",
        "test_target_nan.csv": "node,value\n0,1.0\n5,-1.0\n7,0.5\n9,nan\n",
        "node_twice.csv": "node,class\n0,0\n0,1\n7,1\n",
        "label_40.csv": "node,class\n0,0\n40,1\n",
        "test_label_40.csv": "node,class\n0,0\n7,1\n5,0\n40,1\n",
        "label_minus_1.csv": "node,class\n0,0\n7,1\n5,-1\n",
        "test_label_minus_1.csv": "node,class\n0,0\n7,1\n5,0\n9,-1\n",
        "label_2.csv": "node,class\n0,0\n7,1\n5,2\n",
        "only_minus_1.csv": "node,class\n0,0\n7,-1\n5,0\n",
        "noise2_negative.json": json.dumps(dict(REGRESSION, noise2=-0.01)),
        "q_mu_2x3.json": json.dumps(dict(CLASSIFIER, q_mu=[[0.0] * 3, [0.0] * 3])),
        "inducing_3_3.json": json.dumps(dict(CLASSIFIER, inducing_nodes=[3, 3])),
        "epsilon_1.5.json": json.dumps(dict(CLASSIFIER, epsilon=1.5)),
        "target_past_int64.csv": "node,value\n0,1.0\n99999999999999999999,2.0\n",
        "label_past_int64.csv": "node,class\n0,0\n7,99999999999999999999\n",
        "train_node_1e30.json": json.dumps(dict(REGRESSION, train_nodes=[0, 10**30])),
        "classifier.json": json.dumps(CLASSIFIER),
        "jitter_nan.json": json.dumps(dict(CLASSIFIER, jitter=float("nan"))),
        "jitter_inf.json": json.dumps(dict(CLASSIFIER, jitter=float("inf"))),
        "jitter_minus_1.json": json.dumps(dict(CLASSIFIER, jitter=-1.0)),
        "noise2_1e400.json": json.dumps(dict(REGRESSION, noise2=10**400)),
        "sigma2_1e400.json": json.dumps(
            dict(REGRESSION, kernel=dict(REGRESSION["kernel"], sigma2=10**400))),
        "target_1e400.json": json.dumps(dict(REGRESSION, targets=[10**400, -1.0])),
        "epsilon_1e400.json": json.dumps(dict(CLASSIFIER, epsilon=10**400)),
        "jitter_1e400.json": json.dumps(dict(CLASSIFIER, jitter=10**400)),
        "q_mu_1e400.json": json.dumps(dict(CLASSIFIER, q_mu=[[10**400, 0.0], [0.0, 0.0]])),
        "noise2_1e999.json": json.dumps(REGRESSION).replace('"noise2": 0.01', '"noise2": 1e999'),
    }

    @pytest.mark.parametrize("command, rows", [
        ("fit-regression", ["--targets", "targets.csv"]),
        ("fit-classify", ["--labels", "labels.csv"]),
        ("compare-kernels", ["--task", "classification", "--labels", "labels.csv"]),
    ])
    def test_train_size_refused_before_the_graph_is_read(self, command, rows, tmp_path,
                                                          capsys, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("graph read")

        monkeypatch.setattr(cli, "read_edge_list", unread)
        assert main([command, "--graph", "graph.txt", "--out", str(tmp_path / "x"),
                     *rows, "--train-size", "0"]) == 1
        assert "--train-size must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("snapshot", ["REGRESSION", "CLASSIFIER"])
    def test_the_complete_snapshots_reach_the_eigensolve(self, snapshot, classify_case,
                                                         tmp_path, no_eigensolve):
        """The snapshots the cases break are valid, so each case fails on its
        one broken field."""
        graph_path, _ = classify_case
        path = tmp_path / "model.json"
        path.write_text(json.dumps(getattr(self, snapshot)))
        with pytest.raises(AssertionError, match="eigensolve reached"):
            main(["predict", "--graph", str(graph_path), "--model", str(path),
                  "--out", str(tmp_path / "x")])

    def test_the_test_split_cases_put_their_bad_row_in_the_test_split(self):
        """Rows 0-3 of the test-split cases' files, split by ``TEST_SPLIT``:
        the bad row, the last, is a test row."""
        _, test_idx = cli._split(4, 2, None, 1)
        assert 3 in test_idx

    @pytest.mark.parametrize("case", list(CASES))
    def test_fails_by_name(self, case, classify_case, tmp_path, capsys, monkeypatch,
                           no_eigensolve):
        graph_path, labels_path = classify_case
        command, extra, message = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        targets_path = tmp_path / "targets.csv"
        targets_path.write_text("node,value\n0,1.0\n5,-1.0\n")
        snapshot = tmp_path / "model.json"
        snapshot.write_text(json.dumps(["regression"]))
        inputs = {
            "eigen": [],
            "fit-regression": ["--targets", str(targets_path)],
            "fit-classify": ["--labels", str(labels_path)],
            "compare-kernels": ["--task", "classification", "--labels", str(labels_path),
                                "--train-size", "6"],
            "predict": ["--model", str(snapshot)],
        }[command]
        code = main([command, "--graph", str(graph_path), "--out", str(tmp_path / "x"),
                     *inputs, *extra])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
