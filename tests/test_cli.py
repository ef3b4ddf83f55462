"""End-to-end command line runs through main(argv) in-process."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from graph_matern import build_laplacian, cli, eigendecompose_full
from graph_matern.cli import main
from graph_matern.spectral import DENSE_SIZE_LIMIT
from helpers import random_connected_graph, two_cliques


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
        assert s1["lambda_min"] == 0.0
        assert s1["lambda_max"] <= 2.0 + 1e-9
        assert "eigen: n=20 pairs=6" in capsys.readouterr().out

        assert main(argv + ["--out", str(out2)]) == 0
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s2["cache_hit"] is True
        lap = build_laplacian(g, "sym_normalized").matrix
        bound = 1e-8 * max(1.0, float(abs(lap).sum(axis=1).max()))
        for summary in (s1, s2):
            assert 0.0 <= summary["max_residual"] <= bound
        for key in ("nodes", "edges", "eigenpairs", "lambda_min", "lambda_max", "cache_file"):
            assert s1[key] == s2[key]
        assert_timings(s1["timings"], ("parse_s", "laplacian_s", "eigensolve_s"))
        assert_timings(s2["timings"], ("parse_s", "laplacian_s", "cache_load_s"))

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

    def test_full_basis_past_dense_limit_fails_by_name(self, tmp_path, capsys,
                                                       monkeypatch):
        """A pair count clamped to n > DENSE_SIZE_LIMIT is refused by name
        instead of asking for an n x n dense matrix."""
        def dense_solve(*args, **kwargs):
            raise AssertionError("dense eigensolve reached")

        monkeypatch.setattr(scipy.linalg, "eigh", dense_solve)
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
        assert metrics["eigen_cache_hit"] is False
        assert metrics["eigen_cache_file"] is None  # no cache directory
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


class TestFitClassify:
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
        assert miss["eigen_cache_hit"] is False and hit["eigen_cache_hit"] is True
        assert miss["eigen_cache_file"] == hit["eigen_cache_file"]
        assert Path(hit["eigen_cache_file"]).is_file()
        stages = ("parse_s", "laplacian_s", "fit_s", "predict_s")
        assert_timings(miss["timings"], stages + ("eigensolve_s",))
        assert_timings(hit["timings"], stages + ("cache_load_s",))

    def test_declared_class_count_validated(self, classify_case, tmp_path, capsys):
        graph_path, labels_path = classify_case
        code = main([
            "fit-classify", "--graph", str(graph_path),
            "--labels", str(labels_path), "--out", str(tmp_path / "x"),
            "--classes", "1", "--iterations", "1",
        ])
        assert code == 1
        assert "out of range for 1 declared classes" in capsys.readouterr().err

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
            assert summary["schema_version"] == 1 and summary["kind"] == "regression"
            assert isinstance(summary["timestamp"], str)
        assert miss["eigen_cache_hit"] is False and hit["eigen_cache_hit"] is True
        assert miss["eigen_cache_file"] == hit["eigen_cache_file"]
        assert Path(hit["eigen_cache_file"]).is_file()
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
        """``results.json`` times the parse, each Laplacian kind's basis (with
        its cache outcome) and the comparison loop; the CSV does not change
        between a cold and a warm cache."""
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
            timings = run["timings"]
            assert set(timings) == {"parse_s", "compare_s", *kinds}
            assert_timings({k: timings[k] for k in ("parse_s", "compare_s")},
                           ("parse_s", "compare_s"))
            for kind in kinds:
                assert timings[kind].pop("eigen_cache_hit") is hit
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


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestRefusedBeforeTheEigensolve:
    """Settings that cannot work fail by name with exit code 1, before any
    eigenpair is computed."""

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
    }
    # Inputs that cases name, written into the working directory; a repeated
    # option takes the last value given.
    FILES = {
        "kernel_list.json": json.dumps({"kind": "regression", "kernel": ["matern"]}),
        "eigenpairs_all.json": json.dumps({"kind": "regression", "eigenpairs": "all"}),
        "one_class.csv": "node,class\n0,0\n5,0\n7,0\n",
    }

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
