"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single summary line with the measured quantity so the
pass/fail record in the verbose log is self-contained. Criterion 10 needs
the prepared citation dataset (see scripts/fetch_cora.py); without it the
test fails with instructions rather than silently skipping.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graph_matern import (
    AdamConfig,
    GPRegressionModel,
    KernelSpec,
    VariationalClassifier,
    apply_spectral_function,
    build_laplacian,
    cached_eigendecomposition,
    eigendecompose_full,
    elbo,
    fit,
    fit_classifier,
    gmrf_posterior,
    heat_propagate,
    kernel_matrix,
    kl_gaussian,
    log_marginal_likelihood,
    matern_precision_sparse,
    pathwise_sample,
    posterior,
    predict_classes,
    read_edge_list,
    read_labels_csv,
    robustmax,
    spectral_weights,
    woodbury_posterior,
)
from graph_matern.kernels import from_unconstrained, to_unconstrained, unconstrained_name
from helpers import (
    conditional_gaussian,
    random_connected_graph,
    random_graph,
    star_graph,
    two_cliques,
)

CORA_ENV = "GRAPH_MATERN_CORA_DIR"


def _random_spec(rng, family, kind):
    sigma2 = float(rng.uniform(0.5, 2.0))
    if family == "matern":
        return KernelSpec(
            family="matern", nu=float(rng.uniform(0.5, 5.0)),
            kappa=float(rng.uniform(0.5, 4.0)), sigma2=sigma2, laplacian_kind=kind,
        )
    if family == "diffusion":
        return KernelSpec(
            family="diffusion", kappa=float(rng.uniform(0.3, 2.5)),
            sigma2=sigma2, laplacian_kind=kind,
        )
    if family == "random_walk":
        return KernelSpec(
            family="random_walk", alpha=float(rng.uniform(0.0, 0.95)),
            p=int(rng.integers(1, 6)), sigma2=sigma2, laplacian_kind=kind,
        )
    return KernelSpec(family="inverse_cosine", sigma2=sigma2, laplacian_kind=kind)


@pytest.mark.filterwarnings("ignore:random walk base")
def test_criterion_01_psd_suite():
    """Every kernel family/Laplacian combination is PSD on random graphs."""
    rng = np.random.default_rng(1001)
    combos = (
        ("matern", "unnormalized"), ("matern", "sym_normalized"),
        ("diffusion", "unnormalized"), ("diffusion", "sym_normalized"),
        ("random_walk", "sym_normalized"), ("inverse_cosine", "sym_normalized"),
    )
    start = time.monotonic()
    worst = np.inf
    for _ in range(50):
        n = int(rng.integers(4, 49))
        g = random_graph(rng, n, p=float(rng.uniform(0.1, 0.5)))
        bases = {
            kind: eigendecompose_full(build_laplacian(g, kind))
            for kind in ("unnormalized", "sym_normalized")
        }
        for family, kind in combos:
            spec = _random_spec(rng, family, kind)
            k = kernel_matrix(bases[kind], spec)
            vals = np.linalg.eigvalsh(k)
            ratio = vals.min() / max(vals.max(), 1e-30)
            worst = min(worst, ratio)
            assert vals.min() >= -1e-8 * max(vals.max(), 0.0), (family, kind)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 01: worst eig ratio {worst:.2e} over 50 graphs x 6 combos in {elapsed:.1f}s")


def test_criterion_02_woodbury_equals_dense():
    """Low-rank identity posterior matches dense conditioning to 1e-8."""
    rng = np.random.default_rng(1002)
    families = ("matern", "diffusion", "random_walk", "inverse_cosine")
    worst = 0.0
    for trial in range(25):
        n = int(rng.integers(8, 65))
        family = families[trial % 4]
        kind = "sym_normalized" if family in ("random_walk", "inverse_cosine") else (
            "unnormalized" if trial % 2 == 0 else "sym_normalized"
        )
        g = random_connected_graph(rng, n)
        basis = eigendecompose_full(build_laplacian(g, kind))
        spec = _random_spec(rng, family, kind)
        n_train = int(rng.integers(2, max(3, n // 2)))
        train = np.sort(rng.choice(n, size=n_train, replace=False))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = GPRegressionModel(
                spec=spec, basis=basis, train_nodes=train,
                targets=rng.standard_normal(n_train),
                noise2=float(rng.uniform(0.01, 0.5)),
            )
            a = posterior(model)
            b = woodbury_posterior(model)
        err = max(
            float(np.max(np.abs(a.mean - b.mean))),
            float(np.max(np.abs(a.covariance - b.covariance))),
        )
        worst = max(worst, err)
        assert err <= 1e-8, (trial, family, kind, err)
    print(f"criterion 02: worst max-entry deviation {worst:.2e} over 25 configurations")


def test_criterion_03_sparse_precision_duality():
    """Sparse precision inverse equals the unnormalized spectral kernel."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for nu in (1, 2, 3):
        n = int(rng.integers(20, 65))
        g = random_connected_graph(rng, n)
        op = build_laplacian(g, "unnormalized")
        basis = eigendecompose_full(op)
        kappa = float(rng.uniform(0.8, 3.0))
        q = matern_precision_sparse(op, nu, kappa)
        spec = KernelSpec(
            family="matern", nu=float(nu), kappa=kappa, normalize_variance=False
        )
        k = kernel_matrix(basis, spec)
        k_from_q = np.linalg.inv(q.toarray())
        rel = float(np.max(np.abs(k_from_q - k)) / np.max(np.abs(k)))
        worst = max(worst, rel)
        assert rel <= 1e-6, (nu, rel)
    print(f"criterion 03: worst relative deviation {worst:.2e} for nu in 1..3")


def test_criterion_04_family_limits():
    """Scaled matern reaches diffusion at nu=1e4; random walk at p=1e5."""
    rng = np.random.default_rng(1004)
    nu, kappa = 1e4, 1.0
    worst_a = 0.0
    for _ in range(3):
        g = random_connected_graph(rng, 16)
        basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
        lam_max = float(basis.eigenvalues[-1])
        k_m = apply_spectral_function(
            basis, lambda lam: np.exp(-nu * np.log1p(kappa**2 * lam / (2.0 * nu)))
        )
        k_d = apply_spectral_function(basis, lambda lam: np.exp(-0.5 * kappa**2 * lam))
        err = float(np.max(np.abs(k_m - k_d)))
        bound = (lam_max * kappa**2 / 2.0) ** 2 / nu
        worst_a = max(worst_a, err / bound)
        assert err <= bound, (err, bound)

    p = 100000
    alpha = 1.0 - kappa**2 / (2.0 * p)
    worst_b = 0.0
    for _ in range(3):
        g = random_connected_graph(rng, 16)
        basis = eigendecompose_full(build_laplacian(g, "sym_normalized"))
        k_rw = kernel_matrix(
            basis,
            KernelSpec(family="random_walk", alpha=alpha, p=p,
                       laplacian_kind="sym_normalized"),
        )
        k_d = kernel_matrix(
            basis,
            KernelSpec(family="diffusion", kappa=kappa,
                       laplacian_kind="sym_normalized"),
        )
        err = float(np.max(np.abs(k_rw - k_d)))
        worst_b = max(worst_b, err)
        assert err <= 1e-3, err
    print(
        f"criterion 04: matern->diffusion err/bound {worst_a:.2e}; "
        f"random-walk->diffusion max err {worst_b:.2e}"
    )


def test_criterion_05_likelihood_gradients():
    """Analytic LML gradients agree with central differences to 1e-4."""
    rng = np.random.default_rng(1005)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(10, 26))
        g = random_connected_graph(rng, n)
        kind = "unnormalized" if rng.random() < 0.5 else "sym_normalized"
        basis = eigendecompose_full(build_laplacian(g, kind))
        spec = KernelSpec(
            family="matern", nu=float(rng.uniform(0.8, 4.0)),
            kappa=float(rng.uniform(0.8, 4.0)),
            sigma2=float(rng.uniform(0.5, 2.0)), laplacian_kind=kind,
        )
        n_train = int(rng.integers(4, n))
        model = GPRegressionModel(
            spec=spec, basis=basis,
            train_nodes=np.sort(rng.choice(n, size=n_train, replace=False)),
            targets=rng.standard_normal(n_train),
            noise2=float(rng.uniform(0.05, 0.3)),
        )
        _, grads = log_marginal_likelihood(model)
        for name in ("kappa", "nu", "sigma2", "noise2"):
            raw0 = model.noise2 if name == "noise2" else getattr(model.spec, name)
            key = unconstrained_name(name)
            t0 = to_unconstrained({name: raw0})[key]
            up = model.with_raw_params(from_unconstrained({key: t0 + h}, [name]))
            dn = model.with_raw_params(from_unconstrained({key: t0 - h}, [name]))
            fd = (log_marginal_likelihood(up)[0] - log_marginal_likelihood(dn)[0]) / (2 * h)
            an = grads[key]
            rel = abs(an - fd) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4, (name, an, fd)
    print(f"criterion 05: worst gradient relative error {worst:.2e} over 10 problems x 4 params")


def test_criterion_06_heat_equation():
    """Semigroup composition to 1e-8 and mass conservation to 1e-9."""
    rng = np.random.default_rng(1006)
    worst_semi = 0.0
    worst_mass = 0.0
    for trial in range(6):
        n = int(rng.integers(5, 30))
        g = random_graph(rng, n, p=0.15) if trial % 2 else random_connected_graph(rng, n)
        basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
        v = rng.standard_normal(n)
        for s, t in ((0.3, 0.7), (1.0, 2.5)):
            composed = heat_propagate(basis, heat_propagate(basis, v, s), t)
            direct = heat_propagate(basis, v, s + t)
            worst_semi = max(worst_semi, float(np.max(np.abs(composed - direct))))
            worst_mass = max(worst_mass, abs(direct.sum() - v.sum()))
    assert worst_semi <= 1e-8
    assert worst_mass <= 1e-9
    print(f"criterion 06: semigroup dev {worst_semi:.2e}, mass dev {worst_mass:.2e}")


def test_criterion_07_pathwise_moments():
    """1e5 joint posterior samples match analytic moments within 3 MC SEs."""
    rng = np.random.default_rng(1007)
    g = random_connected_graph(rng, 5)
    basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
    model = GPRegressionModel(
        spec=KernelSpec(family="matern", nu=1.5, kappa=2.0),
        basis=basis,
        train_nodes=np.array([0, 3]),
        targets=np.array([1.0, -0.5]),
        noise2=0.1,
    )
    n_samples = 100000
    s = pathwise_sample(model, n_samples=n_samples, seed=2)  # seed fixed for determinism
    exact = posterior(model)
    se_mean = np.sqrt(exact.variance / n_samples)
    mean_dev = np.abs(s.mean(axis=0) - exact.mean)
    assert np.all(mean_dev <= 3 * se_mean)
    emp_cov = np.cov(s.T)
    sig = exact.covariance
    se_cov = np.sqrt((np.outer(exact.variance, exact.variance) + sig**2) / n_samples)
    cov_dev = np.abs(emp_cov - sig)
    assert np.all(cov_dev <= 3 * se_cov)
    print(
        f"criterion 07: worst mean dev {np.max(mean_dev / se_mean):.2f} SE, "
        f"worst cov dev {np.max(cov_dev / se_cov):.2f} SE at {n_samples} samples"
    )


def test_criterion_08_star_variance_ordering():
    """The star center has strictly lower prior variance than the leaves.

    Holds for the combinatorial Laplacian, where the high-degree center
    couples to many eigenvectors at large eigenvalues. (Symmetric
    normalization reverses this: there the center's spectral mass sits
    entirely on the extreme eigenvalues 0 and 2.)
    """
    gaps = []
    for n_leaves in (5, 10):
        g = star_graph(n_leaves)
        basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
        spec = KernelSpec(family="matern", nu=2.0, kappa=2.0)
        k = kernel_matrix(basis, spec)
        hub = k[0, 0]
        leaves = np.diag(k)[1:]
        assert hub < leaves.min(), (n_leaves, hub, leaves.min())
        gaps.append(leaves.min() - hub)
    print(
        f"criterion 08: hub-below-leaf variance gap {gaps[0]:.3e} (5 leaves), "
        f"{gaps[1]:.3e} (10 leaves)"
    )


def test_criterion_09_classification_desk_scale():
    """Two-clique graph: 100% held-out accuracy within 2000 steps; unit examples exact."""
    out = robustmax(np.array([3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), epsilon=1e-3)
    assert out[0] == 1.0 - 1e-3
    assert np.all(out[1:] == 1e-3 / 6)

    value = kl_gaussian(np.zeros(1), np.array([2.0]))
    assert_allclose(value, 0.5 * (2.0 - 1.0 - np.log(2.0)), rtol=1e-12)

    g = two_cliques(k=10)
    basis = eigendecompose_full(build_laplacian(g, "sym_normalized"))
    spec = KernelSpec(family="matern", nu=3.0, kappa=5.0, sigma2=1.0,
                      laplacian_kind="sym_normalized")
    train = np.array([0, 1, 2, 3, 10, 11, 12, 13])
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    model = VariationalClassifier.create(spec, basis, 2, train)

    # symmetric initialization: per-node bound is (ln eps + ln(1-eps)) / 2
    eps = model.epsilon
    sym = elbo(model, train, labels, mc_samples=4000, seed=5)
    expected = 0.5 * (np.log(eps) + np.log1p(-eps))
    gap = np.log1p(-eps) - np.log(eps)
    assert abs(sym / train.size - expected) < 5 * gap * np.sqrt(1.0 / (12 * 4000 * 8))

    steps = 800
    fitted, trace = fit_classifier(
        model, train, labels, AdamConfig(iterations=steps, learning_rate=0.02), seed=0
    )
    assert steps <= 2000
    _, pred = predict_classes(fitted, mc_samples=200, seed=1)
    truth = np.r_[np.zeros(10, dtype=int), np.ones(10, dtype=int)]
    held_out = np.setdiff1d(np.arange(20), train)
    accuracy = float(np.mean(pred[held_out] == truth[held_out]))
    assert accuracy == 1.0

    # perfect-confidence limit: likelihood term reaches N ln(1-eps)
    nodes = np.arange(20)
    full_labels = truth
    q_mu = np.where(full_labels[None, :] == np.arange(2)[:, None], 3.0, -3.0)
    confident = VariationalClassifier(
        spec=spec, basis=basis, n_classes=2, inducing_nodes=nodes,
        q_mu=q_mu, q_log_scale=np.full((2, 20), -20.0), whitened=False,
    )
    value = elbo(confident, nodes, full_labels, mc_samples=50, seed=6)
    k_zz = kernel_matrix(basis, spec, nodes, nodes) + confident.jitter * np.eye(20)
    kl = sum(
        kl_gaussian(q_mu[c], np.exp(2.0 * confident.q_log_scale[c]), k_zz)
        for c in range(2)
    )
    assert_allclose(value + kl, 20 * np.log1p(-eps), rtol=1e-6)
    print(
        f"criterion 09: held-out accuracy {accuracy:.2f} after {steps} steps; "
        "link/KL/bound unit examples exact"
    )


def test_criterion_10_citation_graph_accuracy():
    """140-label classification on the citation graph: mean accuracy >= 0.75."""
    data_dir = os.environ.get(CORA_ENV, "")
    if not data_dir or not Path(data_dir).is_dir():
        pytest.fail(
            f"the prepared citation dataset was not found: set {CORA_ENV} to a "
            "directory containing edges.txt and labels.csv. Generate both on a "
            "machine with network access via scripts/fetch_cora.py (this "
            "environment blocks downloads, so the data must be provisioned)."
        )
    data_dir = Path(data_dir)
    for name in ("edges.txt", "labels.csv"):
        if not (data_dir / name).exists():
            pytest.fail(
                f"{data_dir / name} is missing; rerun scripts/fetch_cora.py "
                "and point the environment variable at its output directory"
            )

    graph = read_edge_list(data_dir / "edges.txt")
    nodes, labels = read_labels_csv(data_dir / "labels.csv")
    order = np.argsort(nodes)
    nodes, labels = nodes[order], labels[order]
    if graph.node_count != 2485 or graph.edge_count != 5069:
        pytest.fail(
            f"expected the 2485-node / 5069-edge largest component, got "
            f"{graph.node_count} nodes / {graph.edge_count} edges; "
            "regenerate with scripts/fetch_cora.py"
        )
    n_classes = int(labels.max()) + 1

    results = {}
    for kind in ("unnormalized", "sym_normalized"):
        operator = build_laplacian(graph, kind)
        basis, _, _ = cached_eigendecomposition(operator, 500, cache_dir=data_dir)
        spec = KernelSpec(family="matern", nu=3.0, kappa=5.0, sigma2=1.0,
                          laplacian_kind=kind)
        accuracies = []
        for seed in range(10):
            train_idx, rest = np.split(
                np.random.default_rng(seed).permutation(nodes.size), [140]
            )
            test_idx = rest[
                np.random.default_rng(seed + 1).choice(
                    rest.size, size=1000, replace=False
                )
            ]
            model = VariationalClassifier.create(
                spec, basis, n_classes, nodes[train_idx]
            )
            fitted, _ = fit_classifier(
                model, nodes[train_idx], labels[train_idx],
                AdamConfig(iterations=20000, learning_rate=0.001),
                seed=seed, mc_samples=20,
            )
            _, pred = predict_classes(
                fitted, nodes[test_idx], mc_samples=200, seed=seed
            )
            accuracies.append(float(np.mean(pred == labels[test_idx])))
        results[kind] = (float(np.mean(accuracies)), float(np.std(accuracies)))
        assert results[kind][0] >= 0.75, (kind, results[kind])
    print(
        "criterion 10: mean accuracy "
        + ", ".join(f"{k} {m:.3f} ({s:.3f})" for k, (m, s) in results.items())
    )


def test_criterion_11_synthetic_regression_recovery():
    """Held-out MSE within 1.5x the oracle posterior variance average."""
    rng = np.random.default_rng(1011)
    g = random_connected_graph(rng, 200, extra=0.02)
    basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
    true_spec = KernelSpec(family="matern", nu=2.0, kappa=3.0, sigma2=1.0)
    d, _ = spectral_weights(true_spec, basis.eigenvalues, basis.total_dim)
    field = basis.eigenvectors @ (np.sqrt(d) * rng.standard_normal(200))
    noise2_true = 0.01
    y = field + np.sqrt(noise2_true) * rng.standard_normal(200)

    train = np.sort(rng.choice(200, size=120, replace=False))
    held_out = np.setdiff1d(np.arange(200), train)

    start_spec = KernelSpec(family="matern", nu=1.0, kappa=1.0, sigma2=0.5)
    start = GPRegressionModel(
        spec=start_spec, basis=basis, train_nodes=train, targets=y[train],
        noise2=0.1,
    )
    fitted, trace = fit(start, AdamConfig(iterations=1500, learning_rate=0.02))
    pred = posterior(fitted, held_out, diag=True)
    mse = float(np.mean((pred.mean - field[held_out]) ** 2))

    k_full = kernel_matrix(basis, true_spec)
    _, oracle_cov = conditional_gaussian(k_full, train, held_out, y[train], noise2_true)
    oracle_var = float(np.mean(np.diag(oracle_cov)))
    assert mse <= 1.5 * oracle_var, (mse, oracle_var)
    print(
        f"criterion 11: held-out mse {mse:.4f} vs oracle average variance "
        f"{oracle_var:.4f} (ratio {mse / oracle_var:.2f})"
    )
