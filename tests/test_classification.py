"""Variational classifier: link, KL, marginals, ELBO value/grads, training."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import log_ndtr

from graph_matern import (
    AdamConfig,
    KernelSpec,
    VariationalClassifier,
    build_laplacian,
    eigendecompose_full,
    elbo,
    fit_classifier,
    kernel_matrix,
    kl_gaussian,
    load_classifier,
    predict_classes,
    read_labels_csv,
    robustmax,
    save_classifier,
    save_model,
)
from graph_matern import classification
from graph_matern.classification import (
    _VAR_FLOOR,
    _elbo_core,
    _kernel_blocks,
    _kl_terms,
    _log_lik_forward,
    _marginals,
)
from graph_matern.kernels import from_unconstrained, to_unconstrained, unconstrained_name
from graph_matern.graphs import DENSE_ELEMENT_LIMIT
from graph_matern.regression import _tri_inverse
from helpers import PeakMemory, random_connected_graph, two_cliques, wide_basis

SYM_MATERN = KernelSpec(
    family="matern", nu=3.0, kappa=5.0, laplacian_kind="sym_normalized"
)


def _classifier(seed, n=12, m=4, n_classes=3, diag_cov=True, whitened=True,
                spec=SYM_MATERN, randomize=True):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    basis = eigendecompose_full(build_laplacian(g, spec.laplacian_kind))
    z = np.sort(rng.choice(n, size=m, replace=False))
    model = VariationalClassifier.create(
        spec, basis, n_classes, z, diag_cov=diag_cov, whitened=whitened
    )
    if randomize:
        updates = {"q_mu": rng.normal(0.0, 1.0, size=(n_classes, m))}
        if diag_cov:
            updates["q_log_scale"] = rng.normal(-0.5, 0.3, size=(n_classes, m))
        else:
            tril = rng.normal(0.0, 0.3, size=(n_classes, m, m))
            idx = np.arange(m)
            tril[:, idx, idx] = np.exp(rng.normal(-0.5, 0.3, size=(n_classes, m)))
            updates["q_scale_tril"] = np.tril(tril)
        model = model.with_updates(**updates)
    return rng, model


class TestRobustmax:
    def test_seven_class_entries_exact(self):
        f = np.array([0.1, -2.0, 3.5, 0.0, 1.2, -0.3, 2.9])
        out = robustmax(f, epsilon=1e-3)
        assert out[2] == 1.0 - 1e-3
        low = 1e-3 / 6
        for j in (0, 1, 3, 4, 5, 6):
            assert out[j] == low
        assert abs(out.sum() - 1.0) <= 2.3e-16

    def test_three_class_sums_to_one(self):
        out = robustmax(np.array([0.0, 1.0, -1.0]), epsilon=1e-3)
        assert abs(out.sum() - 1.0) <= 2.3e-16
        assert out[1] == 1.0 - 1e-3

    def test_batch_shapes(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((5, 4, 3))
        out = robustmax(f)
        assert out.shape == (5, 4, 3)
        winners = np.argmax(f, axis=-1)
        assert_array_equal(np.argmax(out, axis=-1), winners)

    def test_ties_go_to_lowest_index(self):
        out = robustmax(np.array([1.0, 1.0, 0.0]))
        assert out[0] == 1.0 - 1e-3

    def test_errors(self):
        with pytest.raises(ValueError, match="two classes"):
            robustmax(np.array([1.0]))
        with pytest.raises(ValueError, match="epsilon"):
            robustmax(np.array([1.0, 0.0]), epsilon=1.5)


class TestKlGaussian:
    def test_matching_distributions_give_zero(self):
        assert kl_gaussian(np.zeros(3), np.ones(3)) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_closed_form(self):
        # KL(N(0, 2) || N(0, 1)) = (2 - 1 - ln 2) / 2
        value = kl_gaussian(np.zeros(1), np.array([2.0]))
        assert_allclose(value, 0.5 * (2.0 - 1.0 - np.log(2.0)), rtol=1e-12)

    def test_matches_slogdet_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            m = int(rng.integers(2, 6))
            aq = rng.standard_normal((m, m))
            q = aq @ aq.T + m * np.eye(m)
            ap = rng.standard_normal((m, m))
            p = ap @ ap.T + m * np.eye(m)
            mu = rng.standard_normal(m)
            pinv = np.linalg.inv(p)
            oracle = 0.5 * (
                np.trace(pinv @ q)
                + mu @ pinv @ mu
                - m
                + np.linalg.slogdet(p)[1]
                - np.linalg.slogdet(q)[1]
            )
            assert_allclose(kl_gaussian(mu, q, p), oracle, rtol=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            mu = rng.standard_normal(4)
            q = np.exp(rng.standard_normal(4))
            assert kl_gaussian(mu, q) >= 0.0

    def test_diag_vector_equals_diag_matrix(self):
        mu = np.array([0.5, -1.0])
        v = np.array([0.7, 1.3])
        assert_allclose(kl_gaussian(mu, v), kl_gaussian(mu, np.diag(v)), rtol=1e-12)

    def test_non_pd_rejected(self):
        with pytest.raises(scipy.linalg.LinAlgError):
            kl_gaussian(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("diag_cov", [True, False])
    @pytest.mark.parametrize("whitened", [True, False])
    def test_classifier_kl_is_the_sum_over_classes(self, diag_cov, whitened):
        """The classifier's KL, summed over classes in closed form, is the
        sum of per-class ``kl_gaussian`` against N(0, I) or N(0, K_zz + jitter I)."""
        _, model = _classifier(46, m=5, n_classes=4, diag_cov=diag_cov, whitened=whitened)
        z = model.inducing_nodes
        prior = None
        if not whitened:
            prior = kernel_matrix(model.basis, model.spec, z, z) + model.jitter * np.eye(z.size)
        if diag_cov:
            covs = np.exp(2.0 * model.q_log_scale)
        else:
            covs = model.q_scale_tril @ np.transpose(model.q_scale_tril, (0, 2, 1))
        expected = sum(kl_gaussian(model.q_mu[c], covs[c], prior)
                       for c in range(model.n_classes))
        blocks = _kernel_blocks(model, z)
        for with_grads in (False, True):
            value, _, _ = _kl_terms(model, blocks, with_grads)
            assert_allclose(value, expected, rtol=1e-10)


class TestModelValidation:
    def test_inducing_constraints(self):
        rng, model = _classifier(1)
        basis = model.basis
        with pytest.raises(ValueError, match="distinct"):
            VariationalClassifier.create(SYM_MATERN, basis, 3, np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="out of range"):
            VariationalClassifier.create(SYM_MATERN, basis, 3, np.array([0, 99]))

    def test_shape_and_scale_constraints(self):
        rng, model = _classifier(2)
        with pytest.raises(ValueError, match="q_mu must have shape"):
            model.with_updates(q_mu=np.zeros((3, 7)))
        with pytest.raises(ValueError, match="exactly one"):
            VariationalClassifier(
                spec=model.spec, basis=model.basis, n_classes=3,
                inducing_nodes=model.inducing_nodes, q_mu=model.q_mu,
                q_log_scale=np.zeros((3, 4)),
                q_scale_tril=np.zeros((3, 4, 4)),
            )
        with pytest.raises(ValueError, match="epsilon"):
            model.with_updates(epsilon=0.0)
        for jitter in (np.nan, np.inf, -1.0, 10**400):
            with pytest.raises(ValueError, match="^jitter must be finite and >= 0, got "):
                model.with_updates(jitter=jitter)
        with pytest.raises(ValueError, match="two classes"):
            VariationalClassifier.create(SYM_MATERN, model.basis, 1, np.array([0]))

    @pytest.mark.parametrize("field", ["inducing_nodes", "basis"])
    def test_with_updates_keeps_the_inducing_rows_while_they_hold(self, field):
        """A step of the variational or kernel parameters keeps Phi_z; a new
        basis or inducing set computes it afresh."""
        _, model = _classifier(5)
        phi_z = model._phi_z
        step = model.with_updates(q_mu=model.q_mu + 1.0, spec=model.spec.with_params(kappa=2.0))
        assert vars(step)["_phi_z"] is phi_z
        value = np.array([0, 3, 7, 11]) if field == "inducing_nodes" else _classifier(6)[1].basis
        moved = model.with_updates(**{field: value})
        assert "_phi_z" not in vars(moved)
        assert_array_equal(moved._phi_z, moved.basis.eigenvectors[moved.inducing_nodes])
        assert not np.array_equal(moved._phi_z, phi_z)

    def test_tril_is_enforced(self):
        rng, model = _classifier(3, diag_cov=False, randomize=False)
        raw = np.ones((3, 4, 4))
        again = model.with_updates(q_scale_tril=raw)
        assert_array_equal(again.q_scale_tril[0], np.tril(np.ones((4, 4))))

    @pytest.mark.parametrize("whitened", [True, False])
    def test_zero_scale_diagonal_fails_by_name(self, whitened):
        _, model = _classifier(8, diag_cov=False, whitened=whitened)
        tril = model.q_scale_tril.copy()
        tril[1, 2, 2] = 0.0
        with pytest.raises(ValueError, match="q_scale_tril has a zero diagonal entry"):
            elbo(model.with_updates(q_scale_tril=tril), np.array([0, 1]), np.array([0, 1]))

    def test_label_range_checked(self):
        _, model = _classifier(4)
        with pytest.raises(ValueError, match="check the class count"):
            elbo(model, np.array([0, 1]), np.array([0, 3]))
        with pytest.raises(ValueError, match="align"):
            elbo(model, np.array([0, 1]), np.array([0]))

    def test_empty_batch_fails_by_name(self):
        _, model = _classifier(5)
        nodes, labels = np.array([0, 1, 2]), np.array([0, 1, 2])
        with pytest.raises(ValueError, match="the batch is empty"):
            elbo(model, [], [])
        with pytest.raises(ValueError, match="the batch is empty"):
            fit_classifier(model, [], [])
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            fit_classifier(model, nodes, labels, batch_size=0)

    def test_two_d_nodes_and_labels_fail_by_name(self):
        _, model = _classifier(6)
        nodes, labels = np.array([[0, 1], [2, 3]]), np.array([[0, 1], [2, 0]])
        for call in (elbo, fit_classifier):
            with pytest.raises(ValueError, match="batch nodes must be a 1-d node index array"):
                call(model, nodes, labels)
            with pytest.raises(ValueError, match="labels must align with the batch nodes"):
                call(model, nodes.ravel(), labels)


    @pytest.mark.parametrize("labels, value", [([0, 0.5], "0.5"), ([0, 10**30], str(10**30))],
                             ids=["half", "past_int64"])
    def test_non_integer_labels_fail_by_value(self, labels, value):
        """A label of 0.5 is not read as class 0."""
        _, model = _classifier(8)
        with pytest.raises(ValueError, match=f"^label {value} is not an int64 integer$"):
            elbo(model, np.array([0, 1]), labels)


class TestMarginals:
    def _oracle(self, model, batch):
        z = model.inducing_nodes
        k_zz = kernel_matrix(model.basis, model.spec, z, z)
        k_zz = k_zz + model.jitter * np.eye(z.size)
        k_zb = kernel_matrix(model.basis, model.spec, z, batch)
        k_bb = np.diag(kernel_matrix(model.basis, model.spec, batch, batch))
        kinv = np.linalg.inv(k_zz)
        chol = np.linalg.cholesky(k_zz)
        means, variances = [], []
        for c in range(model.n_classes):
            if model.diag_cov:
                sigma = np.diag(np.exp(2.0 * model.q_log_scale[c]))
            else:
                r = model.q_scale_tril[c]
                sigma = r @ r.T
            m_u = model.q_mu[c]
            if model.whitened:
                m_u = chol @ m_u
                sigma = chol @ sigma @ chol.T
            means.append(k_zb.T @ kinv @ m_u)
            cov = kinv @ k_zb
            variances.append(
                k_bb
                - np.einsum("ij,ij->j", k_zb, cov)
                + np.einsum("ij,ij->j", cov, sigma @ cov)
            )
        return np.array(means).T, np.array(variances).T

    @pytest.mark.parametrize("diag_cov", [True, False])
    @pytest.mark.parametrize("whitened", [True, False])
    def test_matches_brute_force_sparse_gp(self, diag_cov, whitened):
        rng, model = _classifier(5, diag_cov=diag_cov, whitened=whitened)
        batch = np.array([1, 3, 6, 8, 11])
        mean, var, _ = _marginals(model, batch)
        mean_o, var_o = self._oracle(model, batch)
        assert_allclose(mean, mean_o, atol=1e-8)
        assert_allclose(var, var_o, atol=1e-8)
        assert np.all(var > 0)

    def test_whitened_and_unwhitened_parameterizations_agree(self):
        for diag_cov in (True, False):
            rng, white = _classifier(6, diag_cov=diag_cov, whitened=True)
            z = white.inducing_nodes
            k_zz = kernel_matrix(white.basis, white.spec, z, z)
            chol = np.linalg.cholesky(k_zz + white.jitter * np.eye(z.size))
            if diag_cov:
                tril = np.stack([
                    chol @ np.diag(np.exp(white.q_log_scale[c]))
                    for c in range(white.n_classes)
                ])
            else:
                tril = np.stack([
                    chol @ white.q_scale_tril[c] for c in range(white.n_classes)
                ])
            plain = white.with_updates(
                whitened=False,
                q_mu=(chol @ white.q_mu.T).T,
                q_log_scale=None,
                q_scale_tril=tril,
            )
            batch = np.array([0, 2, 7, 9])
            mw, vw, _ = _marginals(white, batch)
            mp, vp, _ = _marginals(plain, batch)
            assert_allclose(mw, mp, atol=1e-9)
            assert_allclose(vw, vp, atol=1e-9)
            labels = np.array([0, 1, 2, 1])
            ew = elbo(white, batch, labels, mc_samples=17, seed=3)
            ep = elbo(plain, batch, labels, mc_samples=17, seed=3)
            assert_allclose(ew, ep, atol=1e-8)


class TestElboValue:
    def test_symmetric_binary_case_closed_form(self):
        # q = N(0, I) whitened: KL is zero and both classes are exchangeable,
        # so P(correct) = 1/2 and the per-node bound is (ln eps + ln(1-eps))/2.
        rng, model = _classifier(10, n_classes=2, randomize=False)
        batch = np.arange(10)
        labels = np.array([0, 1] * 5)
        value = elbo(model, batch, labels, mc_samples=4000, seed=11)
        eps = model.epsilon
        expected = 0.5 * (np.log(eps) + np.log1p(-eps))
        gap = np.log1p(-eps) - np.log(eps)
        se = gap * np.sqrt(1.0 / (12 * 4000 * 10))
        assert abs(value / 10 - expected) < 5 * se

    def test_matches_naive_monte_carlo(self):
        rng, model = _classifier(12)
        batch = np.array([1, 3, 6, 8, 11])
        labels = np.array([0, 2, 1, 1, 0])
        mean, var, _ = _marginals(model, batch)
        draws = 200000
        f = mean[None] + np.sqrt(var)[None] * rng.standard_normal(
            (draws,) + mean.shape
        )
        correct = np.argmax(f, axis=-1) == labels[None, :]
        eps = model.epsilon
        naive = np.where(correct, np.log1p(-eps), np.log(eps / 2)).mean(axis=0).sum()
        kl = sum(
            kl_gaussian(model.q_mu[c], np.exp(2.0 * model.q_log_scale[c]))
            for c in range(model.n_classes)
        )
        value = elbo(model, batch, labels, mc_samples=40000, seed=13)
        assert abs((value + kl) - naive) < 0.25

    def test_confident_model_attains_log_one_minus_eps(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(rng, 10)
        basis = eigendecompose_full(build_laplacian(g, "sym_normalized"))
        nodes = np.arange(10)
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        q_mu = np.where(labels[None, :] == np.arange(3)[:, None], 3.0, -3.0)
        model = VariationalClassifier(
            spec=SYM_MATERN, basis=basis, n_classes=3, inducing_nodes=nodes,
            q_mu=q_mu, q_log_scale=np.full((3, 10), -20.0), whitened=False,
        )
        value = elbo(model, nodes, labels, mc_samples=50, seed=15)
        z = model.inducing_nodes
        k_zz = kernel_matrix(basis, model.spec, z, z) + model.jitter * np.eye(10)
        kl = sum(
            kl_gaussian(q_mu[c], np.exp(2.0 * model.q_log_scale[c]), k_zz)
            for c in range(3)
        )
        assert_allclose(value + kl, 10 * np.log1p(-model.epsilon), rtol=1e-6)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_below_one_fails_by_name(self, samples):
        _, model = _classifier(13)
        with pytest.raises(ValueError, match="mc_samples must be >= 1"):
            elbo(model, np.arange(4), np.zeros(4, dtype=np.int64), mc_samples=samples)

    def test_likelihood_scales_linearly_with_dataset_size(self):
        rng, model = _classifier(16)
        batch = np.array([0, 4, 9])
        labels = np.array([2, 0, 1])
        kl = sum(
            kl_gaussian(model.q_mu[c], np.exp(2.0 * model.q_log_scale[c]))
            for c in range(model.n_classes)
        )
        e1 = elbo(model, batch, labels, mc_samples=64, seed=5)
        e2 = elbo(model, batch, labels, mc_samples=64, seed=5, n_total=6)
        assert_allclose(e2 + kl, 2.0 * (e1 + kl), rtol=1e-10)


class TestElboGradients:
    def _check(self, model, batch, labels, h=1e-6, tol=2e-4):
        rng = np.random.default_rng(99)
        xi = rng.standard_normal((7, batch.shape[0]))
        n_total = batch.shape[0]
        value, grads = _elbo_core(model, batch, labels, xi, n_total, True)

        def val(m):
            return _elbo_core(m, batch, labels, xi, n_total, False)[0]

        def compare(an, fd, label):
            denom = max(abs(fd), abs(an), 1e-3)
            assert abs(an - fd) / denom < tol, (label, an, fd)

        for c in range(model.n_classes):
            for j in range(model.inducing_nodes.size):
                mu_p = model.q_mu.copy(); mu_p[c, j] += h
                mu_m = model.q_mu.copy(); mu_m[c, j] -= h
                fd = (val(model.with_updates(q_mu=mu_p))
                      - val(model.with_updates(q_mu=mu_m))) / (2 * h)
                compare(grads["q_mu"][c, j], fd, f"q_mu[{c},{j}]")

        if model.diag_cov:
            for c in range(model.n_classes):
                for j in range(model.inducing_nodes.size):
                    s_p = model.q_log_scale.copy(); s_p[c, j] += h
                    s_m = model.q_log_scale.copy(); s_m[c, j] -= h
                    fd = (val(model.with_updates(q_log_scale=s_p))
                          - val(model.with_updates(q_log_scale=s_m))) / (2 * h)
                    compare(grads["q_log_scale"][c, j], fd, f"q_log_scale[{c},{j}]")
        else:
            m = model.inducing_nodes.size
            for c in range(model.n_classes):
                for i in range(m):
                    for j in range(i + 1):
                        t_p = model.q_scale_tril.copy(); t_p[c, i, j] += h
                        t_m = model.q_scale_tril.copy(); t_m[c, i, j] -= h
                        fd = (val(model.with_updates(q_scale_tril=t_p))
                              - val(model.with_updates(q_scale_tril=t_m))) / (2 * h)
                        compare(
                            grads["q_scale_tril"][c, i, j], fd,
                            f"q_scale_tril[{c},{i},{j}]",
                        )

        for name in ("kappa", "nu", "sigma2"):
            key = unconstrained_name(name)
            t0 = to_unconstrained({name: getattr(model.spec, name)})[key]
            vals = []
            for sign in (+1, -1):
                raw = from_unconstrained({key: t0 + sign * h}, [name])
                spec = model.spec.with_params(**raw)
                vals.append(val(model.with_updates(spec=spec)))
            fd = (vals[0] - vals[1]) / (2 * h)
            compare(grads[key], fd, name)

    @pytest.mark.parametrize("diag_cov", [True, False])
    @pytest.mark.parametrize("whitened", [True, False])
    def test_finite_differences_all_modes(self, diag_cov, whitened):
        rng, model = _classifier(20, diag_cov=diag_cov, whitened=whitened)
        batch = np.array([0, 2, 5, 7, 10])
        labels = np.array([1, 0, 2, 2, 1])
        self._check(model, batch, labels)

    @pytest.mark.parametrize("diag_cov", [True, False])
    @pytest.mark.parametrize("whitened", [True, False])
    def test_finite_differences_batch_is_inducing_set(self, diag_cov, whitened):
        rng, model = _classifier(21, diag_cov=diag_cov, whitened=whitened)
        labels = rng.integers(0, model.n_classes, size=model.inducing_nodes.size)
        self._check(model, model.inducing_nodes, labels)

    @pytest.mark.parametrize("diag_cov", [True, False])
    @pytest.mark.parametrize("whitened", [True, False])
    def test_inducing_batch_matches_permuted_general_path(self, diag_cov, whitened):
        rng, model = _classifier(22, diag_cov=diag_cov, whitened=whitened)
        z = model.inducing_nodes
        labels = rng.integers(0, model.n_classes, size=z.size)
        xi = rng.standard_normal((7, z.size))
        perm = np.roll(np.arange(z.size), 1)
        value, grads = _elbo_core(model, z, labels, xi, z.size, True)
        value_p, grads_p = _elbo_core(
            model, z[perm], labels[perm], xi[:, perm], z.size, True
        )
        shared = _kernel_blocks(model, z)
        general = _kernel_blocks(model, z[perm])
        assert shared["phi_b"] is shared["phi_z"]
        assert general["phi_b"] is not general["phi_z"]
        assert_allclose(value, value_p, rtol=1e-10)
        assert grads.keys() == grads_p.keys()
        # The floor covers kernel gradients that nearly cancel: a log_sigma2
        # gradient of 2e-5 moves by 6e-15 when the d_bar sums reassociate.
        for key in grads:
            assert_allclose(grads[key], grads_p[key], rtol=1e-10, atol=1e-12, err_msg=key)


def _all_class_log_lik(epsilon, mean, var, labels, xi, scale):
    """The bound and its m/v grads over all C classes, the label column
    zeroed after the fact: the formula ``_log_lik_forward`` replaced."""
    b, c = mean.shape
    log_low = np.log(epsilon) - np.log(c - 1)
    gap = np.log1p(-epsilon) - log_low
    vfloor = np.maximum(var, _VAR_FLOOR)
    sd = np.sqrt(vfloor)
    rows = np.arange(b)
    m_y = mean[rows, labels]
    sd_y = sd[rows, labels]
    t = m_y[None, :] + sd_y[None, :] * xi
    z = (t[:, :, None] - mean[None, :, :]) / sd[None, :, :]
    log_cdf = log_ndtr(z)
    log_cdf[:, rows, labels] = 0.0
    g = np.sum(log_cdf, axis=-1)
    p_hat = np.mean(np.exp(g), axis=0)
    value = scale * float(b * log_low + gap * np.sum(p_hat))
    s = xi.shape[0]
    log_pdf = -0.5 * z**2 - 0.5 * np.log(2.0 * np.pi)
    coef = (scale * gap / s) * np.exp(g[:, :, None] - log_cdf + log_pdf)
    coef[:, rows, labels] = 0.0
    csum = np.sum(coef, axis=0) / sd
    csum_z = np.sum(coef * z, axis=0) / (2.0 * vfloor)
    csum_xi = np.sum(coef * xi[:, :, None], axis=0) / sd
    gmean = -csum
    gmean[rows, labels] = np.sum(csum, axis=1) - csum[rows, labels]
    gvar = -csum_z
    gvar[rows, labels] = (np.sum(csum_xi, axis=1) - csum_xi[rows, labels]) / (2.0 * sd_y)
    return value, gmean, np.where(var > _VAR_FLOOR, gvar, 0.0)


class TestRivalClassLikelihood:
    @pytest.mark.parametrize("n_classes", [2, 3, 7, 12])
    def test_matches_the_all_class_formula(self, n_classes):
        rng = np.random.default_rng(50 + n_classes)
        b = 9
        mean = rng.normal(0.0, 1.5, size=(b, n_classes))
        var = np.exp(rng.normal(-1.0, 0.8, size=(b, n_classes)))
        var[1, 0] = var[4, -1] = _VAR_FLOOR
        var[2, 1] = 0.5 * _VAR_FLOOR
        labels = rng.integers(0, n_classes, size=b)
        labels[:3] = 0
        labels[3:6] = n_classes - 1
        xi = rng.standard_normal((11, b))
        model = dataclasses.replace(
            _classifier(0, n_classes=n_classes, randomize=False)[1], epsilon=0.02
        )
        value, gmean, gvar = _log_lik_forward(model, mean, var, labels, xi, 2.5)
        ref_value, ref_gmean, ref_gvar = _all_class_log_lik(
            model.epsilon, mean, var, labels, xi, 2.5
        )
        assert value == ref_value
        assert_allclose(gmean, ref_gmean, rtol=1e-13, atol=0.0)
        assert_allclose(gvar, ref_gvar, rtol=1e-13, atol=0.0)
        assert gvar[2, 1] == 0.0 and gvar[1, 0] == 0.0


class TestOneTriangularInverse:
    @pytest.mark.parametrize("diag_cov", [True, False])
    @pytest.mark.parametrize("whitened", [True, False])
    def test_step_and_prediction_take_no_triangular_solve(
        self, monkeypatch, diag_cov, whitened
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_triangular called")

        monkeypatch.setattr(classification, "solve_triangular", refuse)
        rng, model = _classifier(42, diag_cov=diag_cov, whitened=whitened)
        for batch in (model.inducing_nodes, np.array([1, 3, 6, 8, 11])):
            labels = rng.integers(0, model.n_classes, size=batch.size)
            xi = rng.standard_normal((5, batch.size))
            value, grads = _elbo_core(model, batch, labels, xi, 12, True)
            blocks = _kernel_blocks(model, batch)
            assert (blocks["phi_b"] is blocks["phi_z"]) == (batch is model.inducing_nodes)
            assert np.isfinite(value)
            assert all(np.all(np.isfinite(g)) for g in grads.values())
        probs, _ = predict_classes(model, mc_samples=8, seed=1)
        assert probs.shape == (12, model.n_classes)

    @pytest.mark.parametrize("diag_cov", [True, False])
    @pytest.mark.parametrize("whitened", [True, False])
    def test_one_inverse_per_step(self, monkeypatch, diag_cov, whitened):
        """A fit step inverts the Cholesky factor of K_zz and nothing else: the
        KL's full-covariance gradient needs only the scale factors' diagonals."""
        calls = []

        def counted(low):
            calls.append(low.shape)
            return _tri_inverse(low)

        monkeypatch.setattr(classification, "_tri_inverse", counted)
        rng, model = _classifier(44, diag_cov=diag_cov, whitened=whitened)
        nodes = np.array([1, 3, 6, 8, 11])
        labels = rng.integers(0, model.n_classes, size=nodes.size)
        fit_classifier(model, nodes, labels, AdamConfig(iterations=3), mc_samples=4)
        assert len(calls) == 3


class TestMinibatchUnbiased:
    @pytest.mark.parametrize("diag_cov", [True, False])
    @pytest.mark.parametrize("whitened", [True, False])
    def test_mean_over_every_batch_is_the_full_batch_bound(self, diag_cov, whitened):
        """With the Monte Carlo noise fixed per node, the N/|batch|-scaled
        bound over all 15 batches of 2 out of 6 averages to the full one."""
        rng, model = _classifier(43, diag_cov=diag_cov, whitened=whitened)
        nodes = np.array([0, 2, 5, 7, 9, 11])
        labels = rng.integers(0, model.n_classes, size=nodes.size)
        xi = rng.standard_normal((5, nodes.size))
        full, full_grads = _elbo_core(model, nodes, labels, xi, nodes.size, True)
        batches = [list(pair) for pair in itertools.combinations(range(nodes.size), 2)]
        assert len(batches) == 15
        values, grads = [], []
        for pick in batches:
            value, g = _elbo_core(model, nodes[pick], labels[pick], xi[:, pick],
                                  nodes.size, True)
            blocks = _kernel_blocks(model, nodes[pick])
            assert blocks["phi_b"] is not blocks["phi_z"]
            values.append(value)
            grads.append(g)
        assert_allclose(np.mean(values), full, rtol=1e-12)
        assert full_grads.keys() == grads[0].keys()
        # Whitened, the sigma2 gradient is zero but for the jitter (the argmax
        # of f is scale-free), and its O(1) terms cancel to ~1e-5; the kernel
        # gradients share a floor of 1e-12 of the largest of them.
        kernel = [key for key in full_grads if not key.startswith("q_")]
        floor = 1e-12 * max(abs(full_grads[key]) for key in kernel)
        for key in full_grads:
            mean = np.mean([g[key] for g in grads], axis=0)
            assert_allclose(mean, full_grads[key], rtol=1e-12,
                            atol=floor if key in kernel else 0.0, err_msg=key)


class TestFitClassifier:
    def _clique_setup(self, diag_cov=True, whitened=True):
        g = two_cliques(k=10)
        basis = eigendecompose_full(build_laplacian(g, "sym_normalized"))
        train = np.array([0, 1, 2, 3, 10, 11, 12, 13])
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        model = VariationalClassifier.create(
            SYM_MATERN, basis, 2, train, diag_cov=diag_cov, whitened=whitened
        )
        return model, train, labels

    def test_separates_two_cliques(self):
        model, train, labels = self._clique_setup()
        config = AdamConfig(iterations=300, learning_rate=0.05)
        fitted, trace = fit_classifier(model, train, labels, config, seed=0)
        assert trace.shape == (300,)
        assert trace[-1] > trace[0]
        probs, pred = predict_classes(fitted, mc_samples=200, seed=1)
        truth = np.r_[np.zeros(10, dtype=int), np.ones(10, dtype=int)]
        held_out = np.setdiff1d(np.arange(20), train)
        assert np.all(pred[held_out] == truth[held_out])
        assert probs.shape == (20, 2)

    def test_deterministic(self):
        model, train, labels = self._clique_setup()
        config = AdamConfig(iterations=40, learning_rate=0.05)
        m1, t1 = fit_classifier(model, train, labels, config, seed=4)
        m2, t2 = fit_classifier(model, train, labels, config, seed=4)
        assert_array_equal(t1, t2)
        assert_array_equal(m1.q_mu, m2.q_mu)
        assert m1.spec == m2.spec

    def test_inducing_rows_carried_across_steps(self):
        model, train, labels = self._clique_setup()
        config = AdamConfig(iterations=5, learning_rate=0.05)
        fitted, _ = fit_classifier(model, train, labels, config)
        assert fitted is not model
        assert fitted._phi_z is vars(model)["_phi_z"]

    def test_trainable_restriction(self):
        model, train, labels = self._clique_setup()
        config = AdamConfig(iterations=20, learning_rate=0.05, trainable=("q_mu",))
        fitted, _ = fit_classifier(model, train, labels, config)
        assert fitted.spec == model.spec
        assert_array_equal(fitted.q_log_scale, model.q_log_scale)
        assert not np.array_equal(fitted.q_mu, model.q_mu)

    def test_kernel_hyperparameters_move_when_enabled(self):
        model, train, labels = self._clique_setup(whitened=False)
        config = AdamConfig(
            iterations=20, learning_rate=0.02, trainable=("q_mu", "kappa", "sigma2")
        )
        fitted, _ = fit_classifier(model, train, labels, config)
        assert fitted.spec.kappa != model.spec.kappa
        assert fitted.spec.sigma2 != model.spec.sigma2
        assert fitted.spec.nu == model.spec.nu

    def test_minibatching_runs_and_is_seeded(self):
        model, train, labels = self._clique_setup()
        config = AdamConfig(iterations=30, learning_rate=0.05)
        m1, t1 = fit_classifier(model, train, labels, config, seed=6, batch_size=4)
        m2, t2 = fit_classifier(model, train, labels, config, seed=6, batch_size=4)
        assert_array_equal(t1, t2)
        assert np.all(np.isfinite(t1))

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_below_one_fails_by_name(self, samples):
        model, train, labels = self._clique_setup()
        with pytest.raises(ValueError, match="mc_samples must be >= 1"):
            fit_classifier(model, train, labels, AdamConfig(iterations=2),
                           mc_samples=samples)

    def test_unknown_trainable_rejected(self):
        model, train, labels = self._clique_setup()
        with pytest.raises(ValueError, match="unknown trainable"):
            fit_classifier(
                model, train, labels, AdamConfig(iterations=1, trainable=("alpha",))
            )

    @pytest.mark.parametrize("diag_cov", (True, False))
    def test_non_finite_elbo_names_step_and_state(self, monkeypatch, diag_cov):
        real = classification._elbo_core
        calls = []

        def poisoned(*args, **kwargs):
            calls.append(None)
            value, grads = real(*args, **kwargs)
            return (np.nan if len(calls) == 6 else value), grads

        monkeypatch.setattr(classification, "_elbo_core", poisoned)
        model, train, labels = self._clique_setup(diag_cov=diag_cov)
        scale = r"q_log_scale in \[" if diag_cov else r"q_scale_tril diagonal in \["
        with pytest.raises(
            RuntimeError, match=r"^fit stopped at step 5 on a non-finite objective value; "
            + r"kernel \{.*\}; max \|q_mu\| [0-9.e+-]+, " + scale,
        ):
            fit_classifier(model, train, labels, AdamConfig(iterations=10, learning_rate=0.05))

    @pytest.mark.parametrize("diag_cov", (True, False))
    def test_non_finite_gradient_names_step_and_state(self, monkeypatch, diag_cov):
        """A bad gradient stops the fit as a bad ELBO does, not with
        ``adam_step``'s own error and step count."""
        real = classification._elbo_core
        calls = []

        def poisoned(*args, **kwargs):
            calls.append(None)
            value, grads = real(*args, **kwargs)
            return value, ({**grads, "q_mu": grads["q_mu"] * np.nan}
                           if len(calls) == 5 else grads)

        monkeypatch.setattr(classification, "_elbo_core", poisoned)
        model, train, labels = self._clique_setup(diag_cov=diag_cov)
        scale = r"q_log_scale in \[" if diag_cov else r"q_scale_tril diagonal in \["
        with pytest.raises(
            RuntimeError, match=r"^fit stopped at step 4 on a non-finite gradient for "
            + r"'q_mu'; kernel \{.*\}; max \|q_mu\| [0-9.e+-]+, " + scale,
        ):
            fit_classifier(model, train, labels, AdamConfig(iterations=10, learning_rate=0.05))

    def test_full_batch_fit_gathers_inducing_rows_once(self):
        gathers = []

        class CountingRows(np.ndarray):
            def __getitem__(self, key):
                gathers.append(key)
                return np.asarray(super().__getitem__(key))

        model, train, labels = self._clique_setup()
        rows = model.basis.eigenvectors.view(CountingRows)
        model = model.with_updates(
            basis=dataclasses.replace(model.basis, eigenvectors=rows)
        )
        fit_classifier(model, train, labels, AdamConfig(iterations=5, learning_rate=0.05))
        assert len(gathers) == 1
        assert_array_equal(gathers[0], train)

    def test_full_covariance_mode_trains(self):
        model, train, labels = self._clique_setup(diag_cov=False)
        config = AdamConfig(iterations=60, learning_rate=0.05)
        fitted, trace = fit_classifier(model, train, labels, config)
        assert trace[-1] > trace[0]
        idx = np.arange(fitted.inducing_nodes.size)
        upper = np.triu(fitted.q_scale_tril[0], k=1)
        assert np.all(upper == 0.0)


class TestPredictClasses:
    def test_probability_rows_sum_to_one(self):
        rng, model = _classifier(30)
        probs, labels = predict_classes(model, mc_samples=64, seed=2)
        assert probs.shape == (12, 3)
        assert labels.shape == (12,)
        assert_allclose(probs.sum(axis=1), np.ones(12), atol=1e-12)
        low = model.epsilon / 2
        assert np.all(probs >= low - 1e-15)
        assert np.all(probs <= 1.0 - model.epsilon + 1e-15)

    def test_query_blocks_over_budget_refused_before_any_product(self):
        """An m x |q| inducing-query covariance past the limit is refused by
        name before any product; a small query still runs."""
        model = VariationalClassifier(
            KernelSpec(family="matern", nu=1.5, kappa=2.0), wide_basis(), 2,
            np.arange(0, 12000, 40), np.zeros((2, 300)), q_log_scale=np.zeros((2, 300)))
        query = np.zeros(450_000, dtype=np.int64)  # a node asked for 450000 times
        assert 300 * query.size > DENSE_ELEMENT_LIMIT
        with PeakMemory() as mem:
            with pytest.raises(ValueError, match="predict_classes would form a dense "
                               "300 x 450000 inducing-query covariance"):
                predict_classes(model, query)
        assert mem.peak < 16 * 2**20
        probs, labels = predict_classes(model, np.arange(5), mc_samples=4)
        assert probs.shape == (5, 2) and labels.shape == (5,)

    @staticmethod
    def _wide_classifier(inducing, n_classes=2):
        m = inducing.size
        return VariationalClassifier(
            KernelSpec(family="matern", nu=1.5, kappa=2.0), wide_basis(), n_classes,
            inducing, np.zeros((n_classes, m)), q_log_scale=np.zeros((n_classes, m)))

    @pytest.mark.parametrize("site", ["inducing", "inducing_batch", "fit_draws",
                                      "elbo_draws"])
    def test_step_blocks_over_budget_refused_before_any_product(self, site):
        """The m x m K_zz, the m x b K_zb and the (S, b, C-1) likelihood
        arrays past the limit are refused by name before any product, and
        the last before any draw; a small call still runs."""
        if site == "inducing":  # m = 12000 inducing nodes
            model = self._wide_classifier(np.arange(12000))
            nodes, labels, samples = np.arange(5), np.zeros(5, dtype=np.int64), 20
            call, message = fit_classifier, ("VariationalClassifier would factor a dense "
                                              "12000 x 12000 inducing covariance")
        elif site == "inducing_batch":  # a batch naming one node 450000 times
            model = self._wide_classifier(np.arange(0, 12000, 40))
            nodes, labels, samples = (np.zeros(450_000, dtype=np.int64),
                                      np.zeros(450_000, dtype=np.int64), 1)
            call, message = elbo, ("VariationalClassifier would form a dense "
                                   "300 x 450000 inducing-batch covariance")
        else:  # cora's b = 140 and C = 7, with S = 200000
            model = self._wide_classifier(np.arange(0, 12000, 40), n_classes=7)
            nodes, labels, samples = np.arange(140), np.arange(140) % 7, 200_000
            call = fit_classifier if site == "fit_draws" else elbo
            message = (f"{call.__name__} would form a dense 200000 x 140 x 6 "
                       "Monte Carlo likelihood array")
        with PeakMemory() as mem:
            with pytest.raises(ValueError, match=message):
                call(model, nodes, labels, mc_samples=samples)
        assert mem.peak < 16 * 2**20
        if site != "inducing":
            assert np.isfinite(elbo(model, nodes[:5], labels[:5], mc_samples=2))

    def test_labels_are_argmax_of_probs(self):
        rng, model = _classifier(31)
        probs, labels = predict_classes(model, np.array([0, 5, 9]), mc_samples=32)
        assert_array_equal(labels, np.argmax(probs, axis=1))

    def test_seeded(self):
        rng, model = _classifier(32)
        p1, _ = predict_classes(model, mc_samples=16, seed=7)
        p2, _ = predict_classes(model, mc_samples=16, seed=7)
        p3, _ = predict_classes(model, mc_samples=16, seed=8)
        assert_array_equal(p1, p2)
        assert not np.array_equal(p1, p3)

    def test_vote_counts_match_naive_loop(self):
        rng, model = _classifier(34)
        probs, _ = predict_classes(model, mc_samples=50, seed=3)
        mean, var, _ = _marginals(model, np.arange(12))
        sd = np.sqrt(np.maximum(var, classification._VAR_FLOOR))
        noise = np.random.default_rng(3).standard_normal((50,) + mean.shape)
        draws = mean[None] + sd[None] * noise
        freq = np.zeros(mean.shape)
        for s in range(50):
            for i in range(12):
                freq[i, np.argmax(draws[s, i])] += 1.0
        low = model.epsilon / 2
        assert_array_equal(probs, low + (1.0 - model.epsilon - low) * (freq / 50))

    @pytest.mark.parametrize("extra_chunks,rest", [(2, 5), (0, 3)],
                             ids=["not_a_multiple", "below_one_chunk"])
    def test_chunked_votes_equal_one_shot_draw(self, extra_chunks, rest):
        """Votes drawn chunk by chunk equal the vote of one draw of all
        samples from the same generator, bit for bit."""
        samples = extra_chunks * classification._VOTE_CHUNK + rest
        rng, model = _classifier(35, n=20)
        query = np.array([3, 0, 7, 7, 19])
        probs, labels = predict_classes(model, query, mc_samples=samples, seed=4)
        mean, var, _ = _marginals(model, query)
        sd = np.sqrt(np.maximum(var, classification._VAR_FLOOR))
        noise = np.random.default_rng(4).standard_normal((samples,) + mean.shape)
        winners = np.argmax(mean[None] + sd[None] * noise, axis=-1)
        k, c = mean.shape
        votes = np.bincount((np.arange(k) * c + winners).ravel(), minlength=k * c)
        low = model.epsilon / (c - 1)
        expected = low + (1.0 - model.epsilon - low) * (votes.reshape(k, c) / samples)
        assert_array_equal(probs, expected)
        assert_array_equal(labels, np.argmax(expected, axis=-1))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sample_count_below_one_fails_by_name(self, samples):
        _, model = _classifier(36)
        with pytest.raises(ValueError, match="mc_samples must be >= 1"):
            predict_classes(model, mc_samples=samples)

    def test_query_validation(self):
        rng, model = _classifier(33)
        with pytest.raises(ValueError, match="out of range"):
            predict_classes(model, np.array([50]))


class TestSnapshotAndCsv:
    @pytest.mark.parametrize("diag_cov", [True, False])
    def test_roundtrip(self, tmp_path, diag_cov):
        rng, model = _classifier(40, diag_cov=diag_cov, whitened=False)
        path = tmp_path / "clf.json"
        save_classifier(model, path)
        again = load_classifier(path, model.basis)
        assert again.spec == model.spec
        assert again.whitened == model.whitened
        assert again.diag_cov == model.diag_cov
        assert_array_equal(again.inducing_nodes, model.inducing_nodes)
        assert_allclose(again.q_mu, model.q_mu, atol=1e-15)
        batch = np.array([0, 3])
        labels = np.array([0, 1])
        assert_allclose(
            elbo(model, batch, labels, seed=1),
            elbo(again, batch, labels, seed=1),
            rtol=1e-12,
        )

    def test_kind_mismatch_rejected(self, tmp_path):
        rng, model = _classifier(41)
        from graph_matern import GPRegressionModel

        reg = GPRegressionModel(
            spec=KernelSpec(family="matern", nu=1.0, kappa=1.0),
            basis=eigendecompose_full(
                build_laplacian(two_cliques(3), "unnormalized")
            ),
            train_nodes=np.array([0]),
            targets=np.array([1.0]),
        )
        path = tmp_path / "reg.json"
        save_model(reg, path)
        with pytest.raises(ValueError, match="not classifier"):
            load_classifier(path, model.basis)

    @pytest.mark.parametrize("field, value", [
        ("whitened", "false"), ("diag_cov", 1), ("n_classes", True), ("epsilon", "0.1"),
        ("q_mu", [[0.0, "0"]]), ("inducing_nodes", [[0, 1.5]]),
        pytest.param("epsilon", 10**400, id="epsilon-1e400"),
        pytest.param("jitter", -10**400, id="jitter--1e400"),
        pytest.param("q_mu", [[10**400, 0.0]], id="q_mu-1e400"),
    ])
    def test_load_refuses_fields_by_name(self, tmp_path, field, value):
        _, model = _classifier(44)
        path = tmp_path / "clf.json"
        save_classifier(model, path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"snapshot field '{field}'"):
            load_classifier(path, model.basis)
        del payload[field]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"lacks field '{field}'"):
            load_classifier(path, model.basis)

    def test_read_labels_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        for text in ("node,class\n4,2\n0,1\n", "\n\nnode_index,class_index\n4,2\n0,1\n",
                     "\ufeffnode_index,class_index\n4,2\n0,1\n", "\ufeff4,2\n0,1\n"):
            path.write_text(text, encoding="utf-8")
            nodes, labels = read_labels_csv(path)
            assert_array_equal(nodes, [4, 0])
            assert_array_equal(labels, [2, 1])

    def test_read_labels_csv_refuses_values_past_int64(self, tmp_path):
        path = tmp_path / "labels.csv"
        for text in ("node,class\n0,1\n5,99999999999999999999\n",
                     "node,class\n0,1\n99999999999999999999,1\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="^malformed row at line 3$"):
                read_labels_csv(path)

    def test_read_labels_csv_errors(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1,2\n")
        with pytest.raises(ValueError, match="node_index,class_index"):
            read_labels_csv(path)
        # The reader parses; the model checks the label range.
        path.write_text("0,-1\n")
        nodes, labels = read_labels_csv(path)
        assert_array_equal(labels, [-1])
        _, model = _classifier(7)
        with pytest.raises(ValueError, match=r"label out of range \[0, 3\)"):
            fit_classifier(model, nodes, labels)
        path.write_text("1a,2\n0,1\n")
        with pytest.raises(ValueError, match="malformed row at line 1"):
            read_labels_csv(path)
