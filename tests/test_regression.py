"""GP regression: dense, low-rank and sparse-precision posteriors, LML, fit."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.stats
from scipy.linalg import lapack
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dtrtri
from scipy.sparse.linalg import splu
from numpy.testing import assert_allclose, assert_array_equal

from graph_matern import (
    AdamConfig,
    GPRegressionModel,
    KernelSpec,
    SpectralBasis,
    build_laplacian,
    eigendecompose_full,
    eigendecompose_truncated,
    fit,
    gmrf_posterior,
    kernel_matrix,
    load_model,
    log_marginal_likelihood,
    matern_precision_sparse,
    pathwise_sample,
    posterior,
    read_targets_csv,
    save_model,
    spectral_weights,
    woodbury_posterior,
)
from graph_matern.kernels import (
    from_unconstrained,
    to_unconstrained,
    trainable_params,
    unconstrained_name,
)
from graph_matern import regression, spectral
from graph_matern.graphs import DENSE_ELEMENT_LIMIT
from graph_matern.spectral import _factor_spd
from helpers import (
    PeakMemory,
    conditional_gaussian,
    lattice_graph,
    leading_pairs,
    path_graph,
    random_connected_graph,
    wide_basis,
)

MATERN = KernelSpec(family="matern", nu=1.5, kappa=2.0)


def _problem(seed, n=18, n_train=7, spec=MATERN, noise2=0.05):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    basis = eigendecompose_full(build_laplacian(g, spec.laplacian_kind))
    train = np.sort(rng.choice(n, size=n_train, replace=False))
    y = rng.standard_normal(n_train)
    model = GPRegressionModel(
        spec=spec, basis=basis, train_nodes=train, targets=y, noise2=noise2
    )
    return rng, model


def _memoized(model):
    """Names of the derived attributes ``model`` has computed and kept."""
    return vars(model).keys() - {f.name for f in dataclasses.fields(model)}


def _spectral_problem(seed, spec=MATERN, n=40, n_pairs=12, n_train=30, noise2=0.1):
    """A truncated-basis problem with more training nodes than eigenpairs."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    full = eigendecompose_full(build_laplacian(g, spec.laplacian_kind))
    train = np.sort(rng.choice(n, size=n_train, replace=False))
    model = GPRegressionModel(
        spec=spec, basis=leading_pairs(full, n_pairs), train_nodes=train,
        targets=rng.standard_normal(n_train), noise2=noise2,
    )
    assert regression._route(model) == "spectral"
    return model


def _numpy_matheron(model, query, n_samples, seed, feature_space=False):
    """Matheron's update by numpy on ``pathwise_sample``'s draws, made in its
    order: f_q + K_qx C^-1 r, with C^-1 r by a solve with the m x m
    C = K_xx + noise2 I or, with ``feature_space``, D P^T C^-1 r by a solve
    with the l x l B = I + D^1/2 P^T P D^1/2 / noise2."""
    rng = np.random.default_rng(seed)
    d, _ = spectral_weights(model.spec, model.basis.eigenvalues, model.basis.total_dim)
    phi_x = model.basis.eigenvectors[model.train_nodes]
    phi_q = model.basis.eigenvectors[query]
    coef = np.sqrt(d)[:, None] * rng.standard_normal((d.size, n_samples))
    eps = np.sqrt(model.noise2) * rng.standard_normal((phi_x.shape[0], n_samples))
    r = model.targets[:, None] - phi_x @ coef - eps
    if feature_space:
        root = np.sqrt(d)[:, None]
        b = np.eye(d.size) + root * (phi_x.T @ phi_x) * root.T / model.noise2
        coef += root * np.linalg.solve(b, root * (phi_x.T @ r)) / model.noise2
    else:
        c = (phi_x * d) @ phi_x.T + model.noise2 * np.eye(phi_x.shape[0])
        coef += d[:, None] * (phi_x.T @ np.linalg.solve(c, r))
    return (phi_q @ coef).T


class TestModelValidation:
    def test_node_range_and_shapes(self):
        rng, model = _problem(1)
        basis = model.basis
        with pytest.raises(ValueError, match="out of range"):
            GPRegressionModel(MATERN, basis, np.array([0, 18]), np.zeros(2))
        with pytest.raises(ValueError, match="matching 1-d"):
            GPRegressionModel(MATERN, basis, np.array([0, 1]), np.zeros(3))
        with pytest.raises(ValueError, match="at least one"):
            GPRegressionModel(MATERN, basis, np.array([], dtype=int), np.array([]))
        with pytest.raises(ValueError, match="noise2"):
            GPRegressionModel(MATERN, basis, np.array([0]), np.zeros(1), noise2=0.0)
        with pytest.raises(ValueError, match="finite"):
            GPRegressionModel(MATERN, basis, np.array([0]), np.array([np.inf]))

    def test_laplacian_kind_mismatch(self):
        rng, model = _problem(2)
        wrong = MATERN.with_params(laplacian_kind="sym_normalized")
        with pytest.raises(ValueError, match="laplacian kind"):
            GPRegressionModel(wrong, model.basis, model.train_nodes, model.targets)

    def test_noise2_past_float64_fails_by_name(self):
        _, model = _problem(2)
        with pytest.raises(ValueError, match="^noise2 must be positive and finite, got 1"):
            GPRegressionModel(MATERN, model.basis, [0], [1.0], noise2=10**400)
        with pytest.raises(ValueError, match="^noise2 must be positive and finite, got inf"):
            GPRegressionModel(MATERN, model.basis, [0], [1.0], noise2=float("inf"))
        assert GPRegressionModel(MATERN, model.basis, [0], [1.0], noise2=2**64).noise2 == 2**64

    def test_with_raw_params_gives_fresh_model(self):
        """The new model holds the train rows and (E, t) it shares with the
        old one, which no parameter touches, and computes the weights and
        both factors afresh."""
        _, model = _problem(3)
        model._c_factor, model._b_factor  # every derived attribute, on both routes
        assert _memoized(model) == {"_phi_train", "_gram", "_weights", "_c_factor", "_b_factor"}
        other = model.with_raw_params({"kappa": 5.0, "noise2": 0.2})
        assert other.spec.kappa == 5.0
        assert other.noise2 == 0.2
        assert model.spec.kappa == 2.0
        assert _memoized(other) == {"_phi_train", "_gram"}
        assert other._phi_train is model._phi_train and other._gram is model._gram
        for name in ("_weights", "_c_factor", "_b_factor"):
            assert getattr(other, name) is not getattr(model, name)
        assert not np.array_equal(other._weights[0], model._weights[0])


class TestPosterior:
    def test_matches_brute_force_conditioning(self):
        """On the dense route, whose covariance K_qq - (L^-1 K_xq)^T (L^-1
        K_xq) is a difference of two symmetric products, so it is exactly
        symmetric."""
        for seed in (10, 11, 12):
            rng, model = _problem(seed)
            assert regression._route(model) == "dense"
            k_full = kernel_matrix(model.basis, model.spec)
            query = np.sort(rng.choice(18, size=6, replace=False))
            mean, cov = conditional_gaussian(
                k_full, model.train_nodes, query, model.targets, model.noise2
            )
            out = posterior(model, query)
            assert_allclose(out.mean, mean, atol=1e-8)
            assert_allclose(out.covariance, cov, atol=1e-8)
            assert_array_equal(out.covariance, out.covariance.T)
            assert_allclose(out.variance, np.diag(cov), atol=1e-8)
            assert_allclose(out.stddev, np.sqrt(out.variance), atol=1e-15)

    def test_default_query_is_all_nodes(self):
        _, model = _problem(13)
        out = posterior(model)
        assert out.mean.shape == (18,)
        explicit = posterior(model, np.arange(18))
        assert_allclose(out.mean, explicit.mean, atol=1e-14)

    def test_diag_matches_full(self):
        _, model = _problem(14)
        full = posterior(model, np.arange(10))
        only = posterior(model, np.arange(10), diag=True)
        assert only.covariance is None
        assert_allclose(only.variance, full.variance, atol=1e-10)
        assert_allclose(only.mean, full.mean, atol=1e-12)

    def test_near_interpolation_at_tiny_noise(self):
        rng, model = _problem(15)
        tight = model.with_raw_params({"noise2": 1e-8})
        out = posterior(tight, tight.train_nodes)
        assert_allclose(out.mean, tight.targets, atol=1e-4)
        assert np.all(out.variance < 1e-4)

    def test_variance_never_negative(self):
        for seed in range(20, 25):
            _, model = _problem(seed, noise2=1e-6)
            out = posterior(model)
            assert np.all(out.variance >= 0.0)

    def test_ill_conditioning_warns(self):
        rng = np.random.default_rng(16)
        g = random_connected_graph(rng, 10)
        basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
        model = GPRegressionModel(
            MATERN,
            basis,
            np.array([2, 2, 5]),  # duplicated node makes K_xx rank-deficient
            np.array([0.3, 0.3, -0.1]),
            noise2=1e-13,
        )
        with pytest.warns(UserWarning, match="condition number"):
            posterior(model, np.array([0]))

    def test_query_validation(self):
        _, model = _problem(17)
        with pytest.raises(ValueError, match="out of range"):
            posterior(model, np.array([99]))
        with pytest.raises(ValueError, match="1-d"):
            posterior(model, np.array([[0, 1]]))


    def test_one_factor_and_inverse_per_dense_model(self, monkeypatch):
        """The dense LML, ``posterior`` and ``pathwise_sample`` all read the
        model's one memoized factor of C and its one inverse."""
        _, model = _problem(18)
        m = model.train_nodes.size
        assert regression._route(model) == "dense"
        calls = {"_spd_factor": 0, "_tri_inverse": 0}
        for name in calls:
            def counted(a, *args, _real=getattr(regression, name), _name=name):
                calls[_name] += a.shape == (m, m)
                return _real(a, *args)
            monkeypatch.setattr(regression, name, counted)
        log_marginal_likelihood(model)
        log_marginal_likelihood(model)
        posterior(model)
        pathwise_sample(model, n_samples=3)
        assert calls == {"_spd_factor": 1, "_tri_inverse": 1}


class TestWoodburyPosterior:
    def test_full_basis_matches_dense_path(self):
        for seed in (30, 31, 32):
            rng, model = _problem(seed)
            query = np.sort(rng.choice(18, size=5, replace=False))
            a = posterior(model, query)
            b = woodbury_posterior(model, query)
            assert_allclose(b.mean, a.mean, atol=1e-10)
            assert_allclose(b.covariance, a.covariance, atol=1e-10)
            bd = woodbury_posterior(model, query, diag=True)
            assert_allclose(bd.variance, a.variance, atol=1e-10)

    def test_truncated_basis_agrees_with_dense_on_same_rank(self):
        rng, model = _problem(33)
        part = leading_pairs(model.basis, 6)
        small = GPRegressionModel(
            model.spec, part, model.train_nodes, model.targets, model.noise2
        )
        assert regression._route(small) == "spectral"  # m = 7 > 3l/4 = 4.5
        mean, cov = conditional_gaussian(kernel_matrix(part, small.spec), small.train_nodes,
                                         np.arange(18), small.targets, small.noise2)
        b = woodbury_posterior(small)
        assert_allclose(b.mean, mean, atol=1e-10)
        assert_allclose(b.covariance, cov, atol=1e-10)
        routed = posterior(small)
        assert_array_equal(routed.mean, b.mean)
        assert_array_equal(routed.covariance, b.covariance)

    def test_underflowed_modes_kept(self):
        spec = KernelSpec(family="diffusion", kappa=60.0)
        rng, model = _problem(34, spec=spec)
        assert np.any(model._weights[0] == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = woodbury_posterior(model)
        clean = posterior(model)
        assert_allclose(out.mean, clean.mean, atol=1e-8)
        assert_allclose(out.covariance, clean.covariance, atol=1e-8)

    def test_degenerate_prior_gives_the_prior(self):
        # hand-built basis whose spectrum lies entirely in the clamped region
        vec = np.eye(4)[:, 1:3]
        basis = SpectralBasis(
            eigenvalues=np.array([1.5, 2.0]),
            eigenvectors=vec,
            total_dim=4,
            laplacian_kind="sym_normalized",
        )
        spec = KernelSpec(
            family="random_walk",
            alpha=0.05,
            p=1,
            laplacian_kind="sym_normalized",
            normalize_variance=False,
        )
        model = GPRegressionModel(
            spec, basis, np.array([0, 1]), np.array([0.5, -0.5])
        )
        assert regression._route(model) == "spectral"  # m = 2 > 3l/4 = 1.5
        with pytest.warns(UserWarning, match="clamped"):
            out = woodbury_posterior(model)
            mean, cov = conditional_gaussian(kernel_matrix(basis, spec), model.train_nodes,
                                             np.arange(4), model.targets, model.noise2)
        assert_array_equal(out.mean, np.zeros(4))
        assert_array_equal(out.covariance, np.zeros((4, 4)))
        assert_allclose(out.mean, mean, atol=1e-15)
        assert_allclose(out.covariance, cov, atol=1e-15)

    def test_one_factor_per_model(self, monkeypatch):
        calls = []
        real = regression._spd_factor

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(regression, "_spd_factor", counted)
        model = _spectral_problem(57)
        log_marginal_likelihood(model)
        woodbury_posterior(model)
        woodbury_posterior(model, np.array([0, 3]), diag=True)
        posterior(model)
        pathwise_sample(model, n_samples=3)
        assert len(calls) == 1


class TestDenseCovarianceBudget:
    """A dense |q| x |q| covariance over ``DENSE_ELEMENT_LIMIT`` elements
    is refused by its shape before any product is formed."""

    @staticmethod
    def _wide_model(step=40):
        # The full query covariance would be 12000^2 elements (1.15 GB).
        train_nodes = np.arange(0, 12000, step)
        targets = np.random.default_rng(32).standard_normal(train_nodes.size)
        return GPRegressionModel(MATERN, wide_basis(), train_nodes, targets, noise2=0.1)

    @staticmethod
    def _wide_dense_model():
        """300 of 12000 nodes observed on 400 orthonormal pairs, the
        indicators of 30-node blocks: the dense route, as m <= 3l/4."""
        vectors = np.kron(np.eye(400), np.full((30, 1), 30 ** -0.5))
        basis = SpectralBasis(np.linspace(0.0, 2.0, 400), vectors, 12000, "unnormalized")
        train_nodes = np.arange(0, 12000, 40)
        targets = np.random.default_rng(32).standard_normal(train_nodes.size)
        model = GPRegressionModel(MATERN, basis, train_nodes, targets, noise2=0.1)
        assert regression._route(model) == "dense"
        return model

    @pytest.mark.parametrize("route", [posterior, woodbury_posterior])
    def test_over_budget_refused_before_any_product(self, route):
        model = self._wide_dense_model()
        assert 12000**2 > DENSE_ELEMENT_LIMIT
        with PeakMemory() as mem:
            with pytest.raises(ValueError, match="dense 12000 x 12000 query covariance"):
                route(model)
        assert mem.peak < 16 * 2**20
        assert not _memoized(model)
        out = route(model, np.arange(5))
        assert out.covariance.shape == (5, 5)
        assert route(model, diag=True).variance.shape == (12000,)

    @pytest.mark.parametrize("route", [posterior, woodbury_posterior])
    def test_spectral_route_refusal_names_the_function_called(self, route):
        """m = 300 > 3l/4: ``posterior`` takes the spectral route and still
        names itself, not ``woodbury_posterior``, in its refusals."""
        model = self._wide_model()
        assert regression._route(model) == "spectral"
        with pytest.raises(ValueError, match=f"^{route.__name__} would return a dense "
                                             "12000 x 12000 query covariance"):
            route(model)
        assert not _memoized(model)

    def test_train_covariance_over_budget_refused_before_any_product(self):
        """The dense route factors the m x m train covariance; with m = 12000
        it is refused unformed. ``posterior`` and ``pathwise_sample`` take the
        spectral route there (l = 3), as ``woodbury_posterior`` does, so they
        never form it and run."""
        model = self._wide_model(step=1)
        message = "GPRegressionModel would factor a dense 12000 x 12000 train covariance"
        for call in (lambda: model._c_factor, lambda: regression._lml_dense(model)):
            with PeakMemory() as mem:
                with pytest.raises(ValueError, match=message):
                    call()
            assert mem.peak < 16 * 2**20
        assert posterior(model, np.arange(5), diag=True).variance.shape == (5,)
        assert pathwise_sample(model, np.arange(5)).shape == (1, 5)
        assert woodbury_posterior(model, np.arange(5), diag=True).variance.shape == (5,)
        assert "_c_factor" not in vars(model)
        small = self._wide_dense_model()
        assert posterior(small, np.arange(5), diag=True).variance.shape == (5,)


    @pytest.mark.parametrize("make,call,message", [
        ("_wide_dense_model", lambda model, q: posterior(model, q, diag=True),
         "posterior would form a dense 450000 x 300 query-train covariance"),
        ("_wide_model", lambda model, q: pathwise_sample(model, q[:5], n_samples=450_000),
         "pathwise_sample would form a dense 300 x 450000 train sample block"),
        ("_wide_model", lambda model, q: pathwise_sample(model, q[:12000], n_samples=12000),
         "pathwise_sample would form a dense 12000 x 12000 query sample block"),
    ], ids=["posterior_query_train", "pathwise_train_samples", "pathwise_query_samples"])
    def test_query_blocks_over_budget_refused_before_any_product(self, make, call, message):
        """|q| x m and |q| x S blocks past the limit are refused by name
        before the train covariance or any product is formed; the dense
        route's posterior is the one that forms a |q| x m block."""
        model = getattr(self, make)()
        query = np.zeros(450_000, dtype=np.int64)  # a node asked for 450000 times
        query[:12000] = np.arange(12000)
        with PeakMemory() as mem:
            with pytest.raises(ValueError, match=message):
                call(model, query)
        assert mem.peak < 16 * 2**20
        assert "_c_factor" not in vars(model)
        assert posterior(model, np.arange(5), diag=True).variance.shape == (5,)
        assert pathwise_sample(model, np.arange(5), n_samples=2).shape == (2, 5)

    def test_woodbury_query_rows_over_budget_refused_before_any_product(self):
        """``woodbury_posterior``'s |q| x l query rows and its l x |q| W are
        refused by name, with ``diag`` too, before the factor of B or any
        product; a small query still runs."""
        vectors = np.linalg.qr(np.random.default_rng(33).standard_normal((450, 450)))[0]
        basis = SpectralBasis(np.linspace(0.0, 2.0, 450), vectors, 450, "unnormalized")
        model = GPRegressionModel(MATERN, basis, np.arange(0, 450, 3), np.ones(150))
        query = np.zeros(320_000, dtype=np.int64)  # a node asked for 320000 times
        assert query.size * 450 > DENSE_ELEMENT_LIMIT
        with PeakMemory() as mem:
            with pytest.raises(ValueError, match="woodbury_posterior would form a dense "
                               "320000 x 450 query eigenvector block"):
                woodbury_posterior(model, query, diag=True)
        assert mem.peak < 16 * 2**20
        assert not _memoized(model)
        assert woodbury_posterior(model, query[:5], diag=True).variance.shape == (5,)


class TestLogMarginalLikelihood:
    def test_value_matches_multivariate_normal(self):
        for seed, spec in (
            (40, MATERN),
            (41, KernelSpec(family="diffusion", kappa=1.3, sigma2=0.8)),
            (
                42,
                KernelSpec(
                    family="random_walk",
                    alpha=0.7,
                    p=3,
                    laplacian_kind="sym_normalized",
                ),
            ),
        ):
            _, model = _problem(seed, spec=spec)
            k_xx = kernel_matrix(model.basis, model.spec, model.train_nodes, model.train_nodes)
            cov = k_xx + model.noise2 * np.eye(len(model.train_nodes))
            oracle = scipy.stats.multivariate_normal(
                mean=np.zeros(len(model.train_nodes)), cov=cov
            ).logpdf(model.targets)
            value, _ = log_marginal_likelihood(model)
            assert_allclose(value, oracle, rtol=1e-10)

    def _gradcheck(self, model, names, h=1e-5, tol=1e-4, lml=log_marginal_likelihood):
        _, grads = lml(model)
        for name in names:
            raw0 = model.noise2 if name == "noise2" else getattr(model.spec, name)
            key = unconstrained_name(name)
            t0 = to_unconstrained({name: raw0})[key]
            vals = []
            for sign in (+1, -1):
                raw = from_unconstrained({key: t0 + sign * h}, [name])
                shifted = model.with_raw_params(raw)
                vals.append(lml(shifted)[0])
            fd = (vals[0] - vals[1]) / (2 * h)
            an = grads[key]
            denom = max(abs(fd), abs(an), 1e-3)
            assert abs(an - fd) / denom < tol, (name, an, fd)

    def test_gradients_match_finite_differences(self):
        for seed in (50, 51, 52):
            _, model = _problem(seed, noise2=0.1)
            self._gradcheck(model, ("kappa", "nu", "sigma2", "noise2"))

    def test_gradients_logit_alpha(self):
        spec = KernelSpec(
            family="random_walk", alpha=0.6, p=2, laplacian_kind="sym_normalized"
        )
        _, model = _problem(53, spec=spec, noise2=0.1)
        self._gradcheck(model, ("alpha", "sigma2", "noise2"))

    def test_gradients_unnormalized_variance(self):
        spec = MATERN.with_params(normalize_variance=False)
        _, model = _problem(54, spec=spec, noise2=0.1)
        self._gradcheck(model, ("kappa", "nu", "sigma2", "noise2"))

    def test_one_weights_evaluation_per_model(self, monkeypatch):
        calls = []
        real = regression.spectral_weights

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(regression, "spectral_weights", counted)
        for model in (_problem(55)[1], _spectral_problem(56)):
            calls.clear()
            log_marginal_likelihood(model)
            woodbury_posterior(model)
            posterior(model)
            assert len(calls) == 1

    def test_spectral_lml_needs_no_triangular_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_triangular called")

        monkeypatch.setattr(regression, "solve_triangular", refuse)
        value, grads = regression._lml_spectral(_spectral_problem(58))
        assert np.isfinite(value) and all(np.isfinite(g) for g in grads.values())

    def test_spectral_route_value_matches_multivariate_normal(self):
        for seed, spec in (
            (140, MATERN),
            (141, KernelSpec(family="diffusion", kappa=1.3, sigma2=0.8)),
            (142, MATERN.with_params(normalize_variance=False)),
        ):
            model = _spectral_problem(seed, spec=spec)
            k_xx = kernel_matrix(model.basis, model.spec, model.train_nodes, model.train_nodes)
            cov = k_xx + model.noise2 * np.eye(len(model.train_nodes))
            oracle = scipy.stats.multivariate_normal(
                mean=np.zeros(len(model.train_nodes)), cov=cov
            ).logpdf(model.targets)
            value, _ = log_marginal_likelihood(model)
            assert_allclose(value, oracle, rtol=1e-10)

    def test_spectral_route_gradients_match_finite_differences(self):
        for seed in (150, 151):
            self._gradcheck(_spectral_problem(seed), ("kappa", "nu", "sigma2", "noise2"))

    def test_spectral_route_gradients_unnormalized_variance(self):
        spec = MATERN.with_params(normalize_variance=False)
        self._gradcheck(_spectral_problem(152, spec=spec), ("kappa", "nu", "sigma2", "noise2"))

    def test_spectral_route_gradients_logit_alpha_with_clamped_modes(self):
        # base 1 - (1 - alpha) lambda < 0 above lambda ~ 1.05, and p = 3 keeps
        # those weights negative, so they are clamped to zero.
        spec = KernelSpec(
            family="random_walk", alpha=0.05, p=3, laplacian_kind="sym_normalized"
        )
        with pytest.warns(UserWarning, match="clamped to zero"):
            model = _spectral_problem(153, spec=spec, n_pairs=25, n_train=32)
            d, _ = model._weights
            assert np.any(d == 0.0) and np.any(d > 0.0)
            self._gradcheck(model, ("alpha", "sigma2", "noise2"))

    @pytest.mark.filterwarnings("ignore:random walk base")
    @pytest.mark.parametrize("case", ["random_walk_clamped", "inverse_cosine_at_2", "diffusion_underflow"])
    def test_spectral_route_at_zero_weights(self, case):
        if case == "random_walk_clamped":
            spec = KernelSpec(family="random_walk", alpha=0.05, p=3, laplacian_kind="sym_normalized")
            model = _spectral_problem(154, spec=spec, n_pairs=25, n_train=32)
        elif case == "inverse_cosine_at_2":
            # a path is bipartite: its normalized Laplacian has lambda = 2,
            # where cos(pi lambda / 4) vanishes up to rounding
            spec = KernelSpec(family="inverse_cosine", laplacian_kind="sym_normalized")
            basis = eigendecompose_full(build_laplacian(path_graph(14), "sym_normalized"))
            rng = np.random.default_rng(155)
            train = np.sort(rng.choice(14, size=12, replace=False))
            model = GPRegressionModel(spec, basis, train, rng.standard_normal(12), noise2=0.1)
            assert_allclose(basis.eigenvalues[-1], 2.0, atol=1e-12)
            assert model._weights[0][-1] < 1e-15
        else:
            spec = KernelSpec(family="diffusion", kappa=60.0)
            model = _spectral_problem(156, spec=spec)
        d, _ = model._weights
        if case != "inverse_cosine_at_2":
            assert np.any(d == 0.0) and np.any(d > 0.0)
        v_spec, g_spec = regression._lml_spectral(model)
        v_dense, g_dense = regression._lml_dense(model)
        assert np.isfinite(v_spec) and all(np.isfinite(g) for g in g_spec.values())
        assert_allclose(v_spec, v_dense, rtol=1e-10)
        assert g_spec.keys() == g_dense.keys()
        for key in g_dense:
            assert_allclose(g_spec[key], g_dense[key], rtol=1e-10, err_msg=key)
        names = trainable_params(spec) + ("noise2",)
        self._gradcheck(model, names, lml=regression._lml_spectral)

    def test_b_factor_keeps_the_bits_of_the_formula(self):
        """B, its factor and the factor's inverse share one array; they keep
        the bits of E times the outer scaling root root^T / s2, plus the
        unit diagonal, factored and inverted out of place, signed zeros of
        zero-weight modes included (off the diagonal a zero weight times a
        negative E entry stays -0.0), and coef is D^1/2 B^-1 D^1/2 t / s2
        with B^-1 = L_B^-T L_B^-1 by two ``dtrmv``."""
        model = _spectral_problem(156, spec=KernelSpec(family="diffusion", kappa=60.0))
        d, _ = model._weights
        assert np.any(d == 0.0)
        root, (e, t) = np.sqrt(d), model._gram
        b = e * np.outer(root, root / model.noise2)
        assert np.any(np.signbit(b) & (b == 0.0))
        b[np.diag_indices_from(b)] += 1.0
        chol_b = scipy.linalg.cholesky(b, lower=True)
        inv = dtrtri(chol_b, lower=1)[0]
        half_logdet, inv_chol_b, _, t_cached, coef = model._b_factor
        assert half_logdet == float(np.sum(np.log(np.diag(chol_b))))
        assert_array_equal(inv_chol_b.view(np.int64), inv.view(np.int64))
        assert t_cached is t
        assert_array_equal(t, model._phi_train.T @ model.targets)
        solved = dtrmv(inv, dtrmv(inv, root * t, lower=1), lower=1, trans=1)
        assert_array_equal(coef.view(np.int64), (root * solved / model.noise2).view(np.int64))

    def test_dense_and_spectral_routes_agree(self):
        rw = KernelSpec(family="random_walk", alpha=0.6, p=2, laplacian_kind="sym_normalized")
        models = [
            _spectral_problem(160),
            _spectral_problem(161, spec=rw),
            _problem(162, noise2=0.1)[1],  # m <= l: the identities hold here too
        ]
        for model in models:
            v_dense, g_dense = regression._lml_dense(model)
            v_spec, g_spec = regression._lml_spectral(model)
            assert_allclose(v_spec, v_dense, rtol=1e-10)
            assert g_spec.keys() == g_dense.keys()
            for key in g_dense:
                assert_allclose(g_spec[key], g_dense[key], rtol=1e-10, err_msg=key)

    def test_route_follows_the_shapes(self, monkeypatch):
        # l = 12 eigenpairs: the spectral route starts above m = 3l/4 = 9
        base = _spectral_problem(172)
        for m, route in ((9, "dense"), (10, "spectral")):
            model = dataclasses.replace(
                base, train_nodes=base.train_nodes[:m], targets=base.targets[:m]
            )
            assert regression._route(model) == route

        def refuse(self):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(GPRegressionModel, "_c_factor", property(refuse))
        value, grads = log_marginal_likelihood(_spectral_problem(170))
        assert np.isfinite(value) and all(np.isfinite(g) for g in grads.values())
        _, dense = _problem(171)
        assert regression._route(dense) == "dense"
        with pytest.raises(AssertionError, match="dense route taken"):
            log_marginal_likelihood(dense)


class TestDenseFactorHelpers:
    """``_spd_factor`` and ``_tri_inverse``: the one factor and triangular
    inverse of every dense SPD block of the fits."""

    def test_every_size_to_two_recursion_levels(self):
        # n <= _TRI_CUT goes straight to dtrtri; up to 260, odd splits and
        # blocks split twice (260 -> 130 -> 65).
        rng = np.random.default_rng(211)
        assert regression._TRI_CUT < 130 < 2 * regression._TRI_CUT
        for n in range(1, 261):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = (q * np.geomspace(1.0, 1e3, n)) @ q.T  # condition 1e3
            a = (a + a.T) / 2.0
            reference, info = lapack.dpotrf(a, lower=1, clean=1)
            assert info == 0
            low = regression._spd_factor(np.array(a, order="F"), "a")
            assert_array_equal(low.view(np.int64), reference.view(np.int64), err_msg=n)
            inv = regression._tri_inverse(low.copy(order="F"))
            assert not np.any(np.triu(low, 1)) and not np.any(np.triu(inv, 1)), n
            assert np.max(np.abs(inv @ low - np.eye(n))) <= 1e-12, n

    def test_factor_and_inverse_work_in_place(self):
        a = np.asfortranarray(np.eye(200) * 4.0 + 1.0)
        low = regression._spd_factor(a, "a")
        assert low is a
        assert regression._tri_inverse(low) is low

    def test_not_positive_definite_raises_by_name(self):
        a = np.asfortranarray([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(scipy.linalg.LinAlgError,
                           match="widget is not positive definite: pivot 2 of 2"):
            regression._spd_factor(a, "widget")
        with pytest.raises(ValueError, match="widget has a non-finite entry"):
            regression._spd_factor(np.asfortranarray([[1.0, np.nan], [np.nan, 1.0]]),
                                   "widget")

    def test_zero_diagonal_raises(self):
        low = np.asfortranarray(np.eye(200))
        low[150, 150] = 0.0
        with pytest.raises(scipy.linalg.LinAlgError, match="zero diagonal"):
            regression._tri_inverse(low)

    def test_jitter_ladder_records_the_rung_that_factors(self):
        # More training nodes than eigenpairs makes K_xx rank 4 of 20, and a
        # noise of 1e-300 leaves C = K_xx + noise I singular in floating point.
        rng = np.random.default_rng(212)
        full = eigendecompose_full(build_laplacian(random_connected_graph(rng, 30),
                                                   "unnormalized"))
        model = GPRegressionModel(MATERN, leading_pairs(full, 4), np.arange(20),
                                  rng.standard_normal(20), noise2=1e-300)
        _, inv_chol, _, used = model._c_factor
        chol = dtrtri(inv_chol, lower=1)[0]  # L from the stored L^-1
        rung = regression._JITTERS.index(used)
        assert rung > 0
        d, _ = model._weights
        s = model._phi_train * np.sqrt(d)
        c = s @ s.T + model.noise2 * np.eye(20)
        scale = float(np.mean(np.diag(c)))
        for j in regression._JITTERS[:rung]:
            with pytest.raises(scipy.linalg.LinAlgError, match="train covariance"):
                regression._spd_factor(
                    np.array(c + j * scale * np.eye(20), order="F"), "train covariance"
                )
        assert_allclose(chol @ chol.T, c + used * scale * np.eye(20),
                        atol=1e-12 * scale)


    @pytest.mark.parametrize("spec", [MATERN, KernelSpec(family="diffusion", kappa=60.0)])
    def test_c_factor_keeps_the_bits_of_the_formula(self, spec):
        """C, its factor and the factor's inverse share one array; they keep
        the bits of s s^T + noise2 I, s = P D^1/2, factored and inverted out
        of place, and alpha = L^-T (L^-1 y) by two ``dtrmv``, with
        underflowed weights too."""
        _, model = _problem(213, spec=spec)
        d, _ = model._weights
        s = model._phi_train * np.sqrt(d)
        c = s @ s.T + model.noise2 * np.eye(s.shape[0])
        chol, info = lapack.dpotrf(c, lower=1, clean=1)
        assert info == 0
        inv = dtrtri(chol, lower=1)[0]
        half_logdet, inv_chol, alpha, jitter = model._c_factor
        assert jitter == 0.0
        assert half_logdet == float(np.sum(np.log(np.diag(chol))))
        assert_array_equal(inv_chol.view(np.int64), inv.view(np.int64))
        solved = dtrmv(inv, dtrmv(inv, model.targets, lower=1), lower=1, trans=1)
        assert_array_equal(alpha.view(np.int64), solved.view(np.int64))

    def test_train_covariance_factored_in_one_array(self):
        """C is built by one symmetric product, then factored and inverted
        in one m x m array: the peak stays under 1.6 arrays (the out-of-place
        build held 3)."""
        m, l = 2000, 500
        rng = np.random.default_rng(214)
        vectors = np.linalg.qr(rng.standard_normal((m, l)))[0]
        basis = SpectralBasis(np.linspace(0.0, 2.0, l), vectors, m, "unnormalized")
        model = GPRegressionModel(MATERN, basis, np.arange(m), rng.standard_normal(m),
                                  noise2=0.1)
        model._phi_train, model._weights
        with PeakMemory() as mem:
            _, inv_chol, alpha, _ = model._c_factor
        assert mem.peak < 1.6 * 8 * m * m
        assert inv_chol.shape == (m, m) and np.all(np.isfinite(alpha))


class TestFit:
    def test_loss_improves_and_best_is_returned(self):
        _, model = _problem(60, n=24, n_train=14)
        start = model.with_raw_params({"kappa": 0.3, "sigma2": 3.0, "noise2": 0.5})
        config = AdamConfig(iterations=150, learning_rate=0.05)
        fitted, trace = fit(start, config)
        assert trace.shape == (151,)
        assert trace[-1] < trace[0]
        best_loss = -log_marginal_likelihood(fitted)[0]
        assert_allclose(best_loss, trace.min(), rtol=1e-10)

    @pytest.mark.parametrize("route", ["dense", "spectral"])
    def test_one_weights_evaluation_per_lml_evaluation(self, route, monkeypatch):
        """k iterations evaluate the LML k + 1 times, at the start and after
        each step, and the spectral weights once for each, on either route."""
        model = _problem(62)[1] if route == "dense" else _spectral_problem(63)
        assert regression._route(model) == route
        calls = {"log_marginal_likelihood": 0, "spectral_weights": 0}

        def counted(name):
            real = getattr(regression, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(regression, name, call)

        for name in calls:
            counted(name)
        fit(model, AdamConfig(iterations=7, learning_rate=0.02))
        assert calls == {"log_marginal_likelihood": 8, "spectral_weights": 8}

    def test_deterministic(self):
        _, model = _problem(61)
        config = AdamConfig(iterations=30, learning_rate=0.02)
        _, t1 = fit(model, config)
        _, t2 = fit(model, config)
        assert_array_equal(t1, t2)

    def test_trainable_restriction(self):
        _, model = _problem(62)
        config = AdamConfig(iterations=25, learning_rate=0.05, trainable=("noise2",))
        fitted, _ = fit(model, config)
        assert fitted.spec == model.spec
        assert fitted.noise2 != model.noise2

    def test_unknown_trainable_rejected(self):
        _, model = _problem(63)
        with pytest.raises(ValueError, match="not trainable"):
            fit(model, AdamConfig(iterations=1, trainable=("alpha",)))
        with pytest.raises(ValueError, match="no trainable"):
            fit(model, AdamConfig(iterations=1, trainable=()))

    def test_non_finite_loss_names_the_step(self, monkeypatch):
        real = regression.log_marginal_likelihood
        calls = []

        def poisoned(model):
            calls.append(None)
            value, grads = real(model)
            return (np.nan if len(calls) == 4 else value), grads

        monkeypatch.setattr(regression, "log_marginal_likelihood", poisoned)
        _, model = _problem(65)
        with pytest.raises(RuntimeError, match=r"^fit stopped at step 3 on a non-finite "
                           r"objective value; kernel \{.*\}; noise2 [0-9.e+-]+$"):
            fit(model, AdamConfig(iterations=10, learning_rate=0.01))

    def test_non_finite_gradient_names_the_step(self, monkeypatch):
        real = regression.log_marginal_likelihood
        calls = []

        def poisoned(model):
            calls.append(None)
            value, grads = real(model)
            return value, ({**grads, "log_noise2": np.nan} if len(calls) == 4 else grads)

        monkeypatch.setattr(regression, "log_marginal_likelihood", poisoned)
        _, model = _problem(65)
        with pytest.raises(RuntimeError, match=r"^fit stopped at step 3 on a non-finite "
                           r"gradient for 'log_noise2'; kernel \{.*\}; noise2 [0-9.e+-]+$"):
            fit(model, AdamConfig(iterations=10, learning_rate=0.01))

    def test_train_rows_and_gram_carried_across_steps(self):
        model = _spectral_problem(66)
        fitted, _ = fit(model, AdamConfig(iterations=5, learning_rate=0.05))
        assert fitted is not model
        assert fitted._phi_train is vars(model)["_phi_train"]
        assert fitted._gram is vars(model)["_gram"]

    def test_zero_iterations_returns_start(self):
        _, model = _problem(64)
        fitted, trace = fit(model, AdamConfig(iterations=0))
        assert trace.shape == (1,)
        assert fitted.spec == model.spec


class TestPathwiseSample:
    def test_moments_match_posterior(self):
        _, model = _problem(70, n=12, n_train=5, noise2=0.1)
        query = np.array([0, 3, 8, 11])
        out = posterior(model, query)
        s = pathwise_sample(model, query, n_samples=50000, seed=1)
        assert s.shape == (50000, 4)
        n = s.shape[0]
        se_mean = np.sqrt(out.variance / n)
        assert np.all(np.abs(s.mean(axis=0) - out.mean) < 5 * se_mean)
        emp_cov = np.cov(s.T)
        sig = out.covariance
        se_cov = np.sqrt(
            (np.outer(out.variance, out.variance) + sig**2) / n
        )
        assert np.all(np.abs(emp_cov - sig) < 5 * se_cov)

    def test_seeded_determinism(self):
        _, model = _problem(71)
        a = pathwise_sample(model, np.arange(6), n_samples=3, seed=9)
        b = pathwise_sample(model, np.arange(6), n_samples=3, seed=9)
        c = pathwise_sample(model, np.arange(6), n_samples=3, seed=10)
        assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sample_count_validation(self):
        _, model = _problem(72)
        with pytest.raises(ValueError, match="n_samples"):
            pathwise_sample(model, n_samples=0)

    @pytest.mark.parametrize("route", ["dense", "spectral"])
    def test_route_matches_a_numpy_matheron_update(self, route):
        """Either route's samples are numpy's m x m Matheron update of the
        same draws, at the same seed."""
        model = _spectral_problem(73) if route == "spectral" else _problem(74)[1]
        assert regression._route(model) == route
        query = np.array([1, 4, 4, 9, 17])
        samples = pathwise_sample(model, query, n_samples=6, seed=5)
        expected = _numpy_matheron(model, query, 6, 5)
        assert_allclose(samples, expected, rtol=1e-8, atol=1e-8 * np.abs(expected).max())

    def test_spectral_route_past_the_train_covariance_limit(self):
        """11600 of 12100 lattice nodes on 8 Lanczos pairs: the m x m train
        covariance is over ``DENSE_ELEMENT_LIMIT``, but the spectral route
        samples through the l x l factor of B without forming it."""
        basis = eigendecompose_truncated(build_laplacian(lattice_graph(110), "unnormalized"), 8)
        rng = np.random.default_rng(75)
        train = np.sort(rng.choice(12100, size=11600, replace=False))
        model = GPRegressionModel(MATERN, basis, train, rng.standard_normal(11600), noise2=0.1)
        assert 11600**2 > DENSE_ELEMENT_LIMIT and regression._route(model) == "spectral"
        query = np.arange(0, 12100, 7)
        with PeakMemory() as mem:
            samples = pathwise_sample(model, query, n_samples=3, seed=4)
        assert mem.peak < 16 * 2**20
        assert "_c_factor" not in vars(model)
        expected = _numpy_matheron(model, query, 3, 4, feature_space=True)
        assert_allclose(samples, expected, rtol=1e-8, atol=1e-8 * np.abs(expected).max())


class TestGmrfPosterior:
    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(80)
        g = random_connected_graph(rng, 15)
        op = build_laplacian(g, "unnormalized")
        for nu in (1, 2, 3):
            q_prior = matern_precision_sparse(op, nu, kappa=1.4)
            k_full = np.linalg.inv(q_prior.toarray())
            train = np.array([1, 4, 9, 12])
            y = rng.standard_normal(4)
            query = np.array([0, 5, 10])
            mean, cov = conditional_gaussian(k_full, train, query, y, 0.05)
            out = gmrf_posterior(q_prior, 0.05, train, y, query)
            assert_allclose(out.mean, mean, rtol=1e-8, atol=1e-10)
            assert_allclose(out.covariance, cov, rtol=1e-8, atol=1e-10)

    @staticmethod
    def _two_components(rng):
        """Precision of two disconnected random graphs, as one 20-node GMRF."""
        parts = [
            matern_precision_sparse(
                build_laplacian(random_connected_graph(rng, size), "unnormalized"), 2, 1.4
            )
            for size in (12, 8)
        ]
        return sp.block_diag(parts, format="csr")

    @pytest.mark.parametrize(
        "query",
        [np.array([2, 15, 7, 19]), np.array([9, 3, 9, 14, 3, 0]),
         np.array([], dtype=np.int64), None],
        ids=["both_components", "repeated_unsorted", "empty", "all_nodes"],
    )
    def test_query_shapes_match_dense_inverse_oracle(self, query):
        rng = np.random.default_rng(84)
        q_prior = self._two_components(rng)
        k_full = np.linalg.inv(q_prior.toarray())
        train = np.array([1, 5, 13, 17])
        y = rng.standard_normal(4)
        nodes = np.arange(20) if query is None else query
        mean, cov = conditional_gaussian(k_full, train, nodes, y, 0.05)
        out = gmrf_posterior(q_prior, 0.05, train, y, query)
        assert out.covariance.shape == (nodes.size, nodes.size)
        assert_allclose(out.mean, mean, rtol=1e-8, atol=1e-10)
        assert_allclose(out.covariance, cov, rtol=1e-8, atol=1e-10)
        assert_allclose(out.variance, np.diag(cov), rtol=1e-8, atol=1e-10)

    def test_covariance_is_the_inverse_of_the_posterior_precision(self):
        """The query covariance S^T S, S = D_t^-1/2 L_t^-1 from L's trailing
        block and the pivots, equals the dense inverse of the posterior
        precision Q + sum_i e_i e_i^T / noise2 at the queries, repeated and
        unsorted ones too, to 1e-12, and is exactly symmetric."""
        rng = np.random.default_rng(86)
        q_prior = self._two_components(rng)
        train = np.array([1, 5, 5, 13, 17])
        y = rng.standard_normal(5)
        query = np.array([9, 3, 9, 14, 3, 0, 18])
        dense = q_prior.toarray() + np.diag(np.bincount(train, minlength=20) / 0.05)
        cov = np.linalg.inv(dense)[np.ix_(query, query)]
        out = gmrf_posterior(q_prior, 0.05, train, y, query)
        assert_array_equal(out.covariance, out.covariance.T)
        assert_allclose(out.covariance, cov, rtol=1e-12, atol=1e-12 * np.abs(cov).max())
        assert_array_equal(out.variance, np.diag(out.covariance))
        mean = np.linalg.solve(dense, np.bincount(train, weights=y / 0.05, minlength=20))
        assert_allclose(out.mean, mean[query], rtol=1e-12, atol=1e-12 * np.abs(mean).max())

    def test_one_factorization_and_one_vector_solve(self, monkeypatch):
        """The covariance comes from the factor itself: the only solve is the
        mean's, with a 1-d right-hand side."""
        factors, solves = [], []

        class Counted:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, b):
                solves.append(np.shape(b))
                return self._lu.solve(b)

            def __getattr__(self, name):
                return getattr(self._lu, name)

        real = spectral.splu

        def counted_splu(*args, **kwargs):
            factors.append(1)
            return Counted(real(*args, **kwargs))

        monkeypatch.setattr(spectral, "splu", counted_splu)
        rng = np.random.default_rng(85)
        q_prior = self._two_components(rng)
        gmrf_posterior(q_prior, 0.1, np.array([0, 4, 12]), rng.standard_normal(3),
                       np.arange(0, 20, 3))
        assert len(factors) == 1
        assert solves == [(20,)]

    def test_dual_to_spectral_posterior(self):
        rng = np.random.default_rng(81)
        g = random_connected_graph(rng, 14)
        op = build_laplacian(g, "unnormalized")
        basis = eigendecompose_full(op)
        spec = KernelSpec(
            family="matern", nu=2.0, kappa=1.8, normalize_variance=False
        )
        train = np.array([0, 3, 7, 11])
        y = rng.standard_normal(4)
        model = GPRegressionModel(spec, basis, train, y, noise2=0.08)
        spectral = posterior(model, np.arange(14))
        q_prior = matern_precision_sparse(op, 2, kappa=1.8)
        sparse = gmrf_posterior(q_prior, 0.08, train, y)
        assert_allclose(sparse.mean, spectral.mean, atol=1e-8)
        assert_allclose(sparse.covariance, spectral.covariance, atol=1e-8)

    def test_repeated_observations_accumulate(self):
        rng = np.random.default_rng(82)
        g = random_connected_graph(rng, 10)
        op = build_laplacian(g, "unnormalized")
        q_prior = matern_precision_sparse(op, 1, kappa=1.0)
        # two observations of node 3 behave like one with half the noise
        twice = gmrf_posterior(
            q_prior, 0.2, np.array([3, 3]), np.array([1.0, 1.0]), np.array([3])
        )
        once = gmrf_posterior(q_prior, 0.1, np.array([3]), np.array([1.0]), np.array([3]))
        assert_allclose(twice.mean, once.mean, atol=1e-10)
        assert_allclose(twice.covariance, once.covariance, atol=1e-10)

    def test_validation(self):
        rng = np.random.default_rng(83)
        g = random_connected_graph(rng, 6)
        q_prior = matern_precision_sparse(build_laplacian(g, "unnormalized"), 1, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            gmrf_posterior(q_prior, 0.1, np.array([9]), np.array([1.0]))
        with pytest.raises(ValueError, match="noise2"):
            gmrf_posterior(q_prior, 0.0, np.array([1]), np.array([1.0]))

    def test_non_symmetric_precision_rejected(self):
        q_prior = sp.diags_array([2.0 * np.ones(4), 0.9 * np.ones(3)], offsets=[0, 1])
        with pytest.raises(ValueError, match="symmetric"):
            gmrf_posterior(q_prior, 0.1, np.array([1]), np.array([1.0]), np.arange(4))

    def test_indefinite_precision_fails_by_name(self):
        # with query nodes eliminated last, and with none (the one-call factor)
        q_prior = sp.diags_array([1.0, -2.0, 3.0, 1.0])
        for query in (np.arange(4), np.arange(0)):
            with pytest.raises(scipy.linalg.LinAlgError, match="not positive definite"):
                gmrf_posterior(q_prior, 0.1, np.array([0]), np.array([1.0]), query)

    def test_singular_precision_fails_by_name(self):
        q_prior = sp.csr_array((5, 5))
        with pytest.raises(scipy.linalg.LinAlgError, match="factorization failed"):
            gmrf_posterior(q_prior, 0.1, np.array([1]), np.array([1.0]))
        with pytest.raises(scipy.linalg.LinAlgError, match="factorization failed"):
            _factor_spd(q_prior, "posterior precision")

    def test_minimum_degree_fill_below_colamd(self):
        op = build_laplacian(lattice_graph(40, diagonals=True), "unnormalized")
        obs = np.arange(0, op.node_count, 7)
        q_post = sp.csc_array(
            matern_precision_sparse(op, 2, kappa=10.0)
            + sp.diags_array(np.bincount(obs, minlength=op.node_count) / 0.01)
        )
        ours, _ = _factor_spd(q_post, "posterior precision")
        colamd = splu(q_post, permc_spec="COLAMD")
        assert ours.L.nnz + ours.U.nnz < colamd.L.nnz + colamd.U.nnz

    def test_zero_diagonal_pivot_fails_by_name(self):
        swap = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for last in ((), [1]):
            with pytest.raises(scipy.linalg.LinAlgError, match="not positive definite"):
                _factor_spd(swap, "posterior precision", last=last)

    def test_dense_query_over_limit_fails_by_name(self):
        op = build_laplacian(path_graph(20000), "unnormalized")
        q_prior = matern_precision_sparse(op, 1, kappa=1.0)
        train, y = np.array([0, 5]), np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="dense 20000 x 20000 query covariance"):
            gmrf_posterior(q_prior, 0.1, train, y)
        out = gmrf_posterior(q_prior, 0.1, train, y, np.arange(3))
        assert out.covariance.shape == (3, 3)

    def test_duplicate_heavy_query_refused_by_its_output(self):
        # one distinct node, but a 12000 x 12000 output
        q_prior = matern_precision_sparse(
            build_laplacian(path_graph(50), "unnormalized"), 1, kappa=1.0
        )
        with pytest.raises(ValueError, match="dense 12000 x 12000 query covariance"):
            gmrf_posterior(q_prior, 0.1, np.array([0]), np.array([1.0]),
                           np.full(12000, 7))

    def test_distinct_queries_over_dense_size_limit_refused(self):
        op = build_laplacian(path_graph(20000), "unnormalized")
        q_prior = matern_precision_sparse(op, 1, kappa=1.0)
        with pytest.raises(ValueError, match="dense 4097 x 4097 block of distinct"):
            gmrf_posterior(q_prior, 0.1, np.array([0]), np.array([1.0]),
                           np.arange(4097))

    def test_long_path_with_many_queries_runs(self):
        # n * |query| = 1.4e8 is past 2**27, but the output is 1000 x 1000
        op = build_laplacian(path_graph(140000), "unnormalized")
        q_prior = matern_precision_sparse(op, 1, kappa=1.0)
        train, y = np.array([0, 70000, 139999]), np.array([1.0, -1.0, 0.5])
        query = np.arange(0, 140000, 140)
        out = gmrf_posterior(q_prior, 0.1, train, y, query)
        assert out.covariance.shape == (1000, 1000)
        one = gmrf_posterior(q_prior, 0.1, train, y, query[500:501])
        assert_allclose(out.mean[500], one.mean[0], rtol=1e-10)
        assert_allclose(out.variance[500], one.variance[0], rtol=1e-10)


class TestSnapshotAndCsv:
    def test_roundtrip(self, tmp_path):
        _, model = _problem(90)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path, model.basis)
        assert again.spec == model.spec
        assert again.noise2 == model.noise2
        assert_array_equal(again.train_nodes, model.train_nodes)
        assert_array_equal(again.targets, model.targets)
        a = posterior(model, np.array([0, 1]))
        b = posterior(again, np.array([0, 1]))
        assert_allclose(a.mean, b.mean, atol=1e-15)

    def test_load_errors(self, tmp_path):
        _, model = _problem(91)
        path = tmp_path / "model.json"
        save_model(model, path)
        part = leading_pairs(model.basis, 5)
        with pytest.raises(ValueError, match="eigenpairs"):
            load_model(path, part)
        payload = path.read_text().replace('"schema_version": 1', '"schema_version": 2')
        path.write_text(payload)
        with pytest.raises(ValueError, match="schema"):
            load_model(path, model.basis)

    @pytest.mark.parametrize("field, value, message", [
        ("train_nodes", None, "lacks field 'train_nodes'"),
        ("eigenpairs", None, "lacks field 'eigenpairs'"),
        ("noise2", "x", "field 'noise2' in .* is not a JSON number$"),
        ("noise2", True, "field 'noise2' in .* is not a JSON number$"),
        ("targets", [1.0, "2"], "field 'targets' in .* is not a JSON number array$"),
        ("train_nodes", [0.0], "field 'train_nodes' in .* is not a JSON integer array$"),
        ("train_nodes", [0, 10**30], f"^node index {10**30} is not an int64 integer$"),
        ("eigenpairs", 0, "'eigenpairs' is 0, not positive"),
        ("kernel", {"family": "matern", "nu": "abc", "kappa": 1.0}, "nu must be a number"),
        pytest.param("noise2", 10**400, "field 'noise2' in .* is not a JSON number$",
                     id="noise2-1e400"),
        pytest.param("targets", [10**400], "field 'targets' in .* is not a JSON number array$",
                     id="targets-1e400"),
        pytest.param("kernel", {"family": "matern", "nu": 1.5, "kappa": 1.0, "sigma2": 10**400},
                     "^sigma2 must be positive and finite, got 1", id="kernel-sigma2-1e400"),
    ])
    def test_load_refuses_fields_by_name(self, tmp_path, field, value, message):
        _, model = _problem(92)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_model(path, model.basis)

    def test_read_targets_csv(self, tmp_path):
        path = tmp_path / "y.csv"
        for text in ("node,value\n3,0.5\n1,-2.0\n", "\nnode_index,value\n3,0.5\n1,-2.0\n",
                     "\ufeffnode_index,value\n3,0.5\n1,-2.0\n", "\ufeff3,0.5\r\n1,-2.0\r\n"):
            path.write_text(text, encoding="utf-8")
            nodes, values = read_targets_csv(path)
            assert_array_equal(nodes, [3, 1])
            assert_allclose(values, [0.5, -2.0])

    def test_read_targets_csv_refuses_a_node_past_int64(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("node,value\n0,1.0\n99999999999999999999,2.0\n")
        with pytest.raises(ValueError, match="^malformed row at line 3$"):
            read_targets_csv(path)

    def test_read_targets_csv_errors(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="node_index,value"):
            read_targets_csv(path)
        path.write_text("1,abc\n0,1.0\n")
        with pytest.raises(ValueError, match="line 1"):
            read_targets_csv(path)
        path.write_text("1a,2.0\n0,1.0\n")
        with pytest.raises(ValueError, match="malformed row at line 1"):
            read_targets_csv(path)
