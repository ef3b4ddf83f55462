"""Kernel specs, spectral weights and their gradients, and kernel matrices."""

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose, assert_array_equal

from graph_matern import (
    KernelSpec,
    apply_spectral_function,
    build_laplacian,
    eigendecompose_full,
    kernel_matrix,
    matern_precision_sparse,
    spectral_weights,
    trainable_params,
)
from graph_matern import kernels
from helpers import (
    PeakMemory,
    dense_laplacian,
    dense_spectral_kernel,
    diffusion_profile,
    leading_pairs,
    matern_profile,
    path_graph,
    random_connected_graph,
    wide_basis,
)

MATERN = KernelSpec(family="matern", nu=1.5, kappa=2.0)
DIFFUSION = KernelSpec(family="diffusion", kappa=1.2, laplacian_kind="sym_normalized")
RANDOM_WALK = KernelSpec(
    family="random_walk", alpha=0.6, p=3, laplacian_kind="sym_normalized"
)
INV_COSINE = KernelSpec(family="inverse_cosine", laplacian_kind="sym_normalized")


def _sym_eigenvalues(rng, n=12):
    g = random_connected_graph(rng, n)
    basis = eigendecompose_full(build_laplacian(g, "sym_normalized"))
    return basis.eigenvalues


class TestKernelSpec:
    def test_matern_requires_nu_and_kappa(self):
        with pytest.raises(ValueError, match="nu"):
            KernelSpec(family="matern", kappa=1.0)
        with pytest.raises(ValueError, match="kappa"):
            KernelSpec(family="matern", nu=1.0)

    def test_unused_parameters_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            KernelSpec(family="matern", nu=1.0, kappa=1.0, alpha=0.5)
        with pytest.raises(ValueError, match="nu"):
            KernelSpec(family="diffusion", kappa=1.0, nu=2.0)
        with pytest.raises(ValueError, match="kappa"):
            KernelSpec(
                family="inverse_cosine", kappa=1.0, laplacian_kind="sym_normalized"
            )

    def test_random_walk_parameter_ranges(self):
        with pytest.raises(ValueError, match="alpha"):
            KernelSpec(
                family="random_walk", alpha=1.0, p=2, laplacian_kind="sym_normalized"
            )
        with pytest.raises(ValueError, match="positive integer"):
            KernelSpec(
                family="random_walk", alpha=0.5, p=2.5, laplacian_kind="sym_normalized"
            )
        with pytest.raises(ValueError, match="positive integer"):
            KernelSpec(
                family="random_walk", alpha=0.5, p=0, laplacian_kind="sym_normalized"
            )
        spec = KernelSpec(
            family="random_walk", alpha=0.5, p=2.0, laplacian_kind="sym_normalized"
        )
        assert spec.p == 2 and isinstance(spec.p, int)

    @pytest.mark.parametrize("p", [np.inf, np.nan, 10**30, 2**63, np.float64(2.0**63)],
                             ids=["inf", "nan", "1e30", "2**63", "float_2**63"])
    def test_random_walk_p_stays_a_positive_int64_integer(self, p):
        """p = inf or nan used to escape as an OverflowError or numpy's own
        message, and 10**30 reached ``np.power``."""
        with pytest.raises(ValueError, match="^p must be a positive integer, got "):
            RANDOM_WALK.with_params(p=p)
        assert RANDOM_WALK.with_params(p=2**63 - 1).p == 2**63 - 1

    def test_checks_fire_in_field_order(self):
        """Shape parameters are checked in field order (nu, kappa, alpha, p),
        then the laplacian a family needs, then the unused parameters."""
        for kwargs, message in [
            (dict(family="matern"), "^nu must be positive"),
            (dict(family="matern", nu=1.0, alpha=2.0), "^kappa must be positive"),
            (dict(family="random_walk", p=0), r"^alpha must lie in \[0, 1\)"),
            (dict(family="random_walk", alpha=0.5, p=0), "^p must be a positive integer"),
            (dict(family="random_walk", alpha=0.5, p=1, nu=1.0), "^random_walk kernel requires"),
            (dict(family="diffusion", kappa=1.0, p=2, nu=1.0), "^diffusion kernel does not take "
                                                              "parameter 'nu'"),
        ]:
            with pytest.raises(ValueError, match=message):
                KernelSpec(**kwargs)

    def test_step_families_need_sym_normalized(self):
        with pytest.raises(ValueError, match="sym_normalized"):
            KernelSpec(family="random_walk", alpha=0.5, p=2)
        with pytest.raises(ValueError, match="sym_normalized"):
            KernelSpec(family="inverse_cosine")

    def test_sigma2_and_family_and_kind_validation(self):
        with pytest.raises(ValueError, match="sigma2"):
            KernelSpec(family="matern", nu=1.0, kappa=1.0, sigma2=-1.0)
        with pytest.raises(ValueError, match="unknown kernel family"):
            KernelSpec(family="gaussian", nu=1.0, kappa=1.0)
        with pytest.raises(ValueError, match="unknown laplacian kind"):
            KernelSpec(family="matern", nu=1.0, kappa=1.0, laplacian_kind="rw")

    def test_dict_roundtrip(self):
        for spec in (MATERN, DIFFUSION, RANDOM_WALK, INV_COSINE):
            again = KernelSpec.from_dict(spec.to_dict())
            assert again == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown kernel spec fields"):
            KernelSpec.from_dict({"family": "matern", "nu": 1, "kappa": 1, "tau": 2})
        with pytest.raises(ValueError, match="missing 'family'"):
            KernelSpec.from_dict({"nu": 1.0})

    @pytest.mark.parametrize("obj", [1, None, [1], "matern"])
    def test_from_dict_refuses_a_non_object(self, obj):
        with pytest.raises(ValueError, match=r"^kernel spec must be a JSON object, got "):
            KernelSpec.from_dict(obj)

    @pytest.mark.parametrize("value", ["abc", "1.5", [1.0], {"v": 1}, True])
    @pytest.mark.parametrize("field, base", [
        ("nu", MATERN), ("kappa", MATERN), ("sigma2", MATERN),
        ("alpha", RANDOM_WALK), ("p", RANDOM_WALK),
    ])
    def test_non_numeric_parameter_fails_by_name(self, field, base, value):
        obj = dict(base.to_dict(), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
            KernelSpec.from_dict(obj)
        with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
            base.with_params(**{field: value})

    @pytest.mark.parametrize("field", ["nu", "kappa", "sigma2"])
    def test_integer_past_float64_fails_by_name(self, field):
        """An integer past float64's range is refused by name; one past
        uint64's that float64 holds is a number like any other."""
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got 1"):
            MATERN.with_params(**{field: 10**400})
        assert getattr(MATERN.with_params(**{field: 2**64}), field) == 2**64

    def test_numpy_scalars_are_numbers(self):
        spec = KernelSpec(family="matern", nu=np.float64(1.5), kappa=np.int64(2))
        assert spec == MATERN

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_from_dict_normalize_takes_only_a_json_boolean(self, value):
        obj = dict(MATERN.to_dict(), normalize=value)
        with pytest.raises(ValueError, match="normalize must be true or false"):
            KernelSpec.from_dict(obj)
        obj["normalize"] = False
        assert KernelSpec.from_dict(obj).normalize_variance is False
        del obj["normalize"]
        assert KernelSpec.from_dict(obj).normalize_variance is True

    def test_with_params(self):
        spec = MATERN.with_params(kappa=5.0)
        assert spec.kappa == 5.0 and spec.nu == MATERN.nu

    def test_trainable_params(self):
        assert trainable_params(MATERN) == ("kappa", "nu", "sigma2")
        assert trainable_params(DIFFUSION) == ("kappa", "sigma2")
        assert trainable_params(RANDOM_WALK) == ("alpha", "sigma2")
        assert trainable_params(INV_COSINE) == ("sigma2",)


class TestSpectralWeights:
    def test_logsumexp_is_bit_identical_to_scipy(self):
        rng = np.random.default_rng(80)
        vectors = [rng.normal(0.0, scale, size=size)
                   for scale in (1e-3, 1.0, 50.0, 700.0) for size in (2, 17, 500)]
        for size in (3, 40, 501):
            tied = rng.standard_normal(size)
            tied[rng.choice(size, size=3, replace=False)] = tied.max() + 0.5
            vectors.append(tied)
        vectors += [np.array([-3.25]), np.array([0.0]), np.full(6, 2.0)]
        for a in vectors:
            ours, ref = kernels._logsumexp(a), scipy.special.logsumexp(a)
            assert np.float64(ours).tobytes() == np.float64(ref).tobytes(), (a.size, ours, ref)

    def test_weights_that_sum_to_zero_are_refused_by_name(self):
        """Every mode clamped to zero leaves no variance to normalize: the
        random walk base 1 - (1 - alpha) lambda is -1 at alpha = 0 and
        lambda = 2."""
        spec = RANDOM_WALK.with_params(alpha=0.0, p=1)
        with pytest.warns(UserWarning, match="clamped to zero"), \
                pytest.raises(ValueError, match="spectral weights sum to zero"):
            spectral_weights(spec, np.full(4, 2.0))

    def test_normalized_weights_sum_to_sigma2_times_n(self):
        rng = np.random.default_rng(81)
        lam = np.sort(rng.uniform(0, 4, size=15))
        for spec in (MATERN.with_params(sigma2=2.5), DIFFUSION.with_params(sigma2=0.7)):
            d, _ = spectral_weights(spec, lam)
            assert_allclose(d.sum(), spec.sigma2 * 15, rtol=1e-12)
            d2, _ = spectral_weights(spec, lam, total_dim=40)
            assert_allclose(d2.sum(), spec.sigma2 * 40, rtol=1e-12)

    def test_unnormalized_weights_equal_scaled_profile(self):
        lam = np.linspace(0.0, 3.0, 9)
        spec = MATERN.with_params(sigma2=1.7, normalize_variance=False)
        d, _ = spectral_weights(spec, lam)
        assert_allclose(d, 1.7 * matern_profile(1.5, 2.0)(lam), rtol=1e-12)
        spec_d = DIFFUSION.with_params(normalize_variance=False)
        d, _ = spectral_weights(spec_d, lam)
        assert_allclose(d, diffusion_profile(1.2)(lam), rtol=1e-12)

    def test_extreme_smoothness_stays_finite(self):
        # nu ~ 1e4 underflows the raw profile; the log-space path must survive
        lam = np.linspace(0.0, 8.0, 30)
        spec = KernelSpec(family="matern", nu=1e4, kappa=1.0)
        d, grads = spectral_weights(spec, lam)
        assert np.all(np.isfinite(d)) and d.max() > 0
        assert_allclose(d.sum(), 30.0, rtol=1e-10)
        for g in grads.values():
            assert np.all(np.isfinite(g))

    def _fd_check(self, spec, lam, name, value, rel=3e-5):
        h = 1e-6 * max(abs(value), 1.0)
        d_plus, _ = spectral_weights(spec.with_params(**{name: value + h}), lam)
        d_minus, _ = spectral_weights(spec.with_params(**{name: value - h}), lam)
        fd = (d_plus - d_minus) / (2 * h)
        _, grads = spectral_weights(spec, lam)
        scale = np.max(np.abs(fd)) + 1e-12
        assert np.max(np.abs(grads[name] - fd)) / scale < rel, name

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(82)
        lam = np.sort(rng.uniform(0, 2, size=11))
        for normalize in (True, False):
            m = MATERN.with_params(sigma2=1.3, normalize_variance=normalize)
            self._fd_check(m, lam, "kappa", m.kappa)
            self._fd_check(m, lam, "nu", m.nu)
            self._fd_check(m, lam, "sigma2", m.sigma2)
            df = DIFFUSION.with_params(normalize_variance=normalize)
            self._fd_check(df, lam, "kappa", df.kappa)
            self._fd_check(df, lam, "sigma2", df.sigma2)
            rw = RANDOM_WALK.with_params(normalize_variance=normalize)
            self._fd_check(rw, lam, "alpha", rw.alpha)
            self._fd_check(rw, lam, "sigma2", rw.sigma2)
            ic = INV_COSINE.with_params(normalize_variance=normalize)
            self._fd_check(ic, lam, "sigma2", ic.sigma2)

    def test_random_walk_negative_base_clamped_with_warning(self):
        lam = np.array([0.0, 2.0])  # sym-normalized spectrum of a single edge
        spec = KernelSpec(
            family="random_walk", alpha=0.1, p=3, laplacian_kind="sym_normalized"
        )
        with pytest.warns(UserWarning, match="clamped"):
            d, grads = spectral_weights(spec, lam)
        assert np.all(d >= 0)
        assert d[1] == 0.0
        assert grads["alpha"][1] == 0.0

    def test_inverse_cosine_weights_match_profile(self):
        lam = np.linspace(0.0, 2.0, 9)
        spec = INV_COSINE.with_params(normalize_variance=False)
        d, _ = spectral_weights(spec, lam)
        assert_allclose(d, np.cos(np.pi * lam / 4.0), atol=1e-12)
        assert np.all(d >= 0)


class TestKernelMatrix:
    def _cases(self):
        yield MATERN, "unnormalized"
        yield MATERN.with_params(laplacian_kind="sym_normalized"), "sym_normalized"
        yield DIFFUSION.with_params(laplacian_kind="unnormalized"), "unnormalized"
        yield DIFFUSION, "sym_normalized"
        yield RANDOM_WALK, "sym_normalized"
        yield INV_COSINE, "sym_normalized"

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(91)
        g = random_connected_graph(rng, 14)
        profiles = {
            "matern": matern_profile(1.5, 2.0),
            "diffusion": diffusion_profile(1.2),
            "random_walk": lambda lam: np.maximum(1.0 - 0.4 * lam, 0.0) ** 3,
            "inverse_cosine": lambda lam: np.maximum(np.cos(np.pi * lam / 4.0), 0.0),
        }
        for spec, kind in self._cases():
            basis = eigendecompose_full(build_laplacian(g, kind))
            oracle = dense_spectral_kernel(
                dense_laplacian(g, kind), profiles[spec.family]
            )
            assert_allclose(kernel_matrix(basis, spec), oracle, atol=1e-10)

    def test_positive_semidefinite_and_symmetric(self):
        rng = np.random.default_rng(92)
        for trial in range(6):
            g = random_connected_graph(rng, int(rng.integers(6, 20)))
            for spec, kind in self._cases():
                basis = eigendecompose_full(build_laplacian(g, kind))
                k = kernel_matrix(basis, spec)
                assert_array_equal(k, k.T)
                vals = np.linalg.eigvalsh(k)
                assert vals.min() >= -1e-8 * max(vals.max(), 1.0)

    def test_normalized_trace_equals_sigma2_per_node(self):
        rng = np.random.default_rng(93)
        g = random_connected_graph(rng, 13)
        basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
        k = kernel_matrix(basis, MATERN.with_params(sigma2=2.2))
        assert_allclose(np.trace(k) / 13, 2.2, rtol=1e-12)

    def test_blocks_match_full_matrix(self):
        rng = np.random.default_rng(94)
        g = random_connected_graph(rng, 12)
        basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
        full = kernel_matrix(basis, MATERN)
        rows = np.array([3, 0, 7])
        cols = np.array([1, 1, 5, 9])
        block = kernel_matrix(basis, MATERN, rows=rows, cols=cols)
        assert_allclose(block, full[np.ix_(rows, cols)], atol=1e-12)
        square = kernel_matrix(basis, MATERN, rows=rows, cols=rows)
        assert_array_equal(square, square.T)

    def test_truncated_basis_gives_low_rank_kernel(self):
        rng = np.random.default_rng(95)
        g = random_connected_graph(rng, 15)
        basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
        part = leading_pairs(basis, 5)
        k = kernel_matrix(part, MATERN)
        assert np.linalg.matrix_rank(k, tol=1e-10) <= 5
        u = part.eigenvectors
        d, _ = spectral_weights(MATERN, part.eigenvalues, total_dim=15)
        assert_allclose(k, (u * d) @ u.T, atol=1e-12)

    def test_laplacian_kind_mismatch_rejected(self):
        rng = np.random.default_rng(96)
        g = random_connected_graph(rng, 8)
        basis = eigendecompose_full(build_laplacian(g, "unnormalized"))
        with pytest.raises(ValueError, match="sym_normalized"):
            kernel_matrix(basis, DIFFUSION)

    def test_over_budget_block_refused_before_any_product(self):
        """The full kernel of a 12000-node basis would be 1.15 GB; it is
        refused by its shape while a block of a few rows still runs."""
        basis = wide_basis()
        with PeakMemory() as mem:
            with pytest.raises(ValueError, match="kernel_matrix would return a dense "
                               "12000 x 12000 kernel block, over the 134217728-element"):
                kernel_matrix(basis, MATERN)
        assert mem.peak < 16 * 2**20
        assert kernel_matrix(basis, MATERN, rows=np.arange(5)).shape == (5, 12000)
        assert kernel_matrix(basis, MATERN, np.arange(5), np.arange(7)).shape == (5, 7)

    def test_bad_selection_rejected(self):
        basis = eigendecompose_full(build_laplacian(path_graph(5), "unnormalized"))
        with pytest.raises(ValueError, match="out of range"):
            kernel_matrix(basis, MATERN, rows=np.array([0, 5]))
        with pytest.raises(ValueError, match="1-d"):
            kernel_matrix(basis, MATERN, rows=np.array([[0, 1]]))


class TestMaternPrecision:
    def test_inverse_matches_unnormalized_kernel(self):
        rng = np.random.default_rng(101)
        g = random_connected_graph(rng, 12)
        op = build_laplacian(g, "unnormalized")
        basis = eigendecompose_full(op)
        for nu in (1, 2, 3, 4):
            q = matern_precision_sparse(op, nu, kappa=1.5)
            spec = KernelSpec(
                family="matern", nu=float(nu), kappa=1.5, normalize_variance=False
            )
            k = kernel_matrix(basis, spec)
            assert_allclose(np.linalg.inv(q.toarray()), k, rtol=1e-8, atol=1e-10)

    def test_stencil_grows_one_hop_per_power(self):
        op = build_laplacian(path_graph(9), "unnormalized")
        q1 = matern_precision_sparse(op, 1, kappa=1.0).toarray()
        q2 = matern_precision_sparse(op, 2, kappa=1.0).toarray()
        idx = np.arange(9)
        dist = np.abs(idx[:, None] - idx[None, :])
        assert np.all(q1[dist > 1] == 0.0)
        assert np.all(q1[dist == 1] != 0.0)
        assert np.all(q2[dist > 2] == 0.0)
        assert np.all(q2[dist == 2] != 0.0)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(102)
        g = random_connected_graph(rng, 10)
        op = build_laplacian(g, "unnormalized")
        q = matern_precision_sparse(op, 3, kappa=2.0).toarray()
        assert_allclose(q, q.T, atol=1e-12)
        assert np.linalg.eigvalsh(q).min() > 0

    def test_non_integer_or_large_nu_rejected(self):
        op = build_laplacian(path_graph(4), "unnormalized")
        for bad in (2.5, 0, 5, -1):
            with pytest.raises(ValueError, match="spectral"):
                matern_precision_sparse(op, bad, kappa=1.0)
        with pytest.raises(ValueError, match="kappa"):
            matern_precision_sparse(op, 2, kappa=0.0)


def _random_walk(basis, alpha, p):
    return kernel_matrix(basis, KernelSpec(
        family="random_walk", alpha=alpha, p=p,
        laplacian_kind="sym_normalized", normalize_variance=False,
    ))


class TestStandaloneKernels:
    """The random-walk and inverse-cosine kernels through ``kernel_matrix``."""

    def test_random_walk_matches_matrix_power(self):
        rng = np.random.default_rng(111)
        g = random_connected_graph(rng, 10)
        op = build_laplacian(g, "sym_normalized")
        basis = eigendecompose_full(op)
        l_sym = op.matrix.toarray()
        for p in (1, 2, 5):
            k = _random_walk(basis, alpha=0.6, p=p)
            oracle = np.linalg.matrix_power(np.eye(10) - 0.4 * l_sym, p)
            assert_allclose(k, oracle, atol=1e-10)

    def test_random_walk_clamp_keeps_psd(self):
        rng = np.random.default_rng(112)
        g = random_connected_graph(rng, 10)
        op = build_laplacian(g, "sym_normalized")
        l_sym = op.matrix.toarray()
        lam_max = np.linalg.eigvalsh(l_sym).max()
        assert lam_max > 1.0  # ensures the base goes negative at alpha ~ 0
        with pytest.warns(UserWarning, match="clamped"):
            k = _random_walk(eigendecompose_full(op), alpha=0.01, p=3)
        vals = np.linalg.eigvalsh(k)
        assert vals.min() >= -1e-10 * max(vals.max(), 1.0)
        raw = np.linalg.matrix_power(np.eye(10) - 0.99 * l_sym, 3)
        assert np.linalg.eigvalsh(raw).min() < -1e-6  # oracle really is indefinite

    def test_random_walk_accepts_basis_source(self):
        rng = np.random.default_rng(113)
        g = random_connected_graph(rng, 8)
        basis = eigendecompose_full(build_laplacian(g, "sym_normalized"))
        assert_allclose(
            _random_walk(basis, alpha=0.7, p=2),
            apply_spectral_function(basis, lambda lam: (1.0 - 0.3 * lam) ** 2),
            atol=1e-12,
        )

    def test_inverse_cosine_matches_oracle_and_psd(self):
        rng = np.random.default_rng(114)
        g = random_connected_graph(rng, 11)
        op = build_laplacian(g, "sym_normalized")
        k = kernel_matrix(eigendecompose_full(op), INV_COSINE.with_params(
            normalize_variance=False
        ))
        oracle = dense_spectral_kernel(
            op.matrix.toarray(),
            lambda lam: np.maximum(np.cos(np.pi * lam / 4.0), 0.0),
            normalize=False,
        )
        assert_allclose(k, oracle, atol=1e-10)
        assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_standalone_kernels_reject_wrong_kind_basis(self):
        basis = eigendecompose_full(build_laplacian(path_graph(5), "unnormalized"))
        with pytest.raises(ValueError, match="sym_normalized"):
            kernel_matrix(basis, INV_COSINE)
        with pytest.raises(ValueError, match="sym_normalized"):
            _random_walk(basis, alpha=0.5, p=2)
