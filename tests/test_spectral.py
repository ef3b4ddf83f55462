"""Eigendecomposition, functional calculus, heat flow and the basis cache."""

import dataclasses
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse.linalg import ArpackNoConvergence

from graph_matern import (
    CACHE_ENV_VAR,
    EigensolverError,
    SpectralBasis,
    WeightedGraph,
    apply_spectral_function,
    build_laplacian,
    cached_eigendecomposition,
    eigendecompose_full,
    eigendecompose_truncated,
    heat_propagate,
    laplacian_hash,
    load_basis,
    save_basis,
    spectral,
)
from graph_matern.spectral import (
    DENSE_SIZE_LIMIT,
    _canonical_signs,
    _factor_spd,
    _finalize,
    _gershgorin,
    _residual_norms,
)
from graph_matern.graphs import DENSE_ELEMENT_LIMIT
from helpers import (
    PeakMemory,
    complete_graph,
    dense_laplacian,
    dense_lowest_oracle,
    lattice_graph,
    leading_pairs,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
    wide_basis,
)


def _basis(graph, kind="unnormalized"):
    return eigendecompose_full(build_laplacian(graph, kind))


def _assert_lowest_pairs(op, basis, values, vectors):
    """``basis`` holds the pairs ``(values, vectors)`` of a dense solve: the
    same values to 1e-12, residuals and orthonormality to 1e-12, and the
    same subspace to 1e-10 radians."""
    k = values.size
    assert basis.n_retained == k
    assert_allclose(basis.eigenvalues, values, rtol=0, atol=1e-12)
    u = basis.eigenvectors
    residuals = np.linalg.norm(op.matrix @ u - u * basis.eigenvalues, axis=0)
    assert residuals.max() <= 1e-12
    assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12
    assert np.max(scipy.linalg.subspace_angles(u, vectors)) <= 1e-10


def _dense_pairs(op, k):
    return scipy.linalg.eigh(op.matrix.toarray(), subset_by_index=[0, k - 1])


def _disjoint(*graphs):
    """The union of ``graphs`` on consecutive node ranges, with no edge between them."""
    offsets = np.cumsum([0] + [g.node_count for g in graphs])
    edges = np.vstack([np.column_stack([g.u + off, g.v + off, g.w])
                       for g, off in zip(graphs, offsets)])
    return WeightedGraph.from_edges(edges, node_count=int(offsets[-1]))


def _lanczos(op, n_pairs):
    """``eigendecompose_truncated`` with its rule patched to pick Lanczos,
    which it picks itself only past ``DENSE_SIZE_LIMIT`` nodes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_eigensolver", lambda operator, n_pairs: "lanczos")
        return eigendecompose_truncated(op, n_pairs)


class TestFullDecomposition:
    def test_path4_closed_form_spectrum(self):
        # unnormalized path Laplacian has eigenvalues 2 - 2 cos(k pi / n)
        basis = _basis(path_graph(4))
        expected = 2.0 - 2.0 * np.cos(np.arange(4) * np.pi / 4)
        assert_allclose(basis.eigenvalues, np.sort(expected), atol=1e-12)

    def test_complete_graph_spectrum(self):
        for n in (3, 5, 8):
            basis = _basis(complete_graph(n))
            expected = np.r_[0.0, np.full(n - 1, float(n))]
            assert_allclose(basis.eigenvalues, expected, atol=1e-10)

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(4, 30)))
            for kind in ("unnormalized", "sym_normalized"):
                op = build_laplacian(g, kind)
                basis = eigendecompose_full(op)
                u = basis.eigenvectors
                assert_allclose(u.T @ u, np.eye(g.node_count), atol=1e-8)
                rebuilt = (u * basis.eigenvalues) @ u.T
                assert_allclose(rebuilt, op.matrix.toarray(), atol=1e-8)

    def test_eigenvalues_sorted_and_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            basis = _basis(random_graph(rng, 12))
            assert np.all(np.diff(basis.eigenvalues) >= 0)
            assert basis.eigenvalues[0] >= 0.0

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(23)
        g = random_connected_graph(rng, 17)
        op = build_laplacian(g, "unnormalized")
        b1 = eigendecompose_full(op)
        b2 = eigendecompose_full(op)
        assert_array_equal(b1.eigenvectors, b2.eigenvectors)
        for j in range(b1.n_retained):
            col = b1.eigenvectors[:, j]
            lead = np.argmax(np.abs(col) > 1e-8 * np.max(np.abs(col)))
            assert col[lead] > 0

    def test_size_guard(self):
        op = build_laplacian(path_graph(DENSE_SIZE_LIMIT + 1), "unnormalized")
        with pytest.raises(ValueError, match=f"{DENSE_SIZE_LIMIT + 1} exceeds dense limit"):
            eigendecompose_full(op)

    def test_metadata(self):
        basis = _basis(path_graph(6), "sym_normalized")
        assert basis.total_dim == 6
        assert basis.n_retained == 6
        assert basis.n_retained == basis.total_dim
        assert basis.laplacian_kind == "sym_normalized"
        with pytest.raises(ValueError):
            basis.eigenvalues[0] = 5.0


def _loop_signs(vectors):
    """Reference sign rule, one column at a time."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        peak = np.max(np.abs(col))
        if peak == 0.0:
            continue
        lead = np.argmax(np.abs(col) > 1e-8 * peak)
        if col[lead] < 0:
            np.negative(col, out=col)


class TestCanonicalSigns:
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_matches_the_column_loop_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        vectors = np.asfortranarray(rng.standard_normal((n, 9)))
        vectors[:, 0] = 0.0                  # zero column: left as it is
        vectors[0, 1] = -0.0                 # signed zero in row 0 of a positive column
        if n > 1:
            vectors[0, 2] = -1e-9 * np.abs(vectors[1:, 2]).max()  # negligible lead...
            vectors[1, 2] = -abs(vectors[1, 2])                  # ...so row 1 decides
            vectors[:, 3] = np.abs(vectors[:, 3])
            vectors[0, 3] = 1e-8 * vectors[1:, 3].max()          # at the threshold
            vectors[1, 3] = -vectors[1, 3]
            vectors[:-1, 4] = 0.0            # only the last entry is non-zero
            vectors[-1, 4] = -2.0
        vectors[0, 5] = -abs(vectors[0, 5])  # negative lead: flipped
        vectors[0, 6] = abs(vectors[0, 6])   # positive lead: kept
        expected = vectors.copy(order="F")
        _loop_signs(expected)
        _canonical_signs(vectors)
        assert_array_equal(vectors.view(np.int64), expected.view(np.int64))
        assert vectors[0, 5] > 0 and vectors[0, 6] > 0
        if n > 1:
            assert vectors[1, 2] > 0 and vectors[1, 3] > 0 and vectors[-1, 4] > 0


class TestTruncatedDecomposition:
    def test_matches_dense_on_lowest_pairs(self):
        rng = np.random.default_rng(31)
        g = random_connected_graph(rng, 60, extra=0.05)
        for kind in ("unnormalized", "sym_normalized"):
            op = build_laplacian(g, kind)
            dense = eigendecompose_full(op)
            part = _lanczos(op, 10)
            assert part.n_retained == 10
            assert part.n_retained != part.total_dim
            assert_allclose(
                part.eigenvalues,
                dense.eigenvalues[:10],
                rtol=1e-6,
                atol=1e-8,
            )
            angles = scipy.linalg.subspace_angles(
                part.eigenvectors, dense.eigenvectors[:, :10]
            )
            assert np.max(angles) <= 1e-4

    def test_dense_subset_matches_full_then_truncated(self):
        rng = np.random.default_rng(33)
        cases = [
            # at most DENSE_SIZE_LIMIT nodes, so dense through the cache and
            # through eigendecompose_truncated alike
            (random_connected_graph(rng, 120, extra=0.05), 30,
             lambda op, k: cached_eigendecomposition(op, k)[0]),
            (random_connected_graph(rng, 7), 3, eigendecompose_truncated),
        ]
        for g, k, solve in cases:
            for kind in ("unnormalized", "sym_normalized"):
                op = build_laplacian(g, kind)
                reference = leading_pairs(eigendecompose_full(op), k)
                _assert_lowest_pairs(op, solve(op, k), reference.eigenvalues,
                                     reference.eigenvectors)
                # a full request keeps the plain full solve, bit for bit
                n = g.node_count
                full = eigendecompose_full(op)
                for other in (eigendecompose_truncated(op, n),
                              cached_eigendecomposition(op, n)[0]):
                    assert_array_equal(other.eigenvalues, full.eigenvalues)
                    assert_array_equal(other.eigenvectors, full.eigenvectors)

    def test_shift_lies_between_zero_and_the_second_eigenvalue(self, monkeypatch):
        """On a 40 x 40 lattice, lambda_2 lies below 1e-3 of the Gershgorin
        bound, where the shift used to sit. The shift now sits closer to 0
        than lambda_2, and the pairs match a dense solve."""
        shifts = []
        real = spectral.eigsh

        def recording(*args, **kwargs):
            shifts.append(kwargs["sigma"])
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigsh", recording)
        for kind in ("unnormalized", "sym_normalized"):
            op = build_laplacian(lattice_graph(40), kind)
            values, vectors = _dense_pairs(op, 8)
            assert 1e-3 * max(_gershgorin(op.matrix), 1.0) > values[1]
            basis = _lanczos(op, 8)
            assert len(shifts) == 1
            sigma = shifts.pop()
            assert sigma < 0 and abs(sigma) < values[1]
            _assert_lowest_pairs(op, basis, values, vectors)

    def test_repeated_zero_eigenvalue_of_two_components(self):
        """Two disconnected lattices give eigenvalue 0 twice; the Lanczos
        path finds both and the pairs above them."""
        g = _disjoint(lattice_graph(30), lattice_graph(20))
        for kind in ("unnormalized", "sym_normalized"):
            op = build_laplacian(g, kind)
            values, vectors = _dense_pairs(op, 7)
            assert values[1] < 1e-12 < values[2]
            _assert_lowest_pairs(op, _lanczos(op, 7), values, vectors)

    def test_missed_zero_eigenvalues_are_refused(self, tmp_path):
        """Beside a 65x65 lattice, 300 isolated nodes make eigenvalue 0
        repeat 301 times; ARPACK returns only 7 of the 10 wanted, with tiny
        residuals. Past ``DENSE_SIZE_LIMIT`` nodes the solve is Lanczos, and
        it refuses, so the cache stores nothing."""
        lattice = lattice_graph(65)
        g = WeightedGraph.from_edges(np.column_stack([lattice.u, lattice.v, lattice.w]),
                                     node_count=lattice.node_count + 300)
        assert g.node_count > DENSE_SIZE_LIMIT
        message = ("Lanczos found 7 zero eigenvalues among the 10 lowest pairs, but the "
                   "graph has 301 connected components")
        for kind in ("unnormalized", "sym_normalized"):
            op = build_laplacian(g, kind)
            with pytest.raises(EigensolverError, match=message):
                eigendecompose_truncated(op, 10)
            with pytest.raises(EigensolverError, match=message):
                cached_eigendecomposition(op, 10, cache_dir=tmp_path)
            assert list(tmp_path.iterdir()) == []

    def test_lanczos_factors_once_without_an_ordering_pass(self, monkeypatch):
        """Without ``last``, ``_factor_spd`` is one ``splu`` call that orders
        by minimum degree itself; ``spilu`` never runs."""
        calls = []
        for name in ("splu", "spilu"):
            real = getattr(spectral, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append((_name, kwargs.get("permc_spec")))
                return _real(*args, **kwargs)

            monkeypatch.setattr(spectral, name, counted)
        op = build_laplacian(lattice_graph(12, diagonals=True), "unnormalized")
        shifted = sp.csc_array(op.matrix + 0.1 * sp.eye_array(op.node_count))
        lu, order = _factor_spd(shifted, "shifted laplacian")
        assert calls == [("splu", "MMD_AT_PLUS_A")]
        assert_array_equal(order, np.arange(op.node_count))
        b = np.random.default_rng(36).standard_normal(op.node_count)
        assert_allclose(shifted @ lu.solve(b), b, rtol=0, atol=1e-12)
        calls.clear()
        _lanczos(op, 5)
        assert calls == [("splu", "MMD_AT_PLUS_A")]

    def test_no_convergence_names_converged_pairs(self, monkeypatch):
        op = build_laplacian(lattice_graph(6), "unnormalized")
        full = eigendecompose_full(op)

        def failing(values, vectors):
            def eigsh(*args, **kwargs):
                raise ArpackNoConvergence("no convergence", values, vectors)
            return eigsh

        pairs = (full.eigenvalues[:2], full.eigenvectors[:, :2])
        monkeypatch.setattr(spectral, "eigsh", failing(*pairs))
        with pytest.raises(EigensolverError, match=r"converged 2/5 pairs; residual norms") as err:
            _lanczos(op, 5)
        assert err.value.residual_norms.shape == (2,)
        assert err.value.residual_norms.max() <= 1e-12
        monkeypatch.setattr(spectral, "eigsh", failing(np.empty(0), np.empty((36, 0))))
        with pytest.raises(EigensolverError, match=r"^ARPACK converged 0/5 pairs$") as err:
            _lanczos(op, 5)
        assert err.value.residual_norms is None

    def test_partial_dense_request_solves_only_the_subset(self, monkeypatch):
        """The tridiagonal solver is asked for the wanted index range only;
        from 64 pairs up, in two ranges that meet at the widest gap among
        the values at indices l/2 - 8 .. l/2 + 8."""
        seen = []
        real = spectral._dstemr

        def recording(*args):
            seen.append([args[7], args[8]])
            return real(*args)

        monkeypatch.setattr(spectral, "_dstemr", recording)
        op = build_laplacian(random_connected_graph(np.random.default_rng(34), 40), "unnormalized")
        partial = cached_eigendecomposition(op, 12)[0]
        full = eigendecompose_full(op)
        assert seen == [[1, 12], [1, 40]]
        assert partial.eigenvectors.shape == (40, 12)
        assert_allclose(partial.eigenvalues, full.eigenvalues[:12], rtol=0, atol=1e-12)

        seen.clear()
        op = build_laplacian(random_connected_graph(np.random.default_rng(34), 150),
                             "unnormalized")
        partial = cached_eigendecomposition(op, 100)[0]
        reference = np.linalg.eigvalsh(op.matrix.toarray())
        boundary = 42 + int(np.argmax(np.diff(reference[41:58])))  # pairs 42..58
        assert sorted(seen) == [[1, boundary], [boundary + 1, 100]]
        assert_allclose(partial.eigenvalues, reference[:100], rtol=0, atol=1e-12)

    def test_partial_solve_judges_negatives_against_the_operator_norm(self):
        # One edge of weight 1e10 puts lambda_max near 2e10, and rounding
        # leaves lambda_0 near -1e-6: beyond 1e-8 * lambda_4, the largest
        # value a 5-pair solve sees, but far inside 1e-8 * lambda_max.
        for seed in range(12):
            g = random_connected_graph(np.random.default_rng(seed), 60)
            w = g.w.copy()
            w[0] = 1e10
            heavy = WeightedGraph.from_edges(list(zip(g.u, g.v, w)), node_count=60)
            op = build_laplacian(heavy, "unnormalized")
            basis, _, _ = cached_eigendecomposition(op, 5)
            assert basis.eigenvalues[0] >= 0.0
            reference = eigendecompose_full(op)
            assert_allclose(basis.eigenvalues, reference.eigenvalues[:5], rtol=0, atol=1e-4)
        with pytest.raises(EigensolverError, match="negative beyond tolerance"):
            _finalize(np.array([-1e-3, 0.5]), np.eye(2), "unnormalized", norm_bound=10.0)

    def test_full_request_falls_back_to_dense(self):
        rng = np.random.default_rng(32)
        g = random_connected_graph(rng, 20)
        op = build_laplacian(g, "unnormalized")
        part = eigendecompose_truncated(op, 20)
        dense = eigendecompose_full(op)
        assert_allclose(part.eigenvalues, dense.eigenvalues, atol=1e-12)

    def test_tiny_graph_falls_back_to_dense(self):
        basis = eigendecompose_truncated(build_laplacian(path_graph(5), "unnormalized"), 2)
        assert basis.n_retained == 2
        expected = 2.0 - 2.0 * np.cos(np.arange(5) * np.pi / 5)
        assert_allclose(basis.eigenvalues, np.sort(expected)[:2], atol=1e-10)

    def test_full_request_past_dense_limit_fails_by_name(self, monkeypatch):
        """A full basis past ``DENSE_SIZE_LIMIT`` nodes is refused through
        every entry point, before any n x n array is allocated."""
        n = DENSE_SIZE_LIMIT + 1
        op = build_laplacian(path_graph(n), "unnormalized")

        def dense_solve(*args, **kwargs):
            raise AssertionError("dense eigensolve reached")

        monkeypatch.setattr(scipy.linalg, "eigh", dense_solve)
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        calls = (
            lambda: eigendecompose_truncated(op, n),
            lambda: cached_eigendecomposition(op, n),
            lambda: cached_eigendecomposition(op, 60000),
        )
        for call in calls:
            with PeakMemory() as mem, warnings.catch_warnings():
                warnings.filterwarnings("ignore", "requested 60000", UserWarning)
                with pytest.raises(ValueError, match=f"{n} exceeds dense limit"):
                    call()
            assert mem.peak < n * n * 8 // 100

    def test_lanczos_basis_over_budget_refused_before_the_factorization(self, monkeypatch):
        """ARPACK's n x max(2l + 1, 20) basis past the limit is refused by
        name before the shifted Laplacian is factored; a small request on
        the same graph still runs."""
        op = build_laplacian(path_graph(12000), "unnormalized")
        assert 12000 * (2 * 5600 + 1) > DENSE_ELEMENT_LIMIT

        def refuse(*args, **kwargs):
            raise AssertionError("factorization reached")

        monkeypatch.setattr(spectral, "_factor_spd", refuse)
        with PeakMemory() as mem:
            with pytest.raises(ValueError, match="eigendecompose_truncated would allocate a "
                               "dense 12000 x 11201 Lanczos basis"):
                eigendecompose_truncated(op, 5600)
        assert mem.peak < 16 * 2**20
        monkeypatch.undo()
        assert eigendecompose_truncated(op, 3).n_retained == 3

    def test_out_of_range_request(self):
        op = build_laplacian(path_graph(5), "unnormalized")
        with pytest.raises(ValueError, match="out of range"):
            eigendecompose_truncated(op, 6)
        with pytest.raises(ValueError, match="out of range"):
            eigendecompose_truncated(op, 0)
        for k in (0, -2):
            with pytest.raises(ValueError, match="out of range"):
                cached_eigendecomposition(op, k)


def _assert_accurate_lowest(op, basis, n_pairs):
    """Values within 1e-10 ||L|| of ``eigvalsh``, residuals within
    1e-10 ||L||, and orthonormal columns to 1e-10."""
    reference = np.linalg.eigvalsh(op.matrix.toarray())
    scale = max(1.0, np.abs(reference).max())
    u, lam = basis.eigenvectors, basis.eigenvalues
    assert basis.n_retained == n_pairs and u.shape == (op.node_count, n_pairs)
    assert np.abs(lam - reference[:n_pairs]).max() <= 1e-10 * scale
    assert np.linalg.norm(op.matrix @ u - u * lam, axis=0).max() <= 1e-10 * scale
    assert np.abs(u.T @ u - np.eye(n_pairs)).max() <= 1e-10


class TestDenseLowest:
    """The dense path: MRRR on the wanted index range, with bisection and
    inverse iteration when MRRR fails inside dlarrv."""

    GRAPHS = {
        "lattice_12": lattice_graph(12),
        "lattice_6_diagonals": lattice_graph(6, diagonals=True),
        "complete_30": complete_graph(30),
        "star_30": star_graph(30),
    }

    @pytest.mark.parametrize("kind", ["unnormalized", "sym_normalized"])
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_every_pair_count(self, name, kind):
        """Symmetric graphs repeat eigenvalues, so some index ranges split
        a cluster; every count is accurate whichever solver finishes it."""
        op = build_laplacian(self.GRAPHS[name], kind)
        for n_pairs in range(1, op.node_count + 1):
            _assert_accurate_lowest(op, spectral._dense_lowest(op, n_pairs), n_pairs)

    @pytest.mark.parametrize("n_pairs", [1, 12, 40])
    def test_dlarrv_failure_falls_back_to_inverse_iteration(self, n_pairs, monkeypatch):
        monkeypatch.setattr(spectral, "_dstemr", lambda *args: 22)
        op = build_laplacian(random_connected_graph(np.random.default_rng(35), 40),
                             "unnormalized")
        _assert_accurate_lowest(op, spectral._dense_lowest(op, n_pairs), n_pairs)

    def test_fallback_sorts_pairs_across_split_blocks(self, monkeypatch):
        monkeypatch.setattr(spectral, "_dstemr", lambda *args: 22)
        op = build_laplacian(_disjoint(path_graph(7), complete_graph(5), path_graph(4)),
                             "sym_normalized")
        for n_pairs in (3, 9, 16):
            _assert_accurate_lowest(op, spectral._dense_lowest(op, n_pairs), n_pairs)

    def test_other_failures_raise_by_routine(self, monkeypatch):
        monkeypatch.setattr(spectral, "_dstemr", lambda *args: 13)
        op = build_laplacian(path_graph(10), "unnormalized")
        with pytest.raises(EigensolverError, match=r"^LAPACK dstemr failed with info=13$"):
            spectral._dense_lowest(op, 4)

    def test_binding_refuses_a_signature_it_does_not_pass(self):
        with pytest.raises(ImportError, match="dormtr"):
            spectral._lapack_export("dormtr", "cciiDiDDiDii")


def _torus_graph(side):
    """side x side grid with wrap-around unit edges: every nonzero
    eigenvalue 4 sin^2(pi j / side) + 4 sin^2(pi k / side) repeats."""
    idx = np.arange(side * side).reshape(side, side)
    pairs = [(idx, np.roll(idx, -1, axis=1)), (idx, np.roll(idx, -1, axis=0))]
    rows = [np.column_stack([a.ravel(), b.ravel(), np.ones(a.size)]) for a, b in pairs]
    return WeightedGraph.from_edges(np.vstack(rows), node_count=side * side)


def _tridiagonal(op):
    """The diagonal and off-diagonal that the dense path's ``dsytrd`` gives."""
    lwork, info = scipy.linalg.lapack.dsytrd_lwork(op.node_count, lower=1)
    _, diag, off, _, info = scipy.linalg.lapack.dsytrd(op.matrix.toarray(order="F"), lower=1,
                                                       lwork=int(lwork))
    assert info == 0
    return diag, off


class TestPairChunks:
    """From 64 pairs up, the dense path splits pairs 1..l into two index
    chunks at a wide gap of the spectrum near l / 2; the calling thread and
    one worker thread each solve and back-transform one chunk."""

    GRAPHS = {
        "lattice_12": lattice_graph(12),
        "torus_12": _torus_graph(12),
        "complete_80": complete_graph(80),
    }

    @pytest.mark.parametrize("kind", ["unnormalized", "sym_normalized"])
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_no_boundary_inside_a_cluster(self, name, kind):
        """Each boundary leaves 32 pairs or more on each side and lies at a
        gap wider than 1e-5 of the Gershgorin bound, far above rounding, so
        no cluster of repeated eigenvalues is split; every basis is
        accurate. The lattice and torus split, and the complete graph,
        whose nonzero eigenvalues are all equal, never does."""
        op = build_laplacian(self.GRAPHS[name], kind)
        reference = np.linalg.eigvalsh(op.matrix.toarray())
        bound = _gershgorin(op.matrix)
        diag, off = _tridiagonal(op)
        splits = 0
        for n_pairs in range(64, op.node_count + 1):
            chunks = spectral._pair_chunks(diag, off, n_pairs, bound)
            assert chunks[0][0] == 1 and chunks[-1][1] == n_pairs
            for (_, last), (first, _) in zip(chunks, chunks[1:]):
                assert first == last + 1 and 32 <= last <= n_pairs - 32
                assert reference[last] - reference[last - 1] > 1e-5 * bound
                splits += 1
            _assert_accurate_lowest(op, spectral._dense_lowest(op, n_pairs), n_pairs)
        assert (splits > 0) == (name != "complete_80")

    @pytest.mark.parametrize("n_pairs", [64, 100, 150])
    def test_threaded_chunks_keep_the_bits_of_serial_chunks(self, n_pairs):
        """The caller and the worker thread give the bits that the same
        chunks give run one after the other in the calling thread, on every
        run; the worker runs the upper chunk on a thread of its own."""
        op = build_laplacian(random_connected_graph(np.random.default_rng(351), 150),
                             "sym_normalized")
        assert len(spectral._pair_chunks(*_tridiagonal(op), n_pairs, _gershgorin(op.matrix))) == 2
        oracle = dense_lowest_oracle(op, n_pairs)
        for _ in range(3):
            basis = spectral._dense_lowest(op, n_pairs)
            assert np.array_equal(basis.eigenvalues, oracle.eigenvalues)
            assert np.array_equal(basis.eigenvectors, oracle.eigenvectors)

    @staticmethod
    def _upper_chunk_returns(info, monkeypatch):
        """Patch ``dstemr`` to return ``info`` on the chunk that does not
        start at pair 1, and record which thread ran each chunk."""
        threads = {}
        real = spectral._dstemr

        def patched(*args):
            threads[args[7] == 1] = threading.get_ident()
            return real(*args) if args[7] == 1 else info

        monkeypatch.setattr(spectral, "_dstemr", patched)
        return threads

    def test_worker_chunk_failure_is_raised_in_the_caller(self, monkeypatch):
        op = build_laplacian(lattice_graph(12), "unnormalized")
        threads = self._upper_chunk_returns(13, monkeypatch)
        with pytest.raises(EigensolverError, match=r"^LAPACK dstemr failed with info=13$"):
            spectral._dense_lowest(op, 100)
        assert threads[True] == threading.get_ident() != threads[False]

    def test_dlarrv_failure_falls_back_for_its_chunk_alone(self, monkeypatch):
        """Info 2X in the upper chunk: inverse iteration solves that chunk's
        pairs, and the lower chunk keeps the bits of MRRR."""
        op = build_laplacian(lattice_graph(12), "unnormalized")
        n_pairs = 100
        lower = spectral._pair_chunks(*_tridiagonal(op), n_pairs, _gershgorin(op.matrix))[0][1]
        mrrr = spectral._dense_lowest(op, n_pairs)
        counts = []
        real = scipy.linalg.lapack.dstein

        def dstein(diag, off, values, *args):
            counts.append(values.size)
            return real(diag, off, values, *args)

        monkeypatch.setattr(scipy.linalg.lapack, "dstein", dstein)
        self._upper_chunk_returns(22, monkeypatch)
        basis = spectral._dense_lowest(op, n_pairs)
        assert counts == [n_pairs - lower]
        assert np.array_equal(basis.eigenvectors[:, :lower], mrrr.eigenvectors[:, :lower])
        _assert_accurate_lowest(op, basis, n_pairs)


def _cycle_graph(n):
    nodes = np.arange(n)
    return WeightedGraph.from_edges(
        np.column_stack([nodes, (nodes + 1) % n, np.ones(n)]), node_count=n)


# A cold dense solve on this lattice, in a fresh process: after the imports,
# the peak RSS grows by the filled part of the n x n matrix and the small
# outputs. The peak is VmHWM, the process's own high-water mark in KiB:
# ru_maxrss would carry over the pytest process's peak across fork and exec.
_LATTICE_SOLVE = """
import numpy as np
from graph_matern import WeightedGraph, build_laplacian, eigendecompose_truncated
from helpers import lattice_graph


def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


g = lattice_graph(55)
w = np.random.default_rng(55).uniform(0.5, 2.0, g.w.size)
op = build_laplacian(WeightedGraph(g.node_count, g.u, g.v, w), "unnormalized")
before = peak_kib()
basis = eigendecompose_truncated(op, 50)
after = peak_kib()
assert basis.n_retained == 50
print((after - before) * 1024 / (8 * op.node_count**2))
"""


class TestLowerTriangleFill:
    """The dense path fills only the lower triangle that ``dsytrd`` and
    ``dormtr`` read, into an anonymous mapping whose columns each start
    their stored part on a page: its bases have the bits of the same LAPACK
    sequence on the whole matrix, and the untouched pages above the
    diagonal never become resident."""

    GRAPHS = {
        "random_weighted": random_connected_graph(np.random.default_rng(291), 60),
        "path": path_graph(25),
        "cycle": _cycle_graph(24),  # every nonzero eigenvalue but one is doubled
    }

    @pytest.mark.parametrize("kind", ["unnormalized", "sym_normalized"])
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_bits_match_the_whole_matrix(self, name, kind):
        op = build_laplacian(self.GRAPHS[name], kind)
        n = op.node_count
        solves = [(n, eigendecompose_full(op))]
        solves += [(k, _routed(op, k, "dense")) for k in (1, n // 3, n // 2 + 1, n - 1)]
        for n_pairs, basis in solves:
            oracle = dense_lowest_oracle(op, n_pairs)
            assert np.array_equal(basis.eigenvalues, oracle.eigenvalues)
            assert np.array_equal(basis.eigenvectors, oracle.eigenvectors)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak RSS from /proc/self/status")
    def test_cold_solve_grows_the_peak_by_less_than_the_matrix(self):
        """n = 3025, 50 pairs: the whole matrix alone would be 8 n^2 bytes."""
        tests = Path(__file__).resolve().parent
        src = Path(spectral.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
        run = subprocess.run([sys.executable, "-c", _LATTICE_SOLVE], env=env,
                             capture_output=True, text=True, check=True, timeout=600)
        assert float(run.stdout) < 0.66

    @pytest.mark.parametrize("n", [1, 511, 512, 2485, 4096])
    def test_every_column_starts_its_lower_part_on_a_page(self, n, monkeypatch):
        """A[j, j] sits at byte 8 j (lda + 1), a multiple of 4096 when
        512 divides lda + 1. Both routines get that one lda; the calls are
        recorded, not run."""
        ldas = []

        def recorded(position):
            def call(*args):
                ldas.append(args[position])
                if args[-1] == -1:  # the workspace query
                    args[-2][0] = 1
                return 0
            return call

        monkeypatch.setattr(spectral, "_dsytrd", recorded(3))
        monkeypatch.setattr(spectral, "_dormtr", recorded(6))

        def tridiagonal(diag, off, first, last, vectors):
            vectors[:] = np.eye(diag.size, vectors.shape[1])
            return np.zeros(vectors.shape[1])

        monkeypatch.setattr(spectral, "_tridiagonal_lowest", tridiagonal)
        eigendecompose_truncated(build_laplacian(path_graph(n), "unnormalized"), 1)
        assert len(ldas) == 4 and len(set(ldas)) == 1
        lda = ldas[0]
        assert n <= lda < n + 512 and (lda + 1) % 512 == 0


def _routed(op, n_pairs, solver):
    """Solve through ``eigendecompose_truncated``, with the solver that the
    rule must not pick patched to raise."""
    other = {"dense": "eigsh", "lanczos": "_dense_lowest"}[solver]

    def refused(*args, **kwargs):
        raise AssertionError(f"{other} reached")

    assert spectral._eigensolver(op, n_pairs) == solver
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, other, refused)
        return eigendecompose_truncated(op, n_pairs)


class TestEigensolverRule:
    """``eigendecompose_truncated`` picks the solver by one rule: dense for a
    full request or an operator of at most ``DENSE_SIZE_LIMIT`` nodes,
    Lanczos for a partial request past that. Each routed basis meets the
    bounds of ``TestDenseLowest``."""

    def test_both_sides_of_the_dense_limit(self, monkeypatch):
        """The limit patched to n and to n - 1 on one 400-node lattice."""
        op = build_laplacian(lattice_graph(20), "unnormalized")
        for limit, solver in ((op.node_count, "dense"), (op.node_count - 1, "lanczos")):
            monkeypatch.setattr(spectral, "DENSE_SIZE_LIMIT", limit)
            _assert_accurate_lowest(op, _routed(op, 10, solver), 10)

    def test_only_a_full_request_past_the_limit_is_dense(self):
        """That one is refused by name, as
        ``test_full_request_past_dense_limit_fails_by_name`` checks."""
        n = DENSE_SIZE_LIMIT + 1
        op = build_laplacian(path_graph(n), "unnormalized")
        assert [spectral._eigensolver(op, k) for k in (1, n - 1, n)] == [
            "lanczos", "lanczos", "dense"]

    @pytest.mark.parametrize("graph", [
        lambda: lattice_graph(20),
        lambda: random_graph(np.random.default_rng(38), 300, p=0.1),
    ], ids=["sparse_lattice", "dense_random"])
    def test_few_pairs_at_most_the_limit_stay_dense(self, graph):
        op = build_laplacian(graph(), "unnormalized")
        _assert_accurate_lowest(op, _routed(op, 3, "dense"), 3)

    def test_cache_miss_solves_once_and_a_hit_solves_nothing(self, tmp_path, monkeypatch):
        op = build_laplacian(lattice_graph(20), "unnormalized")
        calls = []
        real = spectral.eigendecompose_truncated

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return real(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("solver reached on a cache hit")

        monkeypatch.setattr(spectral, "eigendecompose_truncated", counted)
        miss, hit, _ = cached_eigendecomposition(op, 12, cache_dir=tmp_path)
        assert not hit and calls == [(12,)]
        for name in ("eigendecompose_truncated", "_dense_lowest", "eigsh"):
            monkeypatch.setattr(spectral, name, refused)
        again, hit, _ = cached_eigendecomposition(op, 12, cache_dir=tmp_path)
        assert hit
        assert_array_equal(again.eigenvectors, miss.eigenvectors)


class TestApplySpectralFunction:
    def test_identity_function_gives_identity(self):
        rng = np.random.default_rng(41)
        basis = _basis(random_connected_graph(rng, 12))
        out = apply_spectral_function(basis, lambda lam: np.ones_like(lam))
        assert_allclose(out, np.eye(12), atol=1e-10)

    def test_exponential_matches_expm(self):
        rng = np.random.default_rng(42)
        g = random_connected_graph(rng, 10)
        op = build_laplacian(g, "unnormalized")
        basis = eigendecompose_full(op)
        out = apply_spectral_function(basis, lambda lam: np.exp(-lam))
        oracle = scipy.linalg.expm(-op.matrix.toarray())
        assert_allclose(out, oracle, atol=1e-9)

    def test_pointwise_product_is_matrix_product(self):
        # f(L) g(L) = (fg)(L) when the basis is full
        rng = np.random.default_rng(43)
        basis = _basis(random_connected_graph(rng, 9))
        f = lambda lam: 1.0 / (1.0 + lam)
        g = lambda lam: np.exp(-0.3 * lam)
        prod = apply_spectral_function(basis, lambda lam: f(lam) * g(lam))
        assert_allclose(
            prod,
            apply_spectral_function(basis, f) @ apply_spectral_function(basis, g),
            atol=1e-10,
        )

    def test_scalar_function_accepted(self):
        basis = _basis(path_graph(5))
        out_scalar = apply_spectral_function(basis, lambda x: float(x) ** 2)
        out_vec = apply_spectral_function(basis, lambda lam: lam**2)
        assert_allclose(out_scalar, out_vec, atol=1e-12)

    def test_function_that_reduces_an_array_is_applied_entrywise(self):
        """A function written for one eigenvalue may return one scalar for
        the whole array; the values are then taken eigenvalue by eigenvalue."""
        rng = np.random.default_rng(45)
        g = random_connected_graph(rng, 8)
        op = build_laplacian(g, "unnormalized")
        out = apply_spectral_function(eigendecompose_full(op), lambda x: np.exp(-np.sum(x)))
        assert_allclose(out, scipy.linalg.expm(-op.matrix.toarray()), atol=1e-10)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(44)
        basis = _basis(random_graph(rng, 14))
        out = apply_spectral_function(basis, lambda lam: np.exp(-lam))
        assert_array_equal(out, out.T)

    def test_over_budget_result_refused_before_any_product(self):
        """The n x n result for 12000 nodes would be 1.15 GB; it is refused
        by its shape before ``fn`` runs, while a small basis still works."""
        calls = []
        with PeakMemory() as mem:
            with pytest.raises(ValueError, match="apply_spectral_function would return a "
                               "dense 12000 x 12000 operator"):
                apply_spectral_function(wide_basis(), calls.append)
        assert mem.peak < 16 * 2**20 and calls == []
        out = apply_spectral_function(_basis(path_graph(5)), np.exp)
        assert out.shape == (5, 5)

    def test_nonfinite_value_rejected_with_eigenvalue(self):
        basis = _basis(path_graph(4))
        with pytest.raises(ValueError, match="not finite at eigenvalue"):
            apply_spectral_function(
                basis, lambda lam: np.where(lam > 0.5, np.inf, 1.0)
            )


class TestHeatPropagate:
    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(51)
        g = random_connected_graph(rng, 11)
        op = build_laplacian(g, "unnormalized")
        basis = eigendecompose_full(op)
        v = rng.standard_normal(11)
        for t in (0.1, 1.0, 4.0):
            oracle = scipy.linalg.expm(-t * op.matrix.toarray()) @ v
            assert_allclose(heat_propagate(basis, v, t), oracle, atol=1e-9)

    def test_semigroup_property(self):
        rng = np.random.default_rng(52)
        basis = _basis(random_connected_graph(rng, 15))
        v = rng.standard_normal(15)
        once = heat_propagate(basis, heat_propagate(basis, v, 0.7), 0.3)
        direct = heat_propagate(basis, v, 1.0)
        assert_allclose(once, direct, atol=1e-8)

    def test_mass_conserved_including_disconnected(self):
        rng = np.random.default_rng(53)
        g = random_graph(rng, 20, p=0.1)  # likely disconnected
        basis = _basis(g)
        v = rng.standard_normal(20)
        for t in (0.5, 2.0, 10.0):
            out = heat_propagate(basis, v, t)
            assert abs(out.sum() - v.sum()) <= 1e-9 * max(1.0, abs(v).sum())

    def test_time_zero_is_identity_on_full_basis(self):
        rng = np.random.default_rng(54)
        basis = _basis(random_connected_graph(rng, 9))
        v = rng.standard_normal(9)
        assert_allclose(heat_propagate(basis, v, 0.0), v, atol=1e-10)

    def test_matrix_valued_input(self):
        rng = np.random.default_rng(55)
        basis = _basis(random_connected_graph(rng, 8))
        vs = rng.standard_normal((8, 3))
        out = heat_propagate(basis, vs, 0.6)
        assert out.shape == (8, 3)
        for j in range(3):
            assert_allclose(out[:, j], heat_propagate(basis, vs[:, j], 0.6), atol=1e-12)

    def test_negative_time_rejected(self):
        basis = _basis(path_graph(4))
        with pytest.raises(ValueError, match="negative time"):
            heat_propagate(basis, np.zeros(4), -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, 10**400], ids=["nan", "inf", "1e400"])
    def test_non_finite_time_rejected(self, t):
        """A NaN time would return NaNs and an infinite one zeros, which
        lose the vector's mass."""
        basis = _basis(path_graph(3))
        with pytest.raises(ValueError, match=f"^non-finite or negative time {t}$"):
            heat_propagate(basis, np.array([1.0, 0.0, 0.0]), t)

    def test_shape_mismatch_rejected(self):
        basis = _basis(path_graph(4))
        with pytest.raises(ValueError, match="does not match node count"):
            heat_propagate(basis, np.zeros(5), 1.0)

    def test_scalar_rejected_by_shape(self):
        """A 0-d vector has no node axis: the length check names its shape."""
        basis = _basis(path_graph(4))
        with pytest.raises(ValueError, match=r"^vector of shape \(\) does not match node count 4$"):
            heat_propagate(basis, 1.0, 0.5)


class TestCacheFormat:
    def test_roundtrip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(61)
        g = random_connected_graph(rng, 13)
        basis = _basis(g, "sym_normalized")
        path = tmp_path / "basis.eig"
        save_basis(path, basis)
        loaded = load_basis(path, "sym_normalized")
        assert_array_equal(loaded.eigenvalues, basis.eigenvalues)
        assert_array_equal(loaded.eigenvectors, basis.eigenvectors)
        assert loaded.total_dim == 13
        assert loaded.laplacian_kind == "sym_normalized"

    def test_roundtrip_truncated(self, tmp_path):
        basis = leading_pairs(_basis(path_graph(9)), 4)
        path = tmp_path / "part.eig"
        save_basis(path, basis)
        loaded = load_basis(path, "unnormalized")
        assert loaded.total_dim == 9
        assert loaded.n_retained == 4
        assert_array_equal(loaded.eigenvectors, basis.eigenvectors)

    def test_bad_magic_rejected(self, tmp_path):
        basis = _basis(path_graph(4))
        path = tmp_path / "b.eig"
        save_basis(path, basis)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="not a basis cache file"):
            load_basis(path, "unnormalized")

    def test_bad_version_rejected(self, tmp_path):
        basis = _basis(path_graph(4))
        path = tmp_path / "b.eig"
        save_basis(path, basis)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version 99"):
            load_basis(path, "unnormalized")

    def test_truncated_payload_rejected(self, tmp_path):
        basis = _basis(path_graph(4))
        path = tmp_path / "b.eig"
        save_basis(path, basis)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="payload size mismatch"):
            load_basis(path, "unnormalized")

    def test_overlong_payload_rejected(self, tmp_path):
        path = tmp_path / "b.eig"
        save_basis(path, _basis(path_graph(4)))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="payload size mismatch"):
            load_basis(path, "unnormalized")

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "b.eig"
        path.write_bytes(b"GMEIG")
        with pytest.raises(ValueError, match="truncated basis file"):
            load_basis(path, "unnormalized")

    def test_row_major_basis_saves_the_same_bytes(self, tmp_path):
        basis = _basis(path_graph(6))
        rows = dataclasses.replace(
            basis, eigenvectors=np.ascontiguousarray(basis.eigenvectors))
        save_basis(tmp_path / "f.eig", basis)
        save_basis(tmp_path / "c.eig", rows)
        assert (tmp_path / "f.eig").read_bytes() == (tmp_path / "c.eig").read_bytes()

    def test_every_producer_returns_a_column_major_read_only_basis(self, tmp_path):
        """Downstream BLAS products round by the vectors' layout, so every
        producer hands over one layout."""
        op = build_laplacian(lattice_graph(6), "unnormalized")
        partial = cached_eigendecomposition(op, 10, cache_dir=tmp_path)[0]
        bases = {
            "full": eigendecompose_full(op),
            "lanczos": _lanczos(op, 10),
            "dense partial": partial,
            "cache load": cached_eigendecomposition(op, 10, cache_dir=tmp_path)[0],
        }
        for name, basis in bases.items():
            u = basis.eigenvectors
            assert u.flags.f_contiguous and u.dtype == np.float64, name
            assert not u.flags.writeable and not basis.eigenvalues.flags.writeable, name
        assert_array_equal(bases["cache load"].eigenvectors, partial.eigenvectors)


class TestMemoryFloor:
    """tracemalloc peaks of each stage of a dense partial basis, in n x l
    float64 copies of the basis: a stage adds one copy at most, not four."""

    @pytest.fixture(scope="class")
    def solved(self):
        """A 40 x 40 lattice, its lowest 400 pairs by the cold dense path,
        that solve's traced peak, and the bytes of one n x l copy."""
        op = build_laplacian(lattice_graph(40), "unnormalized")
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv(CACHE_ENV_VAR, raising=False)
            with PeakMemory() as mem:
                basis = cached_eigendecomposition(op, 400)[0]
        return op, basis, mem.peak, op.node_count * 400 * 8

    def test_cold_solve_holds_the_matrix_and_one_output(self, solved):
        op, basis, peak, copy = solved
        assert basis.n_retained == 400 and basis.n_retained != basis.total_dim
        assert peak <= op.node_count**2 * 8 + 1.25 * copy

    def test_save_writes_from_the_basis(self, solved, tmp_path):
        _, basis, _, copy = solved
        with PeakMemory() as mem:
            save_basis(tmp_path / "b.eig", basis)
        assert mem.peak <= 0.25 * copy

    def test_load_reads_into_one_array(self, solved, tmp_path):
        op, basis, _, copy = solved
        save_basis(tmp_path / "b.eig", basis)
        with PeakMemory() as mem:
            loaded = load_basis(tmp_path / "b.eig", op.kind)
        assert mem.peak <= 1.25 * copy
        assert_array_equal(loaded.eigenvectors, basis.eigenvectors)

    def test_residual_check_goes_by_column_blocks(self, solved):
        """The ``eigen`` command's residual check keeps the bits of each
        column's own norm in a fraction of a whole-basis pass's memory."""
        op, basis, _, copy = solved
        u, lam = basis.eigenvectors, basis.eigenvalues
        with PeakMemory() as mem:
            residuals = _residual_norms(op.matrix, lam, u)
        assert mem.peak <= 0.5 * copy
        alone = [_residual_norms(op.matrix, lam[j:j + 1], u[:, j:j + 1])[0]
                 for j in range(lam.size)]
        assert_array_equal(residuals, alone)
        for k in (2, 33, 65):
            assert_array_equal(_residual_norms(op.matrix, lam[:k], u[:, :k]), residuals[:k])
        whole = np.linalg.norm(op.matrix @ u - u * lam, axis=0)
        assert_allclose(residuals, whole, rtol=1e-12, atol=0)


class TestLaplacianHash:
    def test_stable_for_equal_operators(self):
        g = path_graph(6)
        h1 = laplacian_hash(build_laplacian(g, "unnormalized"))
        h2 = laplacian_hash(build_laplacian(g, "unnormalized"))
        assert h1 == h2

    def test_sensitive_to_weights_and_kind(self):
        g1 = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        g2 = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0 + 1e-12)])
        h = lambda g, kind: laplacian_hash(build_laplacian(g, kind))
        assert h(g1, "unnormalized") != h(g2, "unnormalized")
        assert h(g1, "unnormalized") != h(g1, "sym_normalized")


class TestNodelessGraph:
    """A graph with no nodes has no eigenpairs: each entry point refuses it
    by name, before a pair count is clamped or checked."""

    OP = build_laplacian(WeightedGraph.from_edges(np.empty((0, 3)), node_count=0),
                         "unnormalized")

    def test_full(self):
        with pytest.raises(ValueError, match="^the graph has no nodes"):
            eigendecompose_full(self.OP)

    @pytest.mark.parametrize("n_pairs", [0, 3])
    def test_truncated(self, n_pairs):
        with pytest.raises(ValueError, match="^the graph has no nodes"):
            eigendecompose_truncated(self.OP, n_pairs)

    @pytest.mark.parametrize("n_pairs", [0, 3])
    def test_cached_without_a_clamp_warning(self, n_pairs, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the graph has no nodes"):
                cached_eigendecomposition(self.OP, n_pairs, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestCachedEigendecomposition:
    def test_miss_then_hit(self, tmp_path):
        rng = np.random.default_rng(71)
        op = build_laplacian(random_connected_graph(rng, 10), "unnormalized")
        b1, hit1, p1 = cached_eigendecomposition(op, 4, cache_dir=tmp_path)
        assert not hit1
        assert p1 is not None and p1.exists()
        b2, hit2, p2 = cached_eigendecomposition(op, 4, cache_dir=tmp_path)
        assert hit2
        assert p2 == p1
        assert_array_equal(b1.eigenvalues, b2.eigenvalues)
        assert_array_equal(b1.eigenvectors, b2.eigenvectors)

    def test_interrupted_save_leaves_no_file_and_the_next_run_recomputes(
            self, tmp_path, monkeypatch):
        """A save stopped after the header and eigenvalues (Ctrl-C here) leaves
        nothing at the cache path and no temporary file, so the next call
        solves again and caches a whole file."""
        op = build_laplacian(path_graph(9), "unnormalized")
        real = spectral.save_basis

        class Interrupted:
            def __init__(self, basis):
                self.basis = basis

            def __getattr__(self, name):
                if name == "eigenvectors":
                    raise KeyboardInterrupt
                return getattr(self.basis, name)

        monkeypatch.setattr(spectral, "save_basis",
                            lambda path, basis: real(path, Interrupted(basis)))
        with pytest.raises(KeyboardInterrupt):
            cached_eigendecomposition(op, 4, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(spectral, "save_basis", real)
        basis, hit, path = cached_eigendecomposition(op, 4, cache_dir=tmp_path)
        assert not hit and list(tmp_path.iterdir()) == [path]
        again, hit, _ = cached_eigendecomposition(op, 4, cache_dir=tmp_path)
        assert hit
        assert_array_equal(again.eigenvectors, basis.eigenvectors)

    def test_key_separates_pair_counts(self, tmp_path):
        op = build_laplacian(path_graph(9), "unnormalized")
        _, _, p4 = cached_eigendecomposition(op, 4, cache_dir=tmp_path)
        _, _, p5 = cached_eigendecomposition(op, 5, cache_dir=tmp_path)
        assert p4 != p5

    def test_no_cache_dir_computes_fresh(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        op = build_laplacian(path_graph(5), "unnormalized")
        basis, hit, path = cached_eigendecomposition(op, 3)
        assert not hit
        assert path is None
        assert basis.n_retained == 3

    def test_env_var_supplies_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        op = build_laplacian(path_graph(7), "unnormalized")
        _, hit1, path = cached_eigendecomposition(op, 3)
        assert not hit1
        assert path is not None and path.parent == tmp_path
        _, hit2, _ = cached_eigendecomposition(op, 3)
        assert hit2

    def test_lanczos_route_above_dense_limit(self, tmp_path):
        side = 70
        op = build_laplacian(lattice_graph(side), "unnormalized")
        assert op.node_count > DENSE_SIZE_LIMIT
        basis, hit, _ = cached_eigendecomposition(op, 12, cache_dir=tmp_path)
        assert not hit and basis.n_retained == 12
        axis = 2.0 - 2.0 * np.cos(np.pi * np.arange(side) / side)
        expected = np.sort((axis[:, None] + axis[None, :]).ravel())[:12]
        assert_allclose(basis.eigenvalues, expected, rtol=0, atol=1e-10)
        u = basis.eigenvectors
        residuals = np.linalg.norm(op.matrix @ u - u * basis.eigenvalues, axis=0)
        assert residuals.max() <= 1e-8
        assert_allclose(u.T @ u, np.eye(12), atol=1e-10)

    def test_overlong_request_clamped_with_warning(self, tmp_path):
        op = build_laplacian(path_graph(5), "unnormalized")
        with pytest.warns(UserWarning, match="clamping"):
            basis, _, _ = cached_eigendecomposition(op, 50, cache_dir=tmp_path)
        assert basis.n_retained == 5
