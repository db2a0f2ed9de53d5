import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import diffusion_forecast.basis as basis_mod
import diffusion_forecast.dataset as dataset_mod
from diffusion_forecast.basis import (
    EIG_RESIDUAL_TOL,
    DiffusionBasis,
    NormalizationLedger,
    build_basis,
    build_vb_kernel,
    _choose_eigensolver,
    _top_eigenpairs,
)
from diffusion_forecast.dataset import TimeSeries, knn
from diffusion_forecast.pipeline import fit_forecaster, load_model, save_model
from diffusion_forecast.tuning import KERNEL_FLOOR, DensityEstimate

from _oracles import coo_vb_kernel, sparse_product_operator


def uniform_density(n, value=1.0):
    return DensityEstimate(q=np.full(n, value), eps_used=1.0, d_used=1.0)


class TestBuildVbKernel:
    def test_coincident_points_give_unit_entry(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        ts = TimeSeries(pts, tau=1.0)
        k = build_vb_kernel(ts, uniform_density(3), eps=0.5, neighbor_cap=3)
        assert k[0, 1] == pytest.approx(1.0)
        assert k[1, 0] == pytest.approx(1.0)

    def test_uniform_density_reduces_to_fixed_bandwidth(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 2))
        ts = TimeSeries(pts, tau=1.0)
        const = 2.0
        eps = 0.7
        beta = -0.5
        k = build_vb_kernel(ts, uniform_density(40, const), eps=eps, neighbor_cap=40)
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.sum(diff * diff, axis=-1)
        expected = np.exp(-d2 / (4.0 * eps * const ** (2 * beta)))
        expected[expected < 1e-15] = 0.0
        assert np.allclose(k.toarray(), expected, atol=1e-14)

    def test_capped_equals_dense_when_cap_covers_all(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 3))
        ts = TimeSeries(pts, tau=1.0)
        q = DensityEstimate(q=0.5 + rng.uniform(size=200), eps_used=1.0, d_used=3.0)
        k = build_vb_kernel(ts, q, eps=0.4, neighbor_cap=200)
        qb = q.q**-0.5
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.sum(diff * diff, axis=-1)
        dense = np.exp(-d2 / (4.0 * 0.4 * np.outer(qb, qb)))
        dense[dense < 1e-15] = 0.0
        assert np.allclose(k.toarray(), dense, atol=0.0)

    def test_symmetry_with_small_cap(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(120, 2))
        ts = TimeSeries(pts, tau=1.0)
        q = DensityEstimate(q=0.5 + rng.uniform(size=120), eps_used=1.0, d_used=2.0)
        k = build_vb_kernel(ts, q, eps=0.2, neighbor_cap=10)
        assert (abs(k - k.T)).max() == 0.0

    def test_direct_csr_equals_the_coo_assembly(self, monkeypatch):
        # a table wider than the cap, and a bandwidth at which the floor drops
        # 160 far entries while every point keeps a neighbour; at 150 block
        # entries the table is assembled in row blocks of 7, the last of 4
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 2))
        ts = TimeSeries(pts, tau=1.0)
        q = DensityEstimate(q=0.5 + rng.uniform(size=200), eps_used=1.0, d_used=2.0)
        nl = knn(ts, 30)
        ref, dropped = coo_vb_kernel(q.q, 1e-2, -0.5, 20, nl.indices, nl.distances, KERNEL_FLOOR)
        assert dropped > 0
        for block_entries in (dataset_mod.BLOCK_ENTRIES, 150):
            monkeypatch.setattr(dataset_mod, "BLOCK_ENTRIES", block_entries)
            k = build_vb_kernel(ts, q, eps=1e-2, neighbor_cap=20, neighbors=nl)
            assert k.has_canonical_format
            assert k.indptr.dtype == ref.indptr.dtype and k.indices.dtype == ref.indices.dtype
            assert np.array_equal(k.indptr, ref.indptr)
            assert np.array_equal(k.indices, ref.indices)
            assert np.array_equal(k.data, ref.data)

    def test_disconnected_point_raises(self):
        pts = np.vstack([np.zeros((5, 2)) + np.arange(5)[:, None] * 0.01,
                         [[100.0, 100.0]]])
        ts = TimeSeries(pts, tau=1.0)
        with pytest.raises(ValueError, match="disconnected"):
            build_vb_kernel(ts, uniform_density(6), eps=1e-4, neighbor_cap=6)


class TestBuildBasis:
    def test_trivial_eigenpair(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        assert basis.lam[0] < 1e-6
        phi0 = basis.phi[:, 0]
        assert np.all(phi0 > 0)  # constant mode, sign fixed positive

    def test_circle_spectrum_matches_laplacian(self, circle_fit_3000):
        lam = circle_fit_3000.basis.lam
        expected = np.array([1.0, 1.0, 4.0, 4.0, 9.0, 9.0])
        assert np.all(np.abs(lam[1:7] - expected) / expected < 0.10)

    def test_orthonormality(self, circle_fit_3000):
        phi = circle_fit_3000.basis.phi
        gram = phi.T @ phi / phi.shape[0]
        assert np.max(np.abs(gram - np.eye(phi.shape[1]))) < 1e-8

    def test_eigenvalues_ascending_nonnegative(self, circle_fit_3000):
        lam = circle_fit_3000.basis.lam
        assert np.all(lam >= 0)
        assert np.all(np.diff(lam) >= 0)

    def test_column_normalization(self, circle_fit_3000):
        phi = circle_fit_3000.basis.phi
        norms = np.mean(phi * phi, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_sign_convention(self, circle_fit_3000):
        phi = circle_fit_3000.basis.phi
        peaks = np.argmax(np.abs(phi), axis=0)
        assert np.all(phi[peaks, np.arange(phi.shape[1])] > 0)

    def test_dirichlet_energy_consistency(self, circle_series_3000, circle_fit_3000):
        fit = circle_fit_3000
        basis = fit.basis
        kernel = build_vb_kernel(circle_series_3000, fit.density,
                                 fit.vb_tuning.eps_star, neighbor_cap=1024)
        ledger = fit.ledger
        alpha = basis.alpha
        scale = ledger.qS ** (-alpha)
        k_alpha = sp.diags(scale) @ kernel @ sp.diags(scale)
        u = 1.0 / np.sqrt(ledger.qSalpha * ledger.Dhat_scale)
        l_sym = sp.diags(u) @ k_alpha @ sp.diags(u) - sp.diags(1.0 / ledger.Dhat_scale)
        n = basis.n_points
        energy = -np.sum(basis.phi * (l_sym @ basis.phi), axis=0) / n
        lam = basis.lam
        mask = lam > 1e-8
        assert np.max(np.abs(energy[mask] - lam[mask]) / lam[mask]) < 1e-6

    def test_flat_torus_spectrum(self):
        rng = np.random.default_rng(21)
        ang = rng.uniform(0, 2 * np.pi, (3000, 2))
        pts = np.column_stack([np.cos(ang[:, 0]), np.sin(ang[:, 0]),
                               np.cos(ang[:, 1]), np.sin(ang[:, 1])])
        fit = fit_forecaster(TimeSeries(pts, tau=1.0), n_basis=6)
        lam = fit.basis.lam
        assert lam[0] < 1e-6
        assert np.all(np.abs(lam[1:5] - 1.0) < 0.15)

    def test_doubling_n_shrinks_circle_error(self, circle_fit_3000, circle_points_3000):
        expected = np.array([1.0, 1.0, 4.0, 4.0, 9.0, 9.0])
        fit_small = fit_forecaster(TimeSeries(circle_points_3000[:1500], tau=1.0),
                                   n_basis=7)
        err_small = np.mean(np.abs(fit_small.basis.lam[1:7] - expected) / expected)
        err_big = np.mean(np.abs(circle_fit_3000.basis.lam[1:7] - expected) / expected)
        assert err_big < err_small

    def test_in_place_normalization_equals_the_sparse_products(self, monkeypatch,
                                                               circle_series_3000, circle_fit_3000):
        fit = circle_fit_3000
        eps, d = fit.vb_tuning.eps_star, fit.vb_tuning.d_est
        kernel = build_vb_kernel(circle_series_3000, fit.density, eps, neighbor_cap=64)
        seen = []
        real = basis_mod._top_eigenpairs

        def solve(l_sym, m, route):
            seen.append(l_sym.copy())
            return real(l_sym, m, route)

        monkeypatch.setattr(basis_mod, "_top_eigenpairs", solve)
        build_basis(kernel, circle_series_3000, fit.density, eps, d, 4)
        (got,) = seen
        want = sparse_product_operator(kernel, fit.density, eps, d, -0.5)
        assert got.has_sorted_indices and want.has_sorted_indices
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)  # bitwise: the same operation order

    def test_leaves_the_callers_kernel_unchanged(self, circle_series_3000, circle_fit_3000):
        fit = circle_fit_3000
        kernel = build_vb_kernel(circle_series_3000, fit.density,
                                 fit.vb_tuning.eps_star, neighbor_cap=64)
        before = [a.copy() for a in (kernel.indptr, kernel.indices, kernel.data)]
        build_basis(kernel, circle_series_3000, fit.density, fit.vb_tuning.eps_star,
                    fit.vb_tuning.d_est, 4)
        for was, now in zip(before, (kernel.indptr, kernel.indices, kernel.data)):
            assert was.dtype == now.dtype
            assert np.array_equal(was, now)

    def test_m_out_of_range(self, circle_series_3000, circle_fit_3000):
        fit = circle_fit_3000
        kernel = build_vb_kernel(circle_series_3000, fit.density,
                                 fit.vb_tuning.eps_star, neighbor_cap=64)
        with pytest.raises(ValueError, match="out of range"):
            build_basis(kernel, circle_series_3000, fit.density,
                        fit.vb_tuning.eps_star, 1.0, 999999)


class TestSpectralEdge:
    def test_circle_basis_is_below_the_edge(self, circle_fit_3000):
        ledger = circle_fit_3000.ledger
        assert ledger.lambda_edge == (1.0 / ledger.Dhat_scale).min()
        assert ledger.lambda_edge == pytest.approx(114, rel=0.01)
        assert ledger.galerkin_size(circle_fit_3000.basis.lam) == 10

    @pytest.mark.parametrize("n, m, m_eff", [(3000, 10, 10), (300, 40, 24)])
    def test_basis_past_the_edge_warns_once(self, caplog, circle_points_3000, n, m, m_eff):
        with caplog.at_level(logging.WARNING, logger="diffusion_forecast.basis"):
            fit = fit_forecaster(TimeSeries(circle_points_3000[:n], tau=1.0), n_basis=m)
        edge = fit.ledger.lambda_edge
        assert fit.ledger.galerkin_size(fit.basis.lam) == m_eff
        expected = [] if m == m_eff else [
            f"basis size M={m} exceeds M_eff={m_eff}, the number of eigenvalues below the "
            f"spectral edge {edge:.3g}; the eigenvectors past it are not a Galerkin basis"]
        assert [r.getMessage() for r in caplog.records] == expected


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestEigenpairs:
    @staticmethod
    def operator(n=400):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(n, n))
        return sp.csr_matrix(-(a @ a.T) / n)

    def test_dense_and_iterative_agree(self):
        sym, m = self.operator(), 6
        vals_dense, vecs_dense, dense = _top_eigenpairs(sym, m, ("dense", None))
        vals_iter, vecs_iter, lanczos = _top_eigenpairs(sym, m, ("lanczos", None))
        assert dense.path == "dense" and dense.matvecs == 0
        assert lanczos.path == "lanczos" and lanczos.matvecs > 0 and not lanczos.fallback
        assert lanczos.max_residual <= EIG_RESIDUAL_TOL
        assert np.allclose(vals_dense, vals_iter, atol=1e-9)
        # eigenvectors agree up to sign
        dots = np.abs(np.sum(vecs_dense * vecs_iter, axis=0))
        assert np.allclose(dots, 1.0, atol=1e-8)

    @pytest.mark.parametrize("n, nnz_per_row, m, path", [
        (3000, 980, 10, "lanczos"),    # circle-spectrum
        (2000, 870, 500, "dense"),     # lorenz-skill
        (300, 3, 10, "dense"),         # tiny circle, at any kernel density
        (300, 300, 10, "dense"),
        (600, 3, 50, "dense"),         # tiny Lorenz
        (600, 600, 50, "dense"),
        (8000, 1121, 400, "dense"),    # desk torus
        (3000, 980, 1500, "dense"),    # no room for the guard vectors
    ])
    def test_rule_routes_by_size(self, n, nnz_per_row, m, path):
        route = _choose_eigensolver(n, n * nnz_per_row, m)
        assert route[0] == path
        if path == "lanczos":
            assert route[1] >= 1
        else:
            assert route[1] is None

    @pytest.mark.parametrize("nnz_per_row", [3, 1024, 20000])
    def test_rule_goes_unbudgeted_where_dense_does_not_fit(self, nnz_per_row):
        # paper scale: the 20000 x 20000 matrix and eigh's copy take 6.4 GB
        assert _choose_eigensolver(20000, 20000 * nnz_per_row, 1000) == ("lanczos", None)

    def test_each_route_calls_one_eigh(self, monkeypatch):
        sym = self.operator(300)
        eighs = count_calls(monkeypatch, basis_mod, "eigh")
        arpack = count_calls(monkeypatch, basis_mod.spla, "eigsh")
        _top_eigenpairs(sym, 10, _choose_eigensolver(300, sym.nnz, 10))
        assert len(eighs) == 1 and eighs[0][0].shape == (300, 300) and not arpack
        _top_eigenpairs(sym, 10, ("lanczos", None))
        # the Rayleigh-Ritz finish over the k = 2m Lanczos vectors
        assert len(eighs) == 2 and eighs[1][0].shape == (20, 20) and len(arpack) == 1

    @staticmethod
    def no_convergence(monkeypatch):
        def eigsh(op, k, **kwargs):
            for _ in range(5):
                op.matvec(np.ones(op.shape[0]))
            raise spla.ArpackNoConvergence("no convergence", np.zeros(1), np.zeros((op.shape[0], 1)))

        monkeypatch.setattr(basis_mod.spla, "eigsh", eigsh)

    def test_budget_exhausted_falls_back_to_dense(self, monkeypatch):
        sym, m = self.operator(), 6
        want, want_vecs, _ = _top_eigenpairs(sym, m, ("dense", None))
        self.no_convergence(monkeypatch)
        vals, vecs, record = _top_eigenpairs(sym, m, ("lanczos", 3))
        assert record.path == "dense" and record.fallback and record.matvecs == 5
        assert np.isnan(record.max_residual)
        assert np.array_equal(vals, want) and np.array_equal(vecs, want_vecs)

    def test_unbudgeted_no_convergence_raises(self, monkeypatch):
        self.no_convergence(monkeypatch)
        with pytest.raises(RuntimeError, match="did not converge"):
            _top_eigenpairs(self.operator(), 6, ("lanczos", None))

    def test_residual_gate_raises(self, monkeypatch):
        sym = self.operator()

        def eigsh(op, k, **kwargs):
            # an orthonormal basis of a random subspace, not an invariant one
            z, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(op.shape[0], k)))
            return np.zeros(k), z

        monkeypatch.setattr(basis_mod.spla, "eigsh", eigsh)
        with pytest.raises(RuntimeError, match="residual"):
            _top_eigenpairs(sym, 6, ("lanczos", None))

    def test_fit_records_its_solver(self, circle_fit_3000):
        record = circle_fit_3000.ledger.solver
        assert record.path == "lanczos" and not record.fallback
        assert 0 < record.matvecs and record.max_residual <= EIG_RESIDUAL_TOL


class TestSerialization:
    def test_round_trip_exact(self, tmp_path, circle_fit_3000, circle_series_3000):
        fit = circle_fit_3000
        path = save_model(tmp_path / "model.npz", fit.basis, fit.operator,
                          circle_series_3000.points, {"tau": 1.0})
        back = load_model(path)[0]
        basis = fit.basis
        assert np.array_equal(back.phi, basis.phi)
        assert np.array_equal(back.lam, basis.lam)
        assert np.array_equal(back.peq, basis.peq)
        assert back.eps == basis.eps and back.d == basis.d
        assert back.alpha == basis.alpha and back.beta == basis.beta


def test_normalization_ledger_positivity():
    with pytest.raises(ValueError, match="positive"):
        NormalizationLedger(qS=np.array([1.0, -1.0]), qSalpha=np.ones(2),
                            Dhat_scale=np.ones(2))


def test_diffusion_basis_shape_validation():
    with pytest.raises(ValueError):
        DiffusionBasis(phi=np.ones((5, 2)), lam=np.zeros(3), peq=np.ones(5),
                       eps=0.1, d=1.0, alpha=-0.25, beta=-0.5)
