import numpy as np
import pytest
import scipy.sparse as sp

import diffusion_forecast.basis as basis_mod
from diffusion_forecast.basis import (
    DiffusionBasis,
    NormalizationLedger,
    build_basis,
    build_vb_kernel,
    _top_eigenpairs,
)
from diffusion_forecast.dataset import TimeSeries
from diffusion_forecast.pipeline import fit_forecaster, load_model, save_model
from diffusion_forecast.tuning import DensityEstimate


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

    def test_retain_conjugation_gives_exact_constant(self, circle_series_3000, circle_fit_3000):
        fit = circle_fit_3000
        kernel = build_vb_kernel(circle_series_3000, fit.density,
                                 fit.vb_tuning.eps_star, neighbor_cap=1024)
        basis, _ = build_basis(kernel, circle_series_3000, fit.density,
                               fit.vb_tuning.eps_star, fit.vb_tuning.d_est, 5,
                               retain_conjugation=True)
        phi0 = basis.phi[:, 0]
        assert np.abs(phi0 - phi0.mean()).max() / abs(phi0.mean()) < 1e-10

    def test_m_out_of_range(self, circle_series_3000, circle_fit_3000):
        fit = circle_fit_3000
        kernel = build_vb_kernel(circle_series_3000, fit.density,
                                 fit.vb_tuning.eps_star, neighbor_cap=64)
        with pytest.raises(ValueError, match="out of range"):
            build_basis(kernel, circle_series_3000, fit.density,
                        fit.vb_tuning.eps_star, 1.0, 999999)


class TestEigenpairs:
    def test_dense_and_iterative_agree(self, monkeypatch):
        rng = np.random.default_rng(3)
        n, m = 400, 6
        a = rng.normal(size=(n, n))
        sym = sp.csr_matrix(-(a @ a.T) / n)
        vals_dense, vecs_dense = _top_eigenpairs(sym, m)
        monkeypatch.setattr(basis_mod, "DENSE_EIG_THRESHOLD", 10)
        vals_iter, vecs_iter = _top_eigenpairs(sym, m)
        assert np.allclose(vals_dense, vals_iter, atol=1e-9)
        # eigenvectors agree up to sign
        dots = np.abs(np.sum(vecs_dense * vecs_iter, axis=0))
        assert np.allclose(dots, 1.0, atol=1e-8)


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
