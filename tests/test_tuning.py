import numpy as np
import pytest

import diffusion_forecast.dataset as dataset_mod
from diffusion_forecast.dataset import TimeSeries, knn
from diffusion_forecast.simulators import torus_embed
from diffusion_forecast.tuning import (
    LOG_BIN_WIDTH,
    BandwidthProfile,
    PairwiseKernelSum,
    adhoc_bandwidth,
    default_bandwidth_grid,
    kde,
    tune,
)

from _oracles import brute_force_kernel_sum, full_square_histogram


def tuned(points, k0=8, c=2.0):
    ts = TimeSeries(points, tau=1.0)
    nl = knn(ts, k0)
    prof = adhoc_bandwidth(ts, k0, neighbors=nl)
    ks = PairwiseKernelSum(points, prof.rho0, c, nl)
    return ts, prof, tune(ks)


def neighbors(points, k=8):
    return knn(TimeSeries(points, tau=1.0), k)


class TestAdhocBandwidth:
    def test_collinear_hand_case(self):
        ts = TimeSeries(np.array([[0.0], [1.0], [3.0]]), tau=1.0)
        prof = adhoc_bandwidth(ts, k0=2)
        assert np.allclose(prof.rho0, [1.0, 1.0, 2.0])

    def test_regular_simplex_symmetry(self):
        # four points, all pairwise distances equal
        pts = np.array([
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ])
        r = np.linalg.norm(pts[0] - pts[1])
        for k0 in (2, 3):
            prof = adhoc_bandwidth(TimeSeries(pts, tau=1.0), k0=k0)
            assert np.allclose(prof.rho0, r)

    def test_circle_roughly_constant(self):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, 2 * np.pi, 1000)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        prof = adhoc_bandwidth(TimeSeries(pts, tau=1.0), k0=8)
        cv = prof.rho0.std() / prof.rho0.mean()
        assert cv < 0.5

    def test_duplicates_raise(self):
        pts = np.array([[0.0], [0.0], [0.0], [5.0]])
        with pytest.raises(ValueError, match="deduplicate"):
            adhoc_bandwidth(TimeSeries(pts, tau=1.0), k0=3)

    def test_needs_more_points_than_k0(self):
        pts = np.arange(5, dtype=float)[:, None]
        with pytest.raises(ValueError, match="more than"):
            adhoc_bandwidth(TimeSeries(pts, tau=1.0), k0=5)


class TestPairwiseKernelSum:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(300, 2))
        scales = 0.5 + rng.uniform(size=300)
        ks = PairwiseKernelSum(pts, scales, 2.0, neighbors(pts))
        eps_grid = np.logspace(-3, 2, 11)
        approx = ks(eps_grid)
        exact = brute_force_kernel_sum(pts, scales, 2.0, eps_grid)
        assert np.max(np.abs(approx / exact - 1.0)) < 2e-3

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(150, 3))
        ks = PairwiseKernelSum(pts, np.ones(150), 4.0, neighbors(pts))
        grid = np.logspace(-8, 6, 120)
        t = ks(grid)
        n = 150
        assert np.all(t >= 1.0 / n - 1e-12)
        assert np.all(t <= 1.0 + 1e-12)
        assert np.all(np.diff(t) >= -1e-15)

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError, match="positive"):
            PairwiseKernelSum(np.zeros((3, 1)), np.array([1.0, -1.0, 1.0]), 2.0,
                              neighbors(np.zeros((3, 1)), 3))

    def test_single_repeated_point_degenerate(self):
        pts = np.zeros((5, 2))
        with pytest.raises(ValueError, match="repeated point"):
            PairwiseKernelSum(pts, np.ones(5), 2.0, neighbors(pts, 5))

    def test_duplicate_pairs_binned_at_their_distance(self):
        # two duplicated points 1e-4 apart: their four table rows start with
        # a zero, and their 8 cross pairs are the closest of the data. The
        # lower bound must come from the first positive entry of each row, not
        # from column 1, or these pairs are binned too far out and T comes out
        # 3.7% low at these eps
        rng = np.random.default_rng(3)
        base = rng.uniform(0.0, 1000.0, size=(200, 2))
        x, y = base[:1], base[:1] + [1e-4, 0.0]
        pts = np.vstack([base, x, y, y])
        ts = TimeSeries(pts, tau=1.0)
        nl = knn(ts, 8)
        prof = adhoc_bandwidth(ts, 8, neighbors=nl)
        ks = PairwiseKernelSum(pts, prof.rho0, 2.0, nl)
        eps_grid = np.array([1e-9, 1e-8, 1e-7])
        exact = brute_force_kernel_sum(pts, prof.rho0, 2.0, eps_grid)
        assert np.max(np.abs(ks(eps_grid) / exact - 1.0)) < 2e-3

    @pytest.mark.parametrize("block_entries", [4_000_000, 700], ids=["one-block", "uneven-blocks"])
    def test_half_sweep_equals_the_full_square_histogram(self, monkeypatch, block_entries):
        # the counts of i < j, doubled, plus N diagonal zeros must be the
        # full sweep's bit for bit; duplicated points add off-diagonal zeros,
        # and a small block size spreads the triangle over uneven row blocks
        monkeypatch.setattr(dataset_mod, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(7)
        base = rng.normal(size=(70, 2))
        pts = np.vstack([base, base[[3, 3, 10, 41]]])
        scales = 0.5 + rng.uniform(size=pts.shape[0])
        nl = neighbors(pts)
        ks = PairwiseKernelSum(pts, scales, 2.0, nl)
        counts, w_rep, zeros = full_square_histogram(pts, scales, nl.distances, LOG_BIN_WIDTH)
        assert zeros == pts.shape[0] + 2 * (3 + 1 + 1)  # diagonal, a triple, two pairs
        assert ks.n == pts.shape[0]
        assert np.array_equal(ks._counts, counts)
        assert np.array_equal(ks._w_rep, w_rep)
        assert ks._zero_count == zeros


class TestTune:
    def test_recovers_synthetic_slope(self):
        # log T ramps with slope 1.3 between the floors, i.e. d = 2.6
        def kernel_sum(eps):
            log_t = np.clip(1.3 * (np.log(eps) - 1.0), np.log(1e-4), np.log(0.04))
            return np.exp(log_t)

        res = tune(kernel_sum, grid=np.logspace(-4, 4, 200))
        assert res.d_est == pytest.approx(2.6, rel=0.02)
        assert not res.boundary_warning
        # eps_star sits inside the ramp
        assert 1e-3 < res.eps_star < np.exp(1.0)

    def test_curve_is_returned_and_monotone(self, circle_points_3000):
        _, _, res = tuned(circle_points_3000[:500])
        log_t = res.curve[:, 1]
        assert np.all(np.diff(log_t) >= -1e-12)

    def test_saturated_sum_raises(self):
        with pytest.raises(ValueError, match="saturated"):
            tune(lambda eps: np.ones_like(eps), grid=np.logspace(-3, 3, 50))

    def test_non_finite_raises(self):
        def kernel_sum(eps):
            out = np.full_like(eps, 0.01)
            out[0] = np.nan
            return out

        with pytest.raises(ValueError, match="non-finite"):
            tune(kernel_sum, grid=np.logspace(-3, 3, 50))

    def test_boundary_warning_at_grid_start(self):
        # steepest rise sits on the first grid interval
        def kernel_sum(eps):
            return np.minimum(1e-3 * (eps / 1e-3) ** 2.0, 0.04)

        res = tune(kernel_sum, grid=np.logspace(-3, 3, 60))
        assert res.boundary_warning

    def test_dimension_circle(self):
        rng = np.random.default_rng(11)
        theta = rng.uniform(0, 2 * np.pi, 2000)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        _, _, res = tuned(pts)
        assert 0.8 <= res.d_est <= 1.2

    def test_dimension_embedded_torus(self):
        rng = np.random.default_rng(11)
        ang = rng.uniform(0, 2 * np.pi, (2000, 2))
        _, _, res = tuned(torus_embed(ang))
        assert 1.6 <= res.d_est <= 2.4

    def test_dimension_gaussian_cloud(self):
        rng = np.random.default_rng(11)
        _, _, res = tuned(rng.standard_normal((2000, 3)))
        assert 2.5 <= res.d_est <= 3.5


class TestKde:
    def test_uniform_circle_density(self):
        rng = np.random.default_rng(4)
        theta = rng.uniform(0, 2 * np.pi, 5000)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        ts, prof, res = tuned(pts)
        dens = kde(ts, prof, res.eps_star, 1.0)
        truth = 1.0 / (2 * np.pi)
        rel = np.abs(dens.q - truth) / truth
        assert np.mean(rel <= 0.15) >= 0.90

    def test_standard_normal_density(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(5000)[:, None]
        ts, prof, res = tuned(x)
        dens = kde(ts, prof, res.eps_star, 1.0)
        pdf = np.exp(-x[:, 0] ** 2 / 2) / np.sqrt(2 * np.pi)
        mask = np.abs(x[:, 0]) <= 2
        rel = np.abs(dens.q - pdf)[mask] / pdf[mask]
        # MC noise makes a pointwise-max criterion vacuous; hold 90% of the
        # bulk to the stated 20%
        assert np.mean(rel <= 0.20) >= 0.90

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(400, 2))
        ts = TimeSeries(pts, tau=1.0)
        prof = adhoc_bandwidth(ts, 8)
        eps, d = 2.0, 2.0
        base = kde(ts, prof, eps, d)
        s = 3.0
        scaled = kde(TimeSeries(pts * s, tau=1.0), prof, eps * s * s, d)
        assert np.allclose(scaled.q, base.q / s**d, rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(200, 2))
        perm = rng.permutation(200)
        ts = TimeSeries(pts, tau=1.0)
        prof = adhoc_bandwidth(ts, 8)
        base = kde(ts, prof, 1.5, 2.0)
        ts_p = TimeSeries(pts[perm], tau=1.0)
        prof_p = adhoc_bandwidth(ts_p, 8)
        assert np.allclose(prof_p.rho0, prof.rho0[perm])
        permuted = kde(ts_p, prof_p, 1.5, 2.0)
        assert np.allclose(permuted.q, base.q[perm])

    def test_positive_output_enforced(self):
        with pytest.raises(ValueError):
            BandwidthProfile(rho0=np.array([1.0, 0.0]), k0=2)

    def test_bad_eps(self, circle_points_3000):
        ts = TimeSeries(circle_points_3000[:100], tau=1.0)
        prof = adhoc_bandwidth(ts, 8)
        with pytest.raises(ValueError, match="positive"):
            kde(ts, prof, -1.0, 1.0)


def test_default_grid_matches_prescription():
    grid = default_bandwidth_grid()
    assert grid.shape == (401,)
    assert grid[0] == pytest.approx(2.0**-30)
    assert grid[-1] == pytest.approx(2.0**10)
    assert grid[1] == pytest.approx(2.0**-29.9)
