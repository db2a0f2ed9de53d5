import numpy as np
import pytest

import diffusion_forecast.dataset as dataset_mod
from diffusion_forecast.basis import NEIGHBOR_CAP
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

from _oracles import brute_force_kernel_sum, table_histogram, table_kde, table_kernel_sum


def tuned(points, k0=8, c=2.0):
    """The fit's table, min(N, NEIGHBOR_CAP) wide, the ad-hoc bandwidths and
    the tuning of their kernel on that table."""
    nl = neighbors(points, min(points.shape[0], NEIGHBOR_CAP))
    prof = adhoc_bandwidth(nl, k0)
    return nl, prof, tune(PairwiseKernelSum(nl, prof.rho0, c))


def neighbors(points, k=8):
    return knn(TimeSeries(points, tau=1.0), k)


class TestAdhocBandwidth:
    def test_collinear_hand_case(self):
        prof = adhoc_bandwidth(neighbors(np.array([[0.0], [1.0], [3.0]]), 2), k0=2)
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
            prof = adhoc_bandwidth(neighbors(pts, k0), k0=k0)
            assert np.allclose(prof.rho0, r)

    def test_circle_roughly_constant(self):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, 2 * np.pi, 1000)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        prof = adhoc_bandwidth(neighbors(pts, 8), k0=8)
        cv = prof.rho0.std() / prof.rho0.mean()
        assert cv < 0.5

    def test_duplicates_raise(self):
        pts = np.array([[0.0], [0.0], [0.0], [5.0]])
        with pytest.raises(ValueError, match="deduplicate"):
            adhoc_bandwidth(neighbors(pts, 3), k0=3)

    def test_needs_more_points_than_k0(self):
        pts = np.arange(5, dtype=float)[:, None]
        with pytest.raises(ValueError, match="more than"):
            adhoc_bandwidth(neighbors(pts, 5), k0=5)


class TestPairwiseKernelSum:
    def test_matches_brute_force(self):
        # a full-width table holds every pair: the all-pairs sum
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(300, 2))
        scales = 0.5 + rng.uniform(size=300)
        ks = PairwiseKernelSum(neighbors(pts, 300), scales, 2.0)
        eps_grid = np.logspace(-3, 2, 11)
        approx = ks(eps_grid)
        exact = brute_force_kernel_sum(pts, scales, 2.0, eps_grid)
        assert np.max(np.abs(approx / exact - 1.0)) < 2e-3

    def test_matches_the_table_sum(self):
        # a narrow table: the sum over its entries only
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(300, 2))
        scales = 0.5 + rng.uniform(size=300)
        nl = neighbors(pts, 30)
        eps_grid = np.logspace(-3, 2, 11)
        approx = PairwiseKernelSum(nl, scales, 2.0)(eps_grid)
        exact = table_kernel_sum(nl.indices, nl.distances, scales, 2.0, eps_grid)
        assert np.max(np.abs(approx / exact - 1.0)) < 2e-3

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(150, 3))
        ks = PairwiseKernelSum(neighbors(pts), np.ones(150), 4.0)
        grid = np.logspace(-8, 6, 120)
        t = ks(grid)
        n = 150
        assert np.all(t >= 1.0 / n - 1e-12)
        # the 8-wide table saturates at 8 / N
        assert np.all(t <= 8.0 / n + 1e-12)
        assert t[-1] == pytest.approx(8.0 / n, rel=1e-4)
        assert np.all(np.diff(t) >= -1e-15)

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError, match="positive"):
            PairwiseKernelSum(neighbors(np.zeros((3, 1)), 3), np.array([1.0, -1.0, 1.0]), 2.0)

    def test_single_repeated_point_degenerate(self):
        pts = np.zeros((5, 2))
        with pytest.raises(ValueError, match="repeated point"):
            PairwiseKernelSum(neighbors(pts, 5), np.ones(5), 2.0)

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
        nl = neighbors(pts, pts.shape[0])
        prof = adhoc_bandwidth(nl)
        ks = PairwiseKernelSum(nl, prof.rho0, 2.0)
        eps_grid = np.array([1e-9, 1e-8, 1e-7])
        exact = brute_force_kernel_sum(pts, prof.rho0, 2.0, eps_grid)
        assert np.max(np.abs(ks(eps_grid) / exact - 1.0)) < 2e-3

    @pytest.mark.parametrize("far, scale", [(1e100, 1.0), (1.0, 1e5), (1.0, 1e200), (1.0, 1e-200)],
                             ids=["ratio-overflows", "lower-bound-underflows",
                                  "scale-squared-overflows", "scale-squared-underflows"])
    def test_unbinnable_span_is_named(self, far, scale):
        # points 1e-117 apart beside one 1e100 away put the bound ratio past
        # 1.8e308; points 1e-160 apart with a scale of 1e5 put the lower
        # bound under the smallest double; a scale whose square overflows or
        # underflows divides a bound by inf or by 0
        pts = np.random.default_rng(4).normal(size=(300, 2))
        near = 1e-117 if far > 1.0 else 1e-160
        pts[:3] = [[0.0, 0.0], [near, 0.0], [far, 0.0]]
        scales = np.ones(300)
        scales[5] = scale
        with pytest.raises(ValueError, match="ratio beyond the double range"):
            PairwiseKernelSum(neighbors(pts), scales, 2.0)

    @pytest.mark.parametrize("block_entries", [4_000_000, 700], ids=["one-block", "uneven-blocks"])
    def test_table_histogram_equals_the_oracle(self, monkeypatch, block_entries):
        # the blocked counts must be the oracle's bit for bit; duplicated
        # points add zeros beside the N of self, and 700 entries spread the
        # 30-wide table over uneven blocks of 23 rows (74 = 3 * 23 + 5)
        monkeypatch.setattr(dataset_mod, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(7)
        base = rng.normal(size=(70, 2))
        pts = np.vstack([base, base[[3, 3, 10, 41]]])
        scales = 0.5 + rng.uniform(size=pts.shape[0])
        nl = neighbors(pts, 30)
        ks = PairwiseKernelSum(nl, scales, 2.0)
        counts, w_rep, zeros = table_histogram(nl.indices, nl.distances, scales, LOG_BIN_WIDTH)
        assert zeros == pts.shape[0] + 2 * (3 + 1 + 1)  # self, a triple, two pairs
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

        res = tune(kernel_sum)
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
            tune(lambda eps: np.ones_like(eps))

    def test_non_finite_raises(self):
        def kernel_sum(eps):
            out = np.full_like(eps, 0.01)
            out[0] = np.nan
            return out

        with pytest.raises(ValueError, match="non-finite"):
            tune(kernel_sum)

    def test_flat_slope_is_a_plateau(self):
        # slope 2 over the 225 intervals of the ramp: which one the argmax
        # takes is decided by rounding, and the result says so
        def kernel_sum(eps):
            return np.minimum(1e-3 * (eps / 1e-3) ** 2, 0.04)

        res = tune(kernel_sum)
        assert res.plateau
        assert res.d_est == pytest.approx(4.0)
        assert not res.boundary_warning

    def test_boundary_warning_at_grid_start(self):
        # the slope of log T falls from 1 at the grid's first interval on, so
        # the steepest rise sits there
        def kernel_sum(eps):
            return 0.04 * eps / (eps + 1e-3)

        res = tune(kernel_sum)
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
        nl, prof, res = tuned(pts)
        dens = kde(nl, prof, res.eps_star, 1.0)
        truth = 1.0 / (2 * np.pi)
        rel = np.abs(dens.q - truth) / truth
        assert np.mean(rel <= 0.15) >= 0.90

    def test_standard_normal_density(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(5000)[:, None]
        nl, prof, res = tuned(x)
        dens = kde(nl, prof, res.eps_star, 1.0)
        pdf = np.exp(-x[:, 0] ** 2 / 2) / np.sqrt(2 * np.pi)
        mask = np.abs(x[:, 0]) <= 2
        rel = np.abs(dens.q - pdf)[mask] / pdf[mask]
        # MC noise makes a pointwise-max criterion vacuous; hold 90% of the
        # bulk to the stated 20%
        assert np.mean(rel <= 0.20) >= 0.90

    @pytest.mark.parametrize("width", [30, 300], ids=["narrow", "full-width"])
    def test_matches_the_table_oracle(self, width):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(300, 2))
        nl = neighbors(pts, width)
        prof = adhoc_bandwidth(nl)
        dens = kde(nl, prof, 0.3, 2.0)
        assert np.allclose(dens.q, table_kde(nl.indices, nl.distances, prof.rho0, 0.3, 2.0),
                           rtol=1e-12, atol=0.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(400, 2))
        nl = neighbors(pts, 400)
        prof = adhoc_bandwidth(nl)
        eps, d = 2.0, 2.0
        base = kde(nl, prof, eps, d)
        s = 3.0
        scaled = kde(neighbors(pts * s, 400), prof, eps * s * s, d)
        assert np.allclose(scaled.q, base.q / s**d, rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(200, 2))
        perm = rng.permutation(200)
        nl = neighbors(pts, 200)
        prof = adhoc_bandwidth(nl)
        base = kde(nl, prof, 1.5, 2.0)
        nl_p = neighbors(pts[perm], 200)
        prof_p = adhoc_bandwidth(nl_p)
        assert np.allclose(prof_p.rho0, prof.rho0[perm])
        permuted = kde(nl_p, prof_p, 1.5, 2.0)
        assert np.allclose(permuted.q, base.q[perm])

    def test_positive_output_enforced(self):
        with pytest.raises(ValueError):
            BandwidthProfile(rho0=np.array([1.0, 0.0]))

    def test_bad_eps(self, circle_points_3000):
        nl = neighbors(circle_points_3000[:100])
        prof = adhoc_bandwidth(nl)
        with pytest.raises(ValueError, match="positive"):
            kde(nl, prof, -1.0, 1.0)


def test_default_grid_matches_prescription():
    grid = default_bandwidth_grid()
    assert grid.shape == (401,)
    assert grid[0] == pytest.approx(2.0**-30)
    assert grid[-1] == pytest.approx(2.0**10)
    assert grid[1] == pytest.approx(2.0**-29.9)
