"""The fit's block rule: every output is bitwise independent of
``dataset.BLOCK_ENTRIES``, and the working memory of each sweep and of the
kernel assembly is bounded by a few blocks, not by N^2 or N * cap."""

import tracemalloc
import weakref
from dataclasses import astuple

import numpy as np
import pytest

import diffusion_forecast.basis as basis_mod
import diffusion_forecast.dataset as dataset_mod
import diffusion_forecast.pipeline as pipeline_mod
from diffusion_forecast.basis import build_vb_kernel
from diffusion_forecast.dataset import TimeSeries, knn
from diffusion_forecast.forecast import gaussian_density_values
from diffusion_forecast.pipeline import fit_forecaster
from diffusion_forecast.simulators import simulate_lorenz63
from diffusion_forecast.tuning import (
    LOG_BIN_WIDTH,
    DensityEstimate,
    PairwiseKernelSum,
    _histogram_bounds,
    adhoc_bandwidth,
    kde,
    tune,
)


def circle_series(n, seed=11):
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n)
    return TimeSeries(np.column_stack([np.cos(theta), np.sin(theta)]), tau=1.0)


def spy(monkeypatch, owner, name, record):
    """Replace owner.name with a wrapper that hands each result to ``record``."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        record(out)
        return out

    monkeypatch.setattr(owner, name, wrapper)


def fit_arrays(monkeypatch, ts, m):
    """fit_forecaster's outputs and the arrays of every stage inside it."""
    got = {}

    def table(nl):
        got["knn"] = (nl.indices.copy(), nl.distances.copy())

    def histogram(ks):
        got.setdefault("histograms", []).append((ks._counts, ks._w_rep, ks._zero_count))

    def kernel(k):
        got["kernel"] = (k.indptr.copy(), k.indices.copy(), k.data.copy())

    real_solve = basis_mod._top_eigenpairs

    def solve(l_sym, m_, route):
        got["L"] = (l_sym.indptr.copy(), l_sym.indices.copy(), l_sym.data.copy(), route)
        return real_solve(l_sym, m_, route)

    with monkeypatch.context() as mp:
        spy(mp, pipeline_mod, "knn", table)
        spy(mp, pipeline_mod, "PairwiseKernelSum", histogram)
        spy(mp, pipeline_mod, "build_vb_kernel", kernel)
        mp.setattr(basis_mod, "_top_eigenpairs", solve)
        fit = fit_forecaster(ts, m)
    got.update(phi=fit.basis.phi, lam=fit.basis.lam, peq=fit.basis.peq,
               a=fit.operator.a, solver=astuple(fit.solver))
    return got


def assert_bitwise_equal(a, b, where=""):
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bitwise_equal(x, y, f"{where}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, float) and np.isnan(a):
        assert np.isnan(b), where
    else:
        assert a == b, where


class TestBlockInvariance:
    # circle: the Lanczos path (its matvec count is compared), taken by
    # order because the rule routes a 610-point circle dense; lorenz: the
    # dense path with a larger M
    @pytest.mark.parametrize("series, m, arpack", [(lambda: circle_series(610), 2, True),
                                                   (lambda: simulate_lorenz63(610, seed=3), 40, False)],
                             ids=["circle", "lorenz"])
    def test_fit_is_bitwise_independent_of_the_block_size(self, monkeypatch, series, m, arpack):
        ts = series()
        n = ts.n_points
        if arpack:
            monkeypatch.setattr(basis_mod, "_choose_eigensolver", lambda *args: "lanczos")
        default = dataset_mod.BLOCK_ENTRIES
        runs = {}
        # the default; 2000 entries, uneven blocks of 3 rows (610 = 203 * 3 + 1)
        # in the kNN search and in every pass over the 610-wide table; one
        # block holding everything
        for block_entries in (default, 2000, n * n):
            monkeypatch.setattr(dataset_mod, "BLOCK_ENTRIES", block_entries)
            runs[block_entries] = fit_arrays(monkeypatch, ts, m)
        want = runs.pop(default)
        assert len(want["histograms"]) == 2
        assert (want["solver"][1] > 0) == arpack  # the record's matvec count
        for block_entries, got in runs.items():
            assert got.keys() == want.keys()
            for key in want:
                assert_bitwise_equal(got[key], want[key], f"{key} at {block_entries} entries")


def traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak of traced memory above what was live when
    it was called, in bytes."""
    tracemalloc.start()
    try:
        live, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - live


class TestBoundedMemory:
    """At N = 1500 with 20000-entry (160 kB) blocks, each stage may hold its
    outputs and WORK_BLOCKS blocks of doubles beyond them. A whole N x N
    square of doubles is 18 MB, an (N, 200) table of them 2.4 MB."""

    N = 1500
    BLOCK = 20_000
    WORK_BLOCKS = 8

    @pytest.fixture
    def series(self, monkeypatch):
        monkeypatch.setattr(dataset_mod, "BLOCK_ENTRIES", self.BLOCK)
        rng = np.random.default_rng(2)
        return TimeSeries(rng.normal(size=(self.N, 3)), tau=1.0)

    def bound(self, output_bytes):
        return output_bytes + self.WORK_BLOCKS * self.BLOCK * 8

    def test_knn(self, series):
        nl, peak = traced_peak(knn, series, 200)
        assert peak <= self.bound(nl.indices.nbytes + nl.distances.nbytes)

    def test_kernel_sum_histogram(self, series):
        nl = knn(series, 200)
        scales = adhoc_bandwidth(nl).rho0
        _, peak = traced_peak(PairwiseKernelSum, nl, scales, 2.0)
        # the bin arrays: counts, centres, a block's bincount and the kept bins
        w_lo, w_hi = _histogram_bounds(nl, scales)
        n_bins = int(np.ceil(np.log(w_hi / w_lo) / LOG_BIN_WIDTH)) + 1
        assert peak <= self.bound(6 * 8 * n_bins)

    def test_kde(self, series):
        nl = knn(series, 200)
        profile = adhoc_bandwidth(nl)
        tuning = tune(PairwiseKernelSum(nl, profile.rho0, 2.0))
        q, peak = traced_peak(kde, nl, profile, tuning.eps_star, tuning.d_est)
        assert peak <= self.bound(2 * q.q.nbytes)

    def test_kernel_assembly(self, monkeypatch, series):
        # up to the symmetrization: the one-sided CSR arrays, N * cap slots
        # of an 8-byte value and a 4-byte index, and the blocks
        cap = 200
        nl = knn(series, cap)
        q = kde(nl, adhoc_bandwidth(nl), 0.05, 3.0)
        before_symmetrization = []
        real_symmetrize = basis_mod._symmetrize

        def symmetrize(*args):
            before_symmetrization.append(tracemalloc.get_traced_memory()[1])
            return real_symmetrize(*args)

        monkeypatch.setattr(basis_mod, "_symmetrize", symmetrize)
        tracemalloc.start()
        try:
            live, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            k = build_vb_kernel(nl, q, 0.05)
        finally:
            tracemalloc.stop()
        assert k.nnz > 0.9 * self.N * cap  # the floor drops few entries here
        (peak,) = before_symmetrization
        assert peak - live <= self.bound(self.N * cap * 12 + 8 * (self.N + 1))


    def test_batched_gaussian_density(self, series):
        # (N, B) values for B = 200 means: the result and a few blocks, not
        # an (N, B, D) array of differences
        means = series.points[:200] + 0.1
        values, peak = traced_peak(gaussian_density_values, series.points, means, 0.5)
        assert values.shape == (self.N, 200)
        assert peak <= self.bound(values.nbytes)


class TestLifetimes:
    """The fit hands each large array on as its only reference, so that it is
    freed before the next stage's peak."""

    @staticmethod
    def watch(monkeypatch, owner, name, refs, first_arg=False):
        """Keep weak references to what owner.name returns (or to its first
        argument) and to its arrays, without holding any of them."""
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            obj = args[0] if first_arg else out
            refs.append(weakref.ref(obj))
            refs.extend(weakref.ref(getattr(obj, a)) for a in ("indices", "distances", "indptr", "data")
                        if hasattr(obj, a))
            return out

        monkeypatch.setattr(owner, name, wrapper)

    @staticmethod
    def check_at(monkeypatch, owner, name, refs, seen, when=lambda *args: True):
        """Record, at each call of owner.name that ``when`` accepts, whether
        every object in ``refs`` is already freed."""
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if when(*args):
                seen.append([ref() is None for ref in refs])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def test_the_table_is_freed_before_the_symmetrization(self, monkeypatch):
        table, seen = [], []
        self.watch(monkeypatch, pipeline_mod, "knn", table)
        self.check_at(monkeypatch, basis_mod, "_symmetrize", table, seen)
        fit_forecaster(circle_series(400), 5)
        assert len(table) == 3  # the NeighborList and its two arrays
        assert seen == [[True] * 3]

    # both route dense: lorenz at a larger M, and the small circle, where the
    # dense solve beats Lanczos
    @pytest.mark.parametrize("series, m",
                             [(lambda: simulate_lorenz63(400, seed=3), 40),
                              (lambda: circle_series(610), 5)], ids=["dense", "dense-circle"])
    def test_the_kernel_and_L_are_freed_before_the_dense_eigh(self, monkeypatch, series, m):
        ts = series()
        refs, seen = [], []
        self.watch(monkeypatch, pipeline_mod, "build_vb_kernel", refs)
        # _scale_in_place scales build_basis's copy of the kernel, L, twice
        self.watch(monkeypatch, basis_mod, "_scale_in_place", refs, first_arg=True)
        self.check_at(monkeypatch, basis_mod, "eigh", refs, seen,
                      when=lambda h, *args: h.shape[0] == ts.n_points)
        fit = fit_forecaster(ts, m)
        assert fit.solver.path == "dense"
        assert len(refs) == 12  # three matrices and their three arrays each
        assert seen == [[True] * 12]

    def test_a_kernel_the_caller_holds_is_left_unchanged(self, monkeypatch):
        ts = simulate_lorenz63(400, seed=3)
        fit = fit_forecaster(ts, 40)
        density = DensityEstimate(q=fit.basis.peq)
        kernel = build_vb_kernel(knn(ts, 400), density, fit.vb_tuning.eps_star)
        before = [a.copy() for a in (kernel.indptr, kernel.indices, kernel.data)]
        operator, seen = [], []
        self.watch(monkeypatch, basis_mod, "_scale_in_place", operator, first_arg=True)
        self.check_at(monkeypatch, basis_mod, "eigh", operator, seen,
                      when=lambda h, *args: h.shape[0] == ts.n_points)
        basis_mod.build_basis(kernel, density, fit.vb_tuning.eps_star, fit.vb_tuning.d_est, 40)
        assert seen == [[True] * 8]  # L is freed all the same
        for was, now in zip(before, (kernel.indptr, kernel.indices, kernel.data)):
            assert was.dtype == now.dtype and np.array_equal(was, now)
