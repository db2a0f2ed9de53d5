"""The package's block rule: every output of the fit and of the true-model
ensemble is bitwise independent of ``dataset.BLOCK_ENTRIES``, and the
working memory of each sweep, of the kernel assembly and of the ensemble is
bounded by a few blocks, not by N^2, N * cap or every member at every
lead."""

import tracemalloc
import weakref
from dataclasses import astuple

import numpy as np
import pytest
import scipy.sparse as sp

import diffusion_forecast.baselines as baselines_mod
import diffusion_forecast.basis as basis_mod
import diffusion_forecast.dataset as dataset_mod
import diffusion_forecast.pipeline as pipeline_mod
from diffusion_forecast.baselines import GaussianState, ensemble_forecast
from diffusion_forecast.basis import BETA, build_vb_kernel
from diffusion_forecast.dataset import TimeSeries, knn
from diffusion_forecast.forecast import gaussian_density_values
from diffusion_forecast.pipeline import fit_forecaster
from diffusion_forecast.simulators import ODEModel, lorenz_model, simulate_lorenz63
from diffusion_forecast.tuning import (
    KERNEL_FLOOR,
    LOG_BIN_WIDTH,
    DensityEstimate,
    PairwiseKernelSum,
    _histogram_bounds,
    adhoc_bandwidth,
    kde,
    tune,
)

from _oracles import coo_vb_kernel


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


    def test_ensemble_is_bitwise_independent_of_the_block_size(self, monkeypatch):
        # 10 Lorenz states of 40 members at 10 substeps: the default block
        # holds them all, 3600 entries make blocks of 3 states (10 = 3 * 3 + 1)
        init = GaussianState.isotropic(simulate_lorenz63(400, seed=3).points[::40], 0.01)
        runs = {}
        for block_entries in (dataset_mod.BLOCK_ENTRIES, 3600):
            monkeypatch.setattr(dataset_mod, "BLOCK_ENTRIES", block_entries)
            states = []
            with monkeypatch.context() as mp:
                spy(mp, baselines_mod, "rk4_step_batch", lambda out: states.append(len(out) // 40))
                fc = ensemble_forecast(lorenz_model(), init, 40, 4, rng_seed=5, dt_sample=0.1,
                                       substeps=10)
            runs[block_entries] = states, fc.mean, fc.variance
        (one, *want), (split, *got) = runs.values()
        assert one == [10] * 4
        assert split == [3] * 12 + [1] * 4  # every lead of a block before the next block
        assert_bitwise_equal(got, want)

    def test_a_blown_up_member_of_a_later_block_names_its_state_in_the_batch(self, monkeypatch):
        # blocks of one state: state 2 blows up in the third block
        monkeypatch.setattr(dataset_mod, "BLOCK_ENTRIES", 10)
        model = ODEModel(dim=1, rhs=lambda x: (x * x,))
        init = GaussianState.isotropic(np.array([[0.0], [0.0], [50.0], [0.0]]), 1e-4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="member of state 2 at lead"):
                ensemble_forecast(model, init, 10, 6, rng_seed=0, dt_sample=1.0)


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
    outputs and a few blocks of doubles beyond them (WORK_BLOCKS unless a
    test says fewer). A whole N x N square of doubles is 18 MB, an (N, 200)
    table of them 2.4 MB."""

    N = 1500
    BLOCK = 20_000
    WORK_BLOCKS = 8

    @pytest.fixture
    def blocks(self, monkeypatch):
        monkeypatch.setattr(dataset_mod, "BLOCK_ENTRIES", self.BLOCK)

    @pytest.fixture
    def series(self, blocks):
        rng = np.random.default_rng(2)
        return TimeSeries(rng.normal(size=(self.N, 3)), tau=1.0)

    def bound(self, output_bytes, blocks=WORK_BLOCKS):
        return output_bytes + blocks * self.BLOCK * 8

    def test_knn(self, series):
        nl, peak = traced_peak(knn, series, 200)
        assert peak <= self.bound(nl.indices.nbytes + nl.distances.nbytes)

    def test_kernel_sum_histogram(self, series):
        nl = knn(series, 200)
        scales = adhoc_bandwidth(nl).rho0
        _, peak = traced_peak(PairwiseKernelSum, nl, scales, 2.0)
        # the bin arrays: counts, centres and a block's bincount
        w_lo, w_hi = _histogram_bounds(nl, scales)
        n_bins = int(np.ceil(np.log(w_hi / w_lo) / LOG_BIN_WIDTH)) + 1
        assert peak <= self.bound(3 * 8 * n_bins, blocks=3)

    def test_kde(self, series):
        nl = knn(series, 200)
        profile = adhoc_bandwidth(nl)
        tuning = tune(PairwiseKernelSum(nl, profile.rho0, 2.0))
        q, peak = traced_peak(kde, nl, profile, tuning.eps_star, tuning.d_est)
        assert peak <= self.bound(2 * q.q.nbytes, blocks=4)

    def test_kernel_assembly(self, series):
        # the table, traced since its allocation, is handed over and resized
        # into the kernel in place: beyond it the stage holds indptr (int32),
        # the blocks, and the transposes it inserts, gathered at 4 + 4 + 8
        # bytes each into a CSR of 12 bytes each, and then added as slots
        cap = 200
        eps = 0.05
        tracemalloc.start()
        try:
            nl = knn(series, cap)
            q = kde(nl, adhoc_bandwidth(nl), eps, 3.0)
            dropped = coo_vb_kernel(q.q, eps, BETA, nl.indices, nl.distances, KERNEL_FLOOR)[1]
            handoff = [nl]
            del nl
            live, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            k = build_vb_kernel(handoff.pop(), q, eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        inserted = k.nnz - (self.N * cap - dropped)
        assert dropped < 0.1 * self.N * cap < inserted  # the kernel outgrows the table
        assert peak - live <= self.bound(4 * (self.N + 1) + 32 * inserted)

    def test_batched_gaussian_density(self, series):
        # (N, B) values for B = 200 means: the result and a few blocks, not
        # an (N, B, D) array of differences
        means = series.points[:200] + 0.1
        values, peak = traced_peak(gaussian_density_values, series.points, means, 0.5)
        assert values.shape == (self.N, 200)
        assert peak <= self.bound(values.nbytes)

    def test_ensemble(self, blocks):
        # each lead's members are reduced to their moments before the next
        # step: beyond the moments, a block's stacked moments and their
        # concatenation, the forecast holds a few copies of one block's
        # members (6 states of 100 here), not all of them at every lead (3.9 MB)
        n_ens, substeps = 100, 10
        init = GaussianState.isotropic(simulate_lorenz63(400, seed=3).points[::10], 0.01)
        fc, peak = traced_peak(ensemble_forecast, lorenz_model(), init, n_ens, 40, rng_seed=0,
                               dt_sample=0.1, substeps=substeps)
        members = dataset_mod.rows_per_block(substeps * n_ens * 3) * n_ens * 3 * 8
        assert peak <= 3 * (fc.mean.nbytes + fc.variance.nbytes) + 8 * members


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

    def test_the_neighbor_list_is_freed_before_build_basis(self, monkeypatch):
        # its two arrays live on as the kernel's, so only the NeighborList
        # itself is watched: a weak reference to an array would stop its
        # resize in place
        table, seen = [], []
        real = pipeline_mod.knn

        def knn_spy(*args):
            nl = real(*args)
            table.append(weakref.ref(nl))
            return nl

        monkeypatch.setattr(pipeline_mod, "knn", knn_spy)
        self.check_at(monkeypatch, pipeline_mod, "build_basis", table, seen)
        fit_forecaster(circle_series(400), 5)
        assert seen == [[True]]

    # both route dense: lorenz at a larger M, and the small circle, where the
    # dense solve beats Lanczos
    @pytest.mark.parametrize("series, m",
                             [(lambda: simulate_lorenz63(400, seed=3), 40),
                              (lambda: circle_series(610), 5)], ids=["dense", "dense-circle"])
    def test_the_kernel_and_L_are_freed_before_the_dense_eigh(self, monkeypatch, series, m):
        ts = series()
        refs, seen = [], []
        self.watch(monkeypatch, pipeline_mod, "build_vb_kernel", refs)
        # _scale_in_place scales the kernel, which becomes L, twice, and the
        # dense path densifies a moved copy of L
        self.watch(monkeypatch, basis_mod, "_scale_in_place", refs, first_arg=True)
        self.watch(monkeypatch, sp.csr_matrix, "toarray", refs, first_arg=True)
        self.check_at(monkeypatch, basis_mod, "eigh", refs, seen,
                      when=lambda h, *args: h.shape[0] == ts.n_points)
        fit = fit_forecaster(ts, m)
        assert fit.solver.path == "dense"
        assert len(refs) == 16  # L at four calls, and its three arrays each time
        assert seen == [[True] * 16]

    def test_a_kernel_the_caller_holds_is_the_L_handed_to_the_eigensolver(self, monkeypatch):
        # the caller's kernel is normalized into L in its own arrays and
        # handed to the eigensolver as it is; the basis is the fit's bit for bit
        ts = simulate_lorenz63(400, seed=3)
        fit = fit_forecaster(ts, 40)
        density = DensityEstimate(q=fit.basis.peq)
        kernel = build_vb_kernel(knn(ts, 400), density, fit.vb_tuning.eps_star)
        solved = []
        real = basis_mod._top_eigenpairs

        def solve(l_sym, m, path):
            solved.append((path, l_sym is kernel, np.shares_memory(l_sym.data, kernel.data)))
            return real(l_sym, m, path)

        monkeypatch.setattr(basis_mod, "_top_eigenpairs", solve)
        basis, _ = basis_mod.build_basis(kernel, density, fit.vb_tuning.eps_star,
                                         fit.vb_tuning.d_est, 40)
        assert solved == [("dense", True, True)]
        for name in ("phi", "lam", "peq"):
            assert np.array_equal(getattr(basis, name), getattr(fit.basis, name))

