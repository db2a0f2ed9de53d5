import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import diffusion_forecast.basis as basis_mod
import diffusion_forecast.dataset as dataset_mod
from diffusion_forecast.basis import (
    BETA,
    EIG_RESIDUAL_TOL,
    NEIGHBOR_CAP,
    DiffusionBasis,
    build_basis,
    build_vb_kernel,
    _choose_eigensolver,
    _top_eigenpairs,
)
from diffusion_forecast.dataset import NeighborList, TimeSeries, knn
from diffusion_forecast.pipeline import fit_forecaster, load_model, save_model
from diffusion_forecast.simulators import SDEModel, euler_maruyama, simulate_lorenz63
from diffusion_forecast.tuning import KERNEL_FLOOR, DensityEstimate

from _oracles import coo_vb_kernel, lexsort_knn, sparse_product_operator


def uniform_density(n, value=1.0):
    return DensityEstimate(q=np.full(n, value))


def fit_density(fit):
    """The fit's density estimate, which its basis keeps as ``peq``."""
    return DensityEstimate(q=fit.basis.peq)


def benchmark_tiny_input(workload):
    """The training series and basis size of the benchmark's first pass at
    seed 0 and its tiny sizes (bench/workloads.py)."""
    ss = np.random.SeedSequence(0, spawn_key=(0,))
    if workload == "lorenz-skill":
        ts = simulate_lorenz63(600 + 100, seed=ss.spawn(2)[0])
        return TimeSeries(ts.points[:600], tau=ts.tau), 50
    sim_ss, p0_ss, _ = ss.spawn(3)
    brownian = SDEModel(dim=1, drift=lambda x: np.zeros_like(x),
                        diffusion=lambda x: np.full(x.shape[:-1] + (1, 1), np.sqrt(2.0)),
                        wrap=np.array([2.0 * np.pi]))
    theta0 = np.random.default_rng(p0_ss).uniform(0.0, 2.0 * np.pi, size=1)
    theta = euler_maruyama(brownian, theta0, 1.0, 2, 300, sim_ss).points[:, 0]
    return TimeSeries(np.column_stack([np.cos(theta), np.sin(theta)]), tau=1.0), 10


class TestBuildVbKernel:
    def test_coincident_points_give_unit_entry(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        ts = TimeSeries(pts, tau=1.0)
        k = build_vb_kernel(knn(ts, 3), uniform_density(3), eps=0.5)
        assert k[0, 1] == pytest.approx(1.0)
        assert k[1, 0] == pytest.approx(1.0)

    def test_uniform_density_reduces_to_fixed_bandwidth(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 2))
        ts = TimeSeries(pts, tau=1.0)
        const = 2.0
        eps = 0.7
        beta = -0.5
        k = build_vb_kernel(knn(ts, 40), uniform_density(40, const), eps=eps)
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.sum(diff * diff, axis=-1)
        expected = np.exp(-d2 / (4.0 * eps * const ** (2 * beta)))
        expected[expected < 1e-15] = 0.0
        assert np.allclose(k.toarray(), expected, atol=1e-14)

    def test_capped_equals_dense_when_cap_covers_all(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 3))
        ts = TimeSeries(pts, tau=1.0)
        q = DensityEstimate(q=0.5 + rng.uniform(size=200))
        k = build_vb_kernel(knn(ts, 200), q, eps=0.4)
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
        q = DensityEstimate(q=0.5 + rng.uniform(size=120))
        k = build_vb_kernel(knn(ts, 10), q, eps=0.2)
        assert (abs(k - k.T)).max() == 0.0

    def test_direct_csr_equals_the_coo_assembly(self, monkeypatch):
        # a bandwidth at which the floor drops 160 far entries while every
        # point keeps a neighbour; at 150 block entries the table is
        # assembled in row blocks of 7, the last of 4. build_vb_kernel
        # consumes its table, so each call gets a fresh one and the
        # reference is taken from it first; a hand-built table with int64
        # indices gives the same matrix
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 2))
        ts = TimeSeries(pts, tau=1.0)
        q = DensityEstimate(q=0.5 + rng.uniform(size=200))
        default = dataset_mod.BLOCK_ENTRIES
        for table, block_entries in (("knn", default), ("knn", 150), ("int64", default)):
            monkeypatch.setattr(dataset_mod, "BLOCK_ENTRIES", block_entries)
            nl = knn(ts, 20) if table == "knn" else NeighborList(*lexsort_knn(pts, 20))
            assert nl.indices.dtype == (np.int32 if table == "knn" else np.int64)
            ref, dropped = coo_vb_kernel(q.q, 1e-2, -0.5, nl.indices, nl.distances, KERNEL_FLOOR)
            assert dropped > 0
            k = build_vb_kernel(nl, q, eps=1e-2)
            assert k.has_canonical_format
            assert k.indptr.dtype == ref.indptr.dtype and k.indices.dtype == ref.indices.dtype
            assert k.indices.size == k.data.size == k.nnz  # arrays of the final size
            assert np.array_equal(k.indptr, ref.indptr)
            assert np.array_equal(k.indices, ref.indices)
            assert np.array_equal(k.data, ref.data)

    @pytest.mark.parametrize("table", ["held", "handed-over"])
    @pytest.mark.parametrize("block_entries", [None, 90], ids=["default-blocks", "small-blocks"])
    @pytest.mark.parametrize("case", ["non-mutual", "ties-at-the-cap", "shrink"])
    def test_symmetrization_equals_the_maximum_with_the_transpose(self, monkeypatch, case,
                                                                    block_entries, table):
        # non-mutual: a cloud with a sparse outer shell, where many of a
        # row's neighbours do not hold it; every row is at the cap, so the
        # kernel outgrows the table. ties: a 5 x 5 integer grid with about 12
        # copies of each point, so rows end inside a run of equal distances
        # and some entries are marked whose transposes are stored. shrink: a
        # jittered grid with a dense cluster, at a bandwidth at which the
        # floor drops most entries while grid points keep cluster points
        # whose rows, full of the cluster, do not hold them. A held table is
        # copied into the kernel, a handed-over one resized in place
        rng = np.random.default_rng(9)
        eps = 1.0
        if case == "ties-at-the-cap":
            pts = rng.integers(0, 5, size=(300, 2)).astype(float)
        elif case == "shrink":
            grid = np.stack(np.meshgrid(np.arange(25.0), np.arange(10.0)), axis=-1).reshape(-1, 2)
            pts = np.vstack([grid + rng.uniform(-0.3, 0.3, size=(250, 2)),
                             [12.0, 5.0] + rng.uniform(-0.2, 0.2, size=(50, 2))])
            eps = 0.015
        else:
            pts = rng.normal(size=(300, 2)) * rng.choice([1.0, 4.0], size=(300, 1), p=[0.8, 0.2])
        cap = 20
        ts = TimeSeries(pts, tau=1.0)
        q = DensityEstimate(q=0.5 + rng.uniform(size=300))
        nl = knn(ts, cap)
        ref, dropped = coo_vb_kernel(q.q, eps, -0.5, nl.indices, nl.distances, KERNEL_FLOOR)
        one_sided = {(i, int(j)) for i, row in enumerate(nl.indices) for j in row}
        lone = sum((j, i) not in one_sided for i, j in one_sided)
        if block_entries is not None:
            monkeypatch.setattr(dataset_mod, "BLOCK_ENTRIES", block_entries)
        if table == "held":
            k = build_vb_kernel(nl, q, eps=eps)
        else:
            handoff = [nl]
            del nl
            k = build_vb_kernel(handoff.pop(), q, eps=eps)
        assert lone > 0.1 * len(one_sided) if case == "non-mutual" else lone > 0
        if case == "shrink":
            assert dropped > 0.5 * 300 * cap and k.nnz > 300 * cap - dropped
        else:
            assert dropped == 0
        if case == "non-mutual":
            assert k.nnz > 300 * cap
        assert k.has_canonical_format
        assert k.indptr.dtype == ref.indptr.dtype and k.indices.dtype == ref.indices.dtype
        assert k.indices.size == k.data.size == k.nnz == ref.nnz  # arrays of the final size
        assert np.array_equal(k.indptr, ref.indptr)
        assert np.array_equal(k.indices, ref.indices)
        assert k.data.tobytes() == ref.data.tobytes()

    def test_an_entry_at_the_floor_is_decided_alike_on_both_sides(self):
        # points 0 and 1 are 1 apart, and at this eps k_01 sits at
        # KERNEL_FLOOR: the grouping (c qb_0) qb_1 of its denominator keeps
        # it and (c qb_1) qb_0 drops it, while c (qb_0 qb_1) gives both sides
        # the same bits, here just below the floor
        pts = np.array([[0.0], [1.0], [0.01], [0.99]])
        q = DensityEstimate(q=np.array([1.0943000301996968, 0.8379112255071333, 1.0, 1.0]))
        eps = 0.006931069774490162
        qb, c = q.q**-0.5, 4.0 * eps
        neg = np.array([-1.0])
        assert np.exp(neg / (c * qb[0] * qb[1]))[0] >= KERNEL_FLOOR > np.exp(neg / (c * qb[1] * qb[0]))[0]
        k_01 = np.exp(neg / (c * (qb[0] * qb[1])))[0]
        ts = TimeSeries(pts, tau=1.0)
        nl = knn(ts, 4)
        ref, _ = coo_vb_kernel(q.q, eps, -0.5, nl.indices, nl.distances, KERNEL_FLOOR)
        k = build_vb_kernel(nl, q, eps=eps)
        assert k_01 < KERNEL_FLOOR
        assert np.float64(k[0, 1]).tobytes() == np.float64(k[1, 0]).tobytes() == np.float64(0.0).tobytes()
        assert np.array_equal(k.indptr, ref.indptr)
        assert np.array_equal(k.indices, ref.indices)
        assert k.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("workload", ["circle-spectrum", "lorenz-skill"])
    def test_the_fit_kernel_is_symmetric_bit_for_bit(self, workload):
        ts, m = benchmark_tiny_input(workload)
        fit = fit_forecaster(ts, m)
        k = build_vb_kernel(knn(ts, min(ts.n_points, NEIGHBOR_CAP)), fit_density(fit),
                            fit.vb_tuning.eps_star)
        kt = k.T.tocsr()
        assert np.array_equal(k.indptr, kt.indptr) and np.array_equal(k.indices, kt.indices)
        assert k.data.tobytes() == kt.data.tobytes()

    def test_disconnected_point_raises(self):
        pts = np.vstack([np.zeros((5, 2)) + np.arange(5)[:, None] * 0.01,
                         [[100.0, 100.0]]])
        ts = TimeSeries(pts, tau=1.0)
        with pytest.raises(ValueError, match="disconnected"):
            build_vb_kernel(knn(ts, 6), uniform_density(6), eps=1e-4)


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
        kernel = build_vb_kernel(knn(circle_series_3000, 1024), fit_density(fit),
                                 fit.vb_tuning.eps_star)
        l_sym = sparse_product_operator(kernel, fit_density(fit), fit.vb_tuning.eps_star,
                                        fit.vb_tuning.d_est, BETA)
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
        density = fit_density(fit)
        kernel = build_vb_kernel(knn(circle_series_3000, 64), density, eps)
        # build_basis normalizes the kernel in place, so the oracle reads a copy
        want = sparse_product_operator(kernel.copy(), density, eps, d, -0.5)
        seen = []
        real = basis_mod._top_eigenpairs

        def solve(l_sym, m, route):
            seen.append(l_sym.copy())
            return real(l_sym, m, route)

        monkeypatch.setattr(basis_mod, "_top_eigenpairs", solve)
        build_basis(kernel, density, eps, d, 4)
        (got,) = seen
        assert got.has_sorted_indices and want.has_sorted_indices
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)  # bitwise: the same operation order

    def test_the_kernel_it_is_handed_is_the_L_it_solves(self, monkeypatch, circle_series_3000,
                                                        circle_fit_3000):
        # the L that reaches the eigensolver is the kernel passed in,
        # normalized in its own arrays
        fit = circle_fit_3000
        kernel = build_vb_kernel(knn(circle_series_3000, 64), fit_density(fit),
                                 fit.vb_tuning.eps_star)
        shared = []
        real = basis_mod._top_eigenpairs

        def solve(l_sym, m, route):
            shared.append([np.shares_memory(getattr(l_sym, name), getattr(kernel, name))
                           for name in ("indptr", "indices", "data")])
            return real(l_sym, m, route)

        monkeypatch.setattr(basis_mod, "_top_eigenpairs", solve)
        build_basis(kernel, fit_density(fit), fit.vb_tuning.eps_star, fit.vb_tuning.d_est, 4)
        assert shared == [[True, True, True]]

    def test_m_out_of_range(self, circle_series_3000, circle_fit_3000):
        fit = circle_fit_3000
        kernel = build_vb_kernel(knn(circle_series_3000, 64), fit_density(fit),
                                 fit.vb_tuning.eps_star)
        with pytest.raises(ValueError, match="out of range"):
            build_basis(kernel, fit_density(fit), fit.vb_tuning.eps_star, 1.0, 999999)

    def test_density_of_another_length_is_rejected(self, circle_series_3000, circle_fit_3000):
        fit = circle_fit_3000
        kernel = build_vb_kernel(knn(circle_series_3000, 64), fit_density(fit),
                                 fit.vb_tuning.eps_star)
        with pytest.raises(ValueError, match=r"kernel of shape \(3000, 3000\) does not match "
                                             r"the density estimate of shape \(2999,\)"):
            build_basis(kernel, DensityEstimate(q=fit.basis.peq[1:]), fit.vb_tuning.eps_star,
                        fit.vb_tuning.d_est, 4)


class TestSpectralEdge:
    def test_circle_basis_is_below_the_edge(self, circle_fit_3000):
        basis, record = circle_fit_3000.basis, circle_fit_3000.solver
        # Dhat = eps q^(2 beta), from the tuned vb eps, the basis's peq and BETA
        eps = circle_fit_3000.vb_tuning.eps_star
        assert record.lambda_edge == (1.0 / (eps * basis.peq ** (2.0 * BETA))).min()
        assert record.lambda_edge == pytest.approx(114, rel=0.01)
        assert record.m_eff == np.count_nonzero(basis.lam < record.lambda_edge) == 10

    @pytest.mark.parametrize("n, m, m_eff", [(3000, 10, 10), (300, 40, 24)])
    def test_basis_past_the_edge_warns_once(self, caplog, circle_points_3000, n, m, m_eff):
        with caplog.at_level(logging.WARNING, logger="diffusion_forecast.basis"):
            fit = fit_forecaster(TimeSeries(circle_points_3000[:n], tau=1.0), n_basis=m)
        edge = fit.solver.lambda_edge
        assert fit.solver.m_eff == np.count_nonzero(fit.basis.lam < edge) == m_eff
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
        vals_dense, vecs_dense, dense_matvecs, dense_residual = _top_eigenpairs(sym, m, "dense")
        vals_iter, vecs_iter, matvecs, residual = _top_eigenpairs(sym, m, "lanczos")
        assert dense_matvecs == 0 and dense_residual is None
        assert matvecs > 0 and residual <= EIG_RESIDUAL_TOL
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
        # operators captured from real fits, with the faster solver measured
        # on each (one BLAS thread)
        (3000, 980, 30, "dense"),      # circle: 2.06 s dense
        (2000, 873, 10, "dense"),      # lorenz seed 0: 0.68 s dense
        (2000, 1063, 10, "dense"),     # lorenz seed 1
        (610, 197, 5, "dense"),        # small circle: 0.022 s dense
        (610, 195, 2, "dense"),        # small circle at M < 5, where ncv stays 20
        (610, 195, 3, "dense"),
        (8000, 1118, 30, "lanczos"),   # desk torus
        (8000, 1118, 60, "lanczos"),   # desk torus: 44 s Lanczos, 66 s dense
        (8000, 1118, 100, "dense"),    # desk torus past the edge
    ])
    def test_rule_routes_by_size(self, n, nnz_per_row, m, path):
        assert _choose_eigensolver(n, n * nnz_per_row, m) == path

    @pytest.mark.parametrize("nnz_per_row", [3, 1024, 20000])
    def test_rule_goes_unbudgeted_where_dense_does_not_fit(self, nnz_per_row):
        # paper scale: the 20000 x 20000 matrix and eigh's copy take 6.4 GB
        assert _choose_eigensolver(20000, 20000 * nnz_per_row, 1000) == "lanczos"

    def test_each_route_calls_one_eigh(self, monkeypatch):
        sym = self.operator(300)
        eighs = count_calls(monkeypatch, basis_mod, "eigh")
        arpack = count_calls(monkeypatch, basis_mod.spla, "eigsh")
        _top_eigenpairs(sym, 10, _choose_eigensolver(300, sym.nnz, 10))
        assert len(eighs) == 1 and eighs[0][0].shape == (300, 300) and not arpack
        _top_eigenpairs(sym, 10, "lanczos")
        # the Rayleigh-Ritz finish over the k = 2m Lanczos vectors
        assert len(eighs) == 2 and eighs[1][0].shape == (20, 20) and len(arpack) == 1

    @staticmethod
    def no_convergence(monkeypatch):
        def eigsh(op, k, **kwargs):
            for _ in range(5):
                op.matvec(np.ones(op.shape[0]))
            raise spla.ArpackNoConvergence("no convergence", np.zeros(1), np.zeros((op.shape[0], 1)))

        monkeypatch.setattr(basis_mod.spla, "eigsh", eigsh)

    def test_unbudgeted_no_convergence_raises(self, monkeypatch):
        # the one Lanczos route raises, and never goes on to a dense eigh,
        # whether or not the dense matrix would fit in memory
        self.no_convergence(monkeypatch)
        eighs = count_calls(monkeypatch, basis_mod, "eigh")
        with pytest.raises(RuntimeError, match="did not converge: 1/12 eigenpairs converged "
                                               "after 5 matvecs"):
            _top_eigenpairs(self.operator(), 6, "lanczos")
        assert not eighs

    def test_residual_gate_raises(self, monkeypatch):
        sym = self.operator()

        def eigsh(op, k, **kwargs):
            # an orthonormal basis of a random subspace, not an invariant one
            z, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(op.shape[0], k)))
            return np.zeros(k), z

        monkeypatch.setattr(basis_mod.spla, "eigsh", eigsh)
        with pytest.raises(RuntimeError, match="residual"):
            _top_eigenpairs(sym, 6, "lanczos")

    def test_fit_records_its_solver(self, circle_fit_3000):
        record = circle_fit_3000.solver
        assert record.path == "lanczos"
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


def test_diffusion_basis_shape_validation():
    with pytest.raises(ValueError):
        DiffusionBasis(phi=np.ones((5, 2)), lam=np.zeros(3), peq=np.ones(5))
