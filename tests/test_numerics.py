import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import finite_diff_grad, pca_eigh, solved_quadratic
from qatkit.cli import parse_quant
from qatkit.experiments import make_quadratic_problem, run_quadratic
from qatkit.numerics import make_rng, make_spd, pca_project
from qatkit.objectives import rosenbrock, toy_scalar
from qatkit.optim import OptimConfig


class TestFiniteDiff:
    def test_toy_scalar_grad(self):
        f = lambda x: 0.5 * float((x[0] - 0.5) ** 2)
        g = finite_diff_grad(f, np.array([0.9]), h=1e-5)
        assert abs(g[0] - 0.4) <= 1e-8

    def test_constant_function(self):
        g = finite_diff_grad(lambda x: 3.0, np.array([1.0, -2.0, 0.3]))
        assert np.array_equal(g, np.zeros(3))

    def test_quadratic_matches_analytic(self):
        rng = make_rng(11)
        A = make_spd(5, 7.0, rng)[0]
        b = rng.standard_normal(5)
        obj = solved_quadratic(A, b)
        x = rng.standard_normal(5)
        g_fd = finite_diff_grad(obj.loss, x, h=1e-5)
        g = obj.grad(x)
        assert np.linalg.norm(g_fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_nonfinite_reports_index(self):
        def f(x):
            return float("nan") if x[1] > 1.0 else float(x @ x)

        with pytest.raises(FloatingPointError, match="coordinate 1"):
            finite_diff_grad(f, np.array([0.0, 1.0]), h=0.5)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.ones(2), h=0.0)


class TestMakeSpd:
    def test_kappa_one_is_identity(self):
        M = make_spd(3, 1.0, make_rng(0))[0]
        assert np.allclose(M, np.eye(3), atol=1e-12)

    def test_dim2_kappa100_eigenvalues(self):
        M = make_spd(2, 100.0, make_rng(1))[0]
        evals = np.linalg.eigvalsh(M)
        assert np.allclose(sorted(evals), [1.0, 100.0], rtol=1e-9)

    def test_condition_number_dim5(self):
        M = make_spd(5, 10.0, make_rng(2))[0]
        evals = np.linalg.eigvalsh(M)
        assert abs(evals[-1] / evals[0] - 10.0) <= 1e-4

    def test_measured_kappa_close(self):
        for seed, kappa in enumerate([1.0, 3.0, 10.0, 100.0]):
            M = make_spd(8, kappa, make_rng(seed))[0]
            evals = np.linalg.eigvalsh(M)
            assert abs(evals[-1] / evals[0] - kappa) <= 1e-6 * kappa

    def test_positive_definite_property(self):
        rng = make_rng(3)
        M = make_spd(6, 50.0, rng)[0]
        for _ in range(100):
            x = rng.standard_normal(6)
            while np.all(x == 0):
                x = rng.standard_normal(6)
            assert x @ M @ x > 0

    def test_symmetric(self):
        M = make_spd(7, 25.0, make_rng(4))[0]
        assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()

    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            make_spd(3, 0.5, make_rng(0))


class TestPca:
    def test_collinear_points(self):
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [-1.0, 0.0]])
        proj, comps = pca_project(pts, 2)
        assert np.allclose(comps[0], [1.0, 0.0], atol=1e-12)
        # no variance along the second component
        assert np.abs(proj[:, 1]).max() <= 1e-12

    def test_variance_ordering(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.1], [0.0, -0.1]])
        _, comps = pca_project(pts, 2)
        assert np.allclose(comps[0], [1.0, 0.0], atol=1e-12)

    def test_full_rank_roundtrip(self):
        rng = make_rng(5)
        pts = rng.standard_normal((50, 10))
        proj, comps = pca_project(pts, 10)
        recon = proj @ comps + pts.mean(axis=0)
        assert np.abs(recon - pts).max() <= 1e-8

    def test_components_orthonormal_property(self):
        rng = make_rng(6)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, d + 1))
            _, comps = pca_project(rng.standard_normal((n, d)), k)
            gram = comps @ comps.T
            assert np.abs(gram - np.eye(k)).max() <= 1e-10

    def test_sign_convention(self):
        rng = make_rng(7)
        for _ in range(20):
            _, comps = pca_project(rng.standard_normal((20, 5)), 3)
            for row in comps:
                nz = np.nonzero(np.abs(row) > 1e-12)[0]
                assert row[nz[0]] > 0

    def test_covariance_near_overflow_gives_finite_components(self):
        # two points: the covariance is t^2 / 2 u u^T, its largest entry within
        # 2x of the largest float, where C V on it unscaled would overflow
        fmax = np.finfo(np.float64).max
        u = np.array([1.0, -0.5, 0.25, 0.125])
        pts = np.vstack([np.zeros(4), np.sqrt(1.5) * np.sqrt(fmax) * u])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proj, comps = pca_project(pts, 2)
            Xc = pts - pts.mean(axis=0)
            assert fmax / 2 < np.abs(Xc.T @ Xc).max() < fmax
        assert np.isfinite(proj).all() and np.isfinite(comps).all()
        assert np.abs(comps[0] - u / np.linalg.norm(u)).max() <= 1e-15
        assert np.abs(comps @ comps.T - np.eye(2)).max() <= 1e-15

    @staticmethod
    def traced_peak(points):
        """Peak bytes ``pca_project(points, 2)`` allocates, under tracemalloc."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pca_project(points, 2)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_traced_peak_is_centred_points_and_covariance(self):
        # a bench-sized random walk: beside its input the PCA may hold the
        # centred points (n d doubles) and the covariance (d d doubles), plus
        # 512 KiB for the subspace blocks; one more (n, d) or (d, d) copy fails
        n, d = 1000, 512
        X = np.cumsum(make_rng(5).standard_normal((n, d)), axis=0)
        assert self.traced_peak(X) <= n * d * 8 + d * d * 8 + 512 * 1024

    def test_traced_peak_on_row_blocks_adds_no_copy(self):
        # the same walk as the lane's two phase blocks, the second a strided
        # view: the blocks are copied straight into the centred buffer
        n, d = 1000, 512
        X = np.cumsum(make_rng(5).standard_normal((n, d)), axis=0)
        blocks = (X[:900], np.repeat(X[900:], 2, axis=0)[::2])
        assert self.traced_peak(blocks) <= n * d * 8 + d * d * 8 + 512 * 1024

    def test_zero_variance_warns_not_raises(self):
        pts = np.ones((4, 3))
        with pytest.warns(RuntimeWarning):
            proj, _ = pca_project(pts, 2)
        assert np.abs(proj).max() == 0.0


# the quadratic lanes whose first-seed trajectories the CLI projects: the bench
# workloads (bench/workloads.py) with their steps cut, and the quadratic
# goldens (tests/test_golden.py) as run there, each with its CLI settings:
# (dim, quant, optimizers, kappas, steps, seeds, OptimConfig)
CLI_CFG = OptimConfig(lr=0.03, weight_decay=0.0, lam=2.0, silence_ratio=0.9)
PCA_LANES = {
    "bench-quadratic-int4": (64, "int-hadamard:4", ["adamw", "cage-adamw-dec"], (1.0, 10.0, 100.0), 100, (3, 4),
                             CLI_CFG),
    "bench-quadratic-mxfp4": (512, "mxfp4", ["adamw", "cage-adamw-cpl"], (1.0, 10.0, 100.0), 200, (3,), CLI_CFG),
    "golden-quadratic-int-hadamard": (12, "int-hadamard:4", ["adamw", "cage-adamw-dec", "cage-sgd"], (1.0, 100.0),
                                      60, (0, 1), CLI_CFG),
    "golden-quadratic-int-plain": (16, "int-plain:4", ["adamw", "cage-adamw-cpl"], (10.0,), 60, (2,), CLI_CFG),
    "golden-quadratic-none": (12, "none", ["sgd", "adamw", "cage-sgd", "cage-adamw-dec", "cage-adamw-cpl"],
                              (1.0, 100.0), 60, (0, 1),
                              OptimConfig(lr=0.03, weight_decay=0.1, lam=2.0, silence_ratio=0.5)),
}
# at kappa 1 with no quantizer, sgd and cage-sgd are gradient descent on
# A = I, so the trajectory lies on a line: pc2 is round-off and not unique
RANK_ONE = {("golden-quadratic-none", 1.0, "sgd"), ("golden-quadratic-none", 1.0, "cage-sgd")}


@pytest.mark.parametrize("lane", sorted(PCA_LANES))
def test_pca_matches_full_eigh_on_lane_trajectories(lane):
    dim, quant, optimizers, kappas, steps, seeds, cfg = PCA_LANES[lane]
    spec = parse_quant(quant)
    obj, x0 = make_quadratic_problem(dim, kappas, seeds)
    for kappa, runs in zip(kappas, run_quadratic(obj, x0, optimizers, steps, spec, cfg)):
        for name, run in zip(optimizers, runs):
            proj, comps = pca_project(run.iterates, 2)
            _, ref, evals = pca_eigh(np.concatenate(run.iterates), 2)
            assert ((lane, kappa, name) in RANK_ONE) == (evals[1] <= 1e-12 * evals[0]), (kappa, name)
            assert np.abs(comps[0] - ref[0]).max() <= 1e-10, (kappa, name)
            if (lane, kappa, name) in RANK_ONE:
                assert np.abs(proj[:, 1]).max() <= 1e-12 * np.abs(proj[:, 0]).max()
            else:
                assert np.abs(comps[1] - ref[1]).max() <= 1e-10, (kappa, name)


def test_fd_agreement_invariant_over_objectives():
    # 100 random points spread across the analytic objectives
    rng = make_rng(13)
    A = make_spd(5, 12.0, rng)[0]
    b = rng.standard_normal(5)
    objs = [solved_quadratic(A, b), toy_scalar(), rosenbrock(6)]
    checked = 0
    while checked < 100:
        obj = objs[checked % len(objs)]
        x = rng.standard_normal(obj.dim)
        g = obj.grad(x)
        g_fd = finite_diff_grad(obj.loss, x, h=1e-5)
        denom = max(1.0, float(np.linalg.norm(g)))
        assert np.linalg.norm(g_fd - g) / denom <= 1e-5
        checked += 1
