import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import loss_acc, loss_balance, loss_energy
from sonolens import lensmap
from sonolens.grid import (
    FORM_CLEAR, WATER, GridSpec, disk_source, full_plane_source,
)
from sonolens.lensmap import DesignField
from sonolens.medium import make_homogeneous
from sonolens.optim import (
    Adam,
    OptimConfig,
    TargetSpec,
    descend,
    gradcheck,
    lens_objective,
    loss_and_gradient,
    optimize_lens_geometry,
)
from sonolens.solver import SolverConfig, prepare


REPO = Path(__file__).resolve().parents[1]


def make_grid(nx=16, ny=16, nz=24, d=125e-6):
    return GridSpec(nx, ny, nz, d, d, d, 2e6, 1500.0)


def target_from_array(a):
    centers = [tuple(int(v) for v in np.argwhere(a == 1.0)[0])]
    return TargetSpec(a, centers)


class TestLossAcc:
    def test_proportional_is_zero(self):
        a = np.zeros((4, 4, 4))
        a[1, 1, 1] = 1.0
        a[2, 2, 2] = 1.0
        p = 3.0 * a  # |P|^2 proportional to a^2
        assert loss_acc(p, target_from_array(a)) == pytest.approx(0.0, abs=1e-12)

    def test_off_target_support_is_one(self):
        a = np.zeros((4, 4, 4))
        a[0, 0, 0] = 1.0
        p = np.zeros((4, 4, 4), dtype=complex)
        p[3, 3, 3] = 5.0
        assert loss_acc(p, target_from_array(a)) == pytest.approx(1.0)

    def test_two_voxel_hand_value(self):
        # A^2 = (1, 0), |P|^2 = (1, 1) -> 1 - 1/sqrt(2) = 0.2929
        a = np.zeros((2, 1, 1))
        a[0, 0, 0] = 1.0
        p = np.ones((2, 1, 1), dtype=complex)
        assert loss_acc(p, target_from_array(a)) == pytest.approx(
            1.0 - 1.0 / np.sqrt(2.0), abs=1e-6
        )
        assert loss_acc(p, target_from_array(a)) == pytest.approx(0.2929, abs=1e-4)

    def test_zero_field_defined_as_one(self):
        a = np.zeros((2, 2, 2))
        a[0, 0, 0] = 1.0
        assert loss_acc(np.zeros((2, 2, 2), dtype=complex),
                        target_from_array(a)) == 1.0

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(0)
        a = (rng.random((4, 4, 4)) > 0.7).astype(float)
        a[0, 0, 0] = 1.0
        p = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
        t = target_from_array(a)
        assert loss_acc(p, t) == loss_acc(7.0 * p, t)


class TestLossEnergy:
    def test_unit_amplitude(self):
        a = np.zeros((3, 3, 3))
        a[1, 1, 1] = a[2, 2, 2] = 1.0
        p = np.ones((3, 3, 3), dtype=complex)
        assert loss_energy(p, target_from_array(a)) == pytest.approx(-1.0)

    def test_zero_field(self):
        a = np.zeros((3, 3, 3))
        a[1, 1, 1] = 1.0
        assert loss_energy(np.zeros((3, 3, 3), dtype=complex),
                           target_from_array(a)) == 0.0

    def test_two_voxel_mean(self):
        # |P| = (2, 4) on the two target voxels -> -3
        a = np.zeros((2, 1, 1))
        a[:, 0, 0] = 1.0
        p = np.array([2.0, 4.0]).reshape(2, 1, 1).astype(complex)
        assert loss_energy(p, target_from_array(a)) == pytest.approx(-3.0, abs=1e-6)


class TestLossBalance:
    def test_uniform_is_zero(self):
        a = np.zeros((3, 3, 3))
        a[0, 0, 0] = a[1, 1, 1] = 1.0
        p = np.full((3, 3, 3), 2.0, dtype=complex)
        assert loss_balance(p, target_from_array(a)) == 0.0

    def test_two_point_std(self):
        # intensities (1, 3) -> population std = 1
        a = np.zeros((2, 1, 1))
        a[:, 0, 0] = 1.0
        p = np.sqrt(np.array([1.0, 3.0])).reshape(2, 1, 1).astype(complex)
        assert loss_balance(p, target_from_array(a)) == pytest.approx(1.0, abs=1e-6)

    def test_single_voxel_degenerate(self):
        a = np.zeros((3, 3, 3))
        a[1, 1, 1] = 1.0
        rng = np.random.default_rng(1)
        p = rng.normal(size=(3, 3, 3)).astype(complex)
        assert loss_balance(p, target_from_array(a)) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        a = np.zeros((4, 4, 4))
        a[rng.random((4, 4, 4)) > 0.5] = 1.0
        a[0, 0, 0] = 1.0
        p = rng.normal(size=(4, 4, 4)).astype(complex)
        t = target_from_array(a)
        q = p.copy()
        q[a == 0] = rng.normal(size=int((a == 0).sum()))
        # changing off-target voxels leaves the balance term unchanged
        assert loss_balance(p, t) == loss_balance(q, t)


class TestLossGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = np.zeros((5, 5, 5))
        a[2, 2, 2] = a[1, 3, 4] = 1.0
        t = target_from_array(a)
        values = rng.normal(size=(5, 5, 5)) + 1j * rng.normal(size=(5, 5, 5))
        le, lb = 0.2, 0.5
        _, _, _, upstream = loss_and_gradient(values, t, le, lb)

        def total(v):
            return (loss_acc(v, t) + le * loss_energy(v, t)
                    + lb * loss_balance(v, t))

        eps = 1e-6
        rng2 = np.random.default_rng(4)
        for _ in range(8):
            idx = tuple(rng2.integers(0, 5, size=3))
            for direction in (1.0, 1j):
                vp = values.copy(); vp[idx] += eps * direction
                vm = values.copy(); vm[idx] -= eps * direction
                fd = (total(vp) - total(vm)) / (2 * eps)
                # pairing dL = Re(g * dP)
                analytic = np.real(upstream[idx] * direction)
                assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-9)

    @staticmethod
    def loss_case(kind):
        rng = np.random.default_rng(9)
        shape = (6, 5, 7)
        a = np.zeros(shape)
        a[1:3, 1:4, 2:5] = 1.0
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if kind == "fractional":
            a[4, 0:3, 1:6] = rng.uniform(0.05, 0.95, size=(3, 5))
        elif kind == "zero_on_support":
            a[4, 1, 1:4] = 0.5
            values[1, 2, 2:5] = 0.0
            values[4, 1, 2] = 0.0
        elif kind == "zero_field":            # sum |P|^4 == 0
            values[:] = 0.0
        elif kind == "uniform_on_active_set":  # std == 0
            values[a == 1.0] = -2.0j
        return target_from_array(a), values

    @pytest.mark.parametrize("kind", ["fractional", "zero_on_support",
                                      "zero_field", "uniform_on_active_set"])
    def test_matches_full_grid_oracle(self, kind):
        t, values = self.loss_case(kind)
        got = loss_and_gradient(values, t, 0.2, 0.5)
        ref = oracles.loss_and_gradient(values, t, 0.2, 0.5)
        for x, y in zip(got[:3], ref[:3]):
            assert abs(x - y) <= 1e-12 * abs(y)
        scale = np.abs(ref[3]).max()
        assert np.abs(got[3] - ref[3]).max() <= 1e-12 * scale
        if kind == "zero_field":
            assert got[0] == 1.0 and not np.any(got[3])
        if kind == "uniform_on_active_set":
            assert got[2] == 0.0

    @staticmethod
    def assert_bitwise_equal(got, ref):
        assert all(x == y for x, y in zip(got[:3], ref[:3]))
        assert got[3].shape == ref[3].shape
        assert np.array_equal(got[3], ref[3])

    @pytest.mark.parametrize("kind", ["fractional", "zero_on_support",
                                      "zero_field", "uniform_on_active_set"])
    def test_bitwise_equal_to_the_support_oracle(self, kind):
        t, values = self.loss_case(kind)
        before = values.copy()
        self.assert_bitwise_equal(
            loss_and_gradient(values, t, 0.2, 0.5),
            oracles.loss_and_gradient_on_support(values, t, 0.2, 0.5))
        assert np.array_equal(values, before)

    @staticmethod
    def skull_sized_case():
        # a random field on the skull benchmark's 64 x 64 x 96 grid, three
        # foci and a half-amplitude block on the support
        rng = np.random.default_rng(21)
        shape = (64, 64, 96)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a = np.zeros(shape)
        for x in (20, 32, 44):
            a[x - 2 : x + 3, 30:35, 60:66] = 1.0
        a[30:34, 10:14, 20:24] = 0.5
        return TargetSpec(a, [(20, 32, 62), (32, 32, 62), (44, 32, 62)]), values

    def test_bitwise_equal_to_the_support_oracle_at_64x64x96(self):
        t, values = self.skull_sized_case()
        self.assert_bitwise_equal(
            loss_and_gradient(values, t, 0.2, 0.5),
            oracles.loss_and_gradient_on_support(values, t, 0.2, 0.5))

    def test_one_float_array_and_the_cotangent_at_the_peak(self):
        # besides the field, at most one full-grid float array (8 bytes a
        # voxel) and the complex cotangent (16) are allocated at once;
        # spare |P|, |P|^2 and 2 w copies took 48 bytes a voxel. The field
        # is in a run's layout, slice-major (nz, nx, ny) viewed as (nx, ny,
        # nz), which the loss reads without a copy
        t, values = self.skull_sized_case()
        values = np.ascontiguousarray(
            values.transpose(2, 0, 1)).transpose(1, 2, 0)
        tracemalloc.start()
        try:
            loss_and_gradient(values, t, 0.2, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 24 * values.size

    def test_report_recombines_exactly(self):
        # the report records each objective's own total beside its terms;
        # the weighted sum is formed once, in loss_and_adjoint
        cfg = OptimConfig(iterations=2, lambda_energy=0.2, lambda_balance=0.5)
        totals = [1.0, 0.3 + 0.2 * (-1.0) + 0.5 * 0.25]

        def objective(x, it):
            return totals[it], np.zeros_like(x), (0.3, -1.0, 0.25), None

        _, report, _ = descend(objective, np.zeros(2), cfg)
        assert report.total == totals
        assert report.acc == [0.3, 0.3] and report.energy == [-1.0, -1.0]
        assert report.balance == [0.25, 0.25]


class TestTargetSpec:
    def test_requires_active_voxel(self):
        with pytest.raises(ValueError, match="active"):
            TargetSpec(np.full((2, 2, 2), 0.5), [(0, 0, 0)])

    def test_amplitude_bounds(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = 1.5
        with pytest.raises(ValueError):
            TargetSpec(bad, [(0, 0, 0)])

    def test_from_spheres(self):
        g = make_grid()
        t = TargetSpec.from_spheres(g, [(8 * g.dx, 8 * g.dy, 12 * g.dz)],
                                    1.6 * g.dx)
        assert t.a_target[8, 8, 12] == 1.0
        assert t.focus_centers == [(8, 8, 12)]


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        adam = Adam()
        theta = np.ones((4, 4))
        out = adam.step(theta, np.zeros((4, 4)))
        assert np.array_equal(out, theta)

    def test_step_direction(self):
        adam = Adam(lr=0.1)
        theta = np.zeros((2, 2))
        grad = np.array([[1.0, -1.0], [2.0, -2.0]])
        out = adam.step(theta, grad)
        assert np.all(np.sign(out) == -np.sign(grad))


class TestGradcheck:
    def test_quadratic_toy(self):
        A = np.diag([1.0, 2.0, 3.0, 4.0])

        def fn(x):
            return 0.5 * x @ A @ x, A @ x

        err = gradcheck(fn, np.array([1.0, -2.0, 0.5, 3.0]), step=1e-5,
                        n_coords=4)
        assert err < 1e-10

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            gradcheck(lambda x: (0.0, x), np.ones(3), step=0.0)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_nan_coordinate_error_is_nan(self, bad):
        # max(0.0, nan) is 0.0 in Python: a NaN error on any sampled
        # coordinate used to vanish from the result
        def fn(x):
            g = x.copy()
            g[bad] = np.nan
            return 0.5 * x @ x, g

        assert np.isnan(gradcheck(fn, np.array([1.0, -2.0]), step=1e-5,
                                  n_coords=2))

    @pytest.mark.parametrize("n_coords", [0, -1])
    def test_no_sampled_coordinate_rejected(self, n_coords):
        # no coordinate checked used to read as an error of 0
        with pytest.raises(ValueError, match="n_coords"):
            gradcheck(lambda x: (0.5 * x @ x, x), np.ones(3), step=1e-5,
                      n_coords=n_coords)

    def test_full_chain_small(self):
        # the design loop's lens objective on 16x16x24, reflection order 0
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = full_plane_source(g)
        t = TargetSpec.from_spheres(g, [(8 * g.dx, 8 * g.dy, 18 * g.dz)],
                                    1.5 * g.dx)
        theta0 = np.random.default_rng(0).uniform(-1, 1, size=(16, 16))
        prepared = prepare(src, med, SolverConfig(reflection_order=0),
                           FORM_CLEAR, 0, 6)
        objective = lens_objective(prepared, t, DesignField(theta0, v_max=6.0),
                                   OptimConfig())
        assert gradcheck(lambda th: objective(th, 5.0)[:2], theta0,
                         step=1e-4, n_coords=16) < 1e-5


class TestLensObjective:
    def test_total_is_the_weighted_sum_the_loop_records(self):
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = full_plane_source(g)
        t = TargetSpec.from_spheres(g, [(8 * g.dx, 8 * g.dy, 18 * g.dz)],
                                    1.5 * g.dx)
        design = DesignField.random(16, 16, v_max=6.0, seed=2)
        cfg = OptimConfig(iterations=1, lambda_energy=0.0, lambda_balance=2.0)
        prepared = prepare(src, med, SolverConfig(reflection_order=0),
                           FORM_CLEAR, 0, design.n_v)
        beta = cfg.beta(0)
        total, _, terms, p = lens_objective(prepared, t, design,
                                            cfg)(design.theta, beta)
        direct = (loss_acc(p, t) + 0.0 * loss_energy(p, t)
                  + 2.0 * loss_balance(p, t))
        assert total == pytest.approx(direct, rel=1e-12)
        assert terms[2] > 0.0  # the balance weight is exercised
        result = optimize_lens_geometry(prepared, t, design, cfg)
        assert result.report.total[0] == total
        assert np.array_equal(result.field_optimization.values, p.values)

    def test_descend_stops_on_non_finite_loss(self):
        cfg = OptimConfig(iterations=3)

        def objective(x, it):
            total = np.nan if it == 1 else 1.0
            return total, np.ones_like(x), (total, 0.0, 0.0), None

        with pytest.raises(RuntimeError, match="iteration 1"):
            descend(objective, np.zeros(2), cfg)


    def test_descend_releases_each_field_before_the_next_call(self):
        fields = []

        def objective(x, it):
            assert all(ref() is None for ref in fields)
            field_ = np.full(4, float(it))
            fields.append(weakref.ref(field_))
            return 1.0, np.ones_like(x), (1.0, 0.0, 0.0), field_

        _, report, last = descend(objective, np.zeros(2),
                                  OptimConfig(iterations=3))
        assert len(report.total) == 3 and np.all(last == 2.0)
        assert last is fields[-1]()


class TestSinglePrecision:
    @pytest.mark.parametrize("config", ["perfbench/skull_r4.cfg",
                                        "demos/single_focus_water.cfg"])
    def test_loss_and_theta_gradient_agree_with_double(self, config):
        # the benchmark's order-4 skull phantom and the water demo, at a
        # perturbed theta: the loss and dL/dtheta of a medium prepared in
        # complex64 lie within 1e-5 of the complex128 run's peak
        from sonolens import cli

        cfg = cli.load_config(REPO / config)
        grid = cli.build_grid(cfg)
        target, ocfg = cli.build_target(cfg, grid), cli.build_config(cfg,
                                                                     "optim")
        runs = []
        for dtype in (np.complex128, np.complex64):
            _, design, prepared = cli._prepared_problem(cfg, grid, 0, dtype)
            theta = design.theta + np.random.default_rng(3).normal(
                scale=0.5, size=design.theta.shape)
            runs.append(lens_objective(prepared, target, design,
                                       ocfg)(theta, ocfg.beta(3))[:2])
        (loss, grad), (loss32, grad32) = runs
        assert abs(loss32 - loss) <= 1e-5 * abs(loss)
        assert np.max(np.abs(grad32 - grad)) <= 1e-5 * np.max(np.abs(grad))

    def test_cotangent_comes_back_in_the_field_dtype(self):
        # single in, single out, slice-major: the adjoint reads it in place;
        # the sums behind the loss are taken in double
        g = make_grid()
        t = TargetSpec.from_spheres(g, [(8 * g.dx, 8 * g.dy, 18 * g.dz)],
                                    1.5 * g.dx)
        rng = np.random.default_rng(6)
        values = (rng.normal(size=g.shape)
                  + 1j * rng.normal(size=g.shape)).astype(np.complex64)
        values = np.ascontiguousarray(values.transpose(2, 0, 1)).transpose(
            1, 2, 0)
        *terms, upstream = loss_and_gradient(values, t, 0.2, 0.5)
        assert upstream.dtype == np.complex64
        assert upstream.transpose(2, 0, 1).flags.c_contiguous
        *terms64, upstream64 = loss_and_gradient(
            values.astype(np.complex128), t, 0.2, 0.5)
        assert terms == pytest.approx(terms64, rel=1e-6)
        assert np.allclose(upstream, upstream64, rtol=0,
                           atol=1e-5 * np.max(np.abs(upstream64)))


class TestOptimizeLensGeometry:
    def test_zero_iterations_returns_initial(self):
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = full_plane_source(g)
        t = TargetSpec.from_spheres(g, [(8 * g.dx, 8 * g.dy, 18 * g.dz)],
                                    1.5 * g.dx)
        design = DesignField.random(16, 16, v_max=6.0, seed=3)
        prepared = prepare(src, med, SolverConfig(reflection_order=0),
                           FORM_CLEAR, 0, design.n_v)
        result = optimize_lens_geometry(prepared, t, design,
                                        OptimConfig(iterations=0))
        assert np.array_equal(result.design.theta, design.theta)
        assert result.report.total == []

    def test_zero_iterations_field_is_one_forward_run(self, monkeypatch):
        # the field of the initial design takes no adjoint and no lens
        # backward: it is the forward run of its lens, bitwise
        from sonolens import optim

        g = make_grid()
        src = disk_source(g, 1.5e-3)
        t = TargetSpec.from_spheres(g, [(8 * g.dx, 8 * g.dy, 18 * g.dz)],
                                    1.5 * g.dx)
        design = DesignField.random(16, 16, v_max=6.0, seed=3)
        prepared = prepare(src, make_homogeneous(g, WATER),
                           SolverConfig(reflection_order=2), FORM_CLEAR, 0,
                           design.n_v)
        cfg = OptimConfig(iterations=0)
        expected, _ = prepared.run(
            lensmap.forward(design, cfg.beta_end).occupancy)

        def forbidden(*args, **kwargs):
            raise AssertionError("zero iterations ran the adjoint chain")

        monkeypatch.setattr(optim, "propagate_adjoint", forbidden)
        monkeypatch.setattr(lensmap, "backward", forbidden)
        result = optimize_lens_geometry(prepared, t, design, cfg)
        assert (result.field_optimization.values.tobytes()
                == expected.values.tobytes())

    def test_loss_decreases_on_small_problem(self):
        g = make_grid(24, 24, 32)
        med = make_homogeneous(g, WATER)
        src = full_plane_source(g)
        t = TargetSpec.from_spheres(g, [(12 * g.dx, 12 * g.dy, 24 * g.dz)],
                                    1.6 * g.dx)
        design = DesignField.random(24, 24, v_max=8.0, seed=0)
        cfg = OptimConfig(iterations=25)
        prepared = prepare(src, med, SolverConfig(reflection_order=0),
                           FORM_CLEAR, 0, design.n_v)
        result = optimize_lens_geometry(prepared, t, design, cfg)
        assert result.report.total[-1] < result.report.total[0]
        assert result.lens.occupancy.shape[:2] == (24, 24)
        # final lens is hard-binarized
        assert set(np.unique(result.lens.occupancy)) <= {0.0, 1.0}

    def test_lens_is_the_binarized_chain_with_the_printer_blur(self):
        # the design's lens is the binarized last iterate of the chain,
        # whose blur is the DHLA's and then the printer's at the design's
        # cutoff (here 3 voxels); it is printed as it is, with no second
        # filter
        fab_cutoff = 3.0
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = full_plane_source(g)
        t = TargetSpec.from_spheres(g, [(8 * g.dx, 8 * g.dy, 18 * g.dz)],
                                    1.5 * g.dx)
        design = DesignField.random(16, 16, alpha=5.0, v_max=6.0, seed=4,
                                    fab_cutoff=fab_cutoff)
        cfg = OptimConfig(iterations=3)
        prepared = prepare(src, med, SolverConfig(reflection_order=0),
                           FORM_CLEAR, 0, design.n_v)
        result = optimize_lens_geometry(prepared, t, design, cfg)
        assert result.design.fab_cutoff == fab_cutoff
        final = lensmap.binarize(lensmap.forward(result.design, 20.0))
        assert np.array_equal(result.lens.thickness_map, final.thickness_map)
        assert np.array_equal(result.lens.occupancy, final.occupancy)
        # its columns round the DHLA blur followed by the printer's, and
        # the printer blur moves columns of this lens
        dhla = oracles.smooth_thickness(
            lensmap.map_thickness(result.design), 9, 1.5)
        chain = oracles.smooth_thickness(dhla, 11, 1.5)   # sigma cutoff/2
        assert np.array_equal(final.thickness_map, np.floor(chain + 0.5))
        assert not np.array_equal(final.thickness_map, np.floor(dhla + 0.5))

    def test_fabricated_focal_peak_is_the_last_iterate_s(self, tmp_path):
        # on a reduced water demo, the printed lens focuses within 1% of
        # the field the design loop ended on
        from sonolens import cli, io

        cfg = json.loads("\n".join(
            ln for ln in (REPO / "demos" / "single_focus_water.cfg")
            .read_text().splitlines() if not ln.lstrip().startswith("//")))
        cfg["grid"].update(nx=32, ny=32, nz=48)
        cfg["target"]["focus_centers_mm"] = [[2.0, 2.0, 4.0]]
        cfg["source"]["aperture_diameter_mm"] = 3.5
        cfg["optim"]["iterations"] = 40
        path = tmp_path / "water.cfg"
        path.write_text(json.dumps(cfg))
        assert cli.main(["design", "--config", str(path),
                         "--out", str(tmp_path)]) == 0
        focus = (16, 16, 32)
        peaks = [abs(io.load_field(tmp_path / name).values[focus])
                 for name in ("field_optimization", "field_fabrication")]
        assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimConfig(lambda_energy=-0.1)


class TestOptimConfig:
    def test_beta_endpoints_and_monotonicity(self):
        cfg = OptimConfig(iterations=200, beta_start=1.0, beta_end=20.0)
        vals = [cfg.beta(i) for i in range(200)]
        assert vals[0] == pytest.approx(1.0)
        assert vals[-1] == pytest.approx(20.0)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_decreasing_beta_schedule_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            OptimConfig(iterations=100, beta_start=20.0, beta_end=1.0)

    @pytest.mark.parametrize("iterations", [0, 1])
    def test_beta_of_a_short_run_is_beta_end(self, iterations):
        cfg = OptimConfig(iterations=iterations, beta_end=7.0)
        assert cfg.beta(0) == cfg.beta(iterations - 1) == 7.0
