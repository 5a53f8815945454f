import numpy as np
import pytest
from oracles import (
    full_grid_forward,
    loss_acc,
    loss_balance,
    loss_energy,
    thickness_to_phase,
)

from sonolens import baselines, lensmap
from sonolens.baselines import (
    PhaseMap,
    fabricate_and_simulate,
    full_cycle_thickness,
    optimize_phase_map,
    phase_plane,
    phase_to_thickness,
    time_reversal,
)
from sonolens.grid import (
    BONE, FORM_CLEAR, WATER, GridSpec, disk_source, full_plane_source,
)
from sonolens.lensmap import DesignField, LensVolume
from sonolens.medium import embed_lens, make_homogeneous, make_skull_phantom
from sonolens.optim import OptimConfig, TargetSpec
from sonolens.solver import (
    SolverConfig,
    backproject,
    prepare,
    propagate,
    propagate_adjoint,
)
from sonolens.analysis import cross_domain_psnr


def make_grid(nx=32, ny=32, nz=48, d=125e-6):
    return GridSpec(nx, ny, nz, d, d, d, 2e6, 1500.0)


def bounds(n, v_min=2.0, v_max=8.0, fab_cutoff=2.0):
    """The bounds and printer cutoff of a print on an n x n grid: t_min
    250 um and 1 mm deep at 125 um, two voxels of printer cutoff."""
    return DesignField(np.zeros((n, n)), v_min=v_min, v_max=v_max,
                       fab_cutoff=fab_cutoff)


class TestPhaseMap:
    def test_wraps_to_unit_circle(self):
        pm = PhaseMap(np.array([[-1.0, 7.0], [2 * np.pi, 0.5]]))
        assert np.all(pm.phi >= 0.0) and np.all(pm.phi < 2 * np.pi)
        assert pm.phi[0, 0] == pytest.approx(2 * np.pi - 1.0)

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2D"):
            PhaseMap(np.zeros(4))


class TestFullCycleThickness:
    def test_resin_in_water_value(self):
        # T for one full cycle at 2 MHz, 1500 vs 2591 m/s: 1.78 mm
        t = full_cycle_thickness(2e6, 1500.0, 2591.0)
        assert t == pytest.approx(1.78e-3, abs=0.01e-3)

    def test_independent_formula(self):
        # oracle: c0*cL / (f * (cL - c0))
        f, c0, cl = 2e6, 1500.0, 2591.0
        assert full_cycle_thickness(f, c0, cl) == pytest.approx(
            c0 * cl / (f * (cl - c0)), rel=1e-12
        )

    def test_matched_speeds_rejected(self):
        with pytest.raises(ValueError):
            full_cycle_thickness(2e6, 1500.0, 1500.0)


class TestPhaseThicknessMaps:
    def test_zero_phase_is_minimum_thickness(self):
        t = phase_to_thickness(np.zeros((4, 4)), 2e6, 1500.0, 2591.0)
        assert np.allclose(t, 250e-6)

    def test_half_cycle_phase(self):
        # fast lens: delay pi -> half of the full-cycle thickness on top
        t2pi = full_cycle_thickness(2e6, 1500.0, 2591.0)
        t = phase_to_thickness(np.full((2, 2), np.pi), 2e6, 1500.0, 2591.0)
        assert np.allclose(t, 250e-6 + 0.5 * t2pi, atol=1e-12)

    def test_slow_lens_branch(self):
        # slow lens: delay grows with thickness, pi -> half cycle as well
        t2pi = full_cycle_thickness(2e6, 1500.0, 1000.0)
        t = phase_to_thickness(np.full((2, 2), np.pi), 2e6, 1500.0, 1000.0)
        assert np.allclose(t, 250e-6 + 0.5 * t2pi, atol=1e-12)

    def test_clamped_to_bounds(self):
        rng = np.random.default_rng(0)
        phi = rng.uniform(0, 2 * np.pi, size=(16, 16))
        t = phase_to_thickness(phi, 2e6, 1500.0, 2591.0, t_min=250e-6,
                               t_max=1.9e-3)
        assert t.min() >= 250e-6 and t.max() <= 1.9e-3

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        phi = rng.uniform(0, 2 * np.pi, size=(16, 16))
        for cl in (2591.0, 1000.0):
            t = phase_to_thickness(phi, 2e6, 1500.0, cl, t_max=5e-3)
            back = thickness_to_phase(t, 2e6, 1500.0, cl)
            d = np.angle(np.exp(1j * (back - phi)))
            assert np.abs(d).max() < 1e-9


class TestTimeReversal:
    def test_matches_conjugate_backprojection(self):
        # homogeneous water: backward march of a point source equals the
        # angular-spectrum backprojection of a delta plane
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = disk_source(g, 3e-3)
        cfg = SolverConfig(reflection_order=0)
        pm = time_reversal(prepare(src, med, cfg), [(16, 16, 30)])
        delta = np.zeros((32, 32), dtype=complex)
        delta[16, 16] = 1.0
        bp = backproject(delta, g, 30 * g.dz, cfg)[:, :, 0]
        d = np.angle(np.exp(1j * (pm.phi - np.angle(bp))))
        assert np.abs(d).max() < 1e-10

    def test_mirrored_foci_give_mirrored_phases(self):
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = disk_source(g, 3e-3)
        pm = time_reversal(prepare(src, med, SolverConfig(reflection_order=0)),
                           [(10, 16, 30), (21, 16, 30)])
        asym = np.angle(np.exp(1j * (pm.phi - pm.phi[::-1, :])))
        assert np.abs(asym).max() < 1e-10

    def test_degenerate_focus_rejected(self):
        g = make_grid()
        med = make_homogeneous(g, WATER)
        prepared = prepare(disk_source(g, 3e-3), med)
        with pytest.raises(ValueError):
            time_reversal(prepared, [(16, 16, 0)])
        with pytest.raises(ValueError):
            time_reversal(prepared, [(40, 16, 30)])

    def test_matches_spherical_wave_phase(self):
        # oracle: exact spherical-wave phase -k0*R from the focus; compared
        # away from the aperture edge on a laterally padded grid so the
        # periodic wraparound of the FFT march stays out of the test region
        n, depth = 192, 40
        g = make_grid(n, n, 48)
        med = make_homogeneous(g, WATER)
        src = disk_source(g, 3.5e-3)
        c = n // 2
        pm = time_reversal(prepare(src, med, SolverConfig(reflection_order=0)),
                           [(c, c, depth)])
        xs = np.arange(n) * g.dx
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        R = np.sqrt((X - c * g.dx) ** 2 + (Y - c * g.dy) ** 2
                    + (depth * g.dz) ** 2)
        d = np.angle(np.exp(1j * (pm.phi + g.k0 * R)))
        mask = np.hypot(X - c * g.dx, Y - c * g.dy) < 1.0e-3
        mean = np.angle(np.sum(np.exp(1j * d[mask])))
        resid = np.angle(np.exp(1j * (d[mask] - mean)))
        assert np.sqrt(np.mean(resid**2)) < 0.05

    # foci on two slices, two of them on one slice, inside the phantom's
    # shell: each march back to the source plane crosses the bone
    FOCI = [(9, 12, 20), (15, 12, 20), (12, 8, 26)]

    @staticmethod
    def phantom():
        g = make_grid(24, 24, 32)
        return g, make_skull_phantom(g, (1.5e-3, 1.5e-3, 2.4e-3), 1.0e-3,
                                     0.375e-3)

    @pytest.mark.parametrize("order", [0, 4])
    def test_one_run_matches_the_summed_focus_runs(self, order):
        # oracle: one full-grid complex128 run per focus, marched back to
        # slice 0 and summed; the phase map must be that sum's conjugate
        # phase, weighted by its amplitude within 1e-12 of the peak
        g, med = self.phantom()
        cfg = SolverConfig(reflection_order=order)
        pm = time_reversal(prepare(disk_source(g, 2.5e-3), med, cfg),
                           self.FOCI)
        oracle = np.zeros((g.nx, g.ny), dtype=np.complex128)
        for ix, iy, iz in self.FOCI:
            delta = np.zeros((g.nx, g.ny), dtype=np.complex128)
            delta[ix, iy] = 1.0
            oracle += full_grid_forward(g, cfg, med.c, med.rho,
                                        med.attenuation_np_per_m(), delta,
                                        iz, -1)[:, :, 0]
        err = np.abs(np.abs(oracle) * np.exp(-1j * pm.phi) - oracle)
        assert err.max() <= 1e-12 * np.abs(oracle).max()

    def test_makes_one_forward_run(self, monkeypatch):
        from sonolens.solver import PreparedMedium

        g, med = self.phantom()
        prepared = prepare(disk_source(g, 2.5e-3), med)
        runs = []
        forward = PreparedMedium._forward

        def counted(self, *args, **kwargs):
            runs.append(args)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(PreparedMedium, "_forward", counted)
        time_reversal(prepared, self.FOCI)
        assert len(runs) == 1


class TestPhasePlane:
    def test_zero_phase_real(self):
        g = make_grid(16, 16, 24)
        prepared = prepare(disk_source(g, 1.5e-3),
                           make_homogeneous(g, WATER))
        plane = phase_plane(prepared, np.zeros((16, 16)))
        assert np.all(plane.imag == 0)
        assert np.array_equal(plane, prepared.source_plane)

    def test_pi_phase_negates(self):
        g = make_grid(16, 16, 24)
        prepared = prepare(disk_source(g, 1.5e-3),
                           make_homogeneous(g, WATER))
        flat = phase_plane(prepared, np.zeros((16, 16)))
        flipped = phase_plane(prepared, np.full((16, 16), np.pi))
        assert np.allclose(flipped, -flat)

    def test_modulus_equals_mask(self):
        g = make_grid(16, 16, 24)
        src = disk_source(g, 1.5e-3)
        prepared = prepare(src, make_homogeneous(g, WATER))
        rng = np.random.default_rng(8)
        plane = phase_plane(prepared, rng.uniform(0, 2 * np.pi, (16, 16)))
        assert np.allclose(np.abs(plane), np.abs(src))

    def test_shape_mismatch_rejected(self):
        g = make_grid(16, 16, 24)
        prepared = prepare(disk_source(g, 1.5e-3),
                           make_homogeneous(g, WATER))
        with pytest.raises(ValueError, match="shape does not match"):
            phase_plane(prepared, np.zeros((16, 15)))


class TestOptimizePhaseMap:
    def test_zero_iterations(self):
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = disk_source(g, 3e-3)
        t = TargetSpec.from_spheres(g, [(16 * g.dx, 16 * g.dy, 30 * g.dz)],
                                    1.6 * g.dx)
        pm, report = optimize_phase_map(
            prepare(src, med, SolverConfig(reflection_order=0)), t,
            OptimConfig(iterations=0))
        assert np.all(pm.phi == 0.0)
        assert report.total == []

    def test_recovers_fresnel_profile(self):
        # single focus in water: the optimized phase should align with the
        # converging-aperture profile -k0*(sqrt(r^2+F^2)-F); alignment is
        # the aperture-averaged modulus of exp(i*(phi - phi_fresnel))
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = disk_source(g, 3.5e-3)
        F = 3e-3
        c = 16
        t = TargetSpec.from_spheres(g, [(c * g.dx, c * g.dy, F)], 1.6 * g.dx)
        cfg = OptimConfig(iterations=200, learning_rate=0.3)
        pm, report = optimize_phase_map(
            prepare(src, med, SolverConfig(reflection_order=0)), t, cfg)
        assert report.total[-1] < 0.6 * report.total[0]
        xs = np.arange(32) * g.dx
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        r2 = (X - c * g.dx) ** 2 + (Y - c * g.dy) ** 2
        phi_f = -g.k0 * (np.sqrt(r2 + F**2) - F)
        ap = np.abs(src) > 0.5
        corr = np.abs(np.sum(np.exp(1j * (pm.phi[ap] - phi_f[ap])))) / ap.sum()
        assert corr > 0.88

    def test_uniform_plane_target_keeps_phase_flat(self):
        # full-plane source, whole-slice target: by lateral symmetry the
        # phase gradient is spatially uniform and the phase map stays
        # constant, as long as the solver keeps the symmetry. It does, to
        # rounding: through water every slice is the plane wave A*f^s, f =
        # exp(i*k0*dz) (c = c_ref, no attenuation), uniform across the
        # plane within 1e-13 of the peak, and so is the source cotangent
        # of a laterally uniform upstream, sum_s w_s*f^s. Rounding at that
        # level leaves the balance term's std (ROADMAP item 2) at ~1e-15
        # instead of 0, and its gradient at std ~ 0 points anywhere, so
        # the flat phase map itself rests on that term's guard.
        g = make_grid(24, 24, 32)
        src = full_plane_source(g)
        prepared = prepare(src, make_homogeneous(g, WATER),
                           SolverConfig(reflection_order=0))
        p, cache = prepared.run()
        wave = np.exp(1j * g.k0 * g.dz * np.arange(g.nz))  # amplitude 1
        assert np.abs(p.values - wave).max() <= 1e-13

        rng = np.random.default_rng(11)
        w = rng.normal(size=g.nz) + 1j * rng.normal(size=g.nz)
        upstream = np.broadcast_to(w, g.shape)
        source = propagate_adjoint(cache, upstream).source_plane
        expected = np.sum(w * wave)
        assert np.abs(source - expected).max() <= 1e-13 * abs(expected)

    def test_shares_loss_stack(self):
        # the first recorded loss equals the loss functions evaluated
        # directly on the zero-phase field
        g = make_grid(24, 24, 32)
        med = make_homogeneous(g, WATER)
        src = full_plane_source(g)
        cfg = SolverConfig(reflection_order=0)
        t = TargetSpec.from_spheres(g, [(12 * g.dx, 12 * g.dy, 24 * g.dz)],
                                    1.6 * g.dx)
        prepared = prepare(src, med, cfg)
        _, report = optimize_phase_map(prepared, t, OptimConfig(iterations=1))
        plane = phase_plane(prepared, np.zeros((24, 24)))
        p, _ = propagate(plane, med, cfg)
        direct = (loss_acc(p.values, t) + 0.2 * loss_energy(p.values, t)
                  + 0.5 * loss_balance(p.values, t))
        assert report.total[0] == direct


class TestFabricateAndSimulate:
    def test_flat_phase_is_thin_slab(self):
        # zero delay maps to the minimum thickness everywhere; past the
        # slab both domains carry the same plane wave after normalization
        g = make_grid(32, 32, 64)
        med = make_homogeneous(g, WATER)
        src = full_plane_source(g)
        cfg = SolverConfig(reflection_order=0)
        pm = PhaseMap(np.zeros((32, 32)))
        prepared = prepare(src, med, cfg, FORM_CLEAR, 0, 4)
        field_fab, lens = fabricate_and_simulate(pm, prepared,
                                                 bounds(32, v_max=4.0))
        assert np.allclose(lens.thickness_map, 250e-6 / g.dz)
        field_opt, _ = propagate(phase_plane(prepared, pm.phi), med, cfg)
        depth = lens.occupancy.shape[2]
        psnr = cross_domain_psnr(field_opt.values[:, :, depth + 2:],
                                 field_fab.values[:, :, depth + 2:])
        assert psnr >= 100.0

    def test_binary_slab_passes_through_unchanged(self):
        # a flat phase is a hard flat slab of t_min (2 slices), which a
        # degenerate fabrication cutoff leaves bit for bit
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = disk_source(g, 3e-3)
        slab = lensmap.binarize(
            LensVolume(np.zeros((32, 32, 8)), np.full((32, 32), 2.0)))
        _, lens_out = fabricate_and_simulate(
            PhaseMap(np.zeros((32, 32))),
            prepare(src, med, SolverConfig(reflection_order=0), FORM_CLEAR,
                    0, 8),
            bounds(32, fab_cutoff=1.0))
        assert np.array_equal(lens_out.occupancy, slab.occupancy)

    def test_rejects_unknown_design_type(self):
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = disk_source(g, 3e-3)
        prepared = prepare(src, med, None, FORM_CLEAR, 0, 8)
        with pytest.raises(TypeError):
            fabricate_and_simulate("lens", prepared, bounds(32))
        # a thickness design is printed as its binarized lens, not here
        with pytest.raises(TypeError, match="PhaseMap"):
            fabricate_and_simulate(lensmap.binarize(LensVolume(
                np.zeros((32, 32, 8)), np.full((32, 32), 5.0))), prepared,
                bounds(32))


class TestFabricationRunsTheDesignOperator:
    # fabrication runs the binary lens as the occupancy of the prepared
    # lens slab, the operator the design loop differentiates; the oracle
    # embeds the same lens in a copy of the medium (embed_lens, then
    # propagate). On a 0/1 occupancy the slab's linear relaxation puts
    # the lens material on the voxels embed_lens's 0.9 threshold picks,
    # which also needs the medium's and the material's attenuation
    # formulas to agree.

    @staticmethod
    def bone_behind_the_lens():
        g = make_grid(16, 16, 32)
        med = make_homogeneous(g, WATER)
        bone = np.s_[:, :, 14:17]
        med.c[bone], med.rho[bone] = BONE.sound_speed, BONE.density
        med.att[bone], med.att_power[bone] = (BONE.attenuation_coeff,
                                              BONE.attenuation_power)
        return g, med, disk_source(g, 1.5e-3)

    @pytest.mark.parametrize("order", [0, 4])
    def test_embedded_binary_lens_equals_the_prepared_lens_run(self, order):
        g, med, src = self.bone_behind_the_lens()
        z0, n_v = 3, 6
        t = np.random.default_rng(order).integers(0, n_v + 1, size=(16, 16))
        occ = (np.arange(n_v)[None, None, :] < t[:, :, None]).astype(float)
        cfg = SolverConfig(reflection_order=order)

        fab, _ = propagate(src, embed_lens(med, occ, FORM_CLEAR, z0), cfg)
        design, _ = prepare(src, med, cfg, FORM_CLEAR, z0, n_v).run(occ)
        assert np.array_equal(fab.values, design.values)

    @pytest.mark.parametrize("order", [0, 4])
    def test_fabricated_field_equals_the_embedded_lens(self, order):
        g, med, src = self.bone_behind_the_lens()
        rng = np.random.default_rng(order)
        phase = PhaseMap(rng.uniform(0.0, 2 * np.pi, size=(16, 16)))
        cfg = SolverConfig(reflection_order=order)

        # t_max 1 mm: at most 8 slices, so the lens ends before the bone
        prepared = prepare(src, med, cfg, FORM_CLEAR, 3, 8)
        fab, lens = fabricate_and_simulate(phase, prepared,
                                           bounds(16, v_max=1e-3 / g.dz))
        assert 3 + lens.n_v <= 14
        assert 0 < lens.occupancy.sum() < lens.occupancy.size
        oracle, _ = propagate(src, embed_lens(med, lens.occupancy, FORM_CLEAR, 3),
                              cfg)
        peak = np.abs(oracle.values).max()
        assert np.abs(fab.values - oracle.values).max() <= 1e-12 * peak

    def test_copies_no_medium_and_keeps_no_cache(self, monkeypatch):
        # the fabricated field is a forward-only slab run: the medium is
        # never copied (embed_lens) and no run builds an adjoint cache
        from sonolens import medium, solver
        from sonolens.medium import AcousticMedium
        from sonolens.solver import PreparedMedium

        g, med, src = self.bone_behind_the_lens()
        phase = PhaseMap(np.random.default_rng(1).uniform(
            0.0, 2 * np.pi, size=(16, 16)))
        prepared = prepare(src, med, None, FORM_CLEAR, 0, 8)
        expected, _ = fabricate_and_simulate(phase, prepared,
                                             bounds(16, v_max=8.0))

        def forbidden(*args, **kwargs):
            raise AssertionError("fabrication copied the medium or kept a cache")

        for owner, name in ((AcousticMedium, "copy"), (PreparedMedium, "run"),
                            (medium, "embed_lens"), (baselines, "embed_lens"),
                            (solver, "propagate"), (baselines, "propagate")):
            monkeypatch.setattr(owner, name, forbidden)
        field_, _ = fabricate_and_simulate(phase, prepared,
                                           bounds(16, v_max=8.0))
        assert np.array_equal(field_.values, expected.values)

    @pytest.mark.parametrize("order", [0, 4])
    def test_shallow_phase_lens_runs_in_the_deep_slab(self, order):
        # a flat phase map is a t_min lens of 2 slices; it runs in the
        # 16-slice slab a design prepares, whose other 14 slices stay the
        # base medium, water-bone interface (13, 14) included, and matches
        # the 2-slice lens embedded in the medium. Its bounds are the
        # design's: v_min and v_max, the slab's depth.
        g, med, src = self.bone_behind_the_lens()
        cfg = SolverConfig(reflection_order=order)
        prepared = prepare(src, med, cfg, FORM_CLEAR, 0, 16)
        fab, lens = fabricate_and_simulate(PhaseMap(np.zeros((16, 16))),
                                           prepared, bounds(16, v_max=16.0))
        assert lens.n_v == 16 and (lens.v_min, lens.v_max) == (2.0, 16.0)
        assert np.all(lens.thickness_map == 2.0)
        assert not lens.occupancy[:, :, 2:].any()
        oracle, _ = propagate(
            src, embed_lens(med, lens.occupancy[:, :, :2], FORM_CLEAR, 0), cfg)
        peak = np.abs(oracle.values).max()
        assert np.abs(fab.values - oracle.values).max() <= 1e-12 * peak

    def test_medium_without_a_lens_material_rejected(self):
        g, med, src = self.bone_behind_the_lens()
        with pytest.raises(ValueError, match="prepared with a lens material"):
            fabricate_and_simulate(PhaseMap(np.zeros((16, 16))),
                                   prepare(src, med), bounds(16))

    def test_phase_lens_deeper_than_the_slab_rejected(self):
        g, med, src = self.bone_behind_the_lens()
        prepared = prepare(src, med, None, FORM_CLEAR, 0, 16)
        with pytest.raises(ValueError, match="deeper than the 16-slice"):
            fabricate_and_simulate(PhaseMap(np.zeros((16, 16))), prepared,
                                   bounds(16, v_max=17.0))
