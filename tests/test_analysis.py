from dataclasses import asdict

import numpy as np
import pytest
from oracles import bfs_segment, label_segment

from sonolens.analysis import (
    HEAT_CAPACITY_BONE,
    PSNR_CAP_DB,
    FocalReport,
    ThermalConfig,
    bioheat_simulate,
    cross_domain_psnr,
    focal_metrics,
    focal_report,
    perturb_lens,
    segment_foci,
)
from sonolens.grid import BONE, GridSpec
from sonolens.lensmap import LensVolume, binarize
from sonolens.medium import make_homogeneous
from sonolens.solver import ComplexField


def make_grid(nx=16, ny=16, nz=24, d=125e-6):
    return GridSpec(nx, ny, nz, d, d, d, 2e6, 1500.0)


def as_field(values, grid):
    return ComplexField(np.asarray(values, dtype=complex), grid)


class TestCrossDomainPsnr:
    def test_identical_fields_hit_cap(self):
        g = make_grid(8, 8, 8)
        rng = np.random.default_rng(0)
        v = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        assert cross_domain_psnr(as_field(v, g), as_field(v, g)) == PSNR_CAP_DB

    def test_two_voxel_hand_value(self):
        # normalized amplitudes (1, 0) vs (1, 1): MSE 0.5 -> 3.01 dB
        a = np.array([1.0, 0.0]).reshape(2, 1, 1)
        b = np.array([1.0, 1.0]).reshape(2, 1, 1)
        assert cross_domain_psnr(a, b) == pytest.approx(10 * np.log10(2.0),
                                                        abs=1e-12)
        assert cross_domain_psnr(a, b) == pytest.approx(3.01, abs=0.01)

    def test_zero_second_field_closed_form(self):
        # b = 0 stays zero: PSNR = -10*log10(mean(a_norm^2))
        rng = np.random.default_rng(1)
        a = np.abs(rng.normal(size=(4, 4, 4))) + 0.1
        expected = -10.0 * np.log10(np.mean((a / a.max()) ** 2))
        assert cross_domain_psnr(a, np.zeros_like(a)) == pytest.approx(
            expected, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a = np.abs(rng.normal(size=(5, 5, 5)))
        b = np.abs(rng.normal(size=(5, 5, 5)))
        assert cross_domain_psnr(a, b) == pytest.approx(
            cross_domain_psnr(3.0 * a, 0.5 * b), rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cross_domain_psnr(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_domain_psnr(np.ones((2, 2, 2)), np.ones((3, 3, 3)))


class TestSegmentFoci:
    def test_matches_connected_component_oracle(self):
        # oracle: a breadth-first 6-connected flood fill from the seed over
        # the same threshold mask
        rng = np.random.default_rng(3)
        for _ in range(20):
            amp = rng.random((12, 12, 12))
            seeds = [tuple(rng.integers(0, 12, size=3)) for _ in range(3)]
            masks = segment_foci(amp, seeds)
            assert len(masks) == len(seeds)
            for seed, mask in zip(seeds, masks):
                assert np.array_equal(mask, bfs_segment(amp, seed))

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        amp = rng.random((8, 8, 8))
        seed = (4, 4, 4)
        m1 = segment_foci(amp, [seed])[0]
        m2 = segment_foci(amp * 1e6, [seed])[0]
        assert np.array_equal(m1, m2)

    def test_below_threshold_seed_is_empty(self):
        amp = np.zeros((6, 6, 6))
        amp[3, 3, 3] = 1.0
        mask = segment_foci(amp, [(0, 0, 0)])[0]
        assert not mask.any()

    def test_outside_seed_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            segment_foci(np.ones((4, 4, 4)), [(4, 0, 0)])


def assert_segments_match_oracles(amp, seeds):
    masks = segment_foci(amp, seeds)
    assert len(masks) == len(seeds)
    for seed, mask, labelled in zip(seeds, masks, label_segment(amp, seeds)):
        assert mask.dtype == bool and mask.shape == amp.shape
        assert np.array_equal(mask, labelled), seed
        assert np.array_equal(mask, bfs_segment(amp, seed)), seed
    return masks


class TestSegmentFociAgainstLabel:
    """segment_foci against scipy.ndimage.label plus a seed lookup and
    against the breadth-first flood fill."""

    @pytest.mark.parametrize("shape", [(7, 11, 13), (9, 5, 15), (13, 3, 9),
                                       (1, 9, 7), (5, 1, 1)])
    def test_random_masks(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(12):
            density = rng.uniform(0.15, 0.7)
            amp = (rng.random(shape) < density).astype(float)
            amp.flat[rng.integers(amp.size)] = 1.0
            seeds = [tuple(int(rng.integers(n)) for n in shape)
                     for _ in range(int(rng.integers(1, 4)))]
            assert_segments_match_oracles(amp, seeds)

    @pytest.mark.parametrize("shape", [(7, 11, 13), (9, 5, 15)])
    def test_random_amplitudes(self, shape):
        rng = np.random.default_rng(len(shape) + shape[0])
        for _ in range(12):
            amp = rng.random(shape) ** rng.uniform(0.5, 3.0)
            seeds = [tuple(int(rng.integers(n)) for n in shape)
                     for _ in range(int(rng.integers(1, 4)))]
            assert_segments_match_oracles(amp, seeds)

    def test_component_touching_all_six_faces(self):
        # three centre lines through (3, 4, 5) reach every face of the grid
        amp = np.zeros((7, 9, 11))
        amp[:, 4, 5] = amp[3, :, 5] = amp[3, 4, :] = 1.0
        seeds = [(0, 4, 5), (3, 0, 5), (3, 4, 10)]
        masks = assert_segments_match_oracles(amp, seeds)
        assert masks[0].sum() == 7 + 9 + 11 - 2

    def test_one_voxel_components_at_the_first_and_last_index(self):
        amp = np.zeros((5, 7, 9))
        amp[0, 0, 0] = amp[4, 6, 8] = amp[2, 3, 4] = 1.0
        masks = assert_segments_match_oracles(
            amp, [(0, 0, 0), (4, 6, 8), (2, 3, 4)])
        assert [m.sum() for m in masks] == [1, 1, 1]

    def test_flat_index_neighbours_across_a_row_end_are_not_joined(self):
        # (0, 0, 8) and (0, 1, 0) are adjacent in flat index; (0, 6, 4)
        # and (1, 0, 4) are one y-stride apart: neither pair touches
        amp = np.zeros((5, 7, 9))
        amp[0, 0, 8] = amp[0, 1, 0] = amp[0, 6, 4] = amp[1, 0, 4] = 1.0
        seeds = [(0, 0, 8), (0, 1, 0), (0, 6, 4), (1, 0, 4)]
        masks = assert_segments_match_oracles(amp, seeds)
        assert [m.sum() for m in masks] == [1, 1, 1, 1]

    def test_serpentine_component(self):
        # one snake through three 2D boustrophedons joined at alternating
        # corners: a winding path of 215 voxels, so a label that moved one
        # neighbour per round would need about 200 rounds to reach its end
        n = 11
        layer = np.zeros((n, n), dtype=bool)
        layer[::2, :] = True
        layer[1::4, -1] = True
        layer[3::4, 0] = True
        amp = np.zeros((n, n, 5))
        amp[:, :, 0] = amp[:, :, 2] = amp[:, :, 4] = layer
        amp[n - 1, n - 1, 1] = amp[0, 0, 3] = 1.0
        seeds = [(0, 0, 0), (n - 1, 0, 4)]
        masks = assert_segments_match_oracles(amp, seeds)
        assert masks[0].sum() == 3 * layer.sum() + 2
        assert np.array_equal(masks[0], masks[1])

    def test_two_seeds_in_one_component_get_equal_masks(self):
        amp = np.zeros((9, 9, 9))
        amp[2:7, 4, 4] = 1.0
        amp[0, 0, 0] = 1.0
        masks = assert_segments_match_oracles(amp, [(2, 4, 4), (6, 4, 4)])
        assert np.array_equal(masks[0], masks[1]) and masks[0].sum() == 5
        assert masks[0] is not masks[1]

    def test_seed_below_threshold_next_to_a_component(self):
        amp = np.full((7, 7, 7), 0.4)
        amp[3, 3, 2:5] = 1.0
        masks = assert_segments_match_oracles(amp, [(3, 3, 1), (3, 3, 3)])
        assert not masks[0].any() and masks[1].sum() == 3

    def test_all_true_mask(self):
        amp = np.ones((5, 7, 9))
        masks = assert_segments_match_oracles(amp, [(0, 0, 0), (4, 6, 8)])
        assert masks[0].all() and masks[1].all()


class TestFocalMetrics:
    def test_gaussian_fwhm(self):
        # oracle: FWHM of a Gaussian = 2*sqrt(2*ln 2)*sigma = 2.3548*sigma
        g = make_grid(48, 48, 48)
        sigma = 4.0  # voxels
        i = np.arange(48) - 24
        X, Y, Z = np.meshgrid(i, i, i, indexing="ij")
        amp = np.exp(-(X**2 + Y**2 + Z**2) / (2 * sigma**2))
        p = as_field(amp, g)
        segs = segment_foci(p, [(24, 24, 24)])
        rep = focal_metrics(p, segs)
        expected = 2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma * g.dx
        for got in (rep.foci[0].fwhm_lateral_x, rep.foci[0].fwhm_lateral_y,
                    rep.foci[0].fwhm_axial):
            assert got == pytest.approx(expected, rel=0.02)

    def test_uniform_field_leakage_one(self):
        g = make_grid(8, 8, 8)
        p = as_field(np.ones(g.shape), g)
        mask = np.zeros(g.shape, dtype=bool)
        mask[2:5, 2:5, 2:5] = True
        rep = focal_metrics(p, [mask])
        assert rep.leakage_ratio == pytest.approx(1.0)

    def test_equal_peaks_uniformity_one(self):
        g = make_grid(12, 12, 12)
        amp = np.zeros(g.shape)
        amp[3, 3, 3] = amp[9, 9, 9] = 2.0
        m1 = np.zeros(g.shape, dtype=bool); m1[3, 3, 3] = True
        m2 = np.zeros(g.shape, dtype=bool); m2[9, 9, 9] = True
        rep = focal_metrics(as_field(amp, g), [m1, m2])
        assert rep.uniformity == 1.0
        assert rep.n_components == 2

    def test_unequal_peaks_intensity_ratio(self):
        # peaks 1.0 and 0.5 in amplitude -> min/max intensity = 0.25
        g = make_grid(12, 12, 12)
        amp = np.zeros(g.shape)
        amp[3, 3, 3] = 1.0
        amp[9, 9, 9] = 0.5
        m1 = np.zeros(g.shape, dtype=bool); m1[3, 3, 3] = True
        m2 = np.zeros(g.shape, dtype=bool); m2[9, 9, 9] = True
        rep = focal_metrics(as_field(amp, g), [m1, m2])
        assert rep.uniformity == pytest.approx(0.25)

    def test_volume_and_peak_index(self):
        g = make_grid(8, 8, 8)
        amp = np.zeros(g.shape)
        amp[2, 3, 4] = 5.0
        mask = np.zeros(g.shape, dtype=bool)
        mask[2, 3, 4] = mask[2, 3, 5] = True
        rep = focal_metrics(as_field(amp, g), [mask])
        f = rep.foci[0]
        assert f.peak_index == (2, 3, 4)
        assert f.peak_pressure == 5.0
        assert f.voxel_count == 2
        assert f.volume_m3 == pytest.approx(2 * g.voxel_volume)

    def test_empty_segments_rejected(self):
        g = make_grid(8, 8, 8)
        p = as_field(np.ones(g.shape), g)
        with pytest.raises(ValueError, match="non-empty"):
            focal_metrics(p, [np.zeros(g.shape, dtype=bool)])

    def test_report_json_round_trip(self):
        import json
        g = make_grid(8, 8, 8)
        amp = np.zeros(g.shape)
        amp[4, 4, 4] = 1.0
        mask = amp > 0
        rep = focal_metrics(as_field(amp, g), [mask])
        payload = json.loads(rep.to_json())
        assert payload["n_components"] == 1
        assert payload["foci"][0]["peak_index"] == [4, 4, 4]

    def test_report_of_a_single_precision_field_is_json(self):
        # a design's field is complex64: every figure of its report is a
        # Python float, which json writes
        import json
        g = make_grid(16, 16, 16)
        i = np.arange(16) - 8
        X, Y, Z = np.meshgrid(i, i, i, indexing="ij")
        gaussian = np.exp(-(X**2 + Y**2 + Z**2) / 8.0)
        rep = focal_report(ComplexField(gaussian.astype(np.complex64), g),
                           [(8, 8, 8)])
        payload = json.loads(rep.to_json())
        double = focal_report(as_field(gaussian, g), [(8, 8, 8)])
        for key in ("fwhm_lateral_x", "fwhm_lateral_y", "fwhm_axial"):
            assert payload["foci"][0][key] == pytest.approx(
                getattr(double.foci[0], key), rel=1e-6)


    @pytest.mark.parametrize("n_seeds", [1, 2, 3])
    def test_report_equals_segment_then_metrics(self, n_seeds):
        # focal_report shares one |p| between both steps; the figures must
        # be those of the two public calls, and each peak the first
        # maximum over the whole grid with everything outside masked away
        g = make_grid(12, 12, 12)
        rng = np.random.default_rng(n_seeds)
        p = as_field(rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape),
                     g)
        amp = p.amplitude()
        order = np.argsort(amp, axis=None)[::-1]
        top, second, low = (np.unravel_index(order[i], g.shape)
                            for i in (0, 1, -1))
        seeds = [top, low, second][:n_seeds]
        segments = segment_foci(p, seeds)
        assert n_seeds == 1 or not segments[1].any()
        report = focal_report(p, seeds)
        assert asdict(report) == asdict(focal_metrics(p, segments))
        for focus in report.foci:
            masked = np.where(segments[focus.label], amp, -np.inf)
            assert focus.peak_index == np.unravel_index(np.argmax(masked),
                                                        g.shape)


class TestBioheat:
    def test_zero_field_no_heating(self):
        g = make_grid(8, 8, 8)
        med = make_homogeneous(g, BONE)
        p = as_field(np.zeros(g.shape), g)
        dT = bioheat_simulate(p, med, ThermalConfig(n_cycles=1))
        assert np.all(dT == 0.0)

    def test_uniform_heating_closed_form(self):
        # uniform Q with insulated boundaries: diffusion is inert and
        # dT = Q * total_heat_time / (rho * C) exactly
        g = make_grid(8, 8, 8)
        med = make_homogeneous(g, BONE)
        cfg = ThermalConfig(n_cycles=2)
        amp = 1e6
        p = as_field(np.full(g.shape, amp), g)
        dT = bioheat_simulate(p, med, cfg)
        att_np = BONE.attenuation_np_per_m(2e6)
        q = att_np * amp**2 / (BONE.density * BONE.sound_speed)
        expected = q * cfg.heat_time * cfg.n_cycles / (
            BONE.density * HEAT_CAPACITY_BONE)
        assert np.allclose(dT, expected, rtol=0.01)

    def test_energy_conservation(self):
        # insulated boundaries: total enthalpy equals deposited energy
        g = make_grid(10, 10, 10)
        med = make_homogeneous(g, BONE)
        cfg = ThermalConfig(n_cycles=1)
        rng = np.random.default_rng(5)
        amp = np.zeros(g.shape)
        amp[4:7, 4:7, 4:7] = 1e6 * rng.random((3, 3, 3))
        p = as_field(amp, g)
        dT = bioheat_simulate(p, med, cfg)
        att_np = BONE.attenuation_np_per_m(2e6)
        q = att_np * amp**2 / (BONE.density * BONE.sound_speed)
        rho_cap = BONE.density * HEAT_CAPACITY_BONE
        enthalpy = np.sum(rho_cap * dT) * g.voxel_volume
        deposited = np.sum(q) * g.voxel_volume * cfg.heat_time * cfg.n_cycles
        assert enthalpy == pytest.approx(deposited, rel=0.005)

    def test_normalization_mask(self):
        # scaling the input field must not change the normalized result
        g = make_grid(8, 8, 8)
        med = make_homogeneous(g, BONE)
        cfg = ThermalConfig(n_cycles=1)
        amp = np.zeros(g.shape)
        amp[4, 4, 4] = 3.0
        mask = np.ones(g.shape, dtype=bool)
        dT1 = bioheat_simulate(as_field(amp, g), med, cfg, mask)
        dT2 = bioheat_simulate(as_field(100.0 * amp, g), med, cfg, mask)
        assert np.allclose(dT1, dT2)
        assert dT1.max() > 0

    def test_zero_field_in_mask_rejected(self):
        g = make_grid(8, 8, 8)
        med = make_homogeneous(g, BONE)
        mask = np.zeros(g.shape, dtype=bool)
        mask[0, 0, 0] = True
        amp = np.zeros(g.shape)
        amp[4, 4, 4] = 1.0
        with pytest.raises(ValueError, match="zero"):
            bioheat_simulate(as_field(amp, g), med, ThermalConfig(), mask)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThermalConfig(heat_time=0.0)
        with pytest.raises(ValueError):
            ThermalConfig(n_cycles=0)


class TestPerturbLens:
    def make_lens(self, n=100, t=5.0, n_v=10):
        return binarize(LensVolume(np.zeros((n, n, n_v)), np.full((n, n), t)))

    def test_zero_sigma_identity(self):
        lens = self.make_lens()
        out = perturb_lens(lens, 0.0, 125e-6, seed=0)
        assert np.array_equal(out.occupancy, lens.occupancy)

    def test_deterministic_with_seed(self):
        lens = self.make_lens()
        a = perturb_lens(lens, 100e-6, 125e-6, seed=7)
        b = perturb_lens(lens, 100e-6, 125e-6, seed=7)
        c = perturb_lens(lens, 100e-6, 125e-6, seed=8)
        assert np.array_equal(a.occupancy, b.occupancy)
        assert not np.array_equal(a.occupancy, c.occupancy)

    def test_sample_statistics_match_sigma(self):
        # oracle: rounded Gaussian thickness has variance sigma^2 + 1/12
        # (quantization); checked on 10^4 columns at sigma = 2 voxels
        dz = 125e-6
        sigma_vox = 2.0
        lens = self.make_lens(100, 5.0, 10)
        out = perturb_lens(lens, sigma_vox * dz, dz, seed=11)
        cols = out.occupancy.sum(axis=2)
        assert cols.mean() == pytest.approx(5.0, abs=0.1)
        expected_std = np.sqrt(sigma_vox**2 + 1.0 / 12.0)
        assert cols.std() == pytest.approx(expected_std, rel=0.05)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            perturb_lens(self.make_lens(8), -1.0, 125e-6)
