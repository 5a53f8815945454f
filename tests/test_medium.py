import numpy as np
import pytest

from sonolens.grid import BONE, FORM_CLEAR, WATER, GridSpec, MaterialProperties
from sonolens.medium import (
    AcousticMedium,
    HUCalibration,
    embed_lens,
    ingest_hu_volume,
    make_homogeneous,
    make_skull_phantom,
)


def make_grid(nx=8, ny=8, nz=8, d=125e-6):
    return GridSpec(nx, ny, nz, d, d, d, 2e6, 1500.0)


class TestMakeHomogeneous:
    def test_water_fill(self):
        med = make_homogeneous(make_grid(), WATER)
        assert np.all(med.c == 1500.0)
        assert np.all(med.rho == 1000.0)
        assert np.all(med.att == 0.0)

    def test_resin_fill(self):
        med = make_homogeneous(make_grid(), FORM_CLEAR)
        assert np.all(med.rho == 1178.0)
        assert np.all(med.att_power == pytest.approx(1.044))

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            make_grid(nx=0)

    def test_voxelwise_attenuation_matches_material(self):
        med = make_homogeneous(make_grid(), FORM_CLEAR)
        expected = FORM_CLEAR.attenuation_np_per_m(2e6)
        assert np.allclose(med.attenuation_np_per_m(), expected)


class TestIngestHU:
    def test_all_zero_hu_is_water(self):
        g = make_grid()
        med = ingest_hu_volume(g, np.zeros(g.shape, dtype=np.int64))
        water = make_homogeneous(g, WATER)
        assert np.array_equal(med.c, water.c)
        assert np.array_equal(med.rho, water.rho)

    def test_bone_endpoint(self):
        # hand-evaluated piecewise-linear map at HU = 1000
        g = make_grid()
        hu = np.full(g.shape, 1000, dtype=np.int64)
        med = ingest_hu_volume(g, hu)
        assert np.all(med.c == pytest.approx(2800.0))
        assert np.all(med.rho == pytest.approx(1850.0))

    def test_midpoint_interpolates(self):
        # independent oracle: linear blend at HU = 500
        g = make_grid()
        med = ingest_hu_volume(g, np.full(g.shape, 500, dtype=np.int64))
        assert np.all(med.c == pytest.approx(0.5 * (1500.0 + 2800.0)))
        assert np.all(med.att == pytest.approx(0.5 * 8.0))

    def test_single_bone_voxel_locality(self):
        g = make_grid()
        hu = np.zeros(g.shape, dtype=np.int64)
        hu[3, 4, 5] = 1200
        med = ingest_hu_volume(g, hu)
        diff = med.c != 1500.0
        assert diff.sum() == 1 and diff[3, 4, 5]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ingest_hu_volume(make_grid(), np.zeros((4, 4, 4)))

    def test_non_monotone_calibration_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            HUCalibration(hu_water=1000.0, hu_bone=0.0)


class TestSkullPhantom:
    def test_zero_thickness_is_water(self):
        g = make_grid(16, 16, 16)
        center = (8 * g.dx, 8 * g.dx, 8 * g.dx)
        med = make_skull_phantom(g, center, 0.4e-3, 0.0)
        assert np.all(med.c == 1500.0)

    def test_shell_volume_matches_analytic(self):
        # oracle: 4/3*pi*((r+t)^3 - r^3) / voxel volume, within 10%
        g = make_grid(48, 48, 48)
        center = (24 * g.dx, 24 * g.dx, 24 * g.dx)
        r, t = 1.5e-3, 0.6e-3
        med = make_skull_phantom(g, center, r, t)
        count = int(np.sum(med.c == BONE.sound_speed))
        analytic = 4.0 / 3.0 * np.pi * ((r + t) ** 3 - r**3) / g.voxel_volume
        assert count == pytest.approx(analytic, rel=0.10)

    def test_shell_outside_grid_rejected(self):
        g = make_grid()
        with pytest.raises(ValueError, match="fit"):
            make_skull_phantom(g, (4 * g.dx,) * 3, 5e-3, 1e-3)

    def test_mirror_symmetry(self):
        g = make_grid(17, 17, 17)
        center = (8 * g.dx, 8 * g.dx, 8 * g.dx)
        med = make_skull_phantom(g, center, 0.5e-3, 0.3e-3)
        assert np.array_equal(med.c, med.c[::-1, :, :])
        assert np.array_equal(med.c, med.c[:, ::-1, :])
        assert np.array_equal(med.c, med.c[:, :, ::-1])


class TestEmbedLens:
    def test_zero_lens_identity(self):
        g = make_grid()
        base = make_homogeneous(g, WATER)
        out = embed_lens(base, np.zeros((8, 8, 4)), FORM_CLEAR)
        assert np.array_equal(out.c, base.c)
        assert np.array_equal(out.rho, base.rho)

    def test_full_slab_replaces_exact_count(self):
        g = make_grid()
        base = make_homogeneous(g, WATER)
        out = embed_lens(base, np.ones((8, 8, 3)), FORM_CLEAR, z_offset=2)
        assert np.sum(out.c == FORM_CLEAR.sound_speed) == 8 * 8 * 3
        assert np.all(out.c[:, :, :2] == 1500.0)
        assert np.all(out.c[:, :, 5:] == 1500.0)

    def test_threshold_selects_columns(self):
        # direct thresholding oracle at the 0.9 default
        g = make_grid()
        base = make_homogeneous(g, WATER)
        occ = np.zeros((8, 8, 2))
        occ[0, 0, :] = 0.95
        occ[1, 1, :] = 0.85
        out = embed_lens(base, occ, FORM_CLEAR)
        assert np.all(out.c[0, 0, :2] == FORM_CLEAR.sound_speed)
        assert np.all(out.c[1, 1, :2] == 1500.0)

    def test_base_untouched(self):
        g = make_grid()
        base = make_homogeneous(g, WATER)
        snapshot = base.c.copy()
        embed_lens(base, np.ones((8, 8, 4)), FORM_CLEAR)
        assert np.array_equal(base.c, snapshot)

    def test_idempotent_for_quasi_binary(self):
        g = make_grid()
        base = make_homogeneous(g, WATER)
        rng = np.random.default_rng(1)
        occ = (rng.random((8, 8, 4)) > 0.5).astype(float)
        once = embed_lens(base, occ, FORM_CLEAR)
        twice = embed_lens(once, occ, FORM_CLEAR)
        assert np.array_equal(once.c, twice.c)
        assert np.array_equal(once.att, twice.att)

    def test_out_of_bounds_rejected(self):
        g = make_grid()
        base = make_homogeneous(g, WATER)
        with pytest.raises(ValueError, match="axial"):
            embed_lens(base, np.ones((8, 8, 6)), FORM_CLEAR, z_offset=4)


class TestAcousticMediumValidation:
    def test_shape_enforced(self):
        g = make_grid()
        with pytest.raises(ValueError):
            AcousticMedium(g, np.ones((4, 4, 4)), np.ones(g.shape),
                           np.zeros(g.shape), np.ones(g.shape))

    def test_positivity_enforced(self):
        g = make_grid()
        c = np.full(g.shape, 1500.0)
        c[0, 0, 0] = -1.0
        with pytest.raises(ValueError):
            AcousticMedium(g, c, np.full(g.shape, 1000.0),
                           np.zeros(g.shape), np.ones(g.shape))

    @pytest.mark.parametrize("name", ["c", "rho", "att", "att_power"])
    def test_nan_property_rejected(self, name):
        g = make_grid()
        arrays = {"c": np.full(g.shape, 1500.0),
                  "rho": np.full(g.shape, 1000.0),
                  "att": np.zeros(g.shape), "att_power": np.ones(g.shape)}
        arrays[name][1, 2, 3] = np.nan
        with pytest.raises(ValueError):
            AcousticMedium(g, **arrays)
