import numpy as np
import pytest

from sonolens.grid import (
    AGILUS30,
    FORM_CLEAR,
    NEPER_PER_DB,
    VEROCLEAR,
    WATER,
    GridSpec,
    MaterialProperties,
    disk_source,
    full_plane_source,
)


def make_grid(**kw):
    defaults = dict(nx=16, ny=16, nz=24, dx=125e-6, dy=125e-6, dz=125e-6,
                    frequency=2e6, c_ref=1500.0)
    defaults.update(kw)
    return GridSpec(**defaults)


class TestGridSpec:
    def test_shape_and_wavelength(self):
        g = make_grid()
        assert g.shape == (16, 16, 24)
        assert g.wavelength == pytest.approx(750e-6)
        assert g.points_per_wavelength == pytest.approx(6.0)
        assert g.k0 == pytest.approx(2.0 * np.pi * 2e6 / 1500.0)

    def test_anisotropic_lateral_spacing_rejected(self):
        with pytest.raises(ValueError, match="isotropic"):
            make_grid(dy=100e-6)

    def test_small_counts_rejected(self):
        with pytest.raises(ValueError):
            make_grid(nx=3)
        with pytest.raises(ValueError):
            make_grid(nz=0)

    def test_coarse_axial_sampling_rejected(self):
        # under 4 points per wavelength is an error
        with pytest.raises(ValueError, match="points per wavelength"):
            make_grid(dz=250e-6)

    def test_marginal_sampling_warns(self):
        with pytest.warns(UserWarning, match="marginal"):
            make_grid(dz=150e-6)  # 5 ppw

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError):
            make_grid(dx=0.0, dy=0.0)


class TestMaterialProperties:
    def test_catalog_values(self):
        # frozen catalog entries for the printing resins and water
        assert (FORM_CLEAR.sound_speed, FORM_CLEAR.density) == (2591.0, 1178.0)
        assert FORM_CLEAR.attenuation_coeff == pytest.approx(2.922)
        assert FORM_CLEAR.attenuation_power == pytest.approx(1.044)
        assert (VEROCLEAR.sound_speed, VEROCLEAR.density) == (2473.0, 1181.0)
        assert (AGILUS30.sound_speed, AGILUS30.density) == (2035.0, 1128.0)
        assert WATER.attenuation_coeff == 0.0

    def test_impedance(self):
        assert WATER.impedance == pytest.approx(1.5e6)
        assert FORM_CLEAR.impedance == pytest.approx(2591.0 * 1178.0)

    def test_attenuation_conversion_oracle(self):
        # independent oracle: dB/cm at f -> Np/m via ln(10)/20 and x100
        mat = MaterialProperties(2000.0, 1100.0, 3.0, 1.2)
        f = 3e6
        db_per_cm = 3.0 * 3.0**1.2
        expected = db_per_cm * np.log(10.0) / 20.0 * 100.0
        assert mat.attenuation_np_per_m(f) == pytest.approx(expected, rel=1e-12)

    def test_neper_constant(self):
        assert NEPER_PER_DB == pytest.approx(0.115129254, rel=1e-8)

    def test_bounds(self):
        with pytest.raises(ValueError):
            MaterialProperties(-1.0, 1000.0)
        with pytest.raises(ValueError):
            MaterialProperties(1500.0, 1000.0, -0.1)
        with pytest.raises(ValueError):
            MaterialProperties(1500.0, 1000.0, 1.0, 2.5)

    @pytest.mark.parametrize("field", ["sound_speed", "density",
                                       "attenuation_coeff"])
    def test_infinite_property_rejected(self, field):
        # passed the `> 0` and `>= 0` checks: an infinite density built
        # an infinite impedance
        values = {"sound_speed": 1500.0, "density": 1000.0,
                  "attenuation_coeff": 0.5, field: np.inf}
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            MaterialProperties(**values)


class TestSourcePlanes:
    @pytest.mark.parametrize("nx, ny, diameter, amplitude", [
        (32, 32, 2e-3, 1.0), (16, 24, 1e-3, 2.5), (17, 16, 1.3e-3, 0.3),
    ])
    def test_disk_is_amplitude_on_the_centred_disk(self, nx, ny, diameter,
                                                   amplitude):
        g = make_grid(nx=nx, ny=ny)
        plane = disk_source(g, diameter, amplitude)
        # voxel centres in metres from the grid's centre
        X, Y = np.meshgrid(np.linspace(-(nx - 1) / 2, (nx - 1) / 2, nx) * g.dx,
                           np.linspace(-(ny - 1) / 2, (ny - 1) / 2, ny) * g.dy,
                           indexing="ij")
        disk = np.hypot(X, Y) <= diameter / 2
        assert plane.dtype == np.complex128 and plane.shape == (nx, ny)
        assert np.array_equal(plane, np.where(disk, amplitude, 0.0))
        assert disk.sum() > 0

    @pytest.mark.parametrize("nx, ny", [(32, 32), (17, 24)])
    def test_disk_is_symmetric_under_x_and_y_flips(self, nx, ny):
        plane = disk_source(make_grid(nx=nx, ny=ny), 1.6e-3)
        assert np.array_equal(plane, plane[::-1, :])
        assert np.array_equal(plane, plane[:, ::-1])

    def test_full_plane_is_uniform(self):
        plane = full_plane_source(make_grid(nx=16, ny=20), amplitude=3.0)
        assert plane.dtype == np.complex128 and plane.shape == (16, 20)
        assert np.all(plane == 3.0)

    @pytest.mark.parametrize("amplitude", [0.0, -1.0, np.nan])
    @pytest.mark.parametrize("build", [
        full_plane_source, lambda g, amplitude: disk_source(g, 1e-3, amplitude),
    ])
    def test_non_positive_amplitude_rejected(self, build, amplitude):
        with pytest.raises(ValueError, match="amplitude must be positive"):
            build(make_grid(), amplitude=amplitude)

    @pytest.mark.parametrize("diameter, message", [
        (0.0, "must be positive"), (-1.5e-3, "must be positive"),
        (np.nan, "must be positive"),
        # the nearest voxel centres lie 88 um from the centre of a 16x16
        # grid at 125 um
        (0.1e-3, "covers no voxel"),
    ])
    def test_empty_or_negative_aperture_rejected(self, diameter, message):
        with pytest.raises(ValueError, match=f"aperture_diameter.*{message}"):
            disk_source(make_grid(), diameter)
