"""Voxelized heterogeneous acoustic media.

An AcousticMedium stores per-voxel sound speed, density, and attenuation
(coefficient + power-law exponent) over a GridSpec. Constructors cover
homogeneous fills, CT-number ingestion via a piecewise-linear calibration,
a synthetic spherical-shell skull phantom, and embedding of a quasi-binary
lens volume. All operations are pure: inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    BONE, GridSpec, MaterialProperties, WATER, power_law_attenuation,
)


@dataclass
class AcousticMedium:
    """Per-voxel acoustic properties over a 3D grid.

    c [m/s], rho [kg/m^3], att [dB/(MHz^y cm)], att_power (exponent y).
    """

    grid: GridSpec
    c: np.ndarray
    rho: np.ndarray
    att: np.ndarray
    att_power: np.ndarray

    def __post_init__(self):
        shape = self.grid.shape
        for name in ("c", "rho", "att", "att_power"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        # NaN fails each check
        if not (np.all(self.c > 0) and np.all(self.rho > 0)):
            raise ValueError("sound speed and density must be positive everywhere")
        if not np.all(self.att >= 0):
            raise ValueError("attenuation must be non-negative")
        if not np.all((self.att_power >= 0.5) & (self.att_power <= 2.0)):
            raise ValueError("attenuation power must lie in [0.5, 2]")

    def copy(self) -> "AcousticMedium":
        return AcousticMedium(
            self.grid, self.c.copy(), self.rho.copy(),
            self.att.copy(), self.att_power.copy(),
        )

    def attenuation_np_per_m(self) -> np.ndarray:
        """Voxelwise power-law attenuation at the grid frequency, Np/m."""
        return power_law_attenuation(self.att, self.att_power,
                                     self.grid.frequency)


def make_homogeneous(grid: GridSpec, mat: MaterialProperties) -> AcousticMedium:
    """Fill the whole grid with a single material."""
    shape = grid.shape
    return AcousticMedium(
        grid,
        np.full(shape, mat.sound_speed),
        np.full(shape, mat.density),
        np.full(shape, mat.attenuation_coeff),
        np.full(shape, mat.attenuation_power),
    )


@dataclass(frozen=True)
class HUCalibration:
    """Piecewise-linear map from CT numbers to acoustic properties.

    Values at or below hu_water map to the water material; values at or
    above hu_bone map to the bone material; properties interpolate
    linearly in between. The map is monotone by construction provided
    hu_water < hu_bone.

    The default coefficients (HU 1000 -> 2800 m/s, 1850 kg/m^3,
    8 dB/(MHz cm)) are documented placeholders, not a calibrated fit;
    override them for quantitative skull work.
    """

    hu_water: float = 0.0
    hu_bone: float = 1000.0
    water: MaterialProperties = WATER
    bone: MaterialProperties = BONE

    def __post_init__(self):
        if not self.hu_water < self.hu_bone:
            raise ValueError("calibration must be monotone: hu_water < hu_bone")

    def fraction(self, hu: np.ndarray) -> np.ndarray:
        """Bone fraction in [0, 1] for each CT number."""
        return np.clip(
            (np.asarray(hu, dtype=np.float64) - self.hu_water)
            / (self.hu_bone - self.hu_water),
            0.0,
            1.0,
        )


def ingest_hu_volume(
    grid: GridSpec, hu: np.ndarray, calib: HUCalibration | None = None
) -> AcousticMedium:
    """Convert a CT-number volume into an acoustic property map."""
    if calib is None:
        calib = HUCalibration()
    hu = np.asarray(hu)
    if hu.shape != grid.shape:
        raise ValueError(f"HU volume shape {hu.shape} does not match grid {grid.shape}")
    frac = calib.fraction(hu)
    w, b = calib.water, calib.bone
    return AcousticMedium(
        grid,
        w.sound_speed + frac * (b.sound_speed - w.sound_speed),
        w.density + frac * (b.density - w.density),
        w.attenuation_coeff + frac * (b.attenuation_coeff - w.attenuation_coeff),
        w.attenuation_power + frac * (b.attenuation_power - w.attenuation_power),
    )


def make_skull_phantom(
    grid: GridSpec,
    shell_center: tuple[float, float, float],
    inner_radius: float,
    thickness: float,
    bone: MaterialProperties = BONE,
    background: MaterialProperties = WATER,
) -> AcousticMedium:
    """Spherical-shell bone phantom in a water background.

    A synthetic stand-in for a real skull: a shell of the given inner
    radius and thickness centered at shell_center (meters, grid-local
    coordinates with the origin at the corner voxel center).
    """
    if thickness < 0 or inner_radius < 0:
        raise ValueError("inner_radius and thickness must be non-negative")
    cx, cy, cz = shell_center
    extent = (grid.nx * grid.dx, grid.ny * grid.dy, grid.nz * grid.dz)
    outer = inner_radius + thickness
    for c, L in zip((cx, cy, cz), extent):
        if c - outer < -grid.dx or c + outer > L + grid.dx:
            raise ValueError("shell does not fit inside the grid")
    r2 = grid.squared_distance(shell_center)
    shell = (r2 >= inner_radius**2) & (r2 <= outer**2)
    if thickness == 0:
        shell[:] = False

    med = make_homogeneous(grid, background)
    med.c[shell] = bone.sound_speed
    med.rho[shell] = bone.density
    med.att[shell] = bone.attenuation_coeff
    med.att_power[shell] = bone.attenuation_power
    return med


def embed_lens(
    base: AcousticMedium,
    occupancy: np.ndarray,
    mat: MaterialProperties,
    z_offset: int = 0,
) -> AcousticMedium:
    """Replace voxels where lens occupancy exceeds 0.9 with `mat`.

    `occupancy` is a quasi-binary (nx, ny, n_v) volume; it is placed at
    axial slices [z_offset, z_offset + n_v). Returns a new medium.
    """
    grid = base.grid
    occupancy = np.asarray(occupancy)
    if occupancy.ndim != 3 or occupancy.shape[:2] != (grid.nx, grid.ny):
        raise ValueError(
            f"lens lateral shape {occupancy.shape[:2]} does not match grid "
            f"({grid.nx}, {grid.ny})"
        )
    n_v = occupancy.shape[2]
    if z_offset < 0 or z_offset + n_v > grid.nz:
        raise ValueError("lens exceeds the axial extent of the grid")

    out = base.copy()
    solid = occupancy > 0.9
    sl = np.s_[:, :, z_offset : z_offset + n_v]
    out.c[sl] = np.where(solid, mat.sound_speed, out.c[sl])
    out.rho[sl] = np.where(solid, mat.density, out.rho[sl])
    out.att[sl] = np.where(solid, mat.attenuation_coeff, out.att[sl])
    out.att_power[sl] = np.where(solid, mat.attenuation_power, out.att_power[sl])
    return out
