"""Simulation grid, material catalog, and source planes.

All physical quantities are SI (meters, Hz, m/s, kg/m^3) except the
attenuation coefficient, which follows the ultrasound convention
dB/(MHz^y * cm) with a frequency power law exponent y. A source is
its complex pressure plane at slice 0, (nx, ny) complex128
(`disk_source`, `full_plane_source`), which `solver.prepare` takes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

NEPER_PER_DB = np.log(10.0) / 20.0


def power_law_attenuation(coeff, power, frequency: float):
    """Attenuation in Np/m at `frequency` (Hz) of a coefficient in
    dB/(MHz^y cm) with exponent y; scalars or per-voxel arrays."""
    return coeff * (frequency / 1e6) ** power * NEPER_PER_DB * 100.0


def is_count(value, least: int = 0) -> bool:
    """Whether `value` is an integer of at least `least`: an int or a
    NumPy integer, never a bool."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= least)


@dataclass(frozen=True)
class GridSpec:
    """Uniform voxel grid for single-frequency field simulation.

    The lateral spacings must be isotropic (dx == dy) because diffraction
    is handled in the 2D spatial-frequency domain. The axial sampling must
    resolve the wavelength in the reference medium: at least 4 points per
    wavelength, with a warning below 6.
    """

    nx: int
    ny: int
    nz: int
    dx: float = field(metadata={"unit": "m"})
    dy: float = field(metadata={"unit": "m"})
    dz: float = field(metadata={"unit": "m"})
    frequency: float = field(metadata={"unit": "Hz"})
    c_ref: float = field(default=1500.0, metadata={"unit": "m/s"})

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if not is_count(n, 4):
                raise ValueError(f"{name} must be an integer >= 4, got {n!r}")
        for name in ("dx", "dy", "dz", "frequency", "c_ref"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v!r}")
        if not np.isclose(self.dx, self.dy, rtol=1e-12):
            raise ValueError("lateral spacing must be isotropic (dx == dy)")
        ppw = self.points_per_wavelength
        if ppw < 4:
            raise ValueError(
                f"axial sampling too coarse: {ppw:.2f} points per wavelength (need >= 4)"
            )
        if ppw < 6:
            warnings.warn(
                f"marginal axial sampling: {ppw:.2f} points per wavelength (< 6)",
                stacklevel=2,
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def wavelength(self) -> float:
        """Wavelength in the reference medium."""
        return self.c_ref / self.frequency

    @property
    def points_per_wavelength(self) -> float:
        return self.c_ref / (self.frequency * self.dz)

    @property
    def k0(self) -> float:
        """Reference wavenumber 2*pi*f/c_ref."""
        return 2.0 * np.pi * self.frequency / self.c_ref

    @property
    def voxel_volume(self) -> float:
        return self.dx * self.dy * self.dz

    def squared_distance(self, point) -> np.ndarray:
        """Squared distance of each voxel center from `point` (x, y, z),
        in meters from the center of voxel (0, 0, 0)."""
        x, y, z = (np.arange(n) * d - p for n, d, p
                   in zip(self.shape, (self.dx, self.dy, self.dz), point))
        return x[:, None, None]**2 + y[None, :, None]**2 + z[None, None, :]**2


@dataclass(frozen=True)
class MaterialProperties:
    """Acoustic bulk properties of a single material.

    attenuation_coeff is in dB/(MHz^y * cm); attenuation_power is the
    frequency power-law exponent y.
    """

    sound_speed: float
    density: float
    attenuation_coeff: float = 0.0
    attenuation_power: float = 1.0

    def __post_init__(self):
        if not 0 < self.sound_speed < np.inf:     # NaN fails too
            raise ValueError("sound_speed must be positive and finite")
        if not 0 < self.density < np.inf:
            raise ValueError("density must be positive and finite")
        if not 0 <= self.attenuation_coeff < np.inf:
            raise ValueError("attenuation_coeff must be non-negative and "
                             "finite")
        if not 0.5 <= self.attenuation_power <= 2.0:
            raise ValueError("attenuation_power must lie in [0.5, 2]")

    @property
    def impedance(self) -> float:
        """Characteristic acoustic impedance rho*c in Rayl."""
        return self.density * self.sound_speed

    def attenuation_np_per_m(self, frequency: float) -> float:
        """Power-law attenuation at `frequency` (Hz), in Np/m."""
        return power_law_attenuation(self.attenuation_coeff,
                                     self.attenuation_power, frequency)


# Measured properties of common coupling media and SLA printing resins.
WATER = MaterialProperties(sound_speed=1500.0, density=1000.0)
FORM_CLEAR = MaterialProperties(2591.0, 1178.0, 2.922, 1.044)
VEROCLEAR = MaterialProperties(2473.0, 1181.0, 3.696, 0.9958)
AGILUS30 = MaterialProperties(2035.0, 1128.0, 9.109, 1.017)

# Generic cortical-bone surrogate used by the synthetic skull phantom.
BONE = MaterialProperties(2800.0, 1850.0, 8.0, 1.0)


# the default source amplitude, in Pa: unit plane-wave pressure
SOURCE_AMPLITUDE = 1.0


def full_plane_source(grid: GridSpec,
                      amplitude: float = SOURCE_AMPLITUDE) -> np.ndarray:
    """The (nx, ny) complex128 pressure at slice 0 of a plane wave over the
    whole lateral extent: `amplitude` everywhere, flat phase."""
    if not amplitude > 0:               # NaN fails too
        raise ValueError(f"amplitude must be positive, got {amplitude!r}")
    return np.full((grid.nx, grid.ny), amplitude, dtype=np.complex128)


def disk_source(grid: GridSpec, aperture_diameter: float,
                amplitude: float = SOURCE_AMPLITUDE) -> np.ndarray:
    """The full plane on a hard-edged disk of `aperture_diameter` (m)
    centred on the grid, zero outside: a planar piston source."""
    if not aperture_diameter > 0:       # NaN fails too
        raise ValueError(f"aperture_diameter must be positive, got "
                         f"{aperture_diameter!r}")
    x = (np.arange(grid.nx) - (grid.nx - 1) / 2.0) * grid.dx
    y = (np.arange(grid.ny) - (grid.ny - 1) / 2.0) * grid.dy
    mask = x[:, None] ** 2 + y[None, :] ** 2 <= (aperture_diameter / 2.0) ** 2
    if not mask.any():
        raise ValueError(f"aperture_diameter {aperture_diameter!r} m covers "
                         "no voxel of the grid")
    return full_plane_source(grid, amplitude) * mask
