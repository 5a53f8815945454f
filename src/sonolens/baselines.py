"""Phase-only hologram baselines and the common fabrication pipeline.

Phase-domain designs (gradient phase retrieval, time reversal) live in an
idealized optimization domain where the phase map acts directly on the
source plane. For physical evaluation they are converted into a
thickness-modulated lens, hard-voxelized, fabrication-filtered and
re-simulated as a slab run of the prepared medium ("fabrication domain"),
the operator the design loop differentiates.

`fabricate_and_simulate` is that fabrication step for both methods: a
thickness design arrives as the binarized, unfiltered lens of
`optim.optimize_lens_geometry` and is filtered here, once, like a phase
design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, MaterialProperties, SourceSpec
from .medium import AcousticMedium
from . import lensmap
from .lensmap import LensVolume
from .solver import ComplexField, SolverConfig, apply_phase_delays, prepare
# unused here: bound only for perfbench/tracer.py until ROADMAP item 5(e)
from .medium import embed_lens
from .solver import propagate
from .optim import LossReport, OptimConfig, TargetSpec, descend, loss_and_adjoint

TWO_PI = 2.0 * np.pi


@dataclass
class PhaseMap:
    """Aperture phase delays, wrapped to [0, 2*pi)."""

    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.mod(np.asarray(self.phi, dtype=np.float64), TWO_PI)
        if self.phi.ndim != 2:
            raise ValueError("phase map must be 2D")


def optimize_phase_map(
    src: SourceSpec,
    medium: AcousticMedium,
    target: TargetSpec,
    cfg: OptimConfig,
) -> tuple[PhaseMap, LossReport]:
    """Gradient phase retrieval: optimize phi through the wave solver.

    No lens volume is embedded; the phase acts directly on the source
    plane (the phase-only optimization domain). Starts from a flat phase
    and runs the same loss stack and descent loop (`optim.descend`) as the
    geometry optimization; the medium is prepared once for all iterations.
    """
    grid = medium.grid
    mask = src.amplitude * src.aperture_mask
    prepared = prepare(src, medium, cfg.solver)

    def objective(phi: np.ndarray, it: int):
        plane = apply_phase_delays(src, phi, grid)
        p, cache = prepared.run(source_plane=plane)
        total, terms, adj = loss_and_adjoint(p, cache, target, cfg)
        # d plane / d phi = i * A * exp(i*phi) on the aperture
        g_phi = np.real(adj.source_plane * 1j * mask * np.exp(1j * phi))
        return total, g_phi, terms, p

    phi, report, _ = descend(objective, np.zeros((grid.nx, grid.ny)), cfg)
    return PhaseMap(phi), report


def full_cycle_thickness(frequency: float, c0: float, c_lens: float) -> float:
    """Thickness producing a full 2*pi relative phase shift, in meters."""
    if c_lens == c0:
        raise ValueError("lens and medium sound speeds must differ")
    return 1.0 / (frequency * abs(1.0 / c0 - 1.0 / c_lens))


def phase_to_thickness(
    phi: np.ndarray,
    frequency: float,
    c0: float,
    c_lens: float,
    t_min: float = 250e-6,
    t_max: float | None = None,
) -> np.ndarray:
    """Convert a wrapped phase-delay map into a lens thickness map (m).

    For a lens material faster than the medium (c_lens > c0) a thicker
    lens advances the phase, so larger delay maps to thinner material
    (delay-complement convention):

        T = t_min + ((2*pi - phi) mod 2*pi) / (2*pi) * T_2pi

    The result is clamped to [t_min, t_max]; t_max defaults to
    t_min + T_2pi.
    """
    phi = np.mod(np.asarray(phi, dtype=np.float64), TWO_PI)
    t_2pi = full_cycle_thickness(frequency, c0, c_lens)
    if c_lens > c0:
        frac = np.mod(TWO_PI - phi, TWO_PI) / TWO_PI
    else:
        frac = phi / TWO_PI
    thickness = t_min + frac * t_2pi
    hi = t_min + t_2pi if t_max is None else t_max
    return np.clip(thickness, t_min, hi)


def time_reversal(
    src: SourceSpec,
    medium: AcousticMedium,
    foci,
    cfg: SolverConfig | None = None,
) -> PhaseMap:
    """Aberration-corrected phases by back-propagation from the targets.

    A point source at each focus is marched backward through the
    heterogeneous medium to the source plane; the aperture phase is the
    conjugate of the summed field's phase. Multi-focus patterns combine
    by complex summation.
    """
    grid = medium.grid
    prepared = prepare(src, medium, cfg)
    total = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
    for ix, iy, iz in foci:
        ix, iy, iz = int(ix), int(iy), int(iz)
        if not (0 <= ix < grid.nx and 0 <= iy < grid.ny and 0 < iz < grid.nz):
            raise ValueError(
                f"focus ({ix}, {iy}, {iz}) is degenerate or outside the grid"
            )
        delta = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
        delta[ix, iy] = 1.0
        field_ = prepared.field_only(source_plane=delta, source_slice=iz,
                                     direction=-1)
        total += field_.values[:, :, 0]
    return PhaseMap(-np.angle(total))


def fabricate_and_simulate(
    design,
    src: SourceSpec,
    medium: AcousticMedium,
    lens_mat: MaterialProperties,
    cfg: SolverConfig | None = None,
    z_offset: int = 0,
    t_min: float = 250e-6,
    t_max: float | None = None,
    fab_cutoff: float | None = None,
) -> tuple[ComplexField, LensVolume]:
    """Fabrication-domain field of a PhaseMap or LensVolume design.

    A PhaseMap is first converted to a thickness profile; a LensVolume
    (such as the binarized, unfiltered lens of `optimize_lens_geometry`)
    is used as-is. Either way the lens is hard-binarized and low-pass
    filtered once to emulate printer resolution (cutoff 2*dx by default),
    then run as the occupancy of the lens slab of the prepared medium
    (`PreparedMedium.field_only`). That is the design loop's operator; on
    a binary lens it is the hard embedding of `medium.embed_lens`. No copy
    of the medium is made and no adjoint cache kept.
    """
    grid = medium.grid
    if isinstance(design, PhaseMap):
        thickness_m = phase_to_thickness(
            design.phi, grid.frequency, grid.c_ref, lens_mat.sound_speed,
            t_min, t_max,
        )
        t_vox = thickness_m / grid.dz
        depth = int(np.ceil(t_vox.max()))
        lens = LensVolume(
            np.zeros((grid.nx, grid.ny, depth)), t_vox,
            v_min=float(t_vox.min()), v_max=float(depth),
        )
    elif isinstance(design, LensVolume):
        lens = design
    else:
        raise TypeError("design must be a PhaseMap or LensVolume")

    cutoff = fab_cutoff if fab_cutoff is not None else 2.0 * grid.dx
    lens = lensmap.fabrication_filter(lensmap.binarize(lens), cutoff, grid.dx)
    prepared = prepare(src, medium, cfg, lens_mat, z_offset, lens.n_v)
    return prepared.field_only(lens.occupancy), lens
