"""Phase-only hologram baselines and their fabrication.

Phase-domain designs (gradient phase retrieval, time reversal) live in an
idealized optimization domain where the phase map acts directly on the
source plane. For physical evaluation they are converted into a
thickness-modulated lens, hard-voxelized, fabrication-filtered and
re-simulated as a slab run of the prepared medium ("fabrication domain"),
the operator the design loop differentiates.

Every function here takes the medium as one `solver.PreparedMedium`
with a lens slab, the one a design run prepares: the phase designs run
its base medium (no occupancy), and `fabricate_and_simulate` runs its
lens slab with the slab's own solver settings and lens material. A
thickness design has no step here: its design chain carries the
printer's blur, and its binarized lens is printed as the loop saw it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lensmap
from .lensmap import LensVolume
from .solver import ComplexField, PreparedMedium
# unused here: bound only for perfbench/tracer.py until ROADMAP item 5(e)
from .medium import embed_lens
from .solver import propagate
from .optim import LossReport, OptimConfig, TargetSpec, descend, loss_and_adjoint

TWO_PI = 2.0 * np.pi
T_MIN = 250e-6  # m, the default lower bound of every lens thickness


@dataclass
class PhaseMap:
    """Aperture phase delays, wrapped to [0, 2*pi)."""

    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.mod(np.asarray(self.phi, dtype=np.float64), TWO_PI)
        if self.phi.ndim != 2:
            raise ValueError("phase map must be 2D")


def optimize_phase_map(
    prepared: PreparedMedium,
    target: TargetSpec,
    cfg: OptimConfig,
) -> tuple[PhaseMap, LossReport]:
    """Gradient phase retrieval: optimize phi through the wave solver.

    No lens is relaxed into the slab: the phase acts directly on the
    prepared source plane A (the phase-only optimization domain), as A *
    exp(i*phi), and each iteration runs the base medium. Starts from a
    flat phase and runs the same loss stack and descent loop
    (`optim.descend`) as the geometry optimization.
    """
    grid = prepared.grid
    # the source amplitude; real, as the prepared plane has a flat phase
    mask = prepared.source_plane.real

    def objective(phi: np.ndarray, it: int):
        plane = mask * np.exp(1j * phi)
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
    t_min: float = T_MIN,
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


def time_reversal_foci(grid, foci) -> list:
    """`foci` as voxel-index triples; ValueError unless each is a voxel
    past the source slice, one `time_reversal` can march back from."""
    foci = [tuple(int(i) for i in focus) for focus in foci]
    for ix, iy, iz in foci:
        if not (0 <= ix < grid.nx and 0 <= iy < grid.ny and 0 < iz < grid.nz):
            raise ValueError(f"focus ({ix}, {iy}, {iz}) is degenerate or "
                             "outside the grid")
    return foci


def time_reversal(prepared: PreparedMedium, foci) -> PhaseMap:
    """Aberration-corrected phases by back-propagation from the targets.

    A point source at each focus is marched backward through the
    heterogeneous base medium of `prepared` (no lens) to the source
    plane; the aperture phase is the conjugate of the summed field's
    phase. Multi-focus patterns combine by complex summation.
    """
    grid = prepared.grid
    total = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
    for ix, iy, iz in time_reversal_foci(grid, foci):
        delta = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
        delta[ix, iy] = 1.0
        field_ = prepared.field_only(source_plane=delta, source_slice=iz,
                                     direction=-1)
        total += field_.values[:, :, 0]
    return PhaseMap(-np.angle(total))


def fabricate_and_simulate(
    phase: PhaseMap,
    prepared: PreparedMedium,
    t_min: float = T_MIN,
    t_max: float | None = None,
    fab_cutoff: float | None = None,
) -> tuple[ComplexField, LensVolume]:
    """Fabrication-domain field of a phase design.

    The PhaseMap is converted to a thickness profile of the slab's lens
    material, clamped to [t_min, t_max] (t_max None: the slab's depth; a
    deeper t_max is a ValueError), as a lens of the slab's slices whose
    v_max is its own depth. It is hard-binarized and low-pass filtered
    once to emulate printer resolution (`lensmap.fabrication_filter`),
    then run as the occupancy of the lens slab of `prepared`
    (`PreparedMedium.field_only`). That is the design loop's operator; on
    a binary lens it is the hard embedding of `medium.embed_lens`. No copy
    of the medium is made and no adjoint cache kept.
    """
    grid, n_v = prepared.grid, prepared.c.shape[2]
    if not isinstance(phase, PhaseMap):
        raise TypeError("design must be a PhaseMap")
    if prepared.lens_mat is None:
        raise ValueError("fabrication needs a medium prepared with a lens "
                         "material")
    if t_max is None:
        t_max = n_v * grid.dz
    elif t_max / grid.dz > n_v:
        raise ValueError(f"t_max {t_max:g} m is deeper than the "
                         f"{n_v}-slice lens slab")
    thickness_m = phase_to_thickness(
        phase.phi, grid.frequency, grid.c_ref,
        prepared.lens_mat.sound_speed, t_min, t_max,
    )
    t_vox = thickness_m / grid.dz
    lens = LensVolume(
        np.zeros((grid.nx, grid.ny, n_v)), t_vox,
        v_min=float(t_vox.min()), v_max=float(np.ceil(t_vox.max())),
    )
    lens = lensmap.fabrication_filter(lensmap.binarize(lens), fab_cutoff,
                                      grid.dx)
    return prepared.field_only(lens.occupancy), lens
