"""Steady-state single-frequency propagation through voxelized media.

Split-step spatial marching: for each axial step the field is advanced by
a spectral diffraction kernel exp(i*kz*dz) with kz = sqrt(k0^2 - kx^2 - ky^2)
(evanescent bins decay as exp(-|kz|*dz); bins beyond angular_cutoff*k0 are
zeroed, so the default cutoff of 1 keeps propagating content only),
then corrected in the spatial domain by a heterogeneity phase screen
exp(i*k0*(c_ref/c - 1)*dz), an absorption screen exp(-a*dz) (a in Np/m),
and a pressure transmission factor 2*Z2/(Z1+Z2) wherever the impedance
Z = rho*c changes between slices. Interface reflections with coefficient
(Z2-Z1)/(Z2+Z1) are recorded and swept in the opposite direction,
recursively up to the configured reflection order; the total field is the
coherent sum over all sweeps.

Slice pairs whose impedance is the same across the whole plane have
t = 1 and r = 0 exactly, so both sweeps skip the transmission and
reflection work there; the pairs where Z changes are found once per
forward run.

Every operation in the chain is complex-linear in the field, so the exact
reverse-mode gradient is obtained by transposing each step. The adjoint
always returns the source-plane cotangent. When the forward run embedded a
lens with linearly interpolated properties, it also returns the gradients
with respect to the per-voxel properties on the lens slab and, through
them, with respect to the lens occupancy; property gradients outside the
slab are not computed.

Gradient pairing convention: an upstream cotangent g satisfies
dL = Re(sum(g * dP)) (plain product, no conjugation inside the sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fft2, ifft2

from .grid import GridSpec, MaterialProperties, SourceSpec
from .medium import AcousticMedium


@dataclass
class SolverConfig:
    reflection_order: int = 4
    angular_cutoff: float = 1.0     # fraction of k0; > 1 keeps evanescent bins

    def __post_init__(self):
        if not 0 <= self.reflection_order <= 8:
            raise ValueError("reflection_order must lie in [0, 8]")
        if self.angular_cutoff <= 0:
            raise ValueError("angular_cutoff must be positive")


@dataclass
class ComplexField:
    """Complex pressure over the full grid (normalized pascals)."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def amplitude(self) -> np.ndarray:
        return np.abs(self.values)


def _diffraction_kernel(grid: GridSpec, angular_cutoff: float,
                        distance: float) -> np.ndarray:
    """Angular-spectrum transfer function over `distance` on the FFT grid.

    Propagating bins get exp(i*kz*distance); evanescent bins decay as
    exp(-|kz|*|distance|) in either direction; every bin with transverse
    wavenumber above angular_cutoff*k0 is zeroed, so at a cutoff <= 1 no
    evanescent content survives.
    """
    k0 = grid.k0
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy)
    kt2 = kx[:, None] ** 2 + ky[None, :] ** 2
    kz2 = k0**2 - kt2
    prop = kz2 >= 0
    H = np.zeros(kt2.shape, dtype=np.complex128)
    H[prop] = np.exp(1j * np.sqrt(kz2[prop]) * distance)
    H[~prop] = np.exp(-np.sqrt(-kz2[~prop]) * abs(distance))
    H[kt2 > (angular_cutoff * k0) ** 2] = 0.0
    return H


def _diffract(u: np.ndarray, H: np.ndarray) -> np.ndarray:
    return ifft2(H * fft2(u, axes=(0, 1)), axes=(0, 1))


def _diffract_transpose(ubar: np.ndarray, H: np.ndarray) -> np.ndarray:
    # transpose (not conjugate-transpose) of the diffraction operator
    return fft2(H * ifft2(ubar, axes=(0, 1)), axes=(0, 1))


@dataclass
class _Sweep:
    direction: int                      # +1 or -1 along z
    u: list                             # per-slice contribution (None where zero)
    v: list                             # post-diffraction field per visited slice
    inject: dict                        # slice -> injected source (consumed)


@dataclass
class SliceCache:
    """Forward-run state retained for the adjoint sweep."""

    grid: GridSpec
    cfg: SolverConfig
    H: np.ndarray
    c: np.ndarray
    rho: np.ndarray
    att_np: np.ndarray
    # iface[k]: the impedance differs somewhere between slices k and k+1
    iface: np.ndarray
    sweeps: list = field(default_factory=list)
    # lens embedding for d/d occupancy (None when no lens was embedded)
    lens_z_offset: int | None = None
    lens_dc: np.ndarray | None = None
    lens_drho: np.ndarray | None = None
    lens_datt: np.ndarray | None = None


@dataclass
class AdjointResult:
    """Gradients from a reverse sweep.

    occupancy: dL/d(lens occupancy), present only for lens-embedded runs
    source_plane: holomorphic cotangent of the complex source plane
    c, rho, att_np: (nx, ny, n_v) gradients w.r.t. the raw properties on
        the lens slab (slices z_offset .. z_offset + n_v - 1); (nx, ny, 0)
        for a run without a lens
    """

    source_plane: np.ndarray
    c: np.ndarray
    rho: np.ndarray
    att_np: np.ndarray
    occupancy: np.ndarray | None = None


def _screens(grid: GridSpec, c: np.ndarray, att_np: np.ndarray) -> np.ndarray:
    """Combined phase + absorption screen per voxel."""
    k0, dz = grid.k0, grid.dz
    return np.exp(1j * k0 * (grid.c_ref / c - 1.0) * dz - att_np * dz)


def _march(
    grid: GridSpec,
    H: np.ndarray,
    screen: np.ndarray,
    Z: np.ndarray,
    iface: np.ndarray,
    direction: int,
    inject: dict,
    collect_reflections: bool,
) -> tuple[_Sweep, dict]:
    """One directional sweep; returns the sweep record and reflected sources."""
    nz = grid.nz
    order = range(nz) if direction > 0 else range(nz - 1, -1, -1)
    order = list(order)
    u_list: list = [None] * nz
    v_list: list = [None] * nz
    refl: dict = {}

    u = inject.get(order[0])
    u_list[order[0]] = u
    for prev, s in zip(order[:-1], order[1:]):
        src = inject.get(s)
        if u is None:
            u_list[s] = src
            u = src
            continue
        v = _diffract(u, H)
        v_list[s] = v
        if iface[min(prev, s)]:
            Z1, Z2 = Z[:, :, prev], Z[:, :, s]
            t = 2.0 * Z2 / (Z1 + Z2)
            if collect_reflections:
                refl[prev] = (Z2 - Z1) / (Z1 + Z2) * v
            u = t * v * screen[:, :, s]
        else:
            u = v * screen[:, :, s]
        if src is not None:
            u = u + src
        u_list[s] = u
    return _Sweep(direction, u_list, v_list, dict(inject)), refl


def propagate(
    src: SourceSpec,
    medium: AcousticMedium,
    cfg: SolverConfig | None = None,
    source_plane: np.ndarray | None = None,
) -> tuple[ComplexField, SliceCache]:
    """Forward simulation from a planar source.

    source_plane overrides the flat-phase plane built from `src` (used for
    phase-modulated sources). Returns the total field and the cache needed
    by `propagate_adjoint`.
    """
    if cfg is None:
        cfg = SolverConfig()
    grid = medium.grid
    for arr in (medium.c, medium.rho, medium.att):
        if np.any(~np.isfinite(arr)):
            raise ValueError("medium contains non-finite values")
    if source_plane is None:
        source_plane = src.source_plane(grid)
    else:
        source_plane = np.asarray(source_plane, dtype=np.complex128)
        if source_plane.shape != (grid.nx, grid.ny):
            raise ValueError("source plane shape does not match grid")
    att_np = medium.attenuation_np_per_m()
    cache = _propagate_arrays(
        grid, cfg, medium.c, medium.rho, att_np, source_plane
    )
    return _total_field(cache), cache


def _propagate_arrays(
    grid: GridSpec,
    cfg: SolverConfig,
    c: np.ndarray,
    rho: np.ndarray,
    att_np: np.ndarray,
    source_plane: np.ndarray,
    source_slice: int = 0,
    initial_direction: int = 1,
) -> SliceCache:
    H = _diffraction_kernel(grid, cfg.angular_cutoff, grid.dz)
    screen = _screens(grid, c, att_np)
    Z = rho * c
    iface = np.any(Z[:, :, 1:] != Z[:, :, :-1], axis=(0, 1))
    cache = SliceCache(grid, cfg, H, c, rho, att_np, iface)

    inject = {source_slice: source_plane}
    direction = initial_direction
    for order in range(cfg.reflection_order + 1):
        collect = order < cfg.reflection_order
        sweep, refl = _march(grid, H, screen, Z, iface, direction, inject,
                             collect)
        cache.sweeps.append(sweep)
        if not refl:
            break
        inject = refl
        direction = -direction
    return cache


def _total_field(cache: SliceCache) -> ComplexField:
    grid = cache.grid
    total = np.zeros(grid.shape, dtype=np.complex128)
    for sweep in cache.sweeps:
        for s, u in enumerate(sweep.u):
            if u is not None:
                total[:, :, s] += u
    return ComplexField(total, grid)


def propagate_adjoint(cache: SliceCache, upstream: np.ndarray) -> AdjointResult:
    """Exact reverse-mode sweep through the cached forward chain.

    upstream is dL/dP over the full grid in the pairing dL = Re(sum(g*dP)).
    Property gradients cover the lens slab only (empty without a lens).
    """
    grid = cache.grid
    if upstream.shape != grid.shape:
        raise ValueError("upstream gradient shape does not match the cached grid")
    screen = _screens(grid, cache.c, cache.att_np)
    lensed = cache.lens_z_offset is not None
    z0 = cache.lens_z_offset if lensed else 0
    n_v = cache.lens_dc.shape[2] if lensed else 0

    slab = (grid.nx, grid.ny, n_v)
    gc, grho, gatt = np.zeros(slab), np.zeros(slab), np.zeros(slab)
    source_cot = np.zeros((grid.nx, grid.ny), dtype=np.complex128)

    # cotangents of the reflections a sweep emitted, filled in while
    # processing the consuming (later) sweep
    refl_cot: dict = {}
    for sweep in reversed(cache.sweeps):
        inject_cot = _sweep_adjoint(
            cache, screen, sweep, upstream, refl_cot, z0, gc, grho, gatt,
        )
        refl_cot = inject_cot
    # whatever remains feeds the original source plane
    for s, g in refl_cot.items():
        source_cot += g

    result = AdjointResult(source_cot, gc, grho, gatt)
    if lensed:
        result.occupancy = (
            gc * cache.lens_dc + grho * cache.lens_drho + gatt * cache.lens_datt
        )
    return result


def _sweep_adjoint(
    cache, screen, sweep: _Sweep, upstream, refl_cot, z0, gc, grho, gatt,
):
    """Reverse one sweep; returns cotangents of its consumed injections.

    The field cotangent is carried through every pair. Property gradients
    are accumulated into the slab arrays gc/grho/gatt, whose slice k holds
    grid slice z0 + k; pairs with neither slice on the slab skip that work.
    """
    grid = cache.grid
    nz = grid.nz
    k0, dz = grid.k0, grid.dz
    H, c, rho, iface = cache.H, cache.c, cache.rho, cache.iface
    n_v = gc.shape[2]
    direction = sweep.direction
    order = list(range(nz)) if direction > 0 else list(range(nz - 1, -1, -1))
    # restrict to the part of the march where the field was live
    live = [s for s in order if sweep.u[s] is not None]
    if not live:
        return {}
    start = order.index(live[0])
    order = order[start:]

    inject_cot: dict = {}
    carry = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
    for prev, s in zip(reversed(order[:-1]), reversed(order[1:])):
        if sweep.u[s] is None:
            continue
        ub = carry + upstream[:, :, s]
        if s in sweep.inject:
            inject_cot[s] = ub.copy()
        v = sweep.v[s]
        if v is None:
            # march had not started yet at this slice (pure injection)
            carry = np.zeros_like(carry)
            continue
        scr = screen[:, :, s]
        ks, kp = s - z0, prev - z0          # slab indices
        grad_s, grad_prev = 0 <= ks < n_v, 0 <= kp < n_v
        if not (iface[min(prev, s)] or grad_s or grad_prev):
            # t = 1, r = 0 and no property gradient wanted
            carry = _diffract_transpose(ub * scr, H)
            continue

        Z1 = rho[:, :, prev] * c[:, :, prev]
        Z2 = rho[:, :, s] * c[:, :, s]
        denom = Z1 + Z2
        t = 2.0 * Z2 / denom

        vbar = ub * t * scr
        if prev in refl_cot:
            r = (Z2 - Z1) / denom
            vbar = vbar + refl_cot[prev] * r
        carry = _diffract_transpose(vbar, H)
        if not (grad_s or grad_prev):
            continue

        gt = np.real(ub * v * scr)
        if grad_s:
            # screen derivative: d screen/dc = screen * (-i*k0*c_ref*dz/c^2),
            #                    d screen/da = -dz * screen
            gscr = ub * t * v
            gc[:, :, ks] += np.real(gscr * scr * (-1j) * k0 * grid.c_ref * dz) / (
                c[:, :, s] ** 2
            )
            gatt[:, :, ks] += np.real(gscr * scr) * (-dz)

        # impedance chain: dt/dZ1 = -2*Z2/denom^2, dt/dZ2 = 2*Z1/denom^2
        #                  dr/dZ1 = -2*Z2/denom^2, dr/dZ2 = 2*Z1/denom^2
        gZ1 = gt * (-2.0 * Z2 / denom**2)
        gZ2 = gt * (2.0 * Z1 / denom**2)
        if prev in refl_cot:
            gr = np.real(refl_cot[prev] * v)
            gZ1 += gr * (-2.0 * Z2 / denom**2)
            gZ2 += gr * (2.0 * Z1 / denom**2)
        if grad_prev:
            gc[:, :, kp] += gZ1 * rho[:, :, prev]
            grho[:, :, kp] += gZ1 * c[:, :, prev]
        if grad_s:
            gc[:, :, ks] += gZ2 * rho[:, :, s]
            grho[:, :, ks] += gZ2 * c[:, :, s]

    s0 = order[0]
    ub0 = carry + upstream[:, :, s0]
    if s0 in sweep.inject:
        inject_cot[s0] = ub0
    return inject_cot


def propagate_with_lens(
    src: SourceSpec,
    base: AcousticMedium,
    occupancy: np.ndarray,
    lens_mat: MaterialProperties,
    z_offset: int = 0,
    cfg: SolverConfig | None = None,
) -> tuple[ComplexField, SliceCache]:
    """Differentiable forward run with a lens relaxed into the medium.

    Properties inside the lens slab interpolate linearly in occupancy
    between the background and the lens material (a straight-through
    relaxation of the hard embedding threshold), so the returned cache
    yields exact occupancy gradients via `propagate_adjoint`.
    """
    if cfg is None:
        cfg = SolverConfig()
    grid = base.grid
    occupancy = np.asarray(occupancy, dtype=np.float64)
    if occupancy.shape[:2] != (grid.nx, grid.ny):
        raise ValueError("lens lateral shape does not match grid")
    n_v = occupancy.shape[2]
    if z_offset < 0 or z_offset + n_v > grid.nz:
        raise ValueError("lens exceeds the axial extent of the grid")
    att_np = base.attenuation_np_per_m()
    lens_att_np = lens_mat.attenuation_np_per_m(grid.frequency)
    sl = np.s_[:, :, z_offset : z_offset + n_v]
    dc = lens_mat.sound_speed - base.c[sl]
    drho = lens_mat.density - base.rho[sl]
    datt = lens_att_np - att_np[sl]

    c = base.c.copy()
    rho = base.rho.copy()
    att = att_np.copy()
    c[sl] += occupancy * dc
    rho[sl] += occupancy * drho
    att[sl] += occupancy * datt

    cache = _propagate_arrays(grid, cfg, c, rho, att, src.source_plane(grid))
    cache.lens_z_offset = z_offset
    cache.lens_dc = dc
    cache.lens_drho = drho
    cache.lens_datt = datt
    return _total_field(cache), cache


def apply_phase_delays(
    src: SourceSpec, phase: np.ndarray, grid: GridSpec
) -> np.ndarray:
    """Complex source plane A*exp(i*phi) on the aperture, zero elsewhere."""
    phase = np.asarray(phase, dtype=np.float64)
    if phase.shape != (grid.nx, grid.ny):
        raise ValueError("phase map shape does not match grid")
    src.validate(grid)
    return src.amplitude * src.aperture_mask * np.exp(1j * phase)


def backproject(
    plane: np.ndarray,
    grid: GridSpec,
    distances,
    cfg: SolverConfig | None = None,
) -> np.ndarray:
    """Angular-spectrum backprojection of a measured complex plane.

    Applies the diffraction kernel over minus each requested distance
    (positive = toward the source) assuming homogeneous water.
    Returns an (nx, ny, len(distances)) complex volume.
    """
    if cfg is None:
        cfg = SolverConfig()
    plane = np.asarray(plane, dtype=np.complex128)
    if plane.shape != (grid.nx, grid.ny):
        raise ValueError("plane shape does not match grid")
    distances = np.atleast_1d(np.asarray(distances, dtype=np.float64))
    if distances.size == 0:
        raise ValueError("at least one backprojection distance is required")
    domain = grid.nz * grid.dz
    if np.any(np.abs(distances) > domain):
        raise ValueError("backprojection distance exceeds the domain depth")

    spec = fft2(plane)
    out = np.zeros((grid.nx, grid.ny, distances.size), dtype=np.complex128)
    for i, d in enumerate(distances):
        out[:, :, i] = ifft2(_diffraction_kernel(grid, cfg.angular_cutoff, -d) * spec)
    return out
