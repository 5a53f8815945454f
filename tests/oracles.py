"""Independent reference implementations that the library code is checked against."""

from collections import deque

import numpy as np

from sonolens.solver import _diffract_transpose, _screens

NEIGHBORS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def bfs_segment(amp, seed, threshold_db=-6.0):
    """Flood fill of the 6-connected above-threshold region holding `seed`.

    The threshold is relative to the global peak of `amp`; a seed below it
    yields an empty mask.
    """
    amp = np.asarray(amp)
    shape = amp.shape
    above = amp >= amp.max() * 10.0 ** (threshold_db / 20.0)
    seed = tuple(int(v) for v in seed)
    mask = np.zeros(shape, dtype=bool)
    if not above[seed]:
        return mask
    queue = deque([seed])
    mask[seed] = True
    while queue:
        i, j, k = queue.popleft()
        for di, dj, dk in NEIGHBORS:
            n = (i + di, j + dj, k + dk)
            if (all(0 <= v < s for v, s in zip(n, shape))
                    and above[n] and not mask[n]):
                mask[n] = True
                queue.append(n)
    return mask


def full_grid_adjoint(cache, upstream):
    """Reverse sweep with full-grid property gradients at every slice pair.

    Reference for the slab-only `solver.propagate_adjoint`: the transmission
    factor, the impedance chain and the screen derivative run on every
    pair, whether or not the impedance changes there or a gradient is
    used. Returns (source_plane, gc, grho, gatt, occupancy); occupancy is
    None without a lens.
    """
    grid = cache.grid
    c, rho = cache.c, cache.rho
    screen = _screens(grid, c, cache.att_np)
    Z = rho * c
    gc = np.zeros(grid.shape)
    grho = np.zeros(grid.shape)
    gatt = np.zeros(grid.shape)
    source_cot = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
    refl_cot: dict = {}
    for sweep in reversed(cache.sweeps):
        refl_cot = _full_grid_sweep_adjoint(
            grid, cache.H, screen, Z, c, rho, sweep, upstream, refl_cot,
            gc, grho, gatt,
        )
    for g in refl_cot.values():
        source_cot += g

    occupancy = None
    if cache.lens_z_offset is not None:
        z0 = cache.lens_z_offset
        sl = np.s_[:, :, z0 : z0 + cache.lens_dc.shape[2]]
        occupancy = (
            gc[sl] * cache.lens_dc
            + grho[sl] * cache.lens_drho
            + gatt[sl] * cache.lens_datt
        )
    return source_cot, gc, grho, gatt, occupancy


def _full_grid_sweep_adjoint(grid, H, screen, Z, c, rho, sweep, upstream,
                             refl_cot, gc, grho, gatt):
    nz = grid.nz
    k0, dz = grid.k0, grid.dz
    order = list(range(nz)) if sweep.direction > 0 else list(range(nz - 1, -1, -1))
    live = [s for s in order if sweep.u[s] is not None]
    if not live:
        return {}
    order = order[order.index(live[0]):]

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
            carry = np.zeros_like(carry)
            continue
        Z1, Z2 = Z[:, :, prev], Z[:, :, s]
        denom = Z1 + Z2
        t = 2.0 * Z2 / denom
        scr = screen[:, :, s]

        vbar = ub * t * scr
        gt = np.real(ub * v * scr)
        gr = None
        if prev in refl_cot:
            r = (Z2 - Z1) / denom
            vbar = vbar + refl_cot[prev] * r
            gr = np.real(refl_cot[prev] * v)

        gscr = ub * t * v
        gc[:, :, s] += np.real(gscr * scr * (-1j) * k0 * grid.c_ref * dz) / (
            c[:, :, s] ** 2
        )
        gatt[:, :, s] += np.real(gscr * scr) * (-dz)

        gZ1 = gt * (-2.0 * Z2 / denom**2)
        gZ2 = gt * (2.0 * Z1 / denom**2)
        if gr is not None:
            gZ1 += gr * (-2.0 * Z2 / denom**2)
            gZ2 += gr * (2.0 * Z1 / denom**2)
        gc[:, :, prev] += gZ1 * rho[:, :, prev]
        grho[:, :, prev] += gZ1 * c[:, :, prev]
        gc[:, :, s] += gZ2 * rho[:, :, s]
        grho[:, :, s] += gZ2 * c[:, :, s]

        carry = _diffract_transpose(vbar, H)

    s0 = order[0]
    ub0 = carry + upstream[:, :, s0]
    if s0 in sweep.inject:
        inject_cot[s0] = ub0
    return inject_cot
