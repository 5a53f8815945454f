"""Independent reference implementations that the library code is checked against."""

from collections import deque, namedtuple

import numpy as np
from numpy.fft import fft2, ifft2
from scipy import ndimage, signal

from sonolens.baselines import TWO_PI, full_cycle_thickness
from sonolens.optim import TargetSpec
from sonolens.solver import ComplexField, _diffraction_kernel

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


def label_segment(amp, seeds, threshold_db=-6.0):
    """`scipy.ndimage.label` of the above-threshold mask, then one mask per
    seed: its component, or an empty mask below the threshold."""
    amp = np.asarray(amp)
    labels, _ = ndimage.label(amp >= amp.max() * 10.0 ** (threshold_db / 20.0))
    out = []
    for seed in seeds:
        label = labels[tuple(int(v) for v in seed)]
        out.append(labels == label if label else np.zeros(amp.shape, bool))
    return out


def embedded_arrays(base, occupancy, lens_mat, z_offset):
    """Full-grid c, rho and attenuation (Np/m) with a relaxed lens embedded.

    Fresh copies of the base medium whose slab [z_offset, z_offset + n_v)
    moves linearly in occupancy toward `lens_mat`: the formulation that
    `solver.prepare` and `propagate_with_lens` compute slab by slab.
    """
    att = base.attenuation_np_per_m()
    sl = np.s_[:, :, z_offset : z_offset + occupancy.shape[2]]
    c, rho, att = base.c.copy(), base.rho.copy(), att.copy()
    c[sl] += occupancy * (lens_mat.sound_speed - base.c[sl])
    rho[sl] += occupancy * (lens_mat.density - base.rho[sl])
    att[sl] += occupancy * (
        lens_mat.attenuation_np_per_m(base.grid.frequency) - att[sl])
    return c, rho, att


def _diffract(u, H):
    """One angular-spectrum step on fresh arrays, with full-grid FFTs: the
    reference of the passband step in `solver._march`."""
    return ifft2(H * fft2(u, axes=(0, 1)), axes=(0, 1))


def _diffract_transpose(ubar, H):
    """Transpose (not conjugate transpose) of `_diffract` on fresh arrays,
    with full-grid FFTs: the reference of the transposed passband step in
    `solver._sweep_adjoint`."""
    return fft2(H * ifft2(ubar, axes=(0, 1)), axes=(0, 1))


# one sweep of the oracle forward: its direction, the slices it injects
# at, and per slice its contribution u and post-diffraction field v (None
# where zero)
SweepRecord = namedtuple("SweepRecord", "direction inject u v")


def screens(grid, c, att_np):
    """Combined phase + absorption screen per voxel, one complex exp."""
    k0, dz = grid.k0, grid.dz
    return np.exp(1j * k0 * (grid.c_ref / c - 1.0) * dz - att_np * dz)


def full_grid_sweeps(grid, cfg, c, rho, att_np, source_plane,
                     source_slice=0, direction=1):
    """Forward sweeps on full property arrays, everything rebuilt per call.

    Reference for `solver.PreparedMedium.run`: the kernel, the screens
    and the impedance are computed over the whole grid, and every slice
    pair transmits by 2*Z2/(Z1+Z2) and reflects (Z2-Z1)/(Z1+Z2), zero
    where the impedance is equal. Returns one `SweepRecord` per sweep,
    every plane kept.
    """
    H = _diffraction_kernel(grid, cfg.angular_cutoff, grid.dz)
    screen = screens(grid, c, att_np)
    Z = rho * c
    sweeps = []
    inject = {source_slice: source_plane}
    for order in range(cfg.reflection_order + 1):
        steps = list(range(grid.nz) if direction > 0
                     else range(grid.nz - 1, -1, -1))
        record = SweepRecord(direction, frozenset(inject),
                             [None] * grid.nz, [None] * grid.nz)
        refl = {}
        u = record.u[steps[0]] = inject.get(steps[0])
        for prev, s in zip(steps[:-1], steps[1:]):
            src = inject.get(s)
            if u is None:
                u = src
            else:
                v = record.v[s] = _diffract(u, H)
                Z1, Z2 = Z[:, :, prev], Z[:, :, s]
                if order < cfg.reflection_order:
                    refl[prev] = (Z2 - Z1) / (Z1 + Z2) * v
                u = 2.0 * Z2 / (Z1 + Z2) * v * screen[:, :, s]
                if src is not None:
                    u = u + src
            record.u[s] = u
        sweeps.append(record)
        if not refl:
            break
        inject = refl
        direction = -direction
    return sweeps


def full_grid_forward(grid, cfg, c, rho, att_np, source_plane,
                      source_slice=0, direction=1):
    """The total field of `full_grid_sweeps`: every sweep's contributions
    added in sweep order."""
    total = np.zeros(grid.shape, dtype=np.complex128)
    for sweep in full_grid_sweeps(grid, cfg, c, rho, att_np, source_plane,
                                  source_slice, direction):
        for s, u in enumerate(sweep.u):
            if u is not None:
                total[:, :, s] += u
    return total


def full_grid_adjoint(cache, sweeps, upstream, c, rho, att_np):
    """Reverse sweep with full-grid property gradients at every slice pair.

    Reference for the slab-only `solver.propagate_adjoint`: the sweeps are
    `full_grid_sweeps` records of the run that made `cache` (which gives
    the grid, the kernel and the lens deltas), the screens and the
    impedance come from its full-grid properties c, rho and att_np (Np/m),
    and the transmission factor, the
    impedance chain and the screen derivative run on every pair, whether
    or not the impedance changes there or a gradient is used. Returns
    (source_plane, gc, grho, gatt, occupancy); occupancy is None without a
    lens.
    """
    grid = cache.grid
    screen = screens(grid, c, att_np)
    Z = rho * c
    gc = np.zeros(grid.shape)
    grho = np.zeros(grid.shape)
    gatt = np.zeros(grid.shape)
    source_cot = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
    refl_cot: dict = {}
    for sweep in reversed(sweeps):
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


def loss_and_gradient(
    values: np.ndarray,
    target,
    lambda_energy: float,
    lambda_balance: float,
) -> tuple[float, float, float, np.ndarray]:
    """All three loss terms plus the exact upstream field cotangent.

    Reference for `optim.loss_and_gradient`: every term is evaluated over
    the full grid with the target constants rebuilt on each call.
    """
    intensity = np.abs(values) ** 2
    a = target.a_target
    a2 = a**2
    omega = target.omega
    conj = np.conj(values)

    # accuracy term and d/d(intensity)
    num = np.sum(a2 * intensity)
    s4a = np.sum(a2**2)
    s4p = np.sum(intensity**2)
    w_int = np.zeros_like(intensity)
    if s4p > 0.0:
        denom = np.sqrt(s4a * s4p)
        l_acc = 1.0 - num / denom
        w_int += -a2 / denom + num * intensity / (np.sqrt(s4a) * s4p**1.5)
    else:
        l_acc = 1.0

    # balance term
    vals = intensity[omega]
    mean = vals.mean()
    std = float(np.std(vals))
    l_bal = std
    if std > 0.0:
        w_bal = np.zeros_like(intensity)
        w_bal[omega] = (vals - mean) / (vals.size * std)
        w_int += lambda_balance * w_bal

    upstream = 2.0 * w_int * conj

    # energy term, gradient through |P|
    a_sum = np.sum(a)
    l_en = float(-np.sum(a * np.abs(values)) / a_sum)
    amp = np.abs(values)
    nz = amp > 0
    g_en = np.zeros_like(values)
    g_en[nz] = (-a[nz] / a_sum) * conj[nz] / amp[nz]
    upstream = upstream + lambda_energy * g_en

    return l_acc, l_en, l_bal, upstream


def loss_and_gradient_on_support(
    values: np.ndarray,
    target,
    lambda_energy: float,
    lambda_balance: float,
) -> tuple[float, float, float, np.ndarray]:
    """The support-indexed loss of `optim.loss_and_gradient`, with a new
    full-grid array for |P|, |P|^2 and each step of d/d(intensity).

    `optim.loss_and_gradient` does the same arithmetic in one reused
    buffer and must equal this bit for bit. The field is flattened in
    `TargetSpec`'s slice-major order, whatever its layout.
    """
    shape = values.shape
    values = np.ascontiguousarray(values.transpose(2, 0, 1)).reshape(-1)
    sup, a = target.support, target.a_support
    a2 = a**2
    amp = np.abs(values)
    intensity = amp**2
    amp_s, int_s = amp[sup], intensity[sup]

    # accuracy term and d/d(intensity)
    num = np.sum(a2 * int_s)
    s4p = np.sum(intensity**2)
    if s4p > 0.0:
        denom = np.sqrt(target.s4a * s4p)
        l_acc = 1.0 - num / denom
        w_int = num * intensity / (np.sqrt(target.s4a) * s4p**1.5)
        w_int[sup] += -a2 / denom
    else:
        l_acc = 1.0
        w_int = np.zeros_like(intensity)

    # balance term
    omega = target.omega_index
    vals = intensity[omega]
    mean = vals.mean()
    std = float(np.std(vals))
    l_bal = std
    if std > 0.0:
        w_int[omega] += lambda_balance * ((vals - mean) / (vals.size * std))

    upstream = np.conj(values)
    upstream *= 2.0 * w_int

    # energy term, gradient through |P|
    l_en = float(-np.sum(a * amp_s) / target.a_sum)
    nz = amp_s > 0
    idx = sup[nz]
    upstream[idx] += lambda_energy * (
        (-a[nz] / target.a_sum) * np.conj(values[idx]) / amp_s[nz]
    )
    upstream = upstream.reshape(shape[2], *shape[:2]).transpose(1, 2, 0)
    return l_acc, l_en, l_bal, upstream


# The three loss terms one at a time, as the paper defines them; the
# library evaluates them together in `optim.loss_and_gradient`.

def _field_values(p) -> np.ndarray:
    return p.values if isinstance(p, ComplexField) else np.asarray(p)


def loss_acc(p, target: TargetSpec) -> float:
    """1 - cosine similarity between target and simulated intensity."""
    values = _field_values(p)
    if values.shape != target.a_target.shape:
        raise ValueError("field and target shapes differ")
    intensity = np.abs(values) ** 2
    a2 = target.a_target**2
    num = np.sum(a2 * intensity)
    denom = np.sqrt(np.sum(a2**2) * np.sum(intensity**2))
    if denom == 0.0:
        return 1.0
    return float(1.0 - num / denom)


def loss_energy(p, target: TargetSpec) -> float:
    """Negative mean pressure amplitude over the target support."""
    values = _field_values(p)
    a_sum = np.sum(target.a_target)
    if a_sum == 0:
        raise ValueError("target support is empty")
    return float(-np.sum(target.a_target * np.abs(values)) / a_sum)


def loss_balance(p, target: TargetSpec) -> float:
    """Population standard deviation of intensity over the active set."""
    values = _field_values(p)
    omega = target.omega
    return float(np.std(np.abs(values[omega]) ** 2))


# Inverse of `baselines.phase_to_thickness`.

def thickness_to_phase(
    thickness: np.ndarray,
    frequency: float,
    c0: float,
    c_lens: float,
    t_min: float = 250e-6,
) -> np.ndarray:
    """Relative transmission phase of a thickness map, inverse of the above."""
    t_2pi = full_cycle_thickness(frequency, c0, c_lens)
    frac = (np.asarray(thickness) - t_min) / t_2pi
    if c_lens > c0:
        return np.mod(TWO_PI - frac * TWO_PI, TWO_PI)
    return np.mod(frac * TWO_PI, TWO_PI)


# Reference of the blurs in `lensmap` (the DHLA's and the printer's):
# direct 2D convolution with the full 2D kernel, not the library's
# separable 1D taps.

def gaussian_kernel_2d(kernel_size, sigma):
    """Unit-sum 2D Gaussian of odd size, normalized over all its taps."""
    r = np.arange(kernel_size) - kernel_size // 2
    g = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * sigma**2))
    return g / g.sum()


def smooth_thickness(t, kernel_size, sigma):
    """Symmetric-padded map convolved with the Gaussian, "valid" region."""
    g = gaussian_kernel_2d(kernel_size, sigma)
    pad = kernel_size // 2
    tp = np.pad(t, pad, mode="symmetric")
    return signal.convolve2d(tp, g, mode="valid")


def smooth_transpose(gbar, shape, kernel_size, sigma):
    """Transpose of `smooth_thickness`: "full" convolution, then each padded
    cell's contribution added back onto the cell it was copied from."""
    g = gaussian_kernel_2d(kernel_size, sigma)
    pad = kernel_size // 2
    full = signal.convolve2d(gbar, g, mode="full")
    idx = np.pad(np.arange(shape[0] * shape[1]).reshape(shape), pad,
                 mode="symmetric")
    out = np.zeros(shape[0] * shape[1])
    np.add.at(out, idx.ravel(), full.ravel())
    return out.reshape(shape)
