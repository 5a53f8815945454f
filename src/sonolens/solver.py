"""Steady-state single-frequency propagation through voxelized media.

Split-step angular-spectrum marching along z: each step diffracts the
field across one slice, then multiplies it by the step's multiplier,
the screen of the slice it enters times the transmission coefficient of
an interface. Interfaces reflect sources into sweeps the other way, up
to the configured reflection order; the field sums all sweeps, and the
adjoint transposes every step. Each mechanism is described once, where
it is implemented:

- Diffraction: `_diffraction_kernel`; the step on its passband as real
  matrix products, `_Passband`, `_cos_sin`, `_into_band`, `_out_of_band`.
- Slices and interfaces: screens and impedances, `_per_slice`; the
  reflection plane, `_interface`; the transmission plane, `_transmitted`.
- Set-up once per medium and the precision of a run: `prepare`; the
  medium it returns and its fields, `PreparedMedium`; a copy for another
  lens material, `PreparedMedium.with_lens`.
- A run: `PreparedMedium.run` and `PreparedMedium.field_only`, through
  `PreparedMedium._forward` (sweeps, plane stack, plans); a lens run's
  slab, `PreparedMedium._lens_slab` and `_Slab`.
- A sweep: slices, segments and spectral multipliers, `_plan`, `_Plan`;
  the march along them, `_march`.
- What a run keeps for the adjoint: `SliceCache`, `_Sweep`.
- The adjoint and the gradient pairing convention: `propagate_adjoint`;
  one reverse sweep, `_sweep_adjoint`; the slab's gradients,
  `_slab_gradients`; scratch on the spare plane stack, `_borrow`.
- Functional entry points: `propagate`, `propagate_with_lens`,
  `backproject`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import GridSpec, MaterialProperties, is_count
from .medium import AcousticMedium


@dataclass
class SolverConfig:
    reflection_order: int = 4
    angular_cutoff: float = 1.0     # fraction of k0; > 1 keeps evanescent bins

    def __post_init__(self):
        if not is_count(self.reflection_order) or self.reflection_order > 8:
            raise ValueError("reflection_order must be an integer in [0, 8]")
        if not self.angular_cutoff > 0:     # NaN fails too
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


def _cos_sin(n: int, live: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray]:
    """The real n-point DFT of a multiplier even in k, on the bins where
    `live` (length n, even in k) is set: (F, Fi, k). With k the live bins
    0 <= k <= n/2, the real (len(k), n) matrix F has a row
    cos(2*pi*j*k/n) for each k and then a row sin(2*pi*j*k/n) for each
    0 < k < n/2, and Fi = (w * F).T with w = 1/n at k = 0 and n/2 and 2/n
    elsewhere, so that Fi @ (h[k] * (F @ x)) is the DFT multiplier h,
    even in k, applied to x (the real-symmetric DFT of Bracewell's
    Hartley transform, JOSA 73, 1832, 1983). The phase (j*k) mod n keeps
    each argument in [0, 2*pi), where cos and sin keep full precision."""
    k = np.flatnonzero(live[: n // 2 + 1])
    rows = np.concatenate([k, k[(k > 0) & (2 * k < n)]])
    phase = 2 * np.pi * (np.outer(rows, np.arange(n)) % n) / n
    F = np.concatenate([np.cos(phase[: k.size]), np.sin(phase[k.size :])])
    return (F, F.T * np.where((rows == 0) | (2 * rows == n), 1.0, 2.0) / n,
            rows)


# planes per product of a block of planes (`_into_band`, `_out_of_band`):
# bounds their intermediate to this many (br, ny) planes
_BLOCK = 8


@dataclass(eq=False)
class _Passband:
    """The diffraction step on the kernel's passband, the br rows and bc
    columns of the FFT grid where H is nonzero (21 of 64 each at 64x64,
    125 um and 2 MHz): two matrix products into the band and two back
    out, the matrix Fourier transform of Soummer et al. (Opt. Express
    15, 15935, 2007). H is even in kx and ky (`_diffraction_kernel`), so
    with (A, Ai, rows) the real DFT `_cos_sin` of x on H's live rows and
    (B.T, Bi.T, cols) that of y on its live columns, ifft2(H * fft2(u))
    = Ai @ (H[rows, cols] * (A @ u @ B)) @ Bi (H[k, c] on every cos and
    sin row and column of k and c): 4*br*nx*ny + 8*br*bc*ny real
    multiply-adds, 570k at 64x64. The matrices are of the dtype's real
    type and each product is one real GEMM on float views: a left matrix
    acts on an (nx, ny) complex plane's (nx, 2*ny) float view, and a
    right matrix R is stored as kron(R, I2), which acts there as R. H,
    powers, tmp (the products' intermediate) and spectra (a segment's,
    in march order) are of the dtype, scratch that runs use in turn.
    """

    H: np.ndarray                       # H on the passband, (br, bc)
    into: tuple                         # (A, B): the first product's (L, R)
    back: tuple                         # (Ai, Bi): the last product's
    into_t: tuple                       # (Ai.T, Bi.T) and (A.T, B.T): those
    back_t: tuple                       # of the adjoint's transposed step
    tmp: np.ndarray                     # _BLOCK (br, ny) planes
    powers: np.ndarray                  # H**1 .. H**n on the passband
    spectra: np.ndarray                 # n passband spectra, scratch

    @classmethod
    def of(cls, H: np.ndarray, dtype=np.complex128,
           n: int = 0) -> "_Passband":
        """The step of kernel H, its matrices built in double and stored
        as the real type of `dtype`, H on the band, its first n powers
        (formed in double from H on the band as stored), spectra and tmp
        as `dtype`."""
        A, Ai, rows = _cos_sin(H.shape[0], np.any(H, axis=1))
        Bt, Bit, cols = _cos_sin(H.shape[1], np.any(H, axis=0))
        pairs = [(A, Bt.T), (Ai, Bit.T), (Ai.T, Bit), (A.T, Bt)]
        f = np.finfo(dtype).dtype
        band = H[np.ix_(rows, cols)].astype(dtype)
        powers = np.empty((n, *band.shape), dtype)
        P = h = band.astype(np.complex128)
        for j in range(n):
            powers[j] = P
            P = P * h
        return cls(band,
                   *[(np.ascontiguousarray(L, dtype=f),
                      np.kron(R, np.eye(2)).astype(f)) for L, R in pairs],
                   tmp=np.empty((_BLOCK, rows.size, H.shape[1]), dtype=dtype),
                   powers=powers, spectra=np.empty_like(powers))


def _into_band(mats: tuple, x: np.ndarray, out: np.ndarray,
               tmp: np.ndarray) -> np.ndarray:
    """out = L @ x @ R, (L, R) = mats, for one (nx, ny) plane x or a block
    of them (a block of len(tmp) planes at a time), through tmp = L @ x,
    each product one real GEMM on float views (`np.dot` on one plane:
    less call overhead than `np.matmul`, into a C-contiguous out)."""
    L, R = mats
    f = L.dtype
    if x.ndim == 2:
        t = tmp[0].view(f)
        np.dot(L, x.view(f), out=t)
        np.dot(t, R, out=out.view(f))
        return out
    for i in range(0, len(x), len(tmp)):
        t = tmp[: len(x) - i].view(f)
        np.matmul(L, x[i : i + len(t)].view(f), out=t)
        np.matmul(t, R, out=out[i : i + len(t)].view(f))
    return out


def _out_of_band(mats: tuple, K: np.ndarray, out: np.ndarray,
                 tmp: np.ndarray) -> np.ndarray:
    """out = L @ K @ R, (L, R) = mats, for one passband spectrum K or a
    block of them (a block of len(tmp) at a time), through tmp = K @ R,
    each product one real GEMM on float views."""
    L, R = mats
    f = L.dtype
    if K.ndim == 2:
        t = tmp[0].view(f)
        np.dot(L, np.dot(K.view(f), R, out=t), out=out.view(f))
        return out
    for i in range(0, len(K), len(tmp)):
        t = tmp[: len(K) - i].view(f)
        np.matmul(L, np.matmul(K[i : i + len(t)].view(f), R, out=t),
                  out=out[i : i + len(t)].view(f))
    return out


@dataclass(eq=False)
class _Plan:
    """A sweep's plan (`_plan`): the slices it visits, in march order, its
    segments, (first, last) indices into order, and one entry per
    segment in ops: None for a one-slice segment, else its spectral
    multipliers, in march order."""

    order: range
    segments: list
    ops: list


@dataclass
class _Sweep:
    """One sweep of a cached run, as its adjoint reads it: v holds the
    cache's planes of the field after diffraction at the far slice of
    each slab pair, and plan the plan the sweep marched."""

    direction: int                      # +1 or -1 along z
    u: list                             # per-slice contribution (None but one)
    v: list                             # post-diffraction field near the slab
    inject: dict                        # injected slices (values None)
    plan: _Plan


@dataclass
class _Slab:
    """A lens run's slab pairs as slice-major blocks: slices, n slices of
    the slab and the slice on either side within the grid, and the slab
    pairs, the n - 1 pairs between them. Z (n, nx, ny) is the slices'
    impedance, r the pairs' r planes and trans[d] their transmission
    planes toward d, which alone carry the slab slices' screens. medium
    made the run; the adjoint borrows its spare plane stack."""

    slices: range
    Z: np.ndarray
    r: np.ndarray
    trans: dict
    medium: "PreparedMedium" = field(repr=False)


@dataclass
class SliceCache:
    """Forward-run state retained for the adjoint by `PreparedMedium.run`:
    one `_Sweep` per sweep, the prepared medium's step band and kernel H,
    and the run's r planes and multipliers coeff and trans (see
    `PreparedMedium`; trans for its sweeps' directions only), whose slab
    pairs' entries view this run's blocks in slab (`_Slab`; None without
    a lens). c, rho and att_np are the run's properties on the lens slab,
    (nx, ny, n_v) views of slice-major arrays, (nx, ny, 0) without one.
    """

    grid: GridSpec
    H: np.ndarray
    band: _Passband
    c: np.ndarray
    rho: np.ndarray
    att_np: np.ndarray
    coeff: list
    trans: dict
    sweeps: list = field(default_factory=list)
    slab: _Slab | None = None
    # lens embedding for d/d occupancy (None when no lens was embedded)
    lens_z_offset: int | None = None
    lens_dc: np.ndarray | None = None
    lens_drho: np.ndarray | None = None
    lens_datt: np.ndarray | None = None


@dataclass
class AdjointResult:
    """Gradients from a reverse sweep.

    source_plane: holomorphic cotangent of the complex source plane
        (summed over the planes of a run with several sources)
    c, rho, att_np: gradients w.r.t. the raw properties on the lens slab
        (slices z_offset .. z_offset + n_v - 1); (nx, ny, 0) without a lens
    occupancy: dL/d(lens occupancy), present only for lens runs
    All four are (nx, ny, n_v) views of slice-major (n_v, nx, ny) arrays.
    """

    source_plane: np.ndarray
    c: np.ndarray
    rho: np.ndarray
    att_np: np.ndarray
    occupancy: np.ndarray | None = None


# slices per block of screens (`_per_slice`): bounds its real
# temporaries to this many (nx, ny) planes each
_SCREENS = 16


def _per_slice(grid: GridSpec, c: np.ndarray, rho: np.ndarray,
               att_np: np.ndarray, dtype, Z: np.ndarray | None = None,
               out: np.ndarray | None = None) -> tuple:
    """Screens and impedances Z = rho*c of (nx, ny, k) properties, one per
    slice, in the properties' real type; Z is one slice-major (k, nx, ny)
    product, into Z where given. The phase and absorption screen
    exp(i*phi - a*dz), phi = k0*(c_ref/c - 1)*dz and a in Np/m, is formed
    _SCREENS slices at a time in the real and imaginary parts of a
    slice-major block of `dtype`: phi rounded to the dtype's real type,
    its cos and sin taken there, and each part rounded once from its
    product with exp(-a*dz). With `out`, a (k, nx, ny) block of `dtype`,
    that block is filled and returned as the screens; without, a list:
    the one value of a screen uniform across the plane, else its plane of
    the block."""
    k0, dz = float(grid.k0), float(grid.dz)
    f = np.finfo(dtype).dtype
    screen = []
    if Z is None:
        Z = np.empty((c.shape[2], *c.shape[:2]), np.result_type(c, rho))
    for i in range(0, c.shape[2], _SCREENS):
        cut = np.s_[:, :, i : i + _SCREENS]
        ci = c[cut].transpose(2, 0, 1)
        np.multiply(rho[cut].transpose(2, 0, 1), ci, out=Z[i : i + _SCREENS])
        phi = np.divide(grid.c_ref, ci, order="C")
        phi -= 1.0
        phi *= k0
        phi *= dz
        phi = phi.astype(f, copy=False)
        mag = np.multiply(att_np[cut].transpose(2, 0, 1), -dz, order="C")
        np.exp(mag, out=mag)
        block = (np.empty(phi.shape, dtype=dtype) if out is None
                 else out[i : i + _SCREENS])
        np.multiply(mag, np.cos(phi), out=block.real)
        np.multiply(mag, np.sin(phi), out=block.imag)
        if out is not None:
            continue
        # bitwise equal to the plane's first value, on an integer view
        w = block.view(np.int64).reshape(len(block), -1, block.itemsize // 8)
        uniform = np.all(w == w[:, :1], axis=(1, 2))
        screen += [scr.flat[0] if u else scr for scr, u in zip(block, uniform)]
    return screen if out is None else out, Z


def _interface(Z1: np.ndarray, Z2: np.ndarray, dtype,
               scratch: tuple = (None, None)) -> np.ndarray:
    """The reflection coefficient r = (Z2-Z1)/(Z1+Z2) toward +z between
    impedance planes Z1 (slice k) and Z2 (slice k+1), or blocks of them;
    toward -z it is -r (Brekhovskikh, Waves in Layered Media). Stored as
    the complex `dtype`, r + 0j, so that no product mixes a real plane
    with a complex one; the quotient is taken in the impedances' type
    and rounded once. scratch, two arrays of Z1's shape and type, takes
    the difference and the sum."""
    r = np.subtract(Z2, Z1, out=scratch[0])
    r /= np.add(Z1, Z2, out=scratch[1])
    return r.astype(dtype)


def _transmitted(r: np.ndarray, before, after,
                 direction: int) -> np.ndarray:
    """The multiplier a of a step across a pair with r plane r
    (`_interface`), or a block of pairs: the pressure transmission
    coefficient t = 1 + r toward +z and 1 - r toward -z, times the
    screen of the slice stepped into, `after` (slice k+1) toward +z and
    `before` (slice k) toward -z."""
    if direction > 0:
        a = np.add(1.0, r)
        a *= after
    else:
        a = np.subtract(1.0, r)
        a *= before
    return a


@dataclass
class PreparedMedium:
    """A medium set up once by `prepare` for any number of forward runs.

    H is the full kernel (complex128) and band its step (`_Passband`).
    coeff holds one entry per slice pair k, k+1 of the base medium: its
    r plane (`_interface`), or None where the impedance is the same
    across the whole plane. trans[d][k] multiplies the field after it
    diffracts across pair k toward d (+1 or -1): the pair's transmission
    plane (`_transmitted`) where it has r, else the screen of the slice
    it enters, k + 1 toward +z and k toward -z (a NumPy scalar where
    that screen is uniform). The lens slab is slices z_offset ..
    z_offset + n_v - 1: c, rho and att_np are the base properties there
    and dc, drho and datt the deltas to lens_mat, (nx, ny, n_v) views of
    slice-major arrays of the real type. edge holds the impedance
    (float64) and screen of each slice just outside the slab.

    A run changes only scratch: the spare stack of nz + 1 planes
    (_spare), which runs take and put back and lens runs and adjoints
    borrow for the slab's blocks; spare reflected-source planes
    (_spent); the band's tmp and spectra; and the plans (_plans). Kept
    from run to run, the planes keep their place on the heap, which glibc
    would otherwise trim for the next run to fault back in. A pickle
    carries no spare planes or plans; a `with_lens` copy shares them.
    """

    grid: GridSpec
    cfg: SolverConfig
    H: np.ndarray
    band: _Passband                     # the step on H's passband
    source_plane: np.ndarray
    coeff: list
    trans: dict
    edge: dict                          # {slice: (Z, screen)} by the slab
    z_offset: int
    c: np.ndarray                       # base properties on the slab
    rho: np.ndarray
    att_np: np.ndarray
    lens_mat: MaterialProperties | None = None
    dc: np.ndarray | None = None        # lens minus base on the slab;
    drho: np.ndarray | None = None      # None without a lens material
    datt: np.ndarray | None = None
    _spare: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)
    _spent: list = field(default_factory=list, init=False, repr=False,
                         compare=False)
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_spare": None, "_spent": [], "_plans": {}}

    @property
    def dtype(self) -> np.dtype:
        """The complex dtype its runs and adjoints march, set by `prepare`;
        a `with_lens` copy and a pickle keep it."""
        return self.band.H.dtype

    def with_lens(self, lens_mat: MaterialProperties) -> "PreparedMedium":
        """A copy whose runs relax a lens of `lens_mat` into the slab; it
        shares every array but the lens-minus-base deltas with this medium
        (the spare stack too: run one at a time), so a sweep over
        materials prepares once. The deltas keep the base properties'
        slice-major layout, as a ufunc's result keeps its operand's."""
        f = self.c.dtype
        copy = replace(
            self,
            lens_mat=lens_mat,
            dc=np.subtract(lens_mat.sound_speed, self.c, dtype=f),
            drho=np.subtract(lens_mat.density, self.rho, dtype=f),
            datt=np.subtract(
                lens_mat.attenuation_np_per_m(self.grid.frequency),
                self.att_np, dtype=f),
        )
        copy._spare, copy._spent = self._spare, self._spent
        copy._plans = self._plans
        return copy

    def run(
        self,
        occupancy: np.ndarray | None = None,
        sources: dict | None = None,
        direction: int = 1,
    ) -> tuple[ComplexField, SliceCache]:
        """One forward run: the total field and the cache for the adjoint.

        occupancy (nx, ny, n_v), in any layout, relaxes the lens into the
        slab; without one the base medium runs. sources, {slice: plane}
        (default: the prepared plane at slice 0), are marched toward +z
        (direction +1) or -z (-1). Later runs leave the cache unchanged.
        """
        return self._forward(occupancy, sources, direction, keep=True)

    def field_only(
        self,
        occupancy: np.ndarray | None = None,
        sources: dict | None = None,
        direction: int = 1,
    ) -> ComplexField:
        """The field of `run` with the same arguments, bitwise, without a
        cache. For runs that take no adjoint (fabrication sweeps, time
        reversal)."""
        return self._forward(occupancy, sources, direction, keep=False)[0]

    def _forward(self, occupancy, sources, direction,
                 keep: bool) -> tuple[ComplexField, SliceCache | None]:
        """The sweeps of `run` (keep: the cache too) or of `field_only`:
        the sources, then each sweep's reflected sources the other way
        (`_march`), up to the reflection order or a sweep that reflects
        nothing. The field is stored slice-major (nz, nx, ny) and returned
        as its fresh (nx, ny, nz) view. All sweeps march through one stack
        of nz + 1 planes, taken from the prepared medium and given back.
        A plan (`_plan`) is made once per prepared medium, direction,
        injected slices and lens or none, and shared by `with_lens`
        copies. With keep, the v planes the adjoint reads go to planes of
        the cache, which no later run changes."""
        grid = self.grid
        if occupancy is not None and self.dc is None:
            raise ValueError("a lens occupancy was passed to a medium "
                             "prepared without a lens material")
        if direction not in (1, -1):
            raise ValueError(f"direction {direction} is neither +1 nor -1")
        if sources is None:
            sources = {0: self.source_plane}
        elif not sources:
            raise ValueError("a run needs at least one source plane")
        inject = {}
        for s, plane in sources.items():
            if not 0 <= s < grid.nz:
                raise ValueError(f"source slice {s} is outside the grid")
            inject[s] = np.ascontiguousarray(plane, dtype=self.dtype)
            if inject[s].shape != (grid.nx, grid.ny):
                raise ValueError("source plane shape does not match grid")

        # the field first, below the run's other arrays on the heap
        total = np.empty((grid.nz, grid.nx, grid.ny), dtype=self.dtype)
        coeff, trans, slices = self.coeff, self.trans, ()
        c, rho, att = (a[:, :, :0] for a in (self.c, self.rho, self.att_np))
        lens = {}
        if occupancy is not None:
            occupancy = np.asarray(occupancy)
            if occupancy.shape != self.dc.shape:
                raise ValueError(
                    f"lens occupancy shape {occupancy.shape} does not match "
                    f"the prepared slab {self.dc.shape}"
                )
            c, rho, att, coeff, trans, slab = self._lens_slab(
                np.ascontiguousarray(occupancy.transpose(2, 0, 1),
                                     dtype=self.dc.dtype),
                (direction,) if self.cfg.reflection_order == 0 else (1, -1))
            lens = dict(slab=slab, lens_z_offset=self.z_offset,
                        lens_dc=self.dc, lens_drho=self.drho,
                        lens_datt=self.datt)
            slices = slab.slices if keep else ()
        cache = (SliceCache(grid, self.H, self.band, c, rho, att, coeff,
                            trans, **lens) if keep else None)

        stack, self._spare = self._spare, None
        if stack is None:
            stack = np.empty((grid.nz + 1, grid.nx, grid.ny),
                             dtype=self.dtype)
        for n in range(self.cfg.reflection_order + 1):
            key = (direction, frozenset(inject), occupancy is not None)
            if key not in self._plans:
                self._plans[key] = _plan(trans[direction], inject, direction,
                                         self.band.powers)
            plan = self._plans[key]
            if n == 0:  # it writes the slices it visits, not the others
                s = plan.order[0]
                total[slice(0, s) if direction > 0 else slice(s + 1, None)] = 0
            # the slab slices past the first whose step in crosses a slab
            # pair: the march leaves their v in the cache's planes
            held = [s for s in slices
                    if s in plan.order[1:] and s - direction in slices]
            held = range(min(held), max(held) + 1) if held else range(0)
            hold = (np.empty((len(held), grid.nx, grid.ny), dtype=self.dtype)
                    if held else ())
            refl = _march(self.band, coeff, trans[direction], direction,
                          inject, plan, n < self.cfg.reflection_order, stack,
                          total, n == 0, held, hold,
                          [] if keep else self._spent)
            if keep:    # u stays at its first slice, which no run writes
                u, v = [None] * grid.nz, [None] * grid.nz
                u[plan.order[0]] = inject[plan.order[0]]
                v[held.start : held.stop] = hold
                cache.sweeps.append(_Sweep(direction, u, v,
                                           dict.fromkeys(inject), plan))
            if not refl:
                break
            inject = refl
            direction = -direction
        self._spare = stack
        return ComplexField(total.transpose(1, 2, 0), grid), cache

    def _lens_slab(self, occ: np.ndarray, directions: tuple):
        """A lens run's slab from its slice-major (n_v, nx, ny) occupancy:
        its properties, linear in the occupancy between base and lens
        material (a straight-through relaxation of the hard embedding),
        the run's coeff and trans (the prepared medium's, the slab pairs'
        entries replaced) and the `_Slab` blocks those entries view. Every
        slab pair keeps its r plane, zero or not, so that the adjoint
        applies dr/dZ there, and a plane multiplier, which ends a segment
        (`_plan`): the same lens embedded into the medium marches the same
        segments but for a slab pair of equal impedance into a uniform
        screen, and the fields differ at rounding. The screens' block and
        r's temporaries lie on the spare stack, which the march takes only
        afterwards."""
        grid, dtype, f = self.grid, self.dtype, occ.dtype
        z0, n_v = self.z_offset, len(occ)
        c, rho, att = (np.multiply(occ, delta.transpose(2, 0, 1)) for delta in
                       (self.dc, self.drho, self.datt))
        for prop, base in ((c, self.c), (rho, self.rho), (att, self.att_np)):
            prop += base.transpose(2, 0, 1)
        c, rho, att = (a.transpose(1, 2, 0) for a in (c, rho, att))
        # the slab and the slice on either side within the grid
        first = max(z0 - 1, 0)
        n = n_v + len(self.edge)
        plane = (grid.nx, grid.ny)
        Zs = np.empty((n, *plane), f)
        scr, *scratch = _borrow(self._spare, [((n, *plane), dtype),
                                              ((n - 1, *plane), f),
                                              ((n - 1, *plane), f)])
        i = z0 - first
        _per_slice(grid, c, rho, att, dtype, Zs[i : i + n_v], scr[i : i + n_v])
        for s, (Z_s, screen) in self.edge.items():
            Zs[s - first], scr[s - first] = Z_s, screen
        r = _interface(Zs[:-1], Zs[1:], dtype, scratch)
        a = {d: _transmitted(r, scr[:-1], scr[1:], d) for d in directions}
        pairs = slice(first, first + n - 1)
        coeff = list(self.coeff)
        coeff[pairs] = r
        trans = {d: list(self.trans[d]) for d in directions}
        for d, steps in trans.items():
            steps[pairs] = a[d]
        return (c, rho, att, coeff, trans,
                _Slab(range(first, first + n), Zs, r, a, self))


def prepare(
    source_plane: np.ndarray,
    medium: AcousticMedium,
    cfg: SolverConfig | None = None,
    lens_mat: MaterialProperties | None = None,
    z_offset: int = 0,
    n_v: int = 0,
    dtype=np.complex128,
) -> PreparedMedium:
    """Set up `medium` for repeated forward runs from `source_plane`, the
    complex (nx, ny) pressure at slice 0 (`grid.disk_source`): the
    kernel's step and the base medium's r planes and multipliers
    (`PreparedMedium`), each screen plane held at most once; only here
    is a multiplier a scalar. With `lens_mat`, runs relax a lens of n_v
    slices at z_offset into the medium and redo only the slab; a run
    without an occupancy marches the base medium, bitwise as on a
    medium prepared without a slab. No reference to `medium` is kept.

    `dtype`, complex128 or complex64, is the one complex dtype of every
    array that runs and their adjoints march (matrices: its real type):
    the band, multipliers, sources, r planes, plane stack, field, cache
    planes and cotangents. The full-grid base medium is computed in
    double and stored so; the lens slab is of the real type, but for the
    float64 edge impedances.
    """
    if cfg is None:
        cfg = SolverConfig()
    if np.dtype(dtype) not in (np.complex64, np.complex128):
        raise ValueError(f"dtype {np.dtype(dtype)} is neither complex64 "
                         "nor complex128")
    grid = medium.grid
    if np.shape(source_plane) != (grid.nx, grid.ny):
        raise ValueError(f"source plane shape {np.shape(source_plane)} does "
                         f"not match the grid's ({grid.nx}, {grid.ny})")
    for arr in (medium.c, medium.rho, medium.att, medium.att_power):
        if np.any(~np.isfinite(arr)):
            raise ValueError("medium contains non-finite values")
    if lens_mat is None:
        n_v = 0
    elif z_offset < 0 or z_offset + n_v > grid.nz:
        raise ValueError("lens exceeds the axial extent of the grid")
    att_np = medium.attenuation_np_per_m()
    H = _diffraction_kernel(grid, cfg.angular_cutoff, grid.dz)
    screen, Z = _per_slice(grid, medium.c, medium.rho, att_np, dtype)
    coeff = [_interface(Z[k], Z[k + 1], dtype) if np.any(Z[k + 1] != Z[k])
             else None for k in range(grid.nz - 1)]
    edge = {s: Z[s].copy() for s in (z_offset - 1, z_offset + n_v)
            if n_v and 0 <= s < grid.nz}
    # the full-grid attenuation goes before the transmission planes are
    # formed. The impedance block goes as prepare returns: freed here, it
    # left glibc a heap that each iteration of a design trims and faults
    # back in (about 7x the page faults on the water demo). The slab's
    # properties are copied slice-major, in the run's real type f, as
    # every lens run reads them.
    f = np.finfo(dtype).dtype
    c, rho, att_np = (
        np.ascontiguousarray(a[:, :, z_offset : z_offset + n_v]
                             .transpose(2, 0, 1), dtype=f).transpose(1, 2, 0)
        for a in (medium.c, medium.rho, att_np))
    trans = {d: [None if r is None
                 else _transmitted(r, screen[k], screen[k + 1], d)
                 for k, r in enumerate(coeff)] for d in (1, -1)}
    # a screen plane between two interfaces lives on in their transmission
    # planes only; the others are copied out of their blocks once
    screen = [scr if not isinstance(scr, np.ndarray) else None
              if s not in edge and all(coeff[k] is not None for k in (s - 1, s)
                                       if 0 <= k < grid.nz - 1)
              else scr.copy() for s, scr in enumerate(screen)]
    trans = {d: [screen[k + (d > 0)] if a is None else a
                 for k, a in enumerate(steps)] for d, steps in trans.items()}
    # a segment crosses at most the longest run of scalar multipliers,
    # and takes one power of H more than it crosses
    run = longest = 0
    for steps in trans.values():
        for a in [*steps, None]:
            run = 0 if a is None or isinstance(a, np.ndarray) else run + 1
            longest = max(longest, run)
    prepared = PreparedMedium(
        grid, cfg,
        H=H,
        band=_Passband.of(H, dtype, longest + 1),
        source_plane=np.array(source_plane, dtype=dtype, order="C"),
        coeff=coeff,
        trans=trans,
        edge={s: (Z_s, screen[s]) for s, Z_s in edge.items()},
        z_offset=z_offset,
        c=c,
        rho=rho,
        att_np=att_np,
    )
    return prepared if lens_mat is None else prepared.with_lens(lens_mat)


def _plan(trans: list, inject: dict, direction: int,
          powers: np.ndarray) -> _Plan:
    """The slices a sweep visits, in march order, its segments and their
    spectral multipliers, from the passband's powers of H.

    order runs from the sweep's first injected slice (the highest toward
    -z, the lowest toward +z) to the grid's end: the field is zero before
    it. segments, (first, last) index pairs into order, tile order[1:]
    and end at the last slice and at every step prev -> s whose
    multiplier a = trans[min(prev, s)] is a plane or that injects at s.
    Across the other, homogeneous steps u_s = a*diffract(u_prev) is
    diagonal in the spectral domain (Zeng and McGough, J. Acoust. Soc.
    Am. 123, 2008): a segment entered with spectrum U whose homogeneous
    slices have multipliers a_1 .. a_m has spectra C_j * U there and
    C_m+1 * U at its last slice, C_j = H^j * a_1 * ... * a_j and C_m+1 =
    H * C_m. ops holds each segment's C, (m + 1, br, bc) in march order
    (None for a one-slice segment): powers[:m + 1] where every a is 1
    (water), else formed in double and rounded once.
    """
    if direction < 0:
        order = range(max(inject), -1, -1)
    else:
        order = range(min(inject), len(trans) + 1)
    segments, ops, first = [], [], 1
    for i in range(1, len(order)):
        prev, s = order[i - 1], order[i]
        if (i + 1 == len(order) or isinstance(trans[min(prev, s)], np.ndarray)
                or s in inject):
            segments.append((first, i))
            C = powers[: i - first + 1] if i > first else None
            p, prods = 1.0, []
            for j in range(first, i):   # a_1 * ... * a_j, in double
                p *= complex(trans[min(order[j - 1], order[j])])
                prods.append(p)
            if any(x != 1.0 for x in prods):    # C_m+1 takes p_m too
                C = np.multiply(np.array(prods + [p])[:, None, None],
                                C).astype(C.dtype, copy=False)
            ops.append(C)
            first = i + 1
    return _Plan(order, segments, ops)


def _march(
    band: _Passband,
    coeff: list,
    trans: list,
    direction: int,
    inject: dict,
    plan: _Plan,
    collect_reflections: bool,
    stack: np.ndarray,
    total: np.ndarray,
    first_sweep: bool,
    held: range,
    hold,
    spent: list,
) -> dict:
    """One sweep along its plan (`_plan`) into the slice-major total (nz,
    nx, ny); returns its reflected sources r*v, keyed by the slice where
    the next sweep injects them.

    The first sweep of a run writes each slice it visits into total, a
    later one adds into it; as toward -z the reflection coefficient is
    -r, a later sweep toward +z subtracts its sources. Each injected
    plane but the first is set to None in `inject` once added; a
    reflected source's plane goes to `spent`, for later ones to fill.

    A one-slice segment runs its four products inline, its spectrum in
    the head of the work plane (the stack's last) and its v, the field
    after diffraction, in that plane or, where its last slice s is
    `held`, in hold[s - held.start]. A longer one forms its slices'
    spectra C * U (the plan's ops) in the band's spectra and returns
    them in one block product, into total on the first sweep and into
    the stack otherwise. The last step, across pair k, forms the
    reflected source r*v where coeff[k] is a plane, then a*v, a =
    trans[k], plus the injection, in total[s] on the first sweep and in
    the work plane otherwise.
    """
    f = band.into[0].dtype              # the real type, of float views
    A, B = band.into
    Ai, Bi = band.back
    H, tmp = band.H, band.tmp
    t = tmp[0].view(f)
    # a one-slice segment's spectrum, in the head of the work plane
    work = stack[-1]
    K1 = work.reshape(-1)[: H.size].reshape(H.shape)
    fK1 = K1.view(f)
    negate = direction > 0 and not first_sweep
    add = np.subtract if negate else np.add
    refl: dict = {}
    order = plan.order

    u = inject[order[0]]
    if first_sweep:
        total[order[0]] = u
    else:
        add(total[order[0]], u, out=total[order[0]])
    H_in = -H if negate else H          # the sweep's first step
    for (first, last), C in zip(plan.segments, plan.ops):
        prev, s = order[last - 1], order[last]
        v = hold[s - held.start] if s in held else work
        if C is None:       # u is read before its plane may take K and v
            np.dot(A, u.view(f), out=t)
            np.dot(t, B, out=fK1)
            np.multiply(K1, H_in, out=K1)
            np.dot(Ai, np.dot(fK1, Bi, out=t), out=v.view(f))
        else:
            K = band.spectra[: len(C)]
            _into_band(band.into, u, K[0], tmp)
            if H_in is not H:
                np.negative(K[0], out=K[0])
            np.copyto(K[1:], K[0])
            np.multiply(K, C, out=K)
            if direction < 0:           # z order
                K = K[::-1]
            h = order[first]            # the first homogeneous slice
            seg = slice(min(h, s), max(h, s) + 1)
            hom = slice(min(h, prev), max(h, prev) + 1)
            if first_sweep and s not in held:   # v in total[s], for u
                v = total[s]
                _out_of_band(band.back, K, total[seg], tmp)
            else:
                _out_of_band(band.back, K, stack[seg], tmp)
                if first_sweep:
                    total[hom] = stack[hom]
                else:
                    total[hom] += stack[hom]
                if s in held:
                    v[...] = stack[s]
                else:
                    v = stack[s]
        H_in = H

        # the segment's last step prev -> s, in space (u may be v's plane)
        k = min(prev, s)
        r = coeff[k]
        if r is not None and collect_reflections:
            refl[prev] = np.multiply(r, v, out=spent.pop() if spent else None)
        u = total[s] if first_sweep else work
        np.multiply(v, trans[k], out=u)
        if s in inject:
            add(u, inject[s], out=u)
            if not first_sweep:     # a reflected source of this run
                spent.append(inject[s])
            inject[s] = None
        if not first_sweep:
            np.add(total[s], u, out=total[s])
    return refl


def propagate(
    source_plane: np.ndarray,
    medium: AcousticMedium,
    cfg: SolverConfig | None = None,
) -> tuple[ComplexField, SliceCache]:
    """Forward simulation from the complex (nx, ny) `source_plane` at
    slice 0, flat or phase-modulated. Returns the total field and the
    cache needed by `propagate_adjoint`.
    """
    return prepare(source_plane, medium, cfg).run()


def propagate_adjoint(cache: SliceCache, upstream: np.ndarray) -> AdjointResult:
    """Exact reverse-mode sweep through the cached forward chain.

    Every step is complex-linear in the field, so each runs transposed
    (not conjugate-transposed), backwards (`_sweep_adjoint`), on the
    forward's multipliers and r planes. upstream g is dL/dP over the
    full grid in the pairing dL = Re(sum(g * dP)), a plain product; an
    (nx, ny, nz) view of a slice-major array of the run's dtype, as
    `optim.loss_and_gradient` returns, is read in place, any other
    copied into one first. Property gradients cover the lens slab only
    (`_slab_gradients`); their sums and scratch lie on the prepared
    medium's spare plane stack (fresh arrays where it is too small).
    """
    grid = cache.grid
    if upstream.shape != grid.shape:
        raise ValueError("upstream gradient shape does not match the cached grid")
    K = np.empty_like(cache.band.H)     # the carry's passband spectrum
    upstream = np.ascontiguousarray(upstream.transpose(2, 0, 1),
                                    dtype=K.dtype)

    # three scratch planes: the field cotangent ub, the carry and the
    # product that the slab pairs' sums add
    scratch = np.empty((3, grid.nx, grid.ny), dtype=K.dtype)
    slab, sums = cache.slab, {}
    if slab is not None:
        stack, slab.medium._spare = slab.medium._spare, None
        # per direction, the sums of ub*v and, with reflections, of
        # Re(refl_cot[prev]*v) over the slab pairs; then W, G and t of
        # `_slab_gradients`
        dirs, pairs = len(slab.trans), slab.r.shape
        S, R, *work = _borrow(stack, [
            ((dirs, *pairs), K.dtype),
            ((dirs, *pairs) if len(cache.sweeps) > 1 else (0,), K.real.dtype),
            (slab.Z.shape, K.dtype), (pairs, K.real.dtype),
            (pairs, K.real.dtype)])
        S.fill(0.0)
        R.fill(0.0)
        sums = {d: (S[j], R[j] if len(R) else None)
                for j, d in enumerate(slab.trans)}
    # cotangents of the reflections a sweep emitted, filled in while
    # processing the consuming (later) sweep
    refl_cot: dict = {}
    crossed: set = set()    # (direction, pair) whose sum has a term
    for sweep in reversed(cache.sweeps):
        refl_cot = _sweep_adjoint(cache, sweep, upstream, refl_cot, sums,
                                  crossed, scratch, K)
    # whatever remains feeds the original source plane
    source_cot = np.zeros((grid.nx, grid.ny), dtype=K.dtype)
    for g in refl_cot.values():
        source_cot += g
    if slab is None:
        return AdjointResult(source_cot, *(a[:, :, :0].copy() for a in (
            cache.c, cache.rho, cache.att_np)))
    result = AdjointResult(source_cot, *_slab_gradients(cache, sums, *work))
    slab.medium._spare = stack
    return result


def _borrow(stack: np.ndarray | None, specs: list) -> list:
    """Arrays of the given (shape, dtype), laid one after another on the
    bytes of `stack` as far as they fit (each from a 64-byte boundary)
    and fresh beyond."""
    arrays, at = [], 0
    for shape, dtype in specs:
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        if stack is not None and at + size <= stack.nbytes:
            arrays.append(np.ndarray(shape, dtype, stack.data, at))
            at += -(-size // 64) * 64
        else:
            arrays.append(np.empty(shape, dtype))
    return arrays


def _sweep_adjoint(cache, sweep: _Sweep, upstream, refl_cot, sums, crossed,
                   scratch, K):
    """Reverse one sweep; returns cotangents of its consumed injections.

    The plan's segments are replayed from the last. Its last step is
    transposed in space, and vbar enters the passband, Ai.T @ vbar @
    Bi.T, after the upstream planes of its homogeneous slices, in march
    order; K, the sum of that block times the segment's C (`_plan`), or
    H times vbar's spectrum for a one-slice segment, returns to space as
    A.T @ K @ B.T. A slab pair adds ub*v and Re(refl_cot[prev]*v) to its
    plane of the direction's blocks in sums (writes ub*v where `crossed`
    has no term of it yet). Each refl_cot entry is dropped once used.
    """
    band, coeff, slab = cache.band, cache.coeff, cache.slab
    trans = cache.trans[sweep.direction]
    tmp = band.tmp
    down = sweep.direction < 0
    plan = sweep.plan
    order = plan.order
    pairs = slab.slices[:-1] if slab else ()   # the slab pairs

    inject_cot: dict = {}
    ub_plane, carry, w = scratch
    carry.fill(0.0)
    for (first, last), C in zip(reversed(plan.segments),
                                reversed(plan.ops)):
        prev, s = order[last - 1], order[last]
        # an injected slice's ub is its cotangent: a plane of its own
        ub = np.add(carry, upstream[s],
                    out=None if s in sweep.inject else ub_plane)
        if s in sweep.inject:
            inject_cot[s] = ub
        rc = refl_cot.pop(prev, None)
        k = min(prev, s)
        if k in pairs:                  # a slab pair
            uv, rv = sums[sweep.direction]
            p = k - pairs.start
            v = sweep.v[s]
            if (sweep.direction, p) in crossed:
                uv[p] += np.multiply(ub, v, out=w)
            else:                       # its first product, on zeros
                np.multiply(ub, v, out=uv[p])
                crossed.add((sweep.direction, p))
            if rc is not None:
                rv[p] += np.multiply(rc, v, out=w).real

        # vbar = a * ub +- r * refl_cot[prev] in the carry plane, a the
        # pair's multiplier (r toward -z is -r), r * refl_cot[prev] in w
        np.multiply(ub, trans[k], out=carry)
        if rc is not None:
            np.multiply(rc, coeff[k], out=w)
            (np.subtract if down else np.add)(carry, w, out=carry)
        if C is None:
            _into_band(band.into_t, carry, K, tmp)
            np.multiply(K, band.H, out=K)
        else:   # the homogeneous slices' upstream planes and vbar
            m = last - first
            lo = min(order[first], order[last - 1])
            up = upstream[lo : lo + m]
            block = band.spectra[: m + 1]
            _into_band(band.into_t, up[::-1] if down else up, block[:m], tmp)
            _into_band(band.into_t, carry, block[m], tmp)
            np.multiply(block, C, out=block)
            np.add.reduce(block, axis=0, out=K)
        _out_of_band(band.back_t, K, carry, tmp)

    # the sweep starts at an injected slice
    inject_cot[order[0]] = carry + upstream[order[0]]
    return inject_cot


def _slab_gradients(cache, sums, W, G, t):
    """gc, grho, gatt and the occupancy gradient on the lens slab from the
    sweeps' per-pair sums, in one pass over the slab blocks (`_Slab`).

    sums maps each direction to its blocks (S, R) over the slab pairs: S
    the sum of ub*v and R that of Re(refl_cot[prev]*v) (None without
    reflections) over the sweeps that crossed the pair that way, prev ->
    s. The step is u = a*v with a = t*screen[s], t = 1 +- r. W[s] sums
    S*a over the pairs stepping into s, and with d screen/dc =
    -i*k0*c_ref*dz/c^2 * screen and d screen/da = -dz * screen,
        gc = gZ*rho + Im(W)*k0*c_ref*dz/c^2,  grho = gZ*c,
        gatt = -dz*Re(W).
    dL/dt = Re(S*screen[s]) = Re(S*a)/t, and dr/dZ = dt/dZ = -+2*Z_other
    /(Z_k + Z_k+1)^2 toward +z and the opposite toward -z, so the two
    directions of a pair k, k+1 share one impedance chain: with g =
    Re(S*a)/t + R per direction, G = 2*(g+ - g-)/(Z_k + Z_k+1)^2, gZ[k]
    -= G*Z[k+1] and gZ[k+1] += G*Z[k]. The occupancy gradient is gc*dc +
    grho*drho + gatt*datt.

    The pass runs in place on the sums, on W (n, nx, ny) and on G and t
    (n - 1, nx, ny, real); W's real view holds (Z_k + Z_k+1)^2, then gZ.
    The gradients are (nx, ny, n_v) views of slice-major arrays.
    """
    slab, grid = cache.slab, cache.grid
    c, rho, dc, drho, datt = (a.transpose(2, 0, 1) for a in (
        cache.c, cache.rho, cache.lens_dc, cache.lens_drho, cache.lens_datt))
    Zs = slab.Z
    for j, (d, (S, R)) in enumerate(sums.items()):
        into = np.s_[1:] if d > 0 else np.s_[:-1]   # the slices s, per pair
        if j == 0:      # W's first terms, and 0 where no pair steps in
            Sa = np.multiply(S, slab.trans[d], out=W[into])
            W[0 if d > 0 else -1] = 0.0
        else:
            Sa = np.multiply(S, slab.trans[d], out=S)
            W[into] += Sa
        # g+ - g-: Re(S*a)/t + R toward +z, Re(S*a)/(r - 1) - R toward -z
        np.add(slab.r.real, 1.0 if d > 0 else -1.0, out=t)
        if j == 0:
            np.divide(Sa.real, t, out=G)
        else:
            G += np.divide(Sa.real, t, out=t)
        if R is not None:
            (np.add if d > 0 else np.subtract)(G, R, out=G)
    i = cache.lens_z_offset - slab.slices.start     # the slab in the blocks
    Wv = W[i : i + len(c)]
    gc = np.multiply(Wv.imag, float(grid.k0 * grid.c_ref * grid.dz))
    gc /= c
    gc /= c
    gatt = np.multiply(Wv.real, -float(grid.dz))

    # W is read: its bytes hold (Z_k + Z_k+1)^2, then gZ; G holds -G
    gZ = W.reshape(-1).view(Zs.dtype)[: Zs.size].reshape(Zs.shape)
    D = np.add(Zs[:-1], Zs[1:], out=gZ[:-1])
    np.multiply(D, D, out=D)
    G /= D
    G *= -2.0
    np.multiply(G, Zs[1:], out=gZ[:-1])
    gZ[-1] = 0.0
    G *= Zs[:-1]
    gZ[1:] -= G
    gZ = gZ[i : i + len(c)]
    grho = gZ * c
    gocc = np.multiply(gZ, rho)
    gc += gocc
    tmp = gZ                                # read: a product's scratch
    np.multiply(gc, dc, out=gocc)
    gocc += np.multiply(grho, drho, out=tmp)
    gocc += np.multiply(gatt, datt, out=tmp)
    return tuple(a.transpose(1, 2, 0) for a in (gc, grho, gatt, gocc))


def propagate_with_lens(
    prepared: PreparedMedium, occupancy: np.ndarray
) -> tuple[ComplexField, SliceCache]:
    """Differentiable forward run with a lens relaxed into the slab of
    `prepared` (`PreparedMedium.run`), whose cache yields exact occupancy
    gradients via `propagate_adjoint`."""
    return prepared.run(occupancy)


def backproject(
    plane: np.ndarray,
    grid: GridSpec,
    distances,
    cfg: SolverConfig | None = None,
) -> np.ndarray:
    """Angular-spectrum backprojection of a measured complex plane: the
    passband step (`_Passband`) over minus each distance (positive =
    toward the source) in homogeneous water. Returns an (nx, ny,
    len(distances)) view of a slice-major volume."""
    if cfg is None:
        cfg = SolverConfig()
    plane = np.ascontiguousarray(plane, dtype=np.complex128)
    if plane.shape != (grid.nx, grid.ny):
        raise ValueError("plane shape does not match grid")
    distances = np.atleast_1d(np.asarray(distances, dtype=np.float64))
    if distances.size == 0:
        raise ValueError("at least one backprojection distance is required")
    domain = grid.nz * grid.dz
    if not np.all(np.abs(distances) <= domain):     # NaN fails too
        raise ValueError("distance is NaN or beyond the domain depth")

    out = np.empty((distances.size, grid.nx, grid.ny), dtype=np.complex128)
    for i, d in enumerate(distances):
        band = _Passband.of(_diffraction_kernel(grid, cfg.angular_cutoff, -d))
        K = _into_band(band.into, plane, np.empty_like(band.H), band.tmp)
        _out_of_band(band.back, K * band.H, out[i], band.tmp)
    return out.transpose(1, 2, 0)
