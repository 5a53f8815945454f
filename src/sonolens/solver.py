"""Steady-state single-frequency propagation through voxelized media.

Split-step spatial marching: for each axial step the field is advanced by
a spectral diffraction kernel exp(i*kz*dz) with kz = sqrt(k0^2 - kx^2 - ky^2)
(evanescent bins decay as exp(-|kz|*dz); bins beyond angular_cutoff*k0 are
zeroed, so the default cutoff of 1 keeps propagating content only),
then corrected in the spatial domain by a heterogeneity phase screen
exp(i*k0*(c_ref/c - 1)*dz), an absorption screen exp(-a*dz) (a in Np/m),
and a pressure transmission factor t wherever the impedance Z = rho*c
changes between slices. Interface reflections are recorded and swept in
the opposite direction, recursively up to the configured reflection
order; the total field is the coherent sum over all sweeps.

Each interface (slice pair k, k+1 whose impedance differs somewhere) is
one plane, r = (Z2-Z1)/(Z1+Z2) toward +z: -r toward -z, and t = 1 + r
toward +z, 1 - r toward -z (Brekhovskikh, Waves in Layered Media). Pairs
of equal impedance across the whole plane have no plane and skip the
interface work, except in a lens run: every pair touching the slab keeps
its plane, zero or not, so that the adjoint applies dr/dZ there.

H is zero beyond angular_cutoff*k0, on all but br rows and bc columns
of the FFT grid (21 of 64 each on a 64x64 grid at 125 um and 2 MHz). A
diffraction step is therefore evaluated on that passband only, as two
small dense matrix products into it and two back out (`_Passband`; the
matrix Fourier transform of Soummer et al., Opt. Express 15, 15935,
2007): the same linear map as ifft2(H * fft2(u)), with matrices that
`prepare` builds once.

A screen that takes one value across the plane is stored as that
scalar, every other one as its (nx, ny) plane; the products broadcast
either. A step into a slice with a scalar screen, with no interface and
nothing injected, is homogeneous: u_s = screen_s * ifft2(H *
fft2(u_prev)) is diagonal in the spectral domain and exact over any
number of such slices (angular-spectrum propagation through a
homogeneous layer; Zeng and McGough, J. Acoust. Soc. Am. 123, 2008).
So every diffraction goes through segments, each ending at a step that
is not homogeneous or at the sweep's last slice: one transform into the
passband on entry, one product of the (br, bc) spectrum by H * screen
per slice, one block product of all its spectra back to their planes,
and its last slice's interface in space. A step that is not
homogeneous is a one-slice segment. Each sweep is planned once
(`_plan`): the slices it visits, from its first injected slice (the
field is zero before it), and its segments. The march walks that plan,
the cache keeps it, and the adjoint replays it backwards; a slab pair
has its plane and so ends a segment, as its per-pair sums need the
spatial planes. The scalars are found on the actual screens (`prepare`
for the base medium, each lens run for its slab slices), so a lens
embedded into the medium and the same lens run on a prepared slab march
the same segments, except across a slab pair of equal impedance: the
slab run ends a segment at its zero plane, the embedded medium has
none there. The two fields then differ at rounding level.

`prepare` builds a `PreparedMedium` once per medium: the diffraction
kernel, the source plane, the per-slice screens and the interface
coefficients of the base medium, on the lens slab too. With a lens
occupancy, a run (`propagate_with_lens`) redoes only the slab's
properties, screens and impedance and the coefficients of the pairs
that touch it; the base medium is never copied. Without one, a run
marches the base medium, bitwise as on a medium prepared without a
slab. The impedance is kept only on the slab and the slice on either
side of it (z0-1 .. z0+n_v), the slices those pairs and the slab
gradients read.
`propagate` is a run on a medium prepared without a slab. The returned
cache carries the run's screens and coefficients, so the adjoint
recomputes neither. A run's first sweep marches its `sources`, {slice:
plane}, as each later sweep marches the reflected sources of the last.

The total field is slice-major: stored as (nz, nx, ny), so that a
slice is one contiguous plane, and handed out as its (nx, ny, nz) view.
A sweep writes each slice's post-diffraction field into its plane of
one (nz + 1, nx, ny) plane stack with products into preallocated
buffers, and adds each slice's contribution into the total field as it
goes, through the stack's last plane. Every run marches all its sweeps
through one stack, which it takes from the prepared medium and gives
back as it returns. `PreparedMedium.run` copies out of the stack, after
each sweep, only what the adjoint reads: the post-diffraction fields at
the slab's slices and the slice on either side of it (none without a
lens). So a cache owns its planes, and a later run changes none of them.
`PreparedMedium.field_only` returns the same field without a cache. The
returned field is always a fresh array.

Every operation in the chain is complex-linear in the field, so the exact
reverse-mode gradient is obtained by transposing each step; the
passband products transpose to the transposed matrices. The adjoint
reads the loss cotangent slice by slice, slice-major as the field. It
always returns the source-plane cotangent. When the forward run embedded a
lens with linearly interpolated properties, it also returns the gradients
with respect to the per-voxel properties on the lens slab and, through
them, with respect to the lens occupancy; property gradients outside the
slab are not computed. The reverse sweeps only sum, per slab pair
(prev, s), the products ub*v and, where a reflection cotangent exists,
Re(refl_cot[prev]*v); one pass after the last sweep applies the screen
derivative and dt/dZ, dr/dZ to the sums, once per pair and direction.

Precision: `prepare(..., dtype=)` sets one complex dtype, complex128 by
default or complex64, for every array a run and its adjoint march: the
passband matrices, H on the band and their intermediate, the screens and
the source plane (a run's source planes are cast to it), the r planes
(its real type), the plane stack, the total field, the cache's planes
and the adjoint's scratch, spectra and cotangents. Each is computed in
double and stored in that dtype. The impedances, the slab's properties
and the slab gradients' accumulators stay float64.

Gradient pairing convention: an upstream cotangent g satisfies
dL = Re(sum(g * dP)) (plain product, no conjugation inside the sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import GridSpec, MaterialProperties, SourceSpec
from .medium import AcousticMedium


@dataclass
class SolverConfig:
    reflection_order: int = 4
    angular_cutoff: float = 1.0     # fraction of k0; > 1 keeps evanescent bins

    def __post_init__(self):
        if not 0 <= self.reflection_order <= 8:
            raise ValueError("reflection_order must lie in [0, 8]")
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


def _dft_rows(n: int, k: np.ndarray) -> np.ndarray:
    """Rows k of the n-point DFT matrix, exp(-2*pi*i*((k*j) mod n)/n): the
    mod keeps each phase in [0, 2*pi), where exp keeps full precision
    however large k*j is."""
    return np.exp(-2j * np.pi * (np.outer(k, np.arange(n)) % n) / n)


# planes per product of a block of planes (`_into_band`, `_out_of_band`):
# bounds their intermediate to this many (nx, bc) planes
_BLOCK = 8


@dataclass(eq=False)
class _Passband:
    """The diffraction step on the kernel's passband, the rows r and
    columns c of the FFT grid where H has a nonzero entry.

    With F_n the n-point DFT matrix, A = F_nx[r, :], B = F_ny[:, c], Ai =
    conj(F_nx[:, r])/nx and Bi = conj(F_ny[c, :])/ny, the step v = ifft2(H *
    fft2(u)) is v = Ai @ (H[r][:, c] * (A @ u @ B)) @ Bi, since H is zero
    off the passband. into and back are the (left, right) matrices of
    the first product and of the last; into_t and back_t those of the
    transposed step, (Ai.T, Bi.T) and (A.T, B.T), which the adjoint runs.
    tmp is the intermediate of `_into_band` and `_out_of_band`, _BLOCK
    (nx, bc) planes that every run and adjoint of the prepared medium
    uses in turn.
    """

    H: np.ndarray                       # H on the passband, (br, bc)
    into: tuple                         # (A, B)
    back: tuple                         # (Ai, Bi)
    into_t: tuple                       # (Ai.T, Bi.T)
    back_t: tuple                       # (A.T, B.T)
    tmp: np.ndarray

    @classmethod
    def of(cls, H: np.ndarray, dtype=np.complex128) -> "_Passband":
        """The step of kernel H, its matrices built in double and stored,
        with H on the band and tmp, as `dtype`."""
        nx, ny = H.shape
        r = np.flatnonzero(np.any(H, axis=1))
        c = np.flatnonzero(np.any(H, axis=0))
        Fr, Fc = _dft_rows(nx, r), _dft_rows(ny, c)
        pairs = [(Fr, Fc.T), (np.conj(Fr).T / nx, np.conj(Fc) / ny),
                 (np.conj(Fr) / nx, np.conj(Fc).T / ny), (Fr.T, Fc)]
        return cls(H[np.ix_(r, c)].astype(dtype),
                   *[tuple(np.ascontiguousarray(m, dtype=dtype) for m in p)
                     for p in pairs],
                   tmp=np.empty((_BLOCK, nx, c.size), dtype=dtype))


def _into_band(mats: tuple, x: np.ndarray, out: np.ndarray,
               tmp: np.ndarray) -> np.ndarray:
    """out = L @ x @ R, (L, R) = mats, for one (nx, ny) plane x or a block
    of them (a block of len(tmp) planes at a time), through tmp = x @ R."""
    L, R = mats
    if x.ndim == 2:
        return np.matmul(L, np.matmul(x, R, out=tmp[0]), out=out)
    for i in range(0, len(x), len(tmp)):
        t = tmp[: len(x) - i]
        np.matmul(L, np.matmul(x[i : i + len(t)], R, out=t),
                  out=out[i : i + len(t)])
    return out


def _out_of_band(mats: tuple, K: np.ndarray, out: np.ndarray,
                 tmp: np.ndarray) -> np.ndarray:
    """out = L @ K @ R, (L, R) = mats, for one passband spectrum K or a
    block of them (a block of len(tmp) at a time), through tmp = L @ K."""
    L, R = mats
    if K.ndim == 2:
        return np.matmul(np.matmul(L, K, out=tmp[0]), R, out=out)
    for i in range(0, len(K), len(tmp)):
        t = tmp[: len(K) - i]
        np.matmul(np.matmul(L, K[i : i + len(t)], out=t), R,
                  out=out[i : i + len(t)])
    return out


@dataclass
class _Sweep:
    """One sweep of a cached run, built by `_kept` from the plane stack:
    u holds only the first visited slice's contribution, its injected
    plane, and v only the post-diffraction fields at the slab's slices
    and the slice on either side; inject keeps the injected slices, not
    their planes. order and segments are the plan (`_plan`) the sweep
    marched, which its adjoint replays."""

    direction: int                      # +1 or -1 along z
    u: list                             # per-slice contribution (None but one)
    v: list                             # post-diffraction field near the slab
    inject: dict                        # injected slices (values None)
    order: range                        # visited slices, in march order
    segments: list                      # (first, last) indices into order


@dataclass
class SliceCache:
    """Forward-run state retained for the adjoint sweep.

    Only `PreparedMedium.run` makes one. Its sweeps (see `_Sweep`) hold
    what `propagate_adjoint` reads: the plan each sweep marched, the
    inject keys and the v planes at the keys of Z, one block per sweep
    that the cache owns. Each also keeps u at its first visited slice,
    its injected plane.

    band is the prepared medium's passband step (`_Passband`), which the
    adjoint transposes; H is the full kernel it was cut from.
    screen holds one entry per slice: the screen's one value (a NumPy
    scalar) where it is the same across the plane, so that a step into
    the slice can be homogeneous, and its (nx, ny) array elsewhere. coeff holds
    one entry per slice pair k, k+1: its plane of r (`_interface`), or
    None where the impedance does not change. Both are the prepared
    medium's, except on the lens slab and the pairs that touch it, where
    this run's (always planes) replace them. Z maps the slab's slices and the
    slice on either side (z0-1 .. z0+n_v) to this run's impedance, which
    the slab gradients read; it is empty without a lens. A slab pair is
    a pair whose two slices are both keys of Z. c, rho and att_np are this run's
    properties on the lens slab only (nx, ny, n_v); (nx, ny, 0) for a run
    without a lens occupancy.
    """

    grid: GridSpec
    H: np.ndarray
    band: _Passband
    c: np.ndarray
    rho: np.ndarray
    att_np: np.ndarray
    screen: list
    coeff: list
    Z: dict
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
        (summed over the planes of a run with several sources)
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


def _per_slice(grid: GridSpec, c: np.ndarray, rho: np.ndarray,
               att_np: np.ndarray, dtype) -> tuple[list, list]:
    """Screens and impedances of (nx, ny, k) properties, one per slice
    (the sweeps read them slice by slice). The impedances are contiguous
    float64 (nx, ny) arrays; a screen, computed in double and stored as
    `dtype`, is the one value it takes across the whole plane, or its
    contiguous (nx, ny) array where it varies."""
    cuts = [np.s_[:, :, s] for s in range(c.shape[2])]
    screen = [_screens(grid, c[cut], att_np[cut]).astype(dtype)
              for cut in cuts]
    screen = [scr.flat[0] if np.all(scr == scr.flat[0]) else scr
              for scr in screen]
    return screen, [rho[cut] * c[cut] for cut in cuts]


def _interface(Z1: np.ndarray, Z2: np.ndarray, dtype,
               slab: bool = False) -> np.ndarray | None:
    """r = (Z2-Z1)/(Z1+Z2) toward +z between impedance planes Z1 (slice k)
    and Z2 (slice k+1), stored as the real type of the complex `dtype`;
    None where the impedance is the same across the whole plane (r = 0),
    unless `slab`: a lens-slab pair keeps its plane."""
    if not slab and not np.any(Z2 != Z1):
        return None
    return ((Z2 - Z1) / (Z1 + Z2)).astype(np.finfo(dtype).dtype)


@dataclass
class PreparedMedium:
    """A medium set up once for any number of forward runs.

    Holds the diffraction kernel and its passband step (`_Passband`:
    the DFT matrices restricted to H's nonzero rows and columns, built
    by `prepare` and shared with every copy and cache), the default
    source plane and the per-slice screens (a scalar where a screen is
    uniform; see SliceCache) and interface coefficients of the base
    medium, which a run without a lens occupancy marches; a lens run
    recomputes the screens of the slab slices, so a slab slice may be a
    scalar in one run and a plane in the next.
    With a lens slab (slices z_offset .. z_offset + n_v - 1) it also holds
    the base properties there, the lens material and the lens-minus-base
    deltas, and the impedance of the slices just outside the slab, so
    that a run with a lens recomputes only the slab and the pairs that
    touch it. Built by `prepare`, whose lens material and deltas come
    from `with_lens`; `with_lens` also gives the copy for
    another lens material, which shares every array but the deltas, so
    a sweep over materials prepares the medium once. Nothing
    it holds is modified by a run, except the spare plane stack of nz + 1
    planes (`_spare`, None until the first run; a pickle carries none,
    a `with_lens` copy shares it), which each run takes and puts back,
    and the passband's intermediate buffer, which runs and adjoints use
    in turn.
    Its `dtype`, the band's, is the one complex dtype of its screens,
    source plane and passband (r planes: its real type) and of every
    plane its runs and their adjoints march; a `with_lens` copy and a
    pickle keep it. H, the full kernel, stays complex128.
    """

    grid: GridSpec
    cfg: SolverConfig
    H: np.ndarray
    band: _Passband                     # the step on H's passband
    source_plane: np.ndarray
    screen: list                        # screen, coeff: see SliceCache
    coeff: list
    Z: dict                             # slices z_offset-1, z_offset+n_v
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

    def __getstate__(self):
        return {**self.__dict__, "_spare": None}

    @property
    def dtype(self) -> np.dtype:
        """The complex dtype of the arrays its runs and their adjoints
        march, set by `prepare`."""
        return self.band.H.dtype

    def with_lens(self, lens_mat: MaterialProperties) -> "PreparedMedium":
        """A copy whose runs relax a lens of `lens_mat` into the slab: only
        the lens-minus-base deltas are new, every other array is shared
        with this medium (the spare plane stack too: run one at a time)."""
        copy = replace(
            self,
            lens_mat=lens_mat,
            dc=lens_mat.sound_speed - self.c,
            drho=lens_mat.density - self.rho,
            datt=(lens_mat.attenuation_np_per_m(self.grid.frequency)
                  - self.att_np),
        )
        copy._spare = self._spare
        return copy

    def run(
        self,
        occupancy: np.ndarray | None = None,
        sources: dict | None = None,
        direction: int = 1,
    ) -> tuple[ComplexField, SliceCache]:
        """One forward run: the total field and the cache for the adjoint.

        occupancy (nx, ny, n_v) relaxes the lens into the slab of a medium
        prepared with a lens material; without one the base medium runs
        and the cache carries no slab. sources, {slice: plane} (default:
        the prepared plane at slice 0), are cast to the prepared dtype and
        marched toward +z (direction +1) or -z (-1). The cache owns its
        planes: later runs leave it unchanged.
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
        """The sweeps of `run` (keep: the cache too) or of `field_only`,
        all through the prepared medium's spare stack. Each sweep adds
        its slices into the total as it marches; with keep, the planes
        the adjoint reads are copied into the cache after each sweep."""
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
            inject[s] = np.asarray(plane, dtype=self.dtype)
            if inject[s].shape != (grid.nx, grid.ny):
                raise ValueError("source plane shape does not match grid")

        screen, coeff, Z = self.screen, self.coeff, {}
        c, rho, att = (a[:, :, :0] for a in (self.c, self.rho, self.att_np))
        lens = {}
        if occupancy is not None:
            occupancy = np.asarray(occupancy, dtype=np.float64)
            if occupancy.shape != self.dc.shape:
                raise ValueError(
                    f"lens occupancy shape {occupancy.shape} does not match "
                    f"the prepared slab {self.dc.shape}"
                )
            z0, n_v = self.z_offset, occupancy.shape[2]
            c = self.c + occupancy * self.dc
            rho = self.rho + occupancy * self.drho
            att = self.att_np + occupancy * self.datt
            screen, coeff = list(screen), list(coeff)
            screen[z0 : z0 + n_v], slab_Z = _per_slice(grid, c, rho, att,
                                                       self.dtype)
            Z = {**self.Z, **dict(zip(range(z0, z0 + n_v), slab_Z))}
            for k in Z:
                if k + 1 in Z:              # a slab pair
                    coeff[k] = _interface(Z[k], Z[k + 1], self.dtype,
                                          slab=True)
            lens = dict(lens_z_offset=z0, lens_dc=self.dc,
                        lens_drho=self.drho, lens_datt=self.datt)
        cache = (SliceCache(grid, self.H, self.band, c, rho, att, screen,
                            coeff, Z, **lens) if keep else None)

        total = np.zeros((grid.nz, grid.nx, grid.ny), dtype=self.dtype)
        stack, self._spare = self._spare, None
        if stack is None:
            stack = np.empty((grid.nz + 1, grid.nx, grid.ny),
                             dtype=self.dtype)
        for n in range(self.cfg.reflection_order + 1):
            plan = _plan(screen, coeff, inject, direction)
            refl = _march(self.band, screen, coeff, direction, inject, *plan,
                          n < self.cfg.reflection_order, stack, total)
            if keep:
                cache.sweeps.append(_kept(stack, direction, inject, *plan, Z))
            if not refl:
                break
            inject = refl
            direction = -direction
        self._spare = stack
        return ComplexField(total.transpose(1, 2, 0), grid), cache


def _kept(stack: np.ndarray, direction: int, inject: dict, order: range,
          segments: list, slices) -> _Sweep:
    """What the adjoint reads of the sweep just marched through `stack`:
    its plan, the v planes at the consecutive `slices` that it marched
    past its first slice and stepped into from another of them (a slab
    pair), copied out as one block, and the injected slices. u stays at
    the first slice only, its injected plane, which no run writes."""
    nz = len(stack) - 1
    u, v = [None] * nz, [None] * nz
    u[order[0]] = inject[order[0]]
    kept = [s for s in slices if s in order[1:] and s - direction in slices]
    if kept:
        block = slice(min(kept), max(kept) + 1)
        v[block] = stack[block].copy()      # each entry a view of the copy
    return _Sweep(direction, u, v, dict.fromkeys(inject), order, segments)


def prepare(
    src: SourceSpec,
    medium: AcousticMedium,
    cfg: SolverConfig | None = None,
    lens_mat: MaterialProperties | None = None,
    z_offset: int = 0,
    n_v: int = 0,
    dtype=np.complex128,
) -> PreparedMedium:
    """Set up `medium` for repeated forward runs from `src`.

    With `lens_mat`, runs relax a lens of n_v slices at z_offset into the
    medium (see `propagate_with_lens`); the full-grid screens and the
    interface coefficients are computed here once, and each lens run
    redoes only the slab; a run without an occupancy marches the base
    medium. The result keeps no reference to `medium`:
    a caller that needs only runs can release it, and gets a slab for
    another lens material from `PreparedMedium.with_lens`.

    `dtype` (complex128 or complex64) is the precision of every array
    the runs and their adjoints march; see the module docstring.
    """
    if cfg is None:
        cfg = SolverConfig()
    if np.dtype(dtype) not in (np.complex64, np.complex128):
        raise ValueError(f"dtype {np.dtype(dtype)} is neither complex64 "
                         "nor complex128")
    grid = medium.grid
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
    sl = np.s_[:, :, z_offset : z_offset + n_v]
    prepared = PreparedMedium(
        grid, cfg,
        H=H,
        band=_Passband.of(H, dtype),
        source_plane=src.source_plane(grid).astype(dtype),
        screen=screen,
        coeff=[_interface(Z[k], Z[k + 1], dtype) for k in range(grid.nz - 1)],
        Z={s: Z[s] for s in (z_offset - 1, z_offset + n_v)
           if n_v and 0 <= s < grid.nz},
        z_offset=z_offset,
        c=medium.c[sl].copy(),
        rho=medium.rho[sl].copy(),
        att_np=att_np[sl].copy(),
    )
    return prepared if lens_mat is None else prepared.with_lens(lens_mat)


def _plan(screen: list, coeff: list, inject: dict,
          direction: int) -> tuple[range, list]:
    """The slices a sweep visits, in march order, and its segments.

    order runs from the sweep's first injected slice (the highest toward
    -z, the lowest toward +z) to the grid's end: the field is zero before
    it. segments are (first, last) index pairs into order that tile
    order[1:]. One ends at the sweep's last slice and at every step prev
    -> s that is not homogeneous. A step is homogeneous when slice s has a
    scalar screen, the pair has no interface and nothing is injected at
    s: across such steps u_s = screen_s * diffract(u_prev) in every bin,
    so a segment continues through them.
    """
    if direction < 0:
        order = range(max(inject), -1, -1)
    else:
        order = range(min(inject), len(screen))
    segments, first = [], 1
    for i in range(1, len(order)):
        prev, s = order[i - 1], order[i]
        if (i + 1 == len(order) or np.ndim(screen[s]) != 0
                or coeff[min(prev, s)] is not None or s in inject):
            segments.append((first, i))
            first = i + 1
    return order, segments


def _march(
    band: _Passband,
    screen: list,
    coeff: list,
    direction: int,
    inject: dict,
    order: range,
    segments: list,
    collect_reflections: bool,
    stack: np.ndarray,
    total: np.ndarray,
) -> dict:
    """One directional sweep along its plan (`_plan`), added into the
    slice-major `total` (nz, nx, ny); returns its reflected sources.

    Slice s's post-diffraction field goes to stack[s], and its
    contribution is added into total[s] as soon as it is formed in the
    work plane, the stack's last. Each injected plane but the first,
    which the first visited slice contributes, is set to None in `inject`
    once added, so that it is freed while the sweep goes on.

    Each segment takes the field entering it into the passband (`band`),
    writes each slice's passband spectrum H * screen_prev * (previous
    spectrum) to the head of stack[s], returns those spectra to their
    planes in one block product, adds screen * v on its homogeneous
    slices, and applies its last slice's interface (rv = +-r*v, the
    reflected source, and v + rv transmitted), screen and injection in
    space before adding that slice.
    """
    down = direction < 0
    work, tmp = stack[-1], band.tmp
    # slice s's passband spectrum, in the head of stack[s] until the
    # segment's block product overwrites that plane with its field
    spectra = stack.reshape(len(stack), -1)[:, : band.H.size].reshape(
        len(stack), *band.H.shape)
    refl: dict = {}

    u = inject[order[0]]
    total[order[0]] += u
    for first, last in segments:
        steps = order[first - 1 : last + 1]
        for prev, s in zip(steps, steps[1:]):
            if prev == steps[0]:    # the field entering the segment
                _into_band(band.into, u, spectra[s], tmp)
            else:
                np.multiply(spectra[prev], screen[prev], out=spectra[s])
            np.multiply(spectra[s], band.H, out=spectra[s])
        seg = slice(min(steps[1], s), max(steps[1], s) + 1)
        _out_of_band(band.back, spectra[seg], stack[seg], tmp)
        for h in steps[1:-1]:
            total[h] += np.multiply(stack[h], screen[h], out=work)

        # the segment's last step prev -> s, in space
        v = stack[s]
        u, tv = work, v
        r = coeff[min(prev, s)]
        if r is not None:
            rv = np.multiply(r, v, out=None if collect_reflections else u)
            if down:                # r toward -z is -r
                np.negative(rv, out=rv)
            if collect_reflections:
                refl[prev] = rv
            tv = np.add(v, rv, out=u)
        np.multiply(tv, screen[s], out=u)
        if s in inject:
            np.add(u, inject[s], out=u)
            inject[s] = None
        total[s] += u
    return refl


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
    return prepare(src, medium, cfg).run(
        sources=None if source_plane is None else {0: source_plane})


def propagate_adjoint(cache: SliceCache, upstream: np.ndarray) -> AdjointResult:
    """Exact reverse-mode sweep through the cached forward chain.

    upstream is dL/dP over the full grid in the pairing dL = Re(sum(g*dP)).
    Property gradients cover the lens slab only (empty without a lens).
    The screens and interface coefficients are the forward run's, read
    from the cache. The sweeps fill per-pair sums keyed by (prev, s),
    which also fixes the direction; `_slab_gradients` turns them into
    property gradients after the last sweep, reading the cached Z.
    The sweeps read upstream slice by slice: an (nx, ny, nz) view of a
    slice-major array of the run's dtype, as `optim.loss_and_gradient`
    returns, is read in place, any other layout or dtype is copied into
    one first.
    """
    grid = cache.grid
    if upstream.shape != grid.shape:
        raise ValueError("upstream gradient shape does not match the cached grid")
    lensed = cache.lens_z_offset is not None
    z0 = cache.lens_z_offset if lensed else 0
    K = np.empty_like(cache.band.H)     # the carry's passband spectrum
    upstream = np.ascontiguousarray(upstream.transpose(2, 0, 1),
                                    dtype=K.dtype)

    # two scratch planes, the field cotangent ub and the carry
    scratch = np.empty((2, grid.nx, grid.ny), dtype=K.dtype)
    sums: dict = {}
    # cotangents of the reflections a sweep emitted, filled in while
    # processing the consuming (later) sweep
    refl_cot: dict = {}
    for sweep in reversed(cache.sweeps):
        refl_cot = _sweep_adjoint(cache, sweep, upstream, refl_cot, sums,
                                  scratch, K)
    # whatever remains feeds the original source plane
    source_cot = np.zeros((grid.nx, grid.ny), dtype=K.dtype)
    for g in refl_cot.values():
        source_cot += g

    gc, grho, gatt = _slab_gradients(cache, sums, z0)
    result = AdjointResult(source_cot, gc, grho, gatt)
    if lensed:
        result.occupancy = (
            gc * cache.lens_dc + grho * cache.lens_drho + gatt * cache.lens_datt
        )
    return result


def _sweep_adjoint(cache, sweep: _Sweep, upstream, refl_cot, sums, scratch,
                   K):
    """Reverse one sweep; returns cotangents of its consumed injections.

    upstream is slice-major (nz, nx, ny). The field cotangent is carried
    through every pair. On slab pairs (both slices keys of cache.Z) it
    adds ub*v, and Re(refl_cot[prev]*v) where a reflection cotangent
    exists, to sums[(prev, s)]; other pairs skip that work. Each entry of
    refl_cot is dropped once used, so that it is freed while the returned
    cotangents fill up.

    The segments the forward recorded are replayed from the last: its
    last step is transposed in space, and vbar enters the passband as K
    = H * (Ai.T @ vbar @ Bi.T); each homogeneous slice s back from it
    gives K <- H * screen_s * (K + Ai.T @ upstream_s @ Bi.T), with one
    block product of their upstream planes, and K returns to space as
    A.T @ K @ B.T. That is the transpose (not the conjugate transpose)
    of the segment.
    """
    band, screen, coeff, Z = cache.band, cache.screen, cache.coeff, cache.Z
    tmp = band.tmp
    down = sweep.direction < 0
    order = sweep.order

    inject_cot: dict = {}
    ub, carry = scratch
    carry.fill(0.0)
    for first, last in reversed(sweep.segments):
        prev, s = order[last - 1], order[last]
        np.add(carry, upstream[s], out=ub)
        if s in sweep.inject:
            inject_cot[s] = ub.copy()
        rc = refl_cot.pop(prev, None)
        if prev in Z and s in Z:        # a slab pair
            v = sweep.v[s]
            acc = sums.get((prev, s))
            if acc is None:
                acc = sums[prev, s] = [ub * v, None]
            else:
                acc[0] += ub * v
            if rc is not None:
                rv = np.real(rc * v)
                acc[1] = rv if acc[1] is None else acc[1] + rv

        # vbar = w +- r * (w + refl_cot[prev]), w = ub * screen, in the carry
        # plane (r toward -z is -r); ub, read no more, holds r * (...)
        np.multiply(ub, screen[s], out=carry)
        r = coeff[min(prev, s)]
        if r is not None:
            np.multiply(carry if rc is None else np.add(carry, rc, out=ub), r,
                        out=ub)
            (np.subtract if down else np.add)(carry, ub, out=carry)
        _into_band(band.into_t, carry, K, tmp)
        np.multiply(K, band.H, out=K)

        hom = order[first:last]         # the segment's homogeneous slices
        if hom:
            lo, hi = min(hom), max(hom) + 1
            up = _into_band(band.into_t, upstream[lo:hi],
                            np.empty((hi - lo, *K.shape), dtype=K.dtype), tmp)
            for s in reversed(hom):
                np.add(K, up[s - lo], out=K)
                np.multiply(K, screen[s], out=K)
                np.multiply(K, band.H, out=K)
        _out_of_band(band.back_t, K, carry, tmp)

    # the sweep starts at an injected slice
    inject_cot[order[0]] = carry + upstream[order[0]]
    return inject_cot


def _slab_gradients(cache, sums, z0):
    """gc, grho, gatt on the slab from the per-pair sums of the sweeps.

    With S = sum of ub*v and R = sum of Re(refl_cot[prev]*v) over the
    sweeps that crossed pair (prev, s), the pair adds the screen
    derivative Re(t*S*dscreen) at s, t = 1 +- r, and the impedance chain
    (Re(S*screen) + R) * dt/dZ at prev and s (dr/dZ = dt/dZ). The sums
    run slice by slice on (n_v, nx, ny) arrays; the gradients are
    returned as (nx, ny, n_v) views of them.
    """
    grid = cache.grid
    k0, dz = grid.k0, grid.dz
    Z = cache.Z
    c, rho = (np.ascontiguousarray(a.transpose(2, 0, 1))
              for a in (cache.c, cache.rho))
    n_v = len(c)
    gc, grho, gatt = np.zeros(c.shape), np.zeros(c.shape), np.zeros(c.shape)
    for (prev, s), (uv, rv) in sums.items():
        ks, kp = s - z0, prev - z0          # slab indices
        scr = cache.screen[s]
        g = np.real(uv * scr)
        if 0 <= ks < n_v:
            # screen derivative: d screen/dc = screen * (-i*k0*c_ref*dz/c^2),
            #                    d screen/da = -dz * screen
            r = cache.coeff[min(prev, s)]
            gscr = uv * (1.0 + r if s > prev else 1.0 - r)
            gc[ks] += np.real(gscr * scr * (-1j) * k0 * grid.c_ref * dz) / (
                c[ks] ** 2
            )
            gatt[ks] += np.real(gscr * scr) * (-dz)
        if rv is not None:
            g = g + rv
        # impedance chain: dt/dZ1 = dr/dZ1 = -2*Z2/denom^2,
        #                  dt/dZ2 = dr/dZ2 = 2*Z1/denom^2
        Z1, Z2 = Z[prev], Z[s]
        denom = Z1 + Z2
        gZ1 = g * (-2.0 * Z2 / denom**2)
        gZ2 = g * (2.0 * Z1 / denom**2)
        if 0 <= kp < n_v:
            gc[kp] += gZ1 * rho[kp]
            grho[kp] += gZ1 * c[kp]
        if 0 <= ks < n_v:
            gc[ks] += gZ2 * rho[ks]
            grho[ks] += gZ2 * c[ks]
    return tuple(a.transpose(1, 2, 0) for a in (gc, grho, gatt))


def propagate_with_lens(
    prepared: PreparedMedium, occupancy: np.ndarray
) -> tuple[ComplexField, SliceCache]:
    """Differentiable forward run with a lens relaxed into the medium.

    Properties inside the lens slab of `prepared` interpolate linearly in
    occupancy between the background and the lens material (a
    straight-through relaxation of the hard embedding threshold), so the
    returned cache yields exact occupancy gradients via
    `propagate_adjoint`.
    """
    return prepared.run(occupancy)


def backproject(
    plane: np.ndarray,
    grid: GridSpec,
    distances,
    cfg: SolverConfig | None = None,
) -> np.ndarray:
    """Angular-spectrum backprojection of a measured complex plane.

    Applies the march's passband step (`_Passband`) over minus each
    requested distance (positive = toward the source) assuming homogeneous
    water. Returns an (nx, ny, len(distances)) view of a slice-major volume.
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
    if not np.all(np.abs(distances) <= domain):     # NaN fails too
        raise ValueError("distance is NaN or beyond the domain depth")

    out = np.empty((distances.size, grid.nx, grid.ny), dtype=np.complex128)
    for i, d in enumerate(distances):
        band = _Passband.of(_diffraction_kernel(grid, cfg.angular_cutoff, -d))
        K = _into_band(band.into, plane, np.empty_like(band.H), band.tmp)
        _out_of_band(band.back, K * band.H, out[i], band.tmp)
    return out.transpose(1, 2, 0)
