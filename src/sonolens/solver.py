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
its plane, zero or not, so that the adjoint applies dr/dZ there. With r
come its transmission planes (`_transmitted`), a = (1 + r)*screen[k+1]
toward +z and (1 - r)*screen[k] toward -z, which carry the field across
the pair and through the next screen in one product: a step across the
pair is u = a*v, and its reflected source r*v. `prepare` forms both for
each pair of the base medium; a lens run forms its slab pairs' planes
for the directions its sweeps take.

H is zero beyond angular_cutoff*k0, on all but br rows and bc columns
of the FFT grid (21 of 64 each on a 64x64 grid at 125 um and 2 MHz). A
diffraction step is therefore evaluated on that passband only, as two
dense matrix products into it and two back out (`_Passband`; the matrix
Fourier transform of Soummer et al., Opt. Express 15, 15935, 2007): the
same linear map as ifft2(H * fft2(u)), with matrices that `prepare`
builds once. H depends on kx and ky through kx**2 and ky**2 only, so
the transform is real along both axes, with cos and sin rows and
columns (Bracewell, JOSA 73, 1832, 1983): every product is one real
GEMM on float views, (nx, 2*ny) for an (nx, ny) complex plane, the x
matrices on the left and the y matrices R on the right as kron(R, I2),
which acts on the interleaved complex axis as R on the plane. A step
costs 4*br*nx*ny + 8*br*bc*ny real multiply-adds (570k at 64x64).

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
and its last slice's step in space: u = a*v (the pair's transmission
plane, or the screen where it has none), the reflected source r*v when
the sweep collects reflections, the injection there, and the add into
the total. A step that is not homogeneous is a one-slice segment,
whose four products run inline on the plane stack's float views. Each
sweep is planned once (`_plan`): the slices it visits, from its first
injected slice (the field is zero before it), and its segments; the
sweeps of one run with the same direction and injected slices share
one plan. The march walks that plan, the cache keeps it, and the
adjoint replays it backwards; a slab pair has its plane and so ends a
segment, as its per-pair sums need the spatial planes. The scalars are
found on the actual screens (`prepare` for the base medium, each lens
run for its slab slices), so a lens embedded into the medium and the
same lens run on a prepared slab march the same segments, except
across a slab pair of equal impedance: the slab run ends a segment at
its zero plane, the embedded medium has none there. The two fields then
differ at rounding level.

`prepare` builds a `PreparedMedium` once per medium: the diffraction
kernel, the source plane, the per-slice screens and the interface
and transmission planes of the base medium, on the lens slab too. With
a lens occupancy, a run (`propagate_with_lens`) redoes only the slab's
properties, screens and impedance and the planes of the pairs that
touch it; the base medium is never copied. Without one, a run
marches the base medium, bitwise as on a medium prepared without a
slab. The impedance is kept only on the slab and the slice on either
side of it (z0-1 .. z0+n_v), the slices those pairs and the slab
gradients read.
`propagate` is a run on a medium prepared without a slab. The returned
cache carries the run's screens and planes, so the adjoint recomputes
none of them. A run's first sweep marches its `sources`, {slice:
plane}, as each later sweep marches the reflected sources r*v of the
last. That sweep went the other way, and toward -z the reflection
coefficient is -r: a later sweep toward +z subtracts its sources.

The total field is slice-major: stored as (nz, nx, ny), so that a
slice is one contiguous plane, and handed out as its (nx, ny, nz) view.
A sweep writes each slice's post-diffraction field into its plane of
one (nz + 1, nx, ny) plane stack with products into preallocated
buffers. The first sweep writes each slice's contribution into the
total field as it goes, and zeroes only the slices before its first
injected one; every later sweep forms its contributions in the stack's
last plane and adds them. Every run marches all its sweeps through one
stack, which it takes from the prepared medium and gives back as it
returns. `PreparedMedium.run` copies out of the stack, after
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
slab are not computed. A step's field cotangent is vbar = a*ub +-
r*refl_cot[prev], on the forward's transmission planes. The reverse
sweeps only sum, per slab pair (prev, s), the products ub*v and, where
a reflection cotangent exists, Re(refl_cot[prev]*v); one pass after the
last sweep applies the screen derivative and dt/dZ, dr/dZ to the sums,
once per pair and direction.

Precision: `prepare(..., dtype=)` sets one complex dtype, complex128 by
default or complex64, for every array a run and its adjoint march: H on
the band and the passband's intermediate (its matrices are of the
dtype's real type), the screens and the source plane (a run's source
planes are cast to it, C-contiguous), the r planes (r + 0j, so that no
product mixes a real plane with a complex one), the transmission
planes, the plane stack, the total field, the cache's planes and the
adjoint's scratch, spectra and cotangents. Each is computed in double
and stored in that dtype, except the screens' cos and sin
(`_per_slice`). The impedances, the slab's properties and the slab
gradients' accumulators stay float64.

Gradient pairing convention: an upstream cotangent g satisfies
dL = Re(sum(g * dP)) (plain product, no conjugation inside the sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import GridSpec, MaterialProperties
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
    """The diffraction step on the kernel's passband, the rows and
    columns of the FFT grid where H has a nonzero entry.

    H depends on kx and ky only through kx**2 and ky**2
    (`_diffraction_kernel` is even in each), so the step has an exact
    real form along both axes: with (A, Ai, rows) the real DFT
    `_cos_sin` of x on H's live rows and (B.T, Bi.T, cols) that of y on
    its live columns, and H on the band H[rows, cols] (H[k, c] on every
    cos and sin row and column of k and c), the step
    v = ifft2(H * fft2(u)) is v = Ai @ (H_band * (A @ u @ B)) @ Bi.
    into and back are the (left, right) matrices of the first product and
    of the last; into_t and back_t those of the transposed step, (Ai.T,
    Bi.T) and (A.T, B.T), which the adjoint runs. Every matrix is of the
    dtype's real type and every product one real GEMM on float views: a
    left matrix acts on a plane's float view, (nx, 2*ny) for an (nx, ny)
    complex plane, and a right matrix R is stored as kron(R, I2), which
    acts on the complex axis of a float view as R on the plane. H on the
    band and tmp are of the dtype. tmp is the intermediate of
    `_into_band`, `_out_of_band` and the march's one-slice steps, _BLOCK
    (br, ny) planes that every run and adjoint of the prepared medium
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
        """The step of kernel H, its matrices built in double and stored
        as the real type of `dtype`, H on the band and tmp as `dtype`."""
        A, Ai, rows = _cos_sin(H.shape[0], np.any(H, axis=1))
        Bt, Bit, cols = _cos_sin(H.shape[1], np.any(H, axis=0))
        pairs = [(A, Bt.T), (Ai, Bit.T), (Ai.T, Bit), (A.T, Bt)]
        f = np.finfo(dtype).dtype
        return cls(H[np.ix_(rows, cols)].astype(dtype),
                   *[(np.ascontiguousarray(L, dtype=f),
                      np.kron(R, np.eye(2)).astype(f)) for L, R in pairs],
                   tmp=np.empty((_BLOCK, rows.size, H.shape[1]), dtype=dtype))


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
    the slice can be homogeneous, and its (nx, ny) array elsewhere, or
    None where `prepare` left a base slice's plane to the transmission
    planes of the two interfaces around it (no step into the slice reads
    it). coeff holds one entry per slice pair k, k+1: its plane of r
    (`_interface`), or None where the impedance does not change. Both
    are the prepared medium's, except on the lens slab and the pairs
    that touch it, where this run's (always planes) replace them. trans
    maps each direction of the run's sweeps (+1, -1) to one entry per
    pair: the prepared medium's transmission plane toward it
    (`_transmitted`), or None where the pair has no interface or is a
    slab pair, whose plane the adjoint forms again. Z maps the slab's
    slices and the slice on either side (z0-1 .. z0+n_v) to this run's
    impedance, which the slab gradients read; it is empty without a
    lens. A slab pair is a pair whose two slices are both keys of Z. c,
    rho and att_np are this run's properties on the lens slab only
    (nx, ny, n_v); (nx, ny, 0) for a run without a lens occupancy.
    """

    grid: GridSpec
    H: np.ndarray
    band: _Passband
    c: np.ndarray
    rho: np.ndarray
    att_np: np.ndarray
    screen: list
    coeff: list
    trans: dict
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


# slices per block of screens (`_per_slice`): bounds its float64
# temporaries to this many (nx, ny) planes each
_SCREENS = 16


def _per_slice(grid: GridSpec, c: np.ndarray, rho: np.ndarray,
               att_np: np.ndarray, dtype) -> tuple[list, np.ndarray]:
    """Screens and impedances of (nx, ny, k) properties, one per slice
    (the sweeps read them slice by slice). The impedances are one
    slice-major float64 (k, nx, ny) product. A screen, the phase and
    absorption screen exp(i*phi - a*dz) with phi = k0*(c_ref/c - 1)*dz,
    is computed as exp(-a*dz)*cos(phi) and exp(-a*dz)*sin(phi), _SCREENS
    slices at a time, into the real and imaginary parts of a slice-major
    block of `dtype`: phi and exp(-a*dz) in double, cos and sin of phi
    rounded to the dtype's real type in that type, and each part rounded
    once from its double product with exp(-a*dz). One reduction over the
    block finds its uniform slices. A screen is stored as the one value
    it takes across the whole plane, or as its contiguous (nx, ny) plane
    where it varies: a view of the block, or a copy where the block has a
    uniform slice, whose plane is then freed."""
    k0, dz = grid.k0, grid.dz
    f = np.finfo(dtype).dtype
    screen = []
    Z = np.empty((c.shape[2], *c.shape[:2]))
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
        block = np.empty(phi.shape, dtype=dtype)
        np.multiply(mag, np.cos(phi), out=block.real)
        np.multiply(mag, np.sin(phi), out=block.imag)
        # bitwise equal to the plane's first value, on an integer view
        w = block.view(np.int64).reshape(len(block), -1, block.itemsize // 8)
        uniform = np.all(w == w[:, :1], axis=(1, 2))
        screen += [scr.flat[0] if u else scr.copy() if uniform.any() else scr
                   for scr, u in zip(block, uniform)]
    return screen, Z


def _interface(Z1: np.ndarray, Z2: np.ndarray, dtype,
               slab: bool = False) -> np.ndarray | None:
    """r = (Z2-Z1)/(Z1+Z2) toward +z between impedance planes Z1 (slice k)
    and Z2 (slice k+1), stored as the complex `dtype` (r + 0j); None
    where the impedance is the same across the whole plane (r = 0),
    unless `slab`: a lens-slab pair keeps its plane."""
    if not slab and not np.any(Z2 != Z1):
        return None
    return ((Z2 - Z1) / (Z1 + Z2)).astype(dtype)


def _transmitted(r: np.ndarray, screen: list, k: int,
                 direction: int) -> np.ndarray:
    """The plane a that carries the field across pair k, k+1 with plane r
    (`_interface`) and into its screen: (1 + r)*screen[k+1] toward +z,
    (1 - r)*screen[k] toward -z."""
    if direction > 0:
        return (1.0 + r) * screen[k + 1]
    return (1.0 - r) * screen[k]


@dataclass
class PreparedMedium:
    """A medium set up once for any number of forward runs.

    Holds the diffraction kernel and its passband step (`_Passband`:
    the DFT matrices restricted to H's nonzero rows and columns, built
    by `prepare` and shared with every copy and cache), the default
    source plane and the per-slice screens (a scalar where a screen is
    uniform; see SliceCache), interface planes and transmission planes
    toward both directions of the base medium, which a run without a
    lens occupancy marches; a lens run
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
    planes (`_spare`, None until the first run), which each run takes
    and puts back, the spare planes of the reflected sources its runs
    have added (`_spent`), which the next reflected sources fill, and
    the passband's intermediate buffer, which runs and adjoints use in
    turn. A pickle carries no spare planes; a `with_lens` copy shares
    them. Kept from run to run, these planes also keep their place on
    the heap, which glibc would otherwise trim for the next run to fault
    back in.
    Its `dtype`, the band's, is the one complex dtype of its screens,
    source plane, r and transmission planes and passband (matrices: its
    real type) and of every plane its runs and their adjoints march; a
    `with_lens` copy and a pickle keep it. H, the full kernel, stays
    complex128.
    """

    grid: GridSpec
    cfg: SolverConfig
    H: np.ndarray
    band: _Passband                     # the step on H's passband
    source_plane: np.ndarray
    screen: list                        # screen, coeff, trans: see
    coeff: list                         # SliceCache
    trans: dict
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
    _spent: list = field(default_factory=list, init=False, repr=False,
                         compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_spare": None, "_spent": []}

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
        copy._spare, copy._spent = self._spare, self._spent
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
        the prepared plane at slice 0), are cast to C-contiguous planes of
        the prepared dtype and marched toward +z (direction +1) or -z
        (-1). The cache owns its planes: later runs leave it unchanged.
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
        all through the prepared medium's spare stack. The first sweep
        writes its slices into the total as it marches, each later one
        adds into it; with keep, the planes the adjoint reads are copied
        into the cache after each sweep."""
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
        screen, coeff, trans, Z = self.screen, self.coeff, self.trans, {}
        cached = trans
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
            pairs = [k for k in Z if k + 1 in Z]
            for k in pairs:
                coeff[k] = _interface(Z[k], Z[k + 1], self.dtype, slab=True)
            # toward the directions this run's sweeps take; the cache keeps
            # none on the slab pairs, which the adjoint forms again
            cached = {d: [None if k in pairs else a for k, a in
                          enumerate(trans[d])] for d in (
                (direction,) if self.cfg.reflection_order == 0 else (1, -1))}
            trans = {d: list(planes) for d, planes in cached.items()}
            for d, planes in trans.items():
                for k in pairs:
                    planes[k] = _transmitted(coeff[k], screen, k, d)
            lens = dict(lens_z_offset=z0, lens_dc=self.dc,
                        lens_drho=self.drho, lens_datt=self.datt)
        cache = (SliceCache(grid, self.H, self.band, c, rho, att, screen,
                            coeff, cached, Z, **lens) if keep else None)

        stack, self._spare = self._spare, None
        if stack is None:
            stack = np.empty((grid.nz + 1, grid.nx, grid.ny),
                             dtype=self.dtype)
        plans = {}      # sweeps of one direction and injected slices share
        for n in range(self.cfg.reflection_order + 1):
            key = (direction, frozenset(inject))
            if key not in plans:
                plans[key] = _plan(screen, coeff, inject, direction)
            order, segments = plans[key]
            if n == 0:  # it writes the slices it visits, not the others
                s = order[0]
                total[slice(0, s) if direction > 0 else slice(s + 1, None)] = 0
            refl = _march(self.band, screen, coeff, trans[direction],
                          direction, inject, order, segments,
                          n < self.cfg.reflection_order, stack, total, n == 0,
                          Z if keep else (), [] if keep else self._spent)
            if keep:
                cache.sweeps.append(_kept(stack, direction, inject, order,
                                          segments, Z))
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
    source_plane: np.ndarray,
    medium: AcousticMedium,
    cfg: SolverConfig | None = None,
    lens_mat: MaterialProperties | None = None,
    z_offset: int = 0,
    n_v: int = 0,
    dtype=np.complex128,
) -> PreparedMedium:
    """Set up `medium` for repeated forward runs from `source_plane`, the
    complex (nx, ny) pressure at slice 0 (`grid.disk_source`,
    `grid.full_plane_source`).

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
    coeff = [_interface(Z[k], Z[k + 1], dtype) for k in range(grid.nz - 1)]
    edge = {s: Z[s].copy() for s in (z_offset - 1, z_offset + n_v)
            if n_v and 0 <= s < grid.nz}
    # the full-grid attenuation goes before the transmission planes are
    # formed. The impedance block goes as prepare returns: freed here, it
    # left glibc a heap that each iteration of a design trims and faults
    # back in (about 7x the page faults on the water demo).
    c, rho, att_np = (a[:, :, z_offset : z_offset + n_v].copy()
                      for a in (medium.c, medium.rho, att_np))
    trans = {d: [None if r is None else _transmitted(r, screen, k, d)
                 for k, r in enumerate(coeff)] for d in (1, -1)}
    # a screen plane between two interfaces lives on in their transmission
    # planes only; the others are copied out of their blocks
    screen = [scr if not isinstance(scr, np.ndarray) else None
              if s not in edge and all(coeff[k] is not None for k in (s - 1, s)
                                       if 0 <= k < grid.nz - 1)
              else scr.copy() for s, scr in enumerate(screen)]
    prepared = PreparedMedium(
        grid, cfg,
        H=H,
        band=_Passband.of(H, dtype),
        source_plane=np.array(source_plane, dtype=dtype, order="C"),
        screen=screen,
        coeff=coeff,
        trans=trans,
        Z=edge,
        z_offset=z_offset,
        c=c,
        rho=rho,
        att_np=att_np,
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
        if (i + 1 == len(order) or isinstance(screen[s], np.ndarray)
                or coeff[min(prev, s)] is not None or s in inject):
            segments.append((first, i))
            first = i + 1
    return order, segments


def _march(
    band: _Passband,
    screen: list,
    coeff: list,
    trans: list,
    direction: int,
    inject: dict,
    order: range,
    segments: list,
    collect_reflections: bool,
    stack: np.ndarray,
    total: np.ndarray,
    first_sweep: bool,
    held,
    spent: list,
) -> dict:
    """One directional sweep along its plan (`_plan`) into the slice-major
    `total` (nz, nx, ny); returns its reflected sources r*v.

    The first sweep of a run writes each slice it visits into total, a
    later one adds into it. A later sweep's sources are the reflected
    sources of the sweep before it, which went the other way; toward -z
    the reflection coefficient is -r, so a later sweep toward +z
    subtracts its sources instead of adding them (the sign rides with
    the field it marches). Each injected plane but the first, which the
    first visited slice contributes, is set to None in `inject` once
    added; a later sweep's, a reflected source of this run, goes to
    `spent`, whose planes take the reflected sources r*v this sweep
    forms.

    Each segment takes the field entering it into the passband (`band`)
    and ends at its last slice s. A one-slice segment runs its four
    products inline on float views, with the spectrum in the head of the
    work plane (the stack's last) and its post-diffraction field v in
    that plane, or in stack[s] where s is `held` (the slices whose v the
    cache keeps). A longer one writes each slice's passband spectrum
    H * screen_prev * (previous spectrum) to the head of stack[s],
    multiplied by its screen on the homogeneous slices, and returns
    them to space in one block product: the homogeneous slices'
    contributions and v, into total on the first sweep (v in total[s]
    unless s is held) and into the stack otherwise. The last step
    forms r*v, the reflected source, where the pair k it crosses has an
    interface, then the contribution a*v, a = trans[k] (`_transmitted`)
    or the screen without one, in total[s] (first sweep) or in the work
    plane, and the injection there.
    """
    f = band.into[0].dtype              # the real type, of float views
    A, B = band.into
    Ai, Bi = band.back
    H, tmp = band.H, band.tmp
    t = tmp[0].view(f)
    # slice s's passband spectrum, in the head of stack[s] until the
    # segment's block product overwrites that plane with its field
    spectra = stack.reshape(len(stack), -1)[:, : H.size].reshape(
        len(stack), *H.shape)
    work, K1 = stack[-1], spectra[-1]
    fK1 = K1.view(f)
    negate = direction > 0 and not first_sweep
    add = np.subtract if negate else np.add
    refl: dict = {}

    u = inject[order[0]]
    if first_sweep:
        total[order[0]] = u
    else:
        add(total[order[0]], u, out=total[order[0]])
    H_in = -H if negate else H          # the sweep's first step
    for first, last in segments:
        prev, s = order[last - 1], order[last]
        v = stack[s] if s in held else work
        if first == last:   # u is read before its plane may take K and v
            np.dot(A, u.view(f), out=t)
            np.dot(t, B, out=fK1)
            np.multiply(K1, H_in, out=K1)
            np.dot(Ai, np.dot(fK1, Bi, out=t), out=v.view(f))
        else:
            steps = order[first - 1 : last + 1]
            K = spectra[steps[1]]
            _into_band(band.into, u, K, tmp)
            np.multiply(K, H_in, out=K)
            # a homogeneous slice h takes its screen on its spectrum, which
            # then returns to space as its contribution
            for h, q in zip(steps[1:], steps[2:]):
                np.multiply(spectra[h], screen[h], out=spectra[h])
                np.multiply(spectra[h], H, out=spectra[q])
            seg = slice(min(steps[1], s), max(steps[1], s) + 1)
            hom = slice(min(steps[1], steps[-2]), max(steps[1], steps[-2]) + 1)
            if first_sweep and s not in held:   # v in total[s], for u
                v = total[s]
                _out_of_band(band.back, spectra[seg], total[seg], tmp)
            else:
                v = stack[s]
                _out_of_band(band.back, spectra[seg], stack[seg], tmp)
                if first_sweep:
                    total[hom] = stack[hom]
                else:
                    total[hom] += stack[hom]
        H_in = H

        # the segment's last step prev -> s, in space (u may be v's plane)
        k = min(prev, s)
        r = coeff[k]
        if r is not None and collect_reflections:
            refl[prev] = np.multiply(r, v, out=spent.pop() if spent else None)
        u = total[s] if first_sweep else work
        np.multiply(v, screen[s] if r is None else trans[k], out=u)
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
    trans = cache.trans[sweep.direction]
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

        # vbar = a * ub +- r * refl_cot[prev] in the carry plane, a the
        # pair's transmission plane or the screen (r toward -z is -r);
        # ub, read no more, holds r * refl_cot[prev]
        k = min(prev, s)
        r, a = coeff[k], trans[k]
        if r is not None and a is None:     # a slab pair's, formed again
            a = _transmitted(r, screen, k, sweep.direction)
        np.multiply(ub, screen[s] if r is None else a, out=carry)
        if rc is not None:
            np.multiply(rc, r, out=ub)
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
