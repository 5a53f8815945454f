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
its plane, zero or not, so that the adjoint applies dr/dZ there. A
step across pair k toward direction d is one product u = a*v by its
multiplier a = trans[d][k], which carries the field across the pair and
through the screen of the slice it steps into: where the pair has r,
its transmission plane (`_transmitted`), (1 + r)*screen[k+1] toward +z
and (1 - r)*screen[k] toward -z, and its reflected source is r*v;
elsewhere, that screen itself. `prepare` forms both directions' lists
for the base medium by that one rule; a lens run replaces the entries
of its slab pairs with its own r and transmission planes toward the
directions its sweeps take, one block pass each, and its cache keeps
them for the adjoint.

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

A multiplier that takes one value across the plane, a screen with no
interface, is stored as that scalar, every other one as its (nx, ny)
plane; the products broadcast either. A step whose multiplier is a
scalar and into a slice where nothing is injected is homogeneous: u_s
= a * ifft2(H * fft2(u_prev)) is diagonal in the spectral domain and
exact over any number of such slices (angular-spectrum propagation
through a homogeneous layer; Zeng and McGough, J. Acoust. Soc. Am.
123, 2008). So every diffraction goes through segments, each ending at
a step that is not homogeneous or at the sweep's last slice: one
transform into the passband on entry, one product of the (br, bc)
spectrum by H * a per slice, one block product of all its spectra back
to their planes, and its last slice's step in space: u = a*v, the
reflected source r*v when the pair has r and the sweep collects
reflections, the injection there, and the add into the total. A step
that is not homogeneous is a one-slice segment, whose four products
run inline on the plane stack's float views. Each sweep is planned
once (`_plan`): the slices it visits, from its first injected slice
(the field is zero before it), and its segments; the sweeps of one run
with the same direction and injected slices share one plan. The march
walks that plan, the cache keeps it, and the adjoint replays it
backwards; a slab pair's multiplier is a plane, so it ends a segment,
as its per-pair sums need the spatial planes. Only `prepare` makes
scalars, from the actual screens, so a lens embedded into the medium
and the same lens run on a prepared slab march the same segments,
except across a slab pair of equal impedance into a uniform screen:
the slab run ends a segment at its zero plane, the embedded medium
continues it. The two fields then differ at rounding level.

`prepare` builds a `PreparedMedium` once per medium: the diffraction
kernel, the source plane, the interface planes and both directions'
multipliers of the base medium, on the lens slab too (each screen
plane at most once), and the impedance and screen of the slice on
either side of the slab (z0-1 and z0+n_v). With a lens occupancy, a run
(`propagate_with_lens`) redoes only the slab's properties, screens and
impedance and the planes of the pairs that touch it, which the slab
gradients read; the base medium is never copied. Without one, a run
marches the base medium, bitwise as on a medium prepared without a
slab.
The lens slab is slice-major like the field: its occupancy (`lensmap`),
the prepared slab properties and lens-minus-base deltas, a run's slab
properties and the adjoint's gradients are stored (n_v, nx, ny) and
handed out as their (nx, ny, n_v) views, and a run's slab impedance, r
and transmission planes are slice-major blocks (`_Slab`). A run takes
an occupancy in any other layout slice-major once, with no copy when
it already is.
`propagate` is a run on a medium prepared without a slab. The returned
cache carries the run's multipliers and r planes, so the adjoint
recomputes none of them. A run's first sweep marches its `sources`, {slice:
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
r*refl_cot[prev], on the forward's multipliers, which the cache keeps
for the slab pairs too. The reverse sweeps only add, per slab
pair (prev, s), the products ub*v and, where a reflection cotangent
exists, Re(refl_cot[prev]*v) into one (pairs, nx, ny) block per
direction; one pass over those blocks after the last sweep applies the
screen derivative and dt/dZ, dr/dZ (`_slab_gradients`), the two
directions of a pair sharing one impedance chain. The blocks and that
pass's scratch lie on the prepared medium's spare plane stack, which no
run uses meanwhile, so that the adjoint allocates little beyond the
gradients it returns.

Precision: `prepare(..., dtype=)` sets one complex dtype, complex128 by
default or complex64, for every array a run and its adjoint march: H on
the band and the passband's intermediate (its matrices are of the
dtype's real type), the multipliers and the source plane (a run's
source planes are cast to it, C-contiguous), the r planes (r + 0j, so
that no product mixes a real plane with a complex one), the plane
stack, the total field, the cache's planes and the
adjoint's scratch, spectra and cotangents. Each is computed in double
and stored in that dtype, except the screens' cos and sin
(`_per_slice`). The impedances, the slab's properties and the slab
gradients stay float64; the adjoint's per-pair sums are of the dtype.

Gradient pairing convention: an upstream cotangent g satisfies
dL = Re(sum(g * dP)) (plain product, no conjugation inside the sum).
"""

from __future__ import annotations

import math
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
class _Slab:
    """A lens run's slab pairs as slice-major blocks, built once by the
    forward run: the range of n slices `slices` (the slab and the slice
    on either side where the grid has one) and the n - 1 pairs between
    them. Z (n, nx, ny) is the slices' impedance (float64), r the
    pairs' r and trans maps each direction of the run's sweeps to the
    pairs' transmission planes toward it, (n - 1, nx, ny) each, which
    alone carry the slab slices' screens. The run's coeff and trans view
    these blocks. medium is the prepared medium that made the run, whose
    spare plane stack the adjoint borrows for its slab sums."""

    slices: range
    Z: np.ndarray
    r: np.ndarray
    trans: dict
    medium: "PreparedMedium" = field(repr=False)


@dataclass
class SliceCache:
    """Forward-run state retained for the adjoint sweep.

    Only `PreparedMedium.run` makes one. Its sweeps (see `_Sweep`) hold
    what `propagate_adjoint` reads: the plan each sweep marched, the
    inject keys and the v planes at the slab's slices (`_Slab.slices`),
    one block per sweep that the cache owns. Each also keeps u at its
    first visited slice, its injected plane.

    band is the prepared medium's passband step (`_Passband`), which the
    adjoint transposes; H is the full kernel it was cut from. coeff
    holds one entry per slice pair k, k+1: its plane of r
    (`_interface`), or None where the impedance does not change. trans
    maps each direction d of the run's sweeps (+1, -1) to one multiplier
    per pair: trans[d][k] multiplies the field after diffracting across
    pair k toward d, the pair's transmission plane (`_transmitted`)
    where it has r, the screen of the slice it steps into elsewhere (a
    NumPy scalar where that screen is the same across the plane, its
    (nx, ny) plane otherwise). Both are the prepared medium's, except on
    the pairs that touch the lens slab, where this run's (always planes)
    replace them. slab holds the blocks that those entries view and the
    run's impedance on the slab's slices and the slice on either side
    (`_Slab`), which the slab gradients read; None without a lens. A
    slab pair is a pair between two of `slab.slices`. c, rho and att_np
    are this run's properties on the lens slab only, (nx, ny, n_v) views
    of slice-major (n_v, nx, ny) arrays; (nx, ny, 0) for a run without a
    lens occupancy.
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

    occupancy: dL/d(lens occupancy), present only for lens-embedded runs
    source_plane: holomorphic cotangent of the complex source plane
        (summed over the planes of a run with several sources)
    c, rho, att_np: (nx, ny, n_v) gradients w.r.t. the raw properties on
        the lens slab (slices z_offset .. z_offset + n_v - 1); (nx, ny, 0)
        for a run without a lens
    All four are (nx, ny, n_v) views of slice-major (n_v, nx, ny) arrays,
    as the lens occupancy of `lensmap`.
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
               att_np: np.ndarray, dtype, Z: np.ndarray | None = None,
               out: np.ndarray | None = None) -> tuple:
    """Screens and impedances of (nx, ny, k) properties, one per slice
    (the sweeps read them slice by slice). The impedances are one
    slice-major float64 (k, nx, ny) product, into Z where given. A
    screen, the phase and absorption screen exp(i*phi - a*dz) with phi =
    k0*(c_ref/c - 1)*dz, is computed as exp(-a*dz)*cos(phi) and
    exp(-a*dz)*sin(phi), _SCREENS slices at a time, into the real and
    imaginary parts of a slice-major block of `dtype`: phi and exp(-a*dz)
    in double, cos and sin of phi rounded to the dtype's real type in
    that type, and each part rounded once from its double product with
    exp(-a*dz). With `out`, a (k, nx, ny) block of `dtype`, that block
    is filled and returned as the screens. Without, one reduction over
    each block finds its uniform slices, and the screens are a list: the
    one value a screen takes across the whole plane, or its contiguous
    (nx, ny) plane where it varies, a view of the block, or a copy where
    the block has a uniform slice, whose plane is then freed."""
    k0, dz = grid.k0, grid.dz
    f = np.finfo(dtype).dtype
    screen = []
    if Z is None:
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
        block = (np.empty(phi.shape, dtype=dtype) if out is None
                 else out[i : i + _SCREENS])
        np.multiply(mag, np.cos(phi), out=block.real)
        np.multiply(mag, np.sin(phi), out=block.imag)
        if out is not None:
            continue
        # bitwise equal to the plane's first value, on an integer view
        w = block.view(np.int64).reshape(len(block), -1, block.itemsize // 8)
        uniform = np.all(w == w[:, :1], axis=(1, 2))
        copy = uniform.any()
        screen += [scr.flat[0] if u else scr.copy() if copy else scr
                   for scr, u in zip(block, uniform)]
    return screen if out is None else out, Z


def _interface(Z1: np.ndarray, Z2: np.ndarray, dtype, slab: bool = False,
               scratch: tuple = (None, None)) -> np.ndarray | None:
    """r = (Z2-Z1)/(Z1+Z2) toward +z between impedance planes Z1 (slice k)
    and Z2 (slice k+1), or blocks of them, stored as the complex `dtype`
    (r + 0j; the quotient is taken in double and rounded once); None
    where the impedance is the same across the whole plane (r = 0),
    unless `slab`: a lens-slab pair keeps its plane. scratch, two float64
    arrays of Z1's shape, takes the difference and the sum."""
    if not slab and not np.any(Z2 != Z1):
        return None
    r = np.subtract(Z2, Z1, out=scratch[0])
    r /= np.add(Z1, Z2, out=scratch[1])
    return r.astype(dtype)


def _transmitted(r: np.ndarray, screen, k: int,
                 direction: int) -> np.ndarray:
    """The plane a that carries the field across pair k, k+1 with plane r
    (`_interface`) and into its screen: (1 + r)*screen[k+1] toward +z,
    (1 - r)*screen[k] toward -z. A block of pairs takes screen as the
    two blocks of their screens, (before, after), and k = 0."""
    if direction > 0:
        a = np.add(1.0, r)
        a *= screen[k + 1]
    else:
        a = np.subtract(1.0, r)
        a *= screen[k]
    return a


@dataclass
class PreparedMedium:
    """A medium set up once for any number of forward runs.

    Holds the diffraction kernel and its passband step (`_Passband`:
    the DFT matrices restricted to H's nonzero rows and columns, built
    by `prepare` and shared with every copy and cache), the default
    source plane and the interface planes and multipliers toward both
    directions of the base medium (coeff and trans; see SliceCache),
    which a run without a lens occupancy marches; a lens run replaces
    the entries of the pairs that touch the slab.
    With a lens slab (slices z_offset .. z_offset + n_v - 1) it also holds
    the base properties there, the lens material and the lens-minus-base
    deltas, each an (nx, ny, n_v) view of a slice-major array, and, in
    edge, the impedance and the screen (a scalar where it is uniform) of
    each slice just outside the slab, so that a run with a lens
    recomputes only the slab and the pairs that touch it. Built by
    `prepare`, whose lens material and deltas come from `with_lens`;
    `with_lens` also gives the copy for another lens material, which
    shares every array but the deltas, so a sweep over materials
    prepares the medium once. Nothing it holds is modified by a run,
    except the spare plane stack of nz + 1 planes (`_spare`, None until
    the first run), which each run takes and puts back (a lens run and
    its adjoint also borrow it as scratch for the slab's blocks), the
    spare planes of the reflected sources its runs have added
    (`_spent`), which the next reflected sources fill, and the
    passband's intermediate buffer, which runs and adjoints use in
    turn. A pickle carries no spare planes; a `with_lens` copy shares
    them. Kept from run to run, these planes also keep their place on
    the heap, which glibc would otherwise trim for the next run to fault
    back in.
    Its `dtype`, the band's, is the one complex dtype of its multipliers,
    edge screens, source plane, r planes and passband (matrices: its
    real type) and of every plane its runs and their adjoints march; a
    `with_lens` copy and a pickle keep it. H, the full kernel, stays
    complex128.
    """

    grid: GridSpec
    cfg: SolverConfig
    H: np.ndarray
    band: _Passband                     # the step on H's passband
    source_plane: np.ndarray
    coeff: list                         # coeff, trans: see SliceCache
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
        with this medium (the spare plane stack too: run one at a time).
        The deltas keep the slice-major layout of the base properties, as
        a ufunc's result keeps its operand's."""
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
        coeff, trans, held = self.coeff, self.trans, ()
        c, rho, att = (a[:, :, :0] for a in (self.c, self.rho, self.att_np))
        lens = {}
        if occupancy is not None:
            occupancy = np.asarray(occupancy, dtype=np.float64)
            if occupancy.shape != self.dc.shape:
                raise ValueError(
                    f"lens occupancy shape {occupancy.shape} does not match "
                    f"the prepared slab {self.dc.shape}"
                )
            c, rho, att, coeff, trans, slab = self._lens_slab(
                np.ascontiguousarray(occupancy.transpose(2, 0, 1)),
                (direction,) if self.cfg.reflection_order == 0 else (1, -1))
            lens = dict(slab=slab, lens_z_offset=self.z_offset,
                        lens_dc=self.dc, lens_drho=self.drho,
                        lens_datt=self.datt)
            held = slab.slices if keep else ()
        cache = (SliceCache(grid, self.H, self.band, c, rho, att, coeff,
                            trans, **lens) if keep else None)

        stack, self._spare = self._spare, None
        if stack is None:
            stack = np.empty((grid.nz + 1, grid.nx, grid.ny),
                             dtype=self.dtype)
        plans = {}      # sweeps of one direction and injected slices share
        for n in range(self.cfg.reflection_order + 1):
            key = (direction, frozenset(inject))
            if key not in plans:
                plans[key] = _plan(trans[direction], inject, direction)
            order, segments = plans[key]
            if n == 0:  # it writes the slices it visits, not the others
                s = order[0]
                total[slice(0, s) if direction > 0 else slice(s + 1, None)] = 0
            refl = _march(self.band, coeff, trans[direction], direction,
                          inject, order, segments,
                          n < self.cfg.reflection_order, stack, total, n == 0,
                          held, [] if keep else self._spent)
            if keep:
                cache.sweeps.append(_kept(stack, direction, inject, order,
                                          segments, held))
            if not refl:
                break
            inject = refl
            direction = -direction
        self._spare = stack
        return ComplexField(total.transpose(1, 2, 0), grid), cache

    def _lens_slab(self, occ: np.ndarray, directions: tuple):
        """A lens run's slab, from its slice-major (n_v, nx, ny) occupancy:
        its properties (views of slice-major arrays), the run's coeff and
        trans lists (the prepared medium's, with the slab pairs' entries
        replaced), and the `_Slab` blocks those entries view. The slab
        pairs' r and their transmission planes toward `directions` are
        formed in one pass over the block each; the slab slices' screens
        live on in those planes only, as every step into a slab slice
        crosses a slab pair. The block the screens are computed in and
        r's temporaries lie on the spare plane stack, which the run's
        march takes only afterwards."""
        grid, dtype = self.grid, self.dtype
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
        Zs = np.empty((n, *plane))
        scr, *scratch = _borrow(self._spare, [((n, *plane), dtype),
                                              ((n - 1, *plane), np.float64),
                                              ((n - 1, *plane), np.float64)])
        i = z0 - first
        _per_slice(grid, c, rho, att, dtype, Zs[i : i + n_v], scr[i : i + n_v])
        for s, (Z_s, screen) in self.edge.items():
            Zs[s - first], scr[s - first] = Z_s, screen
        r = _interface(Zs[:-1], Zs[1:], dtype, True, scratch)
        a = {d: _transmitted(r, (scr[:-1], scr[1:]), 0, d) for d in directions}
        pairs = slice(first, first + n - 1)
        coeff = list(self.coeff)
        coeff[pairs] = r
        trans = {d: list(self.trans[d]) for d in directions}
        for d, steps in trans.items():
            steps[pairs] = a[d]
        return (c, rho, att, coeff, trans,
                _Slab(range(first, first + n), Zs, r, a, self))


def _kept(stack: np.ndarray, direction: int, inject: dict, order: range,
          segments: list, slices) -> _Sweep:
    """What the adjoint reads of the sweep just marched through `stack`:
    its plan, the v planes at the consecutive `slices` (the slab's, or
    none) that it marched past its first slice and stepped into from
    another of them (a slab pair), copied out as one block, and the
    injected slices. u stays at the first slice only, its injected
    plane, which no run writes."""
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
    medium (see `propagate_with_lens`); the full-grid multipliers and
    the interface planes are computed here once, and each lens run
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
    # back in (about 7x the page faults on the water demo). The slab's
    # properties are copied slice-major, as every lens run reads them.
    c, rho, att_np = (
        np.ascontiguousarray(a[:, :, z_offset : z_offset + n_v]
                             .transpose(2, 0, 1)).transpose(1, 2, 0)
        for a in (medium.c, medium.rho, att_np))
    trans = {d: [None if r is None else _transmitted(r, screen, k, d)
                 for k, r in enumerate(coeff)] for d in (1, -1)}
    # a screen plane between two interfaces lives on in their transmission
    # planes only; the others are copied out of their blocks once
    screen = [scr if not isinstance(scr, np.ndarray) else None
              if s not in edge and all(coeff[k] is not None for k in (s - 1, s)
                                       if 0 <= k < grid.nz - 1)
              else scr.copy() for s, scr in enumerate(screen)]
    # a step across a pair without an interface takes the screen of the
    # slice it steps into: k + 1 toward +z, k toward -z
    trans = {d: [screen[k + (d > 0)] if a is None else a
                 for k, a in enumerate(steps)] for d, steps in trans.items()}
    prepared = PreparedMedium(
        grid, cfg,
        H=H,
        band=_Passband.of(H, dtype),
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


def _plan(trans: list, inject: dict, direction: int) -> tuple[range, list]:
    """The slices a sweep visits, in march order, and its segments.

    order runs from the sweep's first injected slice (the highest toward
    -z, the lowest toward +z) to the grid's end: the field is zero before
    it. segments are (first, last) index pairs into order that tile
    order[1:]. One ends at the sweep's last slice and at every step prev
    -> s that is not homogeneous. A step is homogeneous when its
    multiplier a = trans[min(prev, s)] (see SliceCache) is a scalar and
    nothing is injected at s: across such steps u_s = a *
    diffract(u_prev) in every bin, so a segment continues through them.
    """
    if direction < 0:
        order = range(max(inject), -1, -1)
    else:
        order = range(min(inject), len(trans) + 1)
    segments, first = [], 1
    for i in range(1, len(order)):
        prev, s = order[i - 1], order[i]
        if (i + 1 == len(order) or isinstance(trans[min(prev, s)], np.ndarray)
                or s in inject):
            segments.append((first, i))
            first = i + 1
    return order, segments


def _march(
    band: _Passband,
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
    H * a_prev * (previous spectrum) to the head of stack[s], multiplied
    by its step's scalar multiplier a on the homogeneous slices, and
    returns them to space in one block product: the homogeneous slices'
    contributions and v, into total on the first sweep (v in total[s]
    unless s is held) and into the stack otherwise. The last step, across
    pair k, forms r*v, the reflected source, where coeff[k] = r is a
    plane, then the contribution a*v, a = trans[k] (see SliceCache), in
    total[s] (first sweep) or in the work plane, and the injection there.
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
            # a homogeneous slice h takes its step's multiplier on its
            # spectrum, which then returns to space as its contribution
            for p, h, q in zip(steps, steps[1:], steps[2:]):
                np.multiply(spectra[h], trans[min(p, h)], out=spectra[h])
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

    upstream is dL/dP over the full grid in the pairing dL = Re(sum(g*dP)).
    Property gradients cover the lens slab only (empty without a lens).
    The multipliers and r planes are the forward run's, read from the
    cache. The sweeps add, per direction, into one slice-major block over
    the slab pairs (`_Slab`); `_slab_gradients` turns those sums into
    property and occupancy gradients in one pass after the last sweep. The blocks and that
    pass's scratch lie on the prepared medium's spare plane stack, which
    no run uses meanwhile (fresh arrays where it is too small), so that
    only the returned gradients are new arrays.
    The sweeps read upstream slice by slice: an (nx, ny, nz) view of a
    slice-major array of the run's dtype, as `optim.loss_and_gradient`
    returns, is read in place, any other layout or dtype is copied into
    one first.
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
            (slab.Z.shape, K.dtype), (pairs, np.float64),
            (pairs, K.real.dtype)])
        S.fill(0.0)
        R.fill(0.0)
        sums = {d: (S[j], R[j] if len(R) else None)
                for j, d in enumerate(slab.trans)}
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


def _sweep_adjoint(cache, sweep: _Sweep, upstream, refl_cot, sums, scratch,
                   K):
    """Reverse one sweep; returns cotangents of its consumed injections.

    upstream is slice-major (nz, nx, ny). The field cotangent is carried
    through every pair. On slab pairs (both slices in `_Slab.slices`) it
    adds ub*v, and Re(refl_cot[prev]*v) where a reflection cotangent
    exists, to the pair's plane of the sweep direction's blocks in sums,
    through the third scratch plane; other pairs skip that work. Each
    entry of refl_cot is dropped once used, so that it is freed while
    the returned cotangents fill up.

    The segments the forward recorded are replayed from the last: its
    last step is transposed in space, and vbar enters the passband as K
    = H * (Ai.T @ vbar @ Bi.T); each homogeneous slice s back from it
    gives K <- H * a_s * (K + Ai.T @ upstream_s @ Bi.T), a_s the scalar
    multiplier of the step into s (see SliceCache), with one
    block product of their upstream planes, and K returns to space as
    A.T @ K @ B.T. That is the transpose (not the conjugate transpose)
    of the segment.
    """
    band, coeff, slab = cache.band, cache.coeff, cache.slab
    trans = cache.trans[sweep.direction]
    tmp = band.tmp
    down = sweep.direction < 0
    order = sweep.order
    pairs = slab.slices[:-1] if slab else ()   # the slab pairs

    inject_cot: dict = {}
    ub, carry, w = scratch
    carry.fill(0.0)
    for first, last in reversed(sweep.segments):
        prev, s = order[last - 1], order[last]
        np.add(carry, upstream[s], out=ub)
        if s in sweep.inject:
            inject_cot[s] = ub.copy()
        rc = refl_cot.pop(prev, None)
        k = min(prev, s)
        if k in pairs:                  # a slab pair
            uv, rv = sums[sweep.direction]
            p = k - pairs.start
            v = sweep.v[s]
            uv[p] += np.multiply(ub, v, out=w)
            if rc is not None:
                rv[p] += np.multiply(rc, v, out=w).real

        # vbar = a * ub +- r * refl_cot[prev] in the carry plane, a the
        # pair's multiplier (r toward -z is -r); ub, read no more, holds
        # r * refl_cot[prev]
        np.multiply(ub, trans[k], out=carry)
        if rc is not None:
            np.multiply(rc, coeff[k], out=ub)
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
                np.multiply(K, trans[min(s, s - sweep.direction)], out=K)
                np.multiply(K, band.H, out=K)
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
    s. The step is u = a*v with a = t*screen[s], t = 1 +- r. The screen
    derivative goes to slice s: W[s], one slot per slice, sums S*a over
    the pairs stepping into s, and with d screen/dc = -i*k0*c_ref*dz/c^2
    * screen and d screen/da = -dz * screen,
        gc = gZ*rho + Im(W)*k0*c_ref*dz/c^2,  grho = gZ*c,
        gatt = -dz*Re(W).
    dL/dt = Re(S*screen[s]) = Re(S*a)/t, and dr/dZ = dt/dZ = -+2*Z_other
    /(Z_k + Z_k+1)^2 toward +z and the opposite toward -z, so the two
    directions of a pair k, k+1 share one impedance chain: with g =
    Re(S*a)/t + R per direction, G = 2*(g+ - g-)/(Z_k + Z_k+1)^2, gZ[k]
    -= G*Z[k+1] and gZ[k+1] += G*Z[k]. The occupancy gradient is gc*dc +
    grho*drho + gatt*datt.

    The pass runs in place: on the sums (consumed), on W, (n, nx, ny) of
    the run's dtype, on G, (n - 1, nx, ny) float64, and on t, (n - 1, nx,
    ny) of its real type, none of which it reads before writing; W's
    float64 view holds (Z_k + Z_k+1)^2 and then gZ once W is read. The
    four gradients are slice-major (n_v, nx, ny), returned as their (nx,
    ny, n_v) views.
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
    gc = np.multiply(Wv.imag, grid.k0 * grid.c_ref * grid.dz, dtype=np.float64)
    gc /= c
    gc /= c
    gatt = np.multiply(Wv.real, -grid.dz, dtype=np.float64)

    # W is read: its bytes hold (Z_k + Z_k+1)^2, then gZ; G holds -G
    gZ = W.reshape(-1).view(np.float64)[: Zs.size].reshape(Zs.shape)
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
