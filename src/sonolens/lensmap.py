"""Differentiable mapping from a 2D design field to a 3D lens volume.

The mapping chain is:

    theta --sigmoid--> thickness --DHLA blur, printer blur--> t_smooth
          --sigmoid voxelization--> quasi-binary occupancy

Each stage is smooth, so the full chain has an exact reverse-mode
gradient (`backward`, which reads the forward's occupancy rather than
voxelizing again), verified against finite differences in the tests.
Thickness is measured in voxels throughout; a column is "solid" below its
thickness value, i.e. occupancy(k) = sigmoid(beta * (t - z_k)) with
z_k = k + 0.5 for zero-based k. An occupancy (`voxelize`, `binarize`) is
stored slice-major, (n_v, nx, ny), and handed out as its (nx, ny, n_v)
view: the layout in which the solver marches the lens slab and returns
its gradient, so neither side copies it.

The DHLA blur is fixed: a KERNEL_SIZE x KERNEL_SIZE Gaussian of standard
deviation SMOOTH_SIGMA voxels. The printer's blur at the design's
`fab_cutoff` (`printer_blur`, as in `fabrication_filter`) follows it, so
the binarized lens is the print. The lens has `DesignField.n_v` =
ceil(v_max) slices, the one rounding of v_max in the package.

Both blurs are separable: the unit-sum 2D Gaussian is the outer product of
a 1D one, so the blur of an (nx, ny) map is `Bx @ t @ By.T`. Each `B` is the
(n, n) matrix of the 1D blur with the symmetric edge folded in, so a kernel
wider than the map needs no special case. The chain's `B` is the product
of its two (`chain_blur`); `backward` applies its transpose, Bx.T @ g @ By.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# the DHLA smoothing step: odd kernel width (voxels) and its sigma (voxels)
KERNEL_SIZE = 9
SMOOTH_SIGMA = 1.5
# the printer's smallest feature by default, in lateral voxels (2 dx)
FAB_CUTOFF = 2.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    # numerically stable in both tails: e = exp(-|x|) never overflows, and
    # 1/(1 + e) for x >= 0, e/(1 + e) below; formed in e's buffer
    e = np.abs(x, out=np.empty(np.shape(x)))
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = np.add(1.0, e)
    np.copyto(e, 1.0, where=x >= 0)
    e /= d
    return e


@dataclass
class DesignField:
    """Continuous 2D lens parameterization.

    theta: unconstrained real map (nx, ny)
    alpha: steepness of the thickness sigmoid
    v_min, v_max: thickness bounds in voxels; the lens spans n_v slices
    fab_cutoff: the printer's smallest feature in lateral voxels
    """

    theta: np.ndarray
    alpha: float = 0.1
    v_min: float = 1.0
    v_max: float = 12.0
    fab_cutoff: float = FAB_CUTOFF

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 2:
            raise ValueError("theta must be 2D")
        if not np.isfinite(self.theta).all():
            raise ValueError("theta must be finite")
        if not 0 < self.alpha < np.inf:     # NaN fails too
            raise ValueError("alpha must be positive and finite")
        if self.v_min < 1.0:
            raise ValueError("v_min must be at least 1 voxel")
        if not self.v_min < self.v_max < np.inf:
            raise ValueError("v_min must be smaller than a finite v_max")
        if not 1.0 <= self.fab_cutoff < np.inf:     # NaN fails too
            raise ValueError(f"fab_cutoff {self.fab_cutoff:g} must be at "
                             "least 1 voxel and finite")

    @classmethod
    def random(cls, nx, ny, seed=None, **params):
        """theta ~ i.i.d. uniform[-1, 1]; `params` are the other fields."""
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(-1.0, 1.0, size=(nx, ny)), **params)

    @property
    def n_v(self) -> int:
        """Lens depth in slices: ceil(v_max), v_max first rounded to 9
        decimals, so that 1 mm / 100 um = 10.000000000000002 is 10."""
        return int(np.ceil(round(self.v_max, 9)))


@dataclass
class LensVolume:
    """Quasi-binary lens occupancy with its generating thickness map."""

    occupancy: np.ndarray          # (nx, ny, n_v) in [0, 1], slice-major
    thickness_map: np.ndarray      # (nx, ny), voxels
    v_min: float = 1.0
    v_max: float | None = None

    def __post_init__(self):
        if self.v_max is None:
            self.v_max = float(self.occupancy.shape[2])

    @property
    def n_v(self) -> int:
        return self.occupancy.shape[2]


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Unit-sum 1D Gaussian taps of odd size; the 2D blur is their outer product."""
    if size % 2 == 0:
        raise ValueError("kernel size must be odd")
    r = np.arange(size) - size // 2
    g = np.exp(-(r**2) / (2.0 * sigma**2))
    return g / g.sum()


def map_thickness(design: DesignField) -> np.ndarray:
    """t = sigmoid(alpha * theta) * (v_max - v_min) + v_min, in voxels."""
    s = sigmoid(design.alpha * design.theta)
    return s * (design.v_max - design.v_min) + design.v_min


def _blur_matrix(n: int, kernel_size: int, sigma: float) -> np.ndarray:
    """(n, n) matrix of the 1D Gaussian blur of a symmetric-padded signal."""
    g = gaussian_kernel(kernel_size, sigma)
    pad = kernel_size // 2
    eye = np.pad(np.eye(n), ((pad, pad), (0, 0)), mode="symmetric")
    # row i holds sum_k g[k] * eye[i + k]: the taps landing on each source cell
    return sliding_window_view(eye, kernel_size, axis=0) @ g


def printer_blur(n: int, cutoff: float) -> np.ndarray:
    """(n, n) matrix of the printer's blur for a smallest feature of
    `cutoff` voxels: a Gaussian of sigma cutoff/2, taps out to 3 sigma."""
    if cutoff < 1.0:
        raise ValueError("cutoff must be at least one grid spacing")
    return _blur_matrix(n, 2 * int(np.ceil(1.5 * cutoff)) + 1, cutoff / 2.0)


@lru_cache(maxsize=8)
def chain_blur(n: int, fab_cutoff: float) -> np.ndarray:
    """(n, n) blur of the design chain along one axis: the DHLA Gaussian,
    then the printer's; built once per map size and cutoff, read-only."""
    b = printer_blur(n, fab_cutoff) @ _blur_matrix(n, KERNEL_SIZE, SMOOTH_SIGMA)
    b.flags.writeable = False
    return b


def voxelize(t_smooth: np.ndarray, beta: float, n_v: int) -> LensVolume:
    """Lift a thickness map into a quasi-binary occupancy volume.

    occupancy(i,j,k) = sigmoid(beta * (t_smooth(i,j) - z_k)), z_k = k + 0.5,
    the (nx, ny, n_v) view of a slice-major array.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    # 1/(1 + exp(beta*z - beta*t)) in four passes over the volume: it
    # keeps full relative precision in both tails, and an exp that
    # overflows to inf gives 0
    z = beta * (np.arange(n_v) + 0.5)
    occ = np.subtract(z[:, None, None], beta * t_smooth[None, :, :])
    with np.errstate(over="ignore"):
        np.exp(occ, out=occ)
    occ += 1.0
    np.divide(1.0, occ, out=occ)
    return LensVolume(occ.transpose(1, 2, 0), t_smooth.copy())


def forward(design: DesignField, beta: float) -> LensVolume:
    """Full design-field -> lens-volume mapping, n_v = design.n_v slices."""
    bx, by = (chain_blur(n, design.fab_cutoff) for n in design.theta.shape)
    ts = bx @ map_thickness(design) @ by.T
    lens = voxelize(ts, beta, design.n_v)
    lens.v_min, lens.v_max = design.v_min, design.v_max
    return lens


def backward(
    design: DesignField, beta: float, grad_occupancy: np.ndarray,
    occupancy: np.ndarray,
) -> np.ndarray:
    """Reverse-mode gradient of `forward` w.r.t. theta.

    grad_occupancy is dL/d(occupancy) and occupancy the occupancy that
    `forward(design, beta)` returned, both (nx, ny, n_v); the chain is
    not re-evaluated. Both are read slice-major, in place where they are
    views of slice-major arrays (as `forward` and the solver's adjoint
    return them).
    """
    shape = (*design.theta.shape, design.n_v)
    if grad_occupancy.shape != shape or occupancy.shape != shape:
        raise ValueError("upstream gradient shape does not match the forward pass")
    occ = occupancy.transpose(2, 0, 1)
    # d occ / d t_smooth = beta * occ * (1 - occ)
    w = np.subtract(1.0, occ)
    w *= occ
    w *= grad_occupancy.transpose(2, 0, 1)
    grad_ts = beta * w.sum(axis=0)
    bx, by = (chain_blur(n, design.fab_cutoff) for n in design.theta.shape)
    grad_t = bx.T @ grad_ts @ by
    s = sigmoid(design.alpha * design.theta)
    return grad_t * (design.v_max - design.v_min) * s * (1.0 - s) * design.alpha


def binarize(lens: LensVolume) -> LensVolume:
    """Hard-threshold a lens: round the thickness map to whole voxels.

    The column transition sits at round(thickness); ties round half up.
    The occupancy is slice-major, as `voxelize`'s.
    """
    n_solid = np.floor(lens.thickness_map + 0.5)
    z = np.arange(lens.n_v) + 0.5
    occ = (z[:, None, None] < n_solid[None, :, :]).astype(np.float64)
    return LensVolume(occ.transpose(1, 2, 0), n_solid.astype(np.float64),
                      lens.v_min, lens.v_max)


def fabrication_filter(lens: LensVolume, cutoff: float) -> LensVolume:
    """Emulate printer resolution: low-pass the thickness map, re-binarize.

    cutoff is the smallest printable feature in lateral voxels, as
    `DesignField.fab_cutoff`; the blur is `printer_blur` at cutoff.
    """
    t = lens.thickness_map
    bx, by = (printer_blur(n, cutoff) for n in t.shape)
    return binarize(LensVolume(lens.occupancy, bx @ t @ by.T, lens.v_min,
                               lens.v_max))
