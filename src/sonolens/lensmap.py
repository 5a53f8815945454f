"""Differentiable mapping from a 2D design field to a 3D lens volume.

The mapping chain is:

    theta --sigmoid--> thickness --Gaussian blur--> t_smooth
          --sigmoid voxelization--> quasi-binary occupancy

Each stage is smooth, so the full chain has an exact reverse-mode
gradient (`backward`), verified against finite differences in the tests.
Thickness is measured in voxels throughout; a column is "solid" below its
thickness value, i.e. occupancy(k) = sigmoid(beta * (t - z_k)) with
z_k = k + 0.5 for zero-based k.

The blur is fixed: a KERNEL_SIZE x KERNEL_SIZE Gaussian of standard
deviation SMOOTH_SIGMA voxels. The lens has `DesignField.n_v` =
ceil(v_max) slices, the one rounding of v_max in the package.

Both blurs (this one and `fabrication_filter`'s) are `scipy.ndimage.correlate`
of the map padded first with `np.pad(mode="symmetric")`, cropped to the valid
region, so no kept sample depends on ndimage's boundary modes: its
`mode="reflect"` on the unpadded map returns garbage (SciPy 1.17) once the
kernel is many times wider than the map, as a large fabrication cutoff makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

# the DHLA smoothing step: odd kernel width (voxels) and its sigma (voxels)
KERNEL_SIZE = 9
SMOOTH_SIGMA = 1.5


def sigmoid(x: np.ndarray) -> np.ndarray:
    # numerically stable in both tails
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass
class DesignField:
    """Continuous 2D lens parameterization.

    theta: unconstrained real map (nx, ny)
    alpha: steepness of the thickness sigmoid
    v_min, v_max: thickness bounds in voxels; the lens spans n_v slices
    """

    theta: np.ndarray
    alpha: float = 0.1
    v_min: float = 1.0
    v_max: float = 12.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 2:
            raise ValueError("theta must be 2D")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.v_min < 1.0:
            raise ValueError("v_min must be at least 1 voxel")
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be smaller than v_max")

    @classmethod
    def random(cls, nx, ny, alpha=0.1, v_min=1.0, v_max=12.0, seed=None):
        """theta ~ i.i.d. uniform[-1, 1]."""
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(-1.0, 1.0, size=(nx, ny)), alpha, v_min, v_max)

    @property
    def n_v(self) -> int:
        """Lens depth in slices: ceil(v_max)."""
        return int(np.ceil(self.v_max))


@dataclass
class LensVolume:
    """Quasi-binary lens occupancy with its generating thickness map."""

    occupancy: np.ndarray          # (nx, ny, n_v) in [0, 1]
    thickness_map: np.ndarray      # (nx, ny), voxels
    v_min: float = 1.0
    v_max: float | None = None

    def __post_init__(self):
        if self.v_max is None:
            self.v_max = float(self.occupancy.shape[2])

    @property
    def n_v(self) -> int:
        return self.occupancy.shape[2]


@dataclass
class BetaSchedule:
    """Monotone geometric annealing of the voxelization sharpness."""

    beta_start: float = 1.0
    beta_end: float = 20.0
    iterations: int = 200

    def __post_init__(self):
        if self.beta_start <= 0 or self.beta_end <= 0:
            raise ValueError("beta endpoints must be positive")
        if self.beta_end < self.beta_start:
            raise ValueError("schedule must be monotone non-decreasing")

    def value(self, iteration: int) -> float:
        if self.iterations <= 1:
            return self.beta_end
        frac = min(max(iteration, 0), self.iterations - 1) / (self.iterations - 1)
        return float(self.beta_start * (self.beta_end / self.beta_start) ** frac)


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Unit-sum 2D Gaussian kernel of odd size."""
    if size % 2 == 0:
        raise ValueError("kernel size must be odd")
    r = np.arange(size) - size // 2
    g = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * sigma**2))
    return g / g.sum()


def map_thickness(design: DesignField) -> np.ndarray:
    """t = sigmoid(alpha * theta) * (v_max - v_min) + v_min, in voxels."""
    s = sigmoid(design.alpha * design.theta)
    return s * (design.v_max - design.v_min) + design.v_min


def smooth_thickness(t: np.ndarray, kernel_size: int,
                     sigma: float) -> np.ndarray:
    """Blur the thickness map with a unit-sum Gaussian, reflective edges."""
    g = gaussian_kernel(kernel_size, sigma)
    pad = kernel_size // 2
    tp = np.pad(t, pad, mode="symmetric")
    return ndimage.correlate(tp, g)[pad:pad + t.shape[0], pad:pad + t.shape[1]]


def _smooth_transpose(
    gbar: np.ndarray, shape: tuple[int, int], kernel_size: int, sigma: float
) -> np.ndarray:
    """Exact transpose of smooth_thickness (pad + valid convolution)."""
    g = gaussian_kernel(kernel_size, sigma)
    pad = kernel_size // 2
    # transpose of "valid" convolution is "full" convolution (kernel symmetric)
    full_region = np.s_[pad:gbar.shape[0] + 3 * pad, pad:gbar.shape[1] + 3 * pad]
    full = ndimage.correlate(np.pad(gbar, 2 * pad), g)[full_region]
    # fold padded contributions back onto their source cells
    idx = np.arange(shape[0] * shape[1]).reshape(shape)
    idx_pad = np.pad(idx, pad, mode="symmetric")
    out = np.zeros(shape[0] * shape[1])
    np.add.at(out, idx_pad.ravel(), full.ravel())
    return out.reshape(shape)


def voxelize(t_smooth: np.ndarray, beta: float, n_v: int) -> LensVolume:
    """Lift a thickness map into a quasi-binary occupancy volume.

    occupancy(i,j,k) = sigmoid(beta * (t_smooth(i,j) - z_k)), z_k = k + 0.5.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    z = np.arange(n_v) + 0.5
    occ = sigmoid(beta * (t_smooth[:, :, None] - z[None, None, :]))
    return LensVolume(occ, t_smooth.copy())


def forward(design: DesignField, beta: float) -> LensVolume:
    """Full design-field -> lens-volume mapping, n_v = design.n_v slices."""
    t = map_thickness(design)
    ts = smooth_thickness(t, KERNEL_SIZE, SMOOTH_SIGMA)
    lens = voxelize(ts, beta, design.n_v)
    lens.v_min, lens.v_max = design.v_min, design.v_max
    return lens


def backward(
    design: DesignField, beta: float, grad_occupancy: np.ndarray
) -> np.ndarray:
    """Reverse-mode gradient of `forward` w.r.t. theta.

    grad_occupancy is dL/d(occupancy) with the same shape as the forward
    occupancy. Only theta and beta are needed; the chain is re-evaluated
    here rather than cached.
    """
    n_v = design.n_v
    t = map_thickness(design)
    ts = smooth_thickness(t, KERNEL_SIZE, SMOOTH_SIGMA)
    if grad_occupancy.shape != (*ts.shape, n_v):
        raise ValueError("upstream gradient shape does not match the forward pass")

    z = np.arange(n_v) + 0.5
    occ = sigmoid(beta * (ts[:, :, None] - z[None, None, :]))
    # d occ / d t_smooth = beta * occ * (1 - occ)
    grad_ts = np.sum(grad_occupancy * beta * occ * (1.0 - occ), axis=2)
    grad_t = _smooth_transpose(grad_ts, t.shape, KERNEL_SIZE, SMOOTH_SIGMA)
    s = sigmoid(design.alpha * design.theta)
    return grad_t * (design.v_max - design.v_min) * s * (1.0 - s) * design.alpha


def binarize(lens: LensVolume) -> LensVolume:
    """Hard-threshold a lens: round the thickness map to whole voxels.

    The column transition sits at round(thickness); ties round half up.
    """
    n_solid = np.floor(lens.thickness_map + 0.5)
    z = np.arange(lens.n_v) + 0.5
    occ = (z[None, None, :] < n_solid[:, :, None]).astype(np.float64)
    return LensVolume(occ, n_solid.astype(np.float64), lens.v_min, lens.v_max)


def fabrication_filter(
    lens: LensVolume, cutoff: float, dx: float
) -> LensVolume:
    """Emulate printer resolution: low-pass the thickness map, re-binarize.

    cutoff is the smallest printable feature size in meters; the blur is a
    Gaussian with sigma = cutoff/2 (converted to voxels via dx).
    """
    if cutoff < dx:
        raise ValueError("cutoff must be at least one grid spacing")
    sigma_vox = cutoff / (2.0 * dx)
    size = 2 * int(np.ceil(3.0 * sigma_vox)) + 1
    t_filt = smooth_thickness(lens.thickness_map, size, sigma_vox)
    smoothed = LensVolume(lens.occupancy, t_filt, lens.v_min, lens.v_max)
    return binarize(smoothed)
