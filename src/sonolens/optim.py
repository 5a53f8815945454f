"""Loss assembly and gradient-based lens optimization.

The total loss is

    L = L_acc + lambda_energy * L_energy + lambda_balance * L_balance

where L_acc is one minus the cosine similarity between target and
simulated intensity over the full grid, L_energy is the negative mean
pressure amplitude over the target support, and L_balance is the
population standard deviation of intensity over the active target set.
Each term comes with its exact gradient with respect to the complex
field, expressed in the pairing dL = Re(sum(g * dP)).

`loss_and_gradient` evaluates all three terms and their cotangent in
one pass, and `loss_and_adjoint` weighs them into the total, the one
place that formula lives. `lens_objective` is the lens design chain
(theta through `lensmap.forward`, printer blur included, and the
`design.n_v`-slice lens slab of a `solver.PreparedMedium` to the loss
and back), whose solver settings are the prepared medium's; `descend` is
the Adam loop that the lens and phase-map optimizations share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import GridSpec
from .lensmap import DesignField, LensVolume
from . import lensmap
from .solver import (
    ComplexField,
    PreparedMedium,
    propagate_adjoint,
    propagate_with_lens,
)


@dataclass
class TargetSpec:
    """Amplitude-only target with its active focal-region set.

    Each focus center is a voxel of the grid. The loss constants are
    computed once here: the flat indices of the support (a > 0) and of
    the active set (a == 1), a on the support, sum a^4 and sum a. The
    flat indices run slice-major, over the (nz, nx, ny) order in which a
    run stores its field (`loss_and_gradient`). `a_target` is not to be
    changed afterwards.
    """

    a_target: np.ndarray                 # 3D, values in [0, 1]
    focus_centers: list                  # voxel-index triples, one per focus
    support: np.ndarray = field(init=False, repr=False, compare=False)
    a_support: np.ndarray = field(init=False, repr=False, compare=False)
    omega_index: np.ndarray = field(init=False, repr=False, compare=False)
    s4a: float = field(init=False, repr=False, compare=False)
    a_sum: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.a_target = np.asarray(self.a_target, dtype=np.float64)
        if np.any(self.a_target < 0) or np.any(self.a_target > 1):
            raise ValueError("target amplitudes must lie in [0, 1]")
        if not np.any(self.a_target == 1.0):
            raise ValueError("target must contain at least one active voxel")
        if not self.focus_centers:
            raise ValueError("at least one focus center is required")
        shape = self.a_target.shape
        for c in self.focus_centers:
            if len(c) != 3 or not all(0 <= i < n for i, n in zip(c, shape)):
                raise ValueError(f"focus center {tuple(c)} is not a voxel "
                                 f"of the {shape} grid")
        # read off the (nz, nx, ny) view, which is not copied
        a = self.a_target
        z, x, y = np.nonzero(a.transpose(2, 0, 1))
        self.support = np.ravel_multi_index((z, x, y), (shape[2], *shape[:2]))
        self.a_support = a[x, y, z]
        self.omega_index = self.support[self.a_support == 1.0]
        self.s4a = np.sum((a**2) ** 2)
        self.a_sum = np.sum(a)

    @property
    def omega(self) -> np.ndarray:
        """Boolean mask of the active target set (a_target == 1)."""
        return self.a_target == 1.0

    @classmethod
    def from_spheres(cls, grid: GridSpec, centers_m, radius_m: float) -> "TargetSpec":
        """Binary target of spherical foci given centers in meters."""
        if not radius_m >= 0:           # NaN fails too
            raise ValueError(f"radius {radius_m!r} m must be non-negative")
        a = np.zeros(grid.shape)
        voxel_centers = []
        for center in centers_m:
            a[grid.squared_distance(center) <= radius_m**2] = 1.0
            voxel_centers.append(tuple(int(round(c / d)) for c, d in
                                       zip(center, (grid.dx, grid.dy, grid.dz))))
        return cls(a, voxel_centers)


@dataclass
class OptimConfig:
    """Adam settings, loss weights, and the voxelization sharpness `beta`,
    annealed geometrically from beta_start to beta_end over the run."""

    learning_rate: float = 1.0
    iterations: int = 200
    lambda_energy: float = 0.2
    lambda_balance: float = 0.5
    beta_start: float = 1.0
    beta_end: float = 20.0

    def __post_init__(self):
        if self.beta_start <= 0 or self.beta_end <= 0:
            raise ValueError("beta endpoints must be positive")
        if self.beta_end < self.beta_start:
            raise ValueError("schedule must be monotone non-decreasing")
        if self.learning_rate <= 0 or self.iterations < 0:
            raise ValueError("learning rate must be positive, iterations >= 0")
        if self.lambda_energy < 0 or self.lambda_balance < 0:
            raise ValueError("loss weights must be non-negative")

    def beta(self, iteration: int) -> float:
        """Sharpness at `iteration`; beta_end for runs under 2 iterations."""
        if self.iterations <= 1:
            return self.beta_end
        frac = min(max(iteration, 0), self.iterations - 1) / (self.iterations - 1)
        return float(self.beta_start * (self.beta_end / self.beta_start) ** frac)


@dataclass
class LossReport:
    """Per-iteration loss history: each objective's total and its terms."""

    total: list = field(default_factory=list)
    acc: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    balance: list = field(default_factory=list)

    def append(self, total: float, acc: float, energy: float,
               balance: float) -> None:
        self.total.append(total)
        self.acc.append(acc)
        self.energy.append(energy)
        self.balance.append(balance)

    def to_csv(self, path) -> None:
        rows = np.column_stack(
            [np.arange(len(self.total)), self.total, self.acc, self.energy,
             self.balance]
        )
        np.savetxt(
            path, rows, delimiter=",",
            header="iteration,total,acc,energy,balance", comments="",
        )


def loss_and_gradient(
    values: np.ndarray,
    target: TargetSpec,
    lambda_energy: float,
    lambda_balance: float,
) -> tuple[float, float, float, np.ndarray]:
    """All three loss terms plus the exact upstream field cotangent.

    Only |P|^2, sum |P|^4 and the terms proportional to |P|^2 or conj(P)
    span the grid; the terms weighted by the target run on its support.
    Besides the field, the full-grid arrays alive at once are the
    intensity (turned in place into d/d(intensity); its square too while
    sum |P|^4 is taken) and, from the end of the accuracy and balance
    terms, the returned cotangent.
    The field is read slice-major, in `TargetSpec`'s flat order: a view
    of a run's field, which is stored so; a field in another layout is
    copied. The cotangent comes back as an (nx, ny, nz) view of a
    slice-major array of the field's dtype, which the adjoint reads in
    place. The full-grid sums and the balance statistics are taken in
    float64 whatever that dtype.
    """
    shape = values.shape
    values = values.transpose(2, 0, 1).reshape(-1)
    sup, a = target.support, target.a_support
    a2 = a**2
    amp_s = np.abs(values[sup])
    intensity = np.abs(values)
    intensity **= 2
    omega = target.omega_index
    vals = intensity[omega]

    # accuracy term and d/d(intensity), in the intensity's buffer
    num = np.sum(a2 * intensity[sup], dtype=np.float64)
    s4p = np.sum(intensity**2, dtype=np.float64)
    w_int = intensity
    if s4p > 0.0:
        denom = np.sqrt(target.s4a * s4p)
        l_acc = 1.0 - num / denom
        w_int *= num
        w_int /= np.sqrt(target.s4a) * s4p**1.5
        w_int[sup] += -a2 / denom
    else:
        l_acc = 1.0
        w_int.fill(0.0)

    # balance term
    mean = vals.mean(dtype=np.float64)
    std = float(np.std(vals, dtype=np.float64))
    l_bal = std
    if std > 0.0:
        w_int[omega] += lambda_balance * ((vals - mean) / (vals.size * std))

    w_int *= 2.0
    upstream = np.conj(values)
    upstream *= w_int

    # energy term, gradient through |P|
    l_en = float(-np.sum(a * amp_s) / target.a_sum)
    nz = amp_s > 0
    idx = sup[nz]
    upstream[idx] += lambda_energy * (
        (-a[nz] / target.a_sum) * np.conj(values[idx]) / amp_s[nz]
    )
    upstream = upstream.reshape(shape[2], *shape[:2]).transpose(1, 2, 0)
    return l_acc, l_en, l_bal, upstream


class Adam:
    """Adaptive-moment gradient descent on a single parameter array."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr=1.0):
        self.lr = lr
        self.m = None
        self.v = None
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad * grad
        m_hat = self.m / (1.0 - self.BETA1**self.t)
        v_hat = self.v / (1.0 - self.BETA2**self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def loss_and_adjoint(p: ComplexField, cache, target: TargetSpec,
                     cfg: OptimConfig):
    """Total loss, its (acc, energy, balance) terms, and the adjoint run."""
    l_acc, l_en, l_bal, upstream = loss_and_gradient(
        p.values, target, cfg.lambda_energy, cfg.lambda_balance
    )
    total = l_acc + cfg.lambda_energy * l_en + cfg.lambda_balance * l_bal
    return total, (l_acc, l_en, l_bal), propagate_adjoint(cache, upstream)


def descend(objective, x0: np.ndarray, cfg: OptimConfig):
    """Adam on `objective(x, iteration) -> (total, grad, terms, field)`.

    Returns the final x, the loss history and the last field (or None).
    Each iterate's field is released before the next objective call, so
    at most one field returned by the objective is alive.
    """
    x = np.array(x0, dtype=np.float64)
    adam = Adam(cfg.learning_rate)
    report = LossReport()
    field_ = None
    for it in range(cfg.iterations):
        field_ = None
        total, grad, terms, field_ = objective(x, it)
        report.append(total, *terms)
        if not np.isfinite(total):
            raise RuntimeError(
                f"optimization diverged at iteration {it}: loss = {total}"
            )
        x = adam.step(x, grad)
    return x, report, field_


def lens_objective(
    prepared: PreparedMedium,
    target: TargetSpec,
    design: DesignField,
    cfg: OptimConfig,
):
    """The chain theta -> lens -> field -> loss -> dL/dtheta as
    `objective(theta, beta) -> (total, grad, terms, field)`.

    Uses the loss weights of `cfg` and the design parameters of `design`;
    the lens runs on the slab of `prepared` (its solver settings, lens
    material and slices), which must have design.n_v slices. `objective(theta, beta)[:2]` suits `gradcheck`.
    """

    def objective(theta: np.ndarray, beta: float):
        d = replace(design, theta=theta)
        lens = lensmap.forward(d, beta)
        p, cache = propagate_with_lens(prepared, lens.occupancy)
        total, terms, adj = loss_and_adjoint(p, cache, target, cfg)
        return total, lensmap.backward(d, beta, adj.occupancy), terms, p

    return objective


@dataclass
class DesignResult:
    design: DesignField
    lens: LensVolume
    report: LossReport
    field_optimization: ComplexField


def optimize_lens_geometry(
    prepared: PreparedMedium,
    target: TargetSpec,
    design: DesignField,
    cfg: OptimConfig,
) -> DesignResult:
    """End-to-end geometry optimization of a thickness-modulated lens.

    Runs `descend` on `lens_objective` with beta following `cfg.beta`.
    Returns the final design, its lens at the final beta binarized, the
    loss history and the field of the last iteration. The chain carries
    the printer's blur, so that lens is the print: no filter follows, as
    `baselines.fabricate_and_simulate` applies to phase designs.
    """
    objective = lens_objective(prepared, target, design, cfg)
    theta, report, p_opt = descend(
        lambda th, it: objective(th, cfg.beta(it)), design.theta, cfg
    )
    final = replace(design, theta=theta)
    lens = lensmap.forward(final, cfg.beta(cfg.iterations - 1))
    if p_opt is None:  # zero iterations: the field of the initial design
        p_opt = prepared.field_only(lens.occupancy)
    return DesignResult(final, lensmap.binarize(lens), report, p_opt)


def gradcheck(fn, point: np.ndarray, step: float, n_coords: int = 32,
              seed: int | None = 0) -> float:
    """Central finite differences vs. the analytic gradient.

    `fn(x)` must return (loss, gradient). The relative error of each
    sampled coordinate is measured against the larger of the two values,
    floored at 1e-6 of the overall gradient scale so that negligible
    coordinates do not dominate. Returns the maximum relative error, NaN
    if any sampled coordinate's error is NaN.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if n_coords < 1:
        raise ValueError("n_coords must be at least 1")
    point = np.asarray(point, dtype=np.float64)
    _, grad = fn(point)
    grad = np.asarray(grad)
    if grad.shape != point.shape:
        raise ValueError("gradient shape does not match the point")

    rng = np.random.default_rng(seed)
    flat = point.ravel().copy()
    n = min(n_coords, flat.size)
    coords = rng.choice(flat.size, size=n, replace=False)
    gmax = np.max(np.abs(grad)) if np.any(grad) else 1.0

    worst = 0.0
    for idx in coords:
        x = flat.copy()
        x[idx] += step
        lp, _ = fn(x.reshape(point.shape))
        x[idx] -= 2.0 * step
        lm, _ = fn(x.reshape(point.shape))
        fd = (lp - lm) / (2.0 * step)
        ad = grad.ravel()[idx]
        denom = max(abs(ad), abs(fd), 1e-6 * gmax, 1e-300)
        worst = float(np.maximum(worst, abs(ad - fd) / denom))  # keeps a NaN
    return worst
