"""Quantitative field evaluation, thermal post-processing, fabrication errors.

The bioheat model splits the medium into bone (sound speed at or above
BONE_SPEED_THRESHOLD) and soft tissue, each with a fixed conductivity and
heat capacity; `ThermalConfig` holds only the pulse protocol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .medium import AcousticMedium
from .lensmap import LensVolume, binarize
from .solver import ComplexField

PSNR_CAP_DB = 300.0
FOCUS_THRESHOLD_DB = -6.0  # focal-region level relative to the global peak

# per-tissue thermal properties of the bioheat model
K_BONE = 0.32                 # W/(m C)
HEAT_CAPACITY_BONE = 1313.0   # J/(kg C)
K_SOFT = 0.51
HEAT_CAPACITY_SOFT = 3630.0
BONE_SPEED_THRESHOLD = 2000.0  # m/s, classifies voxels as bone


@dataclass
class FocusMetrics:
    label: int
    peak_pressure: float
    peak_index: tuple
    fwhm_lateral_x: float
    fwhm_lateral_y: float
    fwhm_axial: float
    volume_m3: float
    voxel_count: int


@dataclass
class FocalReport:
    foci: list
    leakage_ratio: float
    uniformity: float
    n_components: int
    psnr_cross_domain: float | None = None

    def to_json(self, path=None) -> str:
        payload = {
            "n_components": self.n_components,
            "leakage_ratio": self.leakage_ratio,
            "uniformity": self.uniformity,
            "psnr_cross_domain": self.psnr_cross_domain,
            "foci": [asdict(f) for f in self.foci],
        }
        text = json.dumps(payload, indent=2, default=lambda o: list(o))
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def cross_domain_psnr(p_opt, p_fab) -> float:
    """PSNR (dB) between peak-normalized amplitude volumes.

    The first argument is the reference; identical fields report the
    cap sentinel instead of infinity.
    """
    a = np.abs(p_opt.values if isinstance(p_opt, ComplexField) else p_opt)
    b = np.abs(p_fab.values if isinstance(p_fab, ComplexField) else p_fab)
    if a.shape != b.shape:
        raise ValueError("fields must share a grid")
    peak = a.max()
    if peak == 0.0:
        raise ValueError("reference field is identically zero")
    a = a / peak
    if b.max() > 0:
        b = b / b.max()
    mse = np.mean((a - b) ** 2)
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB))


def _amplitude(p) -> np.ndarray:
    """|p| in C order. A field's values are the (nx, ny, nz) view of
    slice-major storage: over |p| in that layout every flat index, take
    and mask would copy the grid first."""
    return np.abs(p.values if isinstance(p, ComplexField) else p, order="C")


def _component_labels(idx: np.ndarray, shape: tuple) -> np.ndarray:
    """6-connected component of each voxel of a sorted flat-index set.

    Returns, for each position in idx, the position of the smallest voxel
    of its component. Neighbour pairs are found along each axis by
    searchsorted; the roots of every pair's trees hook onto the smaller
    one and pointer jumping flattens the trees, until no pair joins two
    trees. Work and memory scale with idx.size, not with the grid.
    """
    coords = np.unravel_index(idx, shape)
    pairs_a, pairs_b = [], []
    stride = 1
    for axis in reversed(range(len(shape))):
        a = np.flatnonzero(coords[axis] < shape[axis] - 1)
        nb = idx[a] + stride
        b = np.minimum(np.searchsorted(idx, nb), idx.size - 1)
        hit = idx[b] == nb
        pairs_a.append(a[hit])
        pairs_b.append(b[hit])
        stride *= shape[axis]
    a, b = np.concatenate(pairs_a), np.concatenate(pairs_b)

    label = np.arange(idx.size)
    while a.size:
        la, lb = label[a], label[b]
        joins = la != lb  # pairs already in one tree stay so
        a, b, la, lb = a[joins], b[joins], la[joins], lb[joins]
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return label


def segment_foci(p, seeds, *, amp=None) -> list[np.ndarray]:
    """-6 dB connected regions around each seed.

    The amplitude volume is thresholded relative to its global peak and
    the voxels above it are split into 6-connected components
    (`_component_labels`, which works on their flat indices only); each
    seed gets the component that contains it. Seeds falling below
    threshold yield an empty mask, and seeds in one component get equal
    masks. Returns one boolean mask per seed; the result is invariant to
    global field scaling. amp is |p|, passed by a caller that has it
    already (C-ordered, as `_amplitude` makes it, or any layout).
    """
    if amp is None:
        amp = _amplitude(p)
    shape = amp.shape
    thr = amp.max() * 10.0 ** (FOCUS_THRESHOLD_DB / 20.0)
    idx = np.flatnonzero(amp >= thr)
    label = _component_labels(idx, shape)

    masks = []
    for seed in seeds:
        seed = tuple(int(v) for v in seed)
        if any(not 0 <= s < n for s, n in zip(seed, shape)):
            raise ValueError(f"seed {seed} is outside the grid")
        flat = np.ravel_multi_index(seed, shape)
        pos = np.searchsorted(idx, flat)
        mask = np.zeros(shape, dtype=bool)
        if pos < idx.size and idx[pos] == flat:
            mask.flat[idx[label == label[pos]]] = True
        masks.append(mask)
    return masks


def _fwhm_1d(profile: np.ndarray, spacing: float) -> float:
    """Width at half the profile maximum, linearly interpolated."""
    peak_idx = int(np.argmax(profile))
    half = profile[peak_idx] / 2.0
    if profile[peak_idx] == 0:
        return 0.0

    def crossing(direction):
        i = peak_idx
        while 0 <= i + direction < len(profile) and profile[i + direction] >= half:
            i += direction
        j = i + direction
        if j < 0 or j >= len(profile):
            return abs(i - peak_idx)  # truncated at the domain edge
        frac = (profile[i] - half) / (profile[i] - profile[j])
        return abs(i - peak_idx) + frac

    return float((crossing(-1) + crossing(+1)) * spacing)


def focal_metrics(p: ComplexField, segments: list[np.ndarray], *,
                  amp=None) -> FocalReport:
    """Per-focus size/pressure metrics and global confinement metrics.

    leakage = mean amplitude outside all segments / mean inside;
    uniformity = min/max of per-focus peak intensities. amp is |p|, passed
    by a caller that has it already (C-ordered, as `_amplitude` makes it,
    or any layout). The means are taken over the segments' flat indices:
    the inside sum over their union, the outside one as the grid's total
    minus it, both summed in float64.
    """
    if amp is None:
        amp = _amplitude(p)
    grid = p.grid

    foci = []
    peaks = []
    inside = []
    for label, mask in enumerate(segments):
        idx = np.flatnonzero(mask)
        if not idx.size:
            continue
        inside.append(idx)
        # first maximum in C order, as argmax over the whole grid finds it
        peak_idx = tuple(int(v) for v in np.unravel_index(
            idx[np.argmax(amp.take(idx))], amp.shape))
        peak = amp[peak_idx]
        peaks.append(peak**2)
        px, py, pz = peak_idx
        foci.append(
            FocusMetrics(
                label=label,
                peak_pressure=float(peak),
                peak_index=peak_idx,
                fwhm_lateral_x=_fwhm_1d(amp[:, py, pz], grid.dx),
                fwhm_lateral_y=_fwhm_1d(amp[px, :, pz], grid.dy),
                fwhm_axial=_fwhm_1d(amp[px, py, :], grid.dz),
                volume_m3=float(idx.size * grid.voxel_volume),
                voxel_count=idx.size,
            )
        )

    if not foci:
        raise ValueError("no non-empty segments supplied")
    # their union (np.unique would import numpy.ma, 15 ms, on first use)
    inside = np.sort(np.concatenate(inside))
    inside = inside[np.append(True, inside[1:] != inside[:-1])]
    inside_sum = amp.take(inside).sum(dtype=np.float64)
    inside_mean = inside_sum / inside.size
    outside = amp.size - inside.size
    outside_mean = ((amp.sum(dtype=np.float64) - inside_sum) / outside
                    if outside else 0.0)
    leakage = float(outside_mean / inside_mean) if inside_mean > 0 else np.inf
    uniformity = float(min(peaks) / max(peaks))
    return FocalReport(foci, leakage, uniformity, n_components=len(foci))


def focal_report(p: ComplexField, seeds) -> FocalReport:
    """Segment the foci around `seeds` and measure them.

    Returns an empty report (no foci, leakage and uniformity None) when
    no seed reaches the -6 dB level. |p| is computed once, in C order
    (`_amplitude`), for both steps.
    """
    amp = _amplitude(p)
    segments = segment_foci(p, seeds, amp=amp)
    if not any(m.any() for m in segments):
        return FocalReport([], None, None, 0)
    return focal_metrics(p, segments, amp=amp)


@dataclass
class ThermalConfig:
    """Pulsed heating/cooling protocol."""

    # each cycle heats at peak pressure for heat_time, then cools
    heat_time: float = field(default=10e-3, metadata={"unit": "s"})
    cool_time: float = field(default=190e-3, metadata={"unit": "s"})
    n_cycles: int = 5
    reference_peak_pressure: float = field(default=1e6,
                                           metadata={"unit": "Pa"})
    perfusion_rate: float = 0.0   # 1/s, hook only; ex vivo default 0

    def __post_init__(self):
        for name in ("heat_time", "cool_time", "reference_peak_pressure"):
            if not getattr(self, name) > 0:     # NaN fails too
                raise ValueError(f"{name} must be positive")
        if not self.perfusion_rate >= 0:      # NaN fails too
            raise ValueError("perfusion_rate must be non-negative")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be at least 1")


def bioheat_simulate(
    p: ComplexField,
    medium: AcousticMedium,
    cfg: ThermalConfig,
    normalize_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Temperature rise from pulsed absorption heating (explicit FD).

    The volumetric source during heat phases is Q = a_np * |P|^2 / (rho*c)
    with a_np the attenuation in Np/m; conductivity and heat capacity are
    the bone or soft-tissue constants of each voxel. Boundaries are insulated
    (zero flux); perfusion defaults to zero. When normalize_mask is
    given, the field is scaled so its peak amplitude inside the mask
    equals the reference peak pressure. Returns dT in degrees C.
    """
    grid = medium.grid
    amp = p.amplitude()
    if normalize_mask is not None:
        peak = amp[normalize_mask].max()
        if peak == 0:
            raise ValueError("field is zero inside the normalization mask")
        amp = amp * (cfg.reference_peak_pressure / peak)

    bone = medium.c >= BONE_SPEED_THRESHOLD
    k = np.where(bone, K_BONE, K_SOFT)
    heat_cap = np.where(bone, HEAT_CAPACITY_BONE, HEAT_CAPACITY_SOFT)
    rho = medium.rho
    rho_cap = rho * heat_cap

    att_np = medium.attenuation_np_per_m()
    q = att_np * amp**2 / (rho * medium.c)

    dt_max = float(
        np.min(rho_cap)
        * min(grid.dx, grid.dy, grid.dz) ** 2
        / (6.0 * np.max(k))
    )

    T = np.zeros(grid.shape)
    # conservative flux form: arithmetic-mean conductivity on the faces
    # between neighbours along each axis, with that axis's 1/d^2
    spacing = (grid.dx, grid.dy, grid.dz)
    faces = [(0.5 * (np.take(k, range(1, n), axis=axis)
                     + np.take(k, range(n - 1), axis=axis)),
              1.0 / spacing[axis] ** 2) for axis, n in enumerate(k.shape)]

    def diffuse(T, dt, heating):
        # net inflow per voxel; the zero flux padded on at both ends of
        # each axis makes the walls insulated
        inflow = sum(np.diff(k_face * np.diff(T, axis=axis) * inv, axis=axis,
                             prepend=0.0, append=0.0)
                     for axis, (k_face, inv) in enumerate(faces))
        return T + dt * (inflow + (q if heating else 0.0)
                         - cfg.perfusion_rate * rho_cap * T) / rho_cap

    for _ in range(cfg.n_cycles):
        for phase_len, heating in ((cfg.heat_time, True), (cfg.cool_time, False)):
            n_steps = max(1, int(np.ceil(phase_len / (0.9 * dt_max))))
            dt = phase_len / n_steps
            if dt > dt_max:
                raise RuntimeError("explicit step exceeds the stability limit")
            for _ in range(n_steps):
                T = diffuse(T, dt, heating)
    return T


def perturb_lens(
    lens: LensVolume, sigma_thickness: float, dz: float, seed=None
) -> LensVolume:
    """Fabrication-error model: Gaussian thickness noise, clamp, re-binarize.

    sigma_thickness is in meters; dz converts it to voxels.
    """
    if sigma_thickness < 0:
        raise ValueError("sigma must be non-negative")
    if sigma_thickness == 0:
        return binarize(lens)
    rng = np.random.default_rng(seed)
    noisy = lens.thickness_map + rng.normal(
        scale=sigma_thickness / dz, size=lens.thickness_map.shape
    )
    noisy = np.clip(noisy, lens.v_min, lens.v_max)
    return binarize(LensVolume(lens.occupancy, noisy, lens.v_min, lens.v_max))
