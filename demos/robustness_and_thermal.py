"""Robustness and heating analysis of a finished lens design.

Fabricates the lens of a quick single-focus optimization (binarize and
printer filter, via `fabricate_and_simulate`) and asks two questions a fabrication engineer would: how sensitive is the focus to
per-column thickness errors of the printer, and how hot does the medium
get under a pulsed exposure normalized to 1 MPa at the focus?

Run:  python3 demos/robustness_and_thermal.py
"""

import numpy as np

from sonolens import (
    BetaSchedule,
    DesignField,
    FORM_CLEAR,
    GridSpec,
    OptimConfig,
    SolverConfig,
    SourceSpec,
    TargetSpec,
    ThermalConfig,
    WATER,
    bioheat_simulate,
    embed_lens,
    fabricate_and_simulate,
    focal_metrics,
    make_homogeneous,
    optimize_lens_geometry,
    perturb_lens,
    prepare,
    segment_foci,
)

grid = GridSpec(48, 48, 64, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
medium = make_homogeneous(grid, WATER)
src = SourceSpec.disk(grid, 5.5e-3)
seed_voxel = (24, 24, 40)
target = TargetSpec.from_spheres(
    grid, [(24 * grid.dx, 24 * grid.dy, 40 * grid.dz)], 1.1 * grid.dx
)
ocfg = OptimConfig(iterations=80, beta_schedule=BetaSchedule(1.0, 20.0, 80))
design = DesignField.random(grid.nx, grid.ny, v_max=1.9e-3 / grid.dz, seed=0)
# one prepared medium for the design, its fabrication and the noise
# ensemble: each run relaxes a lens into the same slab
prepared = prepare(src, medium, SolverConfig(reflection_order=0), FORM_CLEAR,
                   0, design.n_v)
result = optimize_lens_geometry(prepared, target, design, ocfg)
field, lens = fabricate_and_simulate(result.lens, prepared)

# --- thickness-noise ensemble ---------------------------------------------
sigma = 50e-6  # printer thickness error, one sigma, meters
peaks = []
for i in range(20):
    noisy = perturb_lens(lens, sigma, grid.dz, seed=i)
    noisy_field = prepared.field_only(noisy.occupancy)
    peaks.append(float(np.abs(noisy_field.values).max()))
peaks = np.asarray(peaks)
print(f"peak pressure under {sigma * 1e6:.0f} um thickness noise "
      f"(20 seeds): {peaks.mean():.3f} +/- {peaks.std():.3f} "
      f"(min {peaks.min():.3f})")

# --- pulsed heating at 1 MPa focal pressure -------------------------------
# bioheat needs the medium itself, so the lens is embedded here
embedded = embed_lens(medium, lens.occupancy, FORM_CLEAR)
segments = segment_foci(field, [seed_voxel])
report = focal_metrics(field, segments)
print(f"focus: peak index {report.foci[0].peak_index}, "
      f"lateral FWHM {report.foci[0].fwhm_lateral_x * 1e6:.0f} um, "
      f"leakage {report.leakage_ratio:.3f}")

tcfg = ThermalConfig()  # 5 x (10 ms heat / 190 ms cool), 1 MPa reference
dT = bioheat_simulate(field, embedded, tcfg, normalize_mask=target.omega)
print(f"max temperature rise after {tcfg.n_cycles} pulses: {dT.max():.4f} C "
      f"(at voxel {np.unravel_index(int(np.argmax(dT)), dT.shape)})")
