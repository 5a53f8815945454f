"""Robustness and heating analysis of a finished lens design.

Prints the lens of a quick single-focus optimization (its binarized last
iterate, whose design chain carries the printer's blur) and asks two
questions a fabrication engineer would: how sensitive is the focus to
per-column thickness errors of the printer, and how hot does the medium
get under a pulsed exposure normalized to 1 MPa at the focus?

Run:  python3 demos/robustness_and_thermal.py
"""

from pathlib import Path

import numpy as np

from sonolens import (
    ThermalConfig,
    bioheat_simulate,
    cli,
    embed_lens,
    focal_metrics,
    optimize_lens_geometry,
    perturb_lens,
    prepare,
    segment_foci,
)

# the problem of `sonolens design --config demos/single_focus_water.cfg`,
# read through the CLI's builders and run in complex64 as the CLI runs it
cfg = cli.load_config(Path(__file__).with_name("single_focus_water.cfg"))
grid = cli.build_grid(cfg)
medium = cli.build_medium(cfg, grid)
target = cli.build_target(cfg, grid)
seed_voxel = target.focus_centers[0]
lens_cfg, design = cli.build_lens_params(cfg, grid, cfg.get("seed", 0))
# one prepared medium for the design, its fabrication and the noise
# ensemble: each run relaxes a lens into the same slab
prepared = prepare(cli.build_source(cfg, grid), medium,
                   cli.build_config(cfg, "solver"), lens_cfg.material,
                   lens_cfg.z_offset, design.n_v, np.complex64)
result = optimize_lens_geometry(prepared, target, design,
                                cli.build_config(cfg, "optim"))
lens = result.lens  # the print: no filter follows the design chain's
field = prepared.field_only(lens.occupancy)

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
embedded = embed_lens(medium, lens.occupancy, lens_cfg.material)
segments = segment_foci(field, [seed_voxel])
report = focal_metrics(field, segments)
print(f"focus: peak index {report.foci[0].peak_index}, "
      f"lateral FWHM {report.foci[0].fwhm_lateral_x * 1e6:.0f} um, "
      f"leakage {report.leakage_ratio:.3f}")

tcfg = ThermalConfig()  # 5 x (10 ms heat / 190 ms cool), 1 MPa reference
dT = bioheat_simulate(field, embedded, tcfg, normalize_mask=target.omega)
hot = tuple(map(int, np.unravel_index(np.argmax(dT), dT.shape)))
print(f"max temperature rise after {tcfg.n_cycles} pulses: {dT.max():.4f} C "
      f"(at voxel {hot})")
