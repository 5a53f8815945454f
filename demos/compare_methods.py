"""Compare the three design methods on the same single-focus task.

The thickness method optimizes the lens geometry directly inside the wave
simulation, printer blur included, so its printed lens is the binarized
lens of its last iterate and its field survives fabrication almost
unchanged. The phase methods design an idealized source phase map first
and convert it to a thickness profile afterwards (binarization, printer
filter), which costs fidelity. The cross-domain PSNR quantifies that
gap: higher is better. All three methods run on one prepared medium with
one lens slab and one solver config: the design loops, the phase
methods' optimization-domain fields (the slab's base medium, driven by
`phase_plane`) and every printed lens, which the phase designs print
within the design's bounds and at its printer cutoff.

The problem is the one `sonolens design` solves on
`demos/single_focus_water.cfg`, read through the CLI's builders and run in
complex64 as the CLI runs it, so the thickness line is that run's
`report.json` PSNR. The script exits 1 unless the thickness line beats
both phase lines, the ordering the paper reports.

Run:  python3 demos/compare_methods.py
"""

import sys
from pathlib import Path

import numpy as np

from sonolens import (
    cli,
    cross_domain_psnr,
    fabricate_and_simulate,
    optimize_lens_geometry,
    optimize_phase_map,
    prepare,
    time_reversal,
)
from sonolens.baselines import phase_plane

cfg = cli.load_config(Path(__file__).with_name("single_focus_water.cfg"))
grid = cli.build_grid(cfg)
target = cli.build_target(cfg, grid)
ocfg = cli.build_config(cfg, "optim")
lens, design = cli.build_lens_params(cfg, grid, cfg.get("seed", 0))
# the design's lens slab, prepared once
prepared = prepare(cli.build_source(cfg, grid), cli.build_medium(cfg, grid),
                   cli.build_config(cfg, "solver"), lens.material,
                   lens.z_offset, design.n_v, np.complex64)

center = target.focus_centers[0]
print(f"grid {grid.shape}, focus at voxel {center}, "
      f"lens v_min {design.v_min:g} / v_max {design.v_max:g} voxels")

# --- thickness: optimize the lens geometry directly ----------------------
result = optimize_lens_geometry(prepared, target, design, ocfg)
p_fab = prepared.field_only(result.lens.occupancy)  # the print, as designed
psnr_thickness = cross_domain_psnr(result.field_optimization, p_fab)

# --- phase: gradient phase retrieval, then convert to thickness ----------
phase, report = optimize_phase_map(prepared, target, ocfg)
p_opt = prepared.field_only(sources={0: phase_plane(prepared, phase.phi)})
p_fab, _ = fabricate_and_simulate(phase, prepared, design)
psnr_phase = cross_domain_psnr(p_opt, p_fab)

# --- time reversal: back-propagate from the focus, then convert ----------
tr = time_reversal(prepared, target.focus_centers)  # one run marched back
p_opt = prepared.field_only(sources={0: phase_plane(prepared, tr.phi)})
p_fab, _ = fabricate_and_simulate(tr, prepared, design)
psnr_tr = cross_domain_psnr(p_opt, p_fab)

print(f"cross-domain PSNR  thickness     : {psnr_thickness:6.2f} dB")
print(f"cross-domain PSNR  phase         : {psnr_phase:6.2f} dB")
print(f"cross-domain PSNR  time_reversal : {psnr_tr:6.2f} dB")
peak = np.unravel_index(int(np.argmax(np.abs(p_fab.values))), grid.shape)
print(f"time-reversal fabrication-domain peak at voxel "
      f"{tuple(map(int, peak))}")
ok = psnr_thickness > max(psnr_phase, psnr_tr)
print(f"thickness above both phase methods: {'ok' if ok else 'FAIL'}")
sys.exit(0 if ok else 1)
