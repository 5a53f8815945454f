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

Run:  python3 demos/compare_methods.py
"""

import numpy as np

from sonolens import (
    DesignField,
    FORM_CLEAR,
    GridSpec,
    OptimConfig,
    SolverConfig,
    SourceSpec,
    TargetSpec,
    WATER,
    cross_domain_psnr,
    fabricate_and_simulate,
    make_homogeneous,
    optimize_lens_geometry,
    optimize_phase_map,
    prepare,
    time_reversal,
)
from sonolens.baselines import phase_plane

grid = GridSpec(48, 48, 64, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
medium = make_homogeneous(grid, WATER)
src = SourceSpec.disk(grid, 5.5e-3)
center = (24 * grid.dx, 24 * grid.dy, 40 * grid.dz)
target = TargetSpec.from_spheres(grid, [center], 1.1 * grid.dx)
solver = SolverConfig(reflection_order=0)
iters = 80
ocfg = OptimConfig(iterations=iters)  # beta 1 -> 20 over the iterations
design = DesignField.random(grid.nx, grid.ny, v_max=1.9e-3 / grid.dz, seed=0)
# the 16-slice lens slab (2.0 mm) of the design, prepared once
prepared = prepare(src, medium, solver, FORM_CLEAR, 0, design.n_v)

print(f"grid {grid.shape}, focus at {tuple(round(c * 1e3, 2) for c in center)} mm")

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
tr = time_reversal(prepared, [(24, 24, 40)])  # one run marched back
p_opt = prepared.field_only(sources={0: phase_plane(prepared, tr.phi)})
p_fab, _ = fabricate_and_simulate(tr, prepared, design)
psnr_tr = cross_domain_psnr(p_opt, p_fab)

print(f"cross-domain PSNR  thickness     : {psnr_thickness:6.2f} dB")
print(f"cross-domain PSNR  phase         : {psnr_phase:6.2f} dB")
print(f"cross-domain PSNR  time_reversal : {psnr_tr:6.2f} dB")
peak = np.unravel_index(int(np.argmax(np.abs(p_fab.values))), grid.shape)
print(f"time-reversal fabrication-domain peak at voxel {peak}")
