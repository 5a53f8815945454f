"""Verify the hand-written adjoint gradients against finite differences.

The whole design chain -- 2D parameter map, sigmoid thickness mapping,
Gaussian smoothing, soft voxelization, lens embedding, split-step
propagation with reflections, loss -- has a manually derived reverse-mode
gradient. This script compares the gradient of `lens_objective`, the
objective the design loop descends, with central finite differences at
random coordinates, with and without interface reflections. It exits with
status 1 if an error exceeds its bound (acceptance criterion 01: 1e-5 at
reflection order 0, 1e-3 at order 4).

Run:  python3 demos/adjoint_gradient_check.py
"""

import sys

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
    gradcheck,
    lens_objective,
    make_homogeneous,
    prepare,
)

BOUNDS = {0: 1e-5, 4: 1e-3}

grid = GridSpec(16, 16, 24, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
medium = make_homogeneous(grid, WATER)
src = SourceSpec.full_plane(grid)
target = TargetSpec.from_spheres(
    grid, [(8 * grid.dx, 8 * grid.dy, 18 * grid.dz)], 1.5 * grid.dx
)
theta0 = np.random.default_rng(0).uniform(-1, 1, size=(grid.nx, grid.ny))
design = DesignField(theta0, v_max=16.0)

failed = False
for order, bound in BOUNDS.items():
    prepared = prepare(src, medium, SolverConfig(reflection_order=order),
                       FORM_CLEAR, 0, design.n_v)
    objective = lens_objective(prepared, target, design, OptimConfig())
    err = gradcheck(lambda th: objective(th, 5.0)[:2], theta0, step=1e-4,
                    n_coords=32, seed=1)
    ok = err < bound
    failed |= not ok
    print(f"reflection order {order}: max relative error {err:.3e} "
          f"(bound {bound:.0e}) {'ok' if ok else 'FAIL'}")
sys.exit(1 if failed else 0)
