"""Differentiable design of thickness-only acoustic hologram lenses.

The package covers the full pipeline: source planes, heterogeneous
voxel media, a split-step spectral wave solver with exact adjoint
gradients, a smooth 2D-design-to-3D-lens mapping, the loss stack, the
lens design objective and the one Adam descent loop that optimize
lens geometry end to end, phase-map baselines (gradient phase retrieval
on the same loop, time reversal), and the evaluation suite (focal
metrics, cross-domain PSNR, bioheat thermal simulation, the
fabrication-error model). The robustness sweeps over materials and
fabrication errors run through `sonolens sweep`.
"""

from types import ModuleType as _ModuleType

from .grid import (
    AGILUS30,
    BONE,
    FORM_CLEAR,
    NEPER_PER_DB,
    VEROCLEAR,
    WATER,
    GridSpec,
    MaterialProperties,
    disk_source,
    full_plane_source,
)
from .medium import (
    AcousticMedium,
    HUCalibration,
    embed_lens,
    ingest_hu_volume,
    make_homogeneous,
    make_skull_phantom,
)
from .lensmap import (
    DesignField,
    LensVolume,
    binarize,
    fabrication_filter,
)
from .solver import (
    ComplexField,
    SolverConfig,
    backproject,
    PreparedMedium,
    prepare,
    propagate,
    propagate_adjoint,
    propagate_with_lens,
)
from .optim import (
    Adam,
    DesignResult,
    LossReport,
    OptimConfig,
    TargetSpec,
    gradcheck,
    lens_objective,
    loss_and_gradient,
    optimize_lens_geometry,
)
from .baselines import (
    PhaseMap,
    fabricate_and_simulate,
    full_cycle_thickness,
    optimize_phase_map,
    phase_to_thickness,
    time_reversal,
)
from .analysis import (
    PSNR_CAP_DB,
    FocalReport,
    FocusMetrics,
    ThermalConfig,
    bioheat_simulate,
    cross_domain_psnr,
    focal_metrics,
    perturb_lens,
    focal_report,
    segment_foci,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are not exports
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
