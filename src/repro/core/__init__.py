"""MBIR core: priors, the ICD voxel update, and the three reconstruction drivers."""

from repro.core.convergence import RMSE_CONVERGED_HU, IterationRecord, RunHistory, rmse_hu
from repro.core.cost import data_cost, map_cost, prior_cost
from repro.core.gpu_icd import (
    GPUExecutionTrace,
    GPUICDParams,
    GPUICDResult,
    KernelTrace,
    gpu_icd_reconstruct,
)
from repro.core.icd import (
    ICDResult,
    default_prior,
    golden_reconstruction,
    icd_reconstruct,
    initial_image,
)
from repro.core.kernels import run_sv_visit, run_sweep
from repro.core.prior import Neighborhood, Prior, QGGMRFPrior, QuadraticPrior, shared_neighborhood
from repro.core.psv_icd import (
    PSVExecutionTrace,
    PSVICDResult,
    PSVWaveTrace,
    psv_icd_reconstruct,
)
from repro.core.selection import SVSelector
from repro.core.supervoxel import SuperVoxel, SuperVoxelGrid, shared_grid
from repro.core.sv_engine import SVUpdateStats, process_supervoxel
from repro.core.voxel_update import (
    SliceUpdater,
    compute_thetas,
    solve_surrogate,
    solve_surrogate_scalar,
)

__all__ = [
    "run_sweep",
    "run_sv_visit",
    "shared_neighborhood",
    "solve_surrogate_scalar",
    "RMSE_CONVERGED_HU",
    "IterationRecord",
    "RunHistory",
    "rmse_hu",
    "data_cost",
    "prior_cost",
    "map_cost",
    "Prior",
    "QuadraticPrior",
    "QGGMRFPrior",
    "Neighborhood",
    "SliceUpdater",
    "compute_thetas",
    "solve_surrogate",
    "ICDResult",
    "icd_reconstruct",
    "golden_reconstruction",
    "default_prior",
    "initial_image",
    "SuperVoxel",
    "SuperVoxelGrid",
    "shared_grid",
    "SVSelector",
    "SVUpdateStats",
    "process_supervoxel",
    "PSVICDResult",
    "PSVExecutionTrace",
    "PSVWaveTrace",
    "psv_icd_reconstruct",
    "GPUICDParams",
    "GPUICDResult",
    "GPUExecutionTrace",
    "KernelTrace",
    "gpu_icd_reconstruct",
]
