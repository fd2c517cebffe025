"""The paper's contribution: memory-optimized, approximate-computing ALS."""

from .als import ALSModel, EpochBreakdown
from .ccd import CCDConfig, CCDModel, ccd_epoch_seconds
from .cg import CGResult, cg_solve_batched
from .cg_backends import (
    CGKernelBackend,
    backend_names,
    get_backend,
    register_backend,
)
from .config import ALSConfig, CGConfig, Precision, ReadScheme, SolverKind
from .direct import cholesky_solve_batched, lu_solve_batched
from .hermitian import hermitian_and_bias, hermitian_rows
from .hybrid import AlgorithmChoice, HybridALSSGD, recommend_algorithm
from .implicit import ImplicitALSConfig, ImplicitALSModel, implicit_loss
from .kernels import (
    bias_spec,
    cg_iteration_spec,
    hermitian_resources,
    hermitian_spec,
    lu_solver_seconds,
)
from .multi_gpu import MultiGpuALS
from .precision import max_abs_error, quantize, storage_bytes
from .tensorcore import TensorCoreProjection, project_tensor_core_epoch
from .tuning import TuneCandidate, TuneResult, tune_hermitian

__all__ = [
    "ALSConfig",
    "AlgorithmChoice",
    "CCDConfig",
    "CCDModel",
    "HybridALSSGD",
    "ccd_epoch_seconds",
    "recommend_algorithm",
    "TensorCoreProjection",
    "TuneCandidate",
    "TuneResult",
    "project_tensor_core_epoch",
    "tune_hermitian",
    "ALSModel",
    "CGConfig",
    "CGKernelBackend",
    "CGResult",
    "backend_names",
    "get_backend",
    "register_backend",
    "EpochBreakdown",
    "ImplicitALSConfig",
    "ImplicitALSModel",
    "MultiGpuALS",
    "Precision",
    "ReadScheme",
    "SolverKind",
    "bias_spec",
    "cg_iteration_spec",
    "cg_solve_batched",
    "cholesky_solve_batched",
    "hermitian_and_bias",
    "hermitian_resources",
    "hermitian_rows",
    "hermitian_spec",
    "implicit_loss",
    "lu_solve_batched",
    "lu_solver_seconds",
    "max_abs_error",
    "quantize",
    "storage_bytes",
]
