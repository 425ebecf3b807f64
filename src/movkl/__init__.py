"""Multiple operator-valued kernel learning for curve-to-curve regression.

Functional ridge regression with functional responses: curves live on
quadrature grids, kernels take operator values K(w, z) = G(w, z) T, and a
weighted combination of such kernels is learned jointly with the dual
solution by block-coordinate descent.
"""

from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateModelError,
    DimensionError,
    MovklError,
    SolverError,
)
from .funcspace import (
    Curve,
    CurveVec,
    Grid,
    l2_inner,
    l2_norm,
    l2_norm_sq,
    vec_inner,
    vec_norm,
    vec_norm_sq,
)
from .kernels import (
    BlockGram,
    GaussianKernel,
    ScaledKernel,
    block_trace_normalized,
    trace_normalized,
    IdentityOperator,
    IntegralOperator,
    KernelStack,
    MultiplicationOperator,
    OvKernelTerm,
    PolynomialKernel,
    assemble_gram,
    median_pairwise_distance,
)
from .linsolve import (
    SolveConfig,
    SolveReport,
    dense_solve,
    pcg_solve,
)
from .learn import (
    FitConfig,
    MovklModel,
    krr_fit,
    load_model,
    movkl_fit,
    predict,
    predict_many,
    save_model,
    weight_update,
)
from .evaluation import CvSpec, lcr, loo_cv, rsse
from .data import (
    CurveDataset,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    stacked_channel_grid,
)

__version__ = "0.1.0"

__all__ = [
    "MovklError", "DimensionError", "CapacityError", "ConfigError",
    "DataError", "SolverError", "DegenerateModelError",
    "Grid", "Curve", "CurveVec",
    "l2_inner", "l2_norm", "l2_norm_sq", "vec_inner", "vec_norm", "vec_norm_sq",
    "GaussianKernel", "PolynomialKernel", "ScaledKernel",
    "trace_normalized", "block_trace_normalized",
    "IdentityOperator", "MultiplicationOperator", "IntegralOperator",
    "OvKernelTerm", "KernelStack", "BlockGram",
    "assemble_gram", "median_pairwise_distance",
    "SolveConfig", "SolveReport",
    "dense_solve", "pcg_solve",
    "FitConfig", "MovklModel",
    "krr_fit", "movkl_fit", "weight_update",
    "predict", "predict_many", "save_model", "load_model",
    "CvSpec", "rsse", "lcr", "loo_cv",
    "CurveDataset", "SynthSpec", "generate_synthetic",
    "save_dataset", "load_dataset", "stacked_channel_grid",
]
