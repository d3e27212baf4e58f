"""Brownian-bridge Gaussian processes as a soft physics prior for the
Poisson equation on the unit cube."""

import os

# numpy's OpenBLAS lets idle workers busy-wait 2^28 cycles (~0.1 s) after
# every threaded call; 2^4, the minimum, lets them sleep.  OpenBLAS reads this
# once, on load, so it must precede numpy; a set value wins.  Threads and
# artifacts are unchanged.  2 vCPUs: a 0.3 s sleep after a GEMM and a
# Cholesky burned 0.24 s, now 0.0001 s.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .errors import (
    BridgeGpError,
    ConfigError,
    DomainError,
    ExpressionError,
    NumericalError,
    OrderMismatchError,
    ResonanceError,
    ResourceLimitError,
    SingularSystemError,
)
from .expressions import CompiledExpression, compile_expression
from .harness import (
    DesignMetrics,
    StudyReport,
    convergence_study,
    design_metrics,
    fit_loglog_slope,
    model_error_study,
)
from .kernels import (
    KernelSpec,
    default_order,
    eigenvalues,
    kernel_matrix,
    rkhs_sq_norm,
)
from .pde import (
    ClosedFormSource,
    ExpressionSourceFamily,
    LinearSourceFamily,
    PdeSolution,
    SourceModel,
    SpectralSource,
    energy,
    energy_rkhs_shift,
    solve,
    source_energy_offset,
    zero_source,
)
from .regression import (
    FLAT,
    JEFFREYS,
    BetaMapResult,
    CoefficientObservations,
    Dataset,
    HyperPrior,
    InversionResult,
    KrrSolution,
    PosteriorModel,
    beta_gradient,
    beta_map,
    condition,
    fixed,
    invert_source,
    krr_solve,
    log_marginal,
)
from .sampling import (
    NestedReport,
    PriorSampler,
    nested_consistency,
    posterior_value_blocks,
    sample_coefficients,
    value_blocks,
)
from .spectral import (
    QuadratureRule,
    SpectralField,
    basis_blocks,
    basis_field,
    basis_matrix,
    default_rule,
    dirichlet_eigenvalues,
    evaluate,
    gauss_legendre_rule,
    index_array,
    project,
    synthesis_tables,
    synthesize,
    zero_field,
)

__version__ = "0.1.0"
