"""Brownian-bridge Gaussian processes as a soft physics prior for the
Poisson equation on the unit cube."""

import os

# Two OpenBLAS defaults.  OpenBLAS reads its variables once, when numpy loads
# it, so these do nothing in a process that imported numpy first, and a set
# variable wins.  One thread unless a count is set in any of the three
# variables OpenBLAS reads: at desk scale a second thread's hand-offs cost
# more than it gives (2 vCPUs: an `eigh` at n = 500 took 0.17-0.19 s CPU on
# two threads, 0.03 s on one).  An idle timeout of 2^4 cycles, not 2^28
# (~0.1 s of spinning after every threaded call), for runs that opt back into
# threads; it changes no byte.
if not os.environ.keys() & {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
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
