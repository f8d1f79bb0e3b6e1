"""Classification and Fourier parameterization of symplectic-map orbits.

Single trajectories are classified as invariant circles, island
chains, or chaos by fitting an optimal palindromic averaging filter to
the differenced observable sequence; the filter's residual is the
classification statistic, its polynomial roots carry the island period
and rotation number, and a weighted mode projection recovers the
circle parameterizations.

Importing the package sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
to 1 unless the caller has set them.  numpy's BLAS library reads them
when numpy loads, so the policy holds only where this package is
imported first: the ``birkhoff-rre`` command always is.  numpy is the
package's only runtime dependency.  One thread per
process suits problems of at most a few thousand rows, and parallelism
comes from the ``[output] workers`` processes, which inherit the setting.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"

from .birkhoff import bump_weights, weighted_average
from .errors import (
    ConfigError,
    ContractViolation,
    DegenerateFrequency,
    OrbitEscape,
    SolverFailure,
    ValidationFailure,
)
from .fourier import (
    FourierCircle,
    choose_num_modes,
    eval_circle,
    fit_circle,
    make_observable_advance,
    project_circle,
    validation_residual,
)
from .maps import (
    CoordinateObservable,
    DynamicalMap,
    EmbeddingObservable,
    Observable,
    StandardMap,
    Trajectory,
    TrajectorySource,
    sample_trajectory,
    standard_map_step,
)
from .rre import (
    AdaptiveResult,
    FilterSolution,
    RreProblem,
    adaptive_solve,
    build_problem,
    difference_signal,
    scale_free_residual,
    solve_filter,
    solve_from_trajectory,
)
from .spectral import (
    Classification,
    ClassifyParams,
    RootSet,
    canonical_frequency,
    chebyshev_coefficients,
    classify_trajectory,
    mode_prominence,
    palindromic_roots,
    rational_detect,
    stack_signal,
    unit_circle_filter,
)
