"""Import the package before any test module imports numpy.

The package sets one BLAS thread per process when it is imported before
numpy and scipy load, so the suite runs under the policy the command
ships with.
"""

import birkhoff_rre  # noqa: F401
