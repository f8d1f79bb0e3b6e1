"""Import the package before any test module imports numpy.

The package sets one BLAS thread per process when it is imported before
numpy loads, so the suite runs under the policy the command ships with.
scipy, a test dependency only, loads its own BLAS library later and
reads the same setting.
"""

import birkhoff_rre  # noqa: F401
