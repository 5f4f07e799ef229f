"""Two-level atom in a broadband squeezed vacuum: frozen observables under
frequent measurement, survival laws, and the intelligent-state structure of
the frozen states.

Units: hbar = 1; rates in units of the vacuum decay constant gamma unless
stated otherwise.
"""

import os as _os

# The package's arrays are 2x2 and 3x3, and its largest product, evolve's
# (n, 3) @ (3,), takes as long on one thread as on two. OpenBLAS starts its
# worker threads when numpy loads and reads OPENBLAS_NUM_THREADS only then, so
# load numpy with one thread unless the user chose a count, and leave the
# environment as it was for child processes.
if "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .bath import BathParams, bloch_rates, lindblad_s_operator, maximal_m
from .dynamics import TimeGrid, analytic_free, evolve_free, evolve_measured, relax
from .errors import InvalidStateError, ParameterError, SqueezedZenoError
from .intelligent import factorization_residual, s_eigensystem, uncertainty_product
from .pauli import (
    Direction,
    bloch_vector,
    eigenstates_mu,
    matrix_to_bloch,
    pure_state_bloch,
    pure_state_matrix,
)
from .zeno import (
    MeasurementSchedule,
    monte_carlo_survival,
    repeated_measurement_survival,
    second_order_rate,
    step_survival_probability,
    survival_functional_grid,
    survival_laws,
    survival_rate,
    zeno_directions,
    zeno_states,
)

__version__ = "0.1.0"
