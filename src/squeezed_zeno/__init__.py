"""Two-level atom in a broadband squeezed vacuum: frozen observables under
frequent measurement, survival laws, and the intelligent-state structure of
the frozen states.

Units: hbar = 1; rates in units of the vacuum decay constant gamma unless
stated otherwise.
"""

import os

# The package's arrays are 2x2 and 3x3, and its largest product, evolve's
# (n, 3) @ (3,), takes as long on one thread as on two. OpenBLAS starts its
# worker threads when numpy loads and reads OPENBLAS_NUM_THREADS only then, so
# load numpy with one thread unless the user chose a count, and leave the
# environment as it was for child processes.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .bath import BathParams, bloch_rates, lindblad_s_operator, maximal_m
from .dynamics import (
    TimeGrid,
    analytic_free,
    evolve_free,
    evolve_measured,
    measured_coefficients,
)
from .errors import (
    ContractViolationError,
    DomainError,
    InvalidStateError,
    ParameterError,
    SqueezedZenoError,
)
from .intelligent import (
    SqueezeFrame,
    j_minus_alpha,
    rotated_j_operators,
    s_eigensystem,
    uncertainty_product,
)
from .pauli import (
    Direction,
    EXCITED,
    GROUND,
    IDENTITY,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_matrix,
    bloch_vector,
    eigenstates_mu,
    expectation,
    matrix_to_bloch,
    pure_state_bloch,
    pure_state_matrix,
    sigma_mu,
)
from .zeno import (
    MeasurementSchedule,
    ZenoDirections,
    closed_system_survival,
    monte_carlo_survival,
    repeated_measurement_survival,
    second_order_rate,
    step_survival_probability,
    survival_functional_F,
    survival_functional_grid,
    survival_rate,
    zeno_directions,
    zeno_states,
)

__version__ = "0.1.0"
