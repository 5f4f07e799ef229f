"""Two-level atom in a broadband squeezed vacuum: frozen observables under
frequent measurement, survival laws, and the intelligent-state structure of
the frozen states.

Units: hbar = 1; rates in units of the vacuum decay constant gamma unless
stated otherwise.
"""

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
