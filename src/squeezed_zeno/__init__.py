"""Two-level atom in a broadband squeezed vacuum: frozen observables under
frequent measurement, survival laws, and the intelligent-state structure of
the frozen states.

Units: hbar = 1; rates in units of the vacuum decay constant gamma unless
stated otherwise.

The public names load their submodule on first access, and with it numpy, except
those of bath, errors and intelligent (_NUMPY_FREE), modules that import no numpy,
so importing the package (or its CLI) costs no numpy until something computes with arrays.
"""

from importlib import import_module as _import_module

# Submodule -> the public names it defines.
_PUBLIC = {
    "bath": (
        "BathParams", "Direction", "maximal_m", "survival_functional_rows", "zeno_directions",
        "zeno_states",
    ),
    "dynamics": (
        "TimeGrid", "analytic_free", "bloch_rates", "bloch_vector", "evolve_free",
        "evolve_measured", "matrix_to_bloch", "pure_state_bloch", "pure_state_matrix", "relax",
    ),
    "errors": ("InvalidStateError", "ParameterError", "SqueezedZenoError"),
    "intelligent": ("factorization_residual", "s_eigensystem", "uncertainty_product"),
    "zeno": (
        "MeasurementSchedule", "monte_carlo_survival", "repeated_measurement_survival",
        "second_order_rate", "step_survival_probability", "survival_laws", "survival_rate",
    ),
}
_SUBMODULE = {name: module for module, names in _PUBLIC.items() for name in names}
_NUMPY_FREE = ("bath", "errors", "intelligent")  # the submodules that import no numpy

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, from its submodule, which loads on the first access (PEP 562)."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    """The module's globals and every public name, loaded or not."""
    return sorted(set(globals()) | set(_SUBMODULE))
