"""Exact 2x2 complex algebra for a two-level atom.

The Bloch-vector check, the closed-form Bloch vector of a pure state, directions
on the Bloch sphere, and the checked map from a density matrix to its Bloch
vector, read off its entries.

Basis convention: |+> = excited = (1, 0)^T, |-> = ground = (0, 1)^T, so
sigma_z |+-> = +-|+-> and the lowering operator sends |+> to |->.
"""

from dataclasses import dataclass

import numpy as np

from .bath import state_bloch
from .errors import InvalidStateError

HERMITICITY_TOL = 1e-12
BLOCH_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Direction:
    """A point (theta, phi) on the Bloch sphere, in radians.

    Finite, with theta in [0, pi] (else InvalidStateError); phi is reduced to [0, 2*pi],
    where 2*pi comes only from rounding: the nearest double to the exact reduction of a
    phi within half an ulp below a multiple of 2*pi.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.theta, self.phi])):
            raise InvalidStateError(f"theta and phi must be finite, got {self.theta}, {self.phi}")
        if not 0.0 <= self.theta <= np.pi:
            raise InvalidStateError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", float(np.mod(self.phi, 2 * np.pi)))

    @property
    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector (cos phi sin theta, sin phi sin theta, cos theta)."""
        st = np.sin(self.theta)
        return np.array([np.cos(self.phi) * st, np.sin(self.phi) * st, np.cos(self.theta)])


def bloch_vector(v) -> np.ndarray:
    """v as a float array of shape (3,): finite, real, with |v| <= 1 + BLOCH_NORM_TOL."""
    v = np.asarray(v)
    if v.shape != (3,) or v.dtype.kind not in "iuf":
        raise InvalidStateError(f"a Bloch vector is three real numbers, got {v!r}")
    v = v.astype(float)
    if not np.all(np.isfinite(v)):
        raise InvalidStateError(f"Bloch vector {v} is not finite")
    norm = np.linalg.norm(v)
    if norm > 1.0 + BLOCH_NORM_TOL:
        raise InvalidStateError(f"Bloch vector norm {norm} exceeds 1")
    return v


def matrix_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z) of a density matrix.

    The traces are the real parts of rho01 + rho10, i(rho01 - rho10) and rho00 - rho11.
    rho must be 2x2, Hermitian within HERMITICITY_TOL and of unit trace, and its
    Bloch vector must pass bloch_vector, whose |v| <= 1 is rho's positivity;
    else InvalidStateError.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise InvalidStateError(f"a density matrix is 2x2, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise InvalidStateError(f"density matrix {rho.tolist()} is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise InvalidStateError(f"density matrix trace {np.trace(rho)} != 1")
    (r00, r01), (r10, r11) = rho
    return bloch_vector([(r01 + r10).real, (1j * (r01 - r10)).real, (r00 - r11).real])


def pure_state_matrix(state) -> np.ndarray:
    """Projector |state><state| for a normalized two-component state."""
    state_bloch(state)  # the check of two amplitudes and their norm
    state = np.asarray(state, dtype=complex)
    return np.outer(state, state.conj())


def pure_state_bloch(state) -> np.ndarray:
    """Bloch vector of the pure state a|+> + b|-> as an array (bath.state_bloch)."""
    return np.array(state_bloch(state))
