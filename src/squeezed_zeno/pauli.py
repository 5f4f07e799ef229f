"""Exact 2x2 complex algebra for a two-level atom.

Pauli and ladder operator constants, the Bloch-vector check, the closed-form
Bloch vector of a pure state, Bloch-vector <-> density-matrix maps, and spin
observables along an arbitrary direction of the Bloch sphere with their
eigenstates.

Basis convention: |+> = excited = (1, 0)^T, |-> = ground = (0, 1)^T, so
sigma_z |+-> = +-|+-> and the lowering operator sends |+> to |->.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidStateError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

# Ladder operators: SIGMA_MINUS |+> = |->
SIGMA_MINUS = 0.5 * (SIGMA_X - 1j * SIGMA_Y)
SIGMA_PLUS = 0.5 * (SIGMA_X + 1j * SIGMA_Y)

EXCITED = np.array([1, 0], dtype=complex)
GROUND = np.array([0, 1], dtype=complex)

HERMITICITY_TOL = 1e-12
BLOCH_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Direction:
    """A point (theta, phi) on the Bloch sphere, in radians.

    Finite, with theta in [0, pi] (else InvalidStateError); phi is reduced to [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.theta, self.phi])):
            raise InvalidStateError(
                f"theta and phi must be finite, got {self.theta}, {self.phi}"
            )
        if not 0.0 <= self.theta <= np.pi:
            raise InvalidStateError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", float(np.mod(self.phi, 2 * np.pi)))

    @property
    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector (cos phi sin theta, sin phi sin theta, cos theta)."""
        st = np.sin(self.theta)
        return np.array(
            [np.cos(self.phi) * st, np.sin(self.phi) * st, np.cos(self.theta)]
        )


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


def bloch_to_matrix(v) -> np.ndarray:
    """Density matrix rho = (1 + v . sigma) / 2 for a Bloch vector v."""
    v = bloch_vector(v)
    return 0.5 * (IDENTITY + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)


def matrix_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z) of a density matrix.

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
    return bloch_vector([np.trace(rho @ sigma).real for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def sigma_mu(d: Direction) -> np.ndarray:
    """Spin component along d: sigma . mu_hat."""
    mu = d.unit_vector
    return mu[0] * SIGMA_X + mu[1] * SIGMA_Y + mu[2] * SIGMA_Z


def eigenstates_mu(d: Direction):
    """The +1 and -1 eigenstates of sigma_mu(d).

    Returns (plus, minus) with
        plus  =  cos(theta/2) |+> + sin(theta/2) e^{i phi} |->
        minus = -sin(theta/2) |+> + cos(theta/2) e^{i phi} |->
    """
    c, s = np.cos(d.theta / 2), np.sin(d.theta / 2)
    phase = np.exp(1j * d.phi)
    plus = np.array([c, s * phase])
    minus = np.array([-s, c * phase])
    return plus, minus


def expectation(rho: np.ndarray, a: np.ndarray) -> float:
    """Tr(rho A) for a Hermitian observable A."""
    a = np.asarray(a, dtype=complex)
    if np.max(np.abs(a - a.conj().T)) > HERMITICITY_TOL:
        raise ContractViolationError("observable is not Hermitian")
    return np.trace(np.asarray(rho, dtype=complex) @ a).real


def _pure_state(state) -> np.ndarray:
    """state as a complex array of two amplitudes with norm 1 (within 1e-10)."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (2,):
        raise InvalidStateError(f"a pure state is two amplitudes, got shape {state.shape}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise InvalidStateError(f"state norm {norm} != 1")
    return state


def pure_state_matrix(state) -> np.ndarray:
    """Projector |state><state| for a normalized two-component state."""
    state = _pure_state(state)
    return np.outer(state, state.conj())


def pure_state_bloch(state) -> np.ndarray:
    """Bloch vector (2 Re(a* b), 2 Im(a* b), |a|^2 - |b|^2) of the pure state a|+> + b|->."""
    a, b = _pure_state(state).tolist()
    ab = a.conjugate() * b
    z = (a * a.conjugate()).real - (b * b.conjugate()).real
    return np.array([2 * ab.real, 2 * ab.imag, z])
