"""The squeezed-vacuum dissipator for a two-level atom.

Provides the bath parameters with the decay rates of the dissipator's
three modes, the rotation by psi/2 into the mode frame where the affine
Bloch equations of motion are diagonal, and the single jump operator
(Lindblad form), valid at maximal two-photon correlation.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .pauli import SIGMA_MINUS, SIGMA_PLUS

# Bound on the largest rate gamma(2N+1): the second-order survival rate squares it.
MAX_RATE = 1e150


def maximal_m(n: float) -> float:
    """Largest physical two-photon correlation magnitude sqrt(N(N+1))."""
    return np.sqrt(n * (n + 1.0))


class ModeRates(NamedTuple):
    """Decay rates gamma(N + 1/2 + M), gamma(N + 1/2 - M), gamma(2N + 1) of the three modes."""

    fast: float
    slow: float
    z: float


def to_mode_frame(psi: float, x, y):
    """(u_fast, u_slow): x, y rotated by psi/2 onto the mode axes; -psi rotates back."""
    c, s = np.cos(psi / 2), np.sin(psi / 2)
    return c * x - s * y, s * x + c * y


@dataclass(frozen=True)
class BathParams:
    """Squeezed-bath parameters.

    gamma: vacuum decay rate (> 0)
    n:     mean photon number (>= 0)
    m:     two-photon correlation magnitude (0 <= m <= sqrt(n(n+1)))
    psi:   squeezing phase in radians, reduced to [0, 2*pi)

    The largest rate gamma(2N+1) is at most MAX_RATE.
    """

    gamma: float
    n: float
    m: float
    psi: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.gamma, self.n, self.m, self.psi])):
            raise ParameterError(
                f"bath parameters must be finite, got gamma={self.gamma}, "
                f"n={self.n}, m={self.m}, psi={self.psi}"
            )
        if self.gamma <= 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")
        if self.n < 0:
            raise ParameterError(f"mean photon number must be >= 0, got {self.n}")
        # Python floats, so that a product past the float range is inf without a warning.
        rate = float(self.gamma) * (2.0 * float(self.n) + 1.0)
        if rate > MAX_RATE:
            raise ParameterError(f"the largest rate gamma(2N+1) = {rate} exceeds {MAX_RATE}")
        if self.m < 0 or self.m > maximal_m(self.n):
            raise ParameterError(
                f"m={self.m} outside physical range [0, sqrt(n(n+1))={maximal_m(self.n)}]"
            )
        object.__setattr__(self, "psi", float(np.mod(self.psi, 2 * np.pi)))

    @classmethod
    def maximal(cls, gamma: float, n: float, psi: float = 0.0) -> "BathParams":
        """Bath with maximal squeezing m = sqrt(n(n+1))."""
        return cls(gamma=gamma, n=n, m=maximal_m(n), psi=psi)

    @cached_property
    def rates(self) -> ModeRates:
        """The mode rates, the slow one as gamma(delta + 1/4)/(N + 1/2 + M) without cancellation.

        delta = N(N+1) - M^2 is exactly 0 if is_maximal, else (N - M)(N + M) + N clipped at 0.
        """
        g, n, m = self.gamma, self.n, self.m
        delta = 0.0 if self.is_maximal else max((n - m) * (n + m) + n, 0.0)
        s = n + 0.5 + m
        return ModeRates(fast=g * s, slow=g * ((delta + 0.25) / s), z=g * (2 * n + 1))

    @property
    def is_maximal(self) -> bool:
        """Whether m is maximal_m(n) bit for bit, as for BathParams.maximal: the bath's one test."""
        return self.m == maximal_m(self.n)

    @property
    def squeeze_amplitude(self) -> float:
        """Squeeze parameter r with sinh(r) = sqrt(n), the bath's at maximal m."""
        return float(np.arcsinh(np.sqrt(self.n)))

    @property
    def squeeze_ratio(self) -> float:
        """Squeeze ratio alpha = e^{2r}, the bath's at maximal m."""
        return float(np.exp(2.0 * self.squeeze_amplitude))


def _require_maximal(bath: BathParams) -> None:
    """Reject a bath without maximal squeezing, where S and its eigensystem are not defined."""
    if not bath.is_maximal:
        raise ParameterError(
            f"S is only defined at maximal m = sqrt(n(n+1)) = {maximal_m(bath.n)}, got m={bath.m}"
        )


def lindblad_s_operator(bath: BathParams) -> np.ndarray:
    """Jump operator S = sqrt(N+1) sigma - sqrt(N) e^{i psi} sigma+.

    Only defined at maximal squeezing, where the three-term dissipator
    collapses to a single Lindblad term.
    """
    _require_maximal(bath)
    phase = np.exp(1j * bath.psi)
    return np.sqrt(bath.n + 1) * SIGMA_MINUS - np.sqrt(bath.n) * phase * SIGMA_PLUS


def bloch_rates(bath: BathParams):
    """Affine Bloch equations d(rho_vec)/dt = A rho_vec + c in the lab frame.

    A[k, j] = Tr(L{sigma_j} sigma_k) / 2 and c[k] = Tr(L{1} sigma_k) / 2: A is
    diag(-fast, -slow, -z) in the mode frame (generator_terms) and c = (0, 0, -gamma).
    """
    fast, slow, z = bath.rates
    # The transverse block is -fast r r^T - slow q q^T for the mode axes r, q in the lab frame.
    r, q = to_mode_frame(bath.psi, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    a = np.diag([0.0, 0.0, -z])
    a[:2, :2] = -fast * np.outer(r, r) - slow * np.outer(q, q)
    return a, np.array([0.0, 0.0, -bath.gamma])


def generator_terms(bath: BathParams, v):
    """The terms -rate u^2 of v . A v per mode and v . c = -gamma u_z, u being v in modes."""
    fast, slow, z = bath.rates
    u_fast, u_slow = to_mode_frame(bath.psi, v[0], v[1])
    return -fast * u_fast**2, -slow * u_slow**2, -z * v[2] ** 2, -bath.gamma * v[2]
