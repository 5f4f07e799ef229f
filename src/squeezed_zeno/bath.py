"""The squeezed-vacuum dissipator for a two-level atom.

Provides the bath parameters with the decay rates of the dissipator's three modes, the
rotation by psi/2 into the mode frame where the affine Bloch equations of motion are
diagonal, a pure state's Bloch vector, directions on the Bloch sphere, the survival
functional on an angle grid with its two maxima as directions, and the two frozen states.
Every value is a Python scalar, or an array, list or tuple of them. Basis convention:
|+> = excited = (1, 0)^T, |-> = ground = (0, 1)^T, so sigma_z |+-> = +-|+-> and the
lowering operator sends |+> to |->.
"""

import cmath
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from numbers import Number
from typing import NamedTuple

from .errors import InvalidStateError, ParameterError

# Bound on the largest rate gamma(2N+1): the second-order survival rate squares it.
MAX_RATE = 1e150


def maximal_m(n: float) -> float:
    """Largest two-photon correlation magnitude sqrt(N(N+1)), for N >= 0 with N(N+1) finite."""
    if not n >= 0:
        raise ParameterError(f"mean photon number must be >= 0, got {n}")
    # A Python float, so that a product past the float range is inf without a warning.
    if float(n) * (float(n) + 1.0) == math.inf:
        raise ParameterError(f"mean photon number must have a finite n(n+1), got {n}")
    return math.sqrt(n * (n + 1.0))


class ModeRates(NamedTuple):
    """Decay rates gamma(N + 1/2 + M), gamma(N + 1/2 - M), gamma(2N + 1) of the three modes."""

    fast: float
    slow: float
    z: float


def to_mode_frame(psi: float, x, y):
    """(u_fast, u_slow): x, y rotated by psi/2 onto the mode axes; -psi rotates back."""
    c, s = math.cos(psi / 2), math.sin(psi / 2)
    return c * x - s * y, s * x + c * y


@dataclass(frozen=True)
class BathParams:
    """Squeezed-bath parameters.

    gamma: vacuum decay rate (> 0)
    n:     mean photon number (>= 0)
    m:     two-photon correlation magnitude (0 <= m <= sqrt(n(n+1)))
    psi:   squeezing phase in radians, reduced to [0, 2*pi] (2*pi only from rounding: the
           nearest double to the exact reduction of a psi just below a multiple of 2*pi)

    The largest rate gamma(2N+1) is at most MAX_RATE.
    """

    gamma: float
    n: float
    m: float
    psi: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma, self.n, self.m, self.psi))):
            raise ParameterError(
                f"bath parameters must be finite, got gamma={self.gamma}, "
                f"n={self.n}, m={self.m}, psi={self.psi}"
            )
        if self.gamma <= 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")
        top = maximal_m(self.n)
        # Python floats, so that a product past the float range is inf without a warning.
        rate = float(self.gamma) * (2.0 * float(self.n) + 1.0)
        if rate > MAX_RATE:
            raise ParameterError(f"the largest rate gamma(2N+1) = {rate} exceeds {MAX_RATE}")
        if self.m < 0 or self.m > top:
            raise ParameterError(f"m={self.m} outside physical range [0, sqrt(n(n+1))={top}]")
        object.__setattr__(self, "psi", float(self.psi % (2 * math.pi)))

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
        return math.asinh(math.sqrt(self.n))

    @property
    def squeeze_ratio(self) -> float:
        """Squeeze ratio alpha = e^{2r}, the bath's at maximal m."""
        return math.exp(2.0 * self.squeeze_amplitude)


def zeno_states(bath: BathParams):
    """The two frozen states |z1>, |z2> as pairs (a, b) of Python complex, a|+> + b|->.

    |z1> = sqrt(N/(N+M)) |+> + i sqrt(M/(N+M)) e^{-i psi/2} |->
    |z2> = sqrt(N/(N+M)) |+> - i sqrt(M/(N+M)) e^{-i psi/2} |->

    At maximal squeezing they are the +1 eigenstates of the spin components
    along the two preferential directions, and the eigenvectors of S.
    """
    n, m = bath.n, bath.m
    if n + m <= 0:
        raise ParameterError("frozen states require n > 0 (else they degenerate)")
    up = complex(math.sqrt(n / (n + m)))
    down = math.sqrt(m / (n + m)) * cmath.exp(-1j * bath.psi / 2)
    return (up, 1j * down), (up, -1j * down)


def state_bloch(state):
    """Bloch vector (2 Re(a* b), 2 Im(a* b), |a|^2 - |b|^2) of the pure state (a, b) = a|+> + b|->.

    state must be exactly two numbers, and its norm sqrt(|a|^2 + |b|^2) 1 within 1e-10;
    else InvalidStateError.
    """
    try:
        amplitudes = tuple(state)
    except TypeError:  # not iterable, as a number or a 0-d array
        amplitudes = ()
    if len(amplitudes) != 2 or not all(isinstance(x, Number) for x in amplitudes):
        raise InvalidStateError(f"a pure state is two amplitudes, got {state!r}")
    a, b = map(complex, amplitudes)
    norm = math.hypot(abs(a), abs(b))
    if not abs(norm - 1.0) <= 1e-10:
        raise InvalidStateError(f"state norm {norm} != 1")
    ab = a.conjugate() * b
    return 2 * ab.real, 2 * ab.imag, (a * a.conjugate()).real - (b * b.conjugate()).real


def generator_terms(bath: BathParams, v):
    """The terms -rate u^2 of v . A v per mode and v . c = -gamma u_z, u being v in modes."""
    fast, slow, z = bath.rates
    u_fast, u_slow = to_mode_frame(bath.psi, v[0], v[1])
    return -fast * u_fast**2, -slow * u_slow**2, -z * v[2] ** 2, -bath.gamma * v[2]


def survival_functional_rows(bath: BathParams, n_theta: int, n_phi: int):
    """The survival functional F on an (n_theta x n_phi) angle grid: (thetas, phis, rows).

    The axes are arrays of doubles (array.array "d"), each point i * step as
    numpy.linspace forms it: thetas from 0 to pi, both included, and phis from 0 to
    2 pi, 2 pi excluded. rows yields, for each theta in turn, the list of F over phis as
    Python floats, so a caller holds one grid row at a time. F is
    (sin^2(theta) q(phi) + l(cos theta)) / 2 clipped at 0, with q and l the transverse and
    longitudinal terms of generator_terms (squares taken as u * u): F = mu . (A mu + c) / 2
    at the unit vector mu of (theta, phi), the survival rate of the +1 eigenstate of
    sigma . mu_hat, whose Bloch vector is mu. q is a
    quadratic form in (cos phi, sin phi), so q(phi + pi) = q(phi): for even n_phi, q is
    evaluated on the first n_phi/2 angles only and each row is its first half twice, the
    same float objects. Odd n_phi evaluates q at every angle.
    """
    fast, slow, z = bath.rates
    theta_step, phi_step = math.pi / max(n_theta - 1, 1), 2 * math.pi / n_phi
    thetas = array("d", (i * theta_step for i in range(n_theta)))
    if n_theta > 1:
        thetas[-1] = math.pi
    phis = array("d", (j * phi_step for j in range(n_phi)))
    period = n_phi // 2 if n_phi % 2 == 0 else n_phi
    c, s = math.cos(bath.psi / 2), math.sin(bath.psi / 2)
    q = array("d")
    for phi in phis[:period]:
        # to_mode_frame of (cos phi, sin phi), with its cos and sin of psi/2 taken once.
        x, y = math.cos(phi), math.sin(phi)
        u_fast, u_slow = c * x - s * y, s * x + c * y
        q.append(-fast * (u_fast * u_fast) + -slow * (u_slow * u_slow))

    def rows():
        for theta in thetas:
            sin, cos = math.sin(theta), math.cos(theta)
            sin2, l = sin * sin, -z * (cos * cos) + -bath.gamma * cos
            # Clipped as numpy.minimum(f, 0.0) clips: -0.0 becomes 0.0, NaN stays.
            half = [0.0 if (f := (sin2 * t + l) * 0.5) >= 0.0 else f for t in q]
            yield half * (n_phi // period)

    return thetas, phis, rows()


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
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise InvalidStateError(f"theta and phi must be finite, got {self.theta}, {self.phi}")
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidStateError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", float(self.phi % (2 * math.pi)))

    @property
    def unit_vector(self):
        """Cartesian unit vector (cos phi sin theta, sin phi sin theta, cos theta), as floats."""
        st = math.sin(self.theta)
        return math.cos(self.phi) * st, math.sin(self.phi) * st, math.cos(self.theta)


@dataclass(frozen=True)
class ZenoDirections:
    """The two maxima of the survival functional; their +1 eigenstates freeze only at maximal M."""

    mu1: Direction
    mu2: Direction
    theta: float


def zeno_directions(bath: BathParams) -> ZenoDirections:
    """The two maxima of the survival functional, in closed form.

    phi1 = (pi - psi)/2 and phi2 = phi1 + pi, before Direction reduces them, lie on the slow
    mode axis, and the common polar angle has cos(theta) = -gamma / (2 fast) =
    -1 / (2(N + 1/2 + M)), taken in the last form, which a subnormal gamma cannot round
    outside [-1, 1]; theta is math.acos of it. For every M, F there is
    -gamma delta / (2(N + 1/2 + M)) with delta = N(N+1) - M^2: it vanishes (the state
    freezes) only at maximal squeezing. For N -> 0 both maxima tend to -z.
    """
    theta = math.acos(-0.5 / (bath.n + 0.5 + bath.m))
    phi1 = (math.pi - bath.psi) / 2.0
    return ZenoDirections(Direction(theta, phi1), Direction(theta, phi1 + math.pi), theta)
