import math

import numpy as np
import pytest

from squeezed_zeno.bath import BathParams
from squeezed_zeno.dynamics import (
    Direction,
    bloch_vector,
    matrix_to_bloch,
    pure_state_bloch,
    pure_state_matrix,
)
from squeezed_zeno.errors import InvalidStateError

from oracles import (
    EXCITED,
    GROUND,
    IDENTITY,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_matrix,
    eigenstates_mu,
    sigma_mu,
)


def random_directions(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Direction(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))
        for _ in range(n)
    ]


class TestBlochMaps:
    def test_maximally_mixed(self):
        assert np.allclose(bloch_to_matrix([0, 0, 0]), 0.5 * IDENTITY)

    def test_excited_pole(self):
        assert np.allclose(bloch_to_matrix([0, 0, 1]), np.diag([1.0, 0.0]))

    def test_x_axis(self):
        # Expand (1 + sigma_x)/2 by hand.
        assert np.allclose(bloch_to_matrix([1, 0, 0]), 0.5 * np.ones((2, 2)))

    def test_matrix_to_bloch_examples(self):
        assert np.allclose(matrix_to_bloch(0.5 * IDENTITY), [0, 0, 0])
        assert np.allclose(matrix_to_bloch(np.diag([0.0, 1.0])), [0, 0, -1])
        rho = 0.5 * np.array([[1, -1j], [1j, 1]])
        assert np.allclose(matrix_to_bloch(rho), [0, 1, 0])

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.uniform(-1, 1, 3)
            v *= rng.uniform(0, 1) / max(np.linalg.norm(v), 1e-12)
            back = matrix_to_bloch(bloch_to_matrix(v))
            assert np.max(np.abs(back - v)) < 1e-14

    def test_overlong_vector_rejected(self):
        with pytest.raises(InvalidStateError):
            bloch_to_matrix([1.1, 0, 0])

    def test_bad_trace_rejected(self):
        with pytest.raises(InvalidStateError):
            matrix_to_bloch(np.diag([1.0, 1.0]))

    def test_bloch_vector_returns_floats(self):
        v = bloch_vector([0, 1, 0])
        assert v.dtype == np.float64 and v.shape == (3,)
        assert np.array_equal(v, [0.0, 1.0, 0.0])
        # Rounding slack on the unit sphere is accepted, as in bloch_to_matrix.
        assert np.array_equal(bloch_vector([1 + 1e-12, 0, 0]), [1 + 1e-12, 0, 0])


class TestPureStateBloch:
    def test_matches_matrix_route(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = raw / np.linalg.norm(raw)
            expected = matrix_to_bloch(pure_state_matrix(state))
            assert np.max(np.abs(pure_state_bloch(state) - expected)) <= 1e-15

    def test_poles_exact(self):
        for state in (EXCITED, GROUND):
            assert np.array_equal(
                pure_state_bloch(state), matrix_to_bloch(pure_state_matrix(state))
            )
        assert np.array_equal(pure_state_bloch(EXCITED), [0.0, 0.0, 1.0])
        assert np.array_equal(pure_state_bloch(GROUND), [0.0, 0.0, -1.0])

    def test_eigenstates_point_along_direction(self):
        for d in random_directions(20, seed=7):
            plus, minus = eigenstates_mu(d)
            assert np.max(np.abs(pure_state_bloch(plus) - d.unit_vector)) < 1e-14
            assert np.max(np.abs(pure_state_bloch(minus) + d.unit_vector)) < 1e-14


class TestSigmaMu:
    def test_cardinal_directions(self):
        assert np.allclose(sigma_mu(Direction(0, 0)), SIGMA_Z)
        assert np.allclose(sigma_mu(Direction(np.pi / 2, 0)), SIGMA_X)
        assert np.allclose(sigma_mu(Direction(np.pi / 2, np.pi / 2)), SIGMA_Y)

    def test_hermitian_traceless_involutive(self):
        for d in random_directions(20):
            s = sigma_mu(d)
            assert np.max(np.abs(s - s.conj().T)) < 1e-14
            assert abs(np.trace(s)) < 1e-13
            assert np.max(np.abs(s @ s - IDENTITY)) < 1e-13

    def test_eigenvalues_plus_minus_one(self):
        for d in random_directions(20, seed=2):
            w = np.sort(np.linalg.eigvalsh(sigma_mu(d)))
            assert np.allclose(w, [-1, 1], atol=1e-13)


class TestEigenstates:
    def test_z_axis(self):
        plus, minus = eigenstates_mu(Direction(0, 0))
        assert np.allclose(plus, [1, 0])
        assert np.allclose(minus, [0, 1])

    def test_south_pole_up_to_phase(self):
        plus, minus = eigenstates_mu(Direction(np.pi, 0))
        assert abs(abs(plus[1]) - 1) < 1e-13 and abs(plus[0]) < 1e-13
        assert abs(abs(minus[0]) - 1) < 1e-13 and abs(minus[1]) < 1e-13

    def test_x_axis(self):
        plus, minus = eigenstates_mu(Direction(np.pi / 2, 0))
        inv = 1 / np.sqrt(2)
        assert np.allclose(plus, [inv, inv])
        assert np.allclose(minus, [-inv, inv])

    def test_eigen_relation_and_orthonormality(self):
        for d in random_directions(20, seed=3):
            s = sigma_mu(d)
            plus, minus = eigenstates_mu(d)
            assert np.linalg.norm(s @ plus - plus) < 1e-13
            assert np.linalg.norm(s @ minus + minus) < 1e-13
            assert abs(np.vdot(plus, minus)) < 1e-13
            proj = np.outer(plus, plus.conj()) + np.outer(minus, minus.conj())
            assert np.max(np.abs(proj - IDENTITY)) < 1e-13


def test_pauli_algebra():
    # The oracles' matrices: sigma_x sigma_y = i sigma_z, the anticommutators, and the ladder
    # operators (sigma_x -+ i sigma_y) / 2.
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert np.array_equal(SIGMA_MINUS, 0.5 * (SIGMA_X - 1j * SIGMA_Y))
    assert np.array_equal(SIGMA_PLUS, 0.5 * (SIGMA_X + 1j * SIGMA_Y))
    paulis = [SIGMA_X, SIGMA_Y, SIGMA_Z]
    for i, a in enumerate(paulis):
        for j, b in enumerate(paulis):
            anti = a @ b + b @ a
            expected = 2 * IDENTITY if i == j else np.zeros((2, 2))
            assert np.allclose(anti, expected)


def test_angle_just_below_a_period_reduces_to_two_pi():
    # Within half an ulp below 0, phi and psi reduce to the double 2 pi, the nearest one to
    # the exact reduction, which both keep rather than map to 0.
    assert Direction(1.0, -1e-17).phi == 2 * math.pi
    assert BathParams(1.0, 1.0, 0.5, -1e-17).psi == 2 * math.pi
    assert Direction(1.0, 2 * math.pi).phi == 0.0


def test_direction_validation():
    with pytest.raises(InvalidStateError):
        Direction(-0.1, 0)
    with pytest.raises(InvalidStateError):
        Direction(3.5, 0)
    d = Direction(1.0, 7.0)
    assert 0 <= d.phi < 2 * np.pi
    assert abs(np.linalg.norm(d.unit_vector) - 1) < 1e-14
