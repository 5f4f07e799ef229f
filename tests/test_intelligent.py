import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezed_zeno import (
    BathParams,
    factorization_residual,
    s_eigensystem,
    uncertainty_product,
    zeno_states,
)
from squeezed_zeno.bath import to_mode_frame
from squeezed_zeno.errors import ParameterError
from squeezed_zeno.intelligent import j_minus_alpha_entries, lindblad_s_entries

from oracles import (
    GROUND,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    eig_s_eigensystem,
    j_minus_alpha_operator,
    moment_uncertainty_product,
    rotated_spin_operators,
    s_operator,
)

EPS = np.finfo(float).eps
J_X, J_Y, J_Z = 0.5 * SIGMA_X, 0.5 * SIGMA_Y, 0.5 * SIGMA_Z


def haar_random_states(n, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


class TestSEigensystem:
    def test_eigenvalues_n1_psi0(self):
        eig = s_eigensystem(BathParams.maximal(1.0, 1.0, 0.0))
        assert eig.lambda_plus == pytest.approx(1j * 2**0.25, abs=1e-12)
        assert eig.lambda_minus == pytest.approx(-1j * 2**0.25, abs=1e-12)

    def test_eigenvalue_formula_general(self):
        for n, psi in [(0.5, 0.3), (2.0, 1.3), (1.0, np.pi), (5.0, 5.0)]:
            b = BathParams.maximal(1.0, n, psi)
            eig = s_eigensystem(b)
            target = 1j * np.sqrt(b.m) * np.exp(1j * b.psi / 2)
            assert eig.lambda_plus == pytest.approx(target, abs=1e-12)
            assert eig.lambda_minus == pytest.approx(-target, abs=1e-12)

    def test_eigen_relation(self):
        b = BathParams.maximal(1.0, 2.0, 1.1)
        s = s_operator(b)
        eig = s_eigensystem(b)
        plus, minus = np.array(eig.state_plus), np.array(eig.state_minus)
        assert np.linalg.norm(s @ plus - eig.lambda_plus * plus) < 1e-12
        assert np.linalg.norm(s @ minus - eig.lambda_minus * minus) < 1e-12

    def test_eigenvectors_are_frozen_states(self):
        # The eigenvector set coincides with the two frozen states; the
        # first frozen state carries the -i sqrt(M) e^{i psi/2} eigenvalue.
        for n, psi in [(0.5, 0.0), (1.0, 0.0), (2.0, 1.3)]:
            b = BathParams.maximal(1.0, n, psi)
            eig = s_eigensystem(b)
            z1, z2 = zeno_states(b)
            assert abs(np.vdot(eig.state_minus, z1)) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(eig.state_plus, z2)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_eig_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, psi = 10 ** rng.uniform(-3, 2), rng.uniform(0, 2 * np.pi)
            b = BathParams.maximal(rng.uniform(0.1, 3.0), n, psi)
            eig, ref = s_eigensystem(b), eig_s_eigensystem(b)
            assert abs(eig.lambda_plus - ref.lambda_plus) < 1e-12
            assert abs(eig.lambda_minus - ref.lambda_minus) < 1e-12
            assert np.max(np.abs(eig.state_plus - ref.state_plus)) < 1e-12
            assert np.max(np.abs(eig.state_minus - ref.state_minus)) < 1e-12

    def test_submaximal_rejected(self):
        with pytest.raises(ParameterError):
            s_eigensystem(BathParams(gamma=1.0, n=1.0, m=0.5))

    def test_vacuum_degenerate(self):
        eig = s_eigensystem(BathParams(gamma=1.0, n=0.0, m=0.0))
        assert eig.degenerate
        assert eig.lambda_plus == 0.0
        assert np.allclose(eig.state_plus, GROUND)


class TestRotatedJOperators:
    """J1 and J2 as j_minus_alpha_entries takes them: the mode-frame rotation of Jx and Jy."""

    def test_psi_zero(self):
        j1, j2 = to_mode_frame(0.0, J_X, J_Y)
        assert np.allclose(j1, J_X)
        assert np.allclose(j2, J_Y)

    def test_psi_pi(self):
        j1, j2 = to_mode_frame(np.pi, J_X, J_Y)
        assert np.allclose(j1, -J_Y, atol=1e-15)
        assert np.allclose(j2, J_X, atol=1e-15)

    def test_commutator_and_squares(self):
        for psi in (0.0, 0.7, np.pi, 5.1):
            j1, j2 = to_mode_frame(psi, J_X, J_Y)
            assert np.max(np.abs(j1 @ j2 - j2 @ j1 - 1j * J_Z)) < 1e-13
            assert np.max(np.abs(j1 @ j1 - np.eye(2) / 4)) < 1e-13
            assert np.max(np.abs(j2 @ j2 - np.eye(2) / 4)) < 1e-13

    def test_unitary_conjugation_identity(self):
        from scipy.linalg import expm

        for psi in (0.4, 2.0):
            j1, j2 = to_mode_frame(psi, J_X, J_Y)
            u = expm(1j * (psi / 2) * J_Z)  # rotation by psi/2 about z
            assert np.max(np.abs(u @ J_X @ u.conj().T - j1)) < 1e-13
            assert np.max(np.abs(u @ J_Y @ u.conj().T - j2)) < 1e-13


class TestJMinusAlpha:
    """The package's entries of J_-(alpha) against the oracle's, built from J1 and J2."""

    def test_factorization(self):
        for n, psi in [(1.0, 0.0), (2.0, 1.3), (0.5, np.pi)]:
            b = BathParams.maximal(1.0, n, psi)
            eig = s_eigensystem(b)
            jm = j_minus_alpha_operator(b.psi, b.squeeze_amplitude)
            residual = np.max(np.abs(s_operator(b) - 2 * eig.lambda_plus * jm))
            assert factorization_residual(b, eig) < 1e-12
            assert residual < 1e-12

    def test_factorization_chain(self):
        # S = e^{i psi/2} e^{-r} (J1 - i alpha J2) = 2 lambda_+ J_-(alpha)
        b = BathParams.maximal(1.0, 1.7, 0.9)
        j1, j2, _ = rotated_spin_operators(b.psi)
        s = s_operator(b)
        middle = (
            np.exp(1j * b.psi / 2)
            * np.exp(-b.squeeze_amplitude)
            * (j1 - 1j * b.squeeze_ratio * j2)
        )
        assert np.max(np.abs(s - middle)) < 1e-12

    def test_eigenvalues_half(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        eig = s_eigensystem(b)
        jm = np.array(j_minus_alpha_entries(b.psi, b.squeeze_amplitude))
        plus, minus = np.array(eig.state_plus), np.array(eig.state_minus)
        assert np.linalg.norm(jm @ plus - 0.5 * plus) < 1e-12
        assert np.linalg.norm(jm @ minus + 0.5 * minus) < 1e-12

    def test_singular_at_unity(self):
        # alpha = e^{2r} is 1 at r = 0.
        with pytest.raises(ParameterError):
            j_minus_alpha_entries(0.0, 0.0)

    @pytest.mark.parametrize("n", [5e-324, 1e-300, 1e-40, 1e-30, 1e-20, 1e-12, 1e-8, 1e150])
    def test_factorization_formed_from_r(self, n):
        # 1 - alpha^2 formed from the float alpha = e^{2r} is off by eps / (4r) relative (a
        # residual of 4e-4 at N = 1e-30), and alpha^2 overflows for N above 3e153. Formed
        # from r, the worst of 20 000 draws of N in [1e-320, 1e153] was 2.4 eps |S|. The
        # oracle forms it from e^{-2r} and expm1(-4r) instead, and the entries stay within
        # a few eps of the oracle's.
        for psi in (0.0, 2.1):
            b = BathParams.maximal(1e-160, n, psi)
            eig = s_eigensystem(b)
            r = b.squeeze_amplitude
            jm = j_minus_alpha_operator(b.psi, r)
            s = s_operator(b)
            scale = float(np.max(np.abs(s)))
            residual = np.max(np.abs(s - 2 * eig.lambda_plus * jm))
            for value in (residual, factorization_residual(b, eig)):
                assert value <= 16 * EPS * scale
            error = np.max(np.abs(np.subtract(j_minus_alpha_entries(b.psi, r), jm)))
            assert error <= 4 * EPS * np.max(np.abs(jm))


class TestSqueezeFrame:
    def test_ratio_identity(self):
        for n in (0.5, 1.0, 3.0):
            b = BathParams.maximal(1.0, n)
            ch, sh = np.cosh(b.squeeze_amplitude), np.sinh(b.squeeze_amplitude)
            assert b.squeeze_ratio == pytest.approx((ch + sh) / (ch - sh), abs=1e-10)
            assert sh == pytest.approx(np.sqrt(n), abs=1e-12)


class TestUncertaintyProduct:
    def test_frozen_states_saturate(self):
        for n in (0.5, 1.0, 2.0, 5.0):
            for psi in (0.0, 1.0, np.pi, 5.0):
                b = BathParams.maximal(1.0, n, psi)
                eig = s_eigensystem(b)
                for state in (eig.state_plus, eig.state_minus):
                    v1, v2, bound, gap = uncertainty_product(state, b.psi)
                    assert v1 >= 0 and v2 >= 0
                    assert abs(gap) < 1e-12

    def test_excited_state_also_saturates(self):
        v1, v2, bound, gap = uncertainty_product(np.array([1.0, 0.0]), 0.0)
        assert v1 == pytest.approx(0.25)
        assert v2 == pytest.approx(0.25)
        assert bound == pytest.approx(1 / 16)
        assert gap == pytest.approx(0.0, abs=1e-14)

    def test_equator_state_degenerate_saturation(self):
        state = np.array([1.0, 1.0]) / np.sqrt(2)
        v1, v2, bound, gap = uncertainty_product(state, 0.0)
        assert v1 == pytest.approx(0.0, abs=1e-14)
        assert bound == pytest.approx(0.0, abs=1e-14)
        assert gap == pytest.approx(0.0, abs=1e-14)

    def test_matches_operator_moments(self):
        for psi in (0.0, 1.3, 4.4):
            for state in haar_random_states(300, seed=18):
                got = uncertainty_product(state, psi)
                np.testing.assert_allclose(got, moment_uncertainty_product(state, psi), atol=1e-15)

    def test_heisenberg_inequality_random_states(self):
        for psi in (0.0, 1.3):
            for state in haar_random_states(1000, seed=17):
                *_, gap = uncertainty_product(state, psi)
                assert gap >= -1e-13


def same_bits(state, other) -> bool:
    return np.array(state, dtype=complex).tobytes() == np.array(other, dtype=complex).tobytes()


@settings(max_examples=300, deadline=None)
@given(log_n=st.floats(-324, 154), psi=st.floats(-10.0, 20.0))
def test_one_route_from_the_scalar_entries(log_n, psi):
    # The closed-form scalar entries that the report is formed from are the oracle's S and
    # J_-(alpha) within a few eps, and the report keeps the bounds of the oracle tests above:
    # eig's, which holds where S is well conditioned (N in [1e-3, 1e2], as in
    # test_matches_eig_oracle), the moments' and the residual's at every N.
    b = BathParams.maximal(1e-160, 10.0**log_n, psi)
    eig = s_eigensystem(b)
    if eig.degenerate:
        assert b.n == 0
        return
    s = s_operator(b)
    scale = float(np.max(np.abs(s)))
    assert np.max(np.abs(np.subtract(lindblad_s_entries(b), s))) <= 4 * EPS * scale
    r = b.squeeze_amplitude
    jm = j_minus_alpha_operator(b.psi, r)
    error = np.max(np.abs(np.subtract(j_minus_alpha_entries(b.psi, r), jm)))
    assert error <= 4 * EPS * np.max(np.abs(jm))
    # The eigenvectors are the frozen states of zeno_states, bit for bit.
    z1, z2 = zeno_states(b)
    assert same_bits(z1, eig.state_minus) and same_bits(z2, eig.state_plus)
    if -3.0 <= log_n <= 2.0:
        ref = eig_s_eigensystem(b)
        assert abs(eig.lambda_plus - ref.lambda_plus) < 1e-12
        assert abs(eig.lambda_minus - ref.lambda_minus) < 1e-12
        assert np.max(np.abs(np.subtract(eig.state_plus, ref.state_plus))) < 1e-12
        assert np.max(np.abs(np.subtract(eig.state_minus, ref.state_minus))) < 1e-12
    for state in (eig.state_plus, eig.state_minus):
        got = uncertainty_product(state, b.psi)
        np.testing.assert_allclose(got, moment_uncertainty_product(state, b.psi), atol=1e-15)
    assert factorization_residual(b, eig) <= 16 * EPS * scale
