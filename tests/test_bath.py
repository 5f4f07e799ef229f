import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezed_zeno import (
    GROUND,
    BathParams,
    SIGMA_MINUS,
    SIGMA_PLUS,
    bloch_rates,
    lindblad_s_operator,
    maximal_m,
    pure_state_matrix,
    second_order_rate,
    survival_rate,
    zeno_states,
)
from squeezed_zeno.errors import ParameterError

from oracles import liouvillian, liouvillian_from_s, oracle_bloch_rates


def random_hermitian(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return a + a.conj().T


def random_bath(rng, maximal=False):
    """gamma in [0.1, 3], N in [0, 3], psi in [0, 2 pi); M maximal or a random fraction of it."""
    n = rng.uniform(0.0, 3.0)
    fraction = 1.0 if maximal else rng.uniform(0.0, 1.0)
    return BathParams(
        gamma=rng.uniform(0.1, 3.0), n=n, m=fraction * maximal_m(n), psi=rng.uniform(0, 2 * np.pi)
    )


class TestBathParams:
    def test_maximal_constructor(self):
        b = BathParams.maximal(1.0, 2.0, 0.3)
        assert b.m == pytest.approx(np.sqrt(6.0))
        assert b.is_maximal

    def test_unphysical_m_rejected(self):
        with pytest.raises(ParameterError):
            BathParams(gamma=1.0, n=1.0, m=2.0, psi=0.0)

    @pytest.mark.parametrize("n", [1e-30, 1.0, 1e6])
    def test_m_range_ends_at_maximal_bits(self, n):
        # No slack above maximal_m(n), whatever its size: one ulp more is out of range.
        assert BathParams(gamma=1.0, n=n, m=maximal_m(n)).is_maximal
        with pytest.raises(ParameterError, match="outside physical range"):
            BathParams(gamma=1.0, n=n, m=np.nextafter(maximal_m(n), np.inf))

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ParameterError):
            BathParams(gamma=0.0, n=1.0, m=0.0)

    def test_psi_reduced(self):
        b = BathParams(gamma=1.0, n=0.5, m=0.0, psi=-1.0)
        assert 0 <= b.psi < 2 * np.pi

    def test_squeeze_amplitude(self):
        b = BathParams.maximal(1.0, 3.0)
        assert np.sinh(b.squeeze_amplitude) == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert np.cosh(b.squeeze_amplitude) == pytest.approx(2.0, abs=1e-12)


class TestLiouvillian:
    def test_vacuum_ground_fixed_point(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        out = liouvillian(b, np.diag([0.0, 1.0]))
        assert np.max(np.abs(out)) < 1e-14

    def test_vacuum_excited_decay(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        out = liouvillian(b, np.diag([1.0, 0.0]))
        # population flows excited -> ground at rate gamma: d<sigma_z>/dt = -2 gamma
        assert np.trace(out @ np.diag([1.0, -1.0])).real == pytest.approx(-2.0)
        assert np.allclose(out, np.diag([-1.0, 1.0]))

    def test_zeno_state_matrix_element_vanishes(self):
        from squeezed_zeno import pure_state_matrix, zeno_states

        b = BathParams.maximal(1.0, 1.0, 0.0)
        z1, _ = zeno_states(b)
        val = np.vdot(z1, liouvillian(b, pure_state_matrix(z1)) @ z1)
        assert abs(val) < 1e-13

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(7)
        b = BathParams.maximal(1.3, 1.7, 2.1)
        for _ in range(50):
            rho = random_hermitian(rng)
            out = liouvillian(b, rho)
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(8)
        b = BathParams.maximal(1.0, 0.8, 1.1)
        for _ in range(20):
            r1, r2 = random_hermitian(rng), random_hermitian(rng)
            a, c = rng.normal(), rng.normal()
            lhs = liouvillian(b, a * r1 + c * r2)
            rhs = a * liouvillian(b, r1) + c * liouvillian(b, r2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestLindbladForm:
    def test_vacuum_limit_s_is_sigma(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        assert np.allclose(lindblad_s_operator(b), SIGMA_MINUS)

    def test_n1_psi0(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        expected = np.sqrt(2) * SIGMA_MINUS - SIGMA_PLUS
        assert np.allclose(lindblad_s_operator(b), expected, atol=1e-12)

    def test_n1_psi_pi(self):
        b = BathParams.maximal(1.0, 1.0, np.pi)
        expected = np.sqrt(2) * SIGMA_MINUS + SIGMA_PLUS
        assert np.allclose(lindblad_s_operator(b), expected, atol=1e-12)

    def test_submaximal_rejected(self):
        b = BathParams(gamma=1.0, n=1.0, m=0.5)
        with pytest.raises(ParameterError):
            lindblad_s_operator(b)
        with pytest.raises(ParameterError):
            liouvillian_from_s(b, np.eye(2))

    def test_form_equivalence(self):
        # Single-jump form agrees with the three-term form at maximal m.
        rng = np.random.default_rng(9)
        for _ in range(10):
            b = BathParams.maximal(1.0, rng.uniform(0.1, 4.0), rng.uniform(0, 2 * np.pi))
            for _ in range(100):
                rho = random_hermitian(rng)
                diff = liouvillian(b, rho) - liouvillian_from_s(b, rho)
                assert np.max(np.abs(diff)) < 1e-12

    def test_vacuum_excited_matches_three_term(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(liouvillian_from_s(b, rho), liouvillian(b, rho))


class TestModeRates:
    @settings(max_examples=300, deadline=None)
    @given(
        gamma=st.floats(1e-3, 1e3),
        log_n=st.floats(-6.0, 12.0),
        fraction=st.sampled_from([1.0, 0.0, 0.5, 0.9]),
    )
    def test_match_50_digit_reference(self, gamma, log_n, fraction):
        # fraction 1 is a maximal bath (delta = 0, so the slow rate is
        # gamma / (4(N + 1/2 + sqrt(N(N+1)))) with the exact square root); otherwise
        # each rate is its defining expression in the float inputs.
        n = 10.0**log_n
        b = BathParams.maximal(gamma, n) if fraction == 1.0 else BathParams(
            gamma=gamma, n=n, m=fraction * maximal_m(n)
        )
        with mpmath.workdps(50):
            g, nn, m = (mpmath.mpf(x) for x in (b.gamma, b.n, b.m))
            fast = g * (nn + 0.5 + m)
            if fraction == 1.0:
                slow = g / (4 * (nn + 0.5 + mpmath.sqrt(nn * (nn + 1))))
            else:
                slow = g * (nn + 0.5 - m)
            expected = (fast, slow, g * (2 * nn + 1))
            for got, want in zip(b.rates, expected):
                assert abs(mpmath.mpf(got) - want) <= 4 * np.finfo(float).eps * want

    def test_delta_zero_only_for_maximal_bits(self):
        # M one ulp below maximal is a sub-maximal bath with its own slow rate.
        n = 1e7
        maximal = BathParams.maximal(1.0, n)
        below = BathParams(gamma=1.0, n=n, m=np.nextafter(maximal_m(n), 0.0))
        assert maximal.rates.slow == 1.0 / (4 * (n + 0.5 + maximal_m(n)))
        assert below.rates.slow > maximal.rates.slow
        assert not below.is_maximal
        assert maximal.rates.fast + maximal.rates.slow == pytest.approx(maximal.rates.z)


class TestBlochRates:
    def test_vacuum(self):
        a, c = bloch_rates(BathParams(gamma=1.0, n=0.0, m=0.0))
        assert np.allclose(a, np.diag([-0.5, -0.5, -1.0]), atol=1e-13)
        assert np.allclose(c, [0, 0, -1.0], atol=1e-13)

    def test_n1_maximal_psi0(self):
        a, c = bloch_rates(BathParams.maximal(1.0, 1.0, 0.0))
        m = np.sqrt(2)
        assert np.allclose(a, np.diag([-(1.5 + m), -(1.5 - m), -3.0]), atol=1e-12)
        assert np.allclose(c, [0, 0, -1.0], atol=1e-13)

    def test_cross_terms_at_psi_half_pi(self):
        b = BathParams.maximal(1.0, 1.0, np.pi / 2)
        a, _ = bloch_rates(b)
        assert abs(a[0, 1]) == pytest.approx(b.m, abs=1e-12)
        assert abs(a[1, 0]) == pytest.approx(b.m, abs=1e-12)

    def test_consistent_with_liouvillian(self):
        # Closed form against the dissipator itself, at maximal and sub-maximal M.
        rng = np.random.default_rng(10)
        for k in range(400):
            b = random_bath(rng, maximal=k % 2 == 0)
            a, c = bloch_rates(b)
            a_ref, c_ref = oracle_bloch_rates(b)
            assert np.max(np.abs(a - a_ref)) < 1e-12
            assert np.max(np.abs(c - c_ref)) < 1e-12
            rho = random_hermitian(rng)
            rho = rho / np.trace(rho).real if abs(np.trace(rho)) > 0.3 else rho + np.eye(2)
            rho = rho / np.trace(rho).real
            # rho need not be positive, so its Pauli coordinates are not a Bloch vector
            # that matrix_to_bloch accepts; they are read off like those of its image.
            paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
            v = np.array([np.trace(rho @ s).real for s in paulis])
            image = liouvillian(b, rho)
            lv = np.array([np.trace(image @ s).real for s in paulis])
            assert np.max(np.abs(lv - (a @ v + c * np.trace(rho).real))) < 1e-12


class TestRatesAgainstDissipator:
    """The survival rates as projections of (A, c), against <a|L(rho)|a> and <a|L(L(rho))|a>."""

    def test_survival_rate(self):
        rng = np.random.default_rng(11)
        for k in range(400):
            b = random_bath(rng, maximal=k % 2 == 0)
            state = rng.normal(size=2) + 1j * rng.normal(size=2)
            state /= np.linalg.norm(state)
            element = np.vdot(state, liouvillian(b, pure_state_matrix(state)) @ state).real
            assert survival_rate(b, state) == pytest.approx(min(element, 0.0), abs=1e-12)

    def test_second_order_rate(self):
        # Only frozen states pass the first-order gate: the two of each maximal bath, and
        # the vacuum ground state (whose <a|L(L(rho))|a> is 0).
        rng = np.random.default_rng(12)
        for _ in range(200):
            b = random_bath(rng, maximal=True)
            vacuum = BathParams(gamma=b.gamma, n=0.0, m=0.0, psi=b.psi)
            dt = 10 ** rng.uniform(-4, 0)
            for bath, state in [(b, z) for z in zeno_states(b)] + [(vacuum, GROUND)]:
                rho = pure_state_matrix(state)
                element = np.vdot(state, liouvillian(bath, liouvillian(bath, rho)) @ state).real
                assert second_order_rate(bath, state, dt) == pytest.approx(
                    0.5 * min(element, 0.0) * dt, abs=1e-12 * dt
                )


def test_maximal_m_helper():
    assert maximal_m(0.0) == 0.0
    assert maximal_m(1.0) == pytest.approx(np.sqrt(2))
