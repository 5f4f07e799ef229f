import ast
import builtins
import contextlib
import importlib.util
import inspect
import io
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squeezed_zeno
from squeezed_zeno import (
    BathParams,
    Direction,
    cli,
    maximal_m,
    pure_state_bloch,
    zeno_directions,
)
from squeezed_zeno.cli import (
    KEYS,
    STATES,
    bath_from_config,
    main,
    resolve_direction,
    resolve_state,
)
from squeezed_zeno.errors import InvalidStateError, ParameterError

from oracles import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    bernstein_bound,
    expm_propagator,
    find_zeno_directions_grid,
    moment_uncertainty_product,
    mp_relax,
    oracle_bloch_rates,
)

EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal

ROOT = Path(__file__).resolve().parents[1]


def run(tmp_path, command, config=None, extra=None):
    args = [command]
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    args += extra or []
    return main(args)


class TestSurface:
    def test_grid_and_sidecar(self, tmp_path):
        out = tmp_path / "surface.csv"
        code = run(
            tmp_path,
            "surface",
            {"N": 1.0, "psi": 0.0, "n_theta": 64, "n_phi": 64},
            ["--out", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,phi,F"
        assert len(lines) == 1 + 64 * 64
        data = np.loadtxt(lines[1:], delimiter=",")
        # argmax row consistent with the closed-form maxima
        best = data[np.argmax(data[:, 2])]
        assert np.cos(best[0]) == pytest.approx(-1 / (2 * (1.5 + np.sqrt(2))), abs=0.05)
        assert min(abs(best[1] - np.pi / 2), abs(best[1] - 3 * np.pi / 2)) < 0.1
        sidecar = json.loads((tmp_path / "surface.csv.maxima.json").read_text())
        assert sidecar["phi1"] == pytest.approx(np.pi / 2)
        assert sidecar["cos_theta_max"] == pytest.approx(-0.17157287525, abs=1e-9)

    def test_sidecar_phi_just_below_a_period_is_two_pi(self, capsys):
        # At psi one ulp above pi, phi1 = (pi - psi)/2 is -2.2e-16, within half an ulp of 2 pi
        # below 0: its reduction rounds to the double 2 pi, kept, not mapped to 0.
        argv = ["surface", "--set", "psi=3.1415926535897936", "--set", "n_theta=2", "--set", "n_phi=2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert '  "phi1": 6.283185307179586,' in out.splitlines()
        sidecar = json.loads(out[out.index("{") :])
        assert sidecar["phi1"] == 2 * math.pi and sidecar["phi2"] == math.pi

    def test_vacuum_max_at_south_pole(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            tmp_path,
            "surface",
            {"N": 0.0, "n_theta": 33, "n_phi": 8},
            ["--out", str(out)],
        )
        assert code == 0
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        best = data[np.argmax(data[:, 2])]
        assert best[0] == pytest.approx(np.pi)
        assert best[2] == pytest.approx(0.0, abs=1e-12)

    def test_frozen_cells_exactly_zero(self, capsys):
        # At N = 1/8 cos(theta*) = -1/2, so the 4x4 grid hits both frozen directions exactly;
        # rounding puts the unclipped closed form about 1e-17 above 0 there.
        argv = ["surface", "--set", "N=0.125", "--set", "psi=0", "--set", "n_theta=4", "--set", "n_phi=4"]
        assert main(argv) == 0
        table = parse_output(capsys.readouterr().out, "csv")[0]
        theta, phi, f = (table[name].reshape(4, 4) for name in ("theta", "phi", "F"))
        assert np.all(f <= 0.0)
        assert theta[2, 0] == pytest.approx(2 * np.pi / 3)
        assert phi[2, [1, 3]] == pytest.approx([np.pi / 2, 3 * np.pi / 2])
        assert f[2, 1] == 0.0 and f[2, 3] == 0.0
        assert np.all(f[np.arange(4) != 2] < 0) and np.all(f[2, [0, 2]] < 0)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        code = run(tmp_path, "surface", {"N": 1.0, "bogus": 3})
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_key_is_named_even_when_empty(self, capsys):
        # Each key is printed as its repr, so the empty key of --set =5 reads as ''.
        assert main(["surface", "--set", "=5"]) == 2
        assert capsys.readouterr().err == "config error: unknown config key(s) for surface: ''\n"

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["surface", "--config", str(cfg)]) == 2

    def test_no_sidecar_next_to_a_device(self, capsys):
        # Only a regular file gets a sidecar next to it: --out /dev/null writes none, where
        # a process may not be allowed to create one.
        sidecar = Path(os.devnull + ".maxima.json")
        existed = sidecar.exists()
        try:
            argv = ["surface", "--set", "n_theta=4", "--set", "n_phi=5", "--out", os.devnull]
            assert main(argv) == 0
            assert capsys.readouterr() == ("", "")
            assert not sidecar.exists()
        finally:
            if not existed:
                sidecar.unlink(missing_ok=True)

    def test_unwritable_path(self, tmp_path):
        code = run(
            tmp_path,
            "surface",
            {"N": 1.0, "n_theta": 8, "n_phi": 8},
            ["--out", str(tmp_path / "missing_dir" / "x.csv")],
        )
        assert code == 4


class TestEvolve:
    def test_zeno_plus_frozen_column(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = run(
            tmp_path,
            "evolve",
            {"N": 1.0, "psi": 0.0, "state": "zeno-plus", "measure": "mu1",
             "t_end": 2.0, "n_steps": 20},
            ["--out", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,sigma_mu_free,sigma_mu_measured"
        data = np.loadtxt(lines[1:], delimiter=",")
        assert np.max(np.abs(data[:, 2] - 1.0)) < 1e-10
        # the free column decays away from 1
        assert data[-1, 1] < 1.0 - 0.05

    def test_zeno_minus_exponential(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = run(
            tmp_path,
            "evolve",
            {"N": 1.0, "psi": 0.0, "state": "zeno-minus", "measure": "mu1",
             "t_end": 5.0, "n_steps": 50},
            ["--out", str(out)],
        )
        assert code == 0
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        alpha = 2 * (1.5 - np.sqrt(2))
        expected = 1 - 2 * np.exp(-alpha * data[:, 0])
        assert np.max(np.abs(data[:, 2] - expected)) < 1e-8

    @pytest.mark.parametrize("measure", ["x", "y", "z"])
    def test_zeno_pair_has_opposite_bloch_vectors(self, capsys, measure):
        # zeno-minus is built from zeno-plus = (a, b) as (-b*, a*), so the two are
        # orthogonal at every M, not only at maximal squeezing. At t = 0 both columns
        # are mu . v0, exactly opposite.
        rows = {}
        for state in ("zeno-plus", "zeno-minus"):
            sets = ["N=1", "M=0.5", "n_steps=1", f"measure={measure}", f"state={state}"]
            assert main(["evolve"] + [arg for s in sets for arg in ("--set", s)]) == 0
            rows[state] = parse_output(capsys.readouterr().out, "csv")[0]
        plus, minus = rows["zeno-plus"], rows["zeno-minus"]
        assert minus["sigma_mu_free"][0] == -plus["sigma_mu_free"][0]
        assert minus["sigma_mu_measured"][0] == -plus["sigma_mu_measured"][0]

    def test_vacuum_z_measurement_matches_free(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = run(
            tmp_path,
            "evolve",
            {"N": 0.0, "M": 0.0, "state": "excited", "measure": "-z",
             "t_end": 3.0, "n_steps": 30},
            ["--out", str(out)],
        )
        assert code == 0
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-8

    def test_slow_bath_reaches_steady_state(self, capsys):
        # Every rate scales with gamma, so gamma = 1e-20 over t = 1e22 is gamma = 1
        # over t = 100: both columns end at -1/(2N+1).
        sets = ["gamma=1e-20", "t_end=1e22", "n_steps=2", "state=excited", "measure=z"]
        assert main(["evolve"] + [arg for s in sets for arg in ("--set", s)]) == 0
        data = np.loadtxt(capsys.readouterr().out.splitlines()[1:], delimiter=",")
        np.testing.assert_allclose(data[1:, 1:], -1 / 3, rtol=4 * np.finfo(float).eps)

    def test_json_format(self, tmp_path):
        out = tmp_path / "evolve.json"
        code = run(
            tmp_path,
            "evolve",
            {"N": 1.0, "state": "excited", "measure": "z",
             "t_end": 1.0, "n_steps": 5, "format": "json"},
            ["--out", str(out)],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["t", "sigma_mu_free", "sigma_mu_measured"]
        assert len(payload["rows"]) == 6


class TestZeno:
    def test_zeno_plus_second_order_deficit(self, tmp_path):
        out = tmp_path / "zeno.csv"
        code = run(
            tmp_path,
            "zeno",
            {"N": 1.0, "psi": 0.0, "state": "zeno-plus", "dt": 0.01, "count": 200},
            ["--out", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,P_exact,P_first_order,P_second_order"
        data = np.loadtxt(lines[1:], delimiter=",")
        assert np.all(data[:, 1] > 0.995)
        # exact curve tracks the second-order law, not the (flat) first-order one
        assert np.max(np.abs(data[:, 1] - data[:, 3])) < 1e-4

    def test_excited_vacuum_first_order(self, tmp_path):
        out = tmp_path / "zeno.csv"
        code = run(
            tmp_path,
            "zeno",
            {"N": 0.0, "M": 0.0, "state": "excited", "dt": 0.001, "count": 1000},
            ["--out", str(out)],
        )
        assert code == 0
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        assert data[-1, 1] == pytest.approx(np.exp(-1.0), rel=0.01)
        assert np.all(np.isnan(data[:, 3]))

    def test_monte_carlo_deterministic(self, tmp_path):
        config = {"N": 1.0, "state": "zeno-plus", "dt": 0.02, "count": 50,
                  "n_traj": 2000, "seed": 5}
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(tmp_path, "zeno", config, ["--out", str(out1)]) == 0
        assert run(tmp_path, "zeno", config, ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.endswith("P_mc,P_mc_stderr")

    @pytest.mark.parametrize(
        "state, message",
        [
            ("[0,0,1]", "zeno requires a named pure initial state"),
            ("bogus", "unknown state 'bogus'"),
        ],
    )
    def test_state_rejected(self, tmp_path, capsys, state, message):
        assert run(tmp_path, "zeno", extra=["--set", f"state={state}"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestStrongSqueezing:
    """At large N the slow rate gamma / (4(N + 1/2 + M)) is far below gamma(N + 1/2)."""

    def run_csv(self, capsys, argv):
        assert main(argv) == 0
        return parse_output(capsys.readouterr().out, "csv")[0]

    def test_frozen_state_has_a_second_order_law(self, capsys):
        table = self.run_csv(capsys, ["zeno", "--set", "N=1e7", "--set", "count=3"])
        assert np.all(np.isfinite(table["P_second_order"]))
        assert np.all(np.diff(table["P_second_order"]) < 0)

    def test_frozen_state_stays_frozen_under_measurement(self, capsys):
        argv = ["evolve", "--set", "N=1e7", "--set", "n_steps=2", "--set", "t_end=1e9"]
        table = self.run_csv(capsys, argv)
        assert np.all(np.abs(table["sigma_mu_measured"] - 1.0) < 1e-12)

    def test_free_state_decays_at_the_slow_rate(self, capsys):
        argv = ["evolve", "--set", "N=1e9", "--set", "n_steps=2", "--set", "t_end=1e9"]
        table = self.run_csv(capsys, argv)
        slow = 1.0 / (4 * (1e9 + 0.5 + np.sqrt(1e9 * (1e9 + 1))))
        expected = np.exp(-slow * table["t"])  # about 1, 0.939, 0.882
        np.testing.assert_allclose(table["sigma_mu_free"], expected, rtol=1e-9)

    def test_unfrozen_state_has_no_second_order_law(self, capsys):
        # The -1 eigenstate's first-order rate is below 1e-10 gamma but does not vanish.
        argv = ["zeno", "--set", "N=1e10", "--set", "state=zeno-minus",
                "--set", "count=2", "--set", "dt=1e6"]
        table = self.run_csv(capsys, argv)
        assert np.all(np.isnan(table["P_second_order"]))
        assert table["P_first_order"][-1] < 1.0


def run_zeno(config: dict):
    """Exit code and the named CSV columns that zeno writes to stdout."""
    argv = ["zeno"]
    for key, value in config.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    lines = stdout.getvalue().splitlines()
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return code, dict(zip(lines[0].split(","), data.T))


def assert_survival_invariants(columns: dict):
    """Every P_* value lies in [0, 1]; the exact and Monte Carlo curves never increase.

    P_second_order is all NaN where the first-order rate does not vanish.
    """
    for name, values in columns.items():
        if name == "P_second_order" and np.all(np.isnan(values)):
            continue
        if name.startswith("P_"):
            assert np.all((values >= 0) & (values <= 1)), name
    for name in ("P_exact", "P_mc"):
        if name in columns:
            assert np.all(np.diff(columns[name]) <= 0), name


class TestZenoInvariants:
    def test_nearly_frozen_state_stays_in_unit_interval(self):
        # One-step survival rounded to 1 + 1 ulp here; P_exact printed values above 1.
        code, columns = run_zeno(
            {"gamma": 0.0416, "N": 0.000602, "psi": 5.179, "dt": 1e-6, "count": 3, "n_traj": 10}
        )
        assert code == 0
        assert_survival_invariants(columns)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_valid_configs(self, data):
        state = data.draw(st.sampled_from(["excited", "ground", "zeno-plus", "zeno-minus"]))
        n = data.draw(st.floats(0.0 if state in ("excited", "ground") else 1e-6, 50.0))
        config = {
            "gamma": data.draw(st.floats(1e-3, 1e3)),
            "N": n,
            "M": data.draw(
                st.one_of(st.just("maximal"), st.floats(0.0, 1.0).map(lambda f: f * maximal_m(n)))
            ),
            "psi": data.draw(st.floats(0.0, 2 * np.pi)),
            "state": state,
            "dt": data.draw(st.floats(1e-6, 10.0)),
            "count": data.draw(st.integers(1, 200)),
            "n_traj": data.draw(st.integers(0, 10**6)),
            "seed": data.draw(st.integers(0, 2**64 - 1)),
        }
        code, columns = run_zeno(config)
        assert code == 0
        assert_survival_invariants(columns)


# Texts that no key accepts: not a number, not finite, or not a name.
NOT_A_NUMBER = ["NaN", "Infinity", "-Infinity", "1e400", '"1"', "true", "null", "abc", "[1]"]
# Texts that no integer key accepts: below every minimum, fractional, or above every cap.
NOT_A_COUNT = ["-1", "2.5", "1e15", "4194305", '"5"', "true", "null"]
DIRECTION_NAMES = ["mu1", "mu2", "x", "y", "z", "-z"]


def log_uniform(low: float, high: float):
    """10**e for e uniform in [low, high]: every decade of the float range alike."""
    return st.floats(low, high).map(lambda e: 10.0**e)


# Per key: a strategy of values (sizes kept small, so each run is cheap) and the
# invalid --set texts that must end in exit 2. gamma, t_end and dt span the float
# range, gamma down to the smallest subnormal, so a drawn value can still be out of
# range (exit 2), such as a rate above the bath's bound. N also spans tiny values,
# where the squeeze ratio rounds to 1.
KEY_VALUES = {
    "gamma": (log_uniform(-323.3, 300), ["0", "-1"] + NOT_A_NUMBER),
    "N": (st.one_of(st.floats(0.0, 50.0), log_uniform(-45, -30)), ["-1"] + NOT_A_NUMBER),
    "M": (st.one_of(st.just("maximal"), st.floats(0.0, 1.0)), ["1e9", '"max"'] + NOT_A_NUMBER),
    "psi": (st.floats(-10.0, 10.0), NOT_A_NUMBER),
    "seed": (st.integers(0, 2**64 - 1), ["-1", "1.5", "true"]),
    "format": (st.sampled_from(["csv", "json"]), ['"xml"', "1", "[1]", "{}"]),
    "out": (st.nothing(), ["1", "null", '""']),
    "n_theta": (st.integers(1, 24), NOT_A_COUNT),
    "n_phi": (st.integers(1, 24), NOT_A_COUNT),
    "state": (
        st.one_of(
            st.sampled_from(["excited", "ground", "zeno-plus", "zeno-minus"]),
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
                lambda v: [x / max(1.0, float(np.linalg.norm(v))) for x in v]
            ),
        ),
        ['"bogus"', "[2,0,0]", "[NaN,0,0]", "[1,1]", "null"],
    ),
    "measure": (
        st.one_of(
            st.sampled_from(DIRECTION_NAMES),
            st.tuples(st.floats(0.0, np.pi), st.floats(-10.0, 10.0)).map(list),
        ),
        ['"w"', '"none"', "[4,0]", "[1]", "[0,NaN]", "null"],
    ),
    "t_end": (log_uniform(-300, 308), ["0", "-1"] + NOT_A_NUMBER),
    "n_steps": (st.integers(1, 64), NOT_A_COUNT),
    "dt": (log_uniform(-300, 308), ["0", "-0.01"] + NOT_A_NUMBER),
    "count": (st.integers(1, 64), NOT_A_COUNT),
    "n_traj": (st.integers(0, 10**6), ["-1", "1e20", "2.5"]),
}
# Keys whose default would make a run expensive; they are always set.
SIZE_KEYS = {"n_theta", "n_phi", "n_steps", "count"}


def below_maximal(n: float):
    """M just below maximal_m(N): (1 - 10**-k) of it for k = 1..15."""
    return st.integers(1, 15).map(lambda k: maximal_m(n) * (1.0 - 10.0**-k))


# The uncertainty keys of the report, in the order of moment_uncertainty_product's values.
UNCERTAINTY_KEYS = ("var_j1", "var_j2", "bound", "saturation_gap")
# Each variance is a difference of terms of size at most 1/4 (J1^2 = J2^2 = 1/4), and the
# bound and the gap are differences of terms of size at most 1/16. Rounding errs by a few
# eps of those sizes, not of the results, which vanish for a polarized state: at most
# 4 eps / 4 and 6 eps / 16 against the moments in 40 000 draws. 16 eps of the size is allowed.
UNCERTAINTY_TOLERANCE = 16 * EPS * np.array([1 / 4, 1 / 4, 1 / 16, 1 / 16])


def assert_report_holds(report: dict):
    """S z = lambda z for both eigenpairs, the uncertainty numbers of each eigenvector
    against its operator moments, and S = 2 lambda_+ J_-(alpha) where reported."""
    n, psi = report["N"], report["psi"]
    s = np.sqrt(n + 1) * SIGMA_MINUS - np.sqrt(n) * np.exp(1j * psi) * SIGMA_PLUS
    for branch in ("plus", "minus"):
        lam = complex(*report[f"lambda_{branch}"])
        z = np.array([complex(*amplitude) for amplitude in report[f"state_{branch}"]])
        assert np.linalg.norm(s @ z - lam * z) <= 1e-12, branch
        printed = [report["uncertainty"][branch][key] for key in UNCERTAINTY_KEYS]
        error = np.abs(np.subtract(printed, moment_uncertainty_product(z, psi)))
        assert np.all(error <= UNCERTAINTY_TOLERANCE), (branch, error)
    if "factorization_residual" in report:
        assert report["factorization_residual"] <= 1e-12


# scipy's expm returns NaN once gamma(2N+1) dt, the 1-norm of the augmented generator over
# one step, reaches 2^128 (about 3.4e38); there P_exact is left to the survival invariants.
EXPM_REACH = 1e38


def assert_exact_survival_holds(config: dict, p_exact: np.ndarray):
    """P_exact is p^k, p = (1 + v0 . (P v0 + q)) / 2 with (P, q) = expm_propagator(bath, dt).

    scipy's expm scales A dt by 2^-s, s about log2 of x = gamma(2N+1) dt, and squares s
    times; each squaring can double the error made so far, so its p errs by O(eps (1 + x))
    (at most 10 eps (1 + x) in 20 000 draws; 32 allowed), and the closed form by an eps.
    By the mean value theorem |p^k - p'^k| <= k |p - p'| max(p, p')^(k-1): relative to
    p^k, k |p - p'| / p. Each power is one pow, within an ulp: 2 eps relative, or 2 ulps
    of the subnormal range.
    """
    config = dict(KEYS["zeno"], **config)
    bath = bath_from_config(config)
    x = bath.gamma * (2 * bath.n + 1) * config["dt"]
    if not x < EXPM_REACH:
        return
    v0 = pure_state_bloch(STATES[config["state"]](bath))
    propagator, shift = expm_propagator(bath, config["dt"])
    p = 0.5 * (1.0 + v0 @ (propagator @ v0 + shift))
    k = np.arange(len(p_exact))
    expected = p**k
    spread = k * 32 * EPS * (1.0 + x) * max(abs(p), p_exact[1]) ** np.maximum(k - 1, 0)
    tolerance = spread + 2 * EPS * np.maximum(p_exact, np.abs(expected))
    tolerance += 2 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(p_exact - expected) <= tolerance), (p, p_exact[1])


def assert_laws_hold(config: dict, table: dict):
    """P_first_order and P_second_order against their exponential laws in 50 digits, and
    the Monte Carlo columns against their definitions.

    With v the Bloch vector of the state and (A, c) from oracle_bloch_rates, the first-order
    law decays at r1 = min(v . (A v + c) / 2, 0) and the second-order law, where printed, at
    r2 = min(v . A (A v + c) dt / 4, 0). Both sides form each rate from terms of size up to
    z = gamma(2N+1), or z^2 for r2, each rounded to a few eps of its size, not of the rate,
    which vanishes for a frozen state. A rate off by d moves exp(r t) by a relative d t: with
    x = z t and y = z dt, a few eps x for P_first_order and a few eps x y for P_second_order.
    At a subnormal gamma each term is rounded to a multiple of the smallest subnormal, which
    t (and dt) multiply. Each side rounds once more, within 2 eps. In 15 000 random draws
    the worst was 1.1 eps (1 + x) and 0.5 eps (1 + x y) relative; 16 eps is allowed, plus
    64 times the smallest subnormal times t, or dt t, relative, and 2 of it absolute.

    P_mc starts at 1, as every trajectory is alive before the first measurement, and lies
    within bernstein_bound of P_exact at a false-alarm probability of 1e-10 per point, that
    of bench/checks.py. P_mc_stderr is the binomial standard error
    sqrt(P_mc (1 - P_mc) / n_traj) of the printed P_mc, which is exact in both formats:
    equal but for the order of its operations, 1 eps.
    """
    config = dict(KEYS["zeno"], **config)
    bath = bath_from_config(config)
    v = pure_state_bloch(STATES[config["state"]](bath))
    a, c = oracle_bloch_rates(bath)
    t, dt = table["t"], config["dt"]
    with np.errstate(over="ignore", invalid="ignore"):
        r1 = min(0.5 * v @ (a @ v + c), 0.0)
        r2 = min(0.25 * v @ a @ (a @ v + c) * dt, 0.0)
        x = bath.gamma * (2 * bath.n + 1) * t
        y = bath.gamma * (2 * bath.n + 1) * dt
        checks = [("P_first_order", r1, 16 * EPS * (1 + x) + 64 * TINY * t)]
        if not np.all(np.isnan(table["P_second_order"])):
            # x y is 0 at t = 0, also where y overflows.
            xy = np.where(t > 0, x * y, 0.0)
            checks.append(("P_second_order", r2, 16 * EPS * (1 + xy) + 64 * TINY * dt * t))
        for name, rate, relative in checks:
            # exp(rate t) in 50 digits; 1 at t = 0, also for an infinite rate.
            expected = np.array([mp_relax(1.0, -rate, time) if time else 1.0 for time in t])
            scale = np.maximum(table[name], expected)
            tolerance = np.where(scale > 0, relative * scale, 0.0) + 2 * TINY
            assert np.all(np.abs(table[name] - expected) <= tolerance), (name, rate)
    if config["n_traj"]:
        p_mc = table["P_mc"]
        assert p_mc[0] == 1.0
        bound = bernstein_bound(table["P_exact"], config["n_traj"], 1e-10)
        assert np.all(np.abs(p_mc - table["P_exact"]) <= bound)
        stderr = np.sqrt(p_mc * (1.0 - p_mc) / config["n_traj"])
        assert np.all(np.abs(table["P_mc_stderr"] - stderr) <= EPS * stderr)


def assert_evolve_holds(config: dict, table: dict):
    """Each row against oracles: sigma_mu_free against expm_propagator, sigma_mu_measured
    against the monitored law in 50 digits, mu . v0 relaxing at rate -beta toward -alpha / beta
    with alpha = mu . c and beta = mu . A mu, (A, c) from oracle_bloch_rates.

    With x = gamma(2N+1) t, the rows err by:
    - expm: O(eps (1 + x)), as for P_exact (assert_exact_survival_holds); at most
      20 eps (1 + x) in 6000 draws, 64 eps (1 + x) allowed. Rows with x >= EXPM_REACH are
      left to the invariants.
    - the monitored law: (A, c) from the 2x2 dissipator err by a few eps gamma(2N+1), the
      size of their terms, not of beta, which the slow mode makes as small as
      gamma / (4(2N+1)). An error d(alpha) + 2 d(beta) moves the law by at most
      min(t, 1/|beta|) times it: a few eps times min(x, 4(2N+1)^2). The closed form errs by
      a few eps. At most 0.5 eps (1 + min(x, 4(2N+1)^2)) in 6000 draws; 8 eps (1 + ...) allowed.
    - both: at a subnormal gamma, each term of (A, c) and of the mode rates is rounded to
      a multiple of the smallest subnormal, which t multiplies: 64 of it times t.
    Each side then rounds once more, within 2 eps of the value.
    """
    config = dict(KEYS["evolve"], **config)
    bath = bath_from_config(config)
    v0 = resolve_state(config["state"], bath)
    mu = np.array(resolve_direction(config["measure"], bath).unit_vector)
    t = table["t"]
    with np.errstate(over="ignore"):
        x = bath.gamma * (2 * bath.n + 1) * t
    free, measured = table["sigma_mu_free"], table["sigma_mu_measured"]
    for k in np.flatnonzero(x < EXPM_REACH):
        propagator, shift = expm_propagator(bath, t[k])
        expected = np.clip(mu @ (propagator @ v0 + shift), -1.0, 1.0)
        tolerance = 64 * EPS * (1 + x[k]) + 64 * TINY * t[k] + 2 * EPS * abs(expected)
        assert abs(free[k] - expected) <= tolerance, (k, free[k], expected)
    a, c = oracle_bloch_rates(bath)
    alpha, beta = mu @ c, mu @ a @ mu
    reach = np.minimum(x, 4 * (2 * bath.n + 1) ** 2)
    for k, time in enumerate(t):
        expected = np.clip(mp_relax(mu @ v0, -beta, time, alpha), -1.0, 1.0)
        tolerance = 8 * EPS * (1 + reach[k]) + 64 * TINY * time + 2 * EPS * abs(expected)
        assert abs(measured[k] - expected) <= tolerance, (k, measured[k], expected)


def assert_surface_holds(config: dict, table: dict, sidecar: dict):
    """F against 1/2 mu . (A mu + c), (A, c) from oracle_bloch_rates, and the sidecar's
    maxima against a grid scan with polish (find_zeno_directions_grid).

    F: (A, c) err by a few eps of gamma(2N+1), the size of their terms, and so does the
    closed form (generator_terms): at most 2.2 eps gamma(2N+1) in 6000 draws. 16 eps
    gamma(2N+1) is allowed, plus 64 times the smallest subnormal for a subnormal gamma.
    Maxima: they do not depend on gamma, so the scan runs at gamma = 1, where its F is
    of order 1. At the maxima F has curvature kappa_phi = 2 M sin^2(theta) along phi
    and fast sin^2(theta) >= kappa_phi / 2 along theta (gamma = 1). The polish stops
    where F changes by less than its rounding, about 4 eps (2N+1), or its fatol 1e-14;
    so an angle is found within sqrt(2 (1e-14 + 4 eps (2N+1)) / kappa), kappa the
    smaller curvature (at most 0.13 of it in 6000 draws). Where kappa < 1e-3 (N below about
    1.3e-4 at maximal M, or M near 0), F is nearly flat along a ring of phi, the scan
    finds other points of the ring, and the sidecar is left to the invariants.
    """
    config = dict(KEYS["surface"], **config)
    bath = bath_from_config(config)
    theta, phi = table["theta"], table["phi"]
    mus = np.stack((np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)), -1)
    a, c = oracle_bloch_rates(bath)
    expected = np.minimum(0.5 * np.einsum("ri,ri->r", mus, mus @ a.T + c), 0.0)
    tolerance = 16 * EPS * bath.gamma * (2 * bath.n + 1) + 64 * TINY
    assert np.all(np.abs(table["F"] - expected) <= tolerance)
    sin_sq = 1.0 - sidecar["cos_theta_max"] ** 2
    kappa = sin_sq * min(2 * bath.m, bath.n + 0.5 + bath.m)
    if kappa < 1e-3:
        return
    unit = BathParams(1.0, bath.n, bath.m, bath.psi)
    found = find_zeno_directions_grid(unit)
    within = np.sqrt(2 * (1e-14 + 4 * EPS * (2 * bath.n + 1)) / kappa)
    targets = [
        np.array(Direction(sidecar["theta"], sidecar["phi1"]).unit_vector),
        np.array(Direction(sidecar["theta"], sidecar["phi2"]).unit_vector),
    ]
    distances = [[np.linalg.norm(d.unit_vector - target) for target in targets] for d, _ in found]
    assert len(found) == 2 and np.all(np.min(distances, axis=0) <= within), distances


def parse_output(text: str, fmt: str) -> list:
    """What a command wrote to stdout: each table as {name: column}, each JSON document as is."""
    documents = []
    if fmt == "csv" and not text.startswith("{"):
        end = text.find("\n{") + 1 or len(text)
        lines = text[:end].splitlines()
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        documents.append(dict(zip(lines[0].split(","), rows.T)))
        text = text[end:]
    while text:
        document, end = json.JSONDecoder().raw_decode(text)
        if isinstance(document, dict) and set(document) == {"columns", "rows"}:
            rows = np.array(document["rows"], dtype=float)
            document = dict(zip(document["columns"], rows.T))
        documents.append(document)
        text = text[end:].lstrip("\n")
    return documents


def numbers(document):
    """Every number in a JSON document, as a flat float array."""
    if isinstance(document, dict):
        return np.concatenate([numbers(v) for v in document.values()] + [np.empty(0)])
    if isinstance(document, list):
        return np.concatenate([numbers(v) for v in document] + [np.empty(0)])
    if isinstance(document, (int, float)) and not isinstance(document, bool):
        return np.array([float(document)])
    return np.empty(0)


class TestCliInvariants:
    """Random configs of every subcommand, valid and invalid, across the whole key space."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_config(self, data):
        command = data.draw(st.sampled_from(sorted(KEYS)))
        # M is drawn last, so that it can be drawn just below maximal_m(N).
        keys = sorted({*KEYS[command], "out"}, key=lambda key: (key == "M", key))
        argv, config = [command], {}
        for key in keys:
            valid, invalid = KEY_VALUES[key]
            # About one config in four has an invalid value; "out" is set only then.
            if data.draw(st.integers(0, 4 * len(keys) - 1)) == 0:
                text = data.draw(st.sampled_from(invalid))
            elif key == "out" or key not in SIZE_KEYS and not data.draw(st.booleans()):
                continue
            else:
                if key == "M":
                    valid = st.one_of(valid, below_maximal(config.get("N", KEYS[command]["N"])))
                config[key] = data.draw(valid)
                text = json.dumps(config[key])
            argv += ["--set", f"{key}={text}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out, err = stdout.getvalue(), stderr.getvalue()
        # Every config either runs or is rejected with a config error.
        assert code in (0, 2), err
        if code:
            assert out == ""
            assert err.startswith("config error: ")
            return
        assert err == ""
        documents = parse_output(out, config.get("format", "csv"))
        if command == "intelligent":
            assert np.all(np.isfinite(numbers(documents[0])))
            assert_report_holds(documents[0])
            return
        table = documents[0]
        for name, column in table.items():
            if name == "P_second_order" and np.all(np.isnan(column)):
                continue
            assert np.all(np.isfinite(column)), name
        if command == "surface":
            assert len(table["F"]) == config["n_theta"] * config["n_phi"]
            # F is the survival rate of the measured state: survival never increases.
            assert np.all(table["F"] <= 0.0)
            assert np.all(np.isfinite(numbers(documents[1])))
            assert_surface_holds(config, table, documents[1])
        elif command == "evolve":
            assert len(table["t"]) == config["n_steps"] + 1
            for name in ("sigma_mu_free", "sigma_mu_measured"):
                assert np.all(np.abs(table[name]) <= 1.0), name
            assert_evolve_holds(config, table)
        else:
            assert len(table["t"]) == config["count"] + 1
            assert_survival_invariants(table)
            assert_exact_survival_holds(config, table["P_exact"])
            assert_laws_hold(config, table)

class TestIntelligent:
    def test_report_n1(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(tmp_path, "intelligent", {"N": 1.0, "psi": 0.0}, ["--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert not report["degenerate"]
        assert report["lambda_plus"][1] == pytest.approx(2**0.25, abs=1e-12)
        for branch in ("plus", "minus"):
            assert abs(report["uncertainty"][branch]["saturation_gap"]) < 1e-12
        assert report["factorization_residual"] < 1e-12

    def test_degenerate_vacuum(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(tmp_path, "intelligent", {"N": 0.0, "M": 0.0}, ["--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["degenerate"]
        assert "warning" in report

    @pytest.mark.parametrize("n", [1e-300, 1e-40, 1e-30, 1e-12])
    def test_squeeze_ratio_rounding_to_one(self, capsys, n):
        # alpha = e^{2r} rounds to 1, or so near 1 that 1 - alpha^2 formed from it would set
        # the residual (4e-4 at N = 1e-30): J_-(alpha) is formed from r, and the report keeps
        # the factorization, to 1e-12, down to N -> 0.
        assert main(["intelligent", "--set", f"N={n}"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert not report["degenerate"]
        for key in ("lambda_plus", "lambda_minus", "state_plus", "state_minus"):
            assert np.all(np.isfinite(report[key])), key
        for branch in ("plus", "minus"):
            assert abs(report["uncertainty"][branch]["saturation_gap"]) < 1e-12
        assert report["factorization_residual"] <= 1e-12
        assert report["squeeze_amplitude"] > 0.0
        assert_report_holds(report)

    def test_largest_squeezing(self, capsys):
        # alpha = e^{2r} is about 4e154 here, so alpha^2 is past the float range.
        assert main(["intelligent", "--set", "N=1e154", "--set", "gamma=1e-10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert np.all(np.isfinite(numbers(report)))
        assert report["alpha_ratio"] > 1e154

    def test_eigenvalues_n2(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(tmp_path, "intelligent", {"N": 2.0, "psi": 1.3}, ["--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        m = np.sqrt(6.0)
        target = 1j * np.sqrt(m) * np.exp(1j * 0.65)
        lam = complex(*report["lambda_plus"])
        assert lam == pytest.approx(target, abs=1e-12)


class TestOverridesAndDeterminism:
    def test_set_overrides(self, tmp_path):
        out = tmp_path / "surface.csv"
        code = run(
            tmp_path,
            "surface",
            {"N": 1.0, "n_theta": 64, "n_phi": 64},
            ["--set", "n_theta=8", "--set", "n_phi=8", "--out", str(out)],
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 8 * 8

    def test_byte_identical_reruns(self, tmp_path):
        config = {"N": 1.0, "psi": 0.0, "n_theta": 16, "n_phi": 16}
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(tmp_path, "surface", config, ["--out", str(a)]) == 0
        assert run(tmp_path, "surface", config, ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        code = run(tmp_path, "surface", {"N": 1.0, "format": "xml"})
        assert code == 2


# One small run of each subcommand, Monte Carlo included.
SMALL_RUNS = (
    ["surface", "--set", "n_theta=8", "--set", "n_phi=8"],
    ["evolve", "--set", "n_steps=8"],
    ["zeno", "--set", "count=8", "--set", "n_traj=100"],
    ["intelligent"],
)


# Top-level modules of the `test` extra (pytest's own code is in _pytest).
TEST_EXTRA_MODULES = ("scipy", "mpmath", "hypothesis", "pytest", "_pytest")


# argv of a usage error (argparse's SystemExit 2) or a config error (main returns 2), each
# caught before the command computes; {missing} and {invalid} are config file paths.
CONFIG_ERRORS = (
    ["bogus"],
    ["evolve", "--set", "N"],
    ["zeno", "--set", "bogus=1"],
    ["evolve", "--set", "gamma=NaN"],
    ["zeno", "--set", "count=0"],
    ["evolve", "--format", "xml"],
    ["evolve", "--out", ""],
    ["evolve", "--config", "{missing}"],
    ["evolve", "--config", "{invalid}"],
)


def test_cli_import_loads_no_scipy(tmp_path):
    # Importing the package and the CLI, --help, and every usage or config error load
    # no numpy. Running every subcommand then loads numpy alone, and no module of the
    # test extra.
    src = ROOT / "src"
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{")
    paths = {"missing": str(tmp_path / "missing.json"), "invalid": str(invalid)}
    errors = [[arg.format(**paths) for arg in argv] for argv in CONFIG_ERRORS]
    script = (
        "import contextlib, io, os, sys\n"
        "import squeezed_zeno\n"
        "from squeezed_zeno.cli import main\n"
        "assert 'BathParams' in dir(squeezed_zeno)\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "def code(argv):\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            with contextlib.redirect_stderr(io.StringIO()):\n"
        "                return main(argv)\n"
        "    except SystemExit as exc:\n"
        "        return exc.code\n"
        "assert code(['--help']) == 0\n"
        "assert 'numpy' not in sys.modules, '--help'\n"
        f"for argv in {errors!r}:\n"
        "    assert code(argv) == 2, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        f"for argv in {SMALL_RUNS!r}:\n"
        "    assert code(argv) == 0, argv\n"
        f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {TEST_EXTRA_MODULES!r}))\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]


# Printed to stderr at the end of a script: the threads of its process, or None where
# /proc/self/task is missing.
PRINT_THREADS = (
    "tasks = '/proc/self/task'\n"
    "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else None, file=sys.stderr)\n"
)


def threads_after(script, blas_threads=None):
    """The thread count that script leaves, as text, run with OPENBLAS_NUM_THREADS set to
    blas_threads (unset for None), after checking that it exits 0."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", "import os, sys\n" + script + PRINT_THREADS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1]


@pytest.mark.parametrize("blas_threads", [None, "2"])
def test_process_entry_runs_numpy_on_one_blas_thread(blas_threads):
    # run, the entry of python -m squeezed_zeno and of the console script, loads numpy
    # with one OpenBLAS thread unless OPENBLAS_NUM_THREADS chose a count, which it keeps:
    # with 2, the process has the threads of plain numpy under the same setting, 2 on a
    # host with 2 or more CPUs.
    script = (
        "from squeezed_zeno.__main__ import run\n"
        "assert run(['zeno', '--set', 'count=5', '--set', 'n_traj=10']) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    threads = threads_after(script, blas_threads)
    if threads != "None":
        expected = "1" if blas_threads is None else threads_after("import numpy\n", "2")
        assert threads == expected


def test_library_keeps_numpys_thread_default():
    # The library leaves numpy's thread count and the environment alone: after a computation
    # os.environ is as it was, and the process has the threads of plain numpy.
    script = (
        "import squeezed_zeno\n"
        "before = dict(os.environ)\n"
        "bath = squeezed_zeno.BathParams.maximal(1.0, 1.0)\n"
        "grid = squeezed_zeno.TimeGrid(1.0, 4)\n"
        "assert squeezed_zeno.evolve_free(bath, [0.0, 0.0, 1.0], grid).shape == (5, 3)\n"
        "assert dict(os.environ) == before\n"
    )
    threads = threads_after(script)
    if threads != "None":
        assert threads == threads_after("import numpy\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["intelligent", "--set", "N=2", "--set", "psi=1.3"], 0),
        (["intelligent", "--set", "N=0"], 0),
        (["intelligent", "--set", "M=0.5"], 2),
    ],
    ids=["maximal", "degenerate", "non-maximal"],
)
def test_intelligent_loads_no_numpy(argv, code):
    # intelligent computes from closed-form scalars: at maximal squeezing, at the degenerate
    # N = 0 and on the config error of a non-maximal M, numpy stays unloaded, and the three
    # functions of the report are cli attributes, the ones that a tracer wraps.
    script = (
        "import contextlib, io, sys\n"
        "from squeezed_zeno import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == {code}\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in ('s_eigensystem', 'uncertainty_product', 'factorization_residual'):\n"
        "    assert vars(cli)[name].__module__ == 'squeezed_zeno.intelligent', name\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (["surface", "--set", "n_theta=5", "--set", "n_phi=6"], 0),
        (["surface", "--set", "n_theta=5", "--set", "n_phi=7", "--format", "json"], 0),
        (["surface", "--set", "N=0", "--out", "{out}.csv"], 0),
        (["surface", "--set", "M=0.5", "--format", "json", "--out", "{out}.json"], 0),
        (["surface", "--set", "M=2"], 2),
    ],
    ids=["csv", "json", "csv-out", "json-out", "config-error"],
)
def test_surface_loads_no_numpy(tmp_path, argv, code):
    # surface computes its grid and its maxima from Python floats: with or without --out
    # (and so its sidecar file), as CSV or JSON, and on a config error, numpy stays
    # unloaded, and the kernel and the maxima are cli attributes, the ones a tracer wraps.
    argv = [arg.format(out=tmp_path / "surface") for arg in argv]
    script = (
        "import contextlib, io, sys\n"
        "from squeezed_zeno import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == {code}\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in ('survival_functional_rows', 'zeno_directions'):\n"
        "    assert vars(cli)[name].__module__ == 'squeezed_zeno.bath', name\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        assert Path(out).stat().st_size > 0
        assert json.loads(Path(out + ".maxima.json").read_text())["theta"] > 0


def test_numpy_free_names_whole_modules():
    # No _NUMPY_FREE module imports numpy, at the top level or in a function, and each
    # imports from the package only other _NUMPY_FREE modules. Only the array modules import
    # numpy at their top level, and only table._blocks imports it in a function. No module
    # but __main__ reads or writes os.environ.
    package = ROOT / "src" / "squeezed_zeno"
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    free = set(squeezed_zeno._NUMPY_FREE)
    for name in sorted(free):
        for node in ast.walk(trees[name]):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1, (name, node.lineno)
                imported = [node.module] if node.module else [a.name for a in node.names]
                assert {module.partition(".")[0] for module in imported} <= free, (name, imported)
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module]
            else:
                continue
            for module in imported:
                assert module.partition(".")[0] != "numpy", (name, module)

    def imports_numpy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy"

    top_level, in_function = set(), set()
    for name, tree in trees.items():
        top_level |= {name for node in tree.body if imports_numpy(node)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(imports_numpy(node) for node in ast.walk(func)):
                    in_function.add(f"{name}.{func.name}")
    assert top_level == {"dynamics", "zeno"}
    assert in_function == {"table._blocks"}
    environ = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "environ")
        or (isinstance(node, ast.alias) and node.name == "environ")
    }
    assert environ == {"__main__"}


def test_no_module_imports_a_private_name():
    # A package module imports only the public names of another: no from .x import _y.
    package = ROOT / "src" / "squeezed_zeno"
    private = [
        (path.stem, node.module, alias.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_directions_need_no_numpy():
    # Direction and zeno_directions compute from Python floats: with numpy blocked, a
    # unit vector is a tuple of three floats, and phi is reduced to [0, 2 pi].
    script = (
        "import math, sys\n"
        "sys.modules['numpy'] = None\n"
        "from squeezed_zeno.bath import BathParams, Direction, zeno_directions\n"
        "v = zeno_directions(BathParams.maximal(1.0, 1.0, 0.7)).mu1.unit_vector\n"
        "assert type(v) is tuple and len(v) == 3 and all(type(x) is float for x in v), v\n"
        "assert Direction(1.0, -1e-17).phi == 2 * math.pi\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("psi", [0.0, 0.7, math.pi, 3.1415926535897936, 6.283185307179586])
def test_sidecar_holds_the_zeno_directions(tmp_path, psi):
    # JSON round-trips doubles exactly, so the sidecar's numbers are zeno_directions' bit for bit.
    out = tmp_path / "surface.csv"
    argv = ["surface", "--set", f"psi={psi!r}", "--set", "n_theta=2", "--set", "n_phi=3"]
    assert main(argv + ["--out", str(out)]) == 0
    sidecar = json.loads(Path(f"{out}.maxima.json").read_text())
    zd = zeno_directions(BathParams.maximal(1.0, 1.0, psi))
    assert sidecar == {
        "cos_theta_max": math.cos(zd.theta),
        "phi1": zd.mu1.phi,
        "phi2": zd.mu2.phi,
        "theta": zd.theta,
    }


# The functions that a tracer of the cli -> layer boundary wraps: cli.write_table and
# each layer function that cli calls.
BOUNDARY_FUNCTIONS = (
    "bloch_vector",
    "evolve_free",
    "evolve_measured",
    "factorization_residual",
    "maximal_m",
    "monte_carlo_survival",
    "pure_state_bloch",
    "repeated_measurement_survival",
    "s_eigensystem",
    "survival_functional_rows",
    "survival_laws",
    "uncertainty_product",
    "write_table",
    "zeno_directions",
    "zeno_states",
)


def test_a_command_binds_the_boundary_functions_once(capsys, monkeypatch):
    # After a command, each boundary function and every public function of the
    # package is a cli attribute, the package's own object; write_table is the table
    # module's, and no private name of the package (np) is bound. One replaced there
    # serves later commands, so the binding ran once.
    assert main(["evolve", "--set", "n_steps=3"]) == 0
    table = capsys.readouterr().out
    for name in BOUNDARY_FUNCTIONS:
        assert inspect.isfunction(vars(cli).get(name)), name
    public = [
        name
        for name in dir(squeezed_zeno)
        if not name.startswith("_") and inspect.isfunction(getattr(squeezed_zeno, name))
    ]
    assert set(BOUNDARY_FUNCTIONS) - {"write_table"} <= set(public)
    for name in public:
        assert vars(cli).get(name) is getattr(squeezed_zeno, name), name
    assert "np" not in vars(cli)
    assert cli.write_table is squeezed_zeno.table.write_table
    calls = []
    evolve_free = cli.evolve_free

    def spy(*args):
        calls.append(args)
        return evolve_free(*args)

    monkeypatch.setattr(cli, "evolve_free", spy)
    assert main(["evolve", "--set", "n_steps=3"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == table


def test_cli_reads_no_name_but_its_own_and_the_packages():
    # Every name that cli.py reads and no statement of it binds, builtins aside, is a
    # public name of the package, one that _bind_compute binds.
    tree = ast.parse((ROOT / "src" / "squeezed_zeno" / "cli.py").read_text())
    bound, loaded = set(vars(builtins)), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).partition(".")[0])
    unbound, public = loaded - bound, set(squeezed_zeno._SUBMODULE)
    assert unbound <= public, sorted(unbound - public)
    assert {"BathParams", "evolve_free", "survival_functional_rows"} <= unbound


def run_module(argv):
    """`python -m squeezed_zeno argv` in a fresh interpreter, with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "squeezed_zeno", *argv],
        env=env,
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("argv", SMALL_RUNS, ids=[argv[0] for argv in SMALL_RUNS])
def test_module_entry_writes_what_main_writes(argv):
    proc = run_module(argv)
    assert proc.returncode == 0, proc.stderr
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    assert proc.stdout == buffer.getvalue().encode("utf-8")
    assert proc.stderr == b""


def test_module_entry_exit_codes(tmp_path):
    bad_key = run_module(["zeno", "--set", "bogus=1"])
    assert bad_key.returncode == 2
    assert bad_key.stderr.startswith(b"config error:")
    unwritable = run_module(["intelligent", "--out", str(tmp_path / "missing" / "report.json")])
    assert unwritable.returncode == 4
    assert unwritable.stderr.startswith(b"i/o error:")


@pytest.mark.parametrize("error", [ParameterError, InvalidStateError])
@pytest.mark.parametrize(
    "command, name",
    [
        ("surface", "survival_functional_rows"),
        ("evolve", "evolve_free"),
        ("zeno", "repeated_measurement_survival"),
        ("intelligent", "uncertainty_product"),
    ],
)
def test_a_library_error_in_a_computation_is_a_config_error(command, name, error, monkeypatch):
    # Every package error is a rejected input: one raised inside a command's computation,
    # not only in its input checks, exits 2 with its message.
    def reject(*args):
        raise error("injected")

    monkeypatch.setattr(cli, name, reject, raising=False)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main([command]) == 2
    assert stdout.getvalue() == ""
    assert stderr.getvalue() == "config error: injected\n"


class _FullStream(io.StringIO):
    """A stdout whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv", SMALL_RUNS, ids=[argv[0] for argv in SMALL_RUNS])
@pytest.mark.parametrize("stdout", [None, _FullStream()], ids=["closed", "full"])
def test_a_failed_stdout_write_is_an_io_error(argv, stdout):
    # sys.stdout is None where the process started without one (>&-): once an
    # AttributeError traceback and exit 1.
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(argv) == cli.EXIT_IO
    assert stdout is None or stdout.getvalue() == ""
    assert stderr.getvalue().startswith("i/o error: cannot write stdout: ")
    assert stderr.getvalue().count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [["intelligent"], ["evolve", "--set", "n_steps=3"]], ids=["intelligent", "evolve"]
)
def test_a_full_device_on_stdout_exits_4_with_one_line(argv):
    # Without PYTHONUNBUFFERED, stdout is block-buffered, and the text that the full device
    # refused stays in its buffer. The process entry drops it, so the flush at exit does
    # not fail again, add an "Exception ignored" message and turn exit 4 into 120.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "squeezed_zeno", *argv],
            env=env,
            stdout=full,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    assert proc.returncode == cli.EXIT_IO, proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("i/o error: cannot write stdout: ")


def test_options_before_or_after_the_subcommand(capsys):
    # One parser: the subcommand is a positional, and the options may stand on either side.
    outputs = []
    for argv in (
        ["evolve", "--set", "n_steps=3", "--format", "json"],
        ["--set", "n_steps=3", "--format", "json", "evolve"],
        ["--set", "n_steps=3", "evolve", "--format", "json"],
    ):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out.startswith("{")
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--set", "N=1"], ["zeno", "evolve"]])
def test_missing_or_unknown_subcommand_exits_2_with_usage(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: squeezed-zeno ")
    assert "{surface,evolve,zeno,intelligent}" in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: squeezed-zeno ")


def freeze_count_after(call: str) -> int:
    """gc.get_freeze_count() in a fresh interpreter after running every small run through call."""
    script = (
        "import contextlib, gc, io\n"
        "from squeezed_zeno.__main__ import run\n"
        "from squeezed_zeno.cli import main\n"
        f"for argv in {SMALL_RUNS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert {call}(argv) == 0, argv\n"
        "print(gc.get_freeze_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_only_the_process_entry_freezes_the_heap():
    # cli.main leaves the collector as it was for in-process callers; run, the
    # entry of `python -m squeezed_zeno` and of the console script, freezes it.
    assert freeze_count_after("main") == 0
    assert freeze_count_after("run") > 0


def test_console_script_target_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"squeezed-zeno": "squeezed_zeno.__main__:run"}


# Public names removed with no alias; CHANGES.md says what replaces each.
REMOVED_NAMES = (
    "expectation",
    "ContractViolationError",
    "closed_system_survival",
    "DomainError",
    "SqueezeFrame",
    "bloch_to_matrix",
    "sigma_mu",
    "IDENTITY",
    "liouvillian",
    "liouvillian_from_s",
    "find_zeno_directions_grid",
    "validate_density_matrix",
    "TimeSeries",
    "SurvivalCurve",
    "survival_functional_F",
    "_first_order_rate",
    "measured_coefficients",
    "rotated_j_operators",
    "J_X",
    "J_Y",
    "J_Z",
    "lindblad_s_operator",
    "j_minus_alpha",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "eigenstates_mu",
    "survival_functional_grid",
    "EXCITED",
    "GROUND",
    "frozen_amplitudes",
)


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_stays_removed(name):
    modules = [squeezed_zeno] + [
        importlib.import_module(f"squeezed_zeno.{info.name}")
        for info in pkgutil.iter_modules(squeezed_zeno.__path__)
    ]
    for module in modules:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def public_names() -> set:
    """The names of squeezed_zeno without a leading underscore, its submodules excepted.

    dir, not vars: a public name enters the module's dict only on first access.
    """
    return {
        name
        for name in dir(squeezed_zeno)
        if not name.startswith("_") and not inspect.ismodule(getattr(squeezed_zeno, name))
    }


def test_public_names_are_readmes_list():
    section = (ROOT / "README.md").read_text().split("\n## Public API\n", 1)[1]
    items = section.split("\n- ", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"`([A-Za-z_]\w*)`", items)
    assert len(listed) == len(set(listed))
    assert set(listed) == public_names()


def test_readme_layout_lists_the_modules():
    # One bullet of README's Layout per module of the package, and none for a module that
    # is gone.
    section = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `src/squeezed_zeno/(\w+)\.py`", section, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == {path.stem for path in (ROOT / "src" / "squeezed_zeno").glob("*.py")}


def test_pauli_module_is_gone():
    # Its names live in dynamics, but Direction, which lives in bath with the maxima it
    # makes; each stays a top-level name.
    assert importlib.util.find_spec("squeezed_zeno.pauli") is None
    names = ("bloch_vector", "matrix_to_bloch", "pure_state_bloch", "pure_state_matrix")
    for name in names:
        assert getattr(squeezed_zeno, name).__module__ == "squeezed_zeno.dynamics", name
    assert squeezed_zeno.Direction.__module__ == "squeezed_zeno.bath"


def readmes_library_only() -> dict:
    """README's library-only functions: name -> the bench/ file that imports it."""
    text = (ROOT / "README.md").read_text()
    section = text.split("are library-only:", 1)[1].split("\n\n", 2)[1]
    return dict(re.findall(r"^- `(\w+)`, imported by `(bench/\w+\.py)`", section, re.M))


# A few configs of each command, such that together they reach every code path that
# calls a package function: named and [x, y, z] states, named and [theta, phi]
# directions, Monte Carlo on, and the degenerate eigensystem at N = 0.
PROFILED_RUNS = (
    ["surface", "--set", "n_theta=3", "--set", "n_phi=4"],
    ["evolve", "--set", "n_steps=3"],
    ["evolve", "--set", "n_steps=3", "--set", "state=[0.1, 0.2, 0.3]", "--set", "measure=[1, 2]"],
    ["zeno", "--set", "count=3", "--set", "n_traj=5"],
    ["zeno", "--set", "count=3", "--set", "state=zeno-minus", "--set", "M=0.5"],
    ["intelligent"],
    ["intelligent", "--set", "N=0"],
)


def test_every_public_function_is_on_a_commands_path(capsys):
    # Each public function runs under one of the commands, but for README's library-only
    # list, whose functions only the benchmark harness calls; and that list is exactly the
    # public functions that no command calls, each imported by the bench/ file it names.
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        statuses = [main(argv) for argv in PROFILED_RUNS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert statuses == [0] * len(PROFILED_RUNS)
    functions = [getattr(squeezed_zeno, name) for name in public_names()]
    uncalled = {f.__name__ for f in functions if inspect.isfunction(f) and f.__code__ not in called}
    library_only = readmes_library_only()
    assert uncalled == set(library_only) == {"bloch_rates", "matrix_to_bloch", "pure_state_matrix"}
    for name, path in library_only.items():
        tree = ast.parse((ROOT / path).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "squeezed_zeno"
            for alias in node.names
        }
        assert name in imported, (name, path)


def test_public_names_are_their_submodules_objects():
    # Each name resolves to the very object that the submodule defining it holds.
    for name in public_names():
        value = getattr(squeezed_zeno, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("squeezed_zeno."), name
        assert value.__name__ == name
        assert vars(module)[name] is value, name


def test_no_stray_module_at_the_top_level():
    # Such as os or numpy, were the package to import one under a public name.
    for name, value in vars(squeezed_zeno).items():
        if not name.startswith("_") and inspect.ismodule(value):
            assert value.__name__ == f"squeezed_zeno.{name}", name


def test_readme_key_table_is_keys():
    # README's table of the keys each subcommand accepts, with their defaults, is cli.KEYS
    # plus "out", which every subcommand accepts and whose default is stdout.
    text = (ROOT / "README.md").read_text()
    section = text.split("Each subcommand accepts only the keys it reads", 1)[1]
    rows = re.findall(r"^\| (.+) \| (.+) \|$", section.split("\n\n", 2)[1], re.M)[1:]
    table = {
        subcommand.strip("`"): dict(re.findall(r"`(\w+)` \(([^)]*)\)", keys))
        for subcommand, keys in rows
    }
    common = table.pop("all four")
    assert common.pop("out") == "stdout"
    assert sorted(table) == sorted(KEYS)
    for command, keys in table.items():
        defaults = {**common, **keys}
        documented = {key: json.loads(default.strip("`")) for key, default in defaults.items()}
        assert documented == KEYS[command], command
        assert "out" not in KEYS[command]


def readme_examples():
    """argv of each squeezed-zeno command in README's CLI examples, continuations joined."""
    text = (ROOT / "README.md").read_text()
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("squeezed-zeno ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    examples = readme_examples()
    assert [argv[0] for argv in examples] == ["surface", "evolve", "zeno", "intelligent"]
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv) == 0, argv
        out = argv[argv.index("--out") + 1]
        assert (tmp_path / out).is_file(), argv
    assert (tmp_path / "surface.csv.maxima.json").is_file()
