import contextlib
import importlib
import io
import json
import os
import pkgutil
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squeezed_zeno
from squeezed_zeno import SIGMA_MINUS, SIGMA_PLUS, maximal_m
from squeezed_zeno.cli import ALLOWED_KEYS, DEFAULTS, main

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

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["surface", "--config", str(cfg)]) == 2

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
    "format": (st.sampled_from(["csv", "json"]), ['"xml"', "1"]),
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


def assert_report_holds(report: dict):
    """S z = lambda z for both eigenpairs, and S = 2 lambda_+ J_-(alpha) where reported."""
    n, psi = report["N"], report["psi"]
    s = np.sqrt(n + 1) * SIGMA_MINUS - np.sqrt(n) * np.exp(1j * psi) * SIGMA_PLUS
    for branch in ("plus", "minus"):
        lam = complex(*report[f"lambda_{branch}"])
        z = np.array([complex(*amplitude) for amplitude in report[f"state_{branch}"]])
        assert np.linalg.norm(s @ z - lam * z) <= 1e-12, branch
    if "factorization_residual" in report:
        assert report["factorization_residual"] <= 1e-12


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
        command = data.draw(st.sampled_from(sorted(ALLOWED_KEYS)))
        # M is drawn last, so that it can be drawn just below maximal_m(N).
        keys = sorted(ALLOWED_KEYS[command], key=lambda key: (key == "M", key))
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
                    valid = st.one_of(valid, below_maximal(config.get("N", DEFAULTS["N"])))
                config[key] = data.draw(valid)
                text = json.dumps(config[key])
            argv += ["--set", f"{key}={text}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out, err = stdout.getvalue(), stderr.getvalue()
        # No valid config is a numeric failure (exit 3).
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
        elif command == "evolve":
            assert len(table["t"]) == config["n_steps"] + 1
            for name in ("sigma_mu_free", "sigma_mu_measured"):
                assert np.all(np.abs(table[name]) <= 1.0), name
        else:
            assert len(table["t"]) == config["count"] + 1
            assert_survival_invariants(table)

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
        # alpha = e^{2r} rounds to 1, where J_-(alpha) is singular, or so near 1 that its
        # rounding would set the residual (4e-4 at N = 1e-30, 9e-12 at N = 1e-12): the
        # eigensystem and the uncertainty report stand, and the factorization is left out
        # as at N = 0.
        assert main(["intelligent", "--set", f"N={n}"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert not report["degenerate"]
        for key in ("lambda_plus", "lambda_minus", "state_plus", "state_minus"):
            assert np.all(np.isfinite(report[key])), key
        for branch in ("plus", "minus"):
            assert abs(report["uncertainty"][branch]["saturation_gap"]) < 1e-12
        assert "factorization_residual" not in report
        assert "alpha_ratio" not in report

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


def test_cli_import_loads_no_scipy():
    # Importing the CLI and running every subcommand loads numpy alone, and no
    # module of the test extra, on one thread unless OPENBLAS_NUM_THREADS chose a
    # count, and leaves the environment as it was.
    src = ROOT / "src"
    script = (
        "import contextlib, io, os, sys\n"
        "import squeezed_zeno\n"
        "from squeezed_zeno.cli import main\n"
        f"for argv in {SMALL_RUNS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {TEST_EXTRA_MODULES!r}))\n"
        "tasks = '/proc/self/task'\n"
        "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else None)\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    for blas_threads in (None, "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(src)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        modules, threads, blas_env = proc.stdout.splitlines()
        assert modules == "[]"
        assert blas_env == str(blas_threads)
        if blas_threads is None and threads != "None":
            assert threads == "1"


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
)


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_stays_removed(name):
    modules = [squeezed_zeno] + [
        importlib.import_module(f"squeezed_zeno.{info.name}")
        for info in pkgutil.iter_modules(squeezed_zeno.__path__)
    ]
    for module in modules:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


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
