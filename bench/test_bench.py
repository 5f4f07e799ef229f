"""Tests of the benchmark harness itself; run with ``python3 -m pytest bench``.

The smoke runs use one pass at the smallest sizes so the harness cannot rot
unnoticed; the other tests hold the output checks to the package and show
that they reject wrong output.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from squeezed_zeno import (  # noqa: E402
    BathParams,
    analytic_free,
    bloch_rates,
    matrix_to_bloch,
    pure_state_matrix,
    step_survival_probability,
    zeno_directions,
    zeno_states,
)
from squeezed_zeno.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS, Invocation, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("n, psi", [(1.0, 0.3), (5.0, 4.0), (0.1, 2.2)])
def test_reference_matches_package(n, psi):
    ref = checks.Reference({"N": n, "psi": psi})
    bath = BathParams.maximal(1.0, n, psi)
    a, c = bloch_rates(bath)
    np.testing.assert_allclose(ref.a, a, atol=1e-14)
    np.testing.assert_allclose(ref.c, c, atol=1e-14)
    times = np.linspace(0.0, 3.0, 7)
    v0 = np.array([0.3, -0.2, 0.5])
    np.testing.assert_allclose(ref.free(v0, times), analytic_free(bath, v0, times), atol=1e-13)
    zd = zeno_directions(bath)
    theta, phi1, phi2 = ref.zeno_angles()
    assert theta == pytest.approx(zd.theta, abs=1e-14)
    assert phi1 % (2 * math.pi) == pytest.approx(zd.mu1.phi, abs=1e-14)
    assert phi2 % (2 * math.pi) == pytest.approx(zd.mu2.phi, abs=1e-14)
    plus = zeno_states(bath)[0]
    np.testing.assert_allclose(ref.mu1(), matrix_to_bloch(pure_state_matrix(plus)), atol=1e-14)
    for name, state in (("excited", [1.0, 0.0]), ("zeno-plus", plus)):
        want = step_survival_probability(bath, state, 0.01)
        assert ref.step_survival(ref.bloch_of_state(name), 0.01) == pytest.approx(want, abs=1e-14)


def test_generator_fixes_sizes_and_draws_only_psi_and_seed():
    for workload in WORKLOADS:
        a, b, again = generate(workload, 1), generate(workload, 2), generate(workload, 1)
        assert [i.config for i in a] == [i.config for i in again]
        for x, y in zip(a, b):
            assert x.config["psi"] != y.config["psi"]
            drop = {"psi", "seed"}
            assert {k: v for k, v in x.config.items() if k not in drop} == {
                k: v for k, v in y.config.items() if k not in drop
            }


def _produce(tmp_path, command, config):
    inv = Invocation(0, command, dict(config, psi=0.7))
    out = tmp_path / f"out.{inv.fmt}"
    assert cli_main(inv.argv(out)) == 0
    return inv, out


def _corrupt_last_row(out: Path, column: int):
    lines = out.read_text().splitlines()
    values = lines[-1].split(",")
    values[column] = repr(float(values[column]) + 1e-6)
    lines[-1] = ",".join(values)
    out.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "command, config, column",
    [
        ("evolve", {"N": 1.0, "state": "zeno-plus", "measure": "mu1", "t_end": 0.5, "n_steps": 8}, 1),
        ("evolve", {"N": 1.0, "state": "zeno-plus", "measure": "mu1", "t_end": 0.5, "n_steps": 8}, 2),
        ("surface", {"N": 1.0, "n_theta": 6, "n_phi": 6}, 2),
        ("zeno", {"N": 1.0, "state": "excited", "dt": 0.01, "count": 8, "n_traj": 500, "seed": 3}, 1),
    ],
)
def test_checks_accept_program_output_and_reject_a_changed_value(tmp_path, command, config, column):
    inv, out = _produce(tmp_path, command, config)
    problems, stats = checks.check(inv, out)
    assert problems == []
    assert stats["rows"] > 0 and stats["bytes"] == out.stat().st_size
    _corrupt_last_row(out, column)
    assert checks.check(inv, out)[0]


def test_intelligent_check(tmp_path):
    inv, out = _produce(tmp_path, "intelligent", {"N": 1.0})
    assert checks.check(inv, out)[0] == []
    report = json.loads(out.read_text())
    report["factorization_residual"] = 1e-9
    out.write_text(json.dumps(report))
    assert checks.check(inv, out)[0]


def test_mc_bound_rejects_a_wrong_survival_probability():
    p_exact = 0.98 ** np.arange(501)
    tol = checks.mc_tolerance(p_exact, 200000)
    assert np.all(tol > 5 * np.sqrt(p_exact * (1 - p_exact) / 200000))
    assert np.any(np.abs(0.979 ** np.arange(501) - p_exact) > tol)


def test_verifier_counts_changed_bytes_and_repeats_failures(tmp_path):
    inv, out = _produce(tmp_path, "surface", {"N": 1.0, "n_theta": 4, "n_phi": 4})
    verifier = checks.Verifier()
    verifier.record(inv, out)
    verifier.record(inv, out)
    assert (verifier.attempted, verifier.failed) == (2, 0)
    out.write_text(out.read_text() + "\n")
    verifier.record(inv, out)
    verifier.record(inv, tmp_path / "missing.csv")
    verifier.record(inv, out, error="exit 3")
    assert (verifier.attempted, verifier.failed) == (5, 3)


def test_containment_check_flags_a_span_outside_cli_main():
    main = {"name": "cli.main", "start": 0.0, "end": 1.0, "parent": None, "invocation": 0}
    inside = {"name": "zeno.zeno_states", "start": 0.2, "end": 0.3, "parent": 0, "invocation": 0}
    assert tracing.containment_problems([main, inside]) == []
    outside = dict(inside, end=1.5)
    assert tracing.containment_problems([main, outside])
    orphan = dict(inside, parent=None)
    assert tracing.containment_problems([main, orphan])


def test_benchmark_spec_meets_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    runs = 4 + 22 * len(SPEC["workloads"])
    # Passes end within the measured seconds; probes, checks and records add
    # at most about 5 s to a run. All runs must fit in 3420 s.
    assert runs * (SPEC["run_seconds"] + 5) < 3420


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    record = json.loads((BENCH / "out" / f"{workload}-seed5-trace{trace}-smoke.json").read_text())
    assert record["seed"] == 5 and len(record["invocations"]) == len(WORKLOADS[workload])
    assert record["provenance"]["src_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "startup", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
