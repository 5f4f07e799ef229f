"""Benchmark of the squeezed-zeno one-shot CLI.

Run from the repository root:

    python3 bench/run.py --workload startup --seed 1 --seconds 15 --trace 0

One client runs the workload's invocations as a closed loop: one
``python -m squeezed_zeno ...`` child at a time, each started after the
previous one exited, in passes over the workload for as long as another
pass still ends within --seconds (at least one pass).

--trace 0 reports the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter importing squeezed_zeno.cli,
               run once at the start of each pass
  wall_s       median over passes of the summed child wall time, spawn to exit
  cpu_s        median over passes of the summed child user+system CPU (os.wait4)
  peak_rss_mb  largest child ru_maxrss
--trace 1 runs the same invocations in-process through cli.main, untraced and
traced in alternation, and reports the per-layer metrics of tracing.py.

Every output is checked (checks.py). The last line of stdout is the JSON
result {correct, attempted, failed, metrics}; failed / attempted is the
failed ratio. A failure is a nonzero exit, a failed check, or output bytes
that differ from the first repeat of the same config. --smoke runs one pass
at the smallest sizes. The full record, with the seed, every generated
config and provenance, is written to bench/out/.
"""

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import provenance
import tracing
from checks import Verifier
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
IMPORT_REPEATS = 3
BLOCH_CALLS, BLOCH_REPEATS = 100, 3


@dataclass
class Outcome:
    """What one timed or traced run measured and found."""

    metrics: dict
    samples: dict
    verifier: Verifier
    problems: list
    interpreters: dict
    spans: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="one pass at the smallest sizes")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args, env, stderr_path):
    """Run one child to completion: (exit code, wall s, user+system CPU s, max RSS KiB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def stderr_tail(path: Path) -> str:
    text = path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""
    return text.strip()[-300:]


def remove_output(out: Path) -> None:
    for path in (out, Path(str(out) + ".maxima.json")):
        path.unlink(missing_ok=True)


def child_provenance(env, problems):
    """Provenance of the child interpreters; also compiles bytecode before timing."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "provenance.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        problems.append(f"provenance probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    return json.loads(proc.stdout)


def more_passes(passes: int, start: float, seconds: float, smoke: bool) -> bool:
    """Whether another pass, as long as the mean pass so far, still ends within seconds."""
    if passes == 0:
        return True
    elapsed = time.perf_counter() - start
    return not smoke and elapsed * (passes + 1) / passes <= seconds


def timed_run(invocations, seconds, smoke, work):
    env, problems, verifier = child_env(), [], Verifier()
    children = child_provenance(env, problems)
    passes = []
    start = time.perf_counter()
    while more_passes(len(passes), start, seconds, smoke):
        # One set-up probe per pass spreads the set-up samples over the run.
        code, setup, _, _ = spawn(["-c", "import squeezed_zeno.cli"], env, work / "setup.err")
        if code != 0:
            problems.append(f"import exited {code}: {stderr_tail(work / 'setup.err')}")
        walls, cpus, rss_kib = [], [], []
        for inv in invocations:
            out, err = work / f"{inv.index}.{inv.fmt}", work / f"{inv.index}.err"
            code, wall, cpu, rss = spawn(["-m", "squeezed_zeno", *inv.argv(out)], env, err)
            verifier.record(inv, out, None if code == 0 else f"exit {code}: {stderr_tail(err)}")
            remove_output(out)
            walls.append(wall)
            cpus.append(cpu)
            rss_kib.append(rss)
        passes.append({"setup_s": setup, "wall_s": walls, "cpu_s": cpus, "max_rss_kib": rss_kib})
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(sum(p["wall_s"]) for p in passes),
        "cpu_s": statistics.median(sum(p["cpu_s"]) for p in passes),
        "peak_rss_mb": max(max(p["max_rss_kib"]) for p in passes) * 1024 / 1e6,
    }
    return Outcome(metrics, {"passes": passes}, verifier, problems, {"children": children})


def traced_run(invocations, seconds, smoke, work):
    env, problems, verifier = child_env(), [], Verifier()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("squeezed_zeno.cli")

    def run_once(inv, tracer=None) -> float:
        """Wall time of one in-process cli.main call, traced when tracer is given."""
        out = work / f"{inv.index}.{inv.fmt}"
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(inv.argv(out))
            else:
                tracer.invocation = inv.index
                with tracing.instrumented(cli, tracer):
                    code = tracer.call("cli.main", cli.main, inv.argv(out))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            error = traceback.format_exc(limit=-3)
        wall = time.perf_counter() - start
        verifier.record(inv, out, error or (None if code == 0 else f"exit {code}"))
        remove_output(out)
        return wall

    start = time.perf_counter()
    for inv in invocations:
        run_once(inv)  # first outputs are checked here; lazy set-up finishes
    tracers, pairs = [], []
    while more_passes(len(pairs), start, seconds, smoke):
        tracer, walls = tracing.Tracer(), {"untraced_s": 0.0, "traced_s": 0.0}
        for inv in invocations:
            # Each call runs untraced and traced back to back, in alternating
            # order, so that drift in machine speed cancels from the ratio.
            sides = (None, tracer) if (len(pairs) + inv.index) % 2 == 0 else (tracer, None)
            for side in sides:
                walls["untraced_s" if side is None else "traced_s"] += run_once(inv, side)
        tracers.append(tracer)
        pairs.append(walls)

    per_pass = [tracing.span_metrics(t.spans) for t in tracers]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    for t in tracers:
        problems += tracing.containment_problems(t.spans)
    metrics.update(tracing.computed_counts(invocations, verifier.stats))
    metrics.update(tracing.import_breakdown(env, 1 if smoke else IMPORT_REPEATS))
    metrics["bath.bloch_rates.per_call_s"] = tracing.bloch_rates_per_call(
        invocations, 10 if smoke else BLOCH_CALLS, 1 if smoke else BLOCH_REPEATS
    )
    metrics["trace.overhead_ratio"] = statistics.median(
        p["traced_s"] / p["untraced_s"] for p in pairs
    )
    samples = {"pairs": pairs, "per_pass": per_pass}
    spans = [t.spans for t in tracers]
    return Outcome(metrics, samples, verifier, problems, {"traced": provenance.collect()}, spans)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "squeezed_zeno").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    missing = [str(p) for p in (SRC / "squeezed_zeno" / "cli.py", spec_path) if not p.is_file()]
    if missing:
        print(f"bench: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    invocations = generate(args.workload, args.seed, args.smoke)

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        outcome = run(invocations, args.seconds, args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, verifier, problems = outcome.metrics, outcome.verifier, outcome.problems
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "invocations": [
            asdict(inv) | {"argv": inv.argv(f"<out>.{inv.fmt}")} for inv in invocations
        ],
        "provenance": {
            "git_sha": git_sha(),
            "src_sha256": source_digest(),
            "harness": provenance.collect(),
            **outcome.interpreters,
        },
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "failed_ratio": verifier.failed / verifier.attempted,
        "failures": verifier.failures,
        "problems": problems,
        "samples": outcome.samples,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if outcome.spans:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(outcome.spans) + "\n", encoding="utf-8")

    for name, entry in record["metrics"].items():
        print(f"{name:45s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'failed_ratio':45s} {record['failed_ratio']:>16.6g} 1")
    for problem in problems + [str(f) for f in verifier.failures]:
        print(f"problem: {problem}")
    prov = record["provenance"]
    interp = prov.get("children") or prov.get("traced") or {}
    print(
        f"provenance: git {prov['git_sha']} src {prov['src_sha256'][:12]} python {interp.get('python')}"
        f" numpy {interp.get('numpy')} scipy {interp.get('scipy')} nproc {interp.get('nproc')}"
        f" threads {interp.get('thread_env')}"
    )
    print(f"record: {OUT / (stem + '.json')}")
    result = {
        "correct": verifier.failed == 0 and not problems,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
