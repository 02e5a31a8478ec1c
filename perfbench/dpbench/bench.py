"""Measurement loop, result assembly and the command line.

Untraced runs (``--trace 0``) give the end-to-end metrics: set-up is
repeated ``SETUP_REPEATS`` times and its median reported, then units of
work run back to back (a closed loop, one client) while the next unit is
expected to fit in ``--seconds`` of unit time, at least one unit.  Traced runs
(``--trace 1``) give the per-layer metrics: one traced set-up, then
alternating untraced and traced units, whose median ratio is the
tracing overhead.  Every unit's output is checked outside the timed
region; a failed check makes the run incorrect and the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

from dpstyler import config, evaluation, trainer

from . import environment
from .runners import RUNNERS, Tally
from .spans import SpanRecorder
from .workloads import WORKLOADS

WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 15
TRACED_MODULES = (config, trainer, evaluation)
GENERATE_TIMEOUT_S = 120
KEEP_INPUT_SETS = 6
# A run stops early after this many units that raised.
MAX_CRASHED_UNITS = 20

# Figures printed by name beside the declared metrics; the first rate
# of each runner is also its workload's items_per_s.
NAMED_FIGURES = {
    "train_prompts_per_s": "1/s",
    "eval_images_per_s": "1/s",
    "zeroshot_images_per_s": "1/s",
    "train_final_loss": "nats",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run: missing files or failed generation."""


def _identity(obj):
    return obj


def _inputs_dir(root: str, workload, scale: str, seed: int) -> str:
    """Generated inputs for (workload, scale, seed), made once and cached."""
    base = os.path.join(root, WORK_DIR, "inputs")
    final = os.path.join(base, f"{workload.name}-{scale}-seed{seed}")
    if os.path.isdir(final):
        return final
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base, prefix="partial-")
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "generate.py")
    cmd = [sys.executable, script, "--workload", workload.name, "--scale", scale,
           "--seed", str(seed), "--out", tmp]
    try:
        subprocess.run(cmd, check=True, timeout=GENERATE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        os.rename(tmp, final)
    except (OSError, subprocess.SubprocessError) as exc:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.isdir(final):
            raise BenchError(f"input generation failed: {exc}") from exc
    # An eval input set is about 10 MB; keep only the newest few.
    cached = sorted((e for e in os.scandir(base) if e.is_dir()),
                    key=lambda e: e.stat().st_mtime, reverse=True)
    for entry in cached[KEEP_INPUT_SETS:]:
        if entry.path != final:
            shutil.rmtree(entry.path, ignore_errors=True)
    return final


def _run_unit(runner, state, tally: Tally):
    """Run and time one unit: (seconds, output), output None if it raised."""
    start = perf_counter()
    try:
        out = runner.unit(state)
    except Exception:  # a crash in the program under test is a failed operation
        out = None
        tally.record(runner.ops_per_unit, runner.ops_per_unit,
                     [traceback.format_exc(limit=8)])
    return perf_counter() - start, out


def _check(runner, state, out, tally: Tally) -> None:
    try:
        runner.check(state, out, tally)
    except Exception:
        tally.record(runner.ops_per_unit, runner.ops_per_unit,
                     [traceback.format_exc(limit=8)])


def measure(workload_name: str, seed: int, seconds: float, trace: bool, root: str,
            scale: str = "full"):
    """Run one workload: the result record and, for a traced run, its spans."""
    workload = WORKLOADS[workload_name]
    shape = workload.shape(scale)
    inputs_dir = _inputs_dir(root, workload, scale, seed)
    scratch = tempfile.mkdtemp(dir=os.path.join(root, WORK_DIR), prefix="run-")
    try:
        runner = RUNNERS[workload.kind](inputs_dir, shape, scratch)
        tally = Tally()
        metrics, recorder = (_traced if trace else _untraced)(runner, seconds, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return recorder, {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        "metrics": metrics,
        "details": runner.details,
    }


def _untraced(runner, seconds: float, tally: Tally):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        state = runner.setup(_identity)
        setup_times.append(perf_counter() - start)
    runner.check_setup(state, tally)

    # A unit starts only while it is expected to fit in the remaining time.
    rates: dict[str, list[float]] = {}
    units = crashed = 0
    measured = elapsed = 0.0
    while (measured + elapsed <= seconds or not units) and crashed < MAX_CRASHED_UNITS:
        elapsed, out = _run_unit(runner, state, tally)
        measured += elapsed
        if out is None:
            crashed += 1
            continue
        units += 1
        for name, rate in runner.rates(state, out, elapsed).items():
            rates.setdefault(name, []).append(rate)
        _check(runner, state, out, tally)
    runner.details["setup_times_s"] = setup_times
    runner.details["unit_rates"] = rates
    runner.details.update({name: statistics.median(r) for name, r in rates.items()})
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rates:
        metrics["items_per_s"] = statistics.median(next(iter(rates.values())))
    return metrics, None


def _traced(runner, seconds: float, tally: Tally):
    recorder = SpanRecorder(TRACED_MODULES)
    with recorder.active(), recorder.span("bench.setup"):
        state = runner.setup(recorder.adopt)
    runner.check_setup(state, tally)

    plain, traced, measured = [], [], 0.0
    while measured < seconds or not traced:
        elapsed, out = _run_unit(runner, state, tally)
        if out is None:
            break
        plain.append(elapsed)
        _check(runner, state, out, tally)
        with recorder.active(), recorder.span("bench.unit"):
            elapsed, out = _run_unit(runner, state, tally)
        if out is None:
            break
        traced.append(elapsed)
        _check(runner, state, out, tally)
        measured += plain[-1] + traced[-1]

    metrics = recorder.summary()
    metrics["trainer.checkpoint_bytes"] = runner.details.get("checkpoint_bytes", 0)
    if plain and traced:
        metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    runner.details["unit_seconds"] = {"untraced": plain, "traced": traced}
    return metrics, recorder


def _declared_metrics(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def _report(result: dict, declared: dict) -> tuple[list[str], dict]:
    """Human-readable lines and the driver's one-line JSON for a result."""
    selected = {}
    lines = [f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"]
    for name, unit in declared[result["trace"]].items():
        # Per-layer figures of a layer the workload never reaches read 0.
        value = result["metrics"].get(name, 0.0 if result["trace"] else None)
        if value is None:
            continue
        selected[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<40} {value:>14.6g} {unit}")
    for name, unit in NAMED_FIGURES.items():
        if name in result["details"]:
            lines.append(f"  {name:<40} {result['details'][name]:>14.6g} {unit}")
    error_frac = result["failed"] / max(result["attempted"], 1)
    lines.append(f"  {'error_frac':<40} {error_frac:>14.6g} ({result['failed']}/{result['attempted']})")
    for note in result["failures"]:
        lines.append(f"  FAILED: {note.strip()}")
    summary = {
        "correct": result["failed"] == 0 and len(selected) == len(declared[result["trace"]]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": selected,
    }
    return lines, summary


def _save(root: str, result: dict, env: dict, recorder=None) -> str:
    out_dir = os.path.join(root, WORK_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{result['workload']}-{result['scale']}-seed{result['seed']}-trace{result['trace']}"
    path = os.path.join(out_dir, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, **result}, fh, indent=1, default=float)
    if recorder is not None:
        recorder.save(os.path.join(out_dir, stem + "-spans.npz"))
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Seeded train/eval benchmark of dpstyler at PACS and DomainNet shapes.",
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="unit time to measure (at least one unit runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser


def main(argv, root: str, scale: str = "full") -> int:
    args = build_parser().parse_args(argv)
    if args.workload == "all":
        return _run_all(args, root)
    declared = _declared_metrics(root)
    env = environment.describe(root)
    recorder = None
    try:
        recorder, result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), root, scale
        )
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # set-up crashed: report the failed run, then fail
        traceback.print_exc()
        result = {"workload": args.workload, "seed": args.seed, "scale": scale,
                  "trace": args.trace, "attempted": 1, "failed": 1,
                  "failures": ["set-up raised"], "metrics": {}, "details": {}}
    path = _save(root, result, env, recorder)
    lines, summary = _report(result, declared)
    print("\n".join(lines))
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    print(f"  full result {os.path.relpath(path, root)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def _run_all(args, root: str) -> int:
    """Every workload in its own process, one after another."""
    script = os.path.join(root, "perfbench", "run.py")
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, script, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            child = json.loads(lines[-1])
        except json.JSONDecodeError:
            combined["correct"] = False
            continue
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status
