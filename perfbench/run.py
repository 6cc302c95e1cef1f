"""Trial-throughput benchmark of qpcsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the root of a source
checkout, checks every result (``checks.py``), prints every metric by name
with its unit, and writes a result record with provenance under
``.perfbench/<workload>/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times calls into qpcsim's public entry points
(``harness.run_scenario``, and ``cli.main`` in-process) with tracing off
and reports the end-to-end metrics.  ``--trace 1`` replays a fixed window
of the same calls, alternately untraced and traced (``tracing.py``), and
reports the per-layer metrics plus ``trace.overhead_frac``, the traced
pass's extra wall time over the untraced pass of the same calls.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402 - these import qpcsim from the path above
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, better, bound).  The bound is the share of the parent's
# median by which a metric may get worse before a change counts as a
# regression; set-up time gets the largest.  Times are at nominal machine
# speed (speed.py).  A failed call shows in the result line's `failed` over
# `attempted` (failed_frac), which is 0 on a passing run.
END_TO_END = {
    "trials_per_s": ("1/s", "higher", 0.2),
    "cpu_s_per_ktrial": ("s", "lower", 0.2),
    "us_per_trial.p50": ("us", "lower", 0.25),
    "us_per_trial.p90": ("us", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
SETUP_REPEATS = 7
# Cycles of calls in the traced run's fixed window; every traced pass
# replays exactly these calls, so the count metrics repeat exactly.
TRACE_CYCLES = {workloads.HONEST: 1, workloads.ATTACK: 2, workloads.CLI: 1}
PROBE_TIMEOUT_S = 120


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_setup(workload: str, seed: int) -> float:
    """Time, at nominal machine speed, of a fresh process that imports
    qpcsim and numpy, builds and validates the workload's configs and warms
    each shape up: the median over SETUP_REPEATS samples, each scaled by the
    reference process run just before it."""

    ratios = []
    for _ in range(SETUP_REPEATS):
        reference = speed.startup_reference()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=PROBE_TIMEOUT_S,
        )
        ratios.append((time.perf_counter() - start) / reference)
    return statistics.median(ratios) * speed.NOMINAL_STARTUP_S


def _commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qpcsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


class Verdict:
    """Failed calls and run-invalidating failures, with their reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.invalid: List[str] = []

    def call(self, index: int, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"call {index}: {p}" for p in problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.invalid


def check_calls(wl, outcomes, verdict: Verdict, references: Dict) -> None:
    """Exact per-call checks; for the CLI workload also the byte-for-byte
    comparison with a jobs=1 run (made outside any timed region)."""

    for outcome in outcomes:
        wl.collect_output(outcome)
        if outcome.error is not None:
            verdict.call(outcome.call.index, [outcome.error])
            continue
        problems = checks.call_failures(outcome.call.shape, outcome.call.trials, outcome.counters)
        if outcome.output is not None:
            key = (outcome.call.shape.name, outcome.call.seed, outcome.call.trials)
            if key not in references:
                references[key] = wl.reference_output(outcome.call)
            problems += checks.jobs_mismatch(outcome.output, references[key])
        verdict.call(outcome.call.index, problems)


def _reference(wl):
    """The CLI workload's calls run a two-worker pool, whose cost follows a
    pooled reference; the others run in-process."""
    return speed.POOL if wl.name == workloads.CLI else speed.IN_PROCESS


def timed_run(wl, seconds: float) -> tuple:

    wl.reset_outputs()
    outcomes = []
    stretch_of = []
    clock = speed.Clock(_reference(wl))
    cpu0 = _cpu_seconds()
    clock.slice()
    start = time.perf_counter()
    for cycle in wl.cycles():
        for call in cycle:
            outcomes.append(wl.run_call(call))
            stretch_of.append(clock.stretch)
            clock.tick()
        if time.perf_counter() - start >= seconds:
            break
    clock.slice()
    raw_wall = clock.raw_seconds()
    wall = clock.scaled_seconds()
    # CPU time slows down with the machine as wall time does.
    cpu = (_cpu_seconds() - cpu0 - clock.slice_cpu) * wall / raw_wall
    peak_rss = _peak_rss_mb()

    verdict = Verdict()
    check_calls(wl, outcomes, verdict, {})
    verdict.invalid += checks.aggregate_failures(checks.sum_by_shape(outcomes), wl.shapes())

    done = [(o, k) for o, k in zip(outcomes, stretch_of) if o.error is None]
    trials = sum(o.call.trials for o, _ in done)
    per_trial_us = [o.seconds * clock.factor(k) / o.call.trials * 1e6 for o, k in done]
    if len(per_trial_us) < 2 or trials == 0:
        verdict.invalid.append("fewer than two calls completed")
        per_trial_us = [0.0, 0.0]
    metrics = {
        "trials_per_s": trials / wall,
        "cpu_s_per_ktrial": cpu / max(trials, 1) * 1000.0,
        "us_per_trial.p50": statistics.median(per_trial_us),
        "us_per_trial.p90": statistics.quantiles(per_trial_us, n=10)[8],
        "setup_s": measure_setup(wl.name, wl.seed),
        "peak_rss_mb": peak_rss,
    }
    extra = {
        "calls": len(outcomes),
        "trials": trials,
        "raw_wall_s": raw_wall,
        "raw_trials_per_s": trials / raw_wall,
        "speed_factor": wall / raw_wall,
        "reference_slices": len(clock.slices),
    }
    return metrics, verdict, extra


def traced_run(wl, seconds: float) -> tuple:

    window = [call for cycle in itertools.islice(wl.cycles(), TRACE_CYCLES[wl.name]) for call in cycle]
    in_process = wl.name != workloads.CLI

    verdict = Verdict()
    references: Dict = {}
    passes: List[Dict[str, float]] = []
    overheads: List[float] = []
    first_tracer = None
    trials = sum(call.trials for call in window)
    clock = speed.Clock(_reference(wl))

    def run_pass(tracer=None):
        """The window's calls as one stretch between two reference slices;
        returns the outcomes, the stretch's nominal-speed seconds and its
        speed factor."""
        wl.reset_outputs()
        outcomes = []
        clock.slice()
        for call in window:
            if tracer is not None:
                tracer.call_no = call.index
            outcomes.append(wl.run_call(call))
        clock.slice()
        k = len(clock.stretches) - 1
        return outcomes, clock.stretches[k] * clock.factor(k), clock.factor(k)

    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain, plain_s, _ = run_pass()
        tracer = tracing.Tracer()
        with tracer.installed(in_process):
            traced, traced_s, factor = run_pass(tracer)
        check_calls(wl, plain, verdict, references)
        check_calls(wl, traced, verdict, references)
        for a, b in zip(plain, traced):
            if a.counters != b.counters:
                verdict.invalid.append(f"call {a.call.index}: tracing changed the result")
        if not passes:
            first_tracer = tracer
            verdict.invalid += checks.aggregate_failures(checks.sum_by_shape(plain), wl.shapes())
        metrics = tracer.layer_metrics(trials, len(window), tracing.work_mix(plain))
        passes.append(tracing.scale_times(metrics, factor))
        overheads.append(traced_s / plain_s - 1.0)

    for name in tracing.EXACT:
        values = {p[name] for p in passes}
        if len(values) > 1:
            verdict.invalid.append(f"{name} differs between traced passes: {sorted(values)}")
    metrics = tracing.median_metrics(passes)
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    first_tracer.write(wl.dir / "spans.npz")
    extra = {
        "window_calls": len(window),
        "window_trials": sum(call.trials for call in window),
        "traced_passes": len(passes),
        "spans_first_pass": len(first_tracer.name),
        "unobserved_metrics": tracing.unobserved(in_process),
    }
    return metrics, verdict, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    wl = workloads.Workload(args.workload, args.seed)
    wl.setup()
    if args.trace:
        metrics, verdict, extra = traced_run(wl, args.seconds)
        units = {name: spec[0] for name, spec in tracing.PER_LAYER.items()}
    else:
        metrics, verdict, extra = timed_run(wl, args.seconds)
        units = {name: spec[0] for name, spec in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "failed_frac": verdict.failed / max(verdict.attempted, 1),
        "failures": verdict.messages[:50],
        "invalid": verdict.invalid[:50],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "run": extra,
    }
    if args.trace:
        record["exact_at_fixed_seed"] = list(tracing.EXACT)
        record["moves"] = {name: spec[3] for name, spec in tracing.PER_LAYER.items()}
    path = wl.dir / f"result-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {record['why']}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for key, value in extra.items():
        print(f"  run.{key} = {value}")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  failed_frac = {record['failed_frac']:.6g} ratio ({verdict.failed} of {verdict.attempted} calls)")
    for message in verdict.messages[:20] + verdict.invalid[:20]:
        print(f"  FAIL {message}")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
