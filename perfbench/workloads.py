"""Workloads of the trial-throughput benchmark.

Every workload is a closed loop from one process: each call into qpcsim
starts only when the previous one has returned.  A workload is a fixed
cycle of calls, repeated until the run's time is up.  The benchmark seed
fixes every call's scenario seed, so the same seed gives the same inputs;
qpcsim itself only ever sees the generated scenarios.

The attack shapes reproduce criteria 2-6 of ``qpcsim.suites.paper_tables``
(same sizes, adversaries and parameters) with trials in the battery's
proportions: a 10 000-trial row of the battery weighs 100 trials per cycle
here and a 1 000-trial row weighs 10.  ``paper_tables`` itself is not run:
it has fixed trial counts (about 80 s of CPU per pass), and its time is
predicted from ``honest_full`` (criterion 1) and ``attack_mix``
(criteria 2-6); criteria 7-8 take well under 1 % of a pass.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from qpcsim import cli, harness

ROOT = Path(__file__).resolve().parents[1]
# Everything a run writes (configs, CLI outputs, records, spans) goes here.
SCRATCH = ROOT / ".perfbench"

HONEST = "honest_full"
ATTACK = "attack_mix"
CLI = "cli_sweep_jobs2"

WHY = {
    HONEST: "no adversary, n=2..5, m=16: every trial runs all seven steps, so register measurement, "
    "decoys, announcements and pair_xor carry the time",
    ATTACK: "criteria 2-6 shapes in battery proportions: most trials abort at step 2, 3 or 7, so "
    "adversary hooks and the fixed per-trial cost weigh more",
    CLI: "short `qpcsim run --jobs 2` sweeps through cli.main: pool start-up, block dispatch, config "
    "checks and JSON output are a large share of each call",
}
WORKLOADS = tuple(WHY)

CLI_JOBS = 2
CLI_TRIALS = 200
ATTACK_CALL_TRIALS = 25
HONEST_TRIALS_PER_N = 96


@dataclass(frozen=True)
class Shape:
    """One scenario family: config-document fields other than trials and seed."""

    name: str
    doc: dict
    # Selects the exact per-call checks and the aggregate targets (checks.py).
    family: str
    battery_trials: int = 1000


def _adversary(kind: str, **params) -> dict:
    return {"kind": kind, "params": params}


HONEST_SHAPES = tuple(Shape(f"honest.n{n}", {"n": n, "m": 16}, "honest") for n in (2, 3, 4, 5))

_TAMPER = {"n": 3, "m": 16, "check_rounds": 8, "decoy_count": 2}

ATTACK_SHAPES = (
    *(
        Shape(
            f"eve.l{l}",
            {"n": 2, "m": 2, "decoy_count": l, "adversary": _adversary("eve_intercept_resend", links=[1])},
            "eve",
            10_000,
        )
        for l in (1, 5, 10, 20)
    ),
    Shape("flip.tp1", {"n": 3, "m": 8, "adversary": _adversary("tp1_fake_result")}, "flip_tp1"),
    Shape("flip.tp2", {"n": 3, "m": 8, "adversary": _adversary("tp2_fake_result")}, "flip_tp2"),
    Shape(
        "flip.baseline",
        {"protocol": "zhang_baseline", "n": 2, "m": 8, "adversary": _adversary("tp1_fake_result")},
        "baseline_flip",
    ),
    *(
        Shape(
            f"fake_state.c{c}",
            {"n": 3, "m": max(c, 4), "check_rounds": c, "decoy_count": 2,
             "adversary": _adversary("tp1_fake_initial_state")},
            "fake_state",
            10_000,
        )
        for c in (4, 8, 16)
    ),
    *(
        Shape(
            f"tamper.l{l}",
            {**_TAMPER, "adversary": _adversary("classical_position_tamper", count=l, policy="paired_specs")},
            "tamper",
            10_000,
        )
        for l in (1, 4, 8)
    ),
    Shape(
        "tamper.relay",
        {**_TAMPER, "variant": "tp2_relay",
         "adversary": _adversary("classical_position_tamper", count=8, policy="paired_specs")},
        "relay",
    ),
    Shape("infer", {"n": 3, "m": 16, "adversary": _adversary("participant_infer", attacker=1, victim=2)},
          "infer", 700),
    Shape(
        "infer.counterfactual",
        {"n": 3, "m": 16,
         "adversary": _adversary("participant_infer", attacker=1, victim=2, counterfactual=True)},
        "counterfactual",
        700,
    ),
    Shape(
        "tp2_intercept.v1",
        {"n": 3, "m": 16, "check_rounds": 2, "decoy_count": 2,
         "adversary": _adversary("tp2_intercept", links=[1], victim=1)},
        "tp2_intercept",
        2600,
    ),
)


def _honest_cycle() -> List[tuple]:
    # Equal trials per n, split over 6, 3, 3 and 3 calls for n = 2..5 and
    # interleaved.  Sorted by per-trial time the 15 calls then put the
    # median in the middle of the n=3 calls and the 90th percentile in the
    # middle of the n=5 calls, so neither sits on the gap between two
    # values of n, where it would jump from run to run.
    calls = list(zip(HONEST_SHAPES, (6, 3, 3, 3)))
    return [(shape, HONEST_TRIALS_PER_N // k) for i in range(6) for shape, k in calls if i < k]


def _attack_cycle() -> List[tuple]:
    # Each shape's trials per cycle are split evenly over calls of at most
    # ATTACK_CALL_TRIALS, interleaved round-robin across shapes.
    splits = []
    for shape in ATTACK_SHAPES:
        total = shape.battery_trials // 100
        k = math.ceil(total / ATTACK_CALL_TRIALS)
        splits.append([(shape, total * (i + 1) // k - total * i // k) for i in range(k)])
    return [split[i] for i in range(max(map(len, splits))) for split in splits if i < len(split)]


# The CLI sweep leaves out two shapes whose per-trial cost repeats a kept
# shape's (flip.tp2 ~ flip.tp1, infer.counterfactual ~ infer).  With 15
# calls per cycle the median and the 90th percentile of per-trial times
# each fall in the middle of one shape's cluster, however many cycles a
# run completes, instead of jumping between two clusters.
_CLI_LEFT_OUT = ("flip.tp2", "infer.counterfactual")


def _cli_cycle() -> List[tuple]:
    return [(shape, CLI_TRIALS) for shape in ATTACK_SHAPES if shape.name not in _CLI_LEFT_OUT]


CYCLES = {HONEST: _honest_cycle, ATTACK: _attack_cycle, CLI: _cli_cycle}


def _config_doc(shape: Shape, trials: int, seed: int) -> dict:
    return {"schema_version": harness.SCHEMA_VERSION, **shape.doc, "trials": trials, "seed": seed}


@dataclass(frozen=True)
class Call:
    """One call into qpcsim: a shape at a trial count and scenario seed."""

    index: int
    shape: Shape
    trials: int
    seed: int


@dataclass
class Outcome:
    """What one call returned: its counters, or why it failed."""

    call: Call
    seconds: float
    counters: Optional[Dict[str, int]] = None
    error: Optional[str] = None
    # The CLI workload's written result document, compared byte for byte.
    output: Optional[bytes] = None


class Workload:
    """Builds one workload's inputs and makes its calls."""

    def __init__(self, name: str, seed: int) -> None:
        if name not in CYCLES:
            raise ValueError(f"unknown workload `{name}` (expected one of {', '.join(WORKLOADS)})")
        self.name = name
        self.seed = seed
        self.cycle = CYCLES[name]()
        self.dir = SCRATCH / name
        self.templates: Dict[str, harness.Scenario] = {}
        self.config_paths: Dict[str, Path] = {}
        # The CLI sweep repeats the same (config, seed) calls every cycle, so
        # the jobs=1 reference of each is computed once; the other workloads
        # draw a fresh scenario seed for every call.
        rng = random.Random(seed)
        self._sweep_seeds = [rng.getrandbits(48) for _ in self.cycle] if name == CLI else None
        self._rng = rng

    def shapes(self) -> List[Shape]:
        return list({shape.name: shape for shape, _ in self.cycle}.values())

    def setup(self) -> None:
        """Build and validate every shape's config, then run one warm-up
        trial per shape through the same entry point the calls use."""
        self.dir.mkdir(parents=True, exist_ok=True)
        for shape in self.shapes():
            self.templates[shape.name] = harness.scenario_from_config(_config_doc(shape, 1, 0))
        if self.name == CLI:
            config_dir = self.dir / "configs"
            config_dir.mkdir(exist_ok=True)
            for (shape, trials), seed in zip(self.cycle, self._sweep_seeds):
                path = config_dir / f"{shape.name}.json"
                path.write_text(json.dumps(_config_doc(shape, trials, seed), indent=2))
                harness.scenario_from_config(json.loads(path.read_text()))
                self.config_paths[shape.name] = path
            warm = self.dir / "warmup.json"
            for shape in self.shapes():
                argv = ["run", "--config", str(self.config_paths[shape.name]), "--trials", "1", "--out", str(warm)]
                if cli.main(argv) != cli.EXIT_OK:
                    raise RuntimeError(f"warm-up call for {shape.name} failed")
        else:
            for template in self.templates.values():
                harness.run_scenario(template)

    def cycles(self) -> Iterator[List[Call]]:
        """Endless sequence of cycles; call indices run on across cycles."""
        index = 0
        while True:
            calls = []
            for pos, (shape, trials) in enumerate(self.cycle):
                seed = self._sweep_seeds[pos] if self._sweep_seeds else self._rng.getrandbits(48)
                calls.append(Call(index, shape, trials, seed))
                index += 1
            yield calls

    def reset_outputs(self) -> None:
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        (self.dir / "out").mkdir(parents=True)

    def run_call(self, call: Call) -> Outcome:
        """Make one call; only the call into qpcsim itself is timed."""
        if self.name == CLI:
            out = self.dir / "out" / f"{call.index}.json"
            argv = ["run", "--config", str(self.config_paths[call.shape.name]), "--jobs", str(CLI_JOBS),
                    "--out", str(out)]
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed call
                return Outcome(call, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
            if code != cli.EXIT_OK:
                return Outcome(call, seconds, error=f"exit code {code}")
            return Outcome(call, seconds)
        scenario = dataclasses.replace(self.templates[call.shape.name], trials=call.trials, seed=call.seed)
        start = time.perf_counter()
        try:
            stats = harness.run_scenario(scenario)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed call
            return Outcome(call, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        return Outcome(call, time.perf_counter() - start, counters=stats.counters)

    def collect_output(self, outcome: Outcome) -> None:
        """Read a CLI call's written result back (outside any timed region)."""
        if self.name != CLI or outcome.error is not None:
            return
        path = self.dir / "out" / f"{outcome.call.index}.json"
        try:
            outcome.output = path.read_bytes()
            outcome.counters = json.loads(outcome.output)["counters"]
        except (OSError, ValueError, KeyError) as exc:
            outcome.error = f"unreadable output {path.name}: {exc}"

    def reference_output(self, call: Call) -> bytes:
        """The same config and seed run in-process at jobs=1, serialized as
        the CLI serializes it."""
        doc = json.loads(self.config_paths[call.shape.name].read_text())
        return harness.run_scenario(harness.scenario_from_config(doc), jobs=1).to_json().encode()
