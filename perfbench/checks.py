"""Correctness gate of the benchmark.

Exact per-call checks hold for every call of a shape, whatever its seed;
a call that fails one counts as a failed call.  Aggregate checks compare
the whole run's counters with the paper's closed forms; any aggregate
failure invalidates the run.  Their tolerance is SIGMAS binomial standard
errors, far enough out that correct code never fails by chance over the
number of runs a benchmark campaign makes, yet a rate off its target by a
few points at the benchmark's sample sizes is still caught.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from qpcsim.harness import closed_form

SIGMAS = 6.0

# Families in which no Z check round can fail: the registers that reach
# the check are the claimed ones, or a product state whose Z outcomes match
# the claimed vector (the fake preparation).
_Z_NEVER_FAILS = {"honest", "infer", "counterfactual", "relay", "flip_tp1", "flip_tp2", "fake_state"}
# Families that run the whole protocol honestly to the end.
_COMPLETES = {"honest", "infer", "counterfactual", "relay"}


def call_failures(shape, trials: int, counters: Dict[str, int]) -> List[str]:
    """Exact checks on one call's counters; returns what failed."""
    c = lambda key: counters.get(key, 0)  # noqa: E731
    failures: List[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            failures.append(f"{shape.name}: {what}")

    need(c("trials") == trials, f"ran {c('trials')} trials, asked for {trials}")
    need(c("completed") + c("aborted") == trials, "completed + aborted != trials")
    family = shape.family
    if family in _COMPLETES:
        need(c("aborted") == 0, f"{c('aborted')} aborts")
        need(c("pairs_r_checked") > 0 and c("pairs_r_exact") == c("pairs_r_checked"), "r_exact_rate < 1")
        need(c("pairs_total") > 0 and c("pairs_verdict_correct") == c("pairs_total"), "verdict_correct_rate < 1")
    if family in ("flip_tp1", "flip_tp2"):
        flipper = family.split("_")[1]
        need(c("abort_step7") == trials, "conflict_rate < 1")
        need(c(f"arbiter_{flipper}") == trials, f"arbiter did not name {flipper.upper()} every time")
    if family == "baseline_flip":
        need(c("aborted") == 0, "abort_rate > 0")
        need(c("pairs_total") == trials and c("pairs_verdict_correct") == 0, "a flipped verdict came out right")
    if family == "counterfactual":
        need(
            c("attack_bits_guessed") > 0 and c("attack_bits_correct") == c("attack_bits_guessed"),
            "counterfactual guess not exact",
        )
    if family in _Z_NEVER_FAILS:
        need(c("z_check_failures") == 0, "a Z check round failed")
    return failures


def _targets(shape) -> List[Tuple[str, str, str, float]]:
    """(metric, successes key, count key, target) for one shape."""
    family = shape.family
    adversary = shape.doc.get("adversary", {}).get("params", {})
    if family == "eve":
        return [("detected_step2_rate", "abort_step2", "trials",
                 closed_form("intercept_detection", shape.doc["decoy_count"]))]
    if family == "fake_state":
        # An X round trips with probability 1/2 and a Z round never, so c
        # uniform-basis rounds detect at 1 - (3/4)^c.
        return [("detected_step3_rate", "abort_step3", "trials", 1.0 - 0.75 ** shape.doc["check_rounds"])]
    if family == "tamper":
        return [("tamper_detection_conditional", "tamper_distinct_runs_detected", "tamper_distinct_runs",
                 closed_form("tamper_detection", adversary["count"]))]
    if family == "tp2_intercept":
        # Privacy sentinels: records-assisted guessing sits at 3/4 (the
        # known-red row 6.case3), the legitimate view at 1/2.
        return [
            ("attack_bit_accuracy", "attack_bits_correct", "attack_bits_guessed", 0.75),
            ("attack_legit_bit_accuracy", "attack_legit_bits_correct", "attack_legit_bits_guessed", 0.5),
        ]
    return []


def aggregate_failures(totals: Dict[str, Dict[str, int]], shapes: Iterable) -> List[str]:
    """Statistical checks on counters summed per shape over a run."""
    checks = []
    x_fail = x_rounds = 0
    for shape in shapes:
        counters = totals.get(shape.name)
        if counters is None:
            continue
        for metric, num, den, target in _targets(shape):
            checks.append((f"{shape.name} {metric}", counters.get(num, 0), counters.get(den, 0), target))
        if shape.family == "fake_state":
            x_fail += counters.get("x_check_failures", 0)
            x_rounds += counters.get("x_check_rounds", 0)
    if any(shape.family == "fake_state" and shape.name in totals for shape in shapes):
        checks.append(("fake_state x_check_fail_rate", x_fail, x_rounds, 0.5))
    failures = []
    for label, hits, count, target in checks:
        if count == 0:
            failures.append(f"{label}: no samples")
            continue
        bound = SIGMAS * math.sqrt(target * (1.0 - target) / count)
        rate = hits / count
        if abs(rate - target) > bound:
            failures.append(f"{label}: {rate:.6f} over {count}, target {target:.6f} +- {bound:.6f}")
    return failures


def sum_by_shape(outcomes) -> Dict[str, Dict[str, int]]:
    """Counters summed per shape.  A call repeated with the same seed adds
    no new samples, so it is counted once."""
    totals: Dict[str, Dict[str, int]] = defaultdict(dict)
    seen = set()
    for outcome in outcomes:
        key = (outcome.call.shape.name, outcome.call.seed, outcome.call.trials)
        if outcome.counters is None or key in seen:
            continue
        seen.add(key)
        into = totals[outcome.call.shape.name]
        for name, value in outcome.counters.items():
            into[name] = into.get(name, 0) + value
    return dict(totals)


def jobs_mismatch(written: bytes, reference: bytes) -> List[str]:
    """A CLI call's written result against the jobs=1 run of the same
    config and seed; they must be byte-identical."""
    if written == reference:
        return []
    return [f"output differs from the jobs=1 run ({len(written)} vs {len(reference)} bytes)"]
