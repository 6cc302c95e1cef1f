"""Seeded Monte Carlo trial runner and statistics aggregation.

A scenario fully describes an experiment (protocol, sizes, adversary,
secret policy, trial count, seed).  Trials use independent random streams
derived from the root seed by the trial index, so results are identical
for any execution order and any degree of parallelism; aggregation is a
plain order-independent counter merge.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import signal
# Unused here: the benchmark's tracer still wraps this name (as
# adversaries.RunHandle is kept for it).
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from multiprocessing.connection import Connection
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import adversaries, block, ghz
from . import protocol as proto
from .errors import ConfigError
from .stream import Stream, TrialSeeds

SCHEMA_VERSION = 1

PROTOCOLS = tuple(proto.PROTOCOLS)
SECRET_POLICIES = ("explicit", "uniform", "forced_equal", "forced_unequal")

# 95% two-sided normal quantile, for Wilson score intervals.
_Z95 = 1.959963984540054

# Bounds on the size fields, far above every shipped config and suite row
# (at most m = 16, 32 decoys and 10^4 trials), so that a config cannot ask
# one trial for billions of draws or a run for years of trials.
MAX_M = 4096
MAX_DECOY_COUNT = 2 * MAX_M  # the default 2m decoys at the largest m
MAX_CHECK_ROUNDS = 4096
MAX_TRIALS = 10_000_000
# Bound on run_scenario's jobs.  A call uses at most MAX_JOBS - 1 trial
# workers, so it also bounds how many stay alive between calls.
MAX_JOBS = 64


@dataclass
class AdversarySpec:
    kind: str = "none"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A config's `params: null` reads as no params.
        if self.params is None:
            self.params = {}


@dataclass
class SecretsSpec:
    policy: str = "uniform"
    values: Optional[List[List[int]]] = None


@dataclass
class Scenario:
    """Everything one experiment needs, in config-document shape."""

    protocol: str = "proposed"
    n: int = 3
    m: int = 16
    check_rounds: Optional[int] = None
    decoy_count: Optional[int] = None
    variant: str = proto.VARIANT_BROADCAST
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    secrets: SecretsSpec = field(default_factory=SecretsSpec)
    trials: int = 1000
    seed: int = 0
    announce_r_vectors: bool = False
    decoy_tolerance: int = 0

    @property
    def roles(self) -> "proto._Roles":
        """The named protocol's entry in ``protocol.PROTOCOLS``."""
        return proto.PROTOCOLS[self.protocol]

    def effective_check_rounds(self) -> int:
        return self.roles.checks_per_m * self.m if self.check_rounds is None else self.check_rounds

    def effective_decoy_count(self) -> int:
        return self.roles.decoys_per_m * self.m if self.decoy_count is None else self.decoy_count

    def validate(self) -> adversaries.AdversaryStrategy:
        """Check every field; return the adversary strategy they name, the
        one place a strategy is made from a scenario."""
        # A tuple, not the table: a list or object would be unhashable there.
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"field `protocol` must be one of {PROTOCOLS}, got {self.protocol!r}")
        roles = self.roles
        for name, low, high in _INT_BOUNDS:
            value = getattr(self, name)
            # A field whose default is None may be None.
            if value is None and getattr(Scenario, name) is None:
                continue
            if not _is_int(value) or value < low or (high is not None and value > high):
                bound = f">= {low}" if high is None else f"in {low}..{high}"
                raise ConfigError(f"field `{name}` must be an integer {bound}, got {value!r}")
        if roles.participants not in (None, self.n):
            raise ConfigError(f"field `n` must be {roles.participants} for the {self.protocol} protocol")
        if self.check_rounds is not None and not roles.leaves_m(self.m, self.check_rounds):
            raise ConfigError(f"field `check_rounds` must be <= m={self.m}, got {self.check_rounds}")
        if self.variant not in proto.VARIANTS:
            raise ConfigError(f"field `variant` must be one of {proto.VARIANTS}, got {self.variant!r}")
        if not isinstance(self.announce_r_vectors, bool):
            raise ConfigError(f"field `announce_r_vectors` must be true or false, got {self.announce_r_vectors!r}")
        if self.secrets.policy not in SECRET_POLICIES:
            raise ConfigError(f"field `secrets.policy` must be one of {SECRET_POLICIES}, got {self.secrets.policy!r}")
        if self.secrets.policy == "explicit":
            values = self.secrets.values
            if not isinstance(values, (list, tuple)) or len(values) != self.n:
                raise ConfigError(f"field `secrets.values` must hold {self.n} vectors")
            for idx, row in enumerate(values):
                bits = isinstance(row, (list, tuple)) and all(_is_int(b) and b in (0, 1) for b in row)
                if not bits or len(row) != self.m:
                    raise ConfigError(f"field `secrets.values[{idx}]` must be {self.m} bits")
        elif self.secrets.values is not None:
            raise ConfigError("field `secrets.values` is only allowed with policy `explicit`")
        if self.secrets.policy == "forced_unequal":
            # A trial redraws all n secrets until they are distinct.  ldexp
            # keeps the chance of one such draw exact and cheap for any m.
            distinct = math.prod(1.0 - math.ldexp(i, -self.m) for i in range(self.n))
            if distinct == 0.0:
                raise ConfigError("field `secrets.policy`: forced_unequal needs 2^m >= n distinct vectors")
            if distinct < 1e-3:
                raise ConfigError(
                    f"field `secrets.policy`: forced_unequal would take about {1 / distinct:.3g} draws of"
                    f" {self.n} secrets per trial (at most 1000 allowed); raise m or use uniform"
                )
        # Constructing the strategy checks kind and params against n.
        strategy = adversaries.strategy_from_config(self.adversary.kind, self.adversary.params, self.n)
        if not roles.monitored:
            # No TP2 relays the check positions (the baseline's ride an
            # authenticated channel, out of a tamperer's reach), no result
            # vectors are published, and nobody can attack as TP2.
            if self.variant != proto.VARIANT_BROADCAST:
                raise ConfigError(f"field `variant` must be {proto.VARIANT_BROADCAST} for the {self.protocol} protocol")
            if self.announce_r_vectors:
                raise ConfigError(f"field `announce_r_vectors` must be false for the {self.protocol} protocol")
        if not roles.admits(strategy):
            raise ConfigError(
                f"field `adversary.kind` {strategy.kind} is not supported by the {self.protocol} protocol"
            )
        return strategy

    def to_config(self) -> dict:
        doc = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = dict(vars(value)) if f.name in _SECTIONS else value
        return doc


# The integer fields and their bounds, inclusive (None: unbounded above).
_INT_BOUNDS = (
    ("n", 2, ghz.MAX_PARTICLES),
    ("m", 1, MAX_M),
    ("check_rounds", 0, MAX_CHECK_ROUNDS),
    ("decoy_count", 0, MAX_DECOY_COUNT),
    ("trials", 1, MAX_TRIALS),
    ("seed", 0, None),
    ("decoy_tolerance", 0, None),
)
# The fields that are nested objects in a config document.
_SECTIONS = {"adversary": AdversarySpec, "secrets": SecretsSpec}
_TOP_KEYS = {f.name for f in fields(Scenario)} | {"schema_version", "output"}


def _is_int(value: object) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


def scenario_from_config(doc: dict) -> Scenario:
    """Build and validate a Scenario from a parsed config document.

    Unknown keys are rejected by name at every level.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config field `{key}`")
    version = doc.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise ConfigError(f"field `schema_version` must be {SCHEMA_VERSION}, got {version!r}")
    # Only the fields the document has: the dataclasses hold the defaults.
    values = {f.name: doc[f.name] for f in fields(Scenario) if f.name in doc}
    for name, spec in _SECTIONS.items():
        values[name] = spec(**_section(doc, name, [f.name for f in fields(spec)]))
    output_doc = _section(doc, "output", ("path", "format"))
    path, fmt = output_doc.get("path"), output_doc.get("format")
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"field `output.path` must be a string, got {path!r}")
    if fmt not in (None, "json", "csv"):
        raise ConfigError(f"field `output.format` must be json or csv, got {fmt!r}")
    scenario = Scenario(**values)
    scenario.validate()
    return scenario


def _section(doc: dict, name: str, keys: Sequence[str]) -> dict:
    """A nested object of a config document; absent or null reads as empty."""
    section = doc.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"field `{name}` must be an object, got {section!r}")
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown config field `{name}.{key}`")
    return section


def wilson_interval(successes: int, count: int) -> Tuple[float, float]:
    """Wilson 95% score interval; behaves sensibly at rates near 0 and 1."""
    if count == 0:
        return 0.0, 1.0
    z = _Z95
    p = successes / count
    denom = 1.0 + z * z / count
    center = (p + z * z / (2 * count)) / denom
    half = z * math.sqrt(p * (1.0 - p) / count + z * z / (4.0 * count * count)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == count else min(1.0, center + half)
    return lo, hi


def closed_form(kind: str, l: int, links: int = 1, tolerance: int = 0) -> float:
    """The float view the benchmark imports of the exact rates of the same names in ``adversaries``."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if kind == "intercept_detection":
        return float(adversaries.intercept_detection(l, links, tolerance))
    if kind == "tamper_detection":
        return float(adversaries.tamper_detection(l))
    raise ValueError(f"unknown closed-form kind `{kind}`")


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV with fields quoted where they need it, None as an empty field and a float as its repr."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


@dataclass
class MetricRow:
    name: str
    estimate: float
    ci_low: float
    ci_high: float
    target: Optional[float]
    count: int


@dataclass
class TrialStats:
    """Aggregated outcome counts for one scenario."""

    scenario: dict
    counters: Dict[str, int]
    rows: List[MetricRow]

    def row(self, name: str) -> MetricRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no metric named `{name}`")

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "scenario": self.scenario,
                "counters": {k: self.counters[k] for k in sorted(self.counters)},
                "metrics": [vars(r) for r in self.rows],
            },
            sort_keys=True,
            indent=2,
        )

    def to_csv(self) -> str:
        return csv_text(
            ("name", "estimate", "ci_low", "ci_high", "target", "trials"),
            ((r.name, r.estimate, r.ci_low, r.ci_high, r.target, r.count) for r in self.rows),
        )

    @staticmethod
    def from_json(text: str) -> "TrialStats":
        doc = json.loads(text)
        rows = [MetricRow(**r) for r in doc["metrics"]]
        return TrialStats(doc["scenario"], doc["counters"], rows)

    @staticmethod
    def rows_from_csv(text: str) -> List[MetricRow]:
        return [
            MetricRow(name, float(est), float(lo), float(hi), None if target == "" else float(target), int(count))
            for name, est, lo, hi, target, count in [row for row in csv.reader(text.splitlines()) if row][1:]
        ]


def _draw_secrets(scenario: Scenario, rng: Stream) -> List[List[int]]:
    """A trial's secrets, under any policy but ``forced_unequal``."""
    n, m = scenario.n, scenario.m
    policy = scenario.secrets.policy
    if policy == "explicit":
        return [list(row) for row in scenario.secrets.values]
    if policy == "forced_equal":
        row = rng.bits(m)
        return [list(row) for _ in range(n)]
    # n*m bits cut into rows are n size-m draws, value for value, as one
    # (n, m) draw gives them (a numpy property tests/test_ghz.py pins).
    bits = rng.bits(n * m)
    return [bits[s : s + m] for s in range(0, n * m, m)]


def _extract(t: proto.Transcript, c: Dict[str, int]) -> None:
    """Count one honest trial's outcomes into the counters ``c``, in place."""
    roles = proto.PROTOCOLS[t.protocol]

    def bump(key: str, value: int = 1) -> None:
        c[key] = c.get(key, 0) + value

    def bump_nonzero(key: str, value: int) -> None:
        # A count that is 0 leaves its key out, as bumping once per item would.
        if value:
            c[key] = c.get(key, 0) + value

    bump("trials")
    if t.aborted:
        bump("aborted")
        bump(f"abort_step{t.abort_step}")
        bump(f"abort_{t.abort_cause}")
    else:
        bump("completed")
        pairs = t.pair_results.values()
        bump_nonzero("pairs_total", len(pairs))
        bump_nonzero(
            "pairs_verdict_correct",
            sum(
                info["accepted"] and info[roles.verdict_keys[0]] == info["ground_truth"]
                for info in pairs
            ),
        )
    if t.step3 is not None:
        bases = t.step3.bases
        x_rounds = sum(bases)
        x_failures = sum(bases[r] for r in t.step3.failures)
        bump_nonzero("x_check_rounds", x_rounds)
        bump_nonzero("z_check_rounds", len(bases) - x_rounds)
        bump_nonzero("x_check_failures", x_failures)
        bump_nonzero("z_check_failures", len(t.step3.failures) - x_failures)
    # Exact pairwise identity of the computed result vectors, checked
    # against the drawn secrets.
    if not t.aborted and t.r_values:
        r_values = t.r_values[roles.announcers[0]]
        bump_nonzero("pairs_r_checked", len(r_values))
        bump_nonzero(
            "pairs_r_exact",
            sum(tuple(r) == proto.xor_bits(t.secrets[i - 1], t.secrets[j - 1]) for (i, j), r in r_values.items()),
        )


def run_trial(scenario: Scenario, trial: int) -> proto.Transcript:
    """Trial number ``trial`` of a scenario, as its transcript, which holds
    the secrets drawn for it: the trial run by the block engine that counts
    every attack, in a block of its own, with the strategy the scenario
    names.  The scenario is checked first, as ``run_scenario`` checks it.

    The trial's random stream is derived from the scenario seed by the trial
    index alone, so a trial replays identically whatever runs around it:
    its PCG64 is seeded as by ``SeedSequence(entropy=seed, spawn_key=(trial,))``.
    """
    strategy = scenario.validate()
    return block.transcript(scenario, strategy, _bit_generator(TrialSeeds(scenario.seed), trial))


def _honest_trial(scenario: Scenario, trial: int, seeds: TrialSeeds) -> proto.Transcript:
    """Trial ``trial`` of an honest scenario whose secrets are drawn once,
    run by ``protocol``'s per-trial program, every draw served from one
    ``Stream`` over the trial's bit generator."""
    rng = Stream(_bit_generator(seeds, trial))
    secrets = _draw_secrets(scenario, rng)
    # A size left None takes the protocol's default in its runner.  No
    # untapped link mismatches, so the decoy tolerance has nothing to pass.
    options = dict(check_rounds=scenario.check_rounds, decoy_count=scenario.decoy_count, rng=rng)
    if scenario.roles.monitored:  # only a monitored protocol has variants and result vectors to publish
        return proto.run_proposed(
            scenario.n, scenario.m, secrets, variant=scenario.variant, announce_r=scenario.announce_r_vectors, **options
        )
    return proto.run_zhang_baseline(scenario.m, secrets, **options)


def _bit_generator(seeds: TrialSeeds, trial: int):
    """Trial ``trial``'s PCG64, seeded from ``seeds``: the one source of
    every draw of the trial, whichever program runs it."""
    return np.random.default_rng(seeds(trial)).bit_generator


def _run_block(scenario: Scenario, strategy: adversaries.AdversaryStrategy, start: int, stop: int) -> Dict[str, int]:
    seeds = TrialSeeds(scenario.seed)
    # Honest trials whose secrets are drawn once stay on the per-trial
    # program until the benchmark folds each call's outcome as it goes
    # (ROADMAP item 21 step a): at the engine's speed its honest workload
    # would keep enough more calls to raise its peak RSS past its bound.
    if strategy.kind == adversaries.KIND_NONE and scenario.secrets.policy != "forced_unequal":
        totals: Dict[str, int] = {}
        for trial in range(start, stop):
            _extract(_honest_trial(scenario, trial, seeds), totals)
        return totals
    return block.decide(scenario, strategy, range(start, stop), partial(_bit_generator, seeds))


def _merge(into: Dict[str, int], part: Dict[str, int]) -> None:
    for key, value in part.items():
        into[key] = into.get(key, 0) + value


_ROW_DEFS = (
    # (metric name, successes key, denominator key)
    ("abort_rate", "aborted", "trials"),
    ("detected_step2_rate", "abort_step2", "trials"),
    # By cause: the baseline numbers its state check step 4, the proposed
    # protocol step 3.
    ("detected_step3_rate", "abort_state_check_failed", "trials"),
    ("conflict_rate", "abort_step7", "trials"),
    ("completed_rate", "completed", "trials"),
    ("verdict_correct_rate", "pairs_verdict_correct", "pairs_total"),
    ("r_exact_rate", "pairs_r_exact", "pairs_r_checked"),
    ("attack_bit_accuracy", "attack_bits_correct", "attack_bits_guessed"),
    ("attack_legit_bit_accuracy", "attack_legit_bits_correct", "attack_legit_bits_guessed"),
    ("x_check_fail_rate", "x_check_failures", "x_check_rounds"),
    ("z_check_fail_rate", "z_check_failures", "z_check_rounds"),
    ("tamper_detection_conditional", "tamper_distinct_runs_detected", "tamper_distinct_runs"),
)


def metric_rows(totals: Dict[str, int], targets: Dict[str, Fraction]) -> List[MetricRow]:
    """Every rate with a nonzero denominator in ``totals``, with its Wilson
    interval and, as a float, its exact target from ``targets``, if any."""
    rows: List[MetricRow] = []
    for name, num_key, den_key in _ROW_DEFS:
        denom = totals.get(den_key, 0)
        if denom == 0:
            continue
        num = totals.get(num_key, 0)
        lo, hi = wilson_interval(num, denom)
        target = targets.get(name)
        rows.append(MetricRow(name, num / denom, lo, hi, None if target is None else float(target), denom))
    return rows


# Where trial workers and their pipes come from: the default context, whose
# start method is the one set_start_method last chose (fork on Linux up to
# Python 3.13).  Not get_context(), which would fix the method at import.
_CONTEXT = multiprocessing
# Trial workers of run_scenario, started on first need and reused by every
# later call in this process: the parent end of each worker's pipe and its
# process.  A call waits for every worker it uses and a failed call stops
# them all, so between calls every worker here is idle.
_workers: List[Tuple[Connection, multiprocessing.Process]] = []


def run_scenario(scenario: Scenario, jobs: int = 1) -> TrialStats:
    """Run all trials and aggregate.  Same (scenario, seed) => same stats,
    independent of ``jobs`` (1..MAX_JOBS).

    The trials go into ``min(trials, jobs)`` contiguous shares: this process
    runs the first and one trial worker runs each of the others.  Workers
    start on first need and are reused for the life of this process, so
    only a process that makes several calls with ``jobs`` > 1 saves their
    start-up.  Each call sends a worker its scenario, the scenario's
    strategy (built once a call, by ``Scenario.validate``) and its share in
    the message; apart from that, a worker runs the modules as they were
    when it started (a fork, on Linux), not as they are now.  A worker's
    exception is raised here.  Any failed call terminates and joins every
    worker, and workers also end when this process exits.
    """
    if not _is_int(jobs) or not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be an integer in 1..{MAX_JOBS}, got {jobs!r}")
    strategy = scenario.validate()
    targets = strategy.targets(scenario)
    trials = scenario.trials
    parts = min(trials, jobs)
    bounds = [round(i * trials / parts) for i in range(parts + 1)]
    try:
        while len(_workers) < parts - 1:
            _start_worker()
        used = _workers[: parts - 1]
        # A worker that has died shows as a broken pipe on the send, or as
        # EOF or a reset pipe on the receive, depending on when it died.
        for (end, worker), start, stop in zip(used, bounds[1:-1], bounds[2:]):
            try:
                end.send((scenario, strategy, start, stop))
            except OSError:
                worker.join()
                raise RuntimeError(
                    f"a trial worker exited with code {worker.exitcode} before its share was sent"
                ) from None
        totals = _run_block(scenario, strategy, bounds[0], bounds[1])
        for end, worker in used:
            try:
                part = end.recv()
            except (EOFError, OSError):
                worker.join()
                raise RuntimeError(
                    f"a trial worker exited with code {worker.exitcode} before sending its counters"
                ) from None
            if isinstance(part, Exception):
                raise part
            _merge(totals, part)
    except BaseException:
        _stop_workers()
        raise
    return TrialStats(scenario.to_config(), totals, metric_rows(totals, targets))


def _start_worker() -> None:
    """Start one more trial worker."""
    end, worker_end = _CONTEXT.Pipe()
    worker = _CONTEXT.Process(target=_serve, args=(worker_end, end), daemon=True)
    worker.start()
    worker_end.close()
    _workers.append((end, worker))


def _stop_workers() -> None:
    """Terminate and join every trial worker."""
    while _workers:
        end, worker = _workers.pop()
        if worker.is_alive():
            worker.terminate()
        worker.join()
        end.close()


def _serve(conn: Connection, parent_end: Connection) -> None:
    """A trial worker's body: for each ``(scenario, strategy, start, stop)``
    received, send back the counters of trials ``start..stop``, or the
    exception they raise, until the pipe reaches EOF."""
    # A forked worker inherits the parent end of its own pipe and of every
    # older worker's.  Holding none of them, each worker sees EOF, and ends,
    # once the parent is gone, even when the parent was killed.
    parent_end.close()
    for end, _ in _workers:
        end.close()
    # Ctrl-C in a terminal signals the whole process group.  A caller
    # interrupted mid-call stops its workers itself, and an idle worker
    # stays usable.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            scenario, strategy, start, stop = conn.recv()
            try:
                message = _run_block(scenario, strategy, start, stop)
            except Exception as exc:  # noqa: BLE001 - raised again in the caller
                message = exc
            conn.send(message)
    except (EOFError, BrokenPipeError):
        pass  # the caller has gone
