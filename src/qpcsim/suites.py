"""The built-in acceptance battery.

``paper_tables`` runs every headline claim of the protocol analysis at desk
scale against its closed-form target and returns one row per check.  Rows
carry only deterministic content (wall-clock durations are reported
separately) so two runs with the same seed serialize byte-identically
regardless of the parallelism used.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import astuple, dataclass, field, fields, replace
from fractions import Fraction
from functools import partial
from itertools import groupby, product
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .adversaries import (
    KIND_EVE,
    KIND_PARTICIPANT_INFER,
    KIND_POSITION_TAMPER,
    KIND_TP1_FAKE_RESULT,
    KIND_TP1_FAKE_STATE,
    KIND_TP2_FAKE_RESULT,
    KIND_TP2_INTERCEPT,
)
from .errors import ConfigError
from .ghz import Basis, GhzRegister, GhzSpec, OracleRegister, all_specs, ghz_from_index, pair_xor, x_expansion
from .harness import AdversarySpec, Scenario, TrialStats, csv_text, metric_rows, run_scenario
from .protocol import VARIANT_TP2_RELAY
from .stream import Stream

DEFAULT_SEED = 1729
SUITE_NAMES = ("paper_tables",)


@dataclass
class SuiteRow:
    id: str
    name: str
    measured: float
    target: Optional[float]
    tolerance: str
    passed: bool
    info: str = ""


@dataclass
class SuiteResult:
    name: str
    seed: int
    rows: List[SuiteRow]
    durations: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def row(self, row_id: str) -> SuiteRow:
        for row in self.rows:
            if row.id == row_id:
                return row
        raise KeyError(f"no suite row `{row_id}`")

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": 1,
                "suite": self.name,
                "seed": self.seed,
                "passed": self.passed,
                "rows": [vars(row) for row in self.rows],
            },
            sort_keys=True,
            indent=2,
        )

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(SuiteRow)], map(astuple, self.rows))

    def format_table(self) -> str:
        header = f"{'id':<22} {'measured':>12} {'target':>12} {'tolerance':<22} result"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            target = "" if r.target is None else f"{r.target:.6f}"
            lines.append(
                f"{r.id:<22} {r.measured:>12.6f} {target:>12} {r.tolerance:<22} {'PASS' if r.passed else 'FAIL'}"
            )
            if r.info:
                lines.append(f"    {r.info}")
        if self.durations:
            per_criterion = " ".join(f"{crit}={secs:.2f}" for crit, secs in self.durations.items())
            lines.append(f"wall seconds per criterion: {per_criterion}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _three_sigma(target: float, count: int) -> float:
    return 3.0 * math.sqrt(max(target * (1.0 - target), 0.0) / count)


# ---------------------------------------------------------------------------
# Criteria 1-6: a table of scenarios and the rows measured on them
# ---------------------------------------------------------------------------

EXACT = "exact"
THREE_SIGMA = "3sigma"


def _tamper(count: int) -> AdversarySpec:
    return AdversarySpec(KIND_POSITION_TAMPER, {"count": count, "policy": "paired_specs"})


# Every scenario of criteria 1-6 by key, with its seed offset.  With suite
# seed s each runs once, at seed 1000*s + offset.
_SCENARIOS: Dict[str, Tuple[int, Scenario]] = {
    **{f"honest_n{n}": (n, Scenario(n=n, m=16, trials=1000)) for n in (2, 3, 4, 5)},
    **{
        f"eve_l{l}": (
            20 + l,
            Scenario(n=2, m=2, decoy_count=l, trials=10_000, adversary=AdversarySpec(KIND_EVE, {"links": [1]})),
        )
        for l in (1, 5, 10, 20)
    },
    "tp1_flip": (50, Scenario(n=3, m=8, trials=1000, adversary=AdversarySpec(KIND_TP1_FAKE_RESULT, {}))),
    "tp2_flip": (51, Scenario(n=3, m=8, trials=1000, adversary=AdversarySpec(KIND_TP2_FAKE_RESULT, {}))),
    "baseline_flip": (
        52,
        Scenario(protocol="zhang_baseline", n=2, m=8, trials=1000, adversary=AdversarySpec(KIND_TP1_FAKE_RESULT, {})),
    ),
    **{
        f"fake_c{c}": (
            60 + c,
            Scenario(
                n=3, m=c, check_rounds=c, decoy_count=2, trials=10_000, adversary=AdversarySpec(KIND_TP1_FAKE_STATE, {})
            ),
        )
        for c in (4, 8, 16)
    },
    # The baseline's state check needs an authenticated channel between its
    # participants: strangers have none, so they run without the check.
    "strangers": (
        70,
        Scenario(protocol="zhang_baseline", n=2, m=4, check_rounds=0, trials=1000,
                 adversary=AdversarySpec(KIND_TP1_FAKE_STATE, {})),
    ),
    "acquainted": (
        71,
        Scenario(protocol="zhang_baseline", n=2, m=4, check_rounds=4, trials=4000,
                 adversary=AdversarySpec(KIND_TP1_FAKE_STATE, {})),
    ),
    **{
        f"tamper_l{l}": (80 + l, Scenario(n=3, m=16, check_rounds=8, decoy_count=2, trials=10_000, adversary=_tamper(l)))
        for l in (1, 4, 8)
    },
    "tamper_relay": (
        89,
        Scenario(
            n=3, m=16, check_rounds=8, decoy_count=2, variant=VARIANT_TP2_RELAY, trials=1000, adversary=_tamper(8)
        ),
    ),
    "infer": (
        90,
        Scenario(n=3, m=16, trials=700, adversary=AdversarySpec(KIND_PARTICIPANT_INFER, {"attacker": 1, "victim": 2})),
    ),
    "infer_counterfactual": (
        91,
        Scenario(
            n=3,
            m=16,
            trials=700,
            adversary=AdversarySpec(KIND_PARTICIPANT_INFER, {"attacker": 1, "victim": 2, "counterfactual": True}),
        ),
    ),
    "tp2_intercept": (
        92,
        Scenario(
            n=3,
            m=16,
            check_rounds=2,
            decoy_count=2,
            trials=2600,
            adversary=AdversarySpec(KIND_TP2_INTERCEPT, {"links": [1], "victim": 1}),
        ),
    ),
}


@dataclass(frozen=True)
class _Row:
    """One suite row: a metric of the named scenarios' pooled counters held
    against a target under a tolerance rule."""

    id: str
    name: str
    keys: Tuple[str, ...]
    # A harness metric name, or a measure function of the pooled stats
    # (measured rows are held exactly).
    metric: Union[str, Callable[[TrialStats], float]]
    target: Optional[float]  # None: the MetricRow.target its adversary kind states
    rule: str  # EXACT, or THREE_SIGMA around the target over the metric's count
    info: str = ""  # format template over the pooled counters `c` and the `also` result
    also: Optional[Callable[[TrialStats], bool]] = None  # a further condition the row requires


def _honest(stats: TrialStats) -> float:
    """1 only if every result vector is exact, every verdict right and no run aborted."""
    # A run every trial of which aborts has no result vector or verdict to rate.
    if stats.counters.get("aborted", 0):
        return 0.0
    return min(stats.row("r_exact_rate").estimate, stats.row("verdict_correct_rate").estimate)


def _relay_unharmed(stats: TrialStats) -> float:
    return min(stats.row("completed_rate").estimate, stats.row("verdict_correct_rate").estimate)


def _wrong_verdict_accepted(stats: TrialStats) -> bool:
    return stats.row("verdict_correct_rate").estimate == 0.0


_FAKE = ("fake_c4", "fake_c8", "fake_c16")

# 1: honest runs are exactly correct.  2: intercept-resend on one link is
# caught by the decoy check at 1-(3/4)^l.  3: a verdict flip by either
# announcer always conflicts, while the same flip against the
# single-announcer baseline is never detected.  4: an all-|0> preparation
# passed off as the all-|0>-vector entangled state fails an X round half
# the time and a Z round never; against the baseline it goes unseen by
# strangers, who cannot run the state check, and is caught at 1-(3/4)^c by
# clients who know each other and check c rounds.  5: substituted
# broadcast check positions are caught at 1-(1/2)^l, and relaying them
# through the checking third party removes the attack.  6: a protocol-following participant guesses a
# victim's bits at chance unless granted the preparation list (then
# perfectly); the checking third party's intercept records in undetected
# runs are held against the same chance-level target.
_ROWS: Tuple[_Row, ...] = (
    *(
        _Row(f"1.n{n}", f"honest correctness, n={n}", (f"honest_n{n}",), _honest, 1.0, EXACT,
             "pairs={c[pairs_r_checked]} aborts={c[aborted]}")
        for n in (2, 3, 4, 5)
    ),
    *(
        _Row(f"2.l{l}", f"outsider decoy detection, l={l}", (f"eve_l{l}",), "detected_step2_rate", None, THREE_SIGMA)
        for l in (1, 5, 10, 20)
    ),
    _Row("3.tp1_flip", "verdict flip by TP1 conflicts", ("tp1_flip",), "conflict_rate", 1.0, EXACT,
         "arbiter named TP1 in {c[arbiter_tp1]}/{c[abort_step7]} conflicts"),
    _Row("3.tp2_flip", "verdict flip by TP2 conflicts", ("tp2_flip",), "conflict_rate", 1.0, EXACT,
         "arbiter named TP2 in {c[arbiter_tp2]}/{c[abort_step7]} conflicts"),
    _Row("3.baseline_flip", "baseline verdict flip undetected", ("baseline_flip",), "abort_rate", 0.0, EXACT,
         "wrong verdict accepted in all completed runs: {also}", also=_wrong_verdict_accepted),
    *(
        _Row(f"4.c{c}", f"fake preparation detection, c={c}", (f"fake_c{c}",), "detected_step3_rate", None,
             THREE_SIGMA)
        for c in (4, 8, 16)
    ),
    _Row("4.x_round", "per-X-round detection of the fake preparation", _FAKE, "x_check_fail_rate", None, THREE_SIGMA,
         "{c[x_check_failures]}/{c[x_check_rounds]} X rounds failed"),
    _Row("4.z_round", "Z rounds never expose the fake preparation", _FAKE, "z_check_fail_rate", None, EXACT,
         "{c[z_check_rounds]} Z rounds"),
    _Row("4.strangers", "baseline between strangers never sees the fake preparation", ("strangers",), "abort_rate",
         0.0, EXACT, "{c[completed]}/{c[trials]} runs completed"),
    _Row("4.acquainted", "baseline state check between acquaintances, c=4", ("acquainted",), "detected_step3_rate",
         None, THREE_SIGMA, "{c[x_check_failures]}/{c[x_check_rounds]} X rounds failed"),
    *(
        _Row(f"5.l{l}", f"position-tamper detection, l={l}", (f"tamper_l{l}",), "tamper_detection_conditional", None,
             THREE_SIGMA, "distinct-pair tampered runs: {c[tamper_distinct_runs]}/{c[trials]}")
        for l in (1, 4, 8)
    ),
    _Row("5.relay", "relay variant unharmed by the tamperer", ("tamper_relay",), _relay_unharmed, 1.0, EXACT,
         "trials={c[trials]}"),
    _Row("6.case1", "participant inference without preparation knowledge", ("infer",), "attack_bit_accuracy", 0.5,
         THREE_SIGMA, "{c[attack_bits_guessed]} bits"),
    _Row("6.case1_counterfactual", "participant inference granted preparation knowledge",
         ("infer_counterfactual",), "attack_bit_accuracy", 1.0, EXACT, "{c[attack_bits_guessed]} bits"),
    _Row("6.case3", "checking TP's intercept records in undetected runs", ("tp2_intercept",), "attack_bit_accuracy",
         0.5, THREE_SIGMA,
         "{c[attack_bits_guessed]} undetected-run bits; matching-basis intercepts pin the delivered key bit, "
         "so the records-assisted accuracy sits at 3/4 and the idealized 1/2 target is "
         "unreachable; kept red deliberately (see README)"),
    _Row("6.case3_legit_view", "checking TP restricted to its legitimate view", ("tp2_intercept",),
         "attack_legit_bit_accuracy", 0.5, THREE_SIGMA, "{c[attack_legit_bits_guessed]} undetected-run bits"),
)


def _pooled(stats: List[TrialStats]) -> TrialStats:
    """One scenario's stats, or the merged counters of several with the targets they all state alike."""
    if len(stats) == 1:
        return stats[0]
    totals: Counter = Counter()
    for part in stats:
        totals.update(part.counters)
    stated = [{row.name: row.target for row in part.rows if row.target is not None} for part in stats]
    alike = {name: Fraction(t) for name, t in stated[0].items() if all(s.get(name) == t for s in stated)}
    return TrialStats({}, totals, metric_rows(totals, alike))


def _evaluate(row: _Row, stats: TrialStats) -> SuiteRow:
    if callable(row.metric):
        measured, count, target = row.metric(stats), 0, row.target
    else:
        metric = stats.row(row.metric)
        measured, count = metric.estimate, metric.count
        target = metric.target if row.target is None else row.target
    bound = _three_sigma(target, count) if row.rule == THREE_SIGMA else 0.0
    if bound == 0.0:
        tolerance, passed = EXACT, measured == target
    else:
        tolerance, passed = f"+-{bound:.6f}", abs(measured - target) <= bound
    also = row.also(stats) if row.also else True
    info = row.info.format(c=Counter(stats.counters), also=also)
    return SuiteRow(row.id, row.name, measured, target, tolerance, passed and also, info)


class _FairBits:
    """Stands in for a bit generator whose first 32-bit outputs carry the
    given fair bits in their top bits, and whose later ones are zero: a
    ``Stream`` over it draws those bits first."""

    __slots__ = ("_words",)

    def __init__(self, bits) -> None:
        self._words = np.array(bits, dtype="<u4") << 31

    def random_raw(self, size: int) -> np.ndarray:
        words = np.zeros(2 * size, dtype="<u4")
        words[: len(self._words)] = self._words[: 2 * size]
        self._words = self._words[2 * size :]
        return words.view("<u8")


def _criterion_7() -> List[SuiteRow]:
    """The register every trial measures through against the exact
    statevector oracle, over every small state, basis, and position subset.

    ``GhzRegister.measure`` reads one fair bit ahead per id and draws only
    from those, so measuring a fresh register once for each of the 2^k
    patterns of those k bits, all equally likely, gives its outcome
    distribution exactly; it must equal the oracle's.
    """
    failures = combos = 0
    first = ""
    for n in (2, 3, 4):
        for spec in all_specs(n):
            for basis in (Basis.Z, Basis.X):
                for mask in range(1, 2**n):
                    ids = [p for p in range(n) if mask & (1 << p)]
                    k = len(ids)
                    counts = np.zeros(2**k, dtype=np.int64)
                    for bits in product((0, 1), repeat=k):
                        outcome = GhzRegister((spec,)).measure(ids, [basis] * k, Stream(_FairBits(bits)))
                        counts[sum(bit << (k - 1 - i) for i, bit in enumerate(outcome))] += 1
                    positions = [p + 1 for p in ids]
                    combos += 1
                    if not np.array_equal(counts / 2**k, OracleRegister(spec).distribution(positions, basis)):
                        failures += 1
                        first = first or f"n={n} index={spec.index} basis={basis.name} positions={positions}"
    return [
        SuiteRow(
            "7",
            "trial register vs statevector oracle (combinations that differ)",
            float(failures),
            0.0,
            EXACT,
            failures == 0,
            f"{combos} combinations, each exact over the fair bits it reads; first that differs: {first or 'none'}",
        )
    ]


# X expansions printed in the protocol analysis for the three-particle
# states (|000>+|111>)/sqrt(2) and (|010>+|101>)/sqrt(2), plus the
# hand-derived expansion of (|011>+|100>)/sqrt(2), which shares the first
# state's support but not its signs.
_EXPANSIONS = {
    ((0, 0, 0), 0): [((0, 0, 0), 1), ((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1)],
    ((0, 1, 0), 0): [((0, 0, 0), 1), ((0, 1, 1), -1), ((1, 0, 1), 1), ((1, 1, 0), -1)],
    ((0, 1, 1), 0): [((0, 0, 0), 1), ((0, 1, 1), 1), ((1, 0, 1), -1), ((1, 1, 0), -1)],
}


def _no_failures(row_id: str, name: str, failures: int) -> SuiteRow:
    return SuiteRow(row_id, name, float(failures), 0.0, EXACT, failures == 0)


def _criterion_8(seed: int) -> List[SuiteRow]:
    """Exact algebra: the index bijection round-trips, X expansions match
    the published examples and the oracle sign-for-sign, and the pairwise
    XOR law holds over sampled outcomes without exception."""
    failures = 0
    for n in range(2, 9):
        for i in range(1, 2**n + 1):
            if ghz_from_index(i, n).index != i:
                failures += 1
    round_trip = _no_failures("8.roundtrip", "index bijection round-trip (n=2..8)", failures)

    failures = 0
    for (q, delta), expected in _EXPANSIONS.items():
        got = [(t.bits, t.sign) for t in x_expansion(GhzSpec(q, delta))]
        if got != expected:
            failures += 1
    for n in range(2, 7):
        for spec in all_specs(n):
            terms = x_expansion(spec)
            if len(terms) != 2 ** (n - 1):
                failures += 1
            if any(sum(t.bits) % 2 != spec.delta for t in terms):
                failures += 1
            if n <= 5:
                # Hadamard-rotate the oracle state and compare sign-for-sign.
                reg = OracleRegister(spec).clone()
                for p in range(1, n + 1):
                    reg._hadamard(p)
                got = sorted(reg._signs.items())
                want = sorted(
                    (sum(b << (n - 1 - k) for k, b in enumerate(t.bits)), t.sign) for t in terms
                )
                if got != want:
                    failures += 1
    expansion = _no_failures("8.expansion", "X expansions vs published examples and oracle", failures)

    failures = 0
    four = ghz_from_index(7, 4)
    if pair_xor(four, 1, 2) != 0 or pair_xor(four, 2, 4) != 1 or pair_xor(four, 3, 3) != 0:
        failures += 1
    specs = [ghz_from_index(1, 3), ghz_from_index(5, 3), ghz_from_index(7, 4), ghz_from_index(2, 2)]
    rng = Stream(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(8,))))
    for spec in specs:
        ids = list(range(spec.n))
        for _ in range(2500):
            outcome = GhzRegister((spec,)).measure(ids, [Basis.Z] * spec.n, rng)
            for i in ids:
                for j in ids[i + 1 :]:
                    if outcome[i] ^ outcome[j] != pair_xor(spec, i + 1, j + 1):
                        failures += 1
    law = _no_failures("8.pair_xor", "pairwise XOR law over 10^4 sampled outcomes", failures)
    return [round_trip, expansion, law]


def paper_tables(seed: int = DEFAULT_SEED, jobs: int = 1) -> SuiteResult:
    """Run acceptance checks 1-8 and return their rows (deterministic for a
    given seed, independent of ``jobs``) with each criterion's wall time."""
    stats: Dict[str, TrialStats] = {}

    def table_rows(rows: List[_Row]) -> List[SuiteRow]:
        out = []
        for row in rows:
            for key in row.keys:
                if key not in stats:
                    offset, template = _SCENARIOS[key]
                    stats[key] = run_scenario(replace(template, seed=seed * 1000 + offset), jobs)
            out.append(_evaluate(row, _pooled([stats[key] for key in row.keys])))
        return out

    criteria = [
        (crit, partial(table_rows, list(rows))) for crit, rows in groupby(_ROWS, key=lambda row: row.id.split(".")[0])
    ]
    criteria += [("7", _criterion_7), ("8", partial(_criterion_8, seed))]
    rows: List[SuiteRow] = []
    durations: Dict[str, float] = {}
    for crit_id, battery in criteria:
        start = time.perf_counter()
        rows.extend(battery())
        durations[crit_id] = time.perf_counter() - start
    return SuiteResult("paper_tables", seed, rows, durations)


def paper_tables_with_determinism(seed: int = DEFAULT_SEED, jobs: int = 1) -> SuiteResult:
    """Full battery plus the reproducibility check: the battery is run a
    second time at a different parallelism level and the two serialized
    results must be byte-identical."""
    first = paper_tables(seed, jobs)
    alt_jobs = 2 if jobs != 2 else 1
    start = time.perf_counter()
    second = paper_tables(seed, alt_jobs)
    identical = first.to_json() == second.to_json() and first.to_csv() == second.to_csv()
    row = SuiteRow(
        "9",
        f"byte-identical results across jobs={jobs} and jobs={alt_jobs}",
        1.0 if identical else 0.0,
        1.0,
        "exact",
        identical,
    )
    first.rows.append(row)
    first.durations["9"] = time.perf_counter() - start
    return first


def run_suite(name: str, seed: int = DEFAULT_SEED, jobs: int = 1) -> SuiteResult:
    if name not in SUITE_NAMES:
        raise ConfigError(f"unknown suite `{name}` (available: {', '.join(SUITE_NAMES)})")
    return paper_tables_with_determinism(seed, jobs)
