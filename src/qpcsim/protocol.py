"""The multiparty comparison protocol, its two-party baseline, and the
machinery around one run: transcripts, the cooperative state check, the
cross-check of the two announcers, and the idealized arbiter.

One run is strictly sequential.  Step numbering in transcripts:

1. the first third party prepares 2m shared registers;
2. decoy-protected distribution to every participant, the public decoy
   discussion, and the preparation message to the second third party;
3. cooperative correctness check of randomly chosen registers;
4. each participant Z-measures its retained particles into a key string;
5. masked comparison strings (key XOR secret) go to both third parties;
6. both third parties compute and announce a verdict per pair;
7. participants cross-compare the two announcements.

Aborts carry a machine-readable cause: ``decoy_mismatch`` (step 2),
``state_check_failed`` (step 3), ``announcement_conflict`` (step 7).  One
body runs both protocols; the baseline's lone third party announces without
a cross-check, and it numbers its optional state check 4, its announcement 7.

``run_proposed`` and ``run_zhang_baseline`` count one honest trial of a
checked ``Scenario``.  Trials with an adversary, and every transcript, are
run by the block engine (``block``), which lays a run's ``Transcript`` out
through ``record``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import xor
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .adversaries import DIFFERENT, IDENTICAL, TP, TP1, TP2, AdversaryStrategy, ClassicalPositionTamper
from .ghz import Basis, GhzRegister, GhzSpec, ghz_from_index, pair_xor
from .photons import interleave
from .stream import Stream
# Unused here since an honest run's decoys are only drawn past: the
# benchmark's tracer still wraps these names.
from .photons import generate_decoys, public_discussion  # noqa: F401

VARIANT_BROADCAST = "classical_broadcast"
VARIANT_TP2_RELAY = "tp2_relay"
VARIANTS = (VARIANT_BROADCAST, VARIANT_TP2_RELAY)

CAUSE_DECOY = "decoy_mismatch"
CAUSE_STATE_CHECK = "state_check_failed"
CAUSE_CONFLICT = "announcement_conflict"

SCHEMA_VERSION = 1


def xor_bits(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    if len(a) != len(b):
        raise ValueError("bit vectors must have equal length")
    return tuple(map(xor, a, b))


def verdict_for(r: Sequence[int]) -> str:
    return DIFFERENT if any(r) else IDENTICAL


class Announcement(NamedTuple):
    """One third party's published result for one pair."""

    source: str
    pair: Tuple[int, int]
    verdict: str
    r: Optional[Tuple[int, ...]] = None


# No run calls this since ``record`` accepts a pair whose two verdicts agree:
# the benchmark's tracer still wraps it, and the tests read it.
def cross_check(a1: Announcement, a2: Announcement) -> bool:
    """True iff the two announcements agree (verdicts, and vectors if both
    were published); disagreement means one announcer lied."""
    if a1.pair != a2.pair:
        raise ValueError("announcements cover different pairs")
    if a1.verdict != a2.verdict:
        return False
    if a1.r is not None and a2.r is not None and a1.r != a2.r:
        return False
    return True


class Step3Report(NamedTuple):
    """Verdict of the cooperative state check, round by round."""

    passed: bool
    failures: Tuple[int, ...]
    bases: Tuple[int, ...]
    outcomes: Sequence[Sequence[int]]


def step3_check(
    claimed: Sequence[GhzSpec],
    bases: Sequence[Basis],
    outcomes: Sequence[Sequence[int]],
) -> Step3Report:
    """Consistency check of joint outcomes against claimed preparations.

    Each round's outcome lists the bits of particles 1..n in order.  A Z
    round must see every particle agree with the claimed bit vector up to
    one global flip; an X round must see a |-> count with the claimed phase
    parity.
    """
    if not len(claimed) == len(bases) == len(outcomes):
        raise ValueError("claimed states, bases, and outcomes must align")
    failures: List[int] = []
    for r, (spec, basis, bits) in enumerate(zip(claimed, bases, outcomes)):
        if len(bits) != len(spec.q):
            raise ValueError(f"round {r} has {len(bits)} outcomes for {len(spec.q)} particles")
        if basis:  # X
            ok = sum(bits) % 2 == spec.delta
        else:
            bits = tuple(bits)
            ok = bits == spec.q or bits == spec.complement()
        if not ok:
            failures.append(r)
    return Step3Report(not failures, tuple(failures), tuple(map(int, bases)), outcomes)


def arbiter_identify(
    comparison_specs: Sequence[GhzSpec],
    comps: Dict[int, Sequence[int]],
    tp1_announcements: Dict[Tuple[int, int], Announcement],
    tp2_announcements: Dict[Tuple[int, int], Announcement],
) -> Optional[str]:
    """Name the announcer whose verdicts contradict the committed preparation.

    The arbiter holds a tamper-proof commitment to the preparation list and
    the submitted masked strings, so it can recompute every pairwise verdict
    itself.  Returns "TP1", "TP2", "both", or None when both match.
    """
    liars: set = set()
    for pair in sorted(tp1_announcements):
        i, j = pair
        t = tuple(pair_xor(spec, i, j) for spec in comparison_specs)
        r = xor_bits(xor_bits(t, comps[i]), comps[j])
        expected = verdict_for(r)
        if tp1_announcements[pair].verdict != expected:
            liars.add(TP1)
        if tp2_announcements[pair].verdict != expected:
            liars.add(TP2)
    if not liars:
        return None
    return "both" if len(liars) == 2 else liars.pop()


def _state_to_dict(state: object) -> dict:
    if isinstance(state, GhzSpec):
        return {"kind": "ghz", **state.to_dict()}
    return {"kind": "product", "bits": "".join(str(b) for b in state)}


class Transcript:
    """Outcome summary of one run; ``events`` rebuilds its ordered event record from it."""

    def __init__(self, protocol: str, params: dict) -> None:
        self.protocol = protocol
        self.params = params
        self.aborted = False
        self.abort_step: Optional[int] = None
        self.abort_cause: Optional[str] = None
        self.secrets: Tuple[Tuple[int, ...], ...] = ()
        self.claimed_specs: List[GhzSpec] = []
        self.true_states: List[object] = []
        self.checked_positions: List[int] = []
        self.comparison_positions: List[int] = []
        self.key_positions: Dict[int, List[int]] = {}  # participant -> the registers it measured into its key
        self.keys: Dict[int, Tuple[int, ...]] = {}
        self.comps: Dict[int, Tuple[int, ...]] = {}
        self.announcements: Dict[str, Dict[Tuple[int, int], Announcement]] = {}
        self.pair_results: Dict[Tuple[int, int], dict] = {}
        self.step3: Optional[Step3Report] = None
        self.decoy_checks: List[dict] = []
        self.arbiter: Optional[str] = None

    def mark_abort(self, step: int, cause: str) -> None:
        self.aborted = True
        self.abort_step = step
        self.abort_cause = cause

    @property
    def events(self) -> List[dict]:
        """The run's public record in order.  A run that aborts leaves every
        later field empty, so nothing past its abort is logged."""
        roles = PROTOCOLS[self.protocol]
        preparer, *others = roles.announcers
        check_step, announce_step = roles.check_step, roles.check_step + 3
        registers = len(self.claimed_specs)
        events: List[dict] = []

        def add(step: int, actor: str, kind: str, **payload) -> None:
            events.append({"step": step, "actor": actor, "kind": kind, "payload": payload})

        add(1, preparer, "prepare", registers=registers)
        for check in self.decoy_checks:
            k = check["participant"]
            if roles.log_traffic:
                add(2, preparer, "quantum_send", to=f"P{k}", carriers=registers, decoys=check["total"])
            add(2, f"P{k}", "decoy_check", passed=check["passed"], mismatches=check["mismatches"])
        if self.abort_step != 2:
            for other in others:
                add(2, preparer, "initial_states", to=other, count=registers)
        report = self.step3
        if report is not None:
            if roles.log_traffic:
                add(3, "P1", "check_positions", positions=self.checked_positions, variant=self.params["variant"])
                add(3, "P2", "check_bases", bases=list(report.bases))
                for r, outcome in enumerate(report.outcomes):
                    add(3, "all", "check_measurement", round=r, outcome=dict(enumerate(outcome, 1)))
            add(check_step, *roles.check_verdict, passed=report.passed, failures=list(report.failures))
        for k, positions in self.key_positions.items():
            add(check_step + 1, f"P{k}", "key_measurement", positions=positions)
            if roles.joint_submitter is None:
                add(check_step + 2, f"P{k}", "comparison_submitted", to=list(roles.announcers))
        if roles.joint_submitter and self.key_positions:
            add(check_step + 2, roles.joint_submitter, "comparison_submitted", to=preparer)
        for announcer, by_pair in self.announcements.items():
            for pair, announcement in by_pair.items():
                add(announce_step, announcer, "announcement", pair=list(pair), verdict=announcement.verdict)
        if others:  # a lone announcer stands unchecked
            for pair, info in self.pair_results.items():
                add(announce_step + 1, "participants", "cross_check", pair=list(pair), accepted=info["accepted"])
        if self.aborted:
            add(self.abort_step, "protocol", "abort", cause=self.abort_cause)
        if self.abort_cause == CAUSE_CONFLICT:
            add(announce_step + 1, "Arbiter", "liar_identified", liar=self.arbiter)
        return events

    def to_dict(self) -> dict:
        pair_key = lambda pair: f"{pair[0]}-{pair[1]}"  # noqa: E731
        return {
            "schema_version": SCHEMA_VERSION,
            "protocol": self.protocol,
            "params": self.params,
            "events": self.events,
            "result": {
                "aborted": self.aborted,
                "abort_step": self.abort_step,
                "abort_cause": self.abort_cause,
                "checked_positions": list(self.checked_positions),
                "comparison_positions": list(self.comparison_positions),
                "claimed_states": [s.to_dict() for s in self.claimed_specs],
                "true_states": [_state_to_dict(s) for s in self.true_states],
                "keys": {str(k): "".join(map(str, v)) for k, v in sorted(self.keys.items())},
                "comparisons": {str(k): "".join(map(str, v)) for k, v in sorted(self.comps.items())},
                "announcements": {
                    source: {
                        pair_key(p): {"verdict": a.verdict, "r": None if a.r is None else "".join(map(str, a.r))}
                        for p, a in sorted(anns.items())
                    }
                    for source, anns in sorted(self.announcements.items())
                },
                "pairs": {pair_key(p): info for p, info in sorted(self.pair_results.items())},
                "arbiter": self.arbiter,
                "decoy_checks": self.decoy_checks,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def record(scenario, kind: str, secrets, states: List[object], claimed: List[GhzSpec], mismatches: Dict[int, int],
           step3: Optional[Step3Report] = None, checked=(), key_positions=None, keys=None, r=None, verdicts=None,
           arbiter: Optional[str] = None) -> Transcript:
    """The transcript of one run of ``scenario`` under adversary ``kind``,
    laid out from what each step it reached made, as the block engine's
    ``transcript`` reads it from a one-row run.

    Step 1 made the ``secrets``, the true ``states`` and the ``claimed``
    specs; step 2 each tapped link's decoy ``mismatches``; step 3, where the
    scenario checks, the ``step3`` report of the ``checked`` positions;
    step 4 each participant's ``key_positions`` and ``keys``; step 6 each
    pair's result vector ``r`` and the ``verdicts`` of the first and the
    last announcer (a lone announcer is both), pairs in ``combinations``
    order; step 7 the ``arbiter``'s liar.  The first check that fails ends
    the run: nothing past it is laid out.
    """
    roles, n, l = scenario.roles, scenario.n, scenario.effective_decoy_count()
    params = {"n": n, "m": scenario.m, "check_rounds": scenario.effective_check_rounds(), "decoy_count": l,
              "adversary": kind}
    if roles.monitored:
        params["variant"] = scenario.variant
    t = Transcript(roles.protocol, params)
    t.secrets = secrets = tuple(map(tuple, secrets))
    t.true_states, t.claimed_specs = states, claimed
    tolerance = scenario.decoy_tolerance
    t.decoy_checks = [{"participant": k, "passed": mismatches.get(k, 0) <= tolerance,
                       "mismatches": mismatches.get(k, 0), "total": l} for k in range(1, n + 1)]
    if any(count > tolerance for count in mismatches.values()):
        t.mark_abort(2, CAUSE_DECOY)
        return t
    if step3 is not None:
        t.step3, t.checked_positions = step3, checked
        if not step3.passed:
            t.mark_abort(roles.check_step, CAUSE_STATE_CHECK)
            return t
    t.key_positions = dict(enumerate(key_positions, 1))
    t.comparison_positions = key_positions[0]
    for k, (key, secret) in enumerate(zip(keys, secrets), 1):
        t.keys[k] = key = tuple(key)
        t.comps[k] = xor_bits(key, secret)
    pairs = list(combinations(range(1, n + 1), 2))
    vectors = r if scenario.announce_r_vectors else [None] * len(pairs)
    for announcer, announced in zip(roles.announcers, verdicts):  # a lone announcer is both
        t.announcements[announcer] = {pair: Announcement(announcer, pair, verdict, vector)
                                      for pair, verdict, vector in zip(pairs, announced, vectors)}
    first, last = verdicts
    key1, key2 = roles.verdict_keys[0], roles.verdict_keys[-1]
    for (i, j), verdict1, verdict2 in zip(pairs, first, last):
        truth = IDENTICAL if secrets[i - 1] == secrets[j - 1] else DIFFERENT
        t.pair_results[i, j] = {key1: verdict1, key2: verdict2, "accepted": verdict1 == verdict2, "ground_truth": truth}
    if first != last:
        t.mark_abort(roles.check_step + 4, CAUSE_CONFLICT)
        t.arbiter = arbiter
    return t


@dataclass(frozen=True)
class _Roles:
    """Everything the two protocols do differently; ``_run`` never asks which it runs."""

    protocol: str  # the transcript's protocol name
    announcers: Tuple[str, ...]  # third parties that announce verdicts; the first prepares and distributes
    participants: Optional[int]  # the participant count the protocol fixes, or None: any n
    checks_per_m: int  # default check rounds per secret bit
    decoys_per_m: int  # default decoys per link per secret bit
    prepare_width: Callable[[int], int]  # bits each register of n particles draws in the honest preparation
    prepared: Callable[[int, List[int]], List[GhzSpec]]  # the registers of n particles those draws prepare
    prepared_arrays: Callable[[int, np.ndarray], Tuple[np.ndarray, np.ndarray]]  # their q (..., n) and delta, as arrays
    register_count: Callable[[int, int], int]  # registers prepared for (m, check rounds)
    joint_submitter: Optional[str]  # who submits the XOR of all masked strings, or None: each its own
    check_step: int  # transcript step of the state check; keys are measured in the next, verdicts announced 3 after
    check_verdict: Tuple[str, str]  # actor and kind of the check's verdict event
    log_traffic: bool  # log every send, the check positions, and each check round's bases and outcomes

    @property
    def monitored(self) -> bool:
        """Whether TP2 monitors TP1: only then is there a variant, an r vector to publish, or a TP2 to attack as."""
        return TP2 in self.announcers

    def admits(self, strategy: AdversaryStrategy) -> bool:
        """Whether a run can hold ``strategy``: only a monitored protocol has
        a TP2 to attack as and check positions on a plain broadcast."""
        return self.monitored or not (strategy.party == TP2 or isinstance(strategy, ClassicalPositionTamper))

    @cached_property
    def verdict_keys(self) -> Tuple[str, ...]:
        """The ``pair_results`` key of each announcer's verdict."""
        return tuple(f"{announcer.lower()}_verdict" for announcer in self.announcers)

    def leaves_m(self, m: int, c: int) -> bool:
        """Whether c check rounds leave the m registers the comparison needs."""
        return c >= 0 and self.register_count(m, c) - c >= m


_PROPOSED = _Roles(
    "proposed", (TP1, TP2), None, 1, 2, lambda n: n, lambda n, drawn: [ghz_from_index(i + 1, n) for i in drawn],
    # ghz_from_index(i + 1, n) has delta = i & 1 and q[k] = (i >> (n - k)) & 1.
    lambda n, drawn: (drawn[..., None] >> (n - np.arange(n)) & 1, drawn & 1),
    lambda m, c: 2 * m, None, 3, (TP2, "check_verdict"), True,
)
# The baseline's helper draws each register from two Bell states by one
# bit.  Its participants XOR their masked strings together and submit once;
# its transcript records only the decoy checks and the check verdict.
_BELL = (GhzSpec((0, 0), 0), GhzSpec((0, 1), 1))
_BELL_Q, _BELL_DELTA = np.array([spec.q for spec in _BELL]), np.array([spec.delta for spec in _BELL])
_BASELINE = _Roles(
    "zhang_baseline", (TP,), 2, 0, 1, lambda n: 1, lambda n, drawn: [_BELL[b] for b in drawn],
    lambda n, drawn: (_BELL_Q[drawn], _BELL_DELTA[drawn]),
    lambda m, c: m + c, "P1+P2", 4, ("P1+P2", "state_check"), False,
)
PROTOCOLS = {roles.protocol: roles for roles in (_PROPOSED, _BASELINE)}


def _secrets(scenario, rng: Stream) -> List[List[int]]:
    """Step 1's secrets, drawn first, as the block engine draws them."""
    n, m = scenario.n, scenario.m
    policy = scenario.secrets.policy
    if policy == "explicit":
        return scenario.secrets.values
    if policy == "forced_equal":
        return [rng.bits(m)] * n
    while True:
        # n*m bits cut into rows are n size-m draws, value for value, as one
        # (n, m) draw gives them (a numpy property tests/test_ghz.py pins).
        bits = rng.bits(n * m)
        secrets = [bits[s : s + m] for s in range(0, n * m, m)]
        # forced_unequal draws all n again until they differ.
        if policy != "forced_unequal" or len(set(map(tuple, secrets))) == n:
            return secrets


def _check_rounds(registers: GhzRegister, positions: List[int], claimed: List[GhzSpec], rng: Stream) -> Step3Report:
    """Step 3: in each round every participant measures its particle of one
    checked register in that round's random basis, and the joint outcomes
    are tested against the ``claimed`` preparations of the ``positions``."""
    bases = rng.bits(len(positions))
    n = registers.particles
    ids = [p * n + k for p in positions for k in range(n)]
    bits = registers.measure(ids, [b for b in bases for _ in range(n)], rng)
    outcomes = [bits[s : s + n] for s in range(0, len(bits), n)]
    return step3_check(claimed, bases, outcomes)


def _measure_keys(registers: GhzRegister, positions: List[int], m: int, rng: Stream) -> Tuple[List[int], list]:
    """Step 4: each participant Z-measures the first m registers the check
    left into its key string; with fewer than m checks the surplus is simply
    never used.  The registers measured, and each participant's key."""
    n = registers.particles
    skipped = set(positions)
    kept = [p for p in range(registers.n // n) if p not in skipped][:m]
    ids = [p * n + k for k in range(n) for p in kept]
    # Every participant skips at most m of the 2m (or m + c) registers.
    bits = registers.measure(ids, [Basis.Z] * len(ids), rng)
    return kept, [bits[k * m : (k + 1) * m] for k in range(n)]


def _pads(specs: Sequence[GhzSpec]) -> List[Tuple[int, ...]]:
    """Entry k - 1 holds participant k's pads against P1 on ``specs``, in
    order: ``pair_xor(spec, 1, k)``, which is q[k - 1] because q[0] == 0."""
    return list(zip(*(spec.q for spec in specs)))


def run_proposed(scenario, rng: Stream) -> Dict[str, int]:
    """The counters of one honest trial of a two-watchdog multiparty
    ``scenario`` that ``Scenario.validate`` accepted, drawn from ``rng``, the
    trial's ``Stream``.

    TP1 prepares 2m registers, of which the scenario's check rounds
    (default m) are checked.
    """
    return _run(scenario, rng)


def run_zhang_baseline(scenario, rng: Stream) -> Dict[str, int]:
    """The counters of one honest trial of a single-third-party two-party
    baseline ``scenario``, as for ``run_proposed``.

    The single helper prepares Bell pairs drawn from {(|00>+|11>)/sqrt(2),
    (|01>-|10>)/sqrt(2)}, the participants XOR their masked strings together
    before submission, and the helper alone announces the verdict.  There is
    no second announcer, so its verdict stands unchecked.

    The helper prepares m + check_rounds (default 0) pairs so the optional
    state check (which consumes pairs and needs the participant-to-participant
    authenticated channel that strangers lack) leaves m for comparison.
    The check positions travel on that channel, so no variant applies and
    nothing can tamper with them.
    """
    return _run(scenario, rng)


def _run(scenario, rng: Stream) -> Dict[str, int]:
    """Steps 1-7 of one honest trial of either protocol, with the sizes and
    secrets of ``scenario``: the trial's counters, as the block engine
    counts them, but that a count of 0 leaves its key out."""
    roles, n, m = scenario.roles, scenario.n, scenario.m
    c = scenario.effective_check_rounds()
    total = roles.register_count(m, c)

    # Step 1: the secrets, then the registers, each in one draw.
    secrets = _secrets(scenario, rng)
    states = roles.prepared(n, rng.bits(total, roles.prepare_width(n)))
    registers = GhzRegister(states)
    # Step 2: particle k of every register goes to participant k with fresh
    # decoys mixed in, and each participant's decoys are then checked in
    # public.  Untapped, every link arrives as sent and passes its check, so
    # one ``interleave`` call draws past every link's draws.
    interleave(total, scenario.effective_decoy_count(), n, rng)

    # Step 3: cooperative correctness check of c randomly chosen registers.
    # Honest registers pass every round; a failed one would end the trial
    # all the same.
    counts = {"trials": 1}
    positions = rng.sample(total, c) if c else []
    report = _check_rounds(registers, positions, [states[p] for p in positions], rng) if c else None
    if report is not None:
        x_rounds, x_failures = sum(report.bases), sum(report.bases[k] for k in report.failures)
        counts.update(x_check_rounds=x_rounds, z_check_rounds=c - x_rounds, x_check_failures=x_failures,
                      z_check_failures=len(report.failures) - x_failures)
    if report is not None and not report.passed:
        counts.update({"aborted": 1, f"abort_step{roles.check_step}": 1, f"abort_{CAUSE_STATE_CHECK}": 1})
    else:
        kept, keys = _measure_keys(registers, positions, m, rng)
        # Steps 5-6: every announcer holds the same claimed states and masked
        # strings (or the baseline's XOR of them), so each pair's result
        # vector is computed once, and its verdict is "different" where the
        # vector is nonzero.  The pad of pair (i, j) is the XOR of i's and
        # j's pads against P1.  Honest announcers announce alike, so step 7
        # accepts every pair.  A verdict is correct where the vector is
        # nonzero exactly when the secrets differ, and a vector exact where
        # it is their XOR.
        pads = _pads([states[p] for p in kept])
        unpadded = [xor_bits(key, secret) for key, secret in zip(keys, secrets)]
        unpadded[1:] = [tuple(map(xor, pad, comp)) for pad, comp in zip(pads[1:], unpadded[1:])]
        pairs = list(combinations(range(n), 2))
        r = [xor_bits(unpadded[i], unpadded[j]) for i, j in pairs]
        truth = [xor_bits(secrets[i], secrets[j]) for i, j in pairs]
        counts.update(completed=1, pairs_total=len(pairs),
                      pairs_verdict_correct=sum(any(v) == any(t) for v, t in zip(r, truth)),
                      pairs_r_checked=len(pairs), pairs_r_exact=sum(v == t for v, t in zip(r, truth)))
    return {key: value for key, value in counts.items() if value}
