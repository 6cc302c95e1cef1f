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

``run_proposed`` and ``run_zhang_baseline`` run one honest trial.  Trials
with an adversary, and every transcript ``qpcsim transcript`` writes, are
run by the block engine (``block``), which records into ``Transcript`` too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
        self.r_values: Dict[str, Dict[Tuple[int, int], Tuple[int, ...]]] = {}
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


def _validate_common(n: int, m: int, secrets: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    if n < 2:
        raise ValueError("need at least two participants")
    if m < 1:
        raise ValueError("secret length m must be positive")
    if len(secrets) != n:
        raise ValueError(f"expected {n} secrets, got {len(secrets)}")
    fixed = tuple(tuple(map(int, s)) for s in secrets)
    if {len(bits) for bits in fixed} != {m} or not {0, 1}.issuperset(chain.from_iterable(fixed)):
        idx = next(i for i, bits in enumerate(fixed) if len(bits) != m or not {0, 1}.issuperset(bits))
        raise ValueError(f"secret {idx + 1} must be {m} bits")
    return fixed


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


def _distribute(t: Transcript, registers: GhzRegister, decoy_count: int, rng: Stream) -> None:
    """Step 2: particle k of every register goes to participant k with fresh
    decoys mixed in, and each participant's decoys are then checked in
    public.  Untapped, every link arrives as sent and passes its check, so
    one ``interleave`` call draws past every link's draws."""
    n = registers.particles
    interleave(registers.n // n, decoy_count, n, rng)
    t.decoy_checks = [{"participant": k, "passed": True, "mismatches": 0, "total": decoy_count}
                      for k in range(1, n + 1)]


def _check_rounds(t: Transcript, roles: _Roles, registers: GhzRegister, positions: List[int], rng: Stream) -> None:
    """Step 3: in each round every participant measures its particle of one
    checked register in that round's random basis, and the joint outcomes
    are tested against the claimed preparations.  Marks the state-check
    abort on failure."""
    bases = rng.bits(len(positions))
    n = registers.particles
    ids = [p * n + k for p in positions for k in range(n)]
    bits = registers.measure(ids, [b for b in bases for _ in range(n)], rng)
    outcomes = [bits[s : s + n] for s in range(0, len(bits), n)]
    report = step3_check([t.claimed_specs[p] for p in positions], bases, outcomes)
    t.step3 = report
    t.checked_positions = positions
    if not report.passed:
        t.mark_abort(roles.check_step, CAUSE_STATE_CHECK)


def _measure_keys(t: Transcript, registers: GhzRegister, positions: List[int], rng: Stream) -> None:
    """Step 4: each participant Z-measures the first m unchecked registers
    into its key string and masks its secret with it; with fewer than m
    checks the surplus is simply never used."""
    m = t.params["m"]
    n, total = registers.particles, len(t.claimed_specs)
    skipped = set(positions)
    t.comparison_positions = kept = [p for p in range(total) if p not in skipped][:m]
    t.key_positions = dict.fromkeys(range(1, n + 1), kept)
    ids = [p * n + k for k in range(n) for p in kept]
    # Every participant skips at most m of the 2m (or m + c) registers.
    bits = registers.measure(ids, [Basis.Z] * len(ids), rng)
    for k in range(1, n + 1):
        t.keys[k] = key = tuple(bits[(k - 1) * m : k * m])
        t.comps[k] = xor_bits(key, t.secrets[k - 1])


def _pads(specs: Sequence[GhzSpec]) -> List[Tuple[int, ...]]:
    """Entry k - 1 holds participant k's pads against P1 on ``specs``, in
    order: ``pair_xor(spec, 1, k)``, which is q[k - 1] because q[0] == 0."""
    return list(zip(*(spec.q for spec in specs)))


def run_proposed(
    n: int,
    m: int,
    secrets: Sequence[Sequence[int]],
    *,
    check_rounds: Optional[int] = None,
    decoy_count: Optional[int] = None,
    variant: str = VARIANT_BROADCAST,
    rng: Stream,
    announce_r: bool = False,
) -> Transcript:
    """One full honest run of the two-watchdog multiparty comparison.

    TP1 prepares 2m registers, of which ``check_rounds`` (default m) are
    checked.  ``rng`` is the trial's ``Stream``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return _run(_PROPOSED, n, m, secrets, check_rounds, decoy_count, variant, rng, announce_r)


def run_zhang_baseline(
    m: int,
    secrets: Sequence[Sequence[int]],
    *,
    check_rounds: Optional[int] = None,
    decoy_count: Optional[int] = None,
    rng: Stream,
) -> Transcript:
    """One honest run of the single-third-party two-party baseline.

    The single helper prepares Bell pairs drawn from {(|00>+|11>)/sqrt(2),
    (|01>-|10>)/sqrt(2)}, the participants XOR their masked strings together
    before submission, and the helper alone announces the verdict.  There is
    no second announcer, so its verdict stands unchecked.

    The helper prepares m + check_rounds (default 0) pairs so the optional
    state check (which consumes pairs and needs the participant-to-participant
    authenticated channel that strangers lack) leaves m for comparison.
    The check positions travel on that channel, so no variant applies and
    nothing can tamper with them.  ``rng`` is as for ``run_proposed``.
    """
    return _run(_BASELINE, _BASELINE.participants, m, secrets, check_rounds, decoy_count, None, rng, False)


def _run(
    roles: _Roles, n: int, m: int, secrets: Sequence[Sequence[int]], check_rounds: Optional[int],
    decoy_count: Optional[int], variant: Optional[str], rng: Stream, announce_r: bool,
) -> Transcript:
    """Steps 1-7 of either protocol; ``variant`` is None where none applies, a size None takes its default."""
    secrets = _validate_common(n, m, secrets)
    c = roles.checks_per_m * m if check_rounds is None else check_rounds
    l = roles.decoys_per_m * m if decoy_count is None else decoy_count
    if not roles.leaves_m(m, c):
        raise ValueError(f"check rounds must be nonnegative and leave m={m} registers, got {c}")
    if l < 0:
        raise ValueError("decoy count must be nonnegative")
    total = roles.register_count(m, c)

    params = {"n": n, "m": m, "check_rounds": c, "decoy_count": l, "adversary": "none"}
    if variant is not None:
        params["variant"] = variant
    t = Transcript(roles.protocol, params)
    t.secrets = secrets

    # Step 1: prepare the registers in one draw.
    t.true_states = t.claimed_specs = roles.prepared(n, rng.bits(total, roles.prepare_width(n)))
    registers = GhzRegister(t.true_states)
    _distribute(t, registers, l, rng)

    # Step 3: cooperative correctness check of c randomly chosen registers.
    positions: List[int] = []
    if c > 0:
        positions = rng.sample(total, c)
        _check_rounds(t, roles, registers, positions, rng)
        if t.aborted:
            return t

    _measure_keys(t, registers, positions, rng)

    # Step 6: every announcer announces a verdict per pair.  They hold the
    # same claimed states and masked strings (or the baseline's XOR of them),
    # so each pair's result vector is computed once and each announcer gets a
    # copy.  The pad of pair (i, j) is the XOR of i's and j's pads against P1.
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    compared = [t.claimed_specs[p] for p in t.comparison_positions]
    pads = _pads(compared)
    unpadded = {k: tuple(map(xor, pads[k - 1], t.comps[k])) for k in range(2, n + 1)}
    unpadded[1] = t.comps[1]
    r_values = {(i, j): xor_bits(unpadded[i], unpadded[j]) for i, j in pairs}
    t.r_values = {announcer: dict(r_values) for announcer in roles.announcers}
    t.announcements = {}
    for announcer in roles.announcers:
        by_pair = t.announcements[announcer] = {}
        for pair in pairs:
            r = r_values[pair]
            by_pair[pair] = Announcement(announcer, pair, verdict_for(r), r if announce_r else None)

    # Step 7: participants cross-compare the first and the last announcer's
    # verdicts; a lone announcer is both, under one key, and stands unchecked.
    # Honest announcers announce alike, so no pair conflicts.
    key1, key2 = roles.verdict_keys[0], roles.verdict_keys[-1]
    first, last = t.announcements[roles.announcers[0]], t.announcements[roles.announcers[-1]]
    cross_checked = first is not last
    for pair in pairs:
        a1, a2 = first[pair], last[pair]
        accepted = cross_check(a1, a2) if cross_checked else True
        truth = IDENTICAL if secrets[pair[0] - 1] == secrets[pair[1] - 1] else DIFFERENT
        t.pair_results[pair] = {key1: a1.verdict, key2: a2.verdict, "accepted": accepted, "ground_truth": truth}
    return t
