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
``state_check_failed`` (step 3), ``announcement_conflict`` (step 7).  The
baseline numbers its optional state check 4, and steps 2-4 of both
protocols run through the same step functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, repeat
from operator import xor
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .adversaries import DIFFERENT, IDENTICAL, NONE, TP, TP1, TP2, AdversaryStrategy
from .ghz import Basis, GhzRegister, GhzSpec, ghz_from_index, pair_xor
from .photons import CheckReport, Link, QuantumChannel, interleave, public_discussion, replay_choice
# Unused here since interleave draws the decoys: the benchmark's tracer
# still wraps this name.
from .photons import generate_decoys  # noqa: F401

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
        if basis == Basis.Z:
            bits = tuple(bits)
            ok = bits == spec.q or bits == spec.complement()
        else:
            ok = sum(bits) % 2 == spec.delta
        if not ok:
            failures.append(r)
    return Step3Report(not failures, tuple(failures), tuple(map(int, bases)))


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
    """Ordered event record of one run plus its outcome summary."""

    def __init__(self, protocol: str, params: dict, record_events: bool = True) -> None:
        self.protocol = protocol
        self.params = params
        self.record_events = record_events
        self.events: List[dict] = []
        self.aborted = False
        self.abort_step: Optional[int] = None
        self.abort_cause: Optional[str] = None
        self.secrets: Tuple[Tuple[int, ...], ...] = ()
        self.claimed_specs: List[GhzSpec] = []
        self.true_states: List[object] = []
        self.checked_positions: List[int] = []
        self.comparison_positions: List[int] = []
        self.keys: Dict[int, Tuple[int, ...]] = {}
        self.comps: Dict[int, Tuple[int, ...]] = {}
        self.announcements: Dict[str, Dict[Tuple[int, int], Announcement]] = {}
        self.r_values: Dict[str, Dict[Tuple[int, int], Tuple[int, ...]]] = {}
        self.pair_results: Dict[Tuple[int, int], dict] = {}
        self.step3: Optional[Step3Report] = None
        self.decoy_checks: List[dict] = []
        self.arbiter: Optional[str] = None
        self.attack = None

    def add(self, step: int, actor: str, kind: str, **payload) -> None:
        if self.record_events:
            self.events.append({"step": step, "actor": actor, "kind": kind, "payload": payload})

    def mark_abort(self, step: int, cause: str) -> None:
        self.aborted = True
        self.abort_step = step
        self.abort_cause = cause
        self.add(step, "protocol", "abort", cause=cause)

    @property
    def completed(self) -> bool:
        return not self.aborted

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

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


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
    """What the shared steps 2-4 do differently in the two protocols."""

    sender: str  # the third party that prepares and distributes the registers
    check_step: int  # transcript step of the state check; keys are measured in the next one
    check_verdict: Tuple[str, str]  # actor and kind of the check's verdict event
    submit_to: Optional[Tuple[str, ...]]  # announcers each participant submits its masked string to
    log_traffic: bool  # log every quantum send and each check round's bases and outcomes


_PROPOSED = _Roles(TP1, 3, (TP2, "check_verdict"), (TP1, TP2), True)
# The baseline's participants XOR their masked strings together and submit
# once; its transcript records only the decoy checks and the check verdict.
_BASELINE = _Roles(TP, 4, ("P1+P2", "state_check"), None, False)


def _distribute(
    t: Transcript,
    roles: _Roles,
    run: AdversaryStrategy,
    registers: GhzRegister,
    decoy_count: int,
    decoy_tolerance: int,
    rng: np.random.Generator,
) -> None:
    """Step 2: particle k of every register goes to participant k with fresh
    decoys mixed in, through the adversary's taps, and each participant's
    decoys are then checked in public.

    Marks the decoy abort if any link fails.

    Nothing draws between two links unless the first is tapped, so one
    ``interleave`` call draws every link up to and including the next
    tapped one, and only a tapped link's decoy slots are worked out.  A
    decoy measured in its own basis reads its bit without a draw, so only
    the decoys a tap left in another state than their preparation are
    measured; that keeps every draw, in order, of measuring them all.
    """
    n = registers.particles
    slots = registers.slots
    carriers = registers.n // n
    taps = [run.taps(k) for k in range(1, n + 1)]
    start = 1
    for end in [k for k in range(1, n) if taps[k - 1]] + [n]:
        for k, (decoys, placement) in enumerate(interleave(carriers, decoy_count, end - start + 1, rng), start):
            first = len(slots)
            slots.extend(decoys)  # in flight, as add_photons puts them; drawn in 0..3
            if taps[k - 1]:
                decoy_ids = range(first, first + decoy_count)
                slot_ids = replay_choice(carriers + decoy_count, decoy_count, placement)
                link = Link(registers, range(k - 1, registers.n, n), decoy_ids, slot_ids)
                QuantumChannel(roles.sender, f"P{k}", taps[k - 1]).transmit(link, rng)
            if roles.log_traffic and t.record_events:
                t.add(2, roles.sender, "quantum_send", to=f"P{k}", carriers=carriers, decoys=decoy_count)
            arrived = slots[first : first + decoy_count]
            if arrived == decoys:
                report = CheckReport(True, 0, decoy_count)
            else:
                changed = [d for d in range(decoy_count) if arrived[d] != decoys[d]]
                results = [state & 1 for state in decoys]
                bits = registers.measure([first + d for d in changed], [decoys[d] >> 1 for d in changed], rng)
                for d, bit in zip(changed, bits):
                    results[d] = bit
                report = public_discussion([d >> 1 for d in decoys], results, decoys, decoy_tolerance)
            t.decoy_checks.append(
                {"participant": k, "passed": report.passed, "mismatches": report.mismatches, "total": report.total}
            )
            if t.record_events:  # here and below: build no payload that is not kept
                t.add(2, f"P{k}", "decoy_check", passed=report.passed, mismatches=report.mismatches)
        start = end + 1
    if not all(check["passed"] for check in t.decoy_checks):
        t.mark_abort(2, CAUSE_DECOY)


def _check_rounds(
    t: Transcript,
    roles: _Roles,
    registers: GhzRegister,
    believed: Dict[int, List[int]],
    rng: np.random.Generator,
) -> None:
    """Step 3: in each round every participant measures its particle of one
    checked register in that round's random basis, and the joint outcomes
    are tested against the claimed preparations.

    ``believed[k]`` is the check-position list participant k acts on.  P1
    chose the positions, so ``believed[1]`` is the true list.  Marks the
    state-check abort on failure.
    """
    positions = believed[1]
    bases = rng.integers(0, 2, size=len(positions)).tolist()
    if roles.log_traffic and t.record_events:
        t.add(3, "P2", "check_bases", bases=bases)
    n = registers.particles
    ids = [believed[k][r] * n + k - 1 for r in range(len(positions)) for k in range(1, n + 1)]
    bits = registers.measure(ids, [b for b in bases for _ in range(n)], rng)
    outcomes = [bits[s : s + n] for s in range(0, len(bits), n)]
    if roles.log_traffic and t.record_events:
        for r, outcome in enumerate(outcomes):
            t.add(3, "all", "check_measurement", round=r, outcome=dict(zip(range(1, n + 1), outcome)))
    report = step3_check([t.claimed_specs[p] for p in positions], bases, outcomes)
    t.step3 = report
    t.checked_positions = positions
    if t.record_events:
        t.add(roles.check_step, *roles.check_verdict, passed=report.passed, failures=list(report.failures))
    if not report.passed:
        t.mark_abort(roles.check_step, CAUSE_STATE_CHECK)


def _measure_keys(
    t: Transcript,
    roles: _Roles,
    registers: GhzRegister,
    believed: Dict[int, List[int]],
    rng: np.random.Generator,
) -> None:
    """Step 4: each participant Z-measures the first m registers it believes
    unchecked into its key string and masks its secret with it.

    The first m truly unchecked registers carry the comparison; with fewer
    than m checks the surplus is simply never used.  Under tampering a
    participant's believed positions may disagree with these.
    """
    m = t.params["m"]
    n, total = registers.particles, len(t.claimed_specs)
    kept: Dict[Tuple[int, ...], List[int]] = {}  # participants that believe the same checks keep the same registers
    positions = {}
    for k in range(1, n + 1):
        key = tuple(believed[k])
        if key not in kept:
            skipped = set(key)
            kept[key] = [p for p in range(total) if p not in skipped][:m]
        positions[k] = kept[key]
    t.comparison_positions = positions[1]  # P1 chose the checks, so its list is the true one
    ids = [p * n + k - 1 for k in range(1, n + 1) for p in positions[k]]
    # Every participant skips at most m of the 2m (or m + c) registers.
    bits = registers.measure(ids, [Basis.Z] * len(ids), rng)
    for k in range(1, n + 1):
        t.keys[k] = key = tuple(bits[(k - 1) * m : k * m])
        t.comps[k] = xor_bits(key, t.secrets[k - 1])
        if t.record_events:
            t.add(roles.check_step + 1, f"P{k}", "key_measurement", positions=positions[k])
            if roles.submit_to:
                t.add(roles.check_step + 2, f"P{k}", "comparison_submitted", to=list(roles.submit_to))


def _finalize(t: Transcript, run: AdversaryStrategy, rng: np.random.Generator) -> Transcript:
    """Let the adversary score the run from its transcript."""
    t.attack = run.finalize(t, rng)
    return t


def run_proposed(
    n: int,
    m: int,
    secrets: Sequence[Sequence[int]],
    *,
    check_rounds: Optional[int] = None,
    decoy_count: Optional[int] = None,
    variant: str = VARIANT_BROADCAST,
    adversary: Optional[AdversaryStrategy] = None,
    rng: np.random.Generator,
    announce_r: bool = False,
    decoy_tolerance: int = 0,
    record_events: bool = True,
) -> Transcript:
    """One full run of the two-watchdog multiparty comparison."""
    secrets = _validate_common(n, m, secrets)
    c = m if check_rounds is None else check_rounds
    if not 0 <= c <= m:
        raise ValueError(f"check rounds must be in 0..m={m}, got {c}")
    l = 2 * m if decoy_count is None else decoy_count
    if l < 0:
        raise ValueError("decoy count must be nonnegative")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    strategy = adversary or NONE
    run = strategy.start_run()
    total = 2 * m

    t = Transcript(
        "proposed",
        {"n": n, "m": m, "check_rounds": c, "decoy_count": l, "variant": variant, "adversary": strategy.kind},
        record_events,
    )
    t.secrets = secrets

    # Step 1: prepare 2m shared registers (or whatever the preparer fakes).
    prepared = run.override_preparation(n, total, rng)
    if prepared is None:
        specs = [ghz_from_index(i, n) for i in rng.integers(1, 2**n + 1, size=total).tolist()]
        prepared = GhzRegister(specs), specs, specs
    registers, t.true_states, t.claimed_specs = prepared
    if t.record_events:
        t.add(1, TP1, "prepare", registers=total)

    _distribute(t, _PROPOSED, run, registers, l, decoy_tolerance, rng)
    if t.aborted:
        return _finalize(t, run, rng)
    if t.record_events:
        t.add(2, TP1, "initial_states", to=TP2, count=len(t.claimed_specs))

    # Step 3: cooperative correctness check of c randomly chosen registers.
    believed: Dict[int, List[int]] = {k: [] for k in range(1, n + 1)}
    if c > 0:
        positions = sorted(rng.choice(total, size=c, replace=False).tolist())
        # P1's broadcast to the other participants rides the plain classical
        # channel and is the only thing a tamperer can touch; TP2 always gets
        # the true list over its authenticated channel.
        received = run.tamper_positions(positions, total, rng) if variant == VARIANT_BROADCAST else positions
        if t.record_events:
            t.add(3, "P1", "check_positions", positions=positions, variant=variant)
        believed = {1: positions, **{k: received for k in range(2, n + 1)}}
        _check_rounds(t, _PROPOSED, registers, believed, rng)
        if t.aborted:
            return _finalize(t, run, rng)

    _measure_keys(t, _PROPOSED, registers, believed, rng)

    # Step 6: both third parties compute and announce a verdict per pair.
    # They hold the same claimed states and masked strings, so each pair's
    # result vector is computed once; each announcer gets its own dict.  The
    # pad of pair (i, j) is the XOR of i's and j's pads against P1.
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    compared = [t.claimed_specs[p] for p in t.comparison_positions]
    unpadded = {k: tuple(map(xor, map(pair_xor, compared, repeat(1), repeat(k)), t.comps[k])) for k in range(2, n + 1)}
    unpadded[1] = t.comps[1]
    r_values = {(i, j): xor_bits(unpadded[i], unpadded[j]) for i, j in pairs}
    t.announcements = {TP1: {}, TP2: {}}
    t.r_values = {TP1: r_values, TP2: dict(r_values)}
    for announcer in (TP1, TP2):
        for pair in pairs:
            r = r_values[pair]
            verdict = run.flip_verdict(announcer, pair, verdict_for(r))
            t.announcements[announcer][pair] = Announcement(announcer, pair, verdict, r if announce_r else None)
            if t.record_events:
                t.add(6, announcer, "announcement", pair=list(pair), verdict=verdict)

    # Step 7: participants cross-compare the two announcements.
    conflict = False
    for pair in pairs:
        a1 = t.announcements[TP1][pair]
        a2 = t.announcements[TP2][pair]
        accepted = cross_check(a1, a2)
        truth = secrets[pair[0] - 1] == secrets[pair[1] - 1]
        t.pair_results[pair] = {
            "tp1_verdict": a1.verdict,
            "tp2_verdict": a2.verdict,
            "accepted": accepted,
            "ground_truth": IDENTICAL if truth else DIFFERENT,
        }
        if t.record_events:
            t.add(7, "participants", "cross_check", pair=list(pair), accepted=accepted)
        if not accepted:
            conflict = True
    if conflict:
        t.mark_abort(7, CAUSE_CONFLICT)
        t.arbiter = arbiter_identify(compared, t.comps, t.announcements[TP1], t.announcements[TP2])
        if t.record_events:
            t.add(7, "Arbiter", "liar_identified", liar=t.arbiter)
    return _finalize(t, run, rng)


def run_zhang_baseline(
    m: int,
    secrets: Sequence[Sequence[int]],
    *,
    check_rounds: int = 0,
    decoy_count: Optional[int] = None,
    adversary: Optional[AdversaryStrategy] = None,
    rng: np.random.Generator,
    decoy_tolerance: int = 0,
    record_events: bool = True,
) -> Transcript:
    """One run of the single-third-party two-party baseline.

    The single helper prepares Bell pairs drawn from {(|00>+|11>)/sqrt(2),
    (|01>-|10>)/sqrt(2)}, the participants XOR their masked strings together
    before submission, and the helper alone announces the verdict.  There is
    no second announcer, so a flipped verdict is simply accepted.

    The helper prepares m + check_rounds pairs so the optional state check
    (which consumes pairs and needs the participant-to-participant
    authenticated channel that strangers lack) leaves m for comparison.
    """
    secrets = _validate_common(2, m, secrets)
    if check_rounds < 0:
        raise ValueError("check rounds must be nonnegative")
    l = m if decoy_count is None else decoy_count
    if l < 0:
        raise ValueError("decoy count must be nonnegative")
    strategy = adversary or NONE
    run = strategy.start_run()
    total = m + check_rounds

    t = Transcript(
        "zhang_baseline",
        {"n": 2, "m": m, "check_rounds": check_rounds, "decoy_count": l, "adversary": strategy.kind},
        record_events,
    )
    t.secrets = secrets

    bell_specs = (GhzSpec((0, 0), 0), GhzSpec((0, 1), 1))
    specs = [bell_specs[b] for b in rng.integers(0, 2, size=total).tolist()]
    t.true_states = list(specs)
    t.claimed_specs = list(specs)
    if t.record_events:
        t.add(1, TP, "prepare", registers=total)

    registers = GhzRegister(specs)
    _distribute(t, _BASELINE, run, registers, l, decoy_tolerance, rng)
    if t.aborted:
        return _finalize(t, run, rng)

    # Optional state check over the direct authenticated channel the
    # baseline assumes participants share, so both act on the true positions.
    believed: Dict[int, List[int]] = {1: [], 2: []}
    if check_rounds > 0:
        positions = sorted(rng.choice(total, size=check_rounds, replace=False).tolist())
        believed = {1: positions, 2: positions}
        _check_rounds(t, _BASELINE, registers, believed, rng)
        if t.aborted:
            return _finalize(t, run, rng)

    _measure_keys(t, _BASELINE, registers, believed, rng)
    combined = xor_bits(t.comps[1], t.comps[2])
    if t.record_events:
        t.add(6, "P1+P2", "comparison_submitted", to=TP)

    c_t = tuple(pair_xor(specs[p], 1, 2) for p in t.comparison_positions)
    r = xor_bits(c_t, combined)
    verdict = run.flip_verdict(TP, (1, 2), verdict_for(r))
    announcement = Announcement(TP, (1, 2), verdict)
    t.announcements = {TP: {(1, 2): announcement}}
    t.r_values = {TP: {(1, 2): r}}
    if t.record_events:
        t.add(7, TP, "announcement", pair=[1, 2], verdict=verdict)
    truth = secrets[0] == secrets[1]
    # No second announcer exists, so whatever the helper says is final.
    t.pair_results[(1, 2)] = {
        "tp_verdict": verdict,
        "accepted": True,
        "ground_truth": IDENTICAL if truth else DIFFERENT,
    }
    return _finalize(t, run, rng)
