"""Pluggable attack strategies.

An adversary is one dataclass per kind: its ``kind``, its params (the init
fields, with their defaults), and the hooks a protocol run calls at fixed
points (register preparation, quantum channel taps, the classical position
broadcast, and result announcements).  After the run ``finalize`` scores it
from the run's transcript as an ``AttackOutcome`` (the attacker's per-bit
guessing record against a victim's secret); the attack counts as detected
exactly when the run aborts.

Guessing accounts only for what the attacker can actually see: its own
measurement records, its legitimate role knowledge, and all public
classical traffic (announced decoy positions/bases, check positions, the
masked comparison strings, announcements).  Bits are only scored on runs
the attack survived undetected; a detected run contributes detection
statistics and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .ghz import Basis, GhzSpec, pair_xor
from .stream import Stream

if TYPE_CHECKING:
    from .harness import Scenario
    from .protocol import Transcript

TP1 = "TP1"
TP2 = "TP2"
TP = "TP"  # the baseline's single third party

IDENTICAL = "identical"
DIFFERENT = "different"

KIND_NONE = "none"
KIND_EVE = "eve_intercept_resend"
KIND_TP1_FAKE_STATE = "tp1_fake_initial_state"
KIND_TP1_FAKE_RESULT = "tp1_fake_result"
KIND_TP2_FAKE_RESULT = "tp2_fake_result"
KIND_TP2_INTERCEPT = "tp2_intercept"
KIND_PARTICIPANT_INFER = "participant_infer"
KIND_POSITION_TAMPER = "classical_position_tamper"
_GUESSES = ("attack_bits_guessed", "attack_bits_correct")  # in every attacking kind's ``counts``


@dataclass
class AttackOutcome:
    """What a strategy achieved in one run."""

    bits_guessed: int = 0
    bits_correct: int = 0
    extras: Dict[str, int] = field(default_factory=dict)


@dataclass
class AdversaryStrategy:
    """Base strategy: no params, and hooks that do nothing and draw no
    randomness, which is an honest run."""

    kind = KIND_NONE
    party = None  # the third party the attacker is, or None: an outsider or a participant
    # The counters each run reports even at 0, as ``_extract`` counts the
    # ``AttackOutcome`` its ``finalize`` returns: none for an honest run.
    counts = ()

    def start_run(self) -> "AdversaryStrategy":
        """The object whose hooks one run calls: the strategy itself, or a
        fresh copy for kinds that record during a run."""
        return self

    def override_preparation(self, n: int, count: int):
        """The ``(true_states, claimed_specs)`` tuples of a fixed preparation
        of ``count`` registers of n particles, or None for the honest one."""
        return None

    # ``taps``, ``tamper_positions`` and ``finalize`` each have an array
    # twin: the same move for a block of trials (``block._Program``, whose
    # ``_Trials`` draw through ``trials.draws``), which the engine makes only
    # if one class defines the hook and its twin.

    def taps(self, link: int) -> Sequence:
        return ()

    def tap_rows(self, link: int) -> Optional[Callable]:
        """None, or ``tap(trials, ids, carrier)`` measuring the link's slots
        ``ids`` (``carrier``: the register particles) and forwarding them."""
        return None

    def tamper_positions(self, true_positions: List[int], total: int, rng: Stream) -> List[int]:
        return list(true_positions)

    def tamper_rows(self, program, trials, positions: np.ndarray, check: Callable) -> np.ndarray:
        """Whether each trial fails ``check(received)``, the check rounds of the positions P2..Pn receive."""
        return check(positions)

    def flip_verdict(self, announcer: str, pair: Tuple[int, int], verdict: str) -> str:
        return verdict

    def finalize(self, t: "Transcript", rng: Stream) -> Optional[AttackOutcome]:
        """Score the finished (or aborted) run from its transcript."""
        return None

    def finalize_rows(self, program, trials, kept: np.ndarray, keys: np.ndarray) -> None:
        """Score completed trials from their comparison positions and keys."""

    def targets(self, scenario: "Scenario") -> Dict[str, Fraction]:
        """The exact rate, by metric name, that this kind's runs of ``scenario`` are held against."""
        return {}


# The benchmark's tracer (perfbench/tracing.py) finds every hook class by
# walking ``RunHandle.__subclasses__()``.
RunHandle = AdversaryStrategy
NONE = AdversaryStrategy()


# Cached: every run_scenario call asks its kind for its targets.
@lru_cache(maxsize=256)
def intercept_detection(l: int, links: int = 1, tolerance: int = 0) -> Fraction:
    """1 - P[Bin(l, 1/4) <= tolerance]^links: one of ``links`` tapped runs of l decoys, each caught at
    1/4 (wrong basis 1/2, then visible 1/2), fails a check that passes up to ``tolerance`` mismatches."""
    # 4^l P[Bin(l, 1/4) = j] = comb(l, j) 3^(l - j), each term from the last.
    terms = accumulate(range(min(tolerance, l)), lambda term, j: term * (l - j) // (3 * j + 3), initial=3**l)
    return 1 - Fraction(sum(terms), 4**l) ** links


@lru_cache(maxsize=256)
def tamper_detection(l: int) -> Fraction:
    """1 - (1/2)^l: l substituted check positions across a two-state pair are caught."""
    return 1 - Fraction(1, 2**l)


# ---------------------------------------------------------------------------
# Intercept-resend taps (outside Eve, and TP2 acting as one)
# ---------------------------------------------------------------------------


@dataclass
class EveInterceptResend(AdversaryStrategy):
    """Measure every slot of the tapped links in a random basis and resend."""

    links: Tuple[int, ...] = (1,)
    victim: Optional[int] = None
    # (basis, bit) per register of each tapped link, recorded during one run.
    records: Dict[int, List[Tuple[int, int]]] = field(init=False, default_factory=dict, repr=False, compare=False)
    kind = KIND_EVE
    counts = _GUESSES
    use_spec_knowledge = False

    def start_run(self) -> "EveInterceptResend":
        return replace(self)

    def targets(self, scenario: "Scenario") -> Dict[str, Fraction]:
        # Each distinct tapped link runs its own decoy check.
        rate = intercept_detection(scenario.effective_decoy_count(), len(set(self.links)), scenario.decoy_tolerance)
        return {"detected_step2_rate": rate}

    def taps(self, link: int):
        if link not in self.links:
            return ()

        def tap(delivery, rng):
            order = delivery.slots
            bases = rng.bits(len(order))
            bits = delivery.measure(bases, rng, forward=True)
            # Register particles have the ids below the state's count of them.
            self.records[link] = [(b, bit) for i, b, bit in zip(order, bases, bits) if i < delivery.state.n]

        return (tap,)

    def tap_rows(self, link: int) -> Optional[Callable]:
        if link not in self.links:
            return None

        def tap(trials, ids, carrier):
            bases = trials.draws.bits(ids.shape[1])
            bits = trials.measure(ids, bases, forward=True)
            if self.victim is not None:  # what the victim's guesses read: each register's basis << 1 | bit
                trials.records[link] = (bases << 1 | bits)[carrier].reshape(len(trials), -1).astype(np.int8)

        return tap

    def _guess_key_bit(self, t: "Transcript", position: int) -> Optional[int]:
        """Best key-bit guess for the victim from records + public traffic."""
        if self.use_spec_knowledge:
            # A third party legitimately knows the claimed preparations, so
            # any matching-basis intercept on any tapped link reveals the
            # register's branch and with it every participant's key bit.
            spec = t.claimed_specs[position]
            for link in self.links:
                rec = self.records.get(link)
                if rec is None:
                    continue
                basis, bit = rec[position]
                if basis == int(Basis.Z):
                    branch = bit ^ spec.q[link - 1]
                    return spec.q[self.victim - 1] ^ branch
            return None
        # A stranger has no preparation knowledge: only a matching-basis
        # intercept on the victim's own link pins that key bit.
        rec = self.records.get(self.victim)
        if rec is None:
            return None
        basis, bit = rec[position]
        if basis == int(Basis.Z):
            return bit
        return None

    def finalize(self, t: "Transcript", rng: Stream) -> AttackOutcome:
        if t.aborted or self.victim is None:
            return AttackOutcome()
        secret, comp, bits = t.secrets[self.victim - 1], t.comps[self.victim], len(t.comparison_positions)
        hits = legit_hits = 0
        for idx, position in enumerate(t.comparison_positions):
            k_hat = self._guess_key_bit(t, position)
            hits += ((rng.below(2) if k_hat is None else k_hat) ^ comp[idx]) == secret[idx]
            if self.use_spec_knowledge:
                # Same guess made from the legitimate view alone (no records).
                legit_hits += (rng.below(2) ^ comp[idx]) == secret[idx]
        if self.use_spec_knowledge:
            return AttackOutcome(bits, hits, {"legit_bits_guessed": bits, "legit_bits_correct": legit_hits})
        return AttackOutcome(bits, hits)

    def finalize_rows(self, program, trials, kept, keys) -> None:
        """The victim's key bit at each comparison position, read from a Z
        intercept where the attacker can, else a coin."""
        victim = self.victim
        if victim is None:
            return
        (count, m), records = kept.shape, trials.records
        rows = np.arange(count)[:, None]
        key = keys[:, victim - 1]
        known = np.zeros((count, m), dtype=bool)
        guess = np.zeros((count, m), dtype=np.int64)
        if self.use_spec_knowledge:
            # A Z intercept on a tapped link, the first in ``links`` order,
            # gives the branch and with it every participant's key bit.  Each
            # bit also gets a coin, the same guess from the legitimate view alone.
            q = trials.claimed_q[rows, kept]
            for link in self.links:
                seen = records[link][rows, kept]
                read = ~known & (seen >> 1 == int(Basis.Z))
                guess = np.where(read, q[..., victim - 1] ^ (seen & 1) ^ q[..., link - 1], guess)
                known |= read
            coins = trials.draws.coins(np.stack((~known, np.ones_like(known)), axis=2).reshape(count, 2 * m))
            guess = np.where(known, guess, coins[:, 0::2])
            program.bump("attack_legit_bits_guessed", count * m)
            program.bump("attack_legit_bits_correct", np.count_nonzero(coins[:, 1::2] == key))
        else:
            # A stranger reads only a Z intercept on the victim's own link.
            if victim in records:
                seen = records[victim][rows, kept]
                known, guess = seen >> 1 == int(Basis.Z), seen & 1
            guess = np.where(known, guess, trials.draws.coins(~known))
        program.bump("attack_bits_guessed", count * m)
        program.bump("attack_bits_correct", np.count_nonzero(guess == key))


@dataclass
class Tp2Intercept(EveInterceptResend):
    """The checking third party running the same intercept-resend attack.

    Identical channel behavior to an outside eavesdropper; the difference is
    that its guessing may combine intercept records with the preparation
    list it legitimately receives.
    """

    kind = KIND_TP2_INTERCEPT
    party = TP2
    use_spec_knowledge = True


# ---------------------------------------------------------------------------
# Dishonest preparer
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)  # a fixed preparation's states, built once per parameter set
def _built(build, *args):
    return build(*args)


@dataclass
class Tp1FakeInitialState(AdversaryStrategy):
    """Distribute one (possibly unentangled) state while claiming another."""

    true_state: object = "zeros"  # "zeros" or a GhzSpec
    claimed: Optional[GhzSpec] = None
    kind = KIND_TP1_FAKE_STATE
    counts = _GUESSES
    party = TP1

    def override_preparation(self, n: int, count: int):
        return _built(self._prepare, self.true_state, self.claimed, n, count)

    def targets(self, scenario: "Scenario") -> Dict[str, Fraction]:
        # All-|0> preparation against an all-|0>-vector claim: an X round
        # trips with probability 1/2, a Z round never, so each round of
        # random basis detects with probability 1/4, as an intercepted decoy.
        if self.true_state != "zeros" or self.claimed is not None:
            return {}
        rate = intercept_detection(scenario.effective_check_rounds())
        return {"detected_step3_rate": rate, "x_check_fail_rate": Fraction(1, 2), "z_check_fail_rate": Fraction(0)}

    @staticmethod
    def _prepare(true_state, claimed: Optional[GhzSpec], n: int, count: int):
        claimed = claimed or GhzSpec((0,) * n, 0)
        if claimed.n != n:
            raise ConfigError(f"claimed state has {claimed.n} particles, protocol has {n}")
        if true_state == "zeros":
            true_state = (0,) * n
        elif true_state.n != n:
            raise ConfigError(f"true state has {true_state.n} particles, protocol has {n}")
        return (true_state,) * count, (claimed,) * count

    def finalize(self, t: "Transcript", rng: Stream) -> AttackOutcome:
        if t.aborted:
            return AttackOutcome()
        positions, hits = t.comparison_positions, 0
        if TP in t.announcements:
            # The baseline's TP receives only c1 ^ c2, and knows k1 ^ k2 of
            # what it handed out, product or entangled alike: it reads
            # s1 ^ s2, one bit per comparison position.
            for idx, position in enumerate(positions):
                true = t.true_states[position]
                pad = pair_xor(true, 1, 2) if isinstance(true, GhzSpec) else true[0] ^ true[1]
                hits += (t.comps[1][idx] ^ t.comps[2][idx] ^ pad) == (t.secrets[0][idx] ^ t.secrets[1][idx])
            return AttackOutcome(len(positions), hits)
        # The preparer knows exactly what it handed out.  A product
        # preparation fixes every key bit; a wrong entangled preparation
        # still hides the branch, leaving it guessing.
        for participant in range(1, t.params["n"] + 1):
            secret, comp = t.secrets[participant - 1], t.comps[participant]
            for idx, position in enumerate(positions):
                true = t.true_states[position]
                k_hat = rng.below(2) if isinstance(true, GhzSpec) else true[participant - 1]
                hits += (k_hat ^ comp[idx]) == secret[idx]
        return AttackOutcome(t.params["n"] * len(positions), hits)

    def finalize_rows(self, program, trials, kept, keys) -> None:
        n, (count, m) = program.n, kept.shape
        # (trial, participant, bit)
        true_q = trials.q[np.arange(count)[:, None, None], np.arange(n)[:, None], kept[:, None]]
        if not program.roles.monitored:
            # The baseline's TP reads s1 ^ s2 from c1 ^ c2 and the pad k1 ^ k2
            # of what it prepared.
            program.bump("attack_bits_guessed", count * m)
            program.bump("attack_bits_correct", np.count_nonzero(keys[:, 0] ^ keys[:, 1] == true_q[:, 0] ^ true_q[:, 1]))
            return
        # The preparer knows each key bit of its product preparation, and
        # guesses each of an entangled one with a fair coin, as ``rng.below(2)`` draws it.
        guess = true_q if self.true_state == "zeros" else trials.draws.bits(n * m).reshape(count, n, m)
        program.bump("attack_bits_guessed", count * n * m)
        program.bump("attack_bits_correct", np.count_nonzero(guess == keys))


# ---------------------------------------------------------------------------
# Fake announcements
# ---------------------------------------------------------------------------


@dataclass
class TpFakeResult(AdversaryStrategy):
    """TP1 (or the baseline's TP) announcing the opposite verdict for the chosen pairs."""

    pairs: object = "all"  # "all" or a collection of (i, j) participant pairs
    kind = KIND_TP1_FAKE_RESULT
    counts = _GUESSES
    party = TP1

    def __post_init__(self) -> None:
        if self.pairs != "all":
            self.pairs = {(min(p), max(p)) for p in self.pairs}

    def flip_verdict(self, announcer: str, pair: Tuple[int, int], verdict: str) -> str:
        # The baseline's single announcer (TP) stands in for TP1;
        # ``_Roles.admits`` keeps TP2's kinds off the baseline.
        if announcer not in (self.party, TP) or (self.pairs != "all" and pair not in self.pairs):
            return verdict
        return DIFFERENT if verdict == IDENTICAL else IDENTICAL

    def finalize(self, t: "Transcript", rng: Stream) -> AttackOutcome:
        return AttackOutcome()

    def finalize_rows(self, program, trials, kept, keys) -> None:
        """A flipped verdict guesses no bit."""


@dataclass
class Tp2FakeResult(TpFakeResult):
    """The checking third party announcing the opposite verdicts."""

    kind = KIND_TP2_FAKE_RESULT
    party = TP2


# ---------------------------------------------------------------------------
# Inferring participant
# ---------------------------------------------------------------------------


@dataclass
class ParticipantInfer(AdversaryStrategy):
    """A participant guessing another's key from its own outcomes.

    Follows the protocol exactly; the only question is how well its own
    measured bits predict the victim's.  When ``counterfactual`` is set the
    attacker is additionally granted the preparation list it is not
    supposed to have, which turns guessing into computation.
    """

    attacker: int = 1
    victim: int = 2
    counterfactual: bool = False
    kind = KIND_PARTICIPANT_INFER
    counts = _GUESSES

    def finalize(self, t: "Transcript", rng: Stream) -> AttackOutcome:
        if t.aborted:
            return AttackOutcome()
        own = t.keys[self.attacker]
        comp = t.comps[self.victim]
        secret = t.secrets[self.victim - 1]
        hits = 0
        for idx, position in enumerate(t.comparison_positions):
            k_hat = own[idx]
            if self.counterfactual:
                true = t.true_states[position]
                if not isinstance(true, GhzSpec):
                    raise ValueError("counterfactual inference needs an entangled preparation")
                k_hat ^= pair_xor(true, self.attacker, self.victim)
            hits += int((k_hat ^ comp[idx]) == secret[idx])
        return AttackOutcome(len(t.comparison_positions), hits)

    def finalize_rows(self, program, trials, kept, keys) -> None:
        (count, m), attacker, victim = kept.shape, self.attacker - 1, self.victim - 1
        guess = keys[:, attacker]
        if self.counterfactual:
            # Every preparation an inferring participant sees is the honest,
            # entangled one, so ``pair_xor`` of its true state is defined.
            rows = np.arange(count)[:, None]
            guess = guess ^ trials.q[rows, attacker, kept] ^ trials.q[rows, victim, kept]
        program.bump("attack_bits_guessed", count * m)
        program.bump("attack_bits_correct", np.count_nonzero(guess == keys[:, victim]))


# ---------------------------------------------------------------------------
# Classical-channel position tampering
# ---------------------------------------------------------------------------


POLICY_PAIRED = "paired_specs"
POLICY_RANDOM = "random"


@dataclass
class ClassicalPositionTamper(AdversaryStrategy):
    """An outsider rewriting the broadcast check positions.

    Only the classical broadcast between participants is touched, so the
    relayed variant of the check is immune.  ``paired_specs`` forces the
    preparation to alternate between two states and substitutes a position
    holding the partner state, reproducing the worked two-state example;
    ``random`` substitutes any other unchecked position.
    """

    count: int = 1
    policy: str = POLICY_PAIRED
    pair: Optional[Tuple[GhzSpec, GhzSpec]] = None
    # (round, true position, substituted position), recorded during one run.
    tampered: List[Tuple[int, int, int]] = field(init=False, default_factory=list, repr=False, compare=False)
    kind = KIND_POSITION_TAMPER
    counts = _GUESSES + ("attack_tampered", "attack_tampered_distinct")

    def start_run(self) -> "ClassicalPositionTamper":
        return replace(self)

    def targets(self, scenario: "Scenario") -> Dict[str, Fraction]:
        from .protocol import VARIANT_BROADCAST  # protocol imports this module
        # 1-(1/2)^l holds for substitutes that hold the partner state of a
        # two-state preparation.  A random substitute is an independent
        # register, which a check round catches at a rate that depends on n
        # (0.635 at n = 3 against 0.494 at n = 2 for l = 1), so it gets none.
        if self.policy != POLICY_PAIRED or scenario.variant != VARIANT_BROADCAST:
            return {}
        rate = tamper_detection(min(self.count, scenario.effective_check_rounds()))
        return {"detected_step3_rate": rate, "tamper_detection_conditional": rate}

    def override_preparation(self, n: int, count: int):
        if self.policy != POLICY_PAIRED:
            return None
        return _built(self._prepare, self.pair and tuple(self.pair), n, count)

    @staticmethod
    def _prepare(pair: Optional[Tuple[GhzSpec, GhzSpec]], n: int, count: int):
        pair = pair or (GhzSpec((0,) * n, 0), GhzSpec((0,) + (1,) * (n - 1), 0))
        for spec in pair:
            if spec.n != n:
                raise ConfigError(f"tamper pair state has {spec.n} particles, protocol has {n}")
        specs = tuple(pair[p % 2] for p in range(count))
        return specs, specs

    def tamper_positions(self, true_positions: List[int], total: int, rng: Stream) -> List[int]:
        rounds_total = len(true_positions)
        wanted = min(self.count, rounds_total)
        if wanted == 0:
            return list(true_positions)
        rounds = rng.sample(rounds_total, wanted)
        checked = set(true_positions)
        # The unchecked positions of each start, in order; a target used
        # leaves its pool.
        pools: Dict[int, List[int]] = {}
        received = list(true_positions)
        for r in rounds:
            p = true_positions[r]
            # A paired preparation alternates, so the partner state sits at
            # the positions of the other parity.
            start, step = (1 - (p & 1), 2) if self.policy == POLICY_PAIRED else (0, 1)
            if start not in pools:
                pools[start] = [t for t in range(start, total, step) if t not in checked]
            pool = pools[start]
            if not pool:
                continue
            target = pool.pop(rng.below(len(pool)))
            received[r] = target
            self.tampered.append((r, p, target))
        return received

    def tamper_rows(self, program, trials, positions, check):
        draws, (count, c), total = trials.draws, positions.shape, program.total
        wanted = min(self.count, c)
        if not wanted:
            return check(positions)
        trial, rows = np.arange(count), np.arange(count)[:, None]
        rounds = draws.sample(c, wanted)
        received = positions.copy()
        free = np.ones((count, total), dtype=bool)
        free[rows, positions] = False
        true_at = positions[rows, rounds]
        # The paired preparation alternates, so the partner state sits at the
        # positions of the other parity; a random substitute is any unchecked
        # position.  A target used leaves the free ones.
        if self.policy == POLICY_PAIRED:
            partner = (np.arange(total) & 1) != (true_at & 1)[:, :, None]
        else:
            partner = np.ones((1, wanted, 1), dtype=bool)
        for i, r in enumerate(rounds.T):
            # A round's target is one draw below its pool's size, if the pool
            # holds any.
            pool = (free & partner[:, i]).cumsum(axis=1)
            size = pool[:, -1]
            pick = draws.below(np.maximum(size, 1))
            target = np.where(size > 0, (pool > pick[:, None]).argmax(axis=1), true_at[:, i])
            received[trial, r] = target
            free[trial, target] = False
        failed = check(received)
        # A substitute is distinct when its true state is not the one claimed
        # for the round.  A tamperer's preparation, paired or honest, is
        # claimed as prepared, so its true state is its claimed one.
        tampered = received != positions
        q, delta = trials.claimed_q, trials.claimed_delta
        differs = ((q[rows, received] != q[rows, positions]).any(axis=2)
                   | (delta[rows, received] != delta[rows, positions]))
        tampers, distinct = tampered.sum(axis=1), (tampered & differs).sum(axis=1)
        program.bump("attack_tampered", tampers.sum())
        program.bump("attack_tampered_distinct", distinct.sum())
        for key, hit in (("tamper_runs", tampers > 0), ("tamper_distinct_runs", (tampers > 0) & (distinct == tampers))):
            program.bump(key, np.count_nonzero(hit))
            program.bump(f"{key}_detected", np.count_nonzero(hit & failed))
        return failed

    def finalize(self, t: "Transcript", rng: Stream) -> AttackOutcome:
        distinct = sum(
            1
            for _, p, target in self.tampered
            if not isinstance(t.true_states[target], GhzSpec)
            or t.claimed_specs[p] != t.true_states[target]
        )
        return AttackOutcome(extras={"tampered": len(self.tampered), "tampered_distinct": distinct})

    def finalize_rows(self, program, trials, kept, keys) -> None:
        """``tamper_rows`` counts the tampering."""


# ---------------------------------------------------------------------------
# Config-driven construction
# ---------------------------------------------------------------------------


# In the order the unknown-kind error message lists them.
KINDS = {cls.kind: cls for cls in (AdversaryStrategy, EveInterceptResend, Tp1FakeInitialState, TpFakeResult,
                                   Tp2FakeResult, Tp2Intercept, ParticipantInfer, ClassicalPositionTamper)}
ALL_KINDS = tuple(KINDS)


def _int_param(value: object, name: str, low: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"adversary param `{name}` must be an integer >= {low}, got {value!r}")
    return value


def _list_param(value: object, name: str, what: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"adversary param `{name}` must be a nonempty list of {what}, got {value!r}")
    return list(value)


def _participant(value: object, name: str, n: int) -> int:
    p = _int_param(value, name)
    if p > n:
        raise ConfigError(f"adversary param `{name}` must name a participant in 1..{n}, got {p}")
    return p


def _spec_from(value: object, what: str, n: int) -> GhzSpec:
    spec = value
    if isinstance(value, dict):
        try:
            spec = GhzSpec.from_dict(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid state for `{what}`: {exc}") from exc
    if not isinstance(spec, GhzSpec):
        raise ConfigError(f"`{what}` must be a state object with keys q/delta")
    if spec.n != n:
        raise ConfigError(f"adversary param `{what}` must be a {n}-particle state, got {spec.n}")
    return spec


def _pair_from(value: object, n: int) -> Tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"adversary param `pairs` must hold [i, j] participant pairs, got {value!r}")
    i, j = (_participant(v, "pairs", n) for v in value)
    if i == j:
        raise ConfigError(f"adversary param `pairs` must pair two distinct participants, got {value!r}")
    return i, j


def _param(name: str, value: object, n: int) -> object:
    """Adversary param ``name`` read from a config document for n participants."""
    if name in ("attacker", "victim"):
        return _participant(value, name, n)
    if name == "links":
        return tuple(_participant(x, name, n) for x in _list_param(value, name, "participants"))
    if name == "pairs":
        if value == "all":
            return value
        return [_pair_from(p, n) for p in _list_param(value, name, '[i, j] pairs (or "all")')]
    if name == "true_state" and value == "zeros":
        return value
    if name in ("true_state", "claimed"):
        return _spec_from(value, name, n)
    if name == "pair":
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError("tamper param `pair` must hold exactly two states")
        return _spec_from(value[0], "pair[0]", n), _spec_from(value[1], "pair[1]", n)
    if name == "count":
        return _int_param(value, name, low=0)
    if name == "policy":
        if value not in (POLICY_PAIRED, POLICY_RANDOM):
            raise ConfigError(f"unknown tamper policy `{value}`")
        return value
    if name == "counterfactual":
        if not isinstance(value, bool):
            raise ConfigError(f"adversary param `{name}` must be true or false, got {value!r}")
        return value
    raise AssertionError(f"adversary param `{name}` has no parser")


def strategy_from_config(kind: str, params: Optional[dict], n: int) -> AdversaryStrategy:
    """Build a strategy from config-document data for a run of n
    participants.  Its params are the init fields of the kind's class: each
    one given must name participants in 1..n and states of n particles, may
    be null only if its default is None, and one left out keeps its default."""
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ConfigError(f"field `adversary.params` must be an object, got {params!r}")
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown adversary kind `{kind}` (expected one of {', '.join(ALL_KINDS)})")
    defaults = {f.name: f.default for f in fields(cls) if f.init}
    for key in params:
        if key not in defaults:
            raise ConfigError(f"unknown adversary param `{key}` for kind `{kind}`")
    # Parsed in field order, so the param an error names does not depend on key order.
    strategy = cls(**{
        name: None if params[name] is None and default is None else _param(name, params[name], n)
        for name, default in defaults.items()
        if name in params
    })
    if isinstance(strategy, ParticipantInfer) and strategy.attacker == strategy.victim:
        raise ConfigError(f"adversary params `attacker` and `victim` must differ, both are {strategy.attacker}")
    return strategy
