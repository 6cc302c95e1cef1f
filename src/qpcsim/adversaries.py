"""Pluggable attack strategies.

An adversary is one dataclass: its params plus the hooks a protocol run
calls at fixed points (register preparation, quantum channel taps, the
classical position broadcast, and result announcements).  After the run
``finalize`` scores it from the run's transcript as an ``AttackOutcome``
(detection flag plus the attacker's per-bit guessing record against a
victim's secret).

Guessing accounts only for what the attacker can actually see: its own
measurement records, its legitimate role knowledge, and all public
classical traffic (announced decoy positions/bases, check positions, the
masked comparison strings, announcements).  Bits are only scored on runs
the attack survived undetected; a detected run contributes detection
statistics and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .ghz import Basis, GhzRegister, GhzSpec, ProductRegister, pair_xor

if TYPE_CHECKING:
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

ALL_KINDS = (
    KIND_NONE,
    KIND_EVE,
    KIND_TP1_FAKE_STATE,
    KIND_TP1_FAKE_RESULT,
    KIND_TP2_FAKE_RESULT,
    KIND_TP2_INTERCEPT,
    KIND_PARTICIPANT_INFER,
    KIND_POSITION_TAMPER,
)


@dataclass
class AttackOutcome:
    """What a strategy achieved in one run."""

    kind: str
    detected: bool
    detection_step: Optional[int]
    bits_guessed: int = 0
    bits_correct: int = 0
    extras: Dict[str, int] = field(default_factory=dict)


class AdversaryStrategy:
    """Base strategy: no params, and hooks that do nothing and draw no
    randomness, which is an honest run."""

    kind = KIND_NONE

    def start_run(self) -> "AdversaryStrategy":
        """The object whose hooks one run calls: the strategy itself, or a
        fresh copy for kinds that record during a run."""
        return self

    def participants(self) -> Dict[str, Tuple[int, ...]]:
        """The participant indices each param names, for range checks."""
        return {}

    def states(self) -> Dict[str, GhzSpec]:
        """The state each param names, for particle-count checks."""
        return {}

    def override_preparation(self, n: int, count: int, rng: np.random.Generator):
        """Return (registers, true_states, claimed_specs) or None for honest."""
        return None

    def taps(self, link: int) -> Sequence:
        return ()

    def tamper_positions(
        self, true_positions: List[int], total: int, rng: np.random.Generator
    ) -> List[int]:
        return list(true_positions)

    def flip_verdict(self, announcer: str, pair: Tuple[int, int], verdict: str) -> str:
        return verdict

    def finalize(self, t: "Transcript", rng: np.random.Generator) -> Optional[AttackOutcome]:
        """Score the finished (or aborted) run from its transcript."""
        return None


# The benchmark's tracer (perfbench/tracing.py) finds every hook class by
# walking ``RunHandle.__subclasses__()``.
RunHandle = AdversaryStrategy
NONE = AdversaryStrategy()


def _coin(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2))


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
    use_spec_knowledge = False

    def start_run(self) -> "EveInterceptResend":
        return replace(self)

    def participants(self) -> Dict[str, Tuple[int, ...]]:
        return {"links": self.links, "victim": () if self.victim is None else (self.victim,)}

    def taps(self, link: int):
        if link not in self.links:
            return ()

        def tap(delivery, rng):
            order = delivery.slots
            bases = rng.integers(0, 2, size=len(order)).tolist()
            bits = delivery.measure(bases, rng, forward=True)
            # Register particles have the ids below the state's count of them.
            self.records[link] = [(b, bit) for i, b, bit in zip(order, bases, bits) if i < delivery.state.n]

        return (tap,)

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

    def finalize(self, t: "Transcript", rng: np.random.Generator) -> AttackOutcome:
        out = AttackOutcome(self.kind, t.aborted, t.abort_step)
        if t.aborted or self.victim is None:
            return out
        secret = t.secrets[self.victim - 1]
        comp = t.comps[self.victim]
        hits = 0
        legit_hits = 0
        for idx, position in enumerate(t.comparison_positions):
            k_hat = self._guess_key_bit(t, position)
            if k_hat is None:
                k_hat = _coin(rng)
            if (k_hat ^ comp[idx]) == secret[idx]:
                hits += 1
            if self.use_spec_knowledge:
                # Same guess made from the legitimate view alone (no records).
                if (_coin(rng) ^ comp[idx]) == secret[idx]:
                    legit_hits += 1
        out.bits_guessed = len(t.comparison_positions)
        out.bits_correct = hits
        if self.use_spec_knowledge:
            out.extras["legit_bits_guessed"] = len(t.comparison_positions)
            out.extras["legit_bits_correct"] = legit_hits
        return out


@dataclass
class Tp2Intercept(EveInterceptResend):
    """The checking third party running the same intercept-resend attack.

    Identical channel behavior to an outside eavesdropper; the difference is
    that its guessing may combine intercept records with the preparation
    list it legitimately receives.
    """

    kind = KIND_TP2_INTERCEPT
    use_spec_knowledge = True


# ---------------------------------------------------------------------------
# Dishonest preparer
# ---------------------------------------------------------------------------


def _fixed_preparation(built: dict, n: int, count: int, build):
    """A fresh copy of the preparation ``build(n, count)`` returns, which is
    built once per (n, count) and kept in ``built``."""
    if (n, count) not in built:
        built[(n, count)] = build(n, count)
    registers, true_states, claimed = built[(n, count)]
    return registers.copy(), list(true_states), list(claimed)


@dataclass
class Tp1FakeInitialState(AdversaryStrategy):
    """Distribute one (possibly unentangled) state while claiming another."""

    true_state: object = "zeros"  # "zeros" or a GhzSpec
    claimed: Optional[GhzSpec] = None
    # (n, count) -> the unmeasured preparation, built on first use.
    built: Dict[Tuple[int, int], tuple] = field(init=False, default_factory=dict, repr=False, compare=False)
    kind = KIND_TP1_FAKE_STATE

    def states(self) -> Dict[str, GhzSpec]:
        named = {"true_state": self.true_state, "claimed": self.claimed}
        return {name: state for name, state in named.items() if isinstance(state, GhzSpec)}

    def override_preparation(self, n: int, count: int, rng: np.random.Generator):
        return _fixed_preparation(self.built, n, count, self._prepare)

    def _prepare(self, n: int, count: int):
        claimed = self.claimed or GhzSpec((0,) * n, 0)
        if claimed.n != n:
            raise ConfigError(f"claimed state has {claimed.n} particles, protocol has {n}")
        if self.true_state == "zeros":
            bits = (0,) * n
            registers = ProductRegister([bits] * count)
            true_states: List[object] = [bits] * count
        else:
            if self.true_state.n != n:
                raise ConfigError(f"true state has {self.true_state.n} particles, protocol has {n}")
            registers = GhzRegister([self.true_state] * count)
            true_states = [self.true_state] * count
        return registers, true_states, [claimed] * count

    def finalize(self, t: "Transcript", rng: np.random.Generator) -> AttackOutcome:
        out = AttackOutcome(self.kind, t.aborted, t.abort_step)
        if t.aborted:
            return out
        # The preparer knows exactly what it handed out.  A product
        # preparation fixes every key bit; a wrong entangled preparation
        # still hides the branch, leaving it guessing.
        hits = 0
        bits = 0
        for participant in range(1, t.params["n"] + 1):
            secret = t.secrets[participant - 1]
            comp = t.comps[participant]
            for idx, position in enumerate(t.comparison_positions):
                true = t.true_states[position]
                if isinstance(true, GhzSpec):
                    k_hat = _coin(rng)
                else:
                    k_hat = true[participant - 1]
                hits += int((k_hat ^ comp[idx]) == secret[idx])
                bits += 1
        out.bits_guessed = bits
        out.bits_correct = hits
        return out


# ---------------------------------------------------------------------------
# Fake announcements
# ---------------------------------------------------------------------------


@dataclass
class TpFakeResult(AdversaryStrategy):
    """Announce the opposite verdict for the chosen pairs."""

    announcer: str = TP1
    pairs: object = "all"  # "all" or a collection of (i, j) participant pairs

    def __post_init__(self) -> None:
        self.kind = KIND_TP2_FAKE_RESULT if self.announcer == TP2 else KIND_TP1_FAKE_RESULT
        if self.pairs != "all":
            self.pairs = {(min(p), max(p)) for p in self.pairs}

    def participants(self) -> Dict[str, Tuple[int, ...]]:
        return {"pairs": () if self.pairs == "all" else tuple(p for pair in sorted(self.pairs) for p in pair)}

    def flip_verdict(self, announcer: str, pair: Tuple[int, int], verdict: str) -> str:
        # The baseline has a single announcer (TP), which any fake-result
        # strategy targets.
        if announcer not in (self.announcer, TP) or (self.pairs != "all" and pair not in self.pairs):
            return verdict
        return DIFFERENT if verdict == IDENTICAL else IDENTICAL

    def finalize(self, t: "Transcript", rng: np.random.Generator) -> AttackOutcome:
        return AttackOutcome(self.kind, t.aborted, t.abort_step)


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

    def participants(self) -> Dict[str, Tuple[int, ...]]:
        return {"attacker": (self.attacker,), "victim": (self.victim,)}

    def finalize(self, t: "Transcript", rng: np.random.Generator) -> AttackOutcome:
        out = AttackOutcome(self.kind, t.aborted, t.abort_step)
        if t.aborted:
            return out
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
        out.bits_guessed = len(t.comparison_positions)
        out.bits_correct = hits
        return out


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
    spec_pair: Optional[Tuple[GhzSpec, GhzSpec]] = None
    # (round, true position, substituted position), recorded during one run.
    tampered: List[Tuple[int, int, int]] = field(init=False, default_factory=list, repr=False, compare=False)
    # The paired preparation per (n, count), shared by every run's copy.
    built: Dict[Tuple[int, int], tuple] = field(init=False, default_factory=dict, repr=False, compare=False)
    kind = KIND_POSITION_TAMPER

    def start_run(self) -> "ClassicalPositionTamper":
        run = replace(self)
        run.built = self.built
        return run

    def states(self) -> Dict[str, GhzSpec]:
        return {} if self.spec_pair is None else {"pair[0]": self.spec_pair[0], "pair[1]": self.spec_pair[1]}

    def override_preparation(self, n: int, count: int, rng: np.random.Generator):
        if self.policy != POLICY_PAIRED:
            return None
        return _fixed_preparation(self.built, n, count, self._prepare)

    def _prepare(self, n: int, count: int):
        pair = self.spec_pair or (
            GhzSpec((0,) * n, 0),
            GhzSpec((0,) + (1,) * (n - 1), 0),
        )
        for spec in pair:
            if spec.n != n:
                raise ConfigError(f"tamper pair state has {spec.n} particles, protocol has {n}")
        specs = [pair[p % 2] for p in range(count)]
        return GhzRegister(specs), specs, specs

    def tamper_positions(
        self, true_positions: List[int], total: int, rng: np.random.Generator
    ) -> List[int]:
        rounds_total = len(true_positions)
        wanted = min(self.count, rounds_total)
        if wanted == 0:
            return list(true_positions)
        rounds = sorted(rng.choice(rounds_total, size=wanted, replace=False).tolist())
        checked = set(true_positions)
        used: set = set()
        received = list(true_positions)
        for r in rounds:
            p = true_positions[r]
            # A paired preparation alternates, so the partner state sits at
            # the positions of the other parity.
            start, step = (1 - (p & 1), 2) if self.policy == POLICY_PAIRED else (0, 1)
            pool = [t for t in range(start, total, step) if t not in checked and t not in used]
            if not pool:
                continue
            target = pool[int(rng.integers(0, len(pool)))]
            received[r] = target
            used.add(target)
            self.tampered.append((r, p, target))
        return received

    def finalize(self, t: "Transcript", rng: np.random.Generator) -> AttackOutcome:
        out = AttackOutcome(self.kind, t.aborted, t.abort_step)
        distinct = sum(
            1
            for _, p, target in self.tampered
            if not isinstance(t.true_states[target], GhzSpec)
            or t.claimed_specs[p] != t.true_states[target]
        )
        out.extras["tampered"] = len(self.tampered)
        out.extras["tampered_distinct"] = distinct
        return out


# ---------------------------------------------------------------------------
# Config-driven construction
# ---------------------------------------------------------------------------


def _require_keys(params: dict, allowed: set, kind: str) -> None:
    for key in params:
        if key not in allowed:
            raise ConfigError(f"unknown adversary param `{key}` for kind `{kind}`")


def _int_param(value: object, name: str, low: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"adversary param `{name}` must be an integer >= {low}, got {value!r}")
    return value


def _list_param(value: object, name: str, what: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"adversary param `{name}` must be a nonempty list of {what}, got {value!r}")
    return list(value)


def _spec_from(value: object, what: str) -> GhzSpec:
    if isinstance(value, GhzSpec):
        return value
    if isinstance(value, dict):
        try:
            return GhzSpec.from_dict(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid state for `{what}`: {exc}") from exc
    raise ConfigError(f"`{what}` must be a state object with keys q/delta")


def _pair_from(value: object) -> Tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"adversary param `pairs` must hold [i, j] participant pairs, got {value!r}")
    i, j = (_int_param(v, "pairs") for v in value)
    if i == j:
        raise ConfigError(f"adversary param `pairs` must pair two distinct participants, got {value!r}")
    return i, j


def strategy_from_config(kind: str, params: Optional[dict] = None) -> AdversaryStrategy:
    """Build a strategy from config-document data, validating params."""
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ConfigError(f"field `adversary.params` must be an object, got {params!r}")
    if kind == KIND_NONE:
        _require_keys(params, set(), kind)
        return NONE
    if kind in (KIND_EVE, KIND_TP2_INTERCEPT):
        _require_keys(params, {"links", "victim"}, kind)
        links = _list_param(params.get("links", (1,)), "links", "participants")
        victim = params.get("victim")
        cls = Tp2Intercept if kind == KIND_TP2_INTERCEPT else EveInterceptResend
        return cls(
            links=tuple(_int_param(x, "links") for x in links),
            victim=None if victim is None else _int_param(victim, "victim"),
        )
    if kind == KIND_TP1_FAKE_STATE:
        _require_keys(params, {"true_state", "claimed"}, kind)
        true_state = params.get("true_state", "zeros")
        if true_state != "zeros":
            true_state = _spec_from(true_state, "true_state")
        claimed = params.get("claimed")
        if claimed is not None:
            claimed = _spec_from(claimed, "claimed")
        return Tp1FakeInitialState(true_state=true_state, claimed=claimed)
    if kind in (KIND_TP1_FAKE_RESULT, KIND_TP2_FAKE_RESULT):
        _require_keys(params, {"pairs"}, kind)
        pairs = params.get("pairs", "all")
        if pairs != "all":
            pairs = [_pair_from(p) for p in _list_param(pairs, "pairs", '[i, j] pairs (or "all")')]
        return TpFakeResult(announcer=TP2 if kind == KIND_TP2_FAKE_RESULT else TP1, pairs=pairs)
    if kind == KIND_PARTICIPANT_INFER:
        _require_keys(params, {"attacker", "victim", "counterfactual"}, kind)
        attacker = _int_param(params.get("attacker", 1), "attacker")
        victim = _int_param(params.get("victim", 2), "victim")
        if attacker == victim:
            raise ConfigError(f"adversary params `attacker` and `victim` must differ, both are {attacker}")
        counterfactual = params.get("counterfactual", False)
        if not isinstance(counterfactual, bool):
            raise ConfigError(f"adversary param `counterfactual` must be true or false, got {counterfactual!r}")
        return ParticipantInfer(attacker, victim, counterfactual)
    if kind == KIND_POSITION_TAMPER:
        _require_keys(params, {"count", "policy", "pair"}, kind)
        policy = params.get("policy", POLICY_PAIRED)
        if policy not in (POLICY_PAIRED, POLICY_RANDOM):
            raise ConfigError(f"unknown tamper policy `{policy}`")
        pair = params.get("pair")
        if pair is not None:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError("tamper param `pair` must hold exactly two states")
            pair = (_spec_from(pair[0], "pair[0]"), _spec_from(pair[1], "pair[1]"))
        count = _int_param(params.get("count", 1), "count", low=0)
        return ClassicalPositionTamper(count=count, policy=policy, spec_pair=pair)
    raise ConfigError(f"unknown adversary kind `{kind}` (expected one of {', '.join(ALL_KINDS)})")
