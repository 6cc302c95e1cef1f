"""Steps 1-3 of a block of trials as arrays, for the scenarios whose trials
an early check can abort, each with secrets that are never drawn again:

* an intercept-resend tap (an outside Eve, or TP2 acting as one) under
  either protocol, with more decoys per link than the check tolerates: the
  step-2 decoy check of the first tapped link can abort a trial;
* a first third party that prepares fake states (under either protocol)
  and a ``paired_specs`` position tamperer on the classical broadcast, each
  with at least one check round: the step-3 state check can abort a trial
  before anything taps it, and every trial shares one fixed preparation.

Each trial's draws are read through ``stream.Rows``, a row per trial, call
for call as ``run_trial`` makes them through the trial's ``Stream``: the
secrets, the honest preparation, the decoy run, the check positions, the
tamperer's rounds and targets, the bases, and the measurements, which draw
as ``GhzRegister.measure`` draws.  So every value is the one the trial's
own ``Stream`` would draw.  Each trial's outputs are fetched whole, as many
as it can read before its check ends; a scenario whose trials can read
more than ``RAW_WORDS`` words leaves every trial to the scalar loop.

A tapped trial's registers are never built.  Only untapped links precede
the first tapped one, so their decoys pass and their draws only move the
cursor.  On that link the tap draws one fair bit per carrier and one per
decoy it measures in a basis other than the decoy's own, and the check
draws one per such decoy; only the check's bits are read.  With no tap,
every decoy arrives as prepared.

A trial the check aborts is counted here as ``harness._extract`` counts it.
Every other trial is left to be rerun from its seed by the scalar
``run_trial``: one the check passes, and one with a bounded draw that
Lemire's rule would redraw.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from . import protocol as proto
from .adversaries import POLICY_PAIRED, ClassicalPositionTamper, EveInterceptResend, Tp1FakeInitialState
from .ghz import GhzSpec
from .photons import _run_bounds
from .stream import _CHUNK, RAW_WORDS, Rows, _choice_bounds


def covers(scenario, strategy) -> bool:
    """Whether the engine decides ``scenario``'s trials: a check can abort
    them before any key is measured, and it follows every draw up to it."""
    if scenario.secrets.policy == "forced_unequal":
        return False
    if isinstance(strategy, EveInterceptResend):  # an outside Eve, or TP2's intercept
        return scenario.effective_decoy_count() > scenario.decoy_tolerance
    if scenario.effective_check_rounds() == 0:
        return False
    if isinstance(strategy, ClassicalPositionTamper):
        return scenario.variant == proto.VARIANT_BROADCAST and strategy.policy == POLICY_PAIRED
    return isinstance(strategy, Tp1FakeInitialState)


def decide(
    scenario, strategy, trials: range, generator: Callable[[int], object]
) -> Tuple[Dict[str, int], List[int]]:
    """The counters of the trials in ``trials`` that the check aborts, and
    the trials left to rerun, ascending.  ``generator(trial)`` is the
    trial's seeded bit generator; trials go through the engine in blocks
    that start at multiples of ``TrialSeeds``' chunk."""
    shape = _shape(scenario, strategy)
    if shape.words > RAW_WORDS:  # a trial may read past one fetch of its Stream
        return {}, list(trials)
    counts = np.zeros(len(shape.COUNTS), dtype=np.int64)
    rerun: List[int] = []
    for first in range(trials.start - trials.start % _CHUNK, trials.stop, _CHUNK):
        block = range(max(first, trials.start), min(first + _CHUNK, trials.stop))
        kept, part = shape.decide(Rows(map(generator, block), shape.words))
        counts += part
        rerun.extend(trial for trial, done in zip(block, kept.tolist()) if not done)
    return shape.counters(counts), rerun


def _shape(scenario, strategy):
    return (_DecoyCheck if isinstance(strategy, EveInterceptResend) else _StateCheck)(scenario, strategy)


def _secret_draws(scenario) -> int:
    return {"explicit": 0, "forced_equal": scenario.m}.get(scenario.secrets.policy, scenario.n * scenario.m)


def _aborted(count: int, step: int, cause: str) -> Dict[str, int]:
    """The ``_extract`` counters that ``count`` trials aborted at ``step``
    for ``cause`` all hold: each detects its attack and guesses no bit."""
    return {"trials": count, "aborted": count, f"abort_step{step}": count, f"abort_{cause}": count,
            "attack_detected": count, "attack_bits_guessed": 0, "attack_bits_correct": 0}


class _DecoyCheck:
    """What every trial of an intercept-resend scenario draws up to the
    decoy check of its first tapped link, k0."""

    COUNTS = ("aborted",)

    def __init__(self, scenario, strategy) -> None:
        l = scenario.effective_decoy_count()
        self.l, self.tolerance = l, scenario.decoy_tolerance
        self.total = scenario.roles.register_count(scenario.m, scenario.effective_check_rounds())
        self.width = scenario.roles.prepare_width(scenario.n)
        self.secret_draws = _secret_draws(scenario)
        k0 = min(strategy.links)
        self.links = _run_bounds(self.total, l, k0)  # links 1..k0, in one run
        self.at = len(self.links.values) * (k0 - 1) // k0  # where link k0's draws start
        # The most a trial reads, in 32-bit outputs: the draws up to the tap
        # (the preparation reads one a register), the tap's bases and its
        # measurement's read-ahead of one a slot, then the check's read-ahead
        # of one a decoy.
        reads = self.secret_draws + self.total + len(self.links.wide) + 2 * (self.total + l) + l
        self.words = (reads + 1) // 2

    def decide(self, draws: Rows) -> Tuple[np.ndarray, np.ndarray]:
        """Whether each trial is decided here (link k0's check aborts it and
        Lemire's rule redraws none of its draws), and how many are."""
        l, slots = self.l, self.total + self.l
        rows = np.arange(len(draws))[:, None]
        draws.bits(self.secret_draws)
        draws.bits(self.total, self.width)  # the honest preparation
        link = draws.run(self.links)[:, self.at :]
        decoys = link[:, :l]
        # Decoy d rides in slot ``placed[:, d]``: the placement is ascending,
        # and the decoys are placed in order.
        placed = Rows.replay(slots, l, link[:, l:])
        # The tap's measurement draws on every carrier and on each decoy
        # measured in the other basis, which it resends in that basis.
        moved = draws.bits(slots)[rows, placed] != decoys >> 1
        draws.skip(self.total + moved.sum(axis=1))
        # The check measures each moved decoy, in order, in its own basis.
        checked = draws.peek(l)[rows, np.maximum(moved.cumsum(axis=1) - 1, 0)]
        mismatches = (moved & (checked != decoys & 1)).sum(axis=1)
        kept = (mismatches > self.tolerance) & ~draws.redraw
        return kept, np.array([np.count_nonzero(kept)])

    def counters(self, counts: np.ndarray) -> Dict[str, int]:
        """``_extract``'s counters of the ``counts[0]`` aborted trials."""
        aborted = int(counts[0])
        return _aborted(aborted, 2, proto.CAUSE_DECOY) if aborted else {}


class _StateCheck:
    """What every trial of one scenario draws and holds up to its state check."""

    # The sums ``decide`` returns, in order.
    COUNTS = ("aborted", "x_check_rounds", "z_check_rounds", "x_check_failures", "z_check_failures", "tampered",
              "tampered_distinct", "tamper_runs", "tamper_distinct_runs")

    def __init__(self, scenario, strategy) -> None:
        n, m = scenario.n, scenario.m
        c, l = scenario.effective_check_rounds(), scenario.effective_decoy_count()
        total = scenario.roles.register_count(m, c)
        self.n, self.c, self.total = n, c, total
        self.check_step = scenario.roles.check_step
        self.secret_draws = _secret_draws(scenario)
        _, true_states, claimed = strategy.start_run().override_preparation(n, total, None)
        self.true, self.claimed = _registers(true_states), _registers(claimed)
        self.decoys = _run_bounds(total, l, n) if l else None
        self.tamper = isinstance(strategy, ClassicalPositionTamper)
        self.wanted = min(strategy.count, c) if self.tamper else 0
        reads = self.secret_draws + len(_choice_bounds(total, c).wide)
        if self.decoys is not None:
            reads += len(self.decoys.wide)
        if self.wanted:
            reads += len(_choice_bounds(c, self.wanted).wide)
        # The most a trial reads, in 64-bit words: the draws above, a target
        # per tampered round, the bases, and the measurements' read-ahead.
        self.words = (reads + self.wanted + c + n * c + 1) // 2

    def counters(self, counts: np.ndarray) -> Dict[str, int]:
        """``_extract``'s counters of the aborted trials whose sums are ``counts``."""
        sums = dict(zip(self.COUNTS, counts.tolist()))
        aborted = sums["aborted"]
        if not aborted:
            return {}
        out = _aborted(aborted, self.check_step, proto.CAUSE_STATE_CHECK)
        # Counted only when nonzero, as _extract bumps them.
        for key in ("x_check_rounds", "z_check_rounds", "x_check_failures", "z_check_failures"):
            if sums[key]:
                out[key] = sums[key]
        if self.tamper:
            out.update(attack_tampered=sums["tampered"], attack_tampered_distinct=sums["tampered_distinct"])
            for runs in ("tamper_runs", "tamper_distinct_runs"):
                if sums[runs]:
                    out[runs] = out[f"{runs}_detected"] = sums[runs]
        return out

    def decide(self, draws: Rows) -> Tuple[np.ndarray, np.ndarray]:
        """Steps 1-3 of one block: whether each trial is decided here (its
        check aborts and Lemire's rule redraws none of its draws), and the
        ``COUNTS`` sums of those trials."""
        n, c, total = self.n, self.c, self.total
        true, claimed = self.true, self.claimed
        count = len(draws)
        trials = np.arange(count)
        rows = trials[:, None]

        # Step 1: the secrets, which an aborted trial's counters do not hold.
        draws.bits(self.secret_draws)
        # Step 2: no tap, so every decoy passes; its draws only move the cursor.
        if self.decoys is not None:
            draws.run(self.decoys)

        # Step 3: the check positions, the tamperer's substitutes, the bases.
        positions = draws.sample(total, c)
        received = positions
        if self.wanted:
            rounds = draws.sample(c, self.wanted)
            received = positions.copy()
            free = np.ones((count, total), dtype=bool)
            free[rows, positions] = False
            true_at = positions[rows, rounds]
            # The paired preparation alternates, so the partner state sits at
            # the positions of the other parity.  A target used leaves the free
            # ones.
            partner = (np.arange(total) & 1) != (true_at & 1)[:, :, None]
            for i, r in enumerate(rounds.T):
                # A round's target is one draw below its pool's size, if the pool
                # holds any.
                pool = (free & partner[:, i]).cumsum(axis=1)
                size = pool[:, -1]
                pick = draws.below(np.maximum(size, 1))
                target = np.where(size > 0, (pool > pick[:, None]).argmax(axis=1), true_at[:, i])
                received[trials, r] = target
                free[trials, target] = False
        # A substitute is never a checked position.
        tampered = received != positions
        x = draws.bits(c).astype(bool)

        # The check measurements: particle k of register reg[:, r, k] in round
        # r.  Every register is fresh and measured in one round at most: all n
        # particles of an untampered round's register, or P1's particle of the
        # checked register and the others' of the substitute.  So an X
        # measurement draws except on the last particle of an entangled
        # register measured whole, which carries the phase; a Z measurement
        # draws only on the first particle of each entangled register.
        k = np.arange(n)
        reg = np.where(k == 0, positions[:, :, None], received[:, :, None])
        product = true.product[reg]
        split = tampered[:, :, None]
        drawn = np.where(x[:, :, None], product | split | (k < n - 1), ~product & ((k == 0) | (split & (k == 1))))
        flat = drawn.reshape(count, c * n)
        fair = draws.peek(c * n)
        bits = fair[rows, np.maximum(flat.cumsum(axis=1) - 1, 0)].reshape(count, c, n)
        draws.skip(flat.sum(axis=1))
        # A Z outcome is q[k] XOR the branch the group's first particle drew.
        branch = np.where(split & (k >= 1), bits[:, :, 1:2], bits[:, :, :1]) & ~product
        claimed_q = claimed.q[positions]
        claimed_delta = claimed.delta[positions]
        z_off = true.q[reg, k] ^ branch ^ claimed_q
        whole = ~tampered & ~product[:, :, 0]
        x_parity = np.where(whole, true.delta[positions], np.bitwise_xor.reduce(bits, axis=2))
        failed = np.where(x, x_parity != claimed_delta, (z_off != z_off[:, :, :1]).any(axis=2))

        kept = failed.any(axis=1) & ~draws.redraw
        tamper_count = tampered.sum(axis=1)
        distinct = 0
        if self.tamper:
            # A substitute is distinct when its true state is not the state
            # claimed for the checked register.
            differs = (true.product[received] | (true.q[received] != claimed_q).any(axis=2)
                       | (true.delta[received] != claimed_delta))
            distinct = (tampered & differs).sum(axis=1)
        runs = tamper_count > 0
        x_rounds = x.sum(axis=1)
        x_failed = (failed & x).sum(axis=1)
        per_trial = [x_rounds, c - x_rounds, x_failed, failed.sum(axis=1) - x_failed, tamper_count, distinct, runs,
                     runs & (distinct == tamper_count)]
        return kept, np.array([kept, *np.broadcast_arrays(*per_trial)], dtype=np.int64) @ kept


class _States(NamedTuple):
    """The registers every trial shares: the bits (register, particle), and
    the phase and whether the register is a product state (register)."""

    q: np.ndarray
    delta: np.ndarray
    product: np.ndarray


def _registers(states) -> _States:
    """The registers of a preparation list: a GhzSpec, or a product state's
    bit tuple, each.  A preparation repeats a few state objects, each read
    once."""
    distinct = {id(state): state for state in states}
    code = {key: i for i, key in enumerate(distinct)}
    which = np.array([code[id(state)] for state in states])
    ghz = [isinstance(state, GhzSpec) for state in distinct.values()]
    q = np.array([state.q if entangled else state for state, entangled in zip(distinct.values(), ghz)], dtype=np.uint8)
    delta = np.array([state.delta if entangled else 0 for state, entangled in zip(distinct.values(), ghz)],
                     dtype=np.uint8)
    return _States(q[which], delta[which], ~np.array(ghz)[which])
