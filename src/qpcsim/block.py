"""Steps 1-3 of a block of trials as arrays, for the scenarios whose state
check can abort a trial before anything taps it: a first third party that
prepares fake states (under either protocol) and a position tamperer on the
classical broadcast, each with at least one check round.

Each trial's raw outputs are fetched from its own bit generator, one row
per trial, and read through a cursor per trial by the rules ``Stream``
draws by: fair bits are top bits, a bounded draw is Lemire's m >> 32, a
sample replays Floyd's algorithm as ``replay_choice`` does, and the check
measurements draw as ``GhzRegister.measure`` draws on fresh registers.  So
every value is the one the trial's own ``Stream`` would draw.  With no tap,
every decoy arrives as prepared, so the decoy run only moves the cursor.

A trial the state check aborts is counted here as ``harness._extract``
counts it.  Every other trial is left to be rerun from its seed by the
scalar ``run_trial``: one the check passes, one with a bounded draw (in a
run or a ``below``) that Lemire's rule would redraw, one whose
``forced_unequal`` secrets would be redrawn, and one that reads past the
outputs fetched for it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from . import protocol as proto
from .adversaries import POLICY_PAIRED, ClassicalPositionTamper, Tp1FakeInitialState
from .ghz import GhzSpec
from .photons import _run_bounds
from .stream import _CHUNK, RAW_WORDS, Bounds, _choice_bounds

_LOW = 0xFFFFFFFF


def covers(scenario, strategy) -> bool:
    """Whether the engine decides ``scenario``'s trials: the state check can
    abort them, and no tap acts before it."""
    if scenario.effective_check_rounds() == 0:
        return False
    if isinstance(strategy, ClassicalPositionTamper):
        return scenario.variant == proto.VARIANT_BROADCAST
    return isinstance(strategy, Tp1FakeInitialState)


def state_check(
    scenario, strategy, trials: range, generator: Callable[[int], object]
) -> Tuple[Dict[str, int], List[int]]:
    """The counters of the trials in ``trials`` that the state check aborts,
    and the trials left to rerun, ascending.  ``generator(trial)`` is the
    trial's seeded bit generator; trials go through the engine in blocks
    that start at multiples of ``TrialSeeds``' chunk."""
    shape = _Shape(scenario, strategy)
    if not shape.fits:  # every trial reads past its outputs before the check
        return {}, list(trials)
    counts = np.zeros(len(_COUNTS), dtype=np.int64)
    rerun: List[int] = []
    for first in range(trials.start - trials.start % _CHUNK, trials.stop, _CHUNK):
        block = range(max(first, trials.start), min(first + _CHUNK, trials.stop))
        raw = np.stack([generator(trial).random_raw(shape.words) for trial in block])
        # An explicit little-endian view puts the low half first on any host.
        kept, part = _decide(shape, raw.astype("<u8", copy=False).view("<u4"))
        counts += part
        rerun.extend(trial for trial, done in zip(block, kept.tolist()) if not done)
    return shape.counters(counts), rerun


# The sums ``_decide`` returns, in order.
_COUNTS = ("aborted", "x_check_rounds", "z_check_rounds", "x_check_failures", "z_check_failures", "tampered",
           "tampered_distinct", "tamper_runs", "tamper_distinct_runs")


class _Shape:
    """What every trial of one scenario draws and holds up to its state check."""

    def __init__(self, scenario, strategy) -> None:
        n, m = scenario.n, scenario.m
        c, l = scenario.effective_check_rounds(), scenario.effective_decoy_count()
        roles = proto._PROPOSED if scenario.protocol == "proposed" else proto._BASELINE
        total = roles.register_count(m, c)
        self.n, self.m, self.c, self.total = n, m, c, total
        self.check_step = roles.check_step
        policy = scenario.secrets.policy
        self.secret_draws = {"explicit": 0, "forced_equal": m}.get(policy, n * m)
        self.distinct = policy == "forced_unequal"
        # The fake and the paired preparations draw nothing; a random
        # tamperer leaves the honest preparation, one n-bit draw a register.
        prepared = strategy.start_run().override_preparation(n, total, None)
        self.prepare_draws = total if prepared is None else 0
        if prepared is not None:
            _, true_states, claimed = prepared
            self.true, self.claimed = _registers(true_states), _registers(claimed)
        self.decoys = _run_bounds(total, l, n) if l else None
        self.positions = _choice_bounds(total, c)
        tamper = isinstance(strategy, ClassicalPositionTamper)
        self.wanted = min(strategy.count, c) if tamper else 0
        self.rounds = _choice_bounds(c, self.wanted) if self.wanted else None
        self.tamper, self.paired = tamper, tamper and strategy.policy == POLICY_PAIRED
        # Lemire's redraw threshold for each pool size a target is drawn
        # below; a pool of 0 or 1 draws nothing.
        if self.wanted:
            self.thresholds = np.array([0, 0] + [(0x100000000 - size) % size for size in range(2, total + 1)],
                                       dtype=np.uint64)
        prefix = self.secret_draws + self.prepare_draws + len(self.positions.wide)
        prefix += sum(len(bounds.wide) for bounds in (self.decoys, self.rounds) if bounds is not None)
        # The most a trial reads: the prefix, a target per tampered round,
        # the bases, and the measurements' read-ahead.
        self.words = min(RAW_WORDS, (prefix + self.wanted + c + n * c + 1) // 2)
        self.fits = prefix <= 2 * self.words

    def counters(self, counts: np.ndarray) -> Dict[str, int]:
        """``_extract``'s counters of the aborted trials whose sums are ``counts``."""
        sums = dict(zip(_COUNTS, counts.tolist()))
        aborted = sums["aborted"]
        if not aborted:
            return {}
        out = {"trials": aborted, "aborted": aborted, f"abort_step{self.check_step}": aborted,
               f"abort_{proto.CAUSE_STATE_CHECK}": aborted}
        # Counted only when nonzero, as _extract bumps them.
        for key in ("x_check_rounds", "z_check_rounds", "x_check_failures", "z_check_failures"):
            if sums[key]:
                out[key] = sums[key]
        out.update(attack_detected=aborted, attack_bits_guessed=0, attack_bits_correct=0)
        if self.tamper:
            out.update(attack_tampered=sums["tampered"], attack_tampered_distinct=sums["tampered_distinct"])
            for runs in ("tamper_runs", "tamper_distinct_runs"):
                if sums[runs]:
                    out[runs] = out[f"{runs}_detected"] = sums[runs]
        return out


class _States(NamedTuple):
    """The registers of a block's trials: the bits (trial, register,
    particle), and the phase and whether the register is a product state
    (trial, register).  A leading axis of one holds every trial's."""

    q: np.ndarray
    delta: np.ndarray
    product: np.ndarray


def _registers(states) -> _States:
    """The registers of a preparation list (a GhzSpec, or a product state's
    bit tuple) that every trial shares.  A preparation repeats a few state
    objects, each read once."""
    distinct = {id(state): state for state in states}
    code = {key: i for i, key in enumerate(distinct)}
    which = np.array([code[id(state)] for state in states])
    ghz = [isinstance(state, GhzSpec) for state in distinct.values()]
    q = np.array([state.q if entangled else state for state, entangled in zip(distinct.values(), ghz)], dtype=np.uint8)
    delta = np.array([state.delta if entangled else 0 for state, entangled in zip(distinct.values(), ghz)],
                     dtype=np.uint8)
    return _States(q[which][None], delta[which][None], ~np.array(ghz)[which][None])


class _Draws:
    """The 32-bit outputs of a block's trials, a row per trial, and each
    row's cursor: one number while every trial has drawn alike, an array
    once their draws differ.  A read past the row repeats its last output;
    the trial is then rerun, so what it read does not count."""

    __slots__ = ("outputs", "width", "rows", "at")

    def __init__(self, outputs: np.ndarray) -> None:
        self.outputs = outputs
        self.width = outputs.shape[1]
        self.rows = np.arange(len(outputs))[:, None]
        self.at = 0

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of each row, as uint64, left unread."""
        at = self.at
        if isinstance(at, int) and at + count <= self.width:
            return self.outputs[:, at : at + count].astype(np.uint64)
        index = np.minimum(np.add.outer(at, np.arange(count)), self.width - 1)
        return self.outputs[self.rows, index].astype(np.uint64)

    def skip(self, count) -> None:
        """Move every cursor on by ``count``: a number, or one per row."""
        self.at = self.at + count

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of each row, as uint64, read."""
        values = self.peek(count)
        self.skip(count)
        return values

    def run(self, bounds: Bounds, off: np.ndarray) -> np.ndarray:
        """Each row's draws below the bounds above 1 of ``bounds``, as
        ``Stream.run`` draws them; marks in ``off`` the rows where one would
        be redrawn."""
        product = self.take(len(bounds.wide)) * bounds.wide
        off |= ((product & _LOW) < bounds.threshold).any(axis=1)
        return (product >> 32).astype(np.int64)


def _floyd(values: np.ndarray, population: int, size: int) -> np.ndarray:
    """Each row's sample of ``size`` of ``range(population)``, as a mask, that
    ``replay_choice`` makes from the row's draws ``values``.  The
    populations here are far below ``choice``'s tail-shuffle cutoff, so
    each sample is Floyd's: at step k, with j = population - size + k, the
    draw v_k joins the sample unless it is already there, and then j joins.
    v_k is already there when an earlier draw was v_k, or when v_k is the j
    of an earlier step whose draw was already there.  Only a sample of the
    whole population has a first bound of 1, which draws nothing; it reads
    no value."""
    if size == population:
        return np.ones((len(values), population), dtype=bool)
    rows = np.arange(len(values))[:, None]
    base = population - size
    drawn = values[:, :size]
    steps = np.arange(size)
    repeat = ((drawn[:, :, None] == drawn[:, None, :]) & (steps[:, None] > steps)).any(axis=2)
    step = drawn - base  # the step whose j the draw is, if an earlier one
    earlier = (step >= 0) & (step < steps)
    step = np.where(earlier, step, 0)
    while True:
        grown = repeat | (earlier & repeat[rows, step])
        if (grown == repeat).all():
            break
        repeat = grown
    chosen = np.zeros((len(values), population), dtype=bool)
    chosen[rows, drawn] = True
    chosen[:, base:] |= repeat
    return chosen


def _at(states: np.ndarray, rows: np.ndarray, *index) -> np.ndarray:
    """``states[rows, *index]``, where a leading axis of one holds the
    states of every trial."""
    return states[(0 if len(states) == 1 else rows, *index)]


def _decide(shape: _Shape, outputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Steps 1-3 of one block: whether each trial is decided here (its check
    aborts and nothing sent it off the arrays), and the ``_COUNTS`` sums of
    those trials."""
    n, c, total = shape.n, shape.c, shape.total
    count = len(outputs)
    trials = np.arange(count)
    rows = trials[:, None]
    draws = _Draws(outputs)
    off = np.zeros(count, dtype=bool)

    # Step 1: the secrets, and any preparation that draws.  Only distinct
    # secrets are looked at: an aborted trial's counters do not hold them.
    if shape.distinct:
        secrets = (draws.take(shape.secret_draws) >> 31).reshape(count, n, shape.m)
        off |= (secrets[:, :, None] == secrets[:, None]).all(axis=3).sum(axis=(1, 2)) != n
    else:
        draws.skip(shape.secret_draws)
    if shape.prepare_draws:
        # ghz_from_index(v + 1, n): phase v & 1, q[k] = bit n - k of v.
        index = draws.take(total) >> (32 - n)
        q = (index[:, :, None] >> np.arange(n, 0, -1, dtype=np.uint64)) & 1
        true = claimed = _States(q, index & 1, np.zeros((1, total), dtype=bool))
    else:
        true, claimed = shape.true, shape.claimed
    # Step 2: no tap, so every decoy passes; its draws only move the cursor.
    if shape.decoys is not None:
        draws.run(shape.decoys, off)

    # Step 3: the check positions, the tamperer's substitutes, the bases.
    checked = _floyd(draws.run(shape.positions, off), total, c)
    positions = np.nonzero(checked)[1].reshape(count, c)
    received = positions
    if shape.wanted:
        rounds = np.nonzero(_floyd(draws.run(shape.rounds, off), c, shape.wanted))[1].reshape(count, shape.wanted)
        received = positions.copy()
        free = ~checked
        true_at = positions[rows, rounds]
        # A paired preparation alternates, so the partner state sits at the
        # positions of the other parity; a random substitute is any position.
        # A target used leaves the free ones.
        partner = (np.arange(total) & 1) != (true_at & 1)[:, :, None] if shape.paired else None
        # A round's target is one draw below its pool's size, if the pool
        # holds two or more: the trial's next unread output.
        ahead = draws.peek(shape.wanted)
        used = np.zeros(count, dtype=np.int64)
        products = np.empty((count, shape.wanted), dtype=np.uint64)
        sizes = np.empty((count, shape.wanted), dtype=np.int64)
        for i, r in enumerate(rounds.T):
            below = (free & partner[:, i] if shape.paired else free).cumsum(axis=1, dtype=np.uint64)
            size = below[:, -1]
            products[:, i] = scaled = ahead[trials, used] * size
            sizes[:, i] = size
            used += size > 1
            target = np.where(size > 0, (below > scaled[:, None] >> 32).argmax(axis=1), true_at[:, i])
            received[trials, r] = target
            free[trials, target] = False
        off |= ((products & _LOW) < shape.thresholds[sizes]).any(axis=1)
        draws.skip(used)
    # A substitute is never a checked position.
    tampered = received != positions
    x = (draws.take(c) >> 31).astype(bool)

    # The check measurements: particle k of register reg[:, r, k] in round
    # r.  Every register is fresh and measured in one round at most: all n
    # particles of an untampered round's register, or P1's particle of the
    # checked register and the others' of the substitute.  So an X
    # measurement draws except on the last particle of an entangled
    # register measured whole, which carries the phase; a Z measurement
    # draws only on the first particle of each entangled register.
    k = np.arange(n)
    reg = np.where(k == 0, positions[:, :, None], received[:, :, None])
    row = rows[:, :, None]
    product = _at(true.product, row, reg)
    split = tampered[:, :, None]
    drawn = np.where(x[:, :, None], product | split | (k < n - 1), ~product & ((k == 0) | (split & (k == 1))))
    flat = drawn.reshape(count, c * n)
    fair = (draws.peek(c * n) >> 31).astype(np.uint8)
    bits = fair[rows, np.maximum(flat.cumsum(axis=1) - 1, 0)].reshape(count, c, n)
    draws.skip(flat.sum(axis=1))
    # A Z outcome is q[k] XOR the branch the group's first particle drew.
    branch = np.where(split & (k >= 1), bits[:, :, 1:2], bits[:, :, :1]) & ~product
    claimed_q = _at(claimed.q, rows, positions)
    claimed_delta = _at(claimed.delta, rows, positions)
    z_off = _at(true.q, row, reg, k) ^ branch ^ claimed_q
    whole = ~tampered & ~product[:, :, 0]
    x_parity = np.where(whole, _at(true.delta, rows, positions), np.bitwise_xor.reduce(bits, axis=2))
    failed = np.where(x, x_parity != claimed_delta, (z_off != z_off[:, :, :1]).any(axis=2))

    kept = failed.any(axis=1) & ~off & (draws.at <= draws.width)
    tamper_count = tampered.sum(axis=1)
    distinct = 0
    if shape.tamper:
        # A substitute is distinct when its true state is not the state
        # claimed for the checked register.
        differs = (_at(true.product, rows, received) | (_at(true.q, rows, received) != claimed_q).any(axis=2)
                   | (_at(true.delta, rows, received) != claimed_delta))
        distinct = (tampered & differs).sum(axis=1)
    runs = tamper_count > 0
    x_rounds = x.sum(axis=1)
    x_failed = (failed & x).sum(axis=1)
    per_trial = [x_rounds, c - x_rounds, x_failed, failed.sum(axis=1) - x_failed, tamper_count, distinct, runs,
                 runs & (distinct == tamper_count)]
    return kept, np.array([kept, *np.broadcast_arrays(*per_trial)], dtype=np.int64) @ kept
