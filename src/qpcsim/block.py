"""Steps 1-7 of a block of trials as arrays, and the adversary's score, for
every adversary kind under either protocol and variant, any secret policy,
and any count of decoys, tolerated mismatches and check rounds.  A kind
makes its own moves through its array hooks.  ``transcript`` renders one
trial from a one-row run of the same steps.

Each trial's draws are read through ``stream.Rows``, a row per trial, so
that every value is the one the trial's own ``Stream`` would draw, call for
call as ``protocol``'s per-trial program draws an honest trial.  The
registers are arrays with a trial axis, held as ``GhzRegister`` holds one
trial's, and ``_Trials.measure`` draws as ``GhzRegister.measure`` draws.

A share runs in blocks of up to ``_ROWS`` trials from its first trial on,
fewer where a trial holds many slots (``_BLOCK_SLOTS``).  A trial leaves the
block's arrays as soon as a check aborts it: the decoy checks of the tapped
links, the state check, or the cross-check of the two announcers' verdicts,
which the arbiter then settles.  Each step keeps on its ``_Trials`` the
arrays a transcript reads, by reference.
"""

from __future__ import annotations

import sys
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Dict, NamedTuple

import numpy as np

from . import protocol as proto
from .adversaries import DIFFERENT, IDENTICAL, TP1, TP2
from .ghz import HELD, MEASURED, GhzSpec
from .photons import _run_bounds
from .stream import Rows


# The most particle and decoy slots a block holds, over all its trials.  A
# block's arrays grow with them: at n = 20, m = 4096 (327,680 slots a
# trial) a block of 64 trials peaked at 807 MB, and a 64-trial share in
# blocks of 6 at 140 MB; with 4096 decoys a link and every link tapped
# (245,760 slots) one in blocks of 8 peaked at 130 MB; at n = 4, m = 256
# (4,096 slots) a 1,024-trial share in blocks of ``_ROWS`` peaked at
# 147 MB.  Every battery, golden and benchmark shape, at most 320 slots a
# trial, runs in blocks of ``_ROWS``.
_BLOCK_SLOTS = 2**21

# The most trials a block holds.  Each block pays a fixed cost of small
# numpy calls, 0.2-0.5 ms a block of one trial of the benchmark's attack
# shapes.  A 10,000-trial share of its tp2_intercept shape (n = 3, m = 16;
# 2 vCPUs, Python 3.11, numpy 2.4, best of 5) took 0.15, 0.15 and 0.12 s
# CPU in blocks of 256, 512 or 1,024 trials, against 0.24 s in blocks of
# 64, and peaked at 40, 42 and 45 MB, against 39.5 MB; blocks of 2,048
# took 0.12 s and peaked at 52 MB (``Rows`` fetching ``stream.FETCH_WORDS``
# words a row at a time; 0.21-0.27 s and 41-48 MB at 390).
_ROWS = 512


def decide(scenario, strategy, trials: range, generator: Callable[[int], object]) -> Dict[str, int]:
    """The summed counters of the trials in ``trials``.  ``generator(trial)``
    is the trial's seeded bit generator; trials go through the engine in
    blocks of ``_Program.rows`` trials, the first starting at the first of
    ``trials``."""
    program = _Program(scenario, strategy)
    for first in range(trials.start, trials.stop, program.rows):
        program.run(Rows(map(generator, range(first, min(first + program.rows, trials.stop)))))
    return program.counters()


def transcript(scenario, strategy, generator) -> proto.Transcript:
    """The transcript of the trial whose seeded bit generator is
    ``generator``, laid out by ``protocol.record`` from the arrays a one-row
    run keeps; a step past the trial's abort keeps none."""
    program = _Program(scenario, strategy)
    trials = program.run(Rows([generator]))

    def row(arrays):
        return None if arrays is None else arrays[0].tolist()

    states = [tuple(q) if product else GhzSpec(tuple(q), delta)
              for q, delta, product in zip(*map(row, trials.prepared))]
    claimed = [GhzSpec(tuple(q), delta) for q, delta in zip(row(trials.claimed_q), row(trials.claimed_delta))]
    step3 = r = verdicts = None
    if trials.rounds is not None:
        bases, outcomes, failed = map(row, trials.rounds)
        failures = tuple(k for k, fail in enumerate(failed) if fail)
        step3 = proto.Step3Report(not failures, failures, tuple(bases), outcomes)
    if trials.verdicts is not None:
        unpadded, (i, j) = trials.unpadded[0], _pairs(program.n)
        r = list(map(tuple, (unpadded[i] ^ unpadded[j]).tolist()))
        verdicts = tuple([DIFFERENT if different else IDENTICAL for different in row(a)] for a in trials.verdicts)
    arbiter = next((liar for liar in (TP1, TP2, "both") if program.sums.get(f"arbiter_{liar.lower()}")), None)
    return proto.record(scenario, strategy.kind, row(trials.secrets), states, claimed,
                        {k: int(a[0]) for k, a in trials.mismatches.items()}, step3, row(trials.positions),
                        row(trials.key_positions), row(trials.keys), r, verdicts, arbiter)


class _States(NamedTuple):
    """Registers as arrays: the bits (..., register, particle), and the
    phase and whether the register is a product state (..., register)."""

    q: np.ndarray
    delta: np.ndarray
    product: np.ndarray


@lru_cache(maxsize=8)  # a few fixed preparations; ``adversaries._built`` shares each one's tuple
def _registers(states: tuple) -> _States:
    """The registers of a preparation, a GhzSpec or a product state's bit
    tuple each, with a trial axis of ``_ROWS`` rows that all view one row.
    Found again by the states' values, which hash cheaply: a GhzSpec keeps
    its hash.  A preparation repeats a few states, each read once."""
    code = {state: i for i, state in enumerate(dict.fromkeys(states))}
    which = np.array([code[state] for state in states])
    distinct = list(code)
    ghz = [isinstance(state, GhzSpec) for state in distinct]
    q = np.array([state.q if entangled else state for state, entangled in zip(distinct, ghz)], dtype=np.int8)
    delta = np.array([state.delta if entangled else 0 for state, entangled in zip(distinct, ghz)], dtype=np.int8)
    # Read-only views, shared by every call that uses the preparation: a
    # copy a row would hold 84 MB a preparation at n = 20, m = 4096.
    rows = [a[which] for a in (q, delta, ~np.array(ghz))]
    return _States(*(np.broadcast_to(a, (_ROWS,) + a.shape) for a in rows))


class _Trials:
    """The trials of a block that no check has aborted: their draws, and
    arrays with a trial axis first, from which ``keep`` drops a trial.

    The registers are held as ``GhzRegister`` holds one trial's, but
    particle-major: ``slot`` (trial, id) is HELD, MEASURED or a photon state
    0..3, with particle k of register r at id ``(k - 1) * total + r`` and
    the decoys of link k, in order, from id ``n * total + (k - 1) * l``;
    ``branch`` (trial, register) is -1 until a Z measurement sets it,
    ``parity`` is the X parity and ``held`` counts the particles still held.
    ``q`` (trial, particle, register) holds the true bits, ``claimed_q``
    (trial, register, particle) and ``claimed_delta`` the claimed states,
    ``positions`` and ``received`` the check positions P1 chose and those
    P2..Pn received (None where they are P1's), and ``records`` the
    adversary's own arrays with a trial axis first, by its keys.

    ``prepared`` holds the true states.  Each later step keeps for
    ``transcript`` the arrays it made that a transcript reads, by tapped link
    or as tuples: ``mismatches`` (step 2), ``rounds`` (3), ``key_positions``,
    ``keys``, ``unpadded`` and ``verdicts`` (4-7), each None until its step
    runs.  ``keep`` drops no trial from them, so their rows are those of the
    step that made them.
    """

    def __init__(self, draws: Rows, secrets: np.ndarray, true: _States, claimed: _States, photons: int) -> None:
        count, total, n = true.q.shape
        self.draws, self.secrets, self.prepared = draws, secrets, true
        self.q = np.ascontiguousarray(true.q.transpose(0, 2, 1))
        self.claimed_q, self.claimed_delta = claimed.q, claimed.delta
        self.branch = np.where(true.product, 0, -1).astype(np.int8)
        self.parity = true.delta.astype(np.int8)
        self.held = np.full((count, total), n, dtype=np.int8)
        self.slot = np.full((count, n * total + photons), HELD, dtype=np.int8)
        self.offsets = np.arange(0, self.slot.size, self.slot.shape[1])[:, None]  # where each row's slots start
        self.positions, self.received = np.zeros((count, 0), dtype=np.int64), None
        self.records = {}
        self.rounds = self.key_positions = self.keys = self.unpadded = self.verdicts = None

    def __len__(self) -> int:
        return len(self.held)

    def keep(self, alive: np.ndarray) -> bool:
        """Drop every trial where ``alive`` is false; whether any is left.
        A block none of whose trials is left is not run further."""
        if not alive.any():
            return False
        if not alive.all():
            self.draws.keep(alive)
            for name in ("secrets", "q", "claimed_q", "claimed_delta", "branch", "parity", "held", "slot", "positions",
                         "received"):
                value = getattr(self, name)
                if value is not None:
                    setattr(self, name, value[alive])
            self.records = {name: value[alive] for name, value in self.records.items()}
            self.offsets = self.offsets[: len(self.held)]
        return True

    def measure(self, ids: np.ndarray, bases: np.ndarray, forward: bool = False) -> np.ndarray:
        """Each trial's ``GhzRegister.measure(ids, bases, rng, forward)``:
        ``ids`` and ``bases`` hold a row per trial, and so do the outcomes.

        Every step measures a register's particles in one basis, in
        ascending order (a tap, the one measurement that forwards, measures
        one particle of each register), so a register's draws follow from
        its state alone: a Z measurement draws the branch, while it is
        unset, at the first particle measured, and an X measurement draws at
        every particle but the last one held of a register whose branch is
        unset, which carries the parity.  A photon draws only in the other
        basis.
        """
        count, size = ids.shape
        flat = ids + self.offsets  # into each flat view below
        slot = self.slot.ravel()
        state = slot.take(flat)
        held = state < 0  # HELD: no measured particle is measured again
        photons, registers = not held.all(), held.any()
        drawn = state >> 1 != bases if photons else held
        if registers:
            drawn, settle = self._particles(ids, bases, held, drawn)
        taken = drawn.cumsum(axis=1)
        bit = self.draws.peek(size).ravel().take(taken + (np.arange(count) * size - 1)[:, None])
        self.draws.skip(drawn.sum(axis=1))
        out = np.where(drawn, bit, state & 1) if photons else bit
        if registers:
            out = np.where(held, settle(bit), out) if photons else settle(bit)
        # A measured particle is gone, or forwarded as a photon in the
        # measured eigenstate; a photon is re-prepared in it.
        slot[flat] = bases << 1 | out if forward or not registers else np.where(held, MEASURED, bases << 1 | out)
        return out

    def _particles(self, ids, bases, held, drawn):
        """``measure``'s draws on held particles: whether each id draws, and
        a function from the bits drawn to the held particles' outcomes that
        leaves their registers measured."""
        count, n, total = self.q.shape
        # Each held particle measured, by (trial, particle, register): 1 in
        # Z and 2 in X, then whether it draws, then its outcome.  Every
        # other id goes to its row's last column, which no held id reads.
        at = np.where(held, ids, n * total)
        code = np.zeros((count, n * total + 1), dtype=np.int8)
        flat = at + np.arange(0, code.size, n * total + 1)[:, None]
        dense = code.ravel()
        dense[flat] = bases + 1
        # Only particles lo..hi - 1 are measured: one for a tap, all n for a
        # check round or the key measurement.
        lo, hi = int(at.min()) // total, int(np.where(held, ids, 0).max()) // total + 1
        particles, q = code[:, lo * total : hi * total].reshape(count, hi - lo, total), self.q[:, lo:hi]
        z, x = particles == 1, particles == 2
        unset = self.branch < 0
        first, carries = np.empty_like(z), np.empty_like(x)
        branching = unset
        for k in range(hi - lo):
            first[:, k] = z[:, k] & branching
            branching = branching & ~z[:, k]
        last_x = unset & (x.sum(axis=1, dtype=np.int8) == self.held)
        for k in reversed(range(hi - lo)):
            carries[:, k] = x[:, k] & last_x
            last_x = last_x & ~x[:, k]
        x_draws = x & ~carries
        particles[...] = first | x_draws
        drawn = np.where(held, dense.take(flat) != 0, drawn)

        def settle(bit):
            dense[flat] = bit
            # The branch a register drew, and the parity its X draws leave.
            branch = np.where(unset & ~branching, np.bitwise_or.reduce(particles & first, axis=1), self.branch)
            x_bits = np.bitwise_xor.reduce(particles & x_draws, axis=1)
            particles[...] = np.where(z, q ^ branch[:, None],
                                      np.where(carries, (self.parity ^ x_bits)[:, None], particles))
            self.branch = branch.astype(np.int8)
            self.parity ^= x_bits
            self.held -= (z | x).sum(axis=1, dtype=np.int8)
            return dense.take(flat)

        return drawn, settle


@lru_cache(maxsize=None)  # one entry for each n up to ghz.MAX_PARTICLES
def _pairs(n: int) -> tuple:
    """Each pair (i, j), i < j, of n participants counted from 0: the
    arrays of its i and of its j, in ``itertools.combinations`` order."""
    return np.triu_indices(n, 1)


def _first_unchecked(checked: np.ndarray, total: int, m: int) -> np.ndarray:
    """Each row's first m of ``total`` registers that its row of
    ``checked`` leaves out, ascending."""
    free = np.ones((len(checked), total), dtype=bool)
    free[np.arange(len(checked))[:, None], checked] = False
    return np.nonzero(free & (free.cumsum(axis=1) <= m))[1].reshape(len(checked), m)


@lru_cache(maxsize=None)  # a few steps and causes
def _abort_keys(step: int, cause: str) -> tuple:
    """The counters an abort at ``step`` for ``cause`` bumps, interned as ``_Program.bump`` interns them."""
    return tuple(map(sys.intern, ("aborted", f"abort_step{step}", f"abort_{cause}", "attack_detected")))


class _Program:
    """The trials of one scenario, a block at a time, and their counters."""

    def __init__(self, scenario, strategy) -> None:
        self.roles = scenario.roles
        self.n, self.m = n, m = scenario.n, scenario.m
        self.c = c = scenario.effective_check_rounds()
        self.l = scenario.effective_decoy_count()
        self.total = total = self.roles.register_count(m, c)
        self.rows = min(_ROWS, max(1, _BLOCK_SLOTS // (n * (total + self.l))))  # trials a block
        self.pairs = _pairs(n)
        self.tolerance = scenario.decoy_tolerance
        self.secrets = scenario.secrets
        self.strategy = strategy
        self.taps = {k: tap for k in range(1, n + 1) if (tap := strategy.tap_rows(k))}
        # A tamperer reaches only the broadcast: the relayed positions draw no tamper.
        self.broadcast = scenario.variant == proto.VARIANT_BROADCAST
        fixed = strategy.override_preparation(n, total)
        self.fixed = fixed and tuple(map(_registers, fixed))  # the true and claimed states
        # Whether the first and the last announcer announce "different" for
        # each pair, when the verdict they compute is "identical" and when it
        # is "different".  A lone announcer is both, and stands unchecked.
        announcers = self.roles.announcers
        pairs = list(combinations(range(1, n + 1), 2))  # in the order of ``_pairs``
        self.says = np.array([[[strategy.flip_verdict(announcer, pair, verdict) == DIFFERENT for pair in pairs]
                               for verdict in (IDENTICAL, DIFFERENT)] for announcer in (announcers[0], announcers[-1])])
        self.cross_checked = len(announcers) > 1
        self.sums = dict.fromkeys(strategy.counts, 0)

    def bump(self, key: str, value) -> None:
        # Interned, so that the counter dicts a caller keeps share their names.
        key = sys.intern(key)
        self.sums[key] = self.sums.get(key, 0) + int(value)

    def abort(self, count: int, step: int, cause: str) -> None:
        """Count ``count`` trials aborted at ``step`` for ``cause``: each detects its attack."""
        for key in _abort_keys(step, cause):
            self.sums[key] = self.sums.get(key, 0) + int(count)

    def counters(self) -> Dict[str, int]:
        """The counters summed so far, with the keys the per-trial program
        leaves: a sum of 0 leaves its key out, but for the attack's own
        ``counts``, and a victim's legitimate guesses once any are scored."""
        if not self.sums.get("trials"):
            return {}
        kept = set(self.strategy.counts)
        if self.sums.get("attack_legit_bits_guessed"):
            kept.add("attack_legit_bits_correct")
        return {key: value for key, value in self.sums.items() if value or key in kept}

    def run(self, draws: Rows) -> "_Trials":
        """Run one block of trials, a row of ``draws`` each, and sum their
        counters; the block's trials, as the last step left them."""
        n, m, count = self.n, self.m, len(draws)
        self.bump("trials", count)
        # Step 1: the secrets, then the preparation.
        policy = self.secrets.policy
        if policy == "explicit":
            secrets = np.repeat(np.array(self.secrets.values)[None], count, axis=0)
        elif policy == "forced_equal":
            secrets = np.repeat(draws.bits(m)[:, None], n, axis=1)
        else:
            secrets = draws.bits(n * m).reshape(count, n, m)
            if policy == "forced_unequal":  # a row draws all n secrets again until they differ
                i, j = self.pairs
                while (again := (secrets[:, i] == secrets[:, j]).all(axis=2).any(axis=1)).any():
                    secrets[again] = draws.peek(n * m).reshape(count, n, m)[again]
                    draws.skip(again * (n * m))
        if self.fixed:
            true, claimed = (_States(*(a[:count] for a in states)) for states in self.fixed)
        else:
            q, delta = self.roles.prepared_arrays(n, draws.bits(self.total, self.roles.prepare_width(n)))
            true = claimed = _States(q.astype(np.int8), delta.astype(np.int8), np.zeros(delta.shape, dtype=bool))
        trials = _Trials(draws, secrets.astype(np.int8), true, claimed, n * self.l)
        if self._links(trials) and self._check(trials):
            self._compare(trials)
        return trials

    def _links(self, trials: _Trials) -> bool:
        """Step 2: each run of links up to and including the next tapped
        link, its untapped links consumed as ``interleave`` consumes them, and
        each tapped link's tap and decoy check.  Every link is checked
        before a trial that fails any check is dropped.  Whether any trial
        passes every check."""
        start, failed, trials.mismatches = 1, np.zeros(len(trials), dtype=bool), {}
        for end in [k for k in range(1, self.n) if k in self.taps] + [self.n]:
            consumed = end - start + (end not in self.taps)
            if consumed:
                trials.draws.consume(_run_bounds(self.total, self.l, consumed))
            if end in self.taps:
                mismatches = self._tap(trials, end, trials.draws.run(_run_bounds(self.total, self.l, 1)))
                trials.mismatches[end] = mismatches
                failed |= mismatches > self.tolerance
            start = end + 1
        self.abort(np.count_nonzero(failed), 2, proto.CAUSE_DECOY)
        return trials.keep(~failed)

    def _tap(self, trials: _Trials, k: int, link: np.ndarray) -> np.ndarray:
        """Link k's tap, the adversary's, then the link's decoy check: each
        trial's count of mismatched decoys.  ``link`` holds the link's decoy
        states and the draws that place them."""
        n, l, total = self.n, self.l, self.total
        count = len(trials)
        decoys = link[:, :l]
        first = n * total + (k - 1) * l  # the id of the link's first decoy
        trials.slot[:, first : first + l] = decoys
        # Decoy d rides in the d-th placed slot, and the carriers fill the
        # others in register order.
        decoy = Rows.chosen(total + l, l, link[:, l:])
        before = decoy.cumsum(axis=1)  # the decoys up to each slot
        ids = np.where(decoy, first - 1 + before, (k - 1) * total + np.arange(total + l) - before)
        self.taps[k](trials, ids, ~decoy)
        # The check measures each decoy in its own basis: one the tap left
        # as prepared reads its bit without a draw.
        checked = trials.measure(np.broadcast_to(np.arange(first, first + l), (count, l)), decoys >> 1)
        return np.count_nonzero(checked != decoys & 1, axis=1)

    def _check(self, trials: _Trials) -> bool:
        """Step 3: the check positions, the substitutes P2..Pn receive, and
        the check rounds.  Whether any trial passes."""
        if not self.c:
            return True
        positions = trials.draws.sample(self.total, self.c)
        check = partial(self._rounds, trials, positions)
        failed = self.strategy.tamper_rows(self, trials, positions, check) if self.broadcast else check(positions)
        self.abort(np.count_nonzero(failed), self.roles.check_step, proto.CAUSE_STATE_CHECK)
        return trials.keep(~failed)

    def _rounds(self, trials: _Trials, positions: np.ndarray, received: np.ndarray) -> np.ndarray:
        """The check rounds of P1's ``positions`` and the ``received`` ones:
        whether each trial fails any."""
        n, c, count = self.n, self.c, len(trials)
        rows = np.arange(count)[:, None]
        x = trials.draws.bits(c)
        # Round r measures P1's particle of register positions[r] and the
        # others' of received[r], in the round's basis.
        k = np.arange(n)
        reg = np.where(k == 0, positions[..., None], received[..., None])
        bits = trials.measure((reg + k * self.total).reshape(count, c * n), np.repeat(x, n, axis=1))
        bits = bits.reshape(count, c, n)
        claimed_q, claimed_delta = trials.claimed_q[rows, positions], trials.claimed_delta[rows, positions]
        # A Z round must see the claimed bits up to one global flip, an X
        # round the claimed phase as the parity of its outcomes.
        off = bits ^ claimed_q
        failed = np.where(x, (bits.sum(axis=2) & 1) != claimed_delta, (off != off[..., :1]).any(axis=2))
        x_rounds, x_failures = np.count_nonzero(x), np.count_nonzero(failed & (x == 1))
        self.bump("x_check_rounds", x_rounds)
        self.bump("z_check_rounds", x.size - x_rounds)
        self.bump("x_check_failures", x_failures)
        self.bump("z_check_failures", np.count_nonzero(failed) - x_failures)
        trials.positions, trials.received = positions, None if received is positions else received
        trials.rounds = x, bits, failed
        return failed.any(axis=1)

    def _compare(self, trials: _Trials) -> None:
        """Steps 4-7 of the trials left, the cross-check of their verdicts,
        and the attacker's score of each trial that completes."""
        n, m, count = self.n, self.m, len(trials)
        rows = np.arange(count)[:, None]
        # Step 4: each participant Z-measures the first m registers it
        # believes unchecked.  P1 chose the checks, so its list is the true one.
        kept = _first_unchecked(trials.positions, self.total, m)
        others = kept if trials.received is None else _first_unchecked(trials.received, self.total, m)
        reg = np.concatenate((kept[:, None], np.repeat(others[:, None], n - 1, axis=1)), axis=1)
        ids = (reg + np.arange(n)[:, None] * self.total).reshape(count, n * m)
        keys = trials.measure(ids, np.zeros_like(ids)).astype(np.int8).reshape(count, n, m)
        trials.key_positions, trials.keys = reg, keys
        # Steps 5-6: pair (i, j)'s result vector XORs both masked strings and
        # both pads against P1, each pad read from the claimed states, so it
        # is 0 where i's and j's unpadded strings agree.  Each announcer
        # computes its verdict alike, then announces it, flipped where the
        # strategy flips it.  Bits are int8, and a pair's are compared, not
        # XORed: at n = 20 a block holds 190 pairs of m bits per trial.
        padded = keys ^ trials.claimed_q[rows, kept].transpose(0, 2, 1)
        s, (i, j) = trials.secrets, self.pairs
        unpadded = padded ^ s
        computed = (unpadded[:, i] != unpadded[:, j]).any(axis=2)  # (trial, pair): whether the verdict is "different"
        first, last = (np.where(computed, different, identical) for identical, different in self.says)
        trials.unpadded, trials.verdicts = unpadded, (first, last)
        # Step 7: the participants cross-check the first and the last
        # announcer.  On a conflict the arbiter recomputes every verdict and
        # names each announcer that contradicts one.
        if self.cross_checked:
            conflict = (first != last).any(axis=1)
            liars = (first != computed).any(axis=1), (last != computed).any(axis=1)
            for name, hit in (("tp1", liars[0] & ~liars[1]), ("tp2", ~liars[0] & liars[1]),
                              ("both", liars[0] & liars[1])):
                self.bump(f"arbiter_{name}", np.count_nonzero(hit & conflict))
            self.abort(np.count_nonzero(conflict), self.roles.check_step + 4, proto.CAUSE_CONFLICT)
            if conflict.any():
                if not trials.keep(~conflict):
                    return
                kept, keys, padded, first = (a[~conflict] for a in (kept, keys, padded, first))
                s, count = trials.secrets, len(trials)
        pairs = first.size
        self.bump("completed", count)
        self.bump("pairs_total", pairs)
        self.bump("pairs_verdict_correct", np.count_nonzero(first == (s[:, i] != s[:, j]).any(axis=2)))
        self.bump("pairs_r_checked", pairs)
        self.bump("pairs_r_exact", np.count_nonzero((padded[:, i] == padded[:, j]).all(axis=2)))
        self.strategy.finalize_rows(self, trials, kept, keys)
