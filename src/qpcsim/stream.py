"""One trial's random draws, served from its bit generator's raw output.

Every draw a trial makes is a bounded integer, which numpy's ``Generator``
takes from the 32-bit outputs of its bit generator by Lemire's rule
(Lemire, "Fast random integer generation in an interval", ACM TOMS 29(1),
2019; arXiv:1805.10941): for a bound b and an output u, m = u * b, u is
redrawn while m mod 2^32 < (2^32 - b) mod b, and the value is m >> 32.  A
bound of 1 takes no output, and a bound 2^k never redraws, so its value is
the top k bits of u.  PCG64 makes its 32-bit outputs by splitting each
64-bit one, low half first, and keeps an unused high half for the next
32-bit draw.

``Stream`` takes the 64-bit outputs in bulk with one ``random_raw`` call
and applies the same rule, so each of its draws gives, value for value,
what the ``integers`` or ``choice`` call it stands for would give at the
same point of the generator's sequence (tests/test_stream.py pins this
against the installed numpy).  ``Rows`` draws by the same rules for a block
of trials at once, a row per trial, each row from its own trial's bit
generator, so that every row draws what its trial's ``Stream`` draws.

``TrialSeeds`` seeds each trial's bit generator as
``SeedSequence(entropy=seed, spawn_key=(trial,))`` would, without building
one per trial: what depends on the seed alone is hashed once a run, and
what depends on a 64-trial chunk alone once a process.  A ``TrialSeed``
hands PCG64 its four state words as they are.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

# 64-bit outputs fetched at once by a trial's stream: enough for every
# trial of the acceptance battery in one call.  The most a battery trial
# reads is 778 32-bit outputs (389 words), at n = 5, m = 16: the 698 it
# draws at most before its key measurement, plus that measurement's
# read-ahead of n * m = 80 fair bits (``GhzRegister.measure``).  The spare
# word leaves room for Lemire redraws, each one output more.
RAW_WORDS = 390

# 64-bit outputs ``Rows`` fetches at least at once for each of its rows.  A
# fetch costs a row one generator call, about 0.6 us, and 2.5 ns a word,
# and the rows of the benchmark's attack shapes read 34 to 489 32-bit
# outputs, most of them under 256.  A 25-row block that read 24 outputs at
# a time (2 vCPUs, Python 3.11, numpy 2.4) took 44, 48 and 57 us to read 36
# outputs at 64, 128 and 256 words a fetch, against 66 us at ``RAW_WORDS``
# a fetch, and 262, 211 and 185 us to read 490, against 200 us.
FETCH_WORDS = 128

_LOW = 0xFFFFFFFF
_EMPTY = np.zeros(0, dtype=np.uint32)


def _threshold(bound: int) -> int:
    """Lemire's rule redraws while the low half of u * bound is below this."""
    return (0x100000000 - bound) % bound


class Bounds:
    """A run of bounds, each the exclusive upper bound of one draw, with
    what drawing them at once needs: the bounds above 1 (a bound of 1 draws
    nothing), the same mod 2^32 (``low``: its product with an output in
    uint32 arithmetic is the low half checked), and their redraw thresholds."""

    __slots__ = ("values", "wide", "low", "threshold", "units")

    def __init__(self, values: Sequence[int]) -> None:
        if any(not 1 <= b <= 0x100000000 for b in values):
            raise ValueError("bounds must lie in 1..2^32")
        self.values = list(values)
        wide = [b for b in self.values if b > 1]
        self.wide = np.array(wide, dtype=np.uint64)
        self.low = self.wide.astype(np.uint32)  # 2^32 wraps to 0, whose threshold is 0
        self.threshold = np.array([_threshold(b) for b in wide], dtype=np.uint32)
        self.units = [i for i, b in enumerate(self.values) if b == 1]


class Stream:
    """The draws of one trial, in order, from the outputs of one bit
    generator, fetched ``RAW_WORDS`` at a time.  A run whose values no step
    reads, such as an untapped link's decoys, is drawn past by ``consume``."""

    __slots__ = ("_source", "_words", "_at")

    def __init__(self, bit_generator) -> None:
        self._source = bit_generator
        self._words = _EMPTY  # 32-bit outputs, low half of each 64-bit one first
        self._at = 0  # the next unread one

    def _refill(self, short: int) -> None:
        """Fetch at least ``short`` more outputs; the unread ones move to
        the front."""
        raw = self._source.random_raw(max(RAW_WORDS, (short + 1) // 2))
        # An explicit little-endian view puts the low half first on any host.
        fresh = raw.astype("<u8", copy=False).view("<u4")
        left = self._words[self._at :]
        self._words = np.concatenate((left, fresh)) if len(left) else fresh
        self._at = 0

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` outputs; the cursor moves past them."""
        at = self._at
        if at + count > len(self._words):
            self._refill(at + count - len(self._words))
            at = 0
        self._at = at + count
        return self._words[at : at + count]

    def _next(self) -> int:
        if self._at == len(self._words):
            self._refill(1)
        self._at += 1
        return int(self._words[self._at - 1])

    def bits(self, count: int, width: int = 1) -> List[int]:
        """``count`` draws on [0, 2^width): ``integers(0, 2**width, size=count)``."""
        if not width:
            return [0] * count
        return (self._take(count) >> (32 - width)).tolist()

    def peek(self, count: int) -> List[int]:
        """The next ``count`` draws on [0, 2), as ``bits(count)`` would make
        them, left undrawn: ``skip`` then draws the first of them."""
        words = self._take(count)
        self._at -= count
        return (words >> 31).tolist()

    def skip(self, count: int) -> None:
        """Draw the first ``count`` of the bits ``peek`` just returned."""
        self._at += count

    def below(self, bound: int) -> int:
        """One draw on [0, bound): ``int(integers(0, bound))``."""
        threshold = _threshold(bound)
        while True:
            m = self._next() * bound if bound > 1 else 0
            if m & _LOW >= threshold:
                return m >> 32

    def run(self, bounds: Bounds) -> List[int]:
        """One draw below each bound, in order: ``integers(0, bounds)``.

        The draws are made at once; if any of them would be redrawn, the
        run is drawn again one by one from its start.
        """
        count = len(bounds.wide)
        # Each product's low and high halves, low first on any host.
        halves = (self._take(count) * bounds.wide).astype("<u8", copy=False).view("<u4")
        if np.count_nonzero(halves[0::2] < bounds.threshold):
            self._at -= count
            return [self.below(b) for b in bounds.values]
        values = halves[1::2].tolist()
        for i in bounds.units:
            values.insert(i, 0)
        return values

    def consume(self, bounds: Bounds) -> None:
        """Draw past ``run(bounds)`` as it draws, redraws included, without
        making the values: only the redraw check is made."""
        count = len(bounds.wide)
        if np.count_nonzero(self._take(count) * bounds.low < bounds.threshold):
            self._at -= count
            for bound in bounds.values:
                self.below(bound)

    def sample(self, population: int, size: int) -> List[int]:
        """``sorted(choice(population, size, replace=False))``."""
        return replay_choice(population, size, self.run(_choice_bounds(population, size)))


class Rows:
    """The draws of a block of trials, a row per trial: each row draws from
    its trial's bit generator by the rule, and with the method names, of
    ``Stream``, each call returning an array with a row per trial, so that
    every row draws, value for value, what its trial's ``Stream`` draws.

    Each row has its own cursor.  The rows' outputs sit in one
    little-endian uint32 buffer, a row each, fetched only as far as the
    rows read: a read past the fetched outputs fetches ``FETCH_WORDS``
    words for every row, or as many as the read needs, and the buffer
    grows by half at least when they overflow it.  A ``Stream`` fetches
    ``RAW_WORDS`` at a time; the sizes differ, never the values.  Where
    Lemire's rule redraws a bounded draw of a row, in a run it makes or one
    it consumes, that row draws again on its own, as its ``Stream`` does.
    """

    __slots__ = ("_sources", "_words", "_filled", "_starts", "_at")

    def __init__(self, bit_generators) -> None:
        self._sources = list(bit_generators)
        # Each row's 32-bit outputs, fetched into the first ``_filled`` columns.
        self._words = np.zeros((len(self._sources), 0), dtype="<u4")
        self._filled = 0
        self._starts = np.zeros(len(self._sources), dtype=np.int64)  # where each row starts in ``_words.ravel()``
        self._at = np.zeros(len(self._sources), dtype=np.int64)  # each row's next unread output

    def __len__(self) -> int:
        return len(self._sources)

    def _resize(self, words: np.ndarray) -> None:
        """Hold the rows' outputs in ``words``, a row each."""
        self._words = words
        self._starts = np.arange(0, words.size, words.shape[1])

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row where ``rows`` is false."""
        self._sources = [source for source, kept in zip(self._sources, rows.tolist()) if kept]
        self._resize(self._words[rows, : self._filled])
        self._at = self._at[rows]

    def _fetch(self, short: int) -> None:
        """Fetch at least ``short`` more outputs for every row, and at least
        ``FETCH_WORDS`` words.  When they overflow the buffer it grows by half
        at least, in whole words: doubling held the filled outputs of a large
        block in up to twice their memory (CI's `full` shape peaked at 177 MB
        against 148 MB)."""
        words = max(FETCH_WORDS, (int(short) + 1) // 2)
        start, end = self._filled, self._filled + 2 * words
        if end > self._words.shape[1]:
            grown = np.empty((len(self._sources), max(end, self._words.shape[1] * 3 // 4 * 2)), dtype="<u4")
            grown[:, :start] = self._words[:, :start]
            self._resize(grown)
        # An explicit little-endian view puts the low half first on any host.
        raw = self._words.view("<u8")
        for row, source in enumerate(self._sources):
            raw[row, start // 2 : end // 2] = source.random_raw(words)
        self._filled = end

    def _outputs(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of each row, left unread."""
        short = self._at.max(initial=0) + count - self._filled
        if short > 0:
            self._fetch(short)
        return self._words.ravel().take((self._at + self._starts)[:, None] + np.arange(count))

    def _take(self, count: int) -> np.ndarray:
        values = self._outputs(count)
        self.skip(count)
        return values

    def _redraw(self, row: int, back: int, bounds: np.ndarray, thresholds: np.ndarray) -> List[int]:
        """Row ``row``'s draws below ``bounds`` (each above 1) taken again,
        one at a time as ``Stream.below`` takes them, from ``back`` outputs
        before its cursor; the cursor moves past them."""
        at, values = int(self._at[row]) - back, []
        for bound, threshold in zip(bounds.tolist(), thresholds.tolist()):
            while True:
                if at == self._filled:
                    self._fetch(1)
                m = int(self._words[row, at]) * bound
                at += 1
                if m & _LOW >= threshold:
                    values.append(m >> 32)
                    break
        self._at[row] = at
        return values

    def bits(self, count: int, width: int = 1) -> np.ndarray:
        """Each row's ``Stream.bits(count, width)``."""
        if not width:
            return np.zeros((len(self), count), dtype=np.int64)
        return self._take(count) >> (32 - width)

    def peek(self, count: int) -> np.ndarray:
        """Each row's ``Stream.peek(count)``: fair bits left undrawn."""
        return self._outputs(count) >> 31

    def skip(self, count) -> None:
        """``Stream.skip``: ``count`` is a number, or one per row."""
        self._at = self._at + count

    def coins(self, needed: np.ndarray) -> np.ndarray:
        """A fair coin, ``Stream.below(2)``, for each true entry of ``needed``,
        in order along each row; the other entries are 0."""
        fair = self.peek(needed.shape[1])
        self.skip(needed.sum(axis=1))
        return np.where(needed, fair[np.arange(len(needed))[:, None], np.maximum(needed.cumsum(axis=1) - 1, 0)], 0)

    def below(self, bounds: np.ndarray) -> np.ndarray:
        """Each row's ``Stream.below`` of its own bound."""
        bounds = np.asarray(bounds, dtype=np.uint64)
        product = self._outputs(1)[:, 0] * bounds
        values = (product >> 32).astype(np.int64)
        low = product & _LOW
        self.skip(bounds > 1)  # a bound of 1 draws nothing, and its value is 0
        # The redraw threshold lies below the bound.
        for row in np.flatnonzero(low < bounds).tolist():
            threshold = _threshold(int(bounds[row]))
            if low[row] < threshold:
                values[row] = self._redraw(row, 1, bounds[row : row + 1], np.array([threshold]))[0]
        return values

    def run(self, bounds: Bounds) -> np.ndarray:
        """Each row's ``Stream.run(bounds)``: a row that would redraw any of
        its draws draws the run again one by one from its start."""
        count = len(bounds.wide)
        product = self._take(count) * bounds.wide
        values = (product >> 32).astype(np.int64)
        for row in np.flatnonzero(((product & _LOW) < bounds.threshold).any(axis=1)).tolist():
            values[row] = self._redraw(row, count, bounds.wide, bounds.threshold)
        if bounds.units:  # each draws a 0 in its place
            values = np.insert(values, [i - k for k, i in enumerate(bounds.units)], 0, axis=1)
        return values

    def consume(self, bounds: Bounds) -> None:
        """Each row's ``Stream.consume(bounds)``: every row moves past its
        run, and a row that would redraw draws it again one by one."""
        count = len(bounds.wide)
        redrawn = (self._take(count) * bounds.low < bounds.threshold).any(axis=1)
        for row in np.flatnonzero(redrawn).tolist():
            self._redraw(row, count, bounds.wide, bounds.threshold)

    def sample(self, population: int, size: int) -> np.ndarray:
        """Each row's ``Stream.sample(population, size)``, a row ascending."""
        return self.replay(population, size, self.run(_choice_bounds(population, size)))

    @staticmethod
    def replay(population: int, size: int, draws: np.ndarray) -> np.ndarray:
        """Each row's ``replay_choice(population, size, row)``, a row
        ascending: ``draws`` holds a row per trial of the values drawn under
        ``choice_bounds(population, size)``, as a ``run`` returns them.

        Floyd's steps, as ``replay_choice`` takes them: for j = population -
        size .. population - 1, the step's draw joins the sample, or j does
        if the draw is already there.  The shuffle draws after them only
        reorder the sample.  A tail shuffle is replayed row by row.
        """
        return np.nonzero(Rows.chosen(population, size, draws))[1].reshape(len(draws), size)

    @staticmethod
    def chosen(population: int, size: int, draws: np.ndarray) -> np.ndarray:
        """Whether each of ``range(population)`` is in each row's sample
        that ``replay`` gives, a row per trial."""
        if _tail_shuffle(population, size):
            chosen = np.zeros((len(draws), population), dtype=bool)
            for row, drawn in enumerate(draws.tolist()):
                chosen[row, _shuffled_tail(population, size, drawn)] = True
            return chosen
        chosen = np.zeros(len(draws) * population, dtype=bool)  # a row per trial, flat
        starts = np.arange(len(draws)) * population
        for value, j in zip(draws.T + starts, starts + np.arange(population - size, population)[:, None]):
            chosen[np.where(chosen[value], j, value)] = True
        return chosen.reshape(len(draws), population)


# Generator.choice(population, size, replace=False) samples by a tail
# Fisher-Yates shuffle when both hold, and by Floyd's algorithm otherwise.
def _tail_shuffle(population: int, size: int) -> bool:
    return population > 10000 and size > population // 50


def choice_bounds(population: int, size: int) -> List[int]:
    """The exclusive upper bound of each draw that
    ``Generator.choice(population, size, replace=False)`` makes, in order.

    Floyd's algorithm (Bentley and Floyd, CACM 30(9), 1987) draws on [0, j]
    for j = population - size .. population - 1, then shuffles the sample
    with draws on [0, i] for i = size - 1 .. 1.  The tail shuffle draws on
    [0, i] for i = population - 1 down to max(population - size, 1).
    """
    if _tail_shuffle(population, size):
        return list(range(population, max(population - size, 1), -1))
    return list(range(population - size + 1, population + 1)) + list(range(size, 1, -1))


@lru_cache(maxsize=64)
def _choice_bounds(population: int, size: int) -> Bounds:
    return Bounds(choice_bounds(population, size))


def replay_choice(population: int, size: int, draws: Sequence[int]) -> List[int]:
    """The sample, ascending, that ``choice(population, size, replace=False)``
    makes from ``draws``, the values drawn under ``choice_bounds``."""
    if _tail_shuffle(population, size):
        return sorted(_shuffled_tail(population, size, draws))
    chosen = set()
    # The shuffle draws that follow only reorder the sample.
    for j, value in zip(range(population - size, population), draws):
        chosen.add(j if value in chosen else value)
    return sorted(chosen)


def _shuffled_tail(population: int, size: int, draws: Sequence[int]) -> List[int]:
    """The sample a tail shuffle makes from ``draws``, in shuffled order:
    the last ``size`` of ``range(population)`` once each is swapped with
    the one its draw names."""
    order = list(range(population))
    for i, j in zip(range(population - 1, max(population - size, 1) - 1, -1), draws):
        order[i], order[j] = order[j], order[i]
    return order[population - size :]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on 32-bit
# words: its pool of four words, and the constants of its two hashes.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# generate_state's output word i is pool word i mod 4 xored with a
# multiplier that steps on before it multiplies; the first 8 words make the
# four 64-bit ones PCG64 takes.
_STATE_WORDS = 8
_OUT_XORED = np.array([_INIT_B * pow(_MULT_B, i, 2**32) & _LOW for i in range(_STATE_WORDS)], dtype=np.uint32)
_OUT_MULTIPLIERS = _OUT_XORED * np.uint32(_MULT_B)
# Trials whose seeds are made at once, a fixed number whatever the run's;
# a chunk starts at a multiple of it.
_CHUNK = 64
_CHUNK_TRIALS = np.arange(_CHUNK, dtype=np.uint32)[:, None]


@lru_cache(maxsize=8)
def _hashes(words: int) -> tuple:
    """What SeedSequence's hash of a seed of ``words`` 32-bit words (at
    least the pool's four) uses whatever the words: the (xored, multiplier)
    pair of each pool word's first hash, then a (source, pool word, xored,
    multiplier) for each mix that follows, the sources counted from 0 in the
    pool, then in the seed's words past it; then the trial word's pairs, one
    for each pool word it is hashed into, as two arrays.  A hash xors its
    word with a multiplier that then steps on before it multiplies."""
    steps, multiplier = [], _INIT_A
    for _ in range(_POOL * words + _POOL):  # the pool's words, their mixing, the seed's other words, the trial's
        stepped = multiplier * _MULT_A & _LOW
        steps.append((multiplier, stepped))
        multiplier = stepped
    mixes = [(src, dst) for src in range(words) for dst in range(_POOL) if src != dst]
    xored, multipliers = (np.array(column, dtype=np.uint32) for column in zip(*steps[-_POOL:]))
    return steps[:_POOL], [ends + step for ends, step in zip(mixes, steps[_POOL:-_POOL])], xored, multipliers


@lru_cache(maxsize=16)
def _trial_hashes(words: int, first: int) -> np.ndarray:
    """What the mix of each trial word of the chunk from trial ``first``
    into each pool word subtracts, for a seed of ``words`` words: the same
    for every seed, a row per trial."""
    xored, multipliers = _hashes(words)[2:]
    value = ((_CHUNK_TRIALS + np.uint32(first)) ^ xored) * multipliers
    value = _MIX_R * (value ^ value >> 16)
    value.flags.writeable = False
    return value


class _Seed:
    """The base of ``TrialSeed`` that ``_register_trial_seed`` makes an
    ISeedSequence.  A class registered with an ABC is looked up in its
    registry at each ``isinstance``, a subclass of one only once: numpy's
    check of a trial's seed took 0.55 us through ``TrialSeed`` registered
    itself, 0.23 us through this base (timeit, 2-vCPU machine)."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _register_trial_seed() -> None:
    """Make ``TrialSeed`` an ISeedSequence, the seed object numpy's bit
    generators take, once, by registering its base ``_Seed``.  Not at
    import: importing numpy.random with qpcsim, before a run's first trial,
    raised a run's peak RSS by about 1 MB (perfbench attack_mix, Python
    3.11, numpy 2.4)."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Seed)


class TrialSeeds:
    """The seed of each trial of one run: for trial t,
    ``SeedSequence(entropy=seed, spawn_key=(t,))``, made without building
    that SeedSequence (tests/test_trial_seeds.py pins the two equal).

    SeedSequence hashes its entropy words into a pool: the seed's 32-bit
    words, low first, padded with zeros to the pool's four when a spawn key
    follows; then any seed words past four; then the spawn key's words.
    Each word goes through a hash whose multiplier steps on at every use,
    whatever the word.  So all but the trial's own word depend on the seed
    alone and are hashed here, once, in Python's integers.  The trials'
    words, and the state words drawn from their pools, are hashed
    ``_CHUNK`` trials at a time in numpy's uint32 arithmetic, which wraps
    as the hash's does; the trial words' own hashes depend on the seed's
    word count and the chunk alone, and are made once for each.
    """

    __slots__ = ("_seed_words", "_mixed", "_first", "_states")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"a seed must be nonnegative, got {seed}")
        _register_trial_seed()
        words = [seed & _LOW]
        while seed > _LOW:
            seed >>= 32
            words.append(seed & _LOW)
        words += [0] * (_POOL - len(words))
        self._seed_words = len(words)
        initial, mixes = _hashes(len(words))[:2]
        pool = [(word ^ xored) * multiplier & _LOW for word, (xored, multiplier) in zip(words, initial)]
        pool = [value ^ value >> 16 for value in pool] + words[_POOL:]
        for src, dst, xored, multiplier in mixes:
            value = (pool[src] ^ xored) * multiplier & _LOW
            value = _MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16) & _LOW
            pool[dst] = value ^ value >> 16
        self._mixed = _MIX_L * np.array(pool[:_POOL], dtype=np.uint32)  # as the mix takes it
        self._first, self._states = -1, None

    def __call__(self, trial: int) -> "TrialSeed":
        if not 0 <= trial <= _LOW:
            raise ValueError(f"a trial number must fit one 32-bit word, got {trial}")
        row = trial % _CHUNK
        if trial - row != self._first:
            self._first = trial - row
            pool = self._mixed - _trial_hashes(self._seed_words, self._first)
            pool ^= pool >> 16
            words = (np.concatenate((pool, pool), axis=1) ^ _OUT_XORED) * _OUT_MULTIPLIERS
            words ^= words >> 16
            self._states = words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
        return TrialSeed(self._states[row])


class TrialSeed(_Seed):
    """One trial's state words, which numpy's bit generators draw their
    initial state from through ``generate_state``, as from the
    SeedSequence: the 4 64-bit words PCG64 takes.  An ISeedSequence once
    ``TrialSeeds`` has registered its base."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and dtype is np.uint64:  # PCG64's request, as it makes it
            return self._state
        if np.dtype(dtype) != np.uint64 or n_words > len(self._state):
            raise ValueError(f"a trial seed holds the {len(self._state)} uint64 words PCG64 takes")
        return self._state[:n_words]
