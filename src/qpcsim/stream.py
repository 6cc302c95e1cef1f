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
against the installed numpy).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

# 64-bit outputs fetched at once by a trial's stream: enough for every
# trial of the acceptance battery (at most 357 at n = 5, m = 16) in one call.
RAW_WORDS = 384

_LOW = 0xFFFFFFFF
_EMPTY = np.zeros(0, dtype=np.uint32)


def _threshold(bound: int) -> int:
    """Lemire's rule redraws while the low half of u * bound is below this."""
    return (0x100000000 - bound) % bound


class Bounds:
    """A run of bounds, each the exclusive upper bound of one draw, with
    what drawing them at once needs: the bounds above 1 (a bound of 1 draws
    nothing) and their redraw thresholds."""

    __slots__ = ("values", "wide", "threshold", "units")

    def __init__(self, values: Sequence[int]) -> None:
        if any(not 1 <= b <= 0x100000000 for b in values):
            raise ValueError("bounds must lie in 1..2^32")
        self.values = list(values)
        wide = [b for b in self.values if b > 1]
        self.wide = np.array(wide, dtype=np.uint64)
        self.threshold = np.array([_threshold(b) for b in wide], dtype=np.uint32)
        self.units = [i for i, b in enumerate(self.values) if b == 1]


class Stream:
    """The draws of one trial, in order, from one bit generator.

    A stream made from a bit generator fetches ``RAW_WORDS`` outputs at a
    time.  ``wrap`` makes one that starts where a ``Generator`` stands and
    fetches only what each draw needs; on leaving its ``with`` block it
    hands the generator back at the point its draws reached, so a function
    that draws through a wrapped stream leaves the generator as the
    ``integers`` and ``choice`` calls it stands for would.
    """

    __slots__ = ("_source", "_fetch", "_words", "_at")

    def __init__(self, bit_generator) -> None:
        self._source = bit_generator
        self._fetch = RAW_WORDS
        self._words = _EMPTY  # 32-bit outputs, low half of each 64-bit one first
        self._at = 0  # the next unread one

    @classmethod
    def wrap(cls, generator: np.random.Generator) -> "Stream":
        source = generator.bit_generator
        state = source.state
        if "has_uint32" not in state:
            raise TypeError(f"{type(source).__name__} does not split 64-bit outputs into 32-bit ones")
        stream = cls(source)
        stream._fetch = 0
        if state["has_uint32"]:
            # The generator's next 32-bit draw is the high half it kept.
            stream._words = np.array([state["uinteger"]], dtype=np.uint32)
        return stream

    def __enter__(self) -> "Stream":
        return self

    def __exit__(self, *exc) -> None:
        # The last 32-bit output is the kept high half the stream started
        # from or the high half of the last output it fetched; the generator
        # holds it, as drawing it through the generator leaves it, and its
        # flag tells whether it is still to be drawn.  Fetching only what is
        # drawn leaves at most that one unread.
        if len(self._words):
            state = self._source.state
            state["has_uint32"] = int(self._at < len(self._words))
            state["uinteger"] = int(self._words[-1])
            self._source.state = state
        self._words, self._at = _EMPTY, 0

    def _refill(self, short: int) -> None:
        """Fetch at least ``short`` more outputs; the unread ones move to
        the front."""
        raw = self._source.random_raw(max(self._fetch, (short + 1) // 2))
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

    def sample(self, population: int, size: int) -> List[int]:
        """``sorted(choice(population, size, replace=False))``."""
        return replay_choice(population, size, self.run(_choice_bounds(population, size)))


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
        moved = {}  # the shuffled positions of range(population) that moved
        for i, j in zip(range(population - 1, max(population - size, 1) - 1, -1), draws):
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return sorted(moved.get(i, i) for i in range(population - size, population))
    chosen = set()
    # The shuffle draws that follow only reorder the sample.
    for j, value in zip(range(population - size, population), draws):
        chosen.add(j if value in chosen else value)
    return sorted(chosen)
