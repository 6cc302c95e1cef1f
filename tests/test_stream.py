"""A ``Stream`` against the ``Generator`` calls it stands for.

Random sequences of draws are made from a stream and from a ``Generator``
with the same seed; every value, and the draw after them, must agree.  This
pins the stream's replay of numpy's bounded-integer rule for the installed
numpy.
"""

import numpy as np
import pytest

from qpcsim.stream import RAW_WORDS, Bounds, Rows, Stream, _choice_bounds, _tail_shuffle

# Lemire's rule redraws about half the time for a bound just above 2^31.
_REJECTING = (2**31 + 1, 2**31 + 3, 3 * 2**30 + 1)


def make_rng(*key):
    return np.random.default_rng(np.random.SeedSequence(entropy=7716, spawn_key=key))


def _random_calls(plan):
    """1..12 draws of every kind the stream serves."""
    calls = []
    for _ in range(int(plan.integers(1, 13))):
        kind = int(plan.integers(0, 6))
        if kind == 0:
            calls.append(("bits", int(plan.integers(0, 70)), int(plan.integers(1, 33))))
        elif kind == 1:
            pool = [1, 2, 3, 4, 5, 7, 33, 64, 1000, 2**32, *_REJECTING]
            calls.append(("run", [pool[i] for i in plan.integers(0, len(pool), size=int(plan.integers(0, 40)))]))
        elif kind == 2:
            calls.append(("below", int(plan.choice([1, 2, 3, 6, 1000, 2**32, *_REJECTING]))))
        elif kind == 3:
            population = int(plan.integers(1, 80))
            calls.append(("sample", population, int(plan.integers(0, population + 1))))
        elif kind == 4:
            # Past 10000 with size above population // 50: the tail shuffle.
            population = int(plan.integers(10001, 10100))
            calls.append(("sample", population, int(plan.integers(population // 50 + 1, population // 50 + 20))))
        else:
            calls.append(("run", [4] * int(plan.integers(0, 9)) + [9, 10, 11, 8, 7, 6]))
    return calls


def _from_stream(stream, call):
    kind, *args = call
    if kind == "bits":
        return stream.bits(*args)
    if kind == "run":
        return stream.run(Bounds(args[0]))
    if kind == "below":
        return stream.below(args[0])
    return stream.sample(*args)


def _from_generator(rng, call):
    kind, *args = call
    if kind == "bits":
        count, width = args
        return rng.integers(0, 2**width, size=count).tolist()
    if kind == "run":
        return rng.integers(0, np.array(args[0], dtype=np.int64)).tolist() if args[0] else []
    if kind == "below":
        return int(rng.integers(0, args[0]))
    population, size = args
    return sorted(rng.choice(population, size=size, replace=False).tolist())


def _next_draws(rng):
    return rng.integers(0, 2**32, size=3).tolist()


def test_stream_draws_what_generator_calls_draw():
    plan = make_rng(1)
    rejecting = tail = 0
    for case in range(300):
        calls = _random_calls(plan)
        stream, reference = Stream(make_rng(2, case).bit_generator), make_rng(2, case)
        for call in calls:
            assert _from_stream(stream, call) == _from_generator(reference, call), (case, call)
        assert stream.bits(3, 32) == _next_draws(reference), case
        rejecting += any(kind in ("run", "below") and set(_REJECTING) & set(np.ravel(args[0])) for kind, *args in calls)
        tail += any(kind == "sample" and _tail_shuffle(*args) for kind, *args in calls)
    # Both rare branches are reached: bounds that redraw, and the tail shuffle.
    assert rejecting > 40 and tail > 20


def test_a_trial_stream_refills_where_it_left_off():
    stream, reference = Stream(make_rng(3).bit_generator), make_rng(3)
    for width in (1, 7, 32):
        assert stream.bits(RAW_WORDS + 5, width) == reference.integers(0, 2**width, size=RAW_WORDS + 5).tolist()
    assert stream.bits(3, 32) == _next_draws(reference)


def test_bounds_outside_32_bits_are_rejected():
    for bad in ([0], [2**32 + 1], [3, -1]):
        with pytest.raises(ValueError):
            Bounds(bad)


# ---------------------------------------------------------------------------
# Rows: a block of trials' streams, a row each
# ---------------------------------------------------------------------------


class _Source:
    """A bit generator that counts the 32-bit outputs it hands out, with
    some of them, by index, replaced."""

    def __init__(self, bit_generator, replaced=()):
        self._source, self._replaced, self.read = bit_generator, dict(replaced), 0

    def random_raw(self, size):
        raw = self._source.random_raw(size)
        halves = raw.view("<u4")
        for at, value in self._replaced.items():
            if 0 <= at - self.read < len(halves):
                halves[at - self.read] = value
        self.read += len(halves)
        return raw


def _row_calls(plan, rows):
    """1..12 calls of every kind ``Rows`` serves; ``peek`` skips a number of
    its bits that differs by row, and ``below`` takes a bound per row."""
    pool = [1, 2, 3, 4, 5, 7, 33, 64, 1000, 2**32, *_REJECTING]
    calls = []
    for _ in range(int(plan.integers(1, 13))):
        kind = int(plan.integers(0, 8))
        if kind == 0:
            calls.append(("bits", int(plan.integers(0, 70)), int(plan.integers(0, 33))))
        elif kind == 1:
            count = int(plan.integers(0, 40))
            calls.append(("peek", count, plan.integers(0, count + 1, size=rows)))
        elif kind == 2:
            calls.append(("below", plan.choice([1, 2, 3, 6, 1000, 2**32, *_REJECTING], size=rows)))
        elif kind == 3:
            calls.append(("run", [pool[i] for i in plan.integers(0, len(pool), size=int(plan.integers(0, 40)))]))
        elif kind == 4:
            population = int(plan.integers(1, 40))
            calls.append(("sample", population, population))
        elif kind == 5:
            calls.append(("sample", int(plan.integers(1, 400)), 1))
        elif kind == 6:
            calls.append(("sample", int(plan.integers(200, 400)), int(plan.integers(1, 30))))
        else:
            population = int(plan.integers(1, 80))
            calls.append(("sample", population, int(plan.integers(0, population + 1))))
    return calls


def _reads(call, row):
    """The outputs ``call`` reads from row ``row`` when nothing is redrawn."""
    kind, *args = call
    if kind == "bits":
        return args[0] if args[1] else 0
    if kind == "peek":
        return int(args[1][row])
    if kind == "below":
        return int(args[0][row] > 1)
    return len((Bounds(args[0]) if kind == "run" else _choice_bounds(*args)).wide)


def _row_values(rows, call):
    kind, *args = call
    if kind == "peek":
        bits = rows.peek(args[0])
        rows.skip(args[1])
        return [row[:skip].tolist() for row, skip in zip(bits, args[1])]
    if kind == "below":
        return rows.below(args[0]).tolist()
    values = rows.run(Bounds(args[0])) if kind == "run" else getattr(rows, kind)(*args)
    return values.tolist()


def _stream_value(stream, call, row):
    kind, *args = call
    if kind == "peek":
        bits = stream.peek(args[0])[: args[1][row]]
        stream.skip(int(args[1][row]))
        return bits
    if kind == "below":
        return stream.below(int(args[0][row]))
    return _from_stream(stream, call)


def _assert_rows_draw_as_streams(calls, seeds, replaced, words):
    """Rows over the first ``words`` outputs of each seed's PCG64 against a
    ``Stream`` per seed, call by call: a row is marked for a redraw exactly
    when its stream redraws, and as past its outputs exactly when its
    stream has read past them; until then it draws its stream's values.
    Returns the rows marked for a redraw and the rows marked as past."""
    rows = Rows([_Source(make_rng(*seed).bit_generator, doctored) for seed, doctored in zip(seeds, replaced)], words)
    sources = [_Source(make_rng(*seed).bit_generator, doctored) for seed, doctored in zip(seeds, replaced)]
    streams = [Stream(source) for source in sources]

    def position(r):
        return sources[r].read - (len(streams[r]._words) - streams[r]._at)

    redrawn = 0
    for call in calls:
        marked = rows.redraw.copy()
        before = [position(r) for r in range(len(seeds))]
        got = _row_values(rows, call)
        for r, stream in enumerate(streams):
            want = _stream_value(stream, call, r)
            if marked[r]:
                continue
            reads = _reads(call, r)
            assert rows.past[r] == (before[r] + reads > 2 * words), (call, r)
            if rows.past[r]:
                continue
            assert rows.redraw[r] == (position(r) - before[r] > reads), (call, r)
            if rows.redraw[r]:
                redrawn += 1
            else:
                assert got[r] == want, (call, r)
    return redrawn, int(rows.past.sum())


def test_rows_draw_what_each_rows_stream_draws():
    plan = make_rng(4)
    redrawn = 0
    for case in range(60):
        seeds = [(5, case, r) for r in range(6)]
        redrawn += _assert_rows_draw_as_streams(_row_calls(plan, 6), seeds, [{}] * 6, 2 * RAW_WORDS)[0]
    assert redrawn > 60  # the bounds just above 2^31 redraw about half the time


def test_rows_mark_a_redraw_where_a_doctored_stream_redraws():
    # An output of 0 is redrawn under every bound but a power of two.
    plan = make_rng(6)
    redrawn = 0
    for case in range(60):
        seeds = [(7, case, r) for r in range(6)]
        replaced = [dict.fromkeys(plan.integers(0, 300, size=3).tolist(), 0) for _ in seeds]
        redrawn += _assert_rows_draw_as_streams(_row_calls(plan, 6), seeds, replaced, 2 * RAW_WORDS)[0]
    assert redrawn > 120


def test_rows_mark_the_reads_past_their_outputs():
    plan = make_rng(8)
    past = 0
    for case in range(60):
        seeds = [(9, case, r) for r in range(6)]
        words = int(plan.integers(1, 240))
        past += _assert_rows_draw_as_streams(_row_calls(plan, 6), seeds, [{}] * 6, words)[1]
    assert 40 < past < 320
    # Reading every output is not reading past them.
    rows = Rows([make_rng(11, r).bit_generator for r in range(3)], 4)
    rows.bits(8)
    assert not rows.past.any()
    rows.skip(np.array([0, 1, 0]))
    assert rows.past.tolist() == [False, True, False]


def test_rows_do_not_replay_a_tail_shuffle():
    rows = Rows([make_rng(10).bit_generator], 8)
    with pytest.raises(ValueError):
        rows.sample(10001, 201)
