"""A ``Stream`` against the ``Generator`` calls it stands for.

Random sequences of draws are made from a stream and from a ``Generator``
with the same seed; every value, and the draw after them, must agree.  This
pins the stream's replay of numpy's bounded-integer rule for the installed
numpy.
"""

import numpy as np
import pytest

from qpcsim.stream import (FETCH_WORDS, RAW_WORDS, Bounds, Rows, Stream, _choice_bounds, _tail_shuffle, choice_bounds,
                           replay_choice)

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


def _assert_rows_draw_as_streams(calls, seeds, replaced):
    """Rows over each seed's PCG64 against a ``Stream`` per seed, call by
    call: every row draws its stream's values, through its stream's Lemire
    redraws too, and the draw after them.  Returns how many calls made a
    row's stream redraw."""
    rows = Rows([_Source(make_rng(*seed).bit_generator, doctored) for seed, doctored in zip(seeds, replaced)])
    sources = [_Source(make_rng(*seed).bit_generator, doctored) for seed, doctored in zip(seeds, replaced)]
    streams = [Stream(source) for source in sources]

    def position(r):
        return sources[r].read - (len(streams[r]._words) - streams[r]._at)

    redrawn = 0
    for call in calls:
        before = [position(r) for r in range(len(seeds))]
        got = _row_values(rows, call)
        for r, stream in enumerate(streams):
            assert got[r] == _stream_value(stream, call, r), (call, r)
            redrawn += position(r) - before[r] > _reads(call, r)
    assert rows.bits(3, 32).tolist() == [stream.bits(3, 32) for stream in streams]
    return redrawn


def test_rows_draw_what_each_rows_stream_draws():
    plan = make_rng(4)
    redrawn = 0
    for case in range(60):
        seeds = [(5, case, r) for r in range(6)]
        redrawn += _assert_rows_draw_as_streams(_row_calls(plan, 6), seeds, [{}] * 6)
    assert redrawn > 60  # the bounds just above 2^31 redraw about half the time


def test_rows_redraw_where_a_doctored_stream_redraws():
    # An output of 0 is redrawn under every bound but a power of two.
    plan = make_rng(6)
    redrawn = 0
    for case in range(60):
        seeds = [(7, case, r) for r in range(6)]
        replaced = [dict.fromkeys(plan.integers(0, 300, size=3).tolist(), 0) for _ in seeds]
        redrawn += _assert_rows_draw_as_streams(_row_calls(plan, 6), seeds, replaced)
    assert redrawn > 120


def test_rows_fetch_as_their_streams_fetch_past_one_fetch():
    # Reading every output of a fetch, then one more, alike and once the
    # rows' cursors differ.
    rows = Rows([make_rng(11, r).bit_generator for r in range(3)])
    streams = [Stream(make_rng(11, r).bit_generator) for r in range(3)]
    assert rows.bits(2 * RAW_WORDS, 7).tolist() == [stream.bits(2 * RAW_WORDS, 7) for stream in streams]
    assert rows.bits(1).tolist() == [stream.bits(1) for stream in streams]
    skips = [2 * RAW_WORDS - 2, 2 * RAW_WORDS - 1, 2 * RAW_WORDS + 3]
    rows.skip(np.array(skips))
    for stream, skip in zip(streams, skips):
        stream.peek(skip)  # a stream skips only bits it has peeked
        stream.skip(skip)
    assert rows.peek(5).tolist() == [stream.peek(5) for stream in streams]
    assert rows.bits(3, 32).tolist() == [stream.bits(3, 32) for stream in streams]


def test_rows_fetch_as_far_as_their_rows_read():
    # Each fetch takes FETCH_WORDS words from every row, or the words one
    # read needs past the filled outputs where that is more.
    sources = [_Source(make_rng(13, r).bit_generator) for r in range(2)]
    rows = Rows(sources)
    streams = [Stream(make_rng(13, r).bit_generator) for r in range(2)]
    for count, read in ((3, 2 * FETCH_WORDS), (2 * FETCH_WORDS - 3, 2 * FETCH_WORDS), (1, 4 * FETCH_WORDS),
                        (6 * FETCH_WORDS, 8 * FETCH_WORDS + 2)):
        assert rows.bits(count, 32).tolist() == [stream.bits(count, 32) for stream in streams]
        assert [source.read for source in sources] == [read, read], count


def test_a_redraw_and_a_keep_cross_the_end_of_the_filled_outputs():
    # Four fetches fill 8 * FETCH_WORDS outputs of a buffer of 9 * FETCH_WORDS.
    # Rows 0 and 2 read a 0, which a bound of 3 redraws, at the last filled
    # output, so their redraws fetch; then row 1 leaves, and the others read
    # on past the filled outputs and the buffer.
    filled = 8 * FETCH_WORDS
    replaced = [{filled - 1: 0}, {}, {filled - 1: 0}]

    def sources():
        return [_Source(make_rng(14, r).bit_generator, doctored) for r, doctored in enumerate(replaced)]

    fetched = sources()
    rows, streams = Rows(fetched), [Stream(source) for source in sources()]
    for count in (1, filled // 4, filled // 4, filled // 4, filled // 4 - 2):
        assert rows.bits(count, 32).tolist() == [stream.bits(count, 32) for stream in streams]
    assert [source.read for source in fetched] == [filled] * 3
    assert rows.below(np.array([3, 3, 3])).tolist() == [stream.below(3) for stream in streams]
    assert [source.read for source in fetched] == [filled + 2 * FETCH_WORDS] * 3
    rows.keep(np.array([True, False, True]))
    del streams[1]
    assert rows.bits(filled // 2, 32).tolist() == [stream.bits(filled // 2, 32) for stream in streams]
    assert [source.read for source in fetched] == [filled + 4 * FETCH_WORDS + 2, filled + 2 * FETCH_WORDS,
                                                   filled + 4 * FETCH_WORDS + 2]
    assert rows.bits(3, 32).tolist() == [stream.bits(3, 32) for stream in streams]


def test_rows_replay_the_samples_a_run_drew():
    # Each row of draws under choice_bounds, as a run returns them, replays
    # to the sample replay_choice makes of it.
    plan = make_rng(12)
    shapes = [(int(p), int(plan.integers(0, p + 1))) for p in plan.integers(1, 120, size=60)]
    shapes += [(p, p) for p in (1, 2, 17, 64, 300)] + [(p, 1) for p in (1, 2, 17, 399)]
    for population, size in shapes:
        bounds = choice_bounds(population, size)
        draws = (plan.random((7, len(bounds))) * bounds).astype(np.int64)
        got = Rows.replay(population, size, draws)
        assert got.shape == (7, size)
        for row, drawn in zip(got.tolist(), draws.tolist()):
            assert row == replay_choice(population, size, drawn), (population, size, drawn)


def test_rows_replay_a_tail_shuffle_as_their_streams_draw_it():
    rows = Rows([make_rng(10, r).bit_generator for r in range(2)])
    streams = [Stream(make_rng(10, r).bit_generator) for r in range(2)]
    assert rows.sample(10001, 201).tolist() == [stream.sample(10001, 201) for stream in streams]
    assert rows.bits(3, 32).tolist() == [stream.bits(3, 32) for stream in streams]


# ---------------------------------------------------------------------------
# consume: a run drawn past without its values
# ---------------------------------------------------------------------------

# Units, powers of two (whose redraw threshold is 0), small bounds that
# almost never redraw, and bounds that redraw about half the time.
_CONSUMED = [1, 2, 3, 4, 5, 7, 8, 64, 1000, 2**31, 2**32, *_REJECTING]
# A run whose first, middle and last draws above 1 redraw an output of 0.
_DOCTORED = Bounds([3, 4, 1, 5, 64, 7, 2**32, 1, 1000, 6])
_DOCTORED_AT = {"first": 0, "middle": 4, "last": 7}


def _position(source, stream):
    """The index of the next output ``stream`` reads from ``source``."""
    return source.read - (len(stream._words) - stream._at)


def _run_and_consume(seed, lead, bounds, replaced=()):
    """Two streams of one doctored seed, each past ``lead`` outputs, one
    after ``run(bounds)`` and one after ``consume(bounds)``; where each
    stands."""
    sources = [_Source(make_rng(*seed).bit_generator, replaced) for _ in range(2)]
    ran, consumed = (Stream(source) for source in sources)
    for stream in (ran, consumed):
        stream.bits(lead, 32)
    ran.run(bounds)
    consumed.consume(bounds)
    return (ran, consumed), [_position(source, stream) for source, stream in zip(sources, (ran, consumed))]


def test_consume_leaves_a_stream_where_run_leaves_it():
    plan = make_rng(15)
    redrawn = 0
    for case in range(200):
        bounds = Bounds([_CONSUMED[i] for i in plan.integers(0, len(_CONSUMED), size=int(plan.integers(0, 60)))])
        lead = int(plan.integers(0, 2 * RAW_WORDS))  # some runs cross a refill
        (ran, consumed), (after_run, after_consume) = _run_and_consume((16, case), lead, bounds)
        assert after_consume == after_run, (case, bounds.values)
        redrawn += after_run > lead + len(bounds.wide)
        # Every later draw agrees: a run's values, then fair words.
        assert consumed.run(bounds) == ran.run(bounds)
        assert consumed.bits(3, 32) == ran.bits(3, 32)
    assert redrawn > 40


@pytest.mark.parametrize("where", sorted(_DOCTORED_AT))
def test_consume_redraws_where_a_doctored_run_redraws(where):
    lead = 5
    (ran, consumed), (after_run, after_consume) = _run_and_consume((17,), lead, _DOCTORED,
                                                                   {lead + _DOCTORED_AT[where]: 0})
    assert after_consume == after_run > lead + len(_DOCTORED.wide)
    assert consumed.bits(3, 32) == ran.bits(3, 32)


@pytest.mark.parametrize("where", sorted(_DOCTORED_AT))
def test_rows_consume_moves_each_row_as_its_stream_consumes(where):
    # Only row 2 reads the doctored 0, so only its run is drawn again; its
    # cursor then runs ahead of the others'.
    lead, count = 2 * FETCH_WORDS - 3, len(_DOCTORED.wide)  # the run crosses a fetch
    replaced = [{}, {}, {lead + _DOCTORED_AT[where]: 0}, {}]
    rows = Rows([_Source(make_rng(18, r).bit_generator, doctored) for r, doctored in enumerate(replaced)])
    sources = [_Source(make_rng(18, r).bit_generator, doctored) for r, doctored in enumerate(replaced)]
    streams = [Stream(source) for source in sources]
    assert rows.bits(lead, 32).tolist() == [stream.bits(lead, 32) for stream in streams]
    rows.consume(_DOCTORED)
    for stream in streams:
        stream.consume(_DOCTORED)
    positions = [_position(source, stream) for source, stream in zip(sources, streams)]
    assert rows._at.tolist() == positions
    assert [at > lead + count for at in positions] == [False, False, True, False]
    assert rows.bits(3, 32).tolist() == [stream.bits(3, 32) for stream in streams]


def test_rows_consume_as_their_streams_consume_random_runs():
    plan = make_rng(19)
    redrawn = 0
    for case in range(60):
        bounds = Bounds([_CONSUMED[i] for i in plan.integers(0, len(_CONSUMED), size=int(plan.integers(0, 60)))])
        rows = Rows([make_rng(20, case, r).bit_generator for r in range(5)])
        streams = [Stream(make_rng(20, case, r).bit_generator) for r in range(5)]
        lead = plan.integers(0, 3 * FETCH_WORDS, size=5)
        rows.skip(lead)
        for stream, skip in zip(streams, lead.tolist()):
            stream.peek(skip)  # a stream skips only bits it has peeked
            stream.skip(skip)
        rows.consume(bounds)
        for stream in streams:
            stream.consume(bounds)
        redrawn += np.count_nonzero(rows._at > lead + len(bounds.wide))
        assert rows.run(bounds).tolist() == [stream.run(bounds) for stream in streams], case
        assert rows.bits(3, 32).tolist() == [stream.bits(3, 32) for stream in streams]
    assert redrawn > 20
