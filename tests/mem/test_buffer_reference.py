"""PersistentBuffer against a per-line reference model.

``RefBuffer`` is the buffer as it was before dirty runs were copied as
slices: one Python step per cacheline, a list of bools for the dirty
set, two dense ``bytearray`` images. Random op sequences, on sizes whose
last line (and last 4 KiB chunk) is short, must leave both with the same
images, dirty set, counters and return values, with both sides drawing
from identically seeded generators.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mem.buffer import ATOMIC_WORD, CACHELINE, BufferStats, PersistentBuffer


class RefBuffer:
    def __init__(self, size):
        self.size = size
        self.visible = bytearray(size)
        self.durable = bytearray(size)
        self.dirty = [False] * ((size + CACHELINE - 1) // CACHELINE)
        self.stats = BufferStats()

    def _lines(self, addr, length):
        if length == 0:
            return range(0)
        return range(addr // CACHELINE, (addr + length - 1) // CACHELINE + 1)

    def _bounds(self, line):
        start = line * CACHELINE
        return start, min(start + CACHELINE, self.size)

    def write(self, addr, data):
        self.visible[addr : addr + len(data)] = data
        for line in self._lines(addr, len(data)):
            self.dirty[line] = True
        self.stats.bytes_written += len(data)

    def read(self, addr, length):
        self.stats.bytes_read += length
        return bytes(self.visible[addr : addr + length])

    def read_durable(self, addr, length):
        return bytes(self.durable[addr : addr + length])

    def flush(self, addr, length):
        self.stats.flush_calls += 1
        n = 0
        for line in self._lines(addr, length):
            if self.dirty[line]:
                start, end = self._bounds(line)
                self.durable[start:end] = self.visible[start:end]
                self.dirty[line] = False
                n += 1
        self.stats.lines_flushed += n
        return n

    def is_persistent(self, addr, length):
        if not any(self.dirty[line] for line in self._lines(addr, length)):
            return True
        return self.visible[addr : addr + length] == self.durable[addr : addr + length]

    def dirty_lines_in(self, addr, length):
        return sum(self.dirty[line] for line in self._lines(addr, length))

    def flush_torn(self, addr, length, rng):
        first = (addr + ATOMIC_WORD - 1) // ATOMIC_WORD
        last = (addr + length) // ATOMIC_WORD
        if length < ATOMIC_WORD or last <= first:
            return self.flush(addr, length)
        ws = int(rng.integers(first, last)) * ATOMIC_WORD
        saved = bytes(self.durable[ws : ws + ATOMIC_WORD])
        n = self.flush(addr, length)
        self.durable[ws : ws + ATOMIC_WORD] = saved
        self.dirty[ws // CACHELINE] = True
        self.stats.torn_stores += 1
        return n

    def corrupt(self, addr, kind, rng):
        line = addr // CACHELINE
        start, end = self._bounds(line)
        bit = None
        if kind == "bitflip":
            bit = int(rng.integers(8))
            self.durable[addr] ^= 1 << bit
        else:
            self.durable[start:end] = bytes(end - start)
        masked = self.dirty[line]
        if not masked:
            self.visible[start:end] = self.durable[start:end]
        self.stats.corruptions += 1
        return {"kind": kind, "addr": addr, "bit": bit, "masked": masked}

    def crash(self, rng, evict_probability, tear_words):
        evicted = lost = torn = 0
        for line, is_dirty in enumerate(self.dirty):
            if not is_dirty:
                continue
            start, end = self._bounds(line)
            if tear_words:
                n_words = (end - start + ATOMIC_WORD - 1) // ATOMIC_WORD
                survives = rng.random(n_words) < evict_probability
                n_live = int(survives.sum())
                for w in np.flatnonzero(survives):
                    ws = start + int(w) * ATOMIC_WORD
                    we = min(ws + ATOMIC_WORD, end)
                    self.durable[ws:we] = self.visible[ws:we]
                if n_live == n_words:
                    evicted += 1
                elif n_live == 0:
                    lost += 1
                else:
                    torn += 1
                self.stats.words_lost_on_crash += n_words - n_live
            elif rng.random() < evict_probability:
                self.durable[start:end] = self.visible[start:end]
                evicted += 1
            else:
                lost += 1
                self.stats.words_lost_on_crash += CACHELINE // ATOMIC_WORD
        self.visible[:] = self.durable
        self.dirty = [False] * len(self.dirty)
        self.stats.crashes += 1
        self.stats.lines_evicted_on_crash += evicted
        self.stats.lines_lost_on_crash += lost
        self.stats.lines_torn_on_crash += torn
        return {"evicted": evicted, "lost": lost, "torn": torn}


def line_ranges(size):
    return [(a, min(CACHELINE, size - a)) for a in range(0, size, CACHELINE)]


def assert_same_state(buf, ref):
    assert buf.visible == ref.visible
    assert buf.durable == ref.durable
    dirty = [bool(buf.dirty_lines_in(a, n)) for a, n in line_ranges(buf.size)]
    assert dirty == ref.dirty
    assert buf.dirty_line_count() == sum(ref.dirty)
    assert buf.stats.as_dict() == ref.stats.as_dict()


@st.composite
def ranges(draw, size, min_len=0):
    addr = draw(st.integers(0, size - min_len))
    return addr, draw(st.integers(min_len, size - addr))


#: Buffer sizes the scripts run on: short last lines, and — for the
#: touched map — more than one 4 KiB chunk, with and without a short last one.
SIZES = [1, 8, 63, 65, 200, 1000, 1024, 4096, 8292]


@st.composite
def script_ops(draw, size, min_ops=1, max_ops=30):
    ops = []
    for _ in range(draw(st.integers(min_ops, max_ops))):
        kind = draw(
            st.sampled_from(
                ["write", "write", "write", "zeros", "atomic64", "flush", "flush",
                 "flush_torn", "corrupt", "crash", "probe"]
            )
        )
        if kind == "write":
            addr, n = draw(ranges(size))
            if size <= 1024:
                data = draw(st.binary(min_size=n, max_size=n))
            else:  # a store spanning chunks, without a chunk of entropy
                data = bytes([draw(st.integers(0, 255))]) * n
            ops.append((kind, addr, data))
        elif kind == "zeros":  # touches chunks it may leave all-zero
            addr, n = draw(ranges(size))
            ops.append(("write", addr, bytes(n)))
        elif kind == "atomic64":
            if size >= 8:
                word = draw(st.integers(0, size // 8 - 1))
                ops.append((kind, word * 8, draw(st.binary(min_size=8, max_size=8))))
        elif kind in ("flush", "flush_torn", "probe"):
            ops.append((kind, *draw(ranges(size))))
        elif kind == "corrupt":
            ops.append(
                (kind, draw(st.integers(0, size - 1)),
                 draw(st.sampled_from(["bitflip", "zero_line"])))
            )
        else:
            ops.append(
                (kind, draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.booleans()))
            )
    return ops


@st.composite
def scripts(draw):
    size = draw(st.sampled_from(SIZES))
    return size, draw(st.integers(0, 2**32 - 1)), draw(script_ops(size))


def step(buf, ref, rng, ref_rng, kind, *args):
    """Apply one script op to both buffers; returns and state must agree."""
    if kind == "write":
        buf.write(*args)
        ref.write(*args)
    elif kind == "atomic64":
        buf.write_atomic64(*args)
        ref.write(*args)
    elif kind == "flush":
        assert buf.flush(*args) == ref.flush(*args)
    elif kind == "flush_torn":
        assert buf.flush_torn(*args, rng) == ref.flush_torn(*args, ref_rng)
    elif kind == "corrupt":
        addr, how = args
        assert buf.corrupt(addr, how, rng=rng) == ref.corrupt(addr, how, ref_rng)
    elif kind == "crash":
        evict, tear = args
        assert buf.crash(rng, evict, tear_words=tear) == ref.crash(
            ref_rng, evict, tear
        )
        assert buf.visible == buf.durable  # over the whole buffer
    else:  # probe: the read-side functions over an arbitrary range
        assert buf.read(*args) == ref.read(*args)
        assert buf.read_durable(*args) == ref.read_durable(*args)
        assert bytes(buf.view(*args)) == bytes(ref.visible[args[0] : sum(args)])
        assert buf.is_persistent(*args) == ref.is_persistent(*args)
        assert buf.dirty_lines_in(*args) == ref.dirty_lines_in(*args)
    assert_same_state(buf, ref)


@settings(max_examples=150, deadline=None)
@given(scripts())
def test_buffer_matches_the_per_line_reference(script):
    size, seed, ops = script
    buf, ref = PersistentBuffer(size), RefBuffer(size)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for op in ops:
        step(buf, ref, rng, ref_rng, *op)
    # both generators were drawn from equally often
    assert rng.random() == ref_rng.random()


def test_flush_copies_runs_across_a_short_last_line():
    buf = PersistentBuffer(3 * CACHELINE + 5)
    buf.write(CACHELINE - 1, b"x" * 2)  # lines 0-1
    buf.write(3 * CACHELINE + 1, b"yz")  # the 5-byte last line
    assert buf.flush(0, buf.size) == 3
    assert buf.durable == buf.visible
    assert buf.dirty_line_count() == 0


def test_view_is_read_only_and_zero_copy():
    buf = PersistentBuffer(256)
    window = buf.view(64, 16)
    assert window.readonly and bytes(window) == bytes(16)
    buf.write(64, b"live")
    assert bytes(window[:4]) == b"live"  # aliases the visible image
    assert buf.stats.bytes_read == 0
