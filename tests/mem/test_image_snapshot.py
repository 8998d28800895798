"""The whole-image primitive — ``snapshot`` / ``same_image`` /
``fingerprint`` / ``capture`` / ``restore`` / ``release``.

The buffer pays for these per touched chunk, but what they say is about
every byte: byte-equality against a snapshot, and equality of two
fingerprints, must say exactly what comparing dense SHA-256 digests of
the two images says, here judged on the dense per-line ``RefBuffer`` of
:mod:`tests.mem.test_buffer_reference` after the same random op sequences.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryAccessError
from repro.mem.buffer import CHUNK, PersistentBuffer
from repro.nvm.device import NVMDevice
from repro.sim.kernel import Environment
from tests.mem.test_buffer_reference import (
    RefBuffer, assert_same_state, line_ranges, ranges, script_ops, scripts, step,
)


def _sha(ref, covered):
    """The dense reference: durable then visible, over ``covered`` ranges."""
    h = hashlib.sha256()
    for image in (ref.durable, ref.visible):
        for addr, n in covered:
            h.update(image[addr : addr + n])
    return h.hexdigest()


@st.composite
def cut_scripts(draw):
    size, seed, ops = draw(scripts())
    cut = draw(st.integers(0, len(ops)))
    covered = draw(st.lists(ranges(size), max_size=3))
    return size, seed, ops, cut, tuple(covered)


@settings(max_examples=150, deadline=None)
@given(cut_scripts())
def test_same_image_agrees_with_comparing_digests(script):
    size, seed, ops, cut, covered = script
    buf, ref = PersistentBuffer(size), RefBuffer(size)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for op in ops[:cut]:
        step(buf, ref, rng, ref_rng, *op)

    whole = ((0, size),)
    taken = [  # (ranges the digest idiom would hash, snapshot, digest then)
        (whole, buf.snapshot(), _sha(ref, whole)),
        (covered or whole, buf.snapshot(*covered), _sha(ref, covered or whole)),
    ]

    for op in [("probe", 0, 0), *ops[cut:]]:
        step(buf, ref, rng, ref_rng, *op)
        for rs, snap, digest in taken:
            assert buf.same_image(snap) == (_sha(ref, rs) == digest)
        # judging an image is not a modelled access
        assert_same_state(buf, ref)


def _run(size, seed, ops):
    buf, ref = PersistentBuffer(size), RefBuffer(size)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for op in ops:
        step(buf, ref, rng, ref_rng, *op)
    return buf, ref


@st.composite
def script_pairs(draw):
    """Two scripts on one size and seed, the second the first plus up to
    three more ops — often none, or none that moves a byte."""
    size, seed, ops = draw(scripts())
    more = draw(script_ops(size, min_ops=0, max_ops=3))
    return size, seed, ops, ops + more, tuple(draw(st.lists(ranges(size), max_size=3)))


@settings(max_examples=150, deadline=None)
@given(script_pairs())
def test_fingerprints_are_equal_iff_the_dense_digests_are(pair):
    size, seed, ops_a, ops_b, covered = pair
    (a, ref_a), (b, ref_b) = _run(size, seed, ops_a), _run(size, seed, ops_b)
    for rs in ((), covered):
        dense_equal = _sha(ref_a, rs or ((0, size),)) == _sha(ref_b, rs or ((0, size),))
        assert (a.fingerprint(*rs) == b.fingerprint(*rs)) == dense_equal
        # a snapshot is held against another buffer too (the matrix's replay)
        assert b.same_image(a.snapshot(*rs)) == dense_equal
        assert a.same_image(b.snapshot(*rs)) == dense_equal
    assert_same_state(a, ref_a)  # fingerprinting is not a modelled access


@st.composite
def capture_scripts(draw):
    """A script to capture after, a second script for the buffer the
    capture is restored into, and one crash's coins."""
    size, seed, ops = draw(scripts())
    noise = draw(script_ops(size, min_ops=0, max_ops=5))
    return size, seed, ops, noise, draw(st.floats(0.0, 1.0)), draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(capture_scripts())
def test_a_restored_capture_crashes_like_its_original(script):
    size, seed, ops, noise, evict, tear = script
    buf, ref = _run(size, seed, ops)
    cap = buf.capture()
    twin, _ = _run(size, seed ^ 1, noise)  # a history of its own, overwritten
    twin.restore(cap)
    assert twin.visible == ref.visible and twin.durable == ref.durable
    assert [bool(twin.dirty_lines_in(a, n)) for a, n in line_ranges(size)] == ref.dirty
    # the same coins resolve the same lines to the same bytes
    summaries = [
        b.crash(np.random.default_rng(seed), evict, tear_words=tear)
        for b in (buf, twin)
    ]
    assert summaries[0] == summaries[1]
    assert twin.same_image(buf.snapshot()) and twin.fingerprint() == buf.fingerprint()


def test_a_series_of_captures_holds_each_chunk_version_once():
    buf = PersistentBuffer(3 * CHUNK)
    buf.write(0, b"a" * 100)
    buf.write(CHUNK, b"b" * 100)
    buf.flush(0, 3 * CHUNK)
    first = buf.capture()
    (_, d0, v0, _), (_, d1, v1, _) = first.chunks
    assert v0 is d0 and v1 is d1  # clean: visible is the durable chunk
    buf.write(CHUNK + 10, b"c")
    second = buf.capture(like=first)
    (_, e0, w0, _), (_, e1, w1, _) = second.chunks
    assert e0 is d0 and w0 is d0  # untouched since: lent by the first
    assert e1 is d1 and w1 is not v1 and w1[10:11] == b"c"  # dirty line only
    assert second == buf.capture()  # lending changes no byte


def test_a_capture_restores_only_into_its_size():
    buf = PersistentBuffer(8192)
    buf.write(5000, b"x")
    cap = buf.capture()
    with pytest.raises(MemoryAccessError, match="8192-byte buffer restored into 4096"):
        PersistentBuffer(4096).restore(cap)
    device = NVMDevice(Environment(), 8192)
    device.restore(cap)
    assert device.capture() == cap and device.buffer.dirty_line_count() == 1
    device.release()
    with pytest.raises(MemoryAccessError, match="released"):
        device.restore(cap)


def flip_one_image(buf, image, addr):
    """Flip bit 0 of the byte at ``addr`` in ``image`` only, through the
    buffer's API (the images themselves are read-only)."""
    if image == "visible":
        buf.write(addr, bytes([buf.view(addr, 1)[0] ^ 1]))
    else:  # a dirty line masks the media fault from loads
        buf.write(addr, bytes(buf.view(addr, 1)))
        buf.corrupt(addr)


@pytest.mark.parametrize("image", ["durable", "visible"])
def test_one_byte_in_either_image_is_a_difference(image):
    buf = PersistentBuffer(200)  # last line is short
    buf.write(0, bytes(range(200)))
    buf.flush(0, 100)
    snap, whole, rest = buf.snapshot(), buf.fingerprint(), buf.fingerprint((0, 199))
    assert buf.same_image(snap)
    flip_one_image(buf, image, 199)
    assert not buf.same_image(snap) and buf.fingerprint() != whole
    assert buf.same_image(buf.snapshot((0, 199))) and not buf.same_image(snap)
    assert buf.fingerprint((0, 199)) == rest


@pytest.mark.parametrize("image", ["durable", "visible"])
def test_a_later_store_into_an_untouched_chunk_is_a_difference(image):
    """A whole-image snapshot copies the chunks touched by then and still
    means the whole image."""
    buf = PersistentBuffer(2 * CHUNK + 200)  # last chunk is short
    buf.write(10, b"early")
    snap, ranged = buf.snapshot(), buf.snapshot((0, CHUNK), (2 * CHUNK, 199))
    assert len(snap.visible) == CHUNK
    flip_one_image(buf, image, 2 * CHUNK + 199)
    assert not buf.same_image(snap)
    assert buf.same_image(ranged)  # the byte lies outside its ranges
    flip_one_image(buf, image, 2 * CHUNK + 198)
    assert not buf.same_image(ranged)


def test_a_chunk_written_back_to_zeros_equals_one_never_written():
    a, b = PersistentBuffer(3 * CHUNK + 100), PersistentBuffer(3 * CHUNK + 100)
    for buf in (a, b):
        buf.write(0, b"common")
        buf.flush(0, 6)
    a.write(CHUNK + 5, b"x" * 10)
    a.flush(CHUNK + 5, 10)
    assert a.fingerprint() != b.fingerprint()
    assert not a.same_image(b.snapshot()) and not b.same_image(a.snapshot())
    a.write(CHUNK + 5, bytes(10))
    a.flush(CHUNK + 5, 10)
    assert a.fingerprint() == b.fingerprint()
    assert a.same_image(b.snapshot()) and b.same_image(a.snapshot())
    assert len(a.snapshot().durable) == 2 * CHUNK  # touched stays touched


def test_the_images_are_read_only():
    """A poke that bypasses the API would evade the touched map."""
    buf = PersistentBuffer(128)
    for image in (buf.visible, buf.durable, buf.view(0, 8)):
        with pytest.raises(TypeError):
            image[0] = 1
    assert buf.fingerprint() == PersistentBuffer(128).fingerprint()


def test_a_snapshot_does_not_alias_and_outlives_the_buffer():
    buf = PersistentBuffer(128)
    buf.write(0, b"before")
    snap = buf.snapshot()
    buf.write(0, b"after!")
    assert snap.visible[:6] == b"before" and snap.durable[:6] == bytes(6)
    buf.release()
    assert snap.visible[:6] == b"before"


def test_snapshots_of_other_sizes_and_bad_ranges():
    buf = PersistentBuffer(128)
    for size in (64, 192, CHUNK + 128):  # equal bytes, as far as they go
        other = PersistentBuffer(size)
        assert not buf.same_image(other.snapshot())
        assert not buf.same_image(other.snapshot((0, 64)))
        assert buf.fingerprint() != other.fingerprint()
        assert buf.fingerprint((0, 64)) != other.fingerprint((0, 64))
    for use in (buf.snapshot, buf.fingerprint):
        with pytest.raises(MemoryAccessError):
            use((64, 65))


def test_a_released_buffer_raises_instead_of_reading_empty_bytes():
    buf = PersistentBuffer(256)
    buf.write(8, b"x" * 8)
    snap = buf.snapshot()
    buf.release()
    buf.release()  # idempotent
    assert buf.visible is None and buf.durable is None
    rng = np.random.default_rng(0)
    for use in (
        lambda: buf.read(0, 8),
        lambda: buf.read_durable(0, 8),
        lambda: buf.view(0, 8),
        lambda: buf.write(0, b"y"),
        lambda: buf.write_atomic64(0, b"y" * 8),
        lambda: buf.flush(0, 64),
        lambda: buf.flush_all(),
        lambda: buf.flush_torn(0, 64, rng),
        lambda: buf.is_persistent(0, 8),
        lambda: buf.corrupt(0),
        lambda: buf.crash(rng),
        lambda: buf.snapshot(),
        lambda: buf.snapshot((0, 8)),
        lambda: buf.same_image(snap),
        lambda: buf.fingerprint(),
        lambda: buf.fingerprint((0, 8)),
    ):
        with pytest.raises(MemoryAccessError, match="released"):
            use()


def test_release_with_a_window_still_alive():
    """The mapping cannot go while a caller's window into it lives; the
    release neither raises nor leaves the buffer usable."""
    buf = PersistentBuffer(256)
    buf.write(0, b"held")
    window = buf.view(0, 4)
    buf.release()
    assert buf.visible is None and buf.durable is None
    with pytest.raises(MemoryAccessError, match="released"):
        buf.read(0, 4)
    assert bytes(window) == b"held"


def test_device_passthroughs():
    device = NVMDevice(Environment(), 4096)
    device.write(64, b"image")
    snap, fingerprint = device.snapshot((64, 5)), device.fingerprint((64, 5))
    assert device.same_image(snap) and device.same_image(device.snapshot())
    assert fingerprint == device.buffer.fingerprint((64, 5)) != device.fingerprint()
    device.write(64, b"IMAGE")
    assert not device.same_image(snap) and device.fingerprint((64, 5)) != fingerprint
    device.release()
    with pytest.raises(MemoryAccessError, match="released"):
        device.read(64, 5)
