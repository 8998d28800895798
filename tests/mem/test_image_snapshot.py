"""The whole-image primitive — ``snapshot`` / ``same_image`` / ``release``.

Byte-equality against a snapshot must say exactly what comparing SHA-256
digests of the two images said (the idiom it replaced), here judged on
the per-line ``RefBuffer`` of :mod:`tests.mem.test_buffer_reference`
after the same random op sequences.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryAccessError
from repro.mem.buffer import PersistentBuffer
from repro.nvm.device import NVMDevice
from repro.sim.kernel import Environment
from tests.mem.test_buffer_reference import (
    RefBuffer, assert_same_state, ranges, scripts, step,
)


def _sha(ref, covered):
    """The replaced idiom: durable then visible, over ``covered`` ranges."""
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
    assert taken[0][1] == (None, ref.durable, ref.visible)

    for op in [("probe", 0, 0), *ops[cut:]]:
        step(buf, ref, rng, ref_rng, *op)
        for rs, snap, digest in taken:
            assert buf.same_image(snap) == (_sha(ref, rs) == digest)
        # judging an image is not a modelled access
        assert_same_state(buf, ref)


@pytest.mark.parametrize("image", ["durable", "visible"])
def test_one_byte_in_either_image_is_a_difference(image):
    buf = PersistentBuffer(200)  # last line is short
    buf.write(0, bytes(range(200)))
    buf.flush(0, 100)
    snap = buf.snapshot()
    assert buf.same_image(snap)
    getattr(buf, image)[199] ^= 1
    assert not buf.same_image(snap)
    assert buf.same_image(buf.snapshot((0, 199))) and not buf.same_image(snap)


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
    assert not buf.same_image(PersistentBuffer(64).snapshot())
    assert not buf.same_image(PersistentBuffer(192).snapshot())
    with pytest.raises(MemoryAccessError):
        buf.snapshot((64, 65))


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
    ):
        with pytest.raises(MemoryAccessError, match="released"):
            use()


def test_device_passthroughs():
    device = NVMDevice(Environment(), 4096)
    device.write(64, b"image")
    snap = device.snapshot((64, 5))
    assert device.same_image(snap) and device.same_image(device.snapshot())
    device.write(64, b"IMAGE")
    assert not device.same_image(snap)
    device.release()
    with pytest.raises(MemoryAccessError, match="released"):
        device.read(64, 5)
