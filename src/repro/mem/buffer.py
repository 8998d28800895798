"""Byte-addressable memory with a volatility/persistence boundary.

:class:`PersistentBuffer` models the state (not the timing — see
:mod:`repro.nvm.device`) of NVMM behind a write-back cache hierarchy:

* ``visible`` — what loads (and RDMA READs) observe *now*: the union of
  CPU-cache / DDIO-LLC contents and the media.
* ``durable`` — what is actually on the NVM media and survives a crash.

Stores and inbound DMA update ``visible`` and mark the covered 64-byte
cachelines *dirty*. ``flush`` (CLWB/CLFLUSH + SFENCE at a higher layer)
copies dirty lines to ``durable``. On a crash each dirty line is
independently either *naturally evicted* (it made it to media on its
own — the behaviour Erda relies on and that causes its non-monotonic
reads) or lost, in which case ``visible`` reverts to the durable image.

Crash resolution has two granularities. The default resolves whole
lines, which subsumes the 8-byte failure-atomicity unit of real NVM for
aligned 8-byte stores — what every scheme in the paper relies on for
hash-entry updates; :meth:`write_atomic64` asserts the alignment
invariant. With ``tear_words=True`` each aligned 8-byte word of a dirty
line is resolved *independently*, the harshest model consistent with the
hardware guarantee: multi-word stores (headers, values) can tear
mid-object, while any single aligned 8-byte store still lands or misses
atomically.

Latent media faults (bit-rot, stuck lines) are modelled by
:meth:`corrupt`: a seeded mutation of the *durable* image, visible to
loads only where the cache no longer masks the media (clean lines) —
exactly the class of error Pangolin-style checksum scrubbing exists to
catch.

Cost model of this module (host time, not simulated time): work is paid
**per range, not per cacheline — and per touched chunk, not per device
byte**. The two images are lazily-zeroed anonymous mappings: a page
exists once something was stored to it, so a 9.4 MB device that holds a
12-key workload costs the ~100 KB it touched, to create, to crash and to
free. The dirty map is one byte per line in a ``bytearray``;
:meth:`PersistentBuffer.write` marks its lines with one slice store,
:meth:`PersistentBuffer.flush` finds each contiguous dirty run with
``bytearray.find`` and copies it to ``durable`` as one slice, and loads
slice one read-only ``memoryview`` of each image so a read copies its
bytes once. :meth:`PersistentBuffer.view` hands a caller that scans a
range (the hash index) the bytes without any copy. The rare sweeps that
need per-line coin flips (:meth:`PersistentBuffer.crash`) see the same
map as a NumPy bool array, ``_dirty``, a ``frombuffer`` view of the
bytearray — there is one dirty map, not two — and revert only the dirty
lines: a clean line already reads what the media holds.

The **touched map** is one byte per :data:`CHUNK` (4 KiB) of buffer, set
by every mutator that can bring a non-zero byte into a chunk (``write``,
``corrupt``; ``flush`` and ``crash`` only move bytes between the two
images inside chunks already set) and never cleared. Its invariant:
*outside touched chunks both images are zero.* That is why ``visible``
and ``durable`` are exposed as **read-only** views — a poke that
bypassed the mutators would silently evade the map, so it raises
``TypeError`` instead; stores go through the mappings, which stay
private.

Whole-image judgements ("did a second recovery change anything?", "did a
replay land on the same bytes?") go through one primitive, which looks at
touched chunks only and still speaks for every byte:
:meth:`PersistentBuffer.snapshot` copies what ``durable`` and ``visible``
hold (all of them, or the given ranges) in the chunks touched by then
into an immutable :class:`ImageSnapshot`, and
:meth:`PersistentBuffer.same_image` compares the live images with it by
``memcmp`` — the copied pieces against their bytes, and any chunk of the
snapshot's ranges touched only since (or only in this buffer, when the
snapshot comes from a replay's twin) against the zeros it held then. A
chunk touched on one side and all-zero equals an untouched one. Inside
the process nothing is hashed; a cryptographic hash is for a fingerprint
that *leaves* it (a report field), and that is
:meth:`PersistentBuffer.fingerprint`: SHA-256 over the buffer size, the
ranges and, per image, ``(tag, addr, length, bytes)`` of every touched
piece that is not all-zero — an injective encoding of the images'
content, independent of which zero chunks were ever stored to, so two
fingerprints are equal iff the bytes are. A snapshot is plain ``bytes``:
it does not alias the buffer, it survives the buffer's release, and it
costs two copies of what it covers for as long as it is referenced —
take it right before the step being judged and drop it with the verdict.
:meth:`PersistentBuffer.release` unmaps the two images of a buffer whose
run is over, at once, whatever still references the buffer object (a
finished simulation sits in reference cycles until a generational
collection finds it). The release rule: release only after the last read
of the image, and never a buffer a live simulation still owns — every
later access to its bytes raises
:class:`~repro.errors.MemoryAccessError` rather than reading empty ones.
A caller's window (``view()``, a slice of an image) that is still alive
keeps its mapping alive, not the buffer usable: the release does not
raise, and the pages go when the window does.
"""

from __future__ import annotations

import hashlib
import mmap
import struct
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from repro.errors import MemoryAccessError

__all__ = [
    "CACHELINE",
    "ATOMIC_WORD",
    "CHUNK",
    "CORRUPTION_KINDS",
    "PersistentBuffer",
    "BufferStats",
    "ImageSnapshot",
]

#: Cacheline size in bytes; the dirty-tracking and crash granularity.
CACHELINE = 64

#: NVM failure-atomicity unit: an aligned 8-byte store lands atomically.
ATOMIC_WORD = 8

#: Granularity of the touched map: whole-image work (snapshot, compare,
#: fingerprint) is paid per chunk of this many bytes that was ever stored to.
CHUNK = 4096

#: Latent-corruption kinds accepted by :meth:`PersistentBuffer.corrupt`.
CORRUPTION_KINDS = ("bitflip", "zero_line")

_ZERO_CHUNK = bytes(CHUNK)
#: One fingerprinted piece: image tag, address, length (then its bytes).
_PIECE = struct.Struct("<cQQ")


def _zeroed(size: int) -> mmap.mmap:
    """``size`` bytes of anonymous zero-filled memory whose pages exist
    only once stored to. Private where the platform can say so: the
    default mapping is ``MAP_SHARED``, which Linux backs with shmem."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return mmap.mmap(-1, size)


class BufferStats:
    """Running counters for a :class:`PersistentBuffer`."""

    __slots__ = (
        "bytes_written",
        "bytes_read",
        "lines_flushed",
        "flush_calls",
        "crashes",
        "lines_evicted_on_crash",
        "lines_lost_on_crash",
        "lines_torn_on_crash",
        "words_lost_on_crash",
        "corruptions",
        "torn_stores",
    )

    def __init__(self) -> None:
        self.bytes_written = 0
        self.bytes_read = 0
        self.lines_flushed = 0
        self.flush_calls = 0
        self.crashes = 0
        self.lines_evicted_on_crash = 0
        self.lines_lost_on_crash = 0
        self.lines_torn_on_crash = 0
        self.words_lost_on_crash = 0
        self.corruptions = 0
        self.torn_stores = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class ImageSnapshot(NamedTuple):
    """Immutable copy of what a buffer's two images held over some ranges
    (see :meth:`PersistentBuffer.snapshot`). Only the ``pieces`` — the
    ranges' bytes inside chunks touched by then — are copied; every other
    byte of the ranges was zero."""

    #: Size of the buffer it was taken from.
    size: int
    #: ``(addr, length)`` ranges covered, in order (the whole buffer: one).
    ranges: tuple[tuple[int, int], ...]
    #: ``(addr, length)`` of each copied piece, in order.
    pieces: tuple[tuple[int, int], ...]
    #: The pieces' bytes of each image, concatenated.
    durable: bytes
    visible: bytes


class PersistentBuffer:
    """State model of an NVMM address space (see module docstring)."""

    __slots__ = (
        "size",
        "visible",
        "durable",
        "_vmap",
        "_dmap",
        "_dirty_map",
        "_dirty",
        "_touched",
        "stats",
    )

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise MemoryAccessError(f"buffer size must be positive, got {size}")
        self.size = size
        # Stores go to the mappings; everyone else, inside this class and
        # out, sees the two images through read-only views of them.
        self._vmap = _zeroed(size)
        self._dmap = _zeroed(size)
        self.visible = memoryview(self._vmap).toreadonly()
        self.durable = memoryview(self._dmap).toreadonly()
        # One byte per cacheline, 1 = dirty; ``_dirty`` is the same
        # memory as a bool array for the sweeps that index by mask.
        self._dirty_map = bytearray((size + CACHELINE - 1) // CACHELINE)
        self._dirty = np.frombuffer(self._dirty_map, dtype=bool)
        # One byte per chunk, 1 = stored to at some point. Outside
        # touched chunks both images are zero.
        self._touched = bytearray((size + CHUNK - 1) // CHUNK)
        self.stats = BufferStats()

    # -- bounds ------------------------------------------------------------
    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            self._require_live()
            raise MemoryAccessError(
                f"access [{addr}, {addr + length}) outside buffer of size {self.size}"
            )

    def _require_live(self) -> None:
        if self.visible is None:
            raise MemoryAccessError("access to a released buffer")

    def _line_span(self, addr: int, length: int) -> tuple[int, int]:
        """First and one-past-last line index covering ``[addr, addr+length)``."""
        if length == 0:
            return 0, 0
        return addr // CACHELINE, (addr + length - 1) // CACHELINE + 1

    # -- access ------------------------------------------------------------
    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Store ``data`` at ``addr`` (visible immediately, not durable)."""
        n = len(data)
        self._check(addr, n)
        if n == 0:
            return
        self._vmap[addr : addr + n] = data
        lo, hi = self._line_span(addr, n)
        self._dirty_map[lo:hi] = b"\x01" * (hi - lo)
        first, last = addr // CHUNK, (addr + n - 1) // CHUNK
        if first == last:
            self._touched[first] = 1
        else:
            self._touched[first : last + 1] = b"\x01" * (last + 1 - first)
        self.stats.bytes_written += n

    def write_atomic64(self, addr: int, data: bytes) -> None:
        """An aligned 8-byte store — the failure-atomicity unit of NVM."""
        if len(data) != 8:
            raise MemoryAccessError(f"atomic64 write needs 8 bytes, got {len(data)}")
        if addr % 8 != 0:
            raise MemoryAccessError(f"atomic64 write to unaligned address {addr}")
        self.write(addr, data)

    def read(self, addr: int, length: int) -> bytes:
        """Load from the *visible* image (what RDMA READ returns)."""
        self._check(addr, length)
        self.stats.bytes_read += length
        return self.visible[addr : addr + length].tobytes()

    def view(self, addr: int, length: int) -> memoryview:
        """Read-only zero-copy window onto the *visible* image, for
        callers that scan a range (index words, a digest) rather than
        load an object. It aliases live memory: use it within one
        simulated instant and drop it before the next ``yield``. Not
        counted in ``bytes_read`` — a caller standing in for counted
        loads adds what it consumed."""
        self._check(addr, length)
        return self.visible[addr : addr + length]

    def read_durable(self, addr: int, length: int) -> bytes:
        """Load from the media image (post-crash contents)."""
        self._check(addr, length)
        return self.durable[addr : addr + length].tobytes()

    # -- persistence -------------------------------------------------------
    def flush(self, addr: int, length: int) -> int:
        """Write back all lines covering the range; returns #lines flushed.

        Clean lines in the range are skipped (CLWB semantics on an
        already-clean line are free at the state level; the *timing*
        model in :mod:`repro.nvm.device` still charges for issuing the
        instruction over the full range, as real code does).
        """
        self._check(addr, length)
        self.stats.flush_calls += 1
        if length == 0:
            return 0
        lo, hi = self._line_span(addr, length)
        dirty = self._dirty_map
        n = 0
        run = dirty.find(1, lo, hi)
        while run != -1:
            end = dirty.find(0, run, hi)
            if end == -1:
                end = hi
            # The buffer's last line may be short; slices clamp to size.
            start, stop = run * CACHELINE, end * CACHELINE
            self._dmap[start:stop] = self.visible[start:stop]
            dirty[run:end] = bytes(end - run)
            n += end - run
            run = dirty.find(1, end, hi)
        self.stats.lines_flushed += n
        return n

    def flush_all(self) -> int:
        """Write back every dirty line (used at clean shutdown)."""
        return self.flush(0, self.size)

    def is_persistent(self, addr: int, length: int) -> bool:
        """True when no line covering the range is dirty *and* the visible
        and durable images agree on the exact byte range.

        The byte-level comparison matters: a line may have been re-dirtied
        by a neighbouring object after this range was flushed, in which
        case the range itself is still durable.
        """
        self._check(addr, length)
        if length == 0:
            return True
        lo, hi = self._line_span(addr, length)
        if self._dirty_map.find(1, lo, hi) == -1:
            return True
        # Slicing a mapping copies to bytes: two copies and a memcmp.
        return self._vmap[addr : addr + length] == self._dmap[addr : addr + length]

    def dirty_line_count(self) -> int:
        return int(self._dirty.sum())

    def dirty_lines_in(self, addr: int, length: int) -> int:
        """Number of dirty lines covering the range (flush-cost input)."""
        self._check(addr, length)
        if length == 0:
            return 0
        lo, hi = self._line_span(addr, length)
        return self._dirty_map.count(1, lo, hi)

    # -- crash semantics -----------------------------------------------------
    def crash(
        self,
        rng: np.random.Generator,
        evict_probability: float = 0.5,
        *,
        tear_words: bool = False,
    ) -> dict:
        """Power failure: resolve every dirty line, then expose the media.

        Each dirty line is independently *naturally evicted* (survives)
        with ``evict_probability``, else its volatile contents are lost.
        With ``tear_words=True`` the coin is flipped per aligned 8-byte
        word instead, so a line can land *partially* — tearing any store
        wider than the hardware's failure-atomicity unit — while aligned
        8-byte stores (one word) still resolve atomically.
        Afterwards ``visible == durable`` and nothing is dirty.

        Returns a summary dict (``evicted``, ``lost``, ``torn`` line
        counts; ``torn`` only ever non-zero with ``tear_words``).
        """
        self._require_live()
        if not 0.0 <= evict_probability <= 1.0:
            raise MemoryAccessError(
                f"evict_probability must be in [0,1], got {evict_probability}"
            )
        visible, media = self.visible, self._dmap
        dirty_idx = np.flatnonzero(self._dirty)
        evicted = lost = torn = 0
        words_per_line = CACHELINE // ATOMIC_WORD
        for line in dirty_idx:
            start = int(line) * CACHELINE
            end = min(start + CACHELINE, self.size)
            if tear_words:
                n_words = (end - start + ATOMIC_WORD - 1) // ATOMIC_WORD
                survives = rng.random(n_words) < evict_probability
                n_live = int(survives.sum())
                if n_live == n_words:
                    media[start:end] = visible[start:end]
                    evicted += 1
                elif n_live == 0:
                    lost += 1
                    self.stats.words_lost_on_crash += n_words
                else:
                    for w in np.flatnonzero(survives):
                        ws = start + int(w) * ATOMIC_WORD
                        we = min(ws + ATOMIC_WORD, end)
                        media[ws:we] = visible[ws:we]
                    torn += 1
                    self.stats.words_lost_on_crash += n_words - n_live
            else:
                if rng.random() < evict_probability:
                    media[start:end] = visible[start:end]
                    evicted += 1
                else:
                    lost += 1
                    self.stats.words_lost_on_crash += words_per_line
            # Loads see the media now. A clean line already does, so
            # reverting the dirty ones reverts the whole image.
            self._vmap[start:end] = self.durable[start:end]
        self._dirty[:] = False
        self.stats.crashes += 1
        self.stats.lines_evicted_on_crash += evicted
        self.stats.lines_lost_on_crash += lost
        self.stats.lines_torn_on_crash += torn
        return {"evicted": evicted, "lost": lost, "torn": torn}

    # -- media faults --------------------------------------------------------
    def corrupt(
        self,
        addr: int,
        kind: str = "bitflip",
        *,
        rng: np.random.Generator | None = None,
    ) -> dict:
        """Seeded latent media corruption at ``addr`` (Pangolin's threat
        model: errors the DIMM develops *after* a successful write).

        ``bitflip`` flips one bit of the byte at ``addr`` (bit chosen by
        ``rng``, bit 0 without one); ``zero_line`` zeroes the whole
        cacheline containing ``addr`` (an uncorrectable stuck line).

        The *durable* image is always mutated. The *visible* image
        follows only where the covered line is clean — a dirty line
        means the cache still holds the good data and masks the media
        until the next writeback.

        Returns a summary dict (``kind``, ``addr``, ``bit``, ``masked``).
        """
        self._check(addr, 1)
        if kind not in CORRUPTION_KINDS:
            raise MemoryAccessError(
                f"unknown corruption kind {kind!r}; known: {CORRUPTION_KINDS}"
            )
        line = addr // CACHELINE
        start = line * CACHELINE
        end = min(start + CACHELINE, self.size)
        bit = None
        if kind == "bitflip":
            bit = int(rng.integers(8)) if rng is not None else 0
            self._dmap[addr] ^= 1 << bit
        else:  # zero_line
            self._dmap[start:end] = bytes(end - start)
        self._touched[addr // CHUNK] = 1
        masked = bool(self._dirty[line])
        if not masked:
            self._vmap[start:end] = self.durable[start:end]
        self.stats.corruptions += 1
        return {"kind": kind, "addr": addr, "bit": bit, "masked": masked}

    def flush_torn(
        self, addr: int, length: int, rng: np.random.Generator
    ) -> int:
        """Flush the range but leave one aligned 8-byte word behind — a
        torn store: the CLWB for that word's line was issued but the
        write-back was dropped before the ADR domain (a modelled media
        write fault on the persist path).

        The un-persisted word's line is re-marked dirty, so a later
        flush honestly repairs it; only a crash before that exposes the
        tear. Returns #lines written back (like :meth:`flush`).
        """
        self._check(addr, length)
        if length < ATOMIC_WORD:
            return self.flush(addr, length)
        first = (addr + ATOMIC_WORD - 1) // ATOMIC_WORD
        last = (addr + length) // ATOMIC_WORD  # one-past-last full word
        if last <= first:
            return self.flush(addr, length)
        word = int(rng.integers(first, last))
        ws = word * ATOMIC_WORD
        saved = self._dmap[ws : ws + ATOMIC_WORD]
        n = self.flush(addr, length)
        self._dmap[ws : ws + ATOMIC_WORD] = saved
        self._dirty[ws // CACHELINE] = True
        self.stats.torn_stores += 1
        return n

    # -- whole-image judgements ------------------------------------------------
    def _pieces(self, ranges: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
        """``(addr, length)`` of each run of ``ranges`` that lies inside
        one touched chunk, in order — all of the ranges that can hold a
        non-zero byte."""
        self._require_live()
        touched = self._touched
        pieces = []
        for addr, length in ranges:
            self._check(addr, length)
            if length == 0:
                continue
            end = addr + length
            hi = (end - 1) // CHUNK + 1
            chunk = touched.find(1, addr // CHUNK, hi)
            while chunk != -1:
                lo = max(addr, chunk * CHUNK)
                pieces.append((lo, min(end, (chunk + 1) * CHUNK) - lo))
                chunk = touched.find(1, chunk + 1, hi)
        return pieces

    def _gather(self, pieces: Iterable[tuple[int, int]]) -> tuple[bytes, bytes]:
        return (
            b"".join(self.durable[a : a + n] for a, n in pieces),
            b"".join(self.visible[a : a + n] for a, n in pieces),
        )

    def snapshot(self, *ranges: tuple[int, int]) -> ImageSnapshot:
        """Record what ``durable`` and ``visible`` hold — over the whole
        buffer, or only the given ``(addr, length)`` ranges — for a later
        :meth:`same_image`, copying the touched chunks' share of it. Not
        counted in ``bytes_read``: this is the harness looking at the
        device, not a modelled load."""
        ranges = ranges or ((0, self.size),)
        pieces = self._pieces(ranges)
        return ImageSnapshot(self.size, ranges, tuple(pieces), *self._gather(pieces))

    def same_image(self, snap: ImageSnapshot) -> bool:
        """True when both images hold, over the ranges ``snap`` covers,
        exactly the bytes they held when it was taken (which may have
        been in another buffer of this size). The pieces it copied are
        gathered (one copy) and compared; a chunk of its ranges stored to
        only since, or only in this buffer, it saw as zeros."""
        self._require_live()
        if snap.size != self.size:
            return False
        if self._gather(snap.pieces) != (snap.durable, snap.visible):
            return False
        fresh = set(self._pieces(snap.ranges)).difference(snap.pieces)
        durable, visible = self._gather(fresh)
        return not (durable.strip(b"\0") or visible.strip(b"\0"))

    def fingerprint(self, *ranges: tuple[int, int]) -> str:
        """Printable SHA-256 fingerprint of both images over the whole
        buffer, or over the given ``(addr, length)`` ranges: two buffers
        have equal fingerprints iff they have equal sizes and equal bytes
        there. Hashed are the size, the ranges and, per image, ``(tag,
        addr, length, bytes)`` of every piece that is not all-zero — an
        injective encoding that does not depend on which all-zero chunks
        happen to have been stored to. For a value that leaves the
        process; to compare two instants inside it use :meth:`snapshot` /
        :meth:`same_image`."""
        ranges = ranges or ((0, self.size),)
        pieces = self._pieces(ranges)
        h = hashlib.sha256(struct.pack("<QQ", self.size, len(ranges)))
        for addr, length in ranges:
            h.update(struct.pack("<QQ", addr, length))
        for tag, image in ((b"D", self._dmap), (b"V", self._vmap)):
            for addr, length in pieces:
                data = image[addr : addr + length]
                if data != _ZERO_CHUNK[:length]:
                    h.update(_PIECE.pack(tag, addr, length))
                    h.update(data)
        return h.hexdigest()

    def release(self) -> None:
        """Unmap both images now; the buffer is unusable afterwards (see
        the module docstring for the release rule). Idempotent."""
        if self.visible is None:
            return
        for view, mapping in ((self.visible, self._vmap), (self.durable, self._dmap)):
            try:
                view.release()
                mapping.close()
            except BufferError:
                # A caller still holds a window (``view()``, a slice of an
                # image): the mapping goes when that does.
                pass
        self.visible = self.durable = self._vmap = self._dmap = None
        # No range fits now, not even an empty one: every bounds check
        # fails and reports the release, at no cost to a live buffer.
        self.size = -1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.visible is None:
            return "<PersistentBuffer released>"
        return (
            f"<PersistentBuffer size={self.size} "
            f"dirty_lines={self.dirty_line_count()}>"
        )
