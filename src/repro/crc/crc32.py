"""CRC-32 (IEEE 802.3 polynomial, reflected) integrity checksums.

This is the *functional* integrity check the stores run over object
values — it really does detect the torn writes the crash model produces.
The simulated *time* the computation would take on the paper's Xeon is a
separate concern, modelled in :mod:`repro.crc.cost`.

Three entry points:

* :func:`crc32` — table-driven byte-at-a-time implementation, the
  self-contained reference.
* :func:`crc32_fast` — delegates to :func:`zlib.crc32` (same polynomial)
  for hot paths; property tests assert it matches :func:`crc32`
  bit-for-bit. Throughput simulations checksum hundreds of megabytes,
  which a pure-Python loop cannot sustain (guides: move the measured
  bottleneck to compiled code).
* :func:`crc32_combine` — CRC of a concatenation from per-part CRCs in
  O(log n) GF(2) matrix steps, used to verify chunked transfers without
  re-touching the data.
"""

from __future__ import annotations

import zlib

__all__ = ["CRC32_POLY", "crc32", "crc32_fast", "crc32_combine"]

#: Reflected IEEE polynomial.
CRC32_POLY = 0xEDB88320
_MASK = 0xFFFFFFFF


def _make_table() -> list[int]:
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ CRC32_POLY if c & 1 else c >> 1
        table.append(c)
    return table


_TABLE = _make_table()


def crc32(data: bytes | bytearray | memoryview, crc: int = 0) -> int:
    """Reference table-driven CRC-32; ``crc`` chains partial results.

    ``crc32(b + c) == crc32(c, crc32(b))`` for any split.
    """
    c = (crc & _MASK) ^ _MASK
    table = _TABLE
    for byte in bytes(data):
        c = table[(c ^ byte) & 0xFF] ^ (c >> 8)
    return (c ^ _MASK) & _MASK


def crc32_fast(data: bytes | bytearray | memoryview, crc: int = 0) -> int:
    """CRC-32 via :mod:`zlib` — identical results, C speed.

    ``data`` is read in place (any contiguous buffer). :func:`zlib.crc32`
    already takes ``crc`` modulo 2**32 and returns an unsigned 32-bit
    value, so nothing is masked here.
    """
    return zlib.crc32(data, crc)


# -- crc combination (zlib-style GF(2) matrix trick) -------------------------


def _gf2_matrix_times(mat: list[int], vec: int) -> int:
    total = 0
    idx = 0
    while vec:
        if vec & 1:
            total ^= mat[idx]
        vec >>= 1
        idx += 1
    return total


def _gf2_matrix_square(square: list[int], mat: list[int]) -> None:
    for i in range(32):
        square[i] = _gf2_matrix_times(mat, mat[i])


def crc32_combine(crc_a: int, crc_b: int, len_b: int) -> int:
    """CRC of ``A + B`` given ``crc32(A)``, ``crc32(B)`` and ``len(B)``.

    Implements zlib's crc32_combine: advances ``crc_a`` through
    ``len_b`` zero bytes using repeated squaring of the CRC shift
    operator over GF(2), then XORs in ``crc_b``.
    """
    if len_b < 0:
        raise ValueError(f"len_b must be >= 0, got {len_b}")
    if len_b == 0:
        return crc_a & _MASK

    even = [0] * 32  # even-power-of-two zero operator
    odd = [0] * 32  # odd-power operator

    # operator for one zero bit
    odd[0] = CRC32_POLY
    row = 1
    for i in range(1, 32):
        odd[i] = row
        row <<= 1
    # put operator for two zero bits in even
    _gf2_matrix_square(even, odd)
    # put operator for four zero bits in odd
    _gf2_matrix_square(odd, even)

    crc = crc_a & _MASK
    while True:
        # apply len_b zero *bytes*, one bit of len at a time
        _gf2_matrix_square(even, odd)
        if len_b & 1:
            crc = _gf2_matrix_times(even, crc)
        len_b >>= 1
        if len_b == 0:
            break
        _gf2_matrix_square(odd, even)
        if len_b & 1:
            crc = _gf2_matrix_times(odd, crc)
        len_b >>= 1
        if len_b == 0:
            break

    return (crc ^ (crc_b & _MASK)) & _MASK
