"""Output oracle for the driver workloads.

Values are self-describing (``repro.workloads.parse_value``), so the bytes a
GET returns say which PUT wrote them. The oracle checks each GET twice:

* **in the run** (:meth:`Oracle.observe_get`): the value parses, carries
  the requested key id, and names a version that was generated for that key;
* **after the measured phase**, outside the timed window
  (:meth:`Oracle.audit`): no GET returned a version whose PUT had not begun
  by the time the GET ended, and no GET returned version *v* when another
  acknowledged PUT to the same key began after *v* was acknowledged and
  finished before the GET began. Version numbers alone are not store order
  when two clients write one key, so the check uses the recorded simulated
  start/end times. The final GET of every key after quiesce goes through the
  same rule, which makes it "an intact, non-superseded version".
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from repro.workloads import parse_value

__all__ = ["OpRecord", "Oracle"]

_KEPT_MESSAGES = 10


class OpRecord(NamedTuple):
    """One operation, on the simulated clock (the trace's op span)."""

    client: int
    kind: str  # "get" | "put"
    key_id: int
    #: PUT: the version written. GET: the version returned, -1 when the
    #: value did not parse (counted as failed only for stores that promise
    #: intact reads).
    version: int
    due: float
    start: float
    end: float
    ok: bool


class Oracle:
    """Counts wrong outputs of one store run; keeps the first few messages."""

    def __init__(self, versions_per_key: list[int], consistent_get: bool) -> None:
        self._versions_per_key = versions_per_key
        self._consistent_get = consistent_get
        self.failed = 0
        self.messages: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < _KEPT_MESSAGES:
            self.messages.append(message)

    def raised(self, kind: str, key_id: int, exc: Exception) -> None:
        """An op raised or was refused for good."""
        self._fail(f"key {key_id}: {kind} raised {type(exc).__name__}: {exc}")

    def observe_get(self, key_id: int, value: bytes) -> int:
        """In-run check of one GET's bytes; returns the version read, or -1."""
        parsed = parse_value(value)
        if parsed is None:
            if self._consistent_get:
                self._fail(f"key {key_id}: GET returned a torn or foreign value")
            return -1
        got_key, version = parsed
        if got_key != key_id:
            self._fail(f"key {key_id}: GET returned a value of key {got_key}")
            return -1
        if version > self._versions_per_key[key_id]:
            self._fail(f"key {key_id}: GET returned version {version}, never generated")
            return -1
        return version

    def audit(self, records: list[OpRecord]) -> None:
        """Real-time staleness check over the recorded history."""
        inf = float("inf")
        # key -> version -> (start, acknowledged end); preload is version 0.
        puts: dict[int, dict[int, tuple[float, float]]] = {}
        for r in records:
            if r.kind == "put":
                puts.setdefault(r.key_id, {})[r.version] = (
                    r.start, r.end if r.ok else inf,
                )
        # key -> (starts ascending, suffix-minimum of acknowledged ends)
        index: dict[int, tuple[list[float], list[float]]] = {}
        for key_id, by_version in puts.items():
            acked = sorted(se for se in by_version.values() if se[1] != inf)
            starts = [s for s, _ in acked]
            suffix_min = [e for _, e in acked]
            for i in range(len(suffix_min) - 2, -1, -1):
                if suffix_min[i + 1] < suffix_min[i]:
                    suffix_min[i] = suffix_min[i + 1]
            index[key_id] = (starts, suffix_min)

        for r in records:
            if r.kind != "get" or not r.ok or r.version < 0:
                continue
            if r.version == 0:
                put_start, put_end = -inf, -inf
            else:
                written = puts.get(r.key_id, {}).get(r.version)
                if written is None:
                    self._fail(
                        f"key {r.key_id}: GET returned version {r.version}, never issued"
                    )
                    continue
                put_start, put_end = written
            if put_start > r.end:
                self._fail(
                    f"key {r.key_id}: GET ending at {r.end:.0f} ns returned version "
                    f"{r.version}, whose PUT began at {put_start:.0f} ns"
                )
                continue
            starts, suffix_min = index.get(r.key_id, ((), ()))
            i = bisect_right(starts, put_end)
            if i < len(starts) and suffix_min[i] < r.start:
                self._fail(
                    f"key {r.key_id}: GET beginning at {r.start:.0f} ns returned "
                    f"version {r.version}, superseded by a PUT acknowledged at "
                    f"{suffix_min[i]:.0f} ns"
                )
