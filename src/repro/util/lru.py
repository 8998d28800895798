"""A small bounded LRU map.

Shared by the client-side amortization state: the key→location cache
(skip the bucket READ on the pure GET path) and the adaptive-read skip
map (which previously grew one entry per key forever). Deliberately
simulation-free and deterministic: eviction order depends only on the
operation sequence.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Any, Callable, Iterator, Optional

__all__ = ["LruMap"]

_MISSING = object()


class LruMap:
    """Bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``peek`` does not. Inserting beyond
    ``capacity`` evicts the LRU entry (returned so callers can observe
    eviction). ``capacity <= 0`` disables the map entirely: every
    insert is dropped and every lookup misses, so a disabled cache
    costs one branch and keeps no state.
    """

    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._data: OrderedDict[Any, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def get(self, key: Any, default: Any = None) -> Any:
        """Lookup that refreshes the entry's recency on a hit."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def peek(self, key: Any, default: Any = None) -> Any:
        """Lookup without touching recency (tests / introspection)."""
        value = self._data.get(key, _MISSING)
        return default if value is _MISSING else value

    def put(self, key: Any, value: Any) -> Optional[tuple[Any, Any]]:
        """Insert/refresh ``key``; returns the evicted ``(key, value)``
        pair when the insert pushed an older entry out, else None."""
        if self.capacity <= 0:
            return None
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return None
        data[key] = value
        if len(data) > self.capacity:
            return data.popitem(last=False)
        return None

    def pop(self, key: Any, default: Any = None) -> Any:
        return self._data.pop(key, default)

    def clear(self) -> None:
        self._data.clear()

    def drop_where(self, predicate: Callable[[Any, Any], bool]) -> int:
        """Remove every entry for which ``predicate(key, value)`` holds;
        returns how many were dropped (cache invalidation sweeps)."""
        doomed = [k for k, v in self._data.items() if predicate(k, v)]
        for k in doomed:
            del self._data[k]
        return len(doomed)

    def evict_expired(
        self, is_expired: Callable[[Any, Any], bool], scan_limit: int = 4
    ) -> int:
        """Opportunistically drop up to ``scan_limit`` *oldest* entries
        that ``is_expired(key, value)`` says are dead. Called on the hot
        path, so it scans a bounded prefix instead of the whole map —
        repeated inserts sweep the expired tail out incrementally."""
        data = self._data
        dropped = 0
        for key in list(islice(data, scan_limit)):
            if is_expired(key, data[key]):
                del data[key]
                dropped += 1
        return dropped
