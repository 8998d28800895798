"""Small shared utilities (no simulation dependencies)."""

from collections.abc import Iterable, Mapping

from repro.util.lru import LruMap

__all__ = ["LruMap", "sum_counters"]


def sum_counters(dicts: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Per-key sum of counter dicts (one per partition, node or client),
    keys in first-seen order."""
    out: dict[str, int] = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + value
    return out
