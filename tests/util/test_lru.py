"""The bounded LRU map shared by the location cache and skip map."""

from collections import OrderedDict

from repro.util import LruMap


class _CountingDict(OrderedDict):
    """Counts the keys handed out by iteration."""

    iterated = 0

    def __iter__(self):
        for key in super().__iter__():
            self.iterated += 1
            yield key


class TestBasics:
    def test_put_get_roundtrip(self):
        m = LruMap(4)
        m.put("a", 1)
        assert m.get("a") == 1
        assert m.peek("a") == 1
        assert len(m) == 1
        assert "a" in m

    def test_miss_returns_default(self):
        m = LruMap(4)
        assert m.get("nope") is None
        assert m.get("nope", 7) == 7
        assert m.peek("nope", 7) == 7

    def test_pop_and_clear(self):
        m = LruMap(4)
        m.put("a", 1)
        assert m.pop("a") == 1
        assert m.pop("a", "gone") == "gone"
        m.put("b", 2)
        m.clear()
        assert len(m) == 0


class TestEviction:
    def test_capacity_evicts_lru(self):
        m = LruMap(2)
        m.put("a", 1)
        m.put("b", 2)
        evicted = m.put("c", 3)
        assert evicted == ("a", 1)
        assert "a" not in m and "b" in m and "c" in m

    def test_get_refreshes_recency(self):
        m = LruMap(2)
        m.put("a", 1)
        m.put("b", 2)
        m.get("a")  # a is now most-recent
        evicted = m.put("c", 3)
        assert evicted == ("b", 2)

    def test_peek_does_not_refresh(self):
        m = LruMap(2)
        m.put("a", 1)
        m.put("b", 2)
        m.peek("a")
        evicted = m.put("c", 3)
        assert evicted == ("a", 1)

    def test_reinsert_refreshes_without_eviction(self):
        m = LruMap(2)
        m.put("a", 1)
        m.put("b", 2)
        assert m.put("a", 10) is None  # refresh, not insert
        assert m.get("a") == 10
        assert len(m) == 2


class TestDisabled:
    def test_zero_capacity_is_stateless(self):
        m = LruMap(0)
        assert m.put("a", 1) is None
        assert m.get("a") is None
        assert len(m) == 0

    def test_negative_capacity_is_stateless(self):
        m = LruMap(-3)
        m.put("a", 1)
        assert "a" not in m


class TestSweeps:
    def test_drop_where(self):
        m = LruMap(8)
        for i in range(6):
            m.put(i, i % 2)
        dropped = m.drop_where(lambda _k, v: v == 1)
        assert dropped == 3
        assert sorted(m) == [0, 2, 4]

    def test_evict_expired_scans_lru_prefix_only(self):
        m = LruMap(8)
        for i in range(8):
            m.put(i, "dead" if i < 6 else "live")
        dropped = m.evict_expired(lambda _k, v: v == "dead", scan_limit=4)
        assert dropped == 4
        assert len(m) == 4  # 2 dead stragglers + 2 live remain

    def test_evict_expired_keeps_live_entries(self):
        m = LruMap(8)
        m.put("x", "live")
        assert m.evict_expired(lambda _k, v: v == "dead") == 0
        assert "x" in m

    def test_evict_expired_examines_only_the_oldest_scan_limit(self):
        m = LruMap(4096)
        m._data = _CountingDict()
        for i in range(4096):
            m.put(i, "dead" if i % 2 else "live")
        m.get(1)  # refreshed: no longer among the oldest
        seen = []

        def expired(key, value):
            seen.append(key)
            return value == "dead"

        assert m.evict_expired(expired, scan_limit=4) == 1
        assert seen == [0, 2, 3, 4]
        assert m._data.iterated == 4  # a prefix, not a copy of every key
        assert list(m)[:3] == [0, 2, 4] and 3 not in m and 1 in m
