"""DELETE path: index cleanup, slot consistency, interaction with updates.

``TestDelete`` in test_efactory.py covers the happy path; this file
pins down the index-level invariants — both slots cleared, the object
invalidated in the log, and correct behaviour when the entry holds an
alternative (older) version at delete time.
"""

import pytest

from repro.baselines.base import ObjectLocation
from repro.rdma.rpc import RpcFault
from tests.conftest import run1, small_store

KEY = b"key-000000000042"


def _entry(server, key):
    part = server.partition_for_key(key)
    return part, part.lookup_slot(key)


class TestDeleteIndexState:
    def test_delete_clears_both_slots(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            # two versions so the entry has cur *and* alt populated
            yield from c.put(KEY, b"one" * 21 + b"x")
            yield from c.put(KEY, b"two" * 21 + b"y")
            yield from c.delete(KEY)

        run1(env, work())
        part, found = _entry(setup.server, KEY)
        assert found is not None
        _, cur, alt = found
        assert cur is None and alt is None

    def test_delete_invalidates_log_object(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def put_it():
            yield from c.put(KEY, b"d" * 64)

        run1(env, put_it())
        part, found = _entry(setup.server, KEY)
        loc = ObjectLocation(
            pool=found[1].pool, offset=found[1].offset, size=found[1].size
        )

        def drop_it():
            yield from c.delete(KEY)

        run1(env, drop_it())
        img = part.read_object(loc)
        assert not img.valid  # recovery must not resurrect the key

    def test_deleted_key_is_gone_via_both_read_paths(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"g" * 64)
            yield from c.delete(KEY)

        run1(env, work())

        def read_rpc():
            return (yield from c._rpc_read(KEY))

        with pytest.raises(RpcFault):
            run1(env, read_rpc())

        def read_hybrid():
            return (yield from c.get(KEY, size_hint=64))

        with pytest.raises(RpcFault):
            run1(env, read_hybrid())

    def test_delete_missing_key_is_rpc_error(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.delete(b"key-000000nothere")

        with pytest.raises(RpcFault) as exc:
            run1(env, work())
        assert "not found" in str(exc.value)

    def test_delete_then_reinsert_starts_fresh_chain(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"aaa" * 21 + b"a")
            yield from c.put(KEY, b"bbb" * 21 + b"b")
            yield from c.delete(KEY)
            yield from c.put(KEY, b"ccc" * 21 + b"c")
            return (yield from c.get(KEY, size_hint=64))

        value = run1(env, work())
        assert value[:3] == b"ccc"
        part, found = _entry(setup.server, KEY)
        _, cur, alt = found
        assert cur is not None
        assert alt is None  # no stale alternative survives the delete

    def test_delete_after_cleaning_cycle(self, env):
        """Deleting a compacted key clears the relocated slot too."""
        setup = small_store("efactory", env)
        c = setup.client()

        def fill():
            for v in range(3):
                yield from c.put(KEY, f"v{v:03d}".encode() + b"f" * 60)

        run1(env, fill())
        env.run(until=env.now + 500_000)
        env.run(setup.server.trigger_cleaning())

        def drop():
            yield from c.delete(KEY)

        run1(env, drop())
        part, found = _entry(setup.server, KEY)
        _, cur, alt = found
        assert cur is None and alt is None

        def read_back():
            return (yield from c.get(KEY, size_hint=64))

        with pytest.raises(RpcFault):
            run1(env, read_back())
