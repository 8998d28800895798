"""Wire-level accounting: each scheme issues exactly the verbs its
paper description says it does (Figure 8's access paradigms).

The endpoint counts every verb, so a protocol regression (an extra
round trip sneaking into a path) fails here even if latencies stay
plausible.
"""

import pytest

from repro.core import EFactoryServer
from repro.sim.kernel import Environment
from tests.conftest import run1, small_store

KEY = b"key-00000000wire"


def _ops_delta(client, fn):
    """Verb counts issued by `fn` on the client's endpoint."""
    before = dict(client.ep.stats)
    run1(client.env, fn())
    after = client.ep.stats
    return {
        k: after.get(k, 0) - before.get(k, 0)
        for k in sorted(set(after) | set(before))
        if after.get(k, 0) != before.get(k, 0)
    }


class TestPutWire:
    def test_ca_put_is_send_plus_write(self, env):
        setup = small_store("ca", env)
        c = setup.client()
        delta = _ops_delta(c, lambda: c.put(KEY, b"v" * 64))
        assert delta == {"send": 1, "write": 1}

    def test_saw_put_adds_the_persist_send(self, env):
        setup = small_store("saw", env)
        c = setup.client()
        delta = _ops_delta(c, lambda: c.put(KEY, b"v" * 64))
        assert delta == {"send": 2, "write": 1}

    def test_imm_put_uses_write_with_imm(self, env):
        setup = small_store("imm", env)
        c = setup.client()
        delta = _ops_delta(c, lambda: c.put(KEY, b"v" * 64))
        assert delta == {"send": 1, "write_with_imm": 1}

    def test_rpc_put_is_one_send(self, env):
        setup = small_store("rpc", env)
        c = setup.client()
        delta = _ops_delta(c, lambda: c.put(KEY, b"v" * 64))
        assert delta == {"send": 1}

    @pytest.mark.parametrize("store", ["efactory", "erda", "forca"])
    def test_client_active_put_is_send_plus_write(self, env, store):
        setup = small_store(store, env)
        c = setup.client()
        delta = _ops_delta(c, lambda: c.put(KEY, b"v" * 64))
        assert delta == {"send": 1, "write": 1}


class TestGetWire:
    def _settled(self, env, store):
        setup = small_store(store, env)
        c = setup.client()
        run1(env, c.put(KEY, b"v" * 64))
        env.run(until=env.now + 1_000_000)  # durable where applicable
        return c

    @pytest.mark.parametrize("store", ["ca", "saw", "imm"])
    def test_two_reads(self, env, store):
        c = self._settled(env, store)
        delta = _ops_delta(c, lambda: c.get(KEY, size_hint=64))
        assert delta == {"read": 2}

    def test_efactory_pure_get_is_two_reads(self, env):
        c = self._settled(env, "efactory")
        delta = _ops_delta(c, lambda: c.get(KEY, size_hint=64))
        assert delta == {"read": 2}

    def test_efactory_fallback_get_adds_rpc_and_reread(self, env, monkeypatch):
        """During a read-write race: bucket READ + object READ (flag not
        set) + SEND (RPC) + final READ — Figure 6's full 9-step path."""
        monkeypatch.setattr(EFactoryServer, "bg_retry_delay_ns", 1e7)
        setup = small_store("efactory", env)
        c = setup.client()
        run1(env, c.put(KEY, b"v" * 4096))  # not yet durable
        delta = _ops_delta(c, lambda: c.get(KEY, size_hint=4096))
        assert delta == {"read": 3, "send": 1}

    def test_erda_clean_get_is_two_reads(self, env):
        c = self._settled(env, "erda")
        delta = _ops_delta(c, lambda: c.get(KEY, size_hint=64))
        assert delta == {"read": 2}

    def test_erda_torn_head_costs_a_third_read(self, env):
        setup = small_store("erda", env)
        c = setup.client()

        def two_puts():
            yield from c.put(KEY, b"A" * 64)
            yield from c.put(KEY, b"B" * 64)

        run1(env, two_puts())
        from repro.kv.hashtable import key_fingerprint
        from repro.kv.objects import HEADER_SIZE

        (part,) = setup.server.partitions
        found = part.table.lookup(key_fingerprint(KEY))
        part.pools[0].write(
            found[1].off1 + HEADER_SIZE + len(KEY), b"XX"
        )
        delta = _ops_delta(c, lambda: c.get(KEY, size_hint=64))
        assert delta == {"read": 3}  # neighborhood + torn head + previous

    def test_forca_get_is_rpc_plus_read(self, env):
        c = self._settled(env, "forca")
        delta = _ops_delta(c, lambda: c.get(KEY, size_hint=64))
        assert delta == {"send": 1, "read": 1}

    def test_rpc_get_is_one_send(self, env):
        c = self._settled(env, "rpc")
        delta = _ops_delta(c, lambda: c.get(KEY, size_hint=64))
        assert delta == {"send": 1}
