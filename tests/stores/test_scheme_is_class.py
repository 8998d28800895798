"""A store's scheme is its class, not a config flag.

eFactory's metadata persist before the alloc ack (§4.3.1) and its second
pool for log cleaning (§4.4), Forca's metadata indirection (§6.1) and
the "w/o hr" read (§6.1) live on the server and client classes, and so
do the handler CPU costs (Erda's costlier hopscotch ``index_ns``
included). A server built directly, without the registry, is already
its paper scheme; ``StoreSpec`` adds only the recovery pass and the
guarantees a report checks.
"""

from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.baselines import BaseServer, CAServer, ErdaServer, ForcaServer, StoreConfig
from repro.core import (
    EFactoryClient,
    EFactoryConfig,
    EFactoryNoHrClient,
    EFactoryServer,
    recover_bucketized,
    recover_erda,
)
from repro.harness import scaffold
from repro.kv.hashtable import key_fingerprint
from repro.kv.objects import HEADER_SIZE
from repro.rdma.fabric import Fabric
from repro.stores import STORES
from tests.conftest import run1, small_store

KEY = b"scheme-key-0"


def _elapsed(env, gen) -> float:
    start = env.now
    run1(env, gen)
    return env.now - start


class TestEFactoryServerIsItsScheme:
    def test_two_pools_per_partition(self, env):
        server = EFactoryServer(env, Fabric(env), EFactoryConfig())
        assert [len(p.pools) for p in server.partitions] == [2]

    def test_alloc_ack_follows_header_and_entry_flush(self, env):
        server = EFactoryServer(env, Fabric(env), EFactoryConfig())
        client = EFactoryClient(env, server, name="c")
        server.start()
        resp = run1(env, client.alloc_rpc(KEY, 64, 0))

        part = server.partitions[resp.get("part", 0)]
        pool = part.pools[resp["pool"]]
        header_addr = pool.abs_addr(resp["obj_off"])
        assert server.device.is_persistent(header_addr, HEADER_SIZE + len(KEY))
        entry_off = part.table.find(key_fingerprint(KEY))
        assert entry_off is not None
        assert server.device.is_persistent(part.table.base + entry_off, 8)

    def test_default_config_is_the_class_config(self, env):
        server = EFactoryServer(env, Fabric(env))
        assert type(server.config) is EFactoryConfig


class TestForcaIndirection:
    def test_charged_on_alloc(self, env):
        def alloc_ns(server_cls) -> float:
            server = server_cls(env, Fabric(env), StoreConfig())
            part = server.partitions[0]
            return _elapsed(env, part.alloc_object(KEY, 64, 0))

        assert alloc_ns(ForcaServer) - alloc_ns(CAServer) == 120.0

    def test_charged_on_get_loc(self, env):
        server = ForcaServer(env, Fabric(env))
        msg = SimpleNamespace(payload={"key": KEY})  # the handler reads only this
        took = _elapsed(env, server._handle_get_loc(server.partitions[0], msg))
        assert took == server.index_ns + 120.0


class TestStoreSpec:
    def test_config_is_the_server_config_type(self):
        for spec in STORES.values():
            assert type(spec.config()) is spec.server_cls.config_cls

    def test_config_is_the_config_type_default(self):
        for spec in STORES.values():
            assert spec.config() == spec.server_cls.config_cls()

    def test_erda_index_default_and_override(self, env):
        """Erda's costlier hopscotch insert is its class's default; a
        handler cost is no config field, so there is nothing to override."""
        assert ErdaServer.index_ns == 100.0
        assert ForcaServer.index_ns == BaseServer.index_ns == 60.0
        assert ErdaServer(env, Fabric(env)).index_ns == 100.0
        with pytest.raises(TypeError):
            STORES["erda"].config(index_ns=55.0)

    def test_config_fields_are_pinned(self):
        """A new knob shows up here as a test diff."""
        assert [f.name for f in fields(StoreConfig)] == [
            "pool_size", "table_buckets", "slots_per_bucket", "probe_limit",
            "num_partitions", "server_cores", "ddio", "verify_timeout_ns",
            "bg_idle_poll_ns", "bg_retry_delay_ns", "bg_batch", "put_batch",
            "put_window", "scrub_interval_ns", "admission_watermark",
            "parity_stripe_kb", "reserve_fraction", "crc_cost", "nvm_timing",
        ]
        assert [f.name for f in fields(EFactoryConfig)][len(fields(StoreConfig)):] == [
            "recv_batching", "auto_clean", "adaptive_read", "adaptive_ttl_ns",
            "loc_cache_size",
        ]

    def test_scheme_facts_are_not_config_fields(self):
        names = {f.name for f in fields(EFactoryConfig)}
        assert names.isdisjoint(
            {"persist_meta", "dual_pools", "meta_indirection_ns", "hybrid_read"}
        )

    def test_nohr_is_a_client_class(self):
        assert STORES["efactory_nohr"].client_cls is EFactoryNoHrClient
        assert STORES["efactory_nohr"].server_cls is EFactoryServer
        assert EFactoryNoHrClient.hybrid_read is False
        assert EFactoryClient.hybrid_read is True

    @pytest.mark.parametrize(
        "store, procedure",
        [("efactory", recover_bucketized), ("forca", recover_bucketized),
         ("erda", recover_erda), ("ca", None)],
    )
    def test_recovery_pass(self, store, procedure):
        assert STORES[store].recover is procedure

    def test_scaffold_recovers_nothing_for_ca(self, env):
        setup = small_store("ca", env)
        run1(env, setup.client().put(KEY, b"v" * 16))
        assert scaffold.recover(setup) is None
