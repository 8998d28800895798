"""A store's scheme is its class, not a config flag.

eFactory's metadata persist before the alloc ack (§4.3.1) and its second
pool for log cleaning (§4.4), Forca's metadata indirection (§6.1) and
the "w/o hr" read (§6.1) live on the server and client classes, and so
do the handler CPU costs (Erda's costlier hopscotch ``index_ns``
included). A server built directly, without the registry, is already
its paper scheme; ``StoreSpec`` adds only the recovery pass and the
guarantees a report checks. The same rule holds for the cluster's
protocol timings, the harness specs, the retry policy, the arrival
curve, the store timings only tests set and the modelled hardware (DDIO,
NVM timing, CRC time): such a value is a constant of the code that reads
it, not a field, and a test that needs another value sets it on the class.
"""

from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.baselines import BaseServer, CAServer, ErdaServer, ForcaServer, StoreConfig
from repro.baselines import BaseClient
from repro.core import (
    EFactoryClient,
    EFactoryConfig,
    EFactoryNoHrClient,
    EFactoryServer,
    recover_bucketized,
    recover_erda,
)
from repro.cluster import build_cluster
from repro.cluster.config import ClusterConfig
from repro.crc.cost import CRC_COST, CrcCostModel
from repro.faults.policy import RetryPolicy
from repro.harness import scaffold
from repro.harness.chaos import ChaosSpec
from repro.harness.crashmatrix import CrashMatrixSpec
from repro.loadgen.arrivals import ArrivalCurve
from repro.loadgen.engine import LoadSpec, run_load
from repro.loadgen.tenants import TenantSpec
from repro.kv.hashtable import key_fingerprint
from repro.kv.objects import HEADER_SIZE
from repro.nvm.device import NVMTiming
from repro.rdma.fabric import Fabric
from repro.sim.kernel import Environment
from repro.stores import STORES
from repro.workloads.ycsb import ycsb_b
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
        assert server.device.buffer.is_persistent(header_addr, HEADER_SIZE + len(KEY))
        entry_off = part.table.find(key_fingerprint(KEY))
        assert entry_off is not None
        assert server.device.buffer.is_persistent(part.table.base + entry_off, 8)

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
            "num_partitions", "server_cores", "admission_watermark",
        ]
        assert [f.name for f in fields(EFactoryConfig)][len(fields(StoreConfig)):] == [
            "auto_clean", "bg_batch", "scrub_interval_ns", "parity_stripe_kb",
        ]

    @pytest.mark.parametrize("key", ["nvm_timing", "crc_cost", "ddio"])
    def test_a_store_config_takes_no_hardware_model(self, key, env):
        """The modelled hardware is no deployment option: each model
        sits, unchanged, beside the code that reads it, and no store's
        config accepts it."""
        server = CAServer(env, Fabric(env))
        homes = {
            "nvm_timing": server.device.timing, "crc_cost": CRC_COST, "ddio": server.ddio,
        }
        assert homes == {
            "nvm_timing": NVMTiming(), "crc_cost": CrcCostModel(), "ddio": True,
        }
        for spec in STORES.values():
            with pytest.raises(TypeError):
                spec.config(**{key: homes[key]})

    @pytest.mark.parametrize(
        "key, value",
        [("bg_batch", 8), ("scrub_interval_ns", 2_000.0), ("parity_stripe_kb", 4)],
    )
    @pytest.mark.parametrize("store", ["ca", "rpc", "saw", "imm", "erda", "forca"])
    def test_a_baseline_takes_no_efactory_option(self, store, key, value):
        """The verifier's batch, the scrubber and the parity tier are
        eFactory's: a baseline has none to configure."""
        assert STORES[store].server_cls.config_cls is StoreConfig
        with pytest.raises(TypeError):
            STORES[store].config(**{key: value})
        assert getattr(STORES["efactory"].config(**{key: value}), key) == value

    @pytest.mark.parametrize(
        "key, home, value",
        [
            ("verify_timeout_ns", BaseServer, 50_000.0),
            ("bg_idle_poll_ns", EFactoryServer, 2_000.0),
            ("bg_retry_delay_ns", EFactoryServer, 3_000.0),
            ("put_batch", BaseClient, 16),
            ("put_window", BaseClient, 2),
            ("recv_batching", EFactoryServer, 0.5),
            ("adaptive_ttl_ns", EFactoryClient, 30_000.0),
        ],
    )
    def test_a_timing_is_a_class_attribute(self, key, home, value):
        """Each value sits, unchanged, on the class that reads it; as a
        config override it is a ``TypeError``."""
        assert getattr(home, key) == value
        with pytest.raises(TypeError):
            STORES["efactory"].config(**{key: value})

    @pytest.mark.parametrize(
        "key, value", [("loc_cache_size", 0), ("adaptive_read", False)]
    )
    def test_a_read_extension_is_a_client_attribute(self, key, value):
        """The location cache and the adaptive read are the client's:
        each defaults off on ``EFactoryClient``, every client of both
        eFactory stores reads it there, and no store's config takes it."""
        assert getattr(EFactoryClient, key) == value
        for store in ("efactory", "efactory_nohr"):
            client = small_store(store, Environment()).client(0)
            assert getattr(client, key) == value
        for spec in STORES.values():
            with pytest.raises(TypeError):
                spec.config(**{key: value})

    def test_reserve_fraction_is_the_log_pools(self, env):
        with pytest.raises(TypeError):
            STORES["efactory"].config(reserve_fraction=0.1)
        server = EFactoryServer(env, Fabric(env))
        assert {p.reserve_fraction for p in server.partitions[0].pools} == {0.1}

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


class TestSpecsArePinned:
    """Every field below is one some caller sets; a new knob shows up
    here as a test diff."""

    def test_cluster_config_fields(self):
        assert [f.name for f in fields(ClusterConfig)] == [
            "n_nodes", "replication_factor", "verify_promotion", "drain_grace_ns",
        ]

    def test_a_protocol_timing_is_no_cluster_override(self, env):
        with pytest.raises(TypeError):
            build_cluster(env, cluster_overrides={"ship_batch": 4})

    def test_load_spec_fields(self):
        assert [f.name for f in fields(LoadSpec)] == [
            "tenants", "store", "seed", "completion_batching", "batch_bucket_ns",
            "admission_watermark", "churn_rotate_every", "settle_ns",
            "config_overrides", "fault_plan",
        ]

    def test_chaos_spec_fields(self):
        assert [f.name for f in fields(ChaosSpec)] == [
            "store", "plan", "seed", "n_clients", "ops_per_client", "key_count",
            "key_len", "value_len", "settle_ns", "config_overrides",
            "plan_overrides", "trace", "parity", "nodes", "replication",
            "cluster_overrides", "migration",
        ]
        with pytest.raises(TypeError):
            ChaosSpec(policy=RetryPolicy())

    def test_retry_policy_fields(self):
        """The loadgen engine and the benchmark driver set the deadline;
        the rest of the policy is class constants."""
        assert [f.name for f in fields(RetryPolicy)] == ["timeout_ns"]
        assert RetryPolicy.max_retries == 6
        with pytest.raises(TypeError):
            RetryPolicy(max_retries=1)

    def test_arrival_curve_fields(self):
        """The CLI's ``--curve`` sets the kind; the shape is class
        constants."""
        assert [f.name for f in fields(ArrivalCurve)] == ["kind"]
        assert ArrivalCurve.burst_factor == 4.0
        with pytest.raises(TypeError):
            ArrivalCurve(amplitude=0.1)

    def test_crash_matrix_spec_fields(self):
        assert [f.name for f in fields(CrashMatrixSpec)] == [
            "store", "seed", "n_clients", "key_count", "key_len", "value_len",
            "ops_per_client", "read_fraction", "evict_probability", "sites",
            "max_per_site", "recovery_points", "replay", "settle_ns",
            "config_overrides",
        ]

    @pytest.mark.parametrize("watermark", [0, 2])
    def test_loadgen_resilience_is_admission(self, watermark):
        """Clients retry exactly when admission control can shed them."""
        tenant = TenantSpec(
            name="t0", workload=ycsb_b(key_count=32, value_len=64),
            clients=2, ops_per_client=5, rate_ops_s=2 * 100_000.0,
        )
        spec = LoadSpec(
            tenants=(tenant,), admission_watermark=watermark, settle_ns=1_000_000.0
        )
        report = run_load(spec).as_dict()
        assert report["resilience"]["enabled"] is (watermark > 0)
        with pytest.raises(TypeError):
            LoadSpec(tenants=(tenant,), retry=True)
