"""Public API surface: registry, builders, package exports."""

import pytest

import repro
from repro.errors import ConfigError
from repro.sim import Environment
from repro.stores import STORES, build_store, store_names


class TestRegistry:
    def test_all_paper_systems_present(self):
        assert set(store_names()) == {
            "efactory",
            "efactory_nohr",
            "ca",
            "rpc",
            "saw",
            "imm",
            "erda",
            "forca",
        }

    def test_labels_match_paper(self):
        assert STORES["efactory"].label == "eFactory"
        assert STORES["ca"].label == "CA w/o persistence"
        assert STORES["efactory_nohr"].label == "eFactory w/o hr"

    def test_guarantee_flags(self):
        assert STORES["rpc"].durable_put and STORES["imm"].durable_put
        assert not STORES["efactory"].durable_put  # async durability
        assert STORES["efactory"].consistent_get
        assert not STORES["ca"].consistent_get

    def test_unknown_store_rejected(self):
        with pytest.raises(ConfigError, match="unknown store"):
            build_store("nope", Environment())

    def test_negative_clients_rejected(self):
        with pytest.raises(ConfigError):
            build_store("ca", Environment(), n_clients=-1)


class TestBuildStore:
    def test_builds_requested_clients(self):
        env = Environment()
        setup = build_store("efactory", env, n_clients=3)
        assert len(setup.clients) == 3
        assert setup.client(1) is setup.clients[1]

    def test_config_overrides_applied(self):
        env = Environment()
        setup = build_store("efactory", env, config_overrides={"bg_batch": 8})
        assert setup.server.config.bg_batch == 8

    def test_shared_fabric_possible(self):
        from repro.rdma.fabric import Fabric

        env = Environment()
        fabric = Fabric(env)
        a = build_store("ca", env, fabric=fabric)
        b = build_store("rpc", env, fabric=fabric)
        assert a.fabric is b.fabric

    def test_quickstart_from_docstring(self):
        env = Environment()
        setup = build_store("efactory", env, n_clients=1).start()
        client = setup.client()

        def demo():
            yield from client.put(b"k" * 12, b"hello")
            value = yield from client.get(b"k" * 12, size_hint=5)
            return value

        assert env.run(env.process(demo())) == b"hello"


class TestPackage:
    def test_version(self):
        assert repro.__version__

    def test_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.crc
        import repro.harness
        import repro.kv
        import repro.mem
        import repro.nvm
        import repro.rdma
        import repro.sim
        import repro.workloads
