#!/usr/bin/env python3
"""Quickstart: deploy an eFactory store in simulation and use it.

Shows the public API end to end: build a store, run client operations
as simulated processes, inspect the hybrid-read statistics and the
background verifier, and print latencies.

Run:  python examples/quickstart.py
"""

from repro.analysis.stats import fmt_ns
from repro.sim import Environment
from repro.stores import build_store


def main() -> None:
    env = Environment()
    setup = build_store(
        "efactory",
        env,
        n_clients=2,
        config_overrides={"pool_size": 8 << 20, "auto_clean": False},
    ).start()
    alice, bob = setup.clients

    latencies: dict[str, float] = {}

    def alice_writes():
        t0 = env.now
        yield from alice.put(b"user000000000042", b"Hello, NVM!" + b" " * 53)
        latencies["put"] = env.now - t0

    def bob_reads():
        # Immediately after the write: the object is not yet durable, so
        # the hybrid read falls back to the RPC+RDMA path once...
        yield env.timeout(8_000)
        t0 = env.now
        value = yield from bob.get(b"user000000000042", size_hint=64)
        latencies["get_fallback"] = env.now - t0
        assert value.startswith(b"Hello, NVM!")

        # ...and after the background thread persists it, the same GET
        # is two one-sided RDMA reads.
        yield env.timeout(300_000)
        t0 = env.now
        value = yield from bob.get(b"user000000000042", size_hint=64)
        latencies["get_pure"] = env.now - t0
        assert value.startswith(b"Hello, NVM!")

    a = env.process(alice_writes())
    b = env.process(bob_reads())
    env.run(env.all_of([a, b]))

    print("eFactory quickstart")
    print(f"  PUT (client-active, async durability): {fmt_ns(latencies['put'])}")
    print(f"  GET during the read-write race (RPC+RDMA): {fmt_ns(latencies['get_fallback'])}")
    print(f"  GET once durable (pure RDMA, 2 reads):     {fmt_ns(latencies['get_pure'])}")
    print(f"  bob's read paths: {bob.read_stats()}")
    print(f"  background verifier: {setup.server.metrics()['verifier']}")


if __name__ == "__main__":
    main()
