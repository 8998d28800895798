#!/usr/bin/env python3
"""Log cleaning walk-through (§4.4, Figure 7).

Fills an eFactory store with many stale versions, triggers the
two-stage cleaner while a client keeps reading and writing, and prints
what happened: space reclaimed, objects moved vs skipped, client read
paths during the cycle, and proof that every key still serves its
newest value.

Run:  python examples/log_cleaning_demo.py
"""

from repro.sim import Environment
from repro.stores import build_store
from repro.workloads.keyspace import make_key, make_value, parse_value


def main() -> None:
    env = Environment()
    setup = build_store(
        "efactory",
        env,
        n_clients=2,
        config_overrides={"pool_size": 4 << 20, "auto_clean": False},
    ).start()
    server = setup.server
    loader, worker = setup.clients

    n_keys, versions = 64, 6
    keys = [make_key(i) for i in range(n_keys)]
    latest = {}

    def load():
        for v in range(versions):
            for i in range(n_keys):
                yield from loader.put(keys[i], make_value(i, v, 256))
                latest[i] = v

    env.run(env.process(load()))
    env.run(until=env.now + 1_000_000)  # background verifier settles

    part = server.partitions[0]  # the default server is one partition
    old_pool = part.pools[part.write_pool_id]
    print("before cleaning:")
    print(f"  pool {old_pool.pool_id}: {old_pool.used:,} B used, "
          f"{len(old_pool.allocations)} objects "
          f"({n_keys} live + {n_keys * (versions - 1)} stale)")

    def churn():
        """Concurrent traffic while the cleaner runs."""
        for round_ in range(40):
            i = round_ % n_keys
            v = versions + round_
            yield from worker.put(keys[i], make_value(i, v, 256))
            latest[i] = v
            got = yield from worker.get(keys[i], size_hint=256)
            assert parse_value(got) == (i, v)

    churn_proc = env.process(churn())
    clean_proc = server.trigger_cleaning()
    env.run(env.all_of([churn_proc, clean_proc]))

    stats = part.cleaner.stats
    new_pool = part.pools[part.write_pool_id]
    print("\nafter one cleaning cycle:")
    print(f"  moved {stats.moved} live objects ({stats.bytes_copied:,} B copied)")
    print(f"  skipped {stats.skipped_stale} stale versions, "
          f"{stats.skipped_superseded} superseded during merge")
    print(f"  hash entries fixed: {stats.entries_fixed}")
    print(f"  new working pool {new_pool.pool_id}: {new_pool.used:,} B used")
    print(f"  worker read paths: {worker.read_stats()} "
          f"(fallbacks occur while notified of cleaning)")

    def verify():
        ok = 0
        for i in range(n_keys):
            got = yield from worker.get(keys[i], size_hint=256)
            assert parse_value(got) == (i, latest[i]), i
            ok += 1
        return ok

    ok = env.run(env.process(verify()))
    print(f"\nverified: all {ok} keys serve their newest value after cleaning")


if __name__ == "__main__":
    main()
