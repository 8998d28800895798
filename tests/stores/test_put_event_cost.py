"""Kernel events for one uncontended eFactory PUT.

Alloc RPC + value WRITE + background verify and persist, on one client
with no completion batcher. The count pins the server's bookkeeping:
an RPC handler is spawned inside the dispatch loop's step (no
``Initialize``), takes a free core without a grant event, ends without a
completion event, and the verifier requeues without a zero-delay yield.
When each of those was a scheduled event, the same window cost 28.
"""

from repro.sim.kernel import Environment
from tests.conftest import small_store

#: Events processed from just before the PUT until the verifier has
#: persisted it.
PUT_EVENTS = 24


def test_uncontended_put_event_count():
    env = Environment()
    setup = small_store("efactory", env)
    assert setup.fabric.batcher is None
    env.run(until=1_000.0)
    start = env.events_processed

    def put():
        yield from setup.client(0).put(b"key-0001", b"v" * 64)

    env.run(env.process(put()))
    verifier = setup.server.partitions[0].verifier
    while verifier.persisted < 1:
        env.step()

    assert setup.server.rpc.served_by_op == {"alloc": 1}
    # The verifier's first pass found the WRITE not landed and requeued.
    assert verifier.stats()["requeued"] == 1
    assert env.events_processed - start == PUT_EVENTS
