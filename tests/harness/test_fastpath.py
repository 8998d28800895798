"""Analytic fast path: eligibility/fallback matrix, exact equivalence
with the event path, and determinism."""

import numpy as np
import pytest

from repro.errors import QPError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.harness.chaos import ChaosSpec, run_chaos_experiment
from repro.harness.runner import RunSpec, run_experiment
from repro.nvm.device import NVMDevice
from repro.rdma.cq import CompletionQueue, post_write
from repro.rdma.fabric import Fabric
from repro.sim.kernel import Environment, Interrupt
from repro.sim.rng import RngRegistry
from repro.workloads.ycsb import update_only, ycsb_c
from tests.sim.heapkernel import HeapEnvironment

#: (store, workload factory, value size) cells the equivalence test
#: replays — the fig1 (durable-write) and fig2 (GET breakdown) setups.
EQUIVALENCE_CASES = (
    ("ca", update_only, 64),
    ("saw", update_only, 1024),
    ("imm", update_only, 64),
    ("rpc", update_only, 1024),
    ("erda", ycsb_c, 64),
    ("forca", ycsb_c, 1024),
)


@pytest.fixture
def net(env):
    fabric = Fabric(env)
    server = fabric.create_node("server", device=NVMDevice(env, 1 << 20))
    client = fabric.create_node("client")
    ep = fabric.connect(client, server)
    mr = server.register_memory(0, 1 << 20)
    return fabric, server, client, ep, mr


def run(env, gen):
    return env.run(env.process(gen))


def _deploy(fastpath, clients):
    """A fresh server with ``clients`` client nodes, one endpoint each."""
    e = Environment()
    fab = Fabric(e)
    fab.fastpath = fastpath
    server = fab.create_node("s", device=NVMDevice(e, 1 << 20))
    mr = server.register_memory(0, 1 << 20)
    eps = [fab.connect(fab.create_node(f"c{i}"), server) for i in range(clients)]
    return e, fab, server, eps, mr


#: Fault plans the two paths must serve alike: an empty one, and one
#: whose rules fire at fixed verb visits.
INJECTOR_PLANS = {
    "noop": (),
    "indexed": (
        FaultRule(
            "completion_delay", site="qp.write", after_op=2, before_op=4,
            delay_ns=700.0,
        ),
        FaultRule("qp_error", site="qp.read", after_op=1, before_op=2),
    ),
}


def _posted_write(ep, mr, off, size):
    cq = CompletionQueue(ep.local.env)
    post_write(ep, cq, mr.rkey, off, b"z" * size)
    (wc,) = yield from cq.wait(1)
    if not wc.ok:
        raise wc.result
    return wc


#: One call of every verb: ``(endpoint, mr, offset, size) -> generator``.
VERBS = {
    "write": lambda ep, mr, off, size: ep.write(mr.rkey, off, b"z" * size),
    "read": lambda ep, mr, off, size: ep.read(mr.rkey, off, size),
    "cas": lambda ep, mr, off, size: ep.cas(mr.rkey, 0, bytes(8), b"\1" * 8),
    "faa": lambda ep, mr, off, size: ep.faa(mr.rkey, 8, size),
    "send": lambda ep, mr, off, size: ep.send({"n": size}, wire_bytes=size),
    "write_with_imm": lambda ep, mr, off, size: ep.write_with_imm(
        mr.rkey, off, b"z" * size, imm=7
    ),
    "write_many": lambda ep, mr, off, size: ep.write_many(
        [(mr.rkey, off + i * 1024, b"z" * (size // 4)) for i in range(4)]
    ),
    "post_write": _posted_write,
}


class TestFallbackMatrix:
    def test_uncontended_write_takes_fast_path(self, env, net):
        fabric, _server, _client, ep, mr = net

        def proc():
            yield from ep.write(mr.rkey, 0, b"x" * 64)

        run(env, proc())
        assert fabric.fastpath_ops == 1
        assert ep.fastpath_ops == 1
        assert fabric.fallback_ops == 0

    def test_disabled_flag_forces_event_path(self, env, net):
        fabric, _server, _client, ep, mr = net
        fabric.fastpath = False

        def proc():
            yield from ep.write(mr.rkey, 0, b"x" * 64)

        run(env, proc())
        assert fabric.fastpath_ops == 0

    def test_armed_injector_keeps_posted_writes_on_a_verb_visit(self, env, net):
        """``write_async`` declines while an injector is armed, so a posted
        WRITE still runs :meth:`Endpoint.write` and visits ``qp.write``:
        rule indices count every verb. The write it drives is claimed
        idle like any other."""
        fabric, _server, _client, ep, mr = net
        inj = fabric.injector = FaultInjector(env, FaultPlan("noop"), RngRegistry(1))
        assert not ep.write_async(CompletionQueue(env), mr.rkey, 0, b"x", 1)
        assert ep.stats == {}

        wc = run(env, _posted_write(ep, mr, 0, 64))
        assert wc.ok
        assert inj.site_op_counts() == {"qp.write": 1}
        assert fabric.fastpath_ops == 1

    def test_qp_error_state_fails_without_fast_path(self, env, net):
        fabric, _server, _client, ep, mr = net
        ep._error = True

        def proc():
            yield from ep.write(mr.rkey, 0, b"x" * 64)

        with pytest.raises(QPError):
            run(env, proc())
        assert fabric.fastpath_ops == 0

    def test_contended_engine_falls_back(self, env, net):
        fabric, _server, _client, ep, mr = net

        def writer(off):
            yield from ep.write(mr.rkey, off, b"y" * 4096)

        env.process(writer(0))
        env.process(writer(8192))
        env.run()
        # First write reserves the engine analytically; the overlapping
        # second write must queue on the full event path.
        assert fabric.fastpath_ops >= 1
        assert fabric.fallback_ops >= 1

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_contended_timing_equals_event_path(self, verb):
        """Mixed fast/fallback execution completes at the same instants
        as a pure event-path run, for every verb."""

        def drive(fastpath):
            e, fab, _server, eps, mr = _deploy(fastpath, clients=2)
            done = []

            def issuer(k):
                yield e.timeout(41.0 * k)
                yield from VERBS[verb](eps[k % 2], mr, k * 8192, 2048 + 512 * k)
                done.append((k, e.now))

            for k in range(6):
                e.process(issuer(k))
            e.run()
            assert fab.inflight_count() == 0
            return done, fab

        fast, fab = drive(True)
        event, _ = drive(False)
        assert fast == event
        assert fab.fastpath_ops >= 1 and fab.fallback_ops >= 1

    def test_read_response_leg_falls_back_mid_verb(self):
        """A READ whose request leg was analytic but whose *response*
        finds the server's engine busy finishes on the event path, at
        the event path's instants."""

        def drive(fastpath):
            e, fab, _server, (big, small), mr = _deploy(fastpath, clients=2)
            done = []

            def reader(ep, length, delay):
                yield e.timeout(delay)
                data = yield from ep.read(mr.rkey, 0, length)
                done.append((len(data), e.now))

            e.process(reader(big, 256 * 1024, 0.0))
            # Arrives at the server while the big response still streams.
            e.process(reader(small, 64, 2000.0))
            e.run()
            return done, fab, small

        fast, fab, small = drive(True)
        event, _, _ = drive(False)
        assert fast == event
        # Nothing contended the small reader's own engine, so its only
        # fallback is the response leg.
        assert (fab.fastpath_ops, fab.fallback_ops) == (1, 1)
        assert small.fastpath_ops == 0

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_target_crash_mid_verb_same_on_both_paths(self, verb):
        """A target crash before the verb's remote-side instant (DMA
        apply, snapshot, RMW, delivery) fails it with ``target_down``;
        one after it, just before the ACK lands, does not. Either way
        both paths agree on the instant and leave no in-flight record."""

        def drive(fastpath, crash_time=None):
            e, fab, server, (ep,), mr = _deploy(fastpath, clients=1)
            out = []

            def issuer():
                try:
                    yield from VERBS[verb](ep, mr, 0, 256)
                    out.append(("ok", e.now))
                except QPError as exc:
                    out.append((exc.code, e.now))

            def crasher():
                yield e.timeout(crash_time)
                fab.crash_node(server, np.random.default_rng(3))

            e.process(issuer())
            if crash_time is not None:
                e.process(crasher())
            e.run()
            assert fab.inflight_count() == 0
            return out[0]

        outcome, t_done = drive(True)
        assert outcome == "ok"
        # 700 ns in, every verb's WR is still crossing the wire.
        in_flight = drive(True, 700.0)
        assert in_flight == drive(False, 700.0)
        assert in_flight[0] == "target_down" and 700.0 < in_flight[1] <= t_done
        if verb != "send":  # SEND completes at delivery: it has no ACK leg
            assert drive(True, t_done - 1.0) == drive(False, t_done - 1.0) == ("ok", t_done)

    @pytest.mark.parametrize("plan", sorted(INJECTOR_PLANS))
    def test_armed_injector_fires_alike_on_both_paths(self, plan):
        """An armed plan sees the same verb visits on the closed-form
        legs as on the walk: every rule fires at the same visit and
        instant, and every verb ends the same way at the same instant."""

        def drive(fastpath):
            e, fab, _server, eps, mr = _deploy(fastpath, clients=2)
            inj = fab.injector = FaultInjector(
                e, FaultPlan(plan, INJECTOR_PLANS[plan]), RngRegistry(1)
            )
            done = []

            def issuer(k):
                ep = eps[k % 2]
                yield e.timeout(97.0 * k)
                for verb in ("write", "read", "cas", "write_many", "send", "post_write"):
                    try:
                        yield from VERBS[verb](ep, mr, k * 8192, 512 + 256 * k)
                        done.append((k, verb, "ok", e.now))
                    except QPError as exc:
                        done.append((k, verb, exc.code, e.now))
                        ep.reset()

            for k in range(4):
                e.process(issuer(k))
            e.run()
            return (done, inj.schedule(), inj.site_op_counts()), fab.fastpath_ops

        fast, fast_ops = drive(True)
        walked, walked_ops = drive(False)
        assert fast == walked
        assert fast_ops > 0 and walked_ops == 0
        fired = {kind for _t, _site, kind, *_ in fast[1]}
        assert fired == {rule.kind for rule in INJECTOR_PLANS[plan]}

    def test_posted_write_async_fallback_on_bad_rkey(self, env, net):
        _fabric, _server, _client, ep, mr = net
        cq = CompletionQueue(env)

        def proc():
            post_write(ep, cq, 999999, 0, b"x")  # unknown rkey
            (wc,) = yield from cq.wait(1)
            return wc

        wc = run(env, proc())
        assert not wc.ok


class TestCrashBeforeTheWire:
    """A closed-form TX leg registers its WRITE in flight when it is
    claimed, with ``t_start`` still ahead; the walk registers it only
    once the payload enters the wire. A crash in between must not tell
    the two apart: it draws no coin for that WRITE and leaves none of
    its bytes, and an interrupted verb takes the WRITE back with it."""

    #: The verbs that put a WRITE in flight, each moving 48 KiB.
    BIG_WRITES = {
        "write": lambda ep, mr: ep.write(mr.rkey, 8192, b"b" * 48_000),
        "write_many": lambda ep, mr: ep.write_many(
            [(mr.rkey, 8192, b"b" * 24_000), (mr.rkey, 65536, b"c" * 24_000)]
        ),
        "write_with_imm": lambda ep, mr: ep.write_with_imm(
            mr.rkey, 8192, b"b" * 48_000, imm=7
        ),
    }

    @classmethod
    def _crash_during_leg(cls, verb, fastpath, interrupt):
        """A 4 KiB WRITE lands and stays dirty; a 48 KiB WRITE's leg is
        claimed at 10 µs, and the server crashes 300 ns later, long before
        its payload enters the wire. With ``interrupt`` the writer is
        interrupted at the crash; the server restarts 1 µs later and
        crashes again after the big WRITE would have landed."""
        e, fab, server, (ep,), mr = _deploy(fastpath, clients=1)
        rng = np.random.default_rng(5)
        out = []

        def writer():
            yield from ep.write(mr.rkey, 0, b"a" * 4096)
            yield e.timeout_at(10_000.0)
            try:
                yield from cls.BIG_WRITES[verb](ep, mr)
                out.append(("ok", e.now))
            except QPError as exc:
                out.append((exc.code, e.now))
            except Interrupt:
                out.append(("interrupted", e.now))

        proc = e.process(writer())

        def crasher():
            yield e.timeout_at(10_300.0)
            out.append(fab.crash_node(server, rng, tear_words=True))
            if interrupt:
                proc.interrupt("crash")
            yield e.timeout(1_000.0)
            fab.restart_node(server)
            yield e.timeout(20_000.0)
            out.append(fab.crash_node(server, rng, tear_words=True))

        e.process(crasher())
        e.run()
        return (
            out,
            server.device.buffer.fingerprint(),
            rng.bit_generator.state,
            fab.inflight_count(),
            fab.fastpath_ops,
        )

    @pytest.mark.parametrize("interrupt", [False, True], ids=["kept", "interrupted"])
    @pytest.mark.parametrize("verb", sorted(BIG_WRITES))
    def test_crash_before_the_wire_same_on_both_paths(self, verb, interrupt):
        out, image, rng_state, inflight, fast_ops = self._crash_during_leg(
            verb, True, interrupt
        )
        w_out, w_image, w_rng_state, w_inflight, walk_ops = self._crash_during_leg(
            verb, False, interrupt
        )
        assert walk_ops == 0 < fast_ops
        assert out == w_out
        assert rng_state == w_rng_state
        assert image == w_image
        assert inflight == w_inflight == 0
        first, outcome, second = out
        assert first["torn_writes"] == 0
        if interrupt:
            # Never sent: the second crash finds nothing of it either.
            assert outcome == ("interrupted", 10_300.0)
            assert second["torn_writes"] == 0
        else:
            # Sent after the crash, it lands on the restarted node.
            assert outcome[0] == "ok"


def _bench_verbs(make_env, n, fastpath):
    """CQ-posted one-sided WRITEs, one outstanding at a time."""
    env = make_env()
    fabric = Fabric(env)
    server = fabric.create_node("s", device=NVMDevice(env, 1 << 20))
    client = fabric.create_node("c")
    ep = fabric.connect(client, server)
    mr = server.register_memory(0, 1 << 20)
    fabric.fastpath = fastpath
    cq = CompletionQueue(env)
    payload = b"\x42" * 64

    def proc():
        for i in range(n):
            post_write(ep, cq, mr.rkey, (i % 1024) * 64, payload)
            yield from cq.wait(1)

    env.run(env.process(proc(), name="verbs"))
    return {
        "sim_ns": env.now,
        "events_per_op": env.events_processed / n,
        "fastpath_ops": fabric.fastpath_ops,
    }


def _run_case(store, workload, size, fastpath):
    spec = RunSpec(
        store=store,
        workload=workload(value_len=size, key_count=64),
        n_clients=2,
        ops_per_client=40,
        warmup_ops=5,
        seed=42,
    )
    captured = {}

    def hook(env, setup):
        # Runs after preload/settle, before measurement: the preload is
        # identical (default fast path) in both runs; only the measured
        # window switches paths.
        captured["fabric"] = setup.fabric
        setup.fabric.fastpath = fastpath

    result = run_experiment(spec, post_setup=hook)
    return result, captured["fabric"]


class TestExactEquivalence:
    def test_fig1_fig2_bit_identical(self):
        """Fast path vs event path: identical ns on all six fig1/fig2
        cells, 40 ops per client."""
        fastpath_ops = 0
        for store, workload, size in EQUIVALENCE_CASES:
            fast, fabric = _run_case(store, workload, size, fastpath=True)
            slow, _ = _run_case(store, workload, size, fastpath=False)
            assert fast.window_ns == slow.window_ns, store
            kinds = set(fast.latency.kinds()) | set(slow.latency.kinds())
            for k in sorted(kinds):
                assert np.array_equal(
                    fast.latency.array(k), slow.latency.array(k)
                ), (store, k)
            fastpath_ops += fabric.fastpath_ops
        assert fastpath_ops > 0

    def test_macro_cell_same_ns_fewer_events(self):
        """The posted-WRITE macro cell, 4,000 ops: the fast path
        simulates the event path's nanoseconds to the bit (the event
        path runs on the seed kernel) in 3 events per op instead of 8."""
        base = _bench_verbs(HeapEnvironment, 4_000, fastpath=False)
        fast = _bench_verbs(Environment, 4_000, fastpath=True)
        assert base["sim_ns"] == fast["sim_ns"] == 7659537.082530953
        assert (base["events_per_op"], base["fastpath_ops"]) == (8.0005, 0)
        assert (fast["events_per_op"], fast["fastpath_ops"]) == (3.0005, 4_000)


class TestDeterminism:
    @pytest.mark.parametrize(
        "store,workload",
        [("saw", update_only), ("erda", ycsb_c)],
    )
    def test_same_spec_same_latencies(self, store, workload):
        spec = RunSpec(
            store=store,
            workload=workload(value_len=64, key_count=32),
            n_clients=2,
            ops_per_client=15,
            warmup_ops=3,
            seed=9,
        )
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.window_ns == b.window_ns
        for kind in a.latency.kinds():
            assert np.array_equal(a.latency.array(kind), b.latency.array(kind))

    def test_seeded_chaos_plan_repeats_exactly(self):
        spec = ChaosSpec(
            store="efactory",
            plan="qp-flap",
            seed=31,
            n_clients=2,
            ops_per_client=25,
            key_count=12,
            value_len=64,
        )
        a = run_chaos_experiment(spec)
        b = run_chaos_experiment(spec)
        assert a.fault_schedule == b.fault_schedule
        assert a.wall_ns == b.wall_ns
        assert a.completed_ops == b.completed_ops
        assert a.resilience == b.resilience
