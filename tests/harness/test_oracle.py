"""The consistency oracle fires, and sorts what it finds by what the store
declared: planted histories x the eight registry rows x the three run
properties (DESIGN.md §9b's table, executed)."""

import itertools

import pytest

from repro.harness.oracle import KeyLedger, read_value_state
from repro.kv.hashtable import Slot, key_fingerprint
from repro.stores import STORES
from repro.workloads.keyspace import make_value
from tests.conftest import run1, small_store

KID = 3


def _ledger(issued: int, acked: int, max_read: int) -> KeyLedger:
    """Key ``KID`` after ``issued`` PUTs, ``acked`` of them acknowledged,
    and a GET that returned version ``max_read`` (-1: never read)."""
    ledger = KeyLedger(KID + 1)
    for _ in range(issued):
        version = ledger.next_version(KID)
        if version <= acked:
            ledger.ack(KID, version)
    if max_read >= 0:
        assert ledger.observe(KID, make_value(KID, max_read, 64))
    return ledger


#: case -> (issued, acked, max_read, what the store serves afterwards)
CASES = {
    "intact": (5, 4, 3, make_value(KID, 4, 64)),
    "intact-unacked-landed": (5, 4, 3, make_value(KID, 5, 64)),
    "torn": (5, 4, 3, b"\xff" * 64),
    "foreign": (5, 4, 3, make_value(KID + 1, 4, 64)),
    "absent": (5, 4, 3, None),
    "older-than-acked": (5, 4, 3, make_value(KID, 3, 64)),
    "older-than-read": (5, 2, 3, make_value(KID, 2, 64)),
    "newer-than-issued": (5, 4, 3, make_value(KID, 6, 64)),
}
#: message fragment that identifies each check
CHECKS = {
    "torn": "torn",
    "acked-lost": "lost",
    "non-monotonic": "non-monotonic",
    "phantom": "phantom",
}


def _expected(case, g, crashed, media, scrub_active):
    """check -> True (violation) / False (weakness), per the §9b table."""
    torn = g.consistent_get and (not media or scrub_active)
    lost = (g.durable_put or not crashed) and not media
    backwards = g.monotonic_reads and not media
    return {
        "intact": {},
        "intact-unacked-landed": {},
        "torn": {"torn": torn},
        "foreign": {"torn": torn},
        "absent": {"acked-lost": lost, "non-monotonic": backwards},
        "older-than-acked": {"acked-lost": lost},
        "older-than-read": {"non-monotonic": backwards},
        "newer-than-issued": {"phantom": True},
    }[case]


def _found(messages):
    out = set()
    for message in messages:
        (check,) = [c for c, word in CHECKS.items() if word in message]
        out.add(check)
    return out


@pytest.mark.parametrize("store", list(STORES))
@pytest.mark.parametrize("case", list(CASES))
def test_judgement_table(case, store):
    issued, acked, max_read, observed = CASES[case]
    g = STORES[store]
    for crashed, media, scrub_active in itertools.product((False, True), repeat=3):
        audit = _ledger(issued, acked, max_read).judge(
            KID, observed, g, crashed=crashed, media=media, scrub_active=scrub_active
        )
        want = _expected(case, g, crashed, media, scrub_active)
        where = (case, store, crashed, media, scrub_active)
        assert _found(audit.violations) == {c for c, v in want.items() if v}, where
        assert _found(audit.weaknesses) == {c for c, v in want.items() if not v}, where
        assert audit.torn == (case in ("torn", "foreign"))
        assert (audit.max_acked, audit.max_read) == (acked, max_read)


def test_every_check_can_fire_as_a_violation_and_as_a_weakness():
    """The table above is not vacuous: each check lands on both sides
    somewhere (phantom is a violation everywhere, by design)."""
    sides = {check: set() for check in CHECKS}
    for case, (issued, acked, max_read, observed) in CASES.items():
        for g in STORES.values():
            for crashed, media in itertools.product((False, True), repeat=2):
                audit = _ledger(issued, acked, max_read).judge(
                    KID, observed, g, crashed=crashed, media=media
                )
                for check in _found(audit.violations):
                    sides[check].add("violation")
                for check in _found(audit.weaknesses):
                    sides[check].add("weakness")
    assert sides.pop("phantom") == {"violation"}
    assert all(side == {"violation", "weakness"} for side in sides.values()), sides


class TestThePapersVerdicts:
    """Hand-pinned rows, with the wording the reports print."""

    def judge(self, store, case, **regime):
        issued, acked, max_read, observed = CASES[case]
        return _ledger(issued, acked, max_read).judge(
            KID, observed, STORES[store], **regime
        )

    def test_efactory_may_lose_an_unflushed_ack_but_never_a_read(self):
        audit = self.judge("efactory", "absent", crashed=True)
        assert audit.weaknesses == ["key 3: acked version 4 lost (recovered None)"]
        assert audit.violations == [
            "key 3: non-monotonic read across crash (read 3, recovered None)"
        ]

    def test_erda_losing_read_data_is_the_papers_criticism_not_a_bug(self):
        audit = self.judge("erda", "older-than-read", crashed=True)
        assert audit.violations == []
        assert audit.weaknesses == [
            "key 3: non-monotonic read across crash (read 3, recovered 2)"
        ]

    def test_durable_put_stores_must_recover_every_ack(self):
        for store in ("rpc", "saw", "imm"):
            audit = self.judge(store, "older-than-acked", crashed=True)
            assert audit.violations == ["key 3: acked version 4 lost (recovered 3)"]

    def test_ca_tears_by_design(self):
        audit = self.judge("ca", "torn", crashed=True)
        assert audit.violations == []
        assert audit.weaknesses == ["key 3: torn value exposed after recovery"]
        assert audit.recovered_version is None and audit.torn

    def test_without_a_crash_a_lost_ack_is_a_violation_for_every_store(self):
        for store in STORES:
            audit = self.judge(store, "older-than-acked", crashed=False)
            assert audit.violations == ["key 3: acked version 4 lost (read 3)"]

    def test_a_live_miss_is_reported_in_the_callers_words(self):
        audit = self.judge(
            "efactory", "absent", crashed=False,
            unreadable="lost (not found after faults cleared)",
        )
        assert audit.violations[0] == "key 3: lost (not found after faults cleared)"

    def test_media_rot_excuses_going_backwards_but_not_served_rot(self):
        rolled_back = self.judge("efactory", "older-than-acked", crashed=False, media=True)
        assert rolled_back.violations == []
        assert rolled_back.weaknesses == ["key 3: acked version 4 lost (read 3)"]
        served = self.judge(
            "efactory", "torn", crashed=False, media=True, scrub_active=True
        )
        assert served.violations == ["key 3: torn or foreign value returned"]
        unscrubbed = self.judge("efactory", "torn", crashed=False, media=True)
        assert unscrubbed.violations == []

    def test_a_phantom_is_never_excused(self):
        audit = self.judge("ca", "newer-than-issued", crashed=True, media=True)
        assert audit.violations == ["key 3: phantom version 6 (> issued 5)"]


def test_ledger_marks():
    ledger = KeyLedger(2)
    assert (ledger.issued, ledger.acked, ledger.max_read) == ([0, 0], [0, 0], [-1, -1])
    assert ledger.next_version(1) == 1 and ledger.next_version(1) == 2
    ledger.ack(1, 2)
    ledger.ack(1, 1)  # a late ack of an older write does not move the mark back
    assert ledger.acked == [0, 2]
    assert ledger.observe(1, make_value(1, 2, 32))
    assert ledger.observe(1, make_value(1, 1, 32))
    assert not ledger.observe(1, make_value(0, 5, 32))  # another key's value
    assert not ledger.observe(1, b"garbage")
    assert ledger.max_read == [-1, 2]


def test_a_slot_rotted_to_outside_its_pool_reads_as_absent(env):
    """The pool's own bounds error (offset outside the pool) is rot like
    the device's (offset + size past the device): absent, not a traceback."""
    setup = small_store("efactory", env)
    key = b"rotten-slot-key0"
    run1(env, setup.client().put(key, b"v" * 64))
    env.run(until=env.now + 800_000)
    assert read_value_state(setup.server, key) == b"v" * 64

    part = setup.server.partition_for_key(key)
    entry_off = part.table.find(key_fingerprint(key))
    cur = part.table.read_cur(entry_off)
    part.table.set_cur(
        entry_off, Slot(cur.pool, cur.size, part.pools[cur.pool].size + 4096)
    )
    assert read_value_state(setup.server, key) is None
