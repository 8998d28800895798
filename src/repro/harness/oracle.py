"""The consistency oracle: one reference model, one judgement (DESIGN.md §9b).

The paper's guarantee — no torn value exposed, no acknowledged PUT lost,
reads that never travel backwards (§4.3–4.5, §5.3) — written down once,
in the durable-linearizability vocabulary: a per-key history with
*issued*, *acked* and *observed* marks (:class:`KeyLedger`) and one
judgement of what a key holds afterwards (:meth:`KeyLedger.judge`). The
crash experiment, the crash-point matrix and the chaos run feed the
ledger only through the one closed-loop driver,
:class:`repro.harness.scaffold.ClosedLoop`. Values are self-describing
(:mod:`repro.workloads.keyspace`), so the bytes a store serves say which
write they came from. Four checks, applied everywhere:

* **torn** — the value does not parse as this key's;
* **acked-lost** — it is older than the newest acknowledged write;
* **non-monotonic** — it is older than a version a GET already returned;
* **phantom** — it is newer than anything the workload issued.

A finding is a *violation* when the store declared the guarantee it
breaks (:class:`~repro.stores.StoreSpec`) and a *weakness* otherwise —
CA's torn objects and Erda's lost reads are the paper's point, not bugs.
DESIGN.md §9b holds the check x guarantee table and the two relaxations
that belong to the run, not the store (no crash; a media-fault plan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import MemoryAccessError, PoolExhaustedError
from repro.kv.hashtable import key_fingerprint
from repro.kv.hopscotch import HopscotchTable
from repro.kv.objects import HEADER_SIZE, object_size, parse_header, parse_object
from repro.stores import StoreSpec
from repro.workloads.keyspace import parse_value

__all__ = ["KeyAudit", "KeyLedger", "read_value_state"]


@dataclass
class KeyAudit:
    """The oracle's verdict on one key."""

    key_id: int
    recovered_version: Optional[int]  # None = lost / absent / torn
    torn: bool  # a value was present but failed the pattern check
    max_acked: int  # newest version whose PUT was acknowledged
    max_read: int  # newest version a completed GET returned (-1: none)
    violations: list[str] = field(default_factory=list)  # guarantees broken
    weaknesses: list[str] = field(default_factory=list)  # never promised


class KeyLedger:
    """The reference model: what the workload did to each key.

    ``issued[k]`` is the newest version any PUT of key ``k`` carried,
    ``acked[k]`` the newest one acknowledged (the preload is acked
    version 0), ``max_read[k]`` the newest a completed GET returned
    (-1: never read).
    """

    def __init__(self, key_count: int) -> None:
        self.issued = [0] * key_count
        self.acked = [0] * key_count
        self.max_read = [-1] * key_count

    def copy(self) -> "KeyLedger":
        """An independent ledger with this one's history so far."""
        twin = KeyLedger(0)
        twin.issued, twin.acked = list(self.issued), list(self.acked)
        twin.max_read = list(self.max_read)
        return twin

    def next_version(self, kid: int) -> int:
        """The version the next PUT of ``kid`` carries."""
        self.issued[kid] += 1
        return self.issued[kid]

    def ack(self, kid: int, version: int) -> None:
        self.acked[kid] = max(self.acked[kid], version)

    def observe(self, kid: int, value: bytes) -> bool:
        """Record what a completed GET returned; False if it was torn."""
        version = _version(kid, value)
        if version is not None:
            self.max_read[kid] = max(self.max_read[kid], version)
        return version is not None

    def judge(
        self,
        kid: int,
        observed: Optional[bytes],
        guarantees: StoreSpec,
        *,
        crashed: bool,
        media: bool = False,
        scrub_active: bool = False,
        unreadable: str = "lost",
    ) -> KeyAudit:
        """Judge the value key ``kid`` serves now (``None``: absent, and
        ``unreadable`` says how a live GET failed) against its history.
        ``crashed``: the state was recovered after a power failure, not
        read from a store that stayed up; ``media``: the fault plan rots
        the media itself; ``scrub_active``: a scrubber ran to catch that."""
        acked, max_read = self.acked[kid], self.max_read[kid]
        audit = KeyAudit(kid, None, False, acked, max_read)

        def report(violation: bool, message: str) -> None:
            (audit.violations if violation else audit.weaknesses).append(
                f"key {kid}: {message}"
            )

        if observed is not None:
            audit.recovered_version = _version(kid, observed)
            if audit.recovered_version is None:
                audit.torn = True
                report(
                    guarantees.consistent_get and (not media or scrub_active),
                    "torn value exposed after recovery" if crashed
                    else "torn or foreign value returned",
                )
                return audit
        version = audit.recovered_version
        if version is None or version < acked:
            if crashed:
                message = f"acked version {acked} lost (recovered {version})"
            elif version is None:
                message = unreadable
            else:
                message = f"acked version {acked} lost (read {version})"
            report((guarantees.durable_put or not crashed) and not media, message)
        if max_read >= 0 and (version is None or version < max_read):
            report(
                guarantees.monotonic_reads and not media,
                f"non-monotonic read across crash (read {max_read}, "
                f"recovered {version})" if crashed
                else f"non-monotonic read (read {max_read}, now {version})",
            )
        if version is not None and version > self.issued[kid]:
            report(True, f"phantom version {version} (> issued {self.issued[kid]})")
        return audit

    def audit_recovered(
        self, server, keys: list[bytes], guarantees: StoreSpec
    ) -> list[KeyAudit]:
        """Judge every key's durable state after a crash and recovery."""
        return [
            self.judge(kid, read_value_state(server, key), guarantees, crashed=True)
            for kid, key in enumerate(keys)
        ]


def _version(kid: int, value: bytes) -> Optional[int]:
    """The version ``value`` carries; None unless it is intact and key ``kid``'s."""
    parsed = parse_value(value)
    return parsed[1] if parsed is not None and parsed[0] == kid else None


def read_value_state(server, key: bytes) -> Optional[bytes]:
    """What a fresh post-crash client would be served for ``key``.

    ``None`` means the key is absent. A malformed on-media object is
    returned as its raw bytes (not a synthetic sentinel) so the oracle's
    pattern check audits it as exactly the torn value a client would
    see. A direct durable-state read: no simulated time passes.
    """
    part = server.partition_for_key(key)
    if isinstance(part.table, HopscotchTable):
        found = part.table.lookup(key_fingerprint(key))
        if found is None or found[1].off1 is None:
            return None
        off = found[1].off1
        hdr = parse_header(part.pools[0].read(off, HEADER_SIZE))
        if hdr is None:
            return None
        raw = part.pools[0].read(off, object_size(hdr.klen, hdr.vlen))
    else:
        found = part.lookup_slot(key)
        slot = found and (found[1] or found[2])  # working slot, else the alt
        if slot is None:
            return None
        try:
            raw = part.pools[slot.pool].read(slot.offset, slot.size)
        except (MemoryAccessError, PoolExhaustedError):
            return None  # rotten slot bits point outside the device / the pool
    img = parse_object(raw)
    return img.value if img.well_formed else raw
