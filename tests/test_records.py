"""``Slot`` and ``Op`` are light immutable records.

Both used to be frozen dataclasses. They are built once per location
and once per generated op, so they are now ``NamedTuple`` records —
and must keep the dataclasses' contract: immutable, the same fields in
the same order, keyword construction, and the same ``hash`` and ``==``.
The hash is what orders the dicts and sets keyed by them (the
verifier's ``raws`` / ``by_pool``, recovery's chains), so a different
hash would move simulated behaviour.
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.kv import Slot
from repro.workloads import Op


@dataclasses.dataclass(frozen=True)
class FrozenSlot:
    pool: int
    size: int
    offset: int


@dataclasses.dataclass(frozen=True)
class FrozenOp:
    kind: str
    key_id: int


CASES = [
    (Slot, FrozenSlot, ("pool", "size", "offset")),
    (Op, FrozenOp, ("kind", "key_id")),
]

slot_values = st.tuples(
    st.integers(0, 1), st.integers(0, (1 << 22) - 1), st.integers(0, (1 << 40) - 1)
)
op_values = st.tuples(st.sampled_from(["get", "put", "rmw"]), st.integers(0, 1 << 20))


@pytest.mark.parametrize("record, frozen, fields", CASES, ids=["Slot", "Op"])
def test_fields_in_order_and_keyword_construction(record, frozen, fields):
    assert record._fields == fields
    assert tuple(f.name for f in dataclasses.fields(frozen)) == fields
    values = dict(zip(fields, range(len(fields))))
    assert tuple(record(**values)) == tuple(record(*values.values()))
    assert repr(record(**values)) == repr(frozen(**values)).replace(
        frozen.__name__, record.__name__
    )


@pytest.mark.parametrize("record, frozen, fields", CASES, ids=["Slot", "Op"])
def test_assigning_an_attribute_raises(record, frozen, fields):
    rec = record(*range(len(fields)))
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, name, 99)
    assert tuple(rec) == tuple(range(len(fields)))


@given(a=slot_values, b=slot_values)
def test_slot_hash_and_eq_match_the_frozen_dataclass(a, b):
    assert hash(Slot(*a)) == hash(FrozenSlot(*a))
    assert (Slot(*a) == Slot(*b)) == (FrozenSlot(*a) == FrozenSlot(*b))
    assert (Slot(*a) != Slot(*b)) == (FrozenSlot(*a) != FrozenSlot(*b))


@given(a=op_values, b=op_values)
def test_op_hash_and_eq_match_the_frozen_dataclass(a, b):
    assert hash(Op(*a)) == hash(FrozenOp(*a))
    assert (Op(*a) == Op(*b)) == (FrozenOp(*a) == FrozenOp(*b))


@given(st.lists(slot_values, max_size=40))
def test_dict_and_set_orders_match_the_frozen_dataclass(values):
    """Insertion-ordered dicts agree trivially; sets iterate by hash, so
    equal hashes give the same order."""
    assert [tuple(s) for s in {Slot(*v) for v in values}] == [
        dataclasses.astuple(s) for s in {FrozenSlot(*v) for v in values}
    ]
    by_slot = {}
    by_frozen = {}
    for i, v in enumerate(values):
        by_slot.setdefault(Slot(*v), i)
        by_frozen.setdefault(FrozenSlot(*v), i)
    assert list(by_slot.values()) == list(by_frozen.values())


def test_slot_unpack_builds_a_slot():
    slot = Slot(pool=1, size=208, offset=4096)
    back = Slot.unpack(slot.pack())
    assert type(back) is Slot and back == slot
    assert Slot.unpack(0) is None
