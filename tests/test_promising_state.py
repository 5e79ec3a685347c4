"""Unit tests for the promising model's state: memory, views, thread state."""

import pytest

from repro.lang.expr import Const, R
from repro.promising.state import (
    ExclBank,
    Forward,
    FWD_INIT,
    Memory,
    Msg,
    TState,
    initial_tstate,
    vmax,
)


class TestViews:
    def test_vmax_is_join(self):
        assert vmax(1, 5, 3) == 5
        assert vmax() == 0


class TestMemory:
    def test_initially_empty(self):
        memory = Memory()
        assert memory.last_timestamp == 0
        assert len(memory) == 0

    def test_append_returns_fresh_timestamps(self):
        memory = Memory()
        memory1, t1 = memory.append(Msg(0, 1, 0))
        memory2, t2 = memory1.append(Msg(8, 2, 1))
        assert (t1, t2) == (1, 2)
        assert memory.last_timestamp == 0  # immutability
        assert memory2.msg(1) == Msg(0, 1, 0)

    def test_read_timestamp_zero_gives_initial(self):
        memory = Memory(initial={0: 7})
        assert memory.read(0, 0) == 7
        assert memory.read(8, 0) == 0

    def test_read_wrong_location_gives_none(self):
        memory, _ = Memory().append(Msg(0, 1, 0))
        assert memory.read(8, 1) is None
        assert memory.read(0, 1) == 1

    def test_msg_out_of_range(self):
        with pytest.raises(IndexError):
            Memory().msg(1)

    def test_writes_to_includes_initial(self):
        memory, _ = Memory().append(Msg(0, 1, 0))
        memory, _ = memory.append(Msg(8, 2, 0))
        memory, _ = memory.append(Msg(0, 3, 1))
        assert memory.writes_to(0) == [0, 1, 3]

    def test_no_write_to_in(self):
        memory, _ = Memory().append(Msg(0, 1, 0))
        memory, _ = memory.append(Msg(8, 2, 0))
        assert memory.no_write_to_in(0, 1, 2)
        assert not memory.no_write_to_in(0, 0, 2)

    def test_final_values_last_write_wins(self):
        memory, _ = Memory(initial={16: 9}).append(Msg(0, 1, 0))
        memory, _ = memory.append(Msg(0, 2, 1))
        assert memory.final_values() == {16: 9, 0: 2}

    def test_equality_and_hash(self):
        m1, _ = Memory().append(Msg(0, 1, 0))
        m2, _ = Memory().append(Msg(0, 1, 0))
        assert m1 == m2 and hash(m1) == hash(m2)
        assert m1 != Memory()


class TestTState:
    def test_initial_state_is_zeroed(self):
        ts = initial_tstate()
        assert ts.reg("r1") == (0, 0)
        assert ts.coh_view(0) == 0
        assert ts.forward(0) == FWD_INIT
        assert not ts.has_promises
        assert ts.xclb is None

    def test_eval_constant_has_zero_view(self):
        assert initial_tstate().eval(Const(5)) == (5, 0)

    def test_eval_register_carries_view(self):
        ts = initial_tstate()
        ts.regs["r1"] = (42, 3)
        assert ts.eval(R("r1")) == (42, 3)

    def test_eval_merges_views(self):
        ts = initial_tstate()
        ts.regs["a"] = (1, 2)
        ts.regs["b"] = (4, 5)
        value, view = ts.eval(R("a") + R("b"))
        assert value == 5 and view == 5

    def test_dependency_idiom_keeps_view(self):
        ts = initial_tstate()
        ts.regs["r1"] = (42, 7)
        _value, view = ts.eval(Const(100) + (R("r1") - R("r1")))
        assert view == 7

    def test_copy_is_independent(self):
        ts = initial_tstate()
        copy = ts.copy()
        copy.regs["r1"] = (1, 1)
        copy.vrOld = 4
        assert ts.reg("r1") == (0, 0) and ts.vrOld == 0

    def test_key_equality(self):
        a, b = initial_tstate(), initial_tstate()
        assert a == b and hash(a) == hash(b)
        b.vCAP = 1
        assert a != b

    def test_register_values_strip_views(self):
        ts = initial_tstate()
        ts.regs["r1"] = (42, 3)
        assert ts.register_values() == {"r1": 42}

    def test_describe_mentions_views(self):
        ts = initial_tstate()
        ts.xclb = ExclBank(2, 2)
        text = ts.describe()
        assert "vrOld" in text and "xclb" in text

    def test_forward_bank_entries(self):
        ts = initial_tstate()
        ts.fwdb[0] = Forward(3, 1, True)
        assert ts.forward(0).xcl is True


class TestSlotDriftGuards:
    """Hand-rolled copies and keys must keep up with ``__slots__``.

    ``TState.copy`` and ``Memory.append`` build instances via ``__new__``
    and assign every attribute explicitly for speed, and ``TState.key``
    lists every slot it identifies a state by.  Adding a slot without
    extending them would silently ship states with missing attributes,
    or merge states that differ in it; these tests diff each against
    ``__slots__`` so the drift fails CI instead.
    """

    @staticmethod
    def _assigned_attrs(func, target):
        import ast
        import inspect
        import textwrap

        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        return {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == target
        }

    def test_tstate_copy_assigns_every_slot(self):
        assert self._assigned_attrs(TState.copy, "new") == set(TState.__slots__)

    def test_memory_append_assigns_every_slot(self):
        assert self._assigned_attrs(Memory.append, "new") == set(Memory.__slots__)

    def test_key_covers_every_semantic_slot(self):
        # ``key`` must tell apart two states that differ in any one slot
        # except the memoised ``_ckey``; guard on a fully populated state.
        ts = initial_tstate()
        ts.prom = frozenset({3})
        ts.regs["r1"] = (1, 2)
        ts.coh[0] = 4
        ts.vrOld, ts.vwOld, ts.vrNew = 1, 2, 3
        ts.vwNew, ts.vCAP, ts.vRel = 4, 5, 6
        ts.fwdb[8] = Forward(3, 1, True)
        ts.xclb = ExclBank(2, 2)
        changed = {
            "prom": frozenset({3, 4}),
            "regs": {"r1": (1, 2), "r2": (0, 0)},
            "coh": {0: 5},
            "vrOld": 7,
            "vwOld": 7,
            "vrNew": 7,
            "vwNew": 7,
            "vCAP": 7,
            "vRel": 7,
            "fwdb": {8: Forward(3, 1, False)},
            "xclb": None,
        }
        assert set(changed) == set(TState.__slots__) - {"_ckey"}
        for slot, value in changed.items():
            other = ts.copy()
            setattr(other, slot, value)
            assert other.key() != ts.key(), slot
