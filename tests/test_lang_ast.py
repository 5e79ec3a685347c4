"""Unit tests for statements, programs and transformations."""

import pytest

from repro.lang import (
    DMB_LD,
    DMB_SY,
    FenceSet,
    LocationEnv,
    R,
    ReadKind,
    Seq,
    Skip,
    Store,
    WriteKind,
    assign,
    count_memory_accesses,
    fence_tso,
    has_loops,
    if_,
    iter_statements,
    load,
    localise_private_locations,
    make_program,
    private_locations,
    rename_registers_stmt,
    seq,
    statement_constants,
    statement_registers,
    statement_size,
    store,
    unroll_loops,
    while_,
)


class TestConstructors:
    def test_seq_right_nested(self):
        stmt = seq(assign("a", 1), assign("b", 2), assign("c", 3))
        assert isinstance(stmt, Seq)
        assert isinstance(stmt.second, Seq)

    def test_seq_drops_skips(self):
        assert seq(Skip(), assign("a", 1), Skip()) == assign("a", 1)

    def test_seq_empty_is_skip(self):
        assert seq() == Skip()

    def test_load_coerces_address(self):
        stmt = load("r1", 8)
        assert isinstance(stmt.addr, type(load("r1", 8).addr))

    def test_store_exclusive_requires_success_register(self):
        with pytest.raises(ValueError):
            Store(load("r1", 0).addr, load("r1", 0).addr, WriteKind.PLN, True, None)

    def test_if_default_else_is_skip(self):
        stmt = if_(R("r1").eq(1), assign("a", 1))
        assert stmt.orelse == Skip()

    def test_barrier_aliases(self):
        assert DMB_SY.before is FenceSet.RW and DMB_SY.after is FenceSet.RW
        assert DMB_LD.before is FenceSet.R

    def test_fence_tso_is_two_fences(self):
        stmt = fence_tso()
        kinds = [type(node).__name__ for node in iter_statements(stmt)]
        assert kinds.count("Fence") == 2


class TestKinds:
    def test_read_kind_lattice(self):
        assert ReadKind.ACQ.is_acquire and ReadKind.ACQ.is_strong_acquire
        assert ReadKind.WACQ.is_acquire and not ReadKind.WACQ.is_strong_acquire
        assert not ReadKind.PLN.is_acquire

    def test_write_kind_lattice(self):
        assert WriteKind.REL.is_release and WriteKind.REL.is_strong_release
        assert WriteKind.WREL.is_release and not WriteKind.WREL.is_strong_release

    def test_fence_set_inclusion(self):
        assert FenceSet.RW.includes(FenceSet.R)
        assert FenceSet.RW.includes(FenceSet.W)
        assert not FenceSet.R.includes(FenceSet.W)


class TestQueries:
    def test_statement_registers(self):
        stmt = seq(load("r1", 0), store(8, R("r1") + R("r2")), if_(R("r3").eq(0), Skip()))
        assert statement_registers(stmt) == {"r1", "r2", "r3"}

    def test_statement_constants(self):
        stmt = seq(load("r1", 16), store(8, 42))
        assert {8, 16, 42} <= set(statement_constants(stmt))

    def test_count_memory_accesses(self):
        stmt = seq(load("r1", 0), store(0, 1), assign("a", 2), DMB_SY)
        assert count_memory_accesses(stmt) == 2

    def test_statement_size_counts_nodes(self):
        assert statement_size(seq(assign("a", 1), assign("b", 2))) == 3

    def test_has_loops(self):
        assert has_loops(while_(R("r").eq(0), Skip()))
        assert not has_loops(seq(assign("a", 1)))


class TestTransforms:
    def test_unroll_removes_loops(self):
        stmt = while_(R("r").eq(0), load("r", 0))
        unrolled = unroll_loops(stmt, 3)
        assert not has_loops(unrolled)
        assert count_memory_accesses(unrolled) == 3

    def test_unroll_zero_gives_skip(self):
        assert unroll_loops(while_(R("r").eq(0), Skip()), 0) == Skip()

    def test_unroll_negative_rejected(self):
        with pytest.raises(ValueError):
            unroll_loops(Skip(), -1)

    def test_rename_registers_stmt(self):
        stmt = seq(load("r1", 0), store(0, R("r1")))
        renamed = rename_registers_stmt(stmt, {"r1": "t1"})
        assert statement_registers(renamed) == {"t1"}

    def test_private_locations_detected(self):
        env = LocationEnv()
        shared, private = env["shared"], env["private"]
        t0 = seq(store(private, 1), load("r1", private), store(shared, R("r1")))
        t1 = load("r2", shared)
        program = make_program([t0, t1], env=env)
        assert private_locations(program) == {private}

    def test_private_locations_conservative_on_dynamic_addresses(self):
        env = LocationEnv()
        t0 = store(R("rp") + 0, 1)
        program = make_program([t0, load("r1", env["x"])], env=env)
        assert private_locations(program) == frozenset()

    def test_localise_rewrites_private_accesses(self):
        env = LocationEnv()
        shared, private = env["shared"], env["private"]
        t0 = seq(store(private, 7), load("r1", private), store(shared, R("r1")))
        program = make_program([t0, load("r2", shared)], env=env, initial={private: 3})
        rewritten, localised = localise_private_locations(program)
        assert localised == {private}
        assert count_memory_accesses(rewritten.threads[0]) == 1
        assert private not in rewritten.initial

    def test_localise_respects_extra_shared(self):
        env = LocationEnv()
        private = env["private"]
        program = make_program([store(private, 1), Skip()], env=env)
        rewritten, localised = localise_private_locations(program, extra_shared=[private])
        assert localised == frozenset()
        assert rewritten.threads == program.threads


class TestProgram:
    def test_program_queries(self):
        env = LocationEnv()
        program = make_program([seq(load("r1", env["x"]), store(env["y"], 5))], env=env, name="t")
        assert program.n_threads == 1
        assert 5 in program.constants()
        assert program.memory_access_count() == 2
        assert program.loc_name(env["x"]) == "x"
        assert program.initial_value(env["x"]) == 0

    def test_location_env_allocation(self):
        env = LocationEnv(stride=8)
        a, b = env["a"], env["b"]
        assert b - a == 8
        assert env["a"] == a  # stable on re-lookup
        assert "a" in env and len(env) == 2

    def test_location_env_array(self):
        env = LocationEnv(stride=8)
        cells = env.array("buf", 3)
        assert cells == [cells[0], cells[0] + 8, cells[0] + 16]

    def test_location_env_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            LocationEnv(stride=0)

    def test_describe_mentions_threads(self):
        env = LocationEnv()
        program = make_program([Skip(), Skip()], env=env, name="demo")
        text = program.describe()
        assert "demo" in text and "thread 1" in text
