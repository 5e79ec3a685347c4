"""Tests for the exhaustive explorers, the machine, and the interactive tool."""

import pytest

from repro.lang import LocationEnv, R, load, make_program, seq, store, while_
from repro.lang.kinds import Arch
from repro.litmus import get_test, run_promising
from repro.promising import (
    ExploreConfig,
    InteractiveSession,
    MachineState,
    explore,
    explore_naive,
    find_witness,
    machine_transitions,
    run_deterministic,
)


def lb_program():
    env = LocationEnv()
    t0 = seq(load("r1", env["x"]), store(env["y"], 1))
    t1 = seq(load("r2", env["y"]), store(env["x"], 1))
    return make_program([t0, t1], env=env, name="LB"), env


class TestPromiseFirstVersusNaive:
    """Theorem 7.1: promise-first exploration reaches the same outcomes."""

    @pytest.mark.parametrize(
        "name", ["MP", "MP+dmbs", "SB", "LB", "LB+datas", "CoRR", "MP+rel+acq", "2+2W"]
    )
    def test_same_outcomes(self, name):
        test = get_test(name)
        optimised = run_promising(test, Arch.ARM)
        naive = run_promising(test, Arch.ARM, naive=True)
        assert set(optimised.outcomes) == set(naive.outcomes), name

    def test_naive_explores_more_states(self):
        program, _env = lb_program()
        fast = explore(program, ExploreConfig())
        slow = explore_naive(program, ExploreConfig())
        assert slow.stats.promise_states > fast.stats.promise_states


class TestExploreMechanics:
    def test_loop_bounding_applies(self):
        env = LocationEnv()
        spin = seq(while_(R("r").eq(0), load("r", env["flag"])), store(env["out"], 1))
        program = make_program([spin, store(env["flag"], 1)], env=env)
        result = explore(program, ExploreConfig(loop_bound=2))
        assert len(result.outcomes) > 0
        assert not result.stats.truncated

    def test_max_states_truncation_reported(self):
        program, _env = lb_program()
        result = explore(program, ExploreConfig(max_states=1))
        assert result.stats.truncated

    def test_stats_describe_mentions_key_counters(self):
        program, _env = lb_program()
        result = explore(program, ExploreConfig())
        text = result.stats.describe()
        assert "promise states" in text and "final memories" in text
        assert result.describe().startswith(f"{len(result.outcomes)} outcomes")

    def test_shared_locations_survive_localisation(self):
        env = LocationEnv()
        private = env["private"]
        program = make_program([store(private, 3), load("r1", env["x"])], env=env)
        kept = explore(program, ExploreConfig(shared_locations=(private,)))
        assert all(o.mem(private) == 3 for o in kept.outcomes)

    def test_arm_and_riscv_differ_only_where_expected(self):
        test = get_test("MP+dmbs")
        arm = run_promising(test, Arch.ARM)
        riscv = run_promising(test, Arch.RISCV)
        assert set(arm.outcomes) == set(riscv.outcomes)


class TestMachine:
    def test_initial_state_and_finality(self):
        program, _env = lb_program()
        state = MachineState.initial(program, Arch.ARM)
        assert not state.is_final
        assert state.n_threads == 2

    def test_machine_transitions_are_certified_promises_and_reads(self):
        program, _env = lb_program()
        state = MachineState.initial(program, Arch.ARM)
        kinds = {t.step.kind for t in machine_transitions(state)}
        assert "read" in kinds and "promise" in kinds

    def test_run_deterministic_reaches_final_state(self):
        program, _env = lb_program()
        state = MachineState.initial(program, Arch.ARM)
        final = run_deterministic(state, lambda ts: ts[0])
        assert final.is_final
        assert final.outcome().n_threads == 2


class TestInteractive:
    def test_stepping_and_undo(self):
        program, _env = lb_program()
        session = InteractiveSession(program, Arch.ARM)
        assert session.enabled
        before = session.state.cache_key()
        session.step(0)
        assert session.state.cache_key() != before
        session.undo()
        assert session.state.cache_key() == before

    def test_run_until_completion(self):
        program, _env = lb_program()
        session = InteractiveSession(program, Arch.ARM)
        assert session.run_until(lambda state: state.is_final)
        assert session.finished
        assert session.outcome().n_threads == 2
        assert "execution finished" in session.show()

    def test_reset(self):
        program, _env = lb_program()
        session = InteractiveSession(program, Arch.ARM)
        session.step(0)
        session.reset()
        assert not session.trace

    def test_invalid_step_index(self):
        program, _env = lb_program()
        session = InteractiveSession(program, Arch.ARM)
        with pytest.raises(IndexError):
            session.step(999)

    def test_undo_on_fresh_session(self):
        program, _env = lb_program()
        session = InteractiveSession(program, Arch.ARM)
        with pytest.raises(RuntimeError):
            session.undo()

    def test_find_witness_for_relaxed_lb(self):
        program, _env = lb_program()
        trace = find_witness(
            program, lambda o: o.reg(0, "r1") == 1 and o.reg(1, "r2") == 1, Arch.ARM
        )
        assert trace is not None
        # The witness must start by promising (writes-first, Theorem 7.1 flavour).
        assert any(entry.transition.step.kind == "promise" for entry in trace)
        # Replaying the trace through a fresh session reproduces the outcome.
        session = InteractiveSession(program, Arch.ARM)
        session.run_trace([entry.index for entry in trace])
        assert session.finished
        outcome = session.outcome()
        assert outcome.reg(0, "r1") == 1 and outcome.reg(1, "r2") == 1

    def test_find_witness_returns_none_for_forbidden_outcome(self):
        test = get_test("MP+dmbs")
        witness = find_witness(test.program, test.condition.holds, Arch.ARM)
        assert witness is None
