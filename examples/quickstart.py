#!/usr/bin/env python3
"""Quickstart: explore the message-passing litmus test under Promising-ARM.

This walks the core API end to end:

1. build a small concurrent program in the paper's calculus,
2. exhaustively enumerate its architecturally allowed outcomes with the
   promising model,
3. cross-check the outcome sets against the reference axiomatic model,
   judged by the same policy the ``sweep`` and ``fuzz`` batteries use,
4. strengthen the program (barrier + address dependency) and observe the
   relaxed outcome disappear.

Run with:  python examples/quickstart.py
"""

from repro.lang import (
    DMB_SY,
    LocationEnv,
    dependency_idiom,
    load,
    make_program,
    seq,
    store,
)
from repro.harness import Job, differential_mismatches, run_jobs
from repro.lang.kinds import Arch
from repro.litmus import RegEq, cond_and
from repro.promising import ExploreConfig, explore


def message_passing(with_ordering: bool) -> "Program":
    """The MP shape: T0 publishes data then a flag, T1 reads flag then data."""
    env = LocationEnv()
    data, flag = env["data"], env["flag"]
    if with_ordering:
        writer = seq(store(data, 37), DMB_SY, store(flag, 1))
        reader = seq(load("r1", flag), load("r2", dependency_idiom(data, "r1")))
    else:
        writer = seq(store(data, 37), store(flag, 1))
        reader = seq(load("r1", flag), load("r2", data))
    return make_program(
        [writer, reader], env=env, name="MP" + ("+dmb+addr" if with_ordering else "")
    )


def main() -> None:
    relaxed = cond_and(RegEq(1, "r1", 1), RegEq(1, "r2", 0))

    for with_ordering in (False, True):
        program = message_passing(with_ordering)
        print(f"=== {program.name} ===")
        print(program.describe())

        result = explore(program, ExploreConfig(arch=Arch.ARM))
        observed = result.outcomes.any_satisfies(relaxed.holds)
        print(f"\npromising model: {len(result.outcomes)} final states "
              f"({result.stats.describe()})")
        print(result.outcomes.describe(program.loc_names))
        print(f"relaxed outcome (r1=1, r2=0) observed: {observed}")

        jobs = [Job.for_program(program, model, Arch.ARM) for model in ("promising", "axiomatic")]
        promising, axiomatic = run_jobs(jobs)
        counterexamples, _explained = differential_mismatches(jobs, [promising, axiomatic])
        print(f"axiomatic model: {len(axiomatic.outcomes)} final states; projected outcome "
              f"sets {'DIFFER' if counterexamples else 'agree'}")
        print()

    print("Summary: without ordering the stale read is architecturally allowed;")
    print("the dmb.sy + address dependency version forbids it, in both models.")


if __name__ == "__main__":
    main()
