"""Promising-ARM/RISC-V operational model, certification and exploration."""

from .state import ExclBank, Forward, Memory, Msg, Timestamp, TState, View, initial_tstate, vmax
from .steps import (
    ThreadStep,
    is_terminated,
    non_promise_steps,
    normal_write_steps,
    normalise,
    promise_step,
    sequential_steps,
    thread_local_steps,
)
from .certification import (
    DEFAULT_FUEL,
    CertificationResult,
    can_complete_without_promising,
    certified,
    certify_thread,
    find_and_certify,
)
from .machine import MachineState, MachineTransition, Thread, machine_transitions, run_deterministic
from .exhaustive import (
    ExplorationResult,
    ExplorationStats,
    ExploreConfig,
    explore,
    explore_naive,
)
from .interactive import InteractiveSession, TraceEntry, find_witness

__all__ = [
    "ExclBank",
    "Forward",
    "Memory",
    "Msg",
    "Timestamp",
    "TState",
    "View",
    "initial_tstate",
    "vmax",
    "ThreadStep",
    "is_terminated",
    "non_promise_steps",
    "normal_write_steps",
    "normalise",
    "promise_step",
    "sequential_steps",
    "thread_local_steps",
    "DEFAULT_FUEL",
    "CertificationResult",
    "can_complete_without_promising",
    "certified",
    "certify_thread",
    "find_and_certify",
    "MachineState",
    "MachineTransition",
    "Thread",
    "machine_transitions",
    "run_deterministic",
    "ExplorationResult",
    "ExplorationStats",
    "ExploreConfig",
    "explore",
    "explore_naive",
    "InteractiveSession",
    "TraceEntry",
    "find_witness",
]
