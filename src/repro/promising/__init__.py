"""Promising-ARM/RISC-V operational model, certification and exploration."""

from .._lazy import lazy_exports

# Each name loads its submodule on first use: exploring a test never
# loads the interactive session.
_EXPORTS = {
    "state": (
        "ExclBank",
        "Forward",
        "Memory",
        "Msg",
        "Timestamp",
        "TState",
        "View",
        "initial_tstate",
        "vmax",
    ),
    "steps": (
        "ThreadStep",
        "is_terminated",
        "non_promise_steps",
        "normal_write_steps",
        "normalise",
        "promise_step",
        "sequential_steps",
        "thread_local_steps",
    ),
    "certification": (
        "DEFAULT_FUEL",
        "CertificationResult",
        "can_complete_without_promising",
        "certified",
        "find_and_certify",
    ),
    "machine": (
        "MachineState",
        "MachineTransition",
        "Thread",
        "machine_transitions",
        "run_deterministic",
    ),
    "exhaustive": (
        "ExplorationResult",
        "ExplorationStats",
        "ExploreConfig",
        "explore",
        "explore_naive",
    ),
    "interactive": ("InteractiveSession", "TraceEntry", "find_witness"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
