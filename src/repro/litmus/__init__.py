"""Litmus tests: conditions, catalogue, cycle-generated batteries, runners."""

from .._lazy import lazy_exports

# Each name loads its submodule on first use: looking a test up in the
# catalogue loads neither the cycle generator nor the model runners.
_EXPORTS = {
    "conditions": (
        "And",
        "Condition",
        "MemEq",
        "Not",
        "Or",
        "RegEq",
        "TrueCond",
        "cond_and",
        "cond_or",
        "parse_condition",
    ),
    "test": ("LitmusTest", "Verdict", "allowed"),
    "catalogue": ("all_tests", "get_test", "tests_by_name"),
    "cycles": (
        "Coe",
        "Coi",
        "Cycle",
        "CycleError",
        "Edge",
        "FAMILIES",
        "Family",
        "Fre",
        "Fri",
        "Linkage",
        "Rfe",
        "Rfi",
        "Slot",
        "get_family",
        "po",
    ),
    "synth": (
        "attach_expected",
        "canonical_fingerprint",
        "generate_cycle_battery",
        "generate_cycles",
        "synthesize",
    ),
    "runner": ("run_axiomatic", "run_flat", "run_promising"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
