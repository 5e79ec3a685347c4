"""ARMv8 and RISC-V assembly front ends (the Sail-ISA-model substitute)."""

from .._lazy import lazy_exports

# Each name loads its submodule on first use: the program compiler
# (``repro.isa.compile``) runs every exploration, the front ends only
# when assembly is parsed.
_EXPORTS = {
    "ir": (
        "Branch",
        "IrInstr",
        "StraightLine",
        "StructurisationError",
        "ThreadIr",
        "structurise",
    ),
    "armv8": ("Armv8ParseError",),
    "riscv": ("RiscvParseError",),
    "assembler": (
        "ThreadSource",
        "assemble_program",
        "assemble_thread",
        "assembly_line_count",
        "normalise_register",
        "parse_thread",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
