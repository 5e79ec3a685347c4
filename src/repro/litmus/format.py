"""Parser and printer for the herd/rmem-style litmus text format.

The paper's tool consumes litmus files produced from compiled assembly;
this module implements the same interchange format for the subset of
features the models support::

    AArch64 MP+dmb+addr
    "message passing with barrier and address dependency"
    {
      0:X1=x; 0:X3=y;
      1:X1=y; 1:X3=x;
      x=0; y=0;
    }
     P0          | P1            ;
     MOV W0,#1   | LDR W0,[X1]   ;
     STR W0,[X1] | EOR W2,W0,W0  ;
     DMB SY      | LDR W3,[X3,W2];
     STR W0,[X3] |               ;
    exists (1:X0=1 /\\ 1:X3=0)

* The architecture line is ``AArch64`` / ``ARM`` or ``RISCV`` / ``RV64``.
* The init section assigns registers to constants or to the *address of* a
  named shared variable, and gives shared variables their initial values.
* The body is a table: one column per thread, cells separated by ``|``,
  rows terminated by ``;``.
* The condition is an ``exists`` (or ``~exists``/``forall``) formula over
  final register and memory values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..lang.kinds import Arch
from ..lang.program import LocationEnv
from ..isa.assembler import ThreadSource, assemble_program, normalise_register
from .conditions import Condition, Not, parse_condition
from .test import LitmusTest

_ARCH_NAMES = {
    "AARCH64": Arch.ARM,
    "ARM": Arch.ARM,
    "ARMV8": Arch.ARM,
    "RISCV": Arch.RISCV,
    "RISC-V": Arch.RISCV,
    "RV64": Arch.RISCV,
}


class LitmusFormatError(Exception):
    """Raised when a litmus file cannot be parsed."""


@dataclass
class ParsedLitmus:
    """A parsed litmus file: the test plus its architecture."""

    test: LitmusTest
    arch: Arch
    quantifier: str  # 'exists', 'not-exists' or 'forall'


def _strip_comments(text: str) -> str:
    # (* ... *) comments may span lines.
    return re.sub(r"\(\*.*?\*\)", "", text, flags=re.DOTALL)


def parse_litmus(text: str, unroll_bound: int = 2) -> ParsedLitmus:
    """Parse a litmus file into a :class:`~repro.litmus.test.LitmusTest`."""
    text = _strip_comments(text)
    lines = text.splitlines()
    # --- header ------------------------------------------------------------
    header_index = next(
        (i for i, line in enumerate(lines) if line.strip()), None
    )
    if header_index is None:
        raise LitmusFormatError("empty litmus file")
    header = lines[header_index].split()
    if not header or header[0].upper() not in _ARCH_NAMES:
        raise LitmusFormatError(f"unknown architecture in header: {lines[header_index]!r}")
    arch = _ARCH_NAMES[header[0].upper()]
    name = header[1] if len(header) > 1 else "litmus"

    body = "\n".join(lines[header_index + 1 :])

    # --- init block ----------------------------------------------------------
    brace_match = re.search(r"\{(.*?)\}", body, flags=re.DOTALL)
    if not brace_match:
        raise LitmusFormatError("missing '{ ... }' initialisation block")
    init_block = brace_match.group(1)
    after_init = body[brace_match.end() :]

    env = LocationEnv(stride=8)
    initial: dict[int, int] = {}
    reg_inits: dict[int, dict[str, object]] = {}
    for item in init_block.replace("\n", ";").split(";"):
        item = item.strip().rstrip(",")
        if not item:
            continue
        left, _eq, right = item.partition("=")
        if not _eq:
            raise LitmusFormatError(f"malformed initialisation {item!r}")
        left, right = left.strip(), right.strip()
        if ":" in left:
            tid_text, _c, reg = left.partition(":")
            tid = int(tid_text)
            reg_inits.setdefault(tid, {})[reg.strip()] = right
        else:
            initial[env[left]] = int(right, 0)

    # --- condition -----------------------------------------------------------
    cond_match = re.search(
        r"(~\s*exists|exists|forall)\s*(.*)", after_init, flags=re.DOTALL | re.IGNORECASE
    )
    if not cond_match:
        raise LitmusFormatError("missing exists/forall condition")
    quant_text = cond_match.group(1).lower().replace(" ", "")
    cond_text = cond_match.group(2).strip()
    code_block = after_init[: cond_match.start()]

    # --- thread table ----------------------------------------------------------
    rows = [row for row in code_block.split(";") if row.strip()]
    if not rows:
        raise LitmusFormatError("missing thread code")
    header_cells = [cell.strip() for cell in rows[0].split("|")]
    if not all(re.fullmatch(r"P\d+", cell) for cell in header_cells if cell):
        raise LitmusFormatError(f"malformed thread header row: {rows[0]!r}")
    n_threads = len(header_cells)
    per_thread_lines: list[list[str]] = [[] for _ in range(n_threads)]
    for row in rows[1:]:
        cells = row.split("|")
        for tid in range(n_threads):
            cell = cells[tid].strip() if tid < len(cells) else ""
            if cell:
                per_thread_lines[tid].append(cell)

    # Resolve register initialisations: values may be integers or the name
    # of a shared variable (meaning its address).
    sources = []
    for tid in range(n_threads):
        resolved: dict[str, int] = {}
        for reg, value in reg_inits.get(tid, {}).items():
            reg_name = normalise_register(reg, arch)
            text_value = str(value)
            if re.fullmatch(r"-?\d+", text_value):
                resolved[reg_name] = int(text_value)
            else:
                resolved[reg_name] = env[text_value]
        sources.append(ThreadSource("\n".join(per_thread_lines[tid]), resolved))

    program = assemble_program(
        sources, arch, initial=initial, env=env, name=name, unroll_bound=unroll_bound
    )

    condition = parse_condition(cond_text, {n: env[n] for n in _location_names(env)})
    condition = _normalise_registers_in_condition(condition, arch)
    quantifier = {"~exists": "not-exists", "exists": "exists", "forall": "forall"}[quant_text]
    if quantifier == "forall":
        condition = Not(condition)
    test = LitmusTest(name, program, condition, {}, f"parsed litmus ({quantifier})")
    return ParsedLitmus(test, arch, quantifier)


def _location_names(env: LocationEnv) -> list[str]:
    return [name for _loc, name in sorted(env.names().items())]


def _normalise_registers_in_condition(condition: Condition, arch: Arch) -> Condition:
    """Rewrite ``1:X0`` style register references to canonical names.

    A register the target architecture cannot name is a malformed litmus
    file, not something to pass through: an un-normalised reference would
    never match the assembled program's registers, silently evaluating to
    the initial value 0 *and* corrupting the job fingerprint relative to
    an otherwise-identical test written with canonical names.
    """
    from ..isa.armv8 import Armv8ParseError
    from ..isa.riscv import RiscvParseError
    from .conditions import And, Not as NotCond, Or, RegEq

    def rewrite(cond: Condition) -> Condition:
        if isinstance(cond, RegEq):
            try:
                return RegEq(cond.tid, normalise_register(cond.reg, arch), cond.value)
            except (Armv8ParseError, RiscvParseError) as exc:
                raise LitmusFormatError(
                    f"malformed register reference {cond.tid}:{cond.reg} "
                    f"in condition: {exc}"
                ) from exc
        if isinstance(cond, And):
            return And(tuple(rewrite(p) for p in cond.parts))
        if isinstance(cond, Or):
            return Or(tuple(rewrite(p) for p in cond.parts))
        if isinstance(cond, NotCond):
            return NotCond(rewrite(cond.part))
        return cond

    return rewrite(condition)


__all__ = ["LitmusFormatError", "ParsedLitmus", "parse_litmus"]
