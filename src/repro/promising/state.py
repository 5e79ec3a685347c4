"""State of the Promising-ARM/RISC-V model (Fig. 2 / Fig. 4 of the paper).

* timestamps and views are natural numbers (0 = the initial writes),
* memory is a list of write messages, indexed from 1,
* a thread state carries the promise set, the view-annotated register
  file, the per-location coherence views, the six ordering views
  (``vrOld, vwOld, vrNew, vwNew, vCAP, vRel``), the forwarding bank and
  the exclusives bank.

Everything here is immutable (or copy-on-write via :meth:`TState.copy`) so
states can be hashed and deduplicated by the explorers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

from ..lang.expr import BinOp, Const, Expr, OPERATORS, RegE, Reg, Value
from ..lang.program import Loc, TId

#: Timestamps and views.  Timestamp 0 denotes the initial writes.
Timestamp = int
View = int


def vmax(*views: View) -> View:
    """Join (⊔) of views: the maximum timestamp."""
    return max(views) if views else 0


@dataclass(frozen=True, slots=True)
class Msg:
    """A write message ⟨loc := val⟩_tid in memory."""

    loc: Loc
    val: Value
    tid: TId

    def __repr__(self) -> str:
        return f"<[{self.loc}]:={self.val}>@T{self.tid}"


class Memory:
    """The global memory: an immutable list of write messages.

    The paper treats memory as initially empty, holding value 0 for every
    location; litmus tests may override initial values, so the memory also
    carries an ``initial`` mapping consulted when reading at timestamp 0.
    """

    __slots__ = ("messages", "initial", "_hash")

    def __init__(
        self,
        initial: Optional[Mapping[Loc, Value]] = None,
        messages: Sequence[Msg] = (),
    ) -> None:
        self.messages: tuple[Msg, ...] = tuple(messages)
        self.initial: dict[Loc, Value] = dict(initial or {})
        self._hash: Optional[int] = None

    # -- construction -----------------------------------------------------
    def append(self, msg: Msg) -> tuple["Memory", Timestamp]:
        """Append ``msg``; return the new memory and the message's timestamp."""
        new = Memory.__new__(Memory)
        new.messages = self.messages + (msg,)
        new.initial = self.initial
        new._hash = None
        return new, len(new.messages)

    # -- queries ----------------------------------------------------------
    @property
    def last_timestamp(self) -> Timestamp:
        """The largest timestamp present (0 if memory is empty)."""
        return len(self.messages)

    def msg(self, t: Timestamp) -> Msg:
        """The message at timestamp ``t`` (1-based)."""
        if not 1 <= t <= len(self.messages):
            raise IndexError(f"no message at timestamp {t}")
        return self.messages[t - 1]

    def initial_value(self, loc: Loc) -> Value:
        return self.initial.get(loc, 0)

    def read(self, loc: Loc, t: Timestamp) -> Optional[Value]:
        """``read(M, l, t)`` of the paper: value read at timestamp ``t``.

        Timestamp 0 reads the initial value; other timestamps return the
        message value if the message is a write to ``loc`` and ``None``
        otherwise.
        """
        if t == 0:
            return self.initial_value(loc)
        msg = self.msg(t)
        return msg.val if msg.loc == loc else None

    def writes_to(self, loc: Loc) -> list[Timestamp]:
        """Timestamps (including 0) of all writes to ``loc``."""
        result = [0]
        result.extend(
            t for t, msg in enumerate(self.messages, start=1) if msg.loc == loc
        )
        return result

    def no_write_to_in(self, loc: Loc, lower: Timestamp, upper: Timestamp) -> bool:
        """True iff no message to ``loc`` exists with ``lower < t ≤ upper``."""
        lo = max(lower, 0)
        hi = min(upper, self.last_timestamp)
        return all(self.messages[t - 1].loc != loc for t in range(lo + 1, hi + 1))

    def final_values(self) -> dict[Loc, Value]:
        """Final value of every location ever mentioned (last write wins)."""
        values = dict(self.initial)
        for msg in self.messages:
            values[msg.loc] = msg.val
        return values

    # -- identity ---------------------------------------------------------
    def cache_key(self) -> tuple:
        """Canonical hashable identity for dedup/memo tables.

        The message tuple: the initial map is a per-program constant, so
        it never discriminates within one exploration.
        """
        return self.messages

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Memory)
            and self.messages == other.messages
            and self.initial == other.initial
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.messages, tuple(sorted(self.initial.items()))))
        return self._hash

    def __len__(self) -> int:
        return len(self.messages)

    def __repr__(self) -> str:
        body = "; ".join(f"{t}:{m!r}" for t, m in enumerate(self.messages, start=1))
        return f"[{body}]"


class Forward(NamedTuple):
    """Forwarding-bank entry: last own write to a location (r13–r16)."""

    time: Timestamp
    view: View
    xcl: bool


#: Initial forwarding-bank entry for every location.
FWD_INIT = Forward(0, 0, False)


class ExclBank(NamedTuple):
    """Exclusives-bank entry: the last load exclusive (ρ8–ρ10)."""

    time: Timestamp
    view: View


class TState:
    """Per-thread state (the record ``ts`` of Fig. 2/Fig. 4).

    Mutable in place only through :meth:`copy`-then-update, which is what
    the step functions do; :meth:`key` provides a canonical hashable
    snapshot for state-space deduplication.
    """

    __slots__ = (
        "prom",
        "regs",
        "coh",
        "vrOld",
        "vwOld",
        "vrNew",
        "vwNew",
        "vCAP",
        "vRel",
        "fwdb",
        "xclb",
        "_ckey",
    )

    def __init__(self) -> None:
        self.prom: frozenset[Timestamp] = frozenset()
        self.regs: dict[Reg, tuple[Value, View]] = {}
        self.coh: dict[Loc, View] = {}
        self.vrOld: View = 0
        self.vwOld: View = 0
        self.vrNew: View = 0
        self.vwNew: View = 0
        self.vCAP: View = 0
        self.vRel: View = 0
        self.fwdb: dict[Loc, Forward] = {}
        self.xclb: Optional[ExclBank] = None
        self._ckey: Optional[tuple] = None

    # -- lookups ----------------------------------------------------------
    def reg(self, name: Reg) -> tuple[Value, View]:
        """Register lookup; unwritten registers hold ``0`` with view 0."""
        return self.regs.get(name, (0, 0))

    def coh_view(self, loc: Loc) -> View:
        return self.coh.get(loc, 0)

    def forward(self, loc: Loc) -> Forward:
        return self.fwdb.get(loc, FWD_INIT)

    def eval(self, expr: Expr) -> tuple[Value, View]:
        """Expression interpretation ⟦e⟧ over value–view pairs (Fig. 5).

        Constants carry view 0; register reads return the stored pair; an
        operator merges the operand views (rule r9).
        """
        if isinstance(expr, Const):
            return expr.value, 0
        if isinstance(expr, RegE):
            return self.reg(expr.reg)
        if isinstance(expr, BinOp):
            v1, n1 = self.eval(expr.left)
            v2, n2 = self.eval(expr.right)
            return OPERATORS[expr.op](v1, v2), vmax(n1, n2)
        raise TypeError(f"not an expression: {expr!r}")

    def register_values(self) -> dict[Reg, Value]:
        """Plain value view of the register file (views stripped)."""
        return {name: val for name, (val, _view) in self.regs.items()}

    @property
    def has_promises(self) -> bool:
        return bool(self.prom)

    # -- copying / identity -------------------------------------------------
    def copy(self) -> "TState":
        new = TState.__new__(TState)
        new.prom = self.prom
        new.regs = dict(self.regs)
        new.coh = dict(self.coh)
        new.vrOld = self.vrOld
        new.vwOld = self.vwOld
        new.vrNew = self.vrNew
        new.vwNew = self.vwNew
        new.vCAP = self.vCAP
        new.vRel = self.vRel
        new.fwdb = dict(self.fwdb)
        new.xclb = self.xclb
        new._ckey = None
        return new

    def key(self) -> tuple:
        """Canonical hashable snapshot of the thread state.

        The thread state's one identity: every visited set, memo and
        intern table keys on it (through :meth:`cache_key`).  ``regs``
        holds only the registers the thread wrote, so a never-written
        register stays apart from one holding ``(0, 0)``.  The step
        kernels of :mod:`repro.isa.compile` compute successor keys in
        this form directly; :meth:`from_key` inverts it.
        """
        return (
            self.prom,
            tuple(sorted(self.regs.items())),
            tuple(sorted(self.coh.items())),
            self.vrOld,
            self.vwOld,
            self.vrNew,
            self.vwNew,
            self.vCAP,
            self.vRel,
            tuple(sorted(self.fwdb.items())),
            self.xclb,
        )

    @classmethod
    def from_key(cls, key: tuple) -> "TState":
        """The thread state whose :meth:`key` is ``key`` (its inverse).

        The packed backend keeps thread states as keys and never builds
        a ``TState``; the law tests build one to run the reference rules.
        """
        new = cls.__new__(cls)
        (
            new.prom,
            regs,
            coh,
            new.vrOld,
            new.vwOld,
            new.vrNew,
            new.vwNew,
            new.vCAP,
            new.vRel,
            fwdb,
            xclb,
        ) = key
        new.regs = dict(regs)
        new.coh = dict(coh)
        new.fwdb = {loc: Forward(*entry) for loc, entry in fwdb}
        new.xclb = None if xclb is None else ExclBank(*xclb)
        new._ckey = None
        return new

    def cache_key(self) -> tuple:
        """The :meth:`key` snapshot, computed once and cached.

        Intended for the explorers and certification, which follow the
        copy-then-update discipline (every mutation happens on a fresh
        :meth:`copy` before the state is first keyed); ``copy()`` resets
        the cache on the new instance, and the per-object cache removes
        the repeated dict sorts from the hot search paths.  Code that
        mutates a state in place after keying it (tests, ad-hoc setup)
        must use :meth:`key` / ``==`` instead, which always recompute.
        """
        ck = self._ckey
        if ck is None:
            ck = self._ckey = self.key()
        return ck

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TState) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        regs = {r: v for r, (v, _n) in sorted(self.regs.items())}
        return (
            f"TState(prom={sorted(self.prom)}, regs={regs}, "
            f"vrOld={self.vrOld}, vwOld={self.vwOld}, vrNew={self.vrNew}, "
            f"vwNew={self.vwNew}, vCAP={self.vCAP}, vRel={self.vRel})"
        )

    # -- debugging helpers --------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable dump used by the interactive tool."""
        lines = [
            f"promises : {sorted(self.prom)}",
            "registers: "
            + ", ".join(f"{r}={v}@{n}" for r, (v, n) in sorted(self.regs.items())),
            f"views    : vrOld={self.vrOld} vwOld={self.vwOld} "
            f"vrNew={self.vrNew} vwNew={self.vwNew} vCAP={self.vCAP} vRel={self.vRel}",
            "coherence: "
            + ", ".join(f"[{l}]={v}" for l, v in sorted(self.coh.items())),
        ]
        if self.xclb is not None:
            lines.append(f"xclb     : time={self.xclb.time} view={self.xclb.view}")
        return "\n".join(lines)


def initial_tstate() -> TState:
    """The initial thread state: everything zero / empty."""
    return TState()


__all__ = [
    "Timestamp",
    "View",
    "vmax",
    "Msg",
    "Memory",
    "Forward",
    "FWD_INIT",
    "ExclBank",
    "TState",
    "initial_tstate",
]
