"""Relaxation-edge cycles: the diy-style vocabulary behind test generation.

The paper validates the promising machine against the axiomatic models on
thousands of *generated* litmus tests (§7).  The generator used there (diy)
works from **critical cycles**: a litmus test is specified as a cycle of
relaxation edges — program-order edges decorated with an ordering mechanism
(dependency, barrier, acquire/release) composed with communication edges
(``rf``, ``co``, ``fr``, in internal and external variants) — and the test
program plus its final-state condition are *derived* from the cycle.  This
module provides that vocabulary:

* :class:`Linkage` — how a program-order edge is strengthened (nothing, an
  address/data/control dependency, a barrier, acquire/release kinds);
* :class:`Edge` — one cycle edge: ``rf``/``co``/``fr`` (internal or
  external) or a decorated ``po`` edge (same or different location);
* :class:`Cycle` — a validated sequence of edges (directions must chain,
  at least two external edges so there are at least two threads, location
  changes must tile the cycle);
* :class:`Family` — a cycle skeleton whose ``po`` slots range over a set
  of linkages, expanding into a deterministic battery of cycles.

:mod:`repro.litmus.synth` turns a :class:`Cycle` into an executable
:class:`~repro.litmus.test.LitmusTest` and expands :data:`FAMILIES` into
the battery that ``sweep`` and ``fuzz`` run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from ..lang import DMB_LD, DMB_ST, DMB_SY, Stmt

#: Event directions.
READ = "R"
WRITE = "W"


class CycleError(ValueError):
    """Raised when a cycle specification is malformed."""


@dataclass(frozen=True)
class Linkage:
    """How two consecutive accesses of a thread are ordered (or not).

    ``barrier`` is inserted between the accesses; ``addr``/``data``/``ctrl``
    request the corresponding syntactic dependency from the first access's
    destination register; ``acquire_first``/``release_second`` strengthen
    the access kinds themselves.
    """

    name: str
    barrier: Optional[Stmt] = None
    addr: bool = False
    data: bool = False
    ctrl: bool = False
    isb: bool = False
    acquire_first: bool = False
    release_second: bool = False

    def __repr__(self) -> str:
        return self.name


#: The undecorated program-order edge.
PLAIN_PO = Linkage("po")

#: Linkages applicable between a load and a following load.
LINKS_RR: tuple[Linkage, ...] = (
    PLAIN_PO,
    Linkage("addr", addr=True),
    Linkage("ctrl", ctrl=True),
    Linkage("ctrlisb", ctrl=True, isb=True),
    Linkage("dmb.sy", barrier=DMB_SY),
    Linkage("dmb.ld", barrier=DMB_LD),
    Linkage("acq", acquire_first=True),
)

#: Linkages applicable between a load and a following store (adds data/rel).
LINKS_RW: tuple[Linkage, ...] = LINKS_RR + (
    Linkage("data", data=True),
    Linkage("rel", release_second=True),
)

#: Linkages applicable between a store and a following store.
LINKS_WW: tuple[Linkage, ...] = (
    PLAIN_PO,
    Linkage("dmb.sy", barrier=DMB_SY),
    Linkage("dmb.st", barrier=DMB_ST),
    Linkage("rel", release_second=True),
)

#: Linkages applicable between a store and a following load (only a full
#: barrier orders W→R on either architecture).
LINKS_WR: tuple[Linkage, ...] = (
    PLAIN_PO,
    Linkage("dmb.sy", barrier=DMB_SY),
)


def links_for(src: str, tgt: str) -> tuple[Linkage, ...]:
    """The canonical linkage set for a ``src``→``tgt`` program-order edge."""
    if src == READ:
        return LINKS_RW if tgt == WRITE else LINKS_RR
    return LINKS_WW if tgt == WRITE else LINKS_WR


@dataclass(frozen=True)
class Edge:
    """One edge of a relaxation cycle.

    ``kind`` is ``'rf'``, ``'co'``, ``'fr'`` (communication edges) or
    ``'po'`` (a program-order edge decorated by ``link``).  Communication
    edges never change location; external ones cross to the next thread.
    A ``po`` edge with ``loc_change`` moves to the next location of the
    cycle's location rotation.
    """

    kind: str
    src: str
    tgt: str
    external: bool = False
    loc_change: bool = False
    link: Linkage = PLAIN_PO

    def __post_init__(self) -> None:
        if self.kind not in ("rf", "co", "fr", "po"):
            raise CycleError(f"unknown edge kind {self.kind!r}")
        if self.src not in (READ, WRITE) or self.tgt not in (READ, WRITE):
            raise CycleError(f"bad edge directions {self.src!r}→{self.tgt!r}")
        if self.kind != "po":
            expected = {"rf": (WRITE, READ), "co": (WRITE, WRITE), "fr": (READ, WRITE)}
            if (self.src, self.tgt) != expected[self.kind]:
                raise CycleError(
                    f"{self.kind} edges are {expected[self.kind][0]}→"
                    f"{expected[self.kind][1]}, got {self.src}→{self.tgt}"
                )
            if self.loc_change:
                raise CycleError(f"{self.kind} edges stay on one location")
        if self.kind == "po" and self.external:
            raise CycleError("po edges are thread-internal")

    @property
    def is_comm(self) -> bool:
        return self.kind != "po"

    def label(self) -> str:
        """diy-style edge label (``rfe``, ``fri``, or the linkage name)."""
        if self.is_comm:
            return self.kind + ("e" if self.external else "i")
        return self.link.name

    def __repr__(self) -> str:
        return f"{self.label()}[{self.src}→{self.tgt}]"


#: External communication edges (cross-thread, same location).
Rfe = Edge("rf", WRITE, READ, external=True)
Coe = Edge("co", WRITE, WRITE, external=True)
Fre = Edge("fr", READ, WRITE, external=True)

#: Internal communication edges (same thread, same location).
Rfi = Edge("rf", WRITE, READ)
Coi = Edge("co", WRITE, WRITE)
Fri = Edge("fr", READ, WRITE)


def po(src: str, tgt: str, link: Linkage = PLAIN_PO, *, same_loc: bool = False) -> Edge:
    """A decorated program-order edge (changes location unless ``same_loc``)."""
    return Edge("po", src, tgt, loc_change=not same_loc, link=link)


@dataclass(frozen=True)
class Cycle:
    """A validated relaxation cycle.

    Invariants checked at construction:

    * edge directions chain around the cycle (edge *i*'s target direction
      is edge *i+1*'s source direction);
    * at least two edges are external, so the test has ≥ 2 threads;
    * the wrap-around edge is external (event 0 starts thread 0);
    * the number of location-changing edges is 0 or ≥ 2 (one change could
      never return to the starting location).
    """

    name: str
    edges: tuple[Edge, ...]
    family: str = ""

    def __post_init__(self) -> None:
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        if len(edges) < 2:
            raise CycleError(f"{self.name}: a cycle needs at least two edges")
        for i, edge in enumerate(edges):
            succ = edges[(i + 1) % len(edges)]
            if edge.tgt != succ.src:
                raise CycleError(
                    f"{self.name}: edge {i} ({edge!r}) ends in {edge.tgt} but "
                    f"edge {(i + 1) % len(edges)} ({succ!r}) starts in {succ.src}"
                )
        if sum(1 for e in edges if e.external) < 2:
            raise CycleError(f"{self.name}: need ≥ 2 external edges (≥ 2 threads)")
        if not edges[-1].external:
            raise CycleError(
                f"{self.name}: the wrap-around edge must be external "
                "(rotate the cycle so a thread boundary closes it)"
            )
        changes = sum(1 for e in edges if e.loc_change)
        if changes == 1:
            raise CycleError(f"{self.name}: exactly one location change cannot close the cycle")

    @property
    def n_events(self) -> int:
        return len(self.edges)

    @property
    def n_threads(self) -> int:
        return sum(1 for e in self.edges if e.external)

    @property
    def n_locations(self) -> int:
        return sum(1 for e in self.edges if e.loc_change) or 1

    def spec(self) -> str:
        """Compact edge-list spec, e.g. ``po(W→W) rfe po(R→R) fre``."""
        return " ".join(e.label() for e in self.edges)

    def __repr__(self) -> str:
        return f"Cycle({self.name!r}: {self.spec()})"


@dataclass(frozen=True)
class Slot:
    """A ``po`` position of a family skeleton whose linkage varies.

    ``links`` defaults to the canonical set for the slot's directions
    (:func:`links_for`); a family may pin it (e.g. the classic ``S`` shape
    fixes the writer edge to ``dmb``).
    """

    src: str
    tgt: str
    same_loc: bool = False
    links: Optional[tuple[Linkage, ...]] = None

    def choices(self) -> tuple[Linkage, ...]:
        return self.links if self.links is not None else links_for(self.src, self.tgt)


@dataclass(frozen=True)
class Family:
    """A named cycle skeleton expanding into a battery of cycles."""

    name: str
    template: tuple[Union[Edge, Slot], ...]

    def expand(self, max_cycles: Optional[int] = None) -> Iterator[Cycle]:
        """Yield the family's cycles in deterministic *diagonal* order.

        Combinations are ordered by total linkage index first (then
        lexicographically), so truncating a large family to its first N
        cycles still mixes strengths across every slot instead of only
        ever varying the last one.
        """
        slots = [item for item in self.template if isinstance(item, Slot)]
        choices = [slot.choices() for slot in slots]
        index_combos = sorted(
            itertools.product(*(range(len(c)) for c in choices)),
            key=lambda indices: (sum(indices), indices),
        )
        for count, indices in enumerate(index_combos):
            if max_cycles is not None and count >= max_cycles:
                return
            links = iter(c[i] for c, i in zip(choices, indices))
            edges = []
            names = []
            for item in self.template:
                if isinstance(item, Slot):
                    link = next(links)
                    edges.append(po(item.src, item.tgt, link, same_loc=item.same_loc))
                    names.append(link.name)
                else:
                    edges.append(item)
            name = self.name + "".join(f"+{n}" for n in names)
            yield Cycle(name, tuple(edges), family=self.name)


_DMB = Linkage("dmb", barrier=DMB_SY)

#: The battery's cycle families.  The classic two-thread shapes (MP, SB,
#: LB, S, R, 2+2W), the three-thread shapes (WRC, ISA2, 3.2W, 3.LB), the
#: four-thread IRIW, and internal-variant shapes exercising rfi/fri and
#: same-location po (SB-RFI, MP-FRI, CoRR).
FAMILIES: tuple[Family, ...] = (
    Family("MP", (Slot(WRITE, WRITE), Rfe, Slot(READ, READ), Fre)),
    Family("SB", (Slot(WRITE, READ), Fre, Slot(WRITE, READ), Fre)),
    Family("LB", (Slot(READ, WRITE), Rfe, Slot(READ, WRITE), Rfe)),
    Family("S", (Slot(WRITE, WRITE, links=(_DMB,)), Rfe, Slot(READ, WRITE), Coe)),
    Family("R", (Slot(WRITE, WRITE), Coe, Slot(WRITE, READ), Fre)),
    Family("2+2W", (Slot(WRITE, WRITE), Coe, Slot(WRITE, WRITE), Coe)),
    Family("WRC", (Rfe, Slot(READ, WRITE), Rfe, Slot(READ, READ), Fre)),
    Family(
        "ISA2",
        (Slot(WRITE, WRITE), Rfe, Slot(READ, WRITE), Rfe, Slot(READ, READ), Fre),
    ),
    Family("IRIW", (Rfe, Slot(READ, READ), Fre, Rfe, Slot(READ, READ), Fre)),
    Family(
        "3.2W",
        (Slot(WRITE, WRITE), Coe, Slot(WRITE, WRITE), Coe, Slot(WRITE, WRITE), Coe),
    ),
    Family(
        "3.LB",
        (Slot(READ, WRITE), Rfe, Slot(READ, WRITE), Rfe, Slot(READ, WRITE), Rfe),
    ),
    Family("SB-RFI", (Rfi, Slot(READ, READ), Fre, Rfi, Slot(READ, READ), Fre)),
    Family(
        "MP-FRI",
        (Slot(WRITE, WRITE), Rfe, Fri, Slot(WRITE, READ), Fre),
    ),
    Family("CoRR", (Rfe, Slot(READ, READ, same_loc=True), Fre)),
)

FAMILIES_BY_NAME: dict[str, Family] = {f.name: f for f in FAMILIES}


def get_family(name: str) -> Family:
    try:
        return FAMILIES_BY_NAME[name]
    except KeyError:
        raise CycleError(
            f"unknown cycle family {name!r}; known: {', '.join(FAMILIES_BY_NAME)}"
        ) from None


__all__ = [
    "READ",
    "WRITE",
    "CycleError",
    "Linkage",
    "PLAIN_PO",
    "LINKS_RR",
    "LINKS_RW",
    "LINKS_WW",
    "LINKS_WR",
    "links_for",
    "Edge",
    "Rfe",
    "Rfi",
    "Coe",
    "Coi",
    "Fre",
    "Fri",
    "po",
    "Cycle",
    "Slot",
    "Family",
    "FAMILIES",
    "FAMILIES_BY_NAME",
    "get_family",
]
