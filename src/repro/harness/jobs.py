"""Serializable litmus jobs and their results.

A :class:`Job` is one unit of sweep work: a litmus test to run under one
model (promising, promising-naive, axiomatic, or flat) on one architecture
with an explicit configuration.  Jobs are plain picklable dataclasses so
the scheduler can ship them to worker processes, and they carry a stable
content *fingerprint* (program + condition + projection + effective
configuration) that keys the persistent result cache.

:func:`execute_job` is the single execution path: every run in the
codebase — the battery runner ``run_fuzz``, the single-test runners in
:mod:`repro.litmus.runner`, ``promising-arm run``, the service, the fleet
workers — ultimately runs jobs through it, so serial and parallel runs
are bit-identical by construction.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional

from ..lang.ast import statement_registers
from ..lang.kinds import Arch
from ..lang.program import Loc, Program, TId
from ..obs import metrics
from ..obs.logging import bind
from ..outcomes import Outcome, OutcomeSet
from ..promising.exhaustive import ExploreConfig, explore, explore_naive

_JOBS_EXECUTED = metrics.counter(
    "jobs_executed_total", "Jobs run through execute_job, by model and status.",
    labels=("model", "status"),
)
_JOB_SECONDS = metrics.histogram(
    "job_execute_seconds", "Wall time per executed job.", labels=("model",)
)

if TYPE_CHECKING:
    # litmus imports harness (runner); keep ours lazy.  The axiomatic and
    # Flat models load only in the branches that run them, so a promising
    # job never compiles them.
    from ..axiomatic.model import AxiomaticConfig
    from ..flat.explorer import FlatConfig
    from ..litmus.test import LitmusTest, Verdict

#: Bumped whenever the result format or the model semantics change in a way
#: that invalidates previously cached results.
#: v2: explorer configs carry search-strategy fields (``strategy``,
#: ``samples``, ``sample_depth``, ``seed``, ``deadline_seconds``), so a
#: sampled (or otherwise bounded) run keys a *different* cache entry and
#: can never shadow an exhaustive result.
#: v3: explorer configs lost their backend-selection and
#: certification-memo switches (one execution backend, certification
#: always memoised), which changes every promising-model config repr; the
#: bump makes the break explicit so old entries miss and recompute
#: instead of ever being served wrong.
#: v4: ``arch`` is keyed only for a program with an exclusive access, so
#: the ARM and RISC-V jobs of an exclusive-free program share one key.
FINGERPRINT_VERSION = 4

#: The config fields only the ``sample`` strategy reads, at their
#: defaults.  A ``dfs`` job is fingerprinted with these values, so a seed
#: or walk budget it never reads cannot split its cache entries (and a
#: default config keys exactly as before).
_SAMPLING_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(ExploreConfig)
    if f.name in ("samples", "sample_depth", "seed")
}

#: Models a job can request.
MODELS = ("promising", "promising-naive", "axiomatic", "flat")

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"


class JobTimeout(Exception):
    """Raised inside a job when its per-job deadline expires."""


def timeouts_enforceable() -> bool:
    """Whether per-job deadlines can actually fire on this platform.

    Deadlines use ``SIGALRM``, which only exists on POSIX and only fires
    on a main thread; callers should warn rather than silently run
    unbounded when this is false.
    """
    return hasattr(signal, "SIGALRM") and threading.current_thread() is threading.main_thread()


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Bound the wrapped block to ``seconds`` of wall time (best effort).

    Uses ``SIGALRM``, so it only engages on the main thread of a process —
    which is where both the serial runner and the pool workers execute
    jobs.  Elsewhere (or with no timeout) it is a no-op.

    While the deadline is armed the objects the process already holds are
    frozen out of the cyclic collector (:func:`gc.freeze`), so a full
    collection during the job scans only what the job allocated.  Without
    that, a host with a large heap (a test session, the service, or a
    pool worker forked from either) charges a full collection of its own
    heap to whichever job is running: over a million host objects that is
    about 0.1 s, and a millisecond job under a 0.05 s deadline times out.
    A host that froze its heap itself is left to manage its own.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if freeze:
            gc.unfreeze()
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Job:
    """One litmus test × model × architecture × configuration."""

    test: LitmusTest
    model: str
    arch: Arch = Arch.ARM
    explore_config: Optional[ExploreConfig] = None
    axiomatic_config: Optional[AxiomaticConfig] = None
    flat_config: Optional[FlatConfig] = None
    #: Projection override: ``((tid, (reg, ...)), ...)`` and ``(loc, ...)``.
    #: When ``None`` the observables are derived from the test condition,
    #: exactly as the litmus runner does.
    project_registers: Optional[tuple[tuple[TId, tuple[str, ...]], ...]] = None
    project_locations: Optional[tuple[Loc, ...]] = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")

    # -- construction helpers ------------------------------------------------
    @classmethod
    def for_program(
        cls,
        program: Program,
        model: str,
        arch: Arch = Arch.ARM,
        *,
        explore_config: Optional[ExploreConfig] = None,
        axiomatic_config: Optional[AxiomaticConfig] = None,
        flat_config: Optional[FlatConfig] = None,
        name: Optional[str] = None,
    ) -> "Job":
        """Wrap a bare program (a workload, say) as a job.

        The projection covers each thread's own registers and the
        program's named and initialised locations, so workload safety
        checkers see every register and memory cell they inspect.
        """
        from ..litmus.conditions import TrueCond
        from ..litmus.test import LitmusTest

        test = LitmusTest(name or program.name or "<anonymous>", program, TrueCond())
        regs = tuple(
            (tid, tuple(sorted(statement_registers(program.threads[tid]))))
            for tid in program.thread_ids
        )
        locs = tuple(sorted(set(program.loc_names) | set(program.initial)))
        return cls(
            test=test,
            model=model,
            arch=arch,
            explore_config=explore_config,
            axiomatic_config=axiomatic_config,
            flat_config=flat_config,
            project_registers=regs,
            project_locations=locs,
        )

    # -- observables ---------------------------------------------------------
    def observables(self) -> tuple[dict[TId, list[str]], list[Loc]]:
        """The registers/locations the outcome sets are projected onto.

        Each override is independent: leaving one ``None`` derives that
        side from the test condition while the other stays explicit.
        """
        if self.project_registers is not None:
            regs = {tid: sorted(names) for tid, names in self.project_registers}
        else:
            regs = {
                tid: sorted(names)
                for tid, names in self.test.observable_registers().items()
            }
        if self.project_locations is not None:
            locs = sorted(self.project_locations)
        else:
            locs = sorted(self.test.observable_locations())
        return regs, locs

    # -- effective configurations -------------------------------------------
    # ``dataclasses.replace`` (rather than field-by-field copies) so a
    # config gaining a new field is automatically carried into execution
    # and the cache fingerprint.
    def effective_explore_config(self) -> ExploreConfig:
        base = self.explore_config or ExploreConfig()
        _, locs = self.observables()
        return dataclasses.replace(
            base,
            arch=self.arch,
            shared_locations=tuple(sorted(set(base.shared_locations) | set(locs))),
        )

    def effective_axiomatic_config(self) -> AxiomaticConfig:
        from ..axiomatic.model import AxiomaticConfig

        base = self.axiomatic_config or AxiomaticConfig()
        return dataclasses.replace(base, arch=self.arch)

    def effective_flat_config(self) -> FlatConfig:
        from ..flat.explorer import FlatConfig

        base = self.flat_config or FlatConfig()
        return dataclasses.replace(base, arch=self.arch)

    # -- fingerprint ---------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash identifying this job's semantics.

        Covers the program text (threads + initial memory), the condition,
        the projection, the model, and every field of the effective
        configuration — so any change that could change the outcome set
        (or its projection) yields a fresh key.  The exceptions are fields
        the run never reads.  The sampling fields of a ``dfs`` run key at
        their defaults: an exhaustive search never reads them.  And
        ``arch`` (its ``parts`` entry and the config field) keys only a
        program with an exclusive load or store
        (:attr:`~repro.lang.program.Program.has_exclusive`), because every
        read of it in the models is dead without one:

        * ``isa/compile.py`` ``_read_kernel``: ``forwards_xcl`` is read
          only for a forwarding entry written by a store exclusive;
        * ``_store_kernel``: ``riscv`` is read only for a store exclusive
          (its view, and the value of its success register);
        * ``promising/steps.py`` ``_read_view``: ``arch`` is read only
          when ``fwd.xcl``, which only a store exclusive sets;
        * ``fulfil_steps``: both reads sit in a conjunction with, or a
          branch on, ``stmt.exclusive``;
        * ``axiomatic/model.py`` ``aob`` and ``bob | rmw``: both range
          over ``rmw``, which pairs a load exclusive with a store
          exclusive, so it is empty without them;
        * Flat reads ``arch`` nowhere.

        So the ARM and RISC-V jobs of an exclusive-free program compute
        the same outcomes and stats and share one key; a shared result
        takes its name, arch and expected verdict from the job that asks
        (:func:`rebind`).  ``tests/test_cache.py`` holds the law over the
        catalogue and the cycle corpus.  Memoized: the scheduler, the
        cache, and the executor each consult it.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        if self.model in ("promising", "promising-naive"):
            cfg: object = self.effective_explore_config()
        elif self.model == "axiomatic":
            cfg = self.effective_axiomatic_config()
        else:
            cfg = self.effective_flat_config()
        if getattr(cfg, "strategy", None) == "dfs":
            cfg = dataclasses.replace(cfg, **_SAMPLING_DEFAULTS)
        keys_arch = self.test.program.has_exclusive
        cfg_items = sorted(
            (f.name, repr(getattr(cfg, f.name)))
            for f in dataclasses.fields(cfg)
            if keys_arch or f.name != "arch"
        )
        regs, locs = self.observables()
        parts = [
            f"v{FINGERPRINT_VERSION}",
            self.model,
            self.arch.value if keys_arch else "",
            repr(self.test.program.threads),
            repr(sorted(self.test.program.initial.items())),
            self.test.condition.canonical(),
            repr(sorted(regs.items())),
            repr(locs),
            repr(cfg_items),
        ]
        digest = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest


@dataclass
class JobResult:
    """Outcome of executing (or recalling) one :class:`Job`."""

    name: str
    model: str
    arch: Arch
    status: str
    outcomes: Optional[OutcomeSet]
    verdict: Optional[Verdict]
    expected: Optional[Verdict]
    elapsed_seconds: float
    stats: dict = field(default_factory=dict)
    error: str = ""
    fingerprint: str = ""
    cached: bool = False
    # Transport-only observability fields.  Deliberately excluded from
    # result_to_json (cache entries and reports stay deterministic and
    # replay-free): a recalled result must never re-merge old metrics.
    #: Seconds this job waited between scheduling and execution start
    #: (set by the pool path; ``None`` when not measured).
    queue_seconds: Optional[float] = None
    #: Metrics-registry delta accumulated while executing this job in a
    #: worker process; the parent merges it and clears the field.
    metrics_delta: Optional[dict] = None
    #: ``outcome_set_digest(outcomes)``, once something has computed it:
    #: the service's LRU does when the result enters it, and a copy made
    #: by :func:`rebind` carries it, so a served row is hashed once.
    outcome_digest: Optional[str] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def truncated(self) -> bool:
        """Whether the exploration hit a state/fuel/deadline budget.

        A truncated run's outcome set is a (sound) under-approximation,
        so its verdict is *not verified* — reports and comparisons must
        treat it as a warning, never as a clean result.
        """
        return bool(self.stats.get("truncated"))

    @property
    def strategy(self) -> Optional[str]:
        """The search strategy that produced this result (``None`` for
        models without one, e.g. axiomatic enumeration)."""
        return self.stats.get("strategy")

    @property
    def sampled(self) -> bool:
        """Whether the run used a non-exhaustive (sampling) strategy.

        Sampled outcome sets are sound under-approximations: every
        outcome found is genuinely reachable, but absence proves
        nothing.  Comparisons must therefore use containment, never
        equality, and a ``forbidden`` verdict is unverified.
        """
        strategy = self.stats.get("strategy")
        return strategy is not None and strategy != "dfs"

    @property
    def warning(self) -> Optional[str]:
        if self.truncated:
            return (
                "exploration truncated (max_states/cert_fuel/deadline budget "
                "hit): outcome set may be incomplete, verdict unverified"
            )
        if self.sampled:
            return (
                f"sampled exploration (strategy={self.strategy}): outcome set "
                "is a statistical under-approximation; 'forbidden' verdicts "
                "are unverified"
            )
        return None

    @property
    def matches_expectation(self) -> Optional[bool]:
        # A truncated exploration may simply not have reached the outcome
        # that decides the verdict; refuse to confirm or deny.
        if self.expected is None or self.verdict is None or self.truncated:
            return None
        if self.sampled:
            # One-sided check: a sampled 'allowed' rests on a concrete
            # witness, so it can confirm an expected 'allowed' or expose
            # an outcome the oracle forbids; a sampled 'forbidden' may
            # just mean the walks missed the witness — abstain.
            from ..litmus.test import Verdict

            if self.verdict is Verdict.ALLOWED:
                return self.verdict is self.expected
            return None
        return self.verdict is self.expected

    def describe(self) -> str:
        tail = self.status if not self.ok else (self.verdict.value if self.verdict else "-")
        if self.ok and self.truncated:
            tail += "!"
        return (
            f"{self.name:28s} {self.model:16s} {self.arch.value:7s} "
            f"{tail:9s} {self.elapsed_seconds:.3f}s{' (cached)' if self.cached else ''}"
            f"{' [TRUNCATED]' if self.truncated else ''}"
            f"{' [SAMPLED]' if self.sampled else ''}"
        )


def rebind(result: JobResult, job: Job, **changes) -> JobResult:
    """A copy of ``result`` that answers ``job``.

    A result's name, arch and expected verdict belong to the job that
    asks, not to the fingerprint: a same-content test under another name,
    or the other architecture of an exclusive-free program, shares the
    key.  Every place that hands one job's result to another comes
    through here: an in-batch duplicate, a disk or LRU hit, a coalesced
    join and a ledger row.  ``changes`` sets further fields of the copy.
    """
    return dataclasses.replace(
        result,
        name=job.test.name,
        arch=job.arch,
        expected=job.test.expected_verdict(job.arch),
        **changes,
    )


def _stats_dict(stats: object) -> dict:
    """Explorer diagnostics as a JSON-friendly dict.

    Wall time is dropped (``JobResult.elapsed_seconds`` records it): the
    remaining counters are deterministic, so results compare bit-identical
    between serial, parallel, and cached runs.
    """
    out = {}
    for f in dataclasses.fields(stats):
        if f.name == "elapsed_seconds":
            continue
        value = getattr(stats, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def execute_job(
    job: Job,
    timeout: Optional[float] = None,
    *,
    capture_errors: bool = True,
) -> JobResult:
    """Run one job to completion, capturing timeouts and errors.

    With ``capture_errors`` (the scheduler's mode) a failing or timed-out
    job yields a ``JobResult`` with the corresponding status instead of
    raising, so one bad job never poisons a batch.

    Every log record emitted while the job runs carries the job's
    fingerprint prefix and model (contextvars correlation), and the
    job-level counters/histograms are recorded here — once per job.
    """
    with bind(job=job.fingerprint()[:12], model=job.model, test=job.test.name):
        result = _execute_job_inner(job, timeout, capture_errors=capture_errors)
    _JOBS_EXECUTED.inc(model=job.model, status=result.status)
    _JOB_SECONDS.observe(result.elapsed_seconds, model=job.model)
    return result


def _execute_job_inner(
    job: Job,
    timeout: Optional[float],
    *,
    capture_errors: bool,
) -> JobResult:
    regs, locs = job.observables()
    start = time.perf_counter()
    try:
        with _deadline(timeout):
            if job.model in ("promising", "promising-naive"):
                cfg = job.effective_explore_config()
                runner = explore_naive if job.model == "promising-naive" else explore
                result = runner(job.test.program, cfg)
            elif job.model == "axiomatic":
                from ..axiomatic.model import enumerate_axiomatic_outcomes

                result = enumerate_axiomatic_outcomes(
                    job.test.program, job.effective_axiomatic_config()
                )
            else:
                from ..flat.explorer import explore_flat

                result = explore_flat(job.test.program, job.effective_flat_config())
    except JobTimeout as exc:
        return JobResult(
            name=job.test.name,
            model=job.model,
            arch=job.arch,
            status=STATUS_TIMEOUT,
            outcomes=None,
            verdict=None,
            expected=job.test.expected_verdict(job.arch),
            elapsed_seconds=time.perf_counter() - start,
            error=str(exc),
            fingerprint=job.fingerprint(),
        )
    except Exception as exc:
        if not capture_errors:
            raise
        return JobResult(
            name=job.test.name,
            model=job.model,
            arch=job.arch,
            status=STATUS_ERROR,
            outcomes=None,
            verdict=None,
            expected=job.test.expected_verdict(job.arch),
            elapsed_seconds=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}",
            fingerprint=job.fingerprint(),
        )
    elapsed = time.perf_counter() - start
    outcomes = result.outcomes.project(regs, locs)
    return JobResult(
        name=job.test.name,
        model=job.model,
        arch=job.arch,
        status=STATUS_OK,
        outcomes=outcomes,
        verdict=job.test.evaluate(outcomes),
        expected=job.test.expected_verdict(job.arch),
        elapsed_seconds=elapsed,
        stats=_stats_dict(result.stats),
        fingerprint=job.fingerprint(),
    )


# ---------------------------------------------------------------------------
# JSON (de)serialization — shared by the cache and the report writer.
# ---------------------------------------------------------------------------


def outcome_to_json(outcome: Outcome) -> dict:
    return {
        "registers": [[[reg, value] for reg, value in regs] for regs in outcome.registers],
        "memory": [[loc, value] for loc, value in outcome.memory],
    }


def outcome_from_json(data: Mapping) -> Outcome:
    return Outcome(
        registers=tuple(
            tuple((reg, value) for reg, value in regs) for regs in data["registers"]
        ),
        memory=tuple((loc, value) for loc, value in data["memory"]),
    )


def outcomes_to_json(outcomes: Optional[OutcomeSet]) -> Optional[list[dict]]:
    """An outcome set as JSON rows in a stable order (``None`` stays ``None``)."""
    if outcomes is None:
        return None
    return sorted(
        (outcome_to_json(o) for o in outcomes),
        key=lambda d: (d["registers"], d["memory"]),
    )


def result_to_json(result: JobResult) -> dict:
    return {
        "name": result.name,
        "model": result.model,
        "arch": result.arch.value,
        "status": result.status,
        "verdict": result.verdict.value if result.verdict else None,
        "expected": result.expected.value if result.expected else None,
        "elapsed_seconds": result.elapsed_seconds,
        "stats": result.stats,
        "error": result.error,
        "fingerprint": result.fingerprint,
        "outcomes": outcomes_to_json(result.outcomes),
    }


def result_from_json(data: Mapping) -> JobResult:
    from ..litmus.test import Verdict

    return JobResult(
        name=data["name"],
        model=data["model"],
        arch=Arch(data["arch"]),
        status=data["status"],
        outcomes=(
            None
            if data["outcomes"] is None
            else OutcomeSet(outcome_from_json(o) for o in data["outcomes"])
        ),
        verdict=Verdict(data["verdict"]) if data["verdict"] else None,
        expected=Verdict(data["expected"]) if data["expected"] else None,
        elapsed_seconds=data["elapsed_seconds"],
        stats=dict(data.get("stats") or {}),
        error=data.get("error", ""),
        fingerprint=data.get("fingerprint", ""),
    )


__all__ = [
    "FINGERPRINT_VERSION",
    "MODELS",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "STATUS_ERROR",
    "Job",
    "JobResult",
    "JobTimeout",
    "execute_job",
    "rebind",
    "timeouts_enforceable",
    "outcome_to_json",
    "outcome_from_json",
    "outcomes_to_json",
    "result_to_json",
    "result_from_json",
]
