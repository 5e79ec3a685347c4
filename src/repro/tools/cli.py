"""Command-line interface: ``promising-arm``.

Sub-commands mirror how the paper's rmem-based tool is used:

* ``run`` — exhaustively explore a litmus file (or a catalogue test) and
  print the allowed final states;
* ``interactive`` — step through an execution transition by transition;
* ``catalogue`` — list the built-in litmus tests and their verdicts;
* ``sweep`` — run a prefix of the cycle-generated battery (optionally
  plus the catalogue) across models on one architecture;
* ``fuzz`` — differential fuzzing: run the cycle-generated corpus across
  models and architectures;
* ``serve`` — start the long-lived exploration service: an HTTP/JSON
  front-end over a process-resident LRU, the persistent result cache,
  and a warm worker pool, with request coalescing;
* ``work`` — join a distributed fleet: claim leased litmus jobs from a
  shared work backend (``sweep``/``fuzz`` ``--distributed`` enqueue
  them), execute them, and write results into the shared cache.

``sweep`` and ``fuzz`` differ only in the battery they build: both run it
through :func:`repro.harness.fuzz.run_fuzz` (the local worker pool or,
under ``--distributed``, an external fleet; persistent result cache,
JSON report) and judge it with one cross-model policy,
:func:`repro.harness.fuzz.differential_mismatches`, reporting every
disagreement as a counterexample with its reproducing test source.
``run --axiomatic`` judges its one test with the same policy.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import TYPE_CHECKING

from ..explore.config import STRATEGIES
from ..lang.kinds import ARCH_ALIASES, Arch, parse_arch
from ..obs import LOG_FORMATS, configure_logging

# Each command imports what it runs, so a one-shot ``run`` or
# ``catalogue`` never compiles the other models, the battery runner or
# the service.
if TYPE_CHECKING:
    from ..flat.explorer import FlatConfig
    from ..promising.exhaustive import ExploreConfig


def _arch(name: str) -> Arch:
    # A misspelt architecture must not silently run another one; refuse
    # it at parse time (exit 2).
    arch = parse_arch(name)
    if arch is None:
        raise argparse.ArgumentTypeError(
            f"unknown architecture {name!r}; choose from {', '.join(ARCH_ALIASES)}"
        )
    return arch


def _positive_int(text: str) -> int:
    # Reject out-of-range counts at parse time (exit 2) instead of a
    # traceback mid-run, or a worker that exits having claimed nothing.
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_number(text: str) -> float:
    # NaN, infinity, zero and negatives would each run with no deadline,
    # lease a queue item forever, or make a serve quota refuse every
    # request (or crash at start-up); refuse them at parse time (exit 2).
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number greater than 0")
    return value


def _non_negative_int(text: str) -> int:
    # A negative battery bound would become a Python slice (-1 silently
    # drops the last test) or an empty corpus, a negative pending-job cap
    # refuses every request, and a negative worker count runs a battery
    # serially or a server inline; refuse them at parse time.
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _port(text: str) -> int:
    # bind() raises OverflowError outside 0..65535; refuse at parse time.
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError("must be an integer in 0..65535")
    return value


def _ledger_url(text: str) -> str:
    # Refuse at parse time (exit 2) what open_backend would, opening nothing.
    from ..distrib.backend import parse_backend_url

    try:
        parse_backend_url(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _sqlite_ledger_url(text: str) -> str:
    # serve mounts its ledger in process: an http:// one would turn every
    # /v1/queue op into a blocking client call on the server's event loop.
    from ..distrib.backend import parse_backend_url

    if parse_backend_url(_ledger_url(text))[0] != "sqlite":
        raise argparse.ArgumentTypeError(
            f"backend url {text!r} is not a SQLite ledger; expected sqlite:///path "
            "or a filesystem path"
        )
    return text


class _UsageError(Exception):
    """A bad argument only found once the command runs (``main``: exit 2)."""


def _load_test(args: argparse.Namespace):
    if args.file:
        from pathlib import Path

        from ..litmus.format import LitmusFormatError, parse_litmus

        try:
            text = Path(args.file).read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read {args.file}: {exc.strerror or exc}") from None
        except UnicodeDecodeError:
            raise _UsageError(f"cannot read {args.file}: not UTF-8 text") from None
        try:
            parsed = parse_litmus(text, unroll_bound=args.loop_bound)
        except LitmusFormatError as exc:
            raise _UsageError(f"{args.file}: {exc}") from None
        return parsed.test, parsed.arch
    from ..litmus.catalogue import get_test

    try:
        return get_test(args.test), args.arch
    except KeyError:
        raise _UsageError(
            f"unknown litmus test {args.test!r}; `promising-arm catalogue` lists them"
        ) from None


def _search_kwargs(args: argparse.Namespace) -> dict:
    """Kernel-level knobs shared by every explorer config the CLI builds."""
    return dict(
        loop_bound=args.loop_bound,
        strategy=getattr(args, "strategy", "dfs"),
        samples=getattr(args, "samples", 256),
        sample_depth=getattr(args, "sample_depth", 4096),
        seed=getattr(args, "seed", 0),
    )


def _explore_config(args: argparse.Namespace) -> ExploreConfig:
    from ..promising.exhaustive import ExploreConfig

    return ExploreConfig(**_search_kwargs(args))


def _flat_config(args: argparse.Namespace) -> FlatConfig:
    from ..flat.explorer import FlatConfig

    return FlatConfig(**_search_kwargs(args))


def _distrib_config(args: argparse.Namespace):
    """``--distributed`` knobs → a :class:`DistribConfig` (or ``None``).

    Raises :class:`_UsageError` for a fleet flag without ``--distributed``
    (the battery would silently run on the local pool), for
    ``--distributed`` without ``--backend-url`` (the fleet is external, so
    the run needs a ledger that fleet serves) and for ``--workers`` with
    ``--distributed`` (nothing local would use it).
    """
    if not args.distributed:
        given = [
            flag
            for flag, value in (
                ("--backend-url", args.backend_url),
                ("--stall-timeout", args.stall_timeout),
            )
            if value
        ]
        if given:
            raise _UsageError(f"{', '.join(given)} needs --distributed")
        return None
    if not args.backend_url:
        raise _UsageError("--distributed needs --backend-url: the ledger an external fleet serves")
    if args.workers is not None:
        raise _UsageError("--workers does nothing under --distributed: the fleet is external")
    from ..distrib import DistribConfig

    return DistribConfig(backend_url=args.backend_url, stall_timeout=args.stall_timeout)


def _workers(args: argparse.Namespace) -> int:
    """The local worker count of a battery (``--workers``, default 1)."""
    return 1 if args.workers is None else args.workers


def _ledger_errors() -> tuple[type[Exception], ...]:
    """What a ledger that cannot be opened, reached or served raises.

    An ``except`` clause evaluates this only once an exception is raised,
    so a run that does not fail imports neither module.
    """
    import sqlite3

    from ..service.client import ServiceClientError

    return (sqlite3.Error, ServiceClientError, TimeoutError)


def _ledger_failure(url: str, exc: Exception) -> int:
    print(f"promising-arm: error: backend {url}: {exc}", file=sys.stderr)
    return 1


def cmd_run(args: argparse.Namespace) -> int:
    from ..harness.jobs import Job, execute_job

    test, arch = _load_test(args)
    jobs = [Job(test=test, model="promising", arch=arch, explore_config=_explore_config(args))]
    if args.axiomatic:
        from ..axiomatic.model import AxiomaticConfig

        axiomatic_config = AxiomaticConfig(loop_bound=args.loop_bound)
        jobs.append(Job(test=test, model="axiomatic", arch=arch, axiomatic_config=axiomatic_config))
    results = [execute_job(job, capture_errors=False) for job in jobs]
    result = results[0]
    print(f"test      : {test.name}")
    print(f"model     : promising ({arch})")
    print(f"condition : {test.condition!r}")
    verdict = result.verdict.value
    if result.truncated:
        verdict += "  (WARNING: exploration truncated, verdict unverified)"
    elif result.stats.get("strategy") == "sample":
        verdict += "  (sampled: under-approximation, 'forbidden' unverified)"
    print(f"verdict   : {verdict}")
    if result.stats:
        counters = ", ".join(
            f"{k}={result.stats[k]}"
            for k in ("promise_states", "dedup_hits", "cert_memo_hits", "cert_calls")
            if k in result.stats
        )
        print(f"stats     : {counters}")
        if result.stats.get("strategy") == "sample":
            print(
                f"sampling  : {result.stats.get('samples_run', 0)} walks, "
                f"{result.stats.get('unique_sample_states', 0)} unique states, "
                f"coverage est. {result.stats.get('coverage_estimate')}"
            )
    print(f"time      : {result.elapsed_seconds:.3f}s")
    print("final states:")
    print("  " + result.outcomes.describe(test.program.loc_names).replace("\n", "\n  "))
    if args.axiomatic:
        from ..harness.fuzz import differential_mismatches

        ax = results[1]
        counterexamples, _explained = differential_mismatches(jobs, results)
        differ = any(ce["models"] == ["promising", "axiomatic"] for ce in counterexamples)
        if result.truncated or ax.truncated:
            # The policy skips a truncated pair: its silence is no agreement.
            relation = "outcome sets not compared: a run was truncated"
        elif result.sampled:
            relation = "sampled outcomes " + (
                "NOT CONTAINED in axiomatic" if differ else "contained in axiomatic"
            )
        else:
            relation = "outcome sets " + ("DIFFER" if differ else "agree")
        print(f"axiomatic verdict: {ax.verdict.value} ({relation})")
    return 0


def cmd_interactive(args: argparse.Namespace) -> int:
    from ..promising.interactive import InteractiveSession

    test, arch = _load_test(args)
    session = InteractiveSession(test.program, arch, loop_bound=args.loop_bound)
    print(f"interactive exploration of {test.name} ({arch}); commands: <n>, undo, reset, quit")
    while True:
        print()
        print(session.show())
        if session.finished or session.stuck:
            return 0
        try:
            command = input("step> ").strip()
        except EOFError:
            return 0
        if command in ("q", "quit", "exit"):
            return 0
        if command == "undo":
            session.undo()
        elif command == "reset":
            session.reset()
        elif command.isdigit():
            session.step(int(command))
        else:
            print(f"unknown command {command!r}")


def cmd_catalogue(args: argparse.Namespace) -> int:
    from ..litmus.catalogue import all_tests

    for test in all_tests():
        expected = test.expected_verdict(args.arch)
        print(f"{test.name:24s} {expected.value if expected else '-':10s} {test.description}")
    return 0


def _parse_models(text: str) -> tuple[str, ...] | None:
    """The ``--models`` list, or ``None`` after saying why it is unusable."""
    from ..harness.jobs import MODELS

    models = tuple(m.strip() for m in text.split(",") if m.strip())
    unknown = [m for m in models if m not in MODELS]
    if unknown:
        print(f"unknown model(s) {', '.join(unknown)}; choose from {', '.join(MODELS)}")
        return None
    if not models:
        print(f"no models given; choose from {', '.join(MODELS)}")
        return None
    return models


def _run_battery(
    args: argparse.Namespace, tests, models, archs, *, name: str, cache, distrib
) -> int:
    """Run and judge one battery, print its summary, return the exit code."""
    from ..axiomatic.model import AxiomaticConfig
    from ..harness.fuzz import run_fuzz

    try:
        result = run_fuzz(
            tests,
            models,
            archs,
            workers=_workers(args),
            timeout=args.timeout,
            cache=cache,
            report_path=args.report,
            name=name,
            explore_config=_explore_config(args),
            axiomatic_config=AxiomaticConfig(loop_bound=args.loop_bound),
            flat_config=_flat_config(args),
            distrib=distrib,
        )
    except _ledger_errors() as exc:
        if distrib is None:
            raise
        return _ledger_failure(distrib.backend_url, exc)
    print(result.describe())
    if args.report:
        print(f"report written to {args.report}")
    return 0 if result.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from ..litmus.catalogue import all_tests
    from ..litmus.synth import generate_cycle_battery

    models = _parse_models(args.models)
    if models is None:
        return 2
    distrib = _distrib_config(args)
    tests = generate_cycle_battery(max_tests=args.max_tests)
    if args.catalogue:
        tests = tests + [t for t in all_tests() if t.program.n_threads <= 3]
    return _run_battery(
        args,
        tests,
        models,
        (args.arch,),
        name="litmus-sweep",
        cache=args.cache_dir,
        distrib=distrib,
    )


_ARCH_NAMES = tuple(ARCH_ALIASES)


def cmd_fuzz(args: argparse.Namespace) -> int:
    import tempfile

    from ..axiomatic.model import AxiomaticConfig
    from ..litmus.cycles import FAMILIES_BY_NAME
    from ..litmus.synth import attach_expected, generate_cycle_battery

    models = _parse_models(args.models)
    if models is None:
        return 2
    arch_names = [a.strip() for a in args.archs.split(",") if a.strip()]
    unknown_archs = [a for a in arch_names if a.lower() not in _ARCH_NAMES]
    if unknown_archs:
        print(
            f"unknown arch(s) {', '.join(unknown_archs)}; "
            f"choose from {', '.join(_ARCH_NAMES)}"
        )
        return 2
    if not arch_names:
        print(f"no architectures given; choose from {', '.join(_ARCH_NAMES)}")
        return 2
    archs = tuple(parse_arch(a) for a in arch_names)
    distrib = _distrib_config(args)
    families = None
    if args.families:
        families = [f.strip() for f in args.families.split(",") if f.strip()]
        unknown_families = [f for f in families if f not in FAMILIES_BY_NAME]
        if unknown_families:
            print(
                f"unknown cycle family(ies) {', '.join(unknown_families)}; "
                f"choose from {', '.join(FAMILIES_BY_NAME)}"
            )
            return 2
    tests = generate_cycle_battery(
        families=families, max_tests=args.max_tests, max_per_family=args.max_per_family
    )
    with contextlib.ExitStack() as stack:
        cache_dir = args.cache_dir
        if args.expected and cache_dir is None:
            # The oracle sweep and the fuzzed axiomatic jobs share their
            # fingerprints; an ephemeral cache makes the oracle free
            # instead of enumerating the whole corpus twice.
            cache_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="promising-fuzz-cache-")
            )
        if args.expected:
            # Attach the axiomatic-oracle verdict per architecture; the
            # fuzz run then also checks each model against it.  The oracle
            # uses the same config as the fuzzed axiomatic jobs, so the
            # cache computes each outcome set only once.
            tests = attach_expected(
                tests,
                archs,
                workers=_workers(args),
                timeout=args.timeout,
                cache=cache_dir,
                axiomatic_config=AxiomaticConfig(loop_bound=args.loop_bound),
            )
        return _run_battery(
            args, tests, models, archs, name="fuzz-battery", cache=cache_dir, distrib=distrib
        )


def cmd_work(args: argparse.Namespace) -> int:
    from ..distrib import run_worker

    try:
        stats = run_worker(
            args.backend_url,
            args.cache_dir,
            worker_id=args.worker_id,
            lease_seconds=args.lease_seconds,
            poll_seconds=args.poll_seconds,
            max_jobs=args.max_jobs,
            idle_exit_seconds=args.idle_exit,
        )
    except _ledger_errors() as exc:
        return _ledger_failure(args.backend_url, exc)
    print(
        f"worker {stats.worker_id}: {stats.claimed} claimed, "
        f"{stats.computed} computed, {stats.cache_hits} cache hits, "
        f"{stats.failures} failures, {stats.lost_leases} lost leases"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from ..service import ServiceConfig, run_server

    config = ServiceConfig(
        workers=args.workers,
        lru_capacity=args.lru_capacity,
        cache_dir=args.cache_dir,
        default_timeout=args.timeout,
        max_pending_jobs=args.max_pending_jobs,
        quota_tokens=args.quota_tokens,
        quota_refill_per_second=args.quota_refill,
        queue_url=args.queue_url,
    )
    try:
        run_server(config, args.host, args.port)
    except _ledger_errors() as exc:
        # A --queue-url ledger that cannot be opened fails before the
        # server starts anything.
        if args.queue_url is None:
            raise
        return _ledger_failure(args.queue_url, exc)
    return 0


def _add_battery_args(parser: argparse.ArgumentParser) -> None:
    """The flags ``sweep`` and ``fuzz`` share: models, execution, report."""
    parser.add_argument("--models", default="promising,axiomatic",
                        help="comma-separated: promising,axiomatic,flat,promising-naive")
    parser.add_argument("--workers", type=_non_negative_int, default=None,
                        help="local worker processes (default 1, 0 = one per CPU; "
                             "not with --distributed)")
    parser.add_argument("--cache-dir", default=None, help="persistent result cache directory")
    parser.add_argument("--timeout", type=_positive_number, default=None,
                        help="per-job timeout in seconds")
    parser.add_argument("--report", default=None, help="write a JSON report to this path")
    parser.add_argument("--distributed", action="store_true",
                        help="enqueue the batch on --backend-url and collect what an "
                             "external fleet (promising-arm work) computes")
    parser.add_argument("--backend-url", type=_ledger_url, default=None,
                        help="with --distributed (required): the ledger the fleet serves, "
                             "sqlite:///path (or a bare path) or http://host:port "
                             "(a promising-arm serve queue)")
    parser.add_argument("--stall-timeout", type=_positive_number, default=None,
                        help="abort if no distributed item completes for this long")


class _ExactParser(argparse.ArgumentParser):
    """An argument parser that never expands abbreviated long flags.

    With argparse's default ``allow_abbrev=True`` a prefix resolves to
    whichever flag it abbreviates, so a retired ``--backend packed``
    silently parses as ``--backend-url packed``.  Subparsers are built
    from the parent's class, so every subcommand inherits this.
    """

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _ExactParser(
        prog="promising-arm",
        description="Promising-ARM/RISC-V exhaustive and interactive exploration tool",
    )
    parser.add_argument("--arch", type=_arch, default="arm", help="arm (default) or riscv")
    parser.add_argument("--loop-bound", type=_positive_int, default=2,
                        help="loop unrolling bound (at least 1)")
    parser.add_argument("--strategy", choices=STRATEGIES, default="dfs",
                        help="search strategy: dfs enumerates exhaustively, "
                             "sample runs seeded bounded random walks "
                             "(sound under-approximation for huge state spaces)")
    parser.add_argument("--samples", type=_positive_int, default=256,
                        help="random walks performed by --strategy sample")
    parser.add_argument("--sample-depth", type=_positive_int, default=4096,
                        help="step bound of one random walk before restart")
    parser.add_argument("--seed", type=int, default=0,
                        help="PRNG seed of --strategy sample (same seed, same outcomes)")
    parser.add_argument("--log-format", choices=LOG_FORMATS, default="text",
                        help="structured log output: text (default) or json "
                             "(one JSON object per line on stderr)")
    parser.add_argument("--log-level", default="info",
                        help="log verbosity: debug, info (default), warning, error")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="exhaustively explore a litmus test")
    run_parser.add_argument("--file", help="path to a .litmus file")
    run_parser.add_argument("--test", help="name of a catalogue test", default="MP")
    run_parser.add_argument("--axiomatic", action="store_true", help="also run the axiomatic model")
    run_parser.set_defaults(func=cmd_run)

    inter_parser = sub.add_parser("interactive", help="step through executions interactively")
    inter_parser.add_argument("--file", help="path to a .litmus file")
    inter_parser.add_argument("--test", help="name of a catalogue test", default="MP")
    inter_parser.set_defaults(func=cmd_interactive)

    cat_parser = sub.add_parser("catalogue", help="list built-in litmus tests")
    cat_parser.set_defaults(func=cmd_catalogue)

    sweep_parser = sub.add_parser(
        "sweep", help="run the cycle-generated litmus battery across models on one architecture"
    )
    sweep_parser.add_argument("--max-tests", type=_non_negative_int, default=40,
                              help="length of the cycle-battery prefix to run")
    sweep_parser.add_argument("--catalogue", action="store_true",
                              help="also include the hand-written catalogue tests "
                                   "(those with at most 3 threads)")
    _add_battery_args(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the cycle-generated corpus across models/archs",
    )
    fuzz_parser.add_argument("--max-tests", type=_non_negative_int, default=None,
                             help="truncate the generated corpus (default: full)")
    fuzz_parser.add_argument("--max-per-family", type=_non_negative_int, default=64,
                             help="cap per cycle family (default 64)")
    fuzz_parser.add_argument("--families", default=None,
                             help="comma-separated cycle families (default: all)")
    fuzz_parser.add_argument("--archs", default="arm,riscv",
                             help="comma-separated architectures (default arm,riscv)")
    fuzz_parser.add_argument("--expected", action="store_true",
                             help="attach axiomatic-oracle expected verdicts to the corpus")
    _add_battery_args(fuzz_parser)
    fuzz_parser.set_defaults(func=cmd_fuzz)

    work_parser = sub.add_parser(
        "work",
        help="join a distributed fleet: claim and execute leased litmus jobs",
    )
    work_parser.add_argument("--backend-url", type=_ledger_url, required=True,
                             help="shared work backend: http://host:port (a promising-arm "
                                  "serve queue, no shared filesystem needed), "
                                  "sqlite:///path/to/queue.db "
                                  "(or a bare path)")
    work_parser.add_argument("--cache-dir", default=None,
                             help="shared persistent result cache directory")
    work_parser.add_argument("--worker-id", default=None,
                             help="stable worker identity (default host-pid)")
    work_parser.add_argument("--lease-seconds", type=_positive_number, default=30.0,
                             help="claim lease length; heartbeats extend it while running")
    work_parser.add_argument("--poll-seconds", type=_positive_number, default=0.1,
                             help="idle back-off between claim attempts")
    work_parser.add_argument("--max-jobs", type=_positive_int, default=None,
                             help="exit after claiming this many items (default: serve forever)")
    work_parser.add_argument("--idle-exit", type=_positive_number, default=None,
                             help="exit after the queue has been empty this long")
    work_parser.set_defaults(func=cmd_work)

    serve_parser = sub.add_parser(
        "serve",
        help="start the long-lived exploration service (HTTP/JSON, warm worker pool)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=_port, default=8765,
                              help="bind port (0 = ephemeral, printed on start)")
    serve_parser.add_argument("--workers", type=_non_negative_int, default=2,
                              help="resident worker processes (0 or 1 = inline executor)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="persistent result cache directory (shared with sweeps)")
    serve_parser.add_argument("--lru-capacity", type=_positive_int, default=4096,
                              help="entries kept in the in-process LRU result cache")
    serve_parser.add_argument("--timeout", type=_positive_number, default=60.0,
                              help="default per-job deadline in seconds")
    serve_parser.add_argument("--max-pending-jobs", type=_non_negative_int, default=1024,
                              help="admission control: answer 429 + Retry-After once this "
                                   "many cold jobs are pending (0 = unlimited)")
    serve_parser.add_argument("--quota-tokens", type=_positive_number, default=None,
                              help="per-client token-bucket capacity for /v1/explore, keyed "
                                   "on X-Client-Id (one token per job; default: quotas off)")
    serve_parser.add_argument("--quota-refill", type=_positive_number, default=1.0,
                              help="tokens refilled per second per client")
    serve_parser.add_argument("--queue-url", type=_sqlite_ledger_url, default=None,
                              help="ledger mounted at /v1/queue for HTTP fleets "
                                   "(sqlite:///path or a bare path; default: a private "
                                   "SQLite queue in a temporary directory)")
    serve_parser.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_format, args.log_level)
    try:
        code = args.func(args)
        # Flush here, so a reader that has gone away is noticed below
        # rather than at interpreter exit.
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except BrokenPipeError:
        # The reader of stdout has gone (``promising-arm catalogue | head
        # -n 1``).  Point stdout at /dev/null so the exit-time flush does
        # not fail again, and exit 1 without a traceback (the "Note on
        # SIGPIPE" in the ``signal`` docs).  SIGPIPE keeps Python's
        # SIG_IGN: its default action would kill ``serve`` whenever a
        # client hangs up.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
