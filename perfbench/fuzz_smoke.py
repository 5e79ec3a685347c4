"""fuzz-smoke: the CI differential corpus, run cold and serially on defaults.

The corpus is ``generate_cycle_battery(max_per_family=MAX_PER_FAMILY)``:
every cycle family, both architectures, all four models, pushed through
``run_fuzz(workers=1, cache=None)`` with default explorer configs (the
``object`` backend).  CI runs the same battery at four tests per family;
one per family keeps a pass inside the benchmark's run length while the
models, families and architectures stay the same.  The seed permutes the
order of the tests: the set of jobs, and so the work, is the same for
every seed.  The operation a user waits for is the whole differential
run, so each pass is one operation.

Each pass runs in a fresh interpreter (``python3 perfbench/fuzz_smoke.py
--seed N [--trace] [--setup-only]``), which prints one JSON object, so
every pass is cold and its peak memory is its own.
"""

from __future__ import annotations

import time

_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from common import last_json_line, load_refs, outcome_digest, run_child  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_PER_FAMILY = 1
MODELS = ("promising", "promising-naive", "axiomatic", "flat")
EXPLORERS = ("promising", "promising-naive")
#: Import-and-generate probes per run, besides the one in each pass.
SETUP_PROBES = 4
#: ``Arch.value`` -> the spelling the CLI and the reference keys use.
ARCH_NAMES = {"ARM": "arm", "RISC-V": "riscv"}

_PROMISING_BACKENDS = (
    "repro.backend.object:ObjectPromisingBackend",
    "repro.backend.packed:PackedPromisingBackend",
)
_FLAT_BACKENDS = (
    "repro.backend.object:ObjectFlatBackend",
    "repro.backend.packed:PackedFlatBackend",
)


def _count_kernel(tracer: Tracer, stats) -> None:
    for field in ("states", "transitions", "dedup_hits"):
        tracer.counts[f"kernel.{field}"] += getattr(stats, field, 0)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer a fuzz pass runs through."""
    jobs = "repro.harness.jobs"
    tracer.patch(f"{jobs}:explore", "{model}.explore", scope="promising")
    tracer.patch(f"{jobs}:explore_naive", "{model}.explore", scope="promising-naive")
    tracer.patch(f"{jobs}:explore_flat", "flat.explore", scope="flat")
    tracer.patch(f"{jobs}:enumerate_axiomatic_outcomes", "axiomatic", scope="axiomatic")
    for backend in _PROMISING_BACKENDS:
        # Promise-first certifies through certify_all; the naive explorer
        # certifies inside successors (one phase by construction).
        tracer.patch(f"{backend}.certify_all", "{model}.certify")
        tracer.patch(f"{backend}.successors", "{model}.certify")
        tracer.patch(f"{backend}.accumulate_outcomes", "{model}.accumulate")
        tracer.patch(f"{backend}.promise_successors", "{model}.promise_successors")
    for backend in _FLAT_BACKENDS:
        tracer.patch(f"{backend}.successors", "flat.successors")
    tracer.patch("repro.backend.packed:compile_program", "compile")
    tracer.patch("repro.explore.kernel:SearchKernel.run", "kernel.run", on_result=_count_kernel)
    tracer.patch(f"{jobs}:Job.fingerprint", "jobs.fingerprint")
    tracer.patch("repro.outcomes:OutcomeSet.project", "outcomes.project")
    tracer.patch("repro.harness.fuzz:build_report", "report.build")
    tracer.patch("repro.harness.fuzz:differential_mismatches", "report.build")
    tracer.patch("repro.litmus.synth:generate_cycle_battery", "litmus.generate")


def job_key(name: str, arch_value: str, model: str) -> str:
    return f"{name}|{ARCH_NAMES[arch_value]}|{model}"


def corpus(seed: int, families=None) -> list:
    from repro.litmus import synth

    tests = synth.generate_cycle_battery(families, max_per_family=MAX_PER_FAMILY)
    random.Random(seed).shuffle(tests)
    return tests


def run_pass(tests: list, refs: dict) -> dict:
    """One differential run of ``tests``, every job checked against ``refs``."""
    from repro.harness.fuzz import run_fuzz
    from repro.harness.jobs import result_to_json

    start = time.monotonic()
    fuzz = run_fuzz(tests, workers=1, cache=None)
    end = time.monotonic()

    failures: list[str] = []
    seen: set[str] = set()
    model_s = dict.fromkeys(MODELS, 0.0)
    counters: dict[str, dict[str, int]] = {model: defaultdict(int) for model in MODELS}
    for job, result in zip(fuzz.jobs, fuzz.results):
        key = job_key(job.test.name, job.arch.value, job.model)
        digest = (
            outcome_digest(result_to_json(result)["outcomes"])
            if result.outcomes is not None
            else None
        )
        if not result.ok or result.truncated or digest != refs.get(key):
            failures.append(f"{key}: status={result.status} digest={digest}")
        if result.fingerprint in seen:
            continue  # an in-batch duplicate is computed once and fanned out
        seen.add(result.fingerprint)
        model_s[job.model] += result.elapsed_seconds
        for name, value in result.stats.items():
            if isinstance(value, int) and not isinstance(value, bool):
                counters[job.model][name] += value
    for line in failures[:5]:
        print(f"fuzz-smoke mismatch: {line}", file=sys.stderr)
    return {
        "pass": (end - start, start, end),
        "attempted": len(fuzz.jobs),
        "failed": len(failures),
        "counterexamples": len(fuzz.counterexamples),
        "model_s": model_s,
        "counters": counters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer()
    try:
        if args.trace:
            install(tracer)
        tests = corpus(args.seed)
        ready = time.monotonic()
        out: dict = {"setup": (ready - _START, _START, ready), "tests": len(tests)}
        if not args.setup_only:
            out.update(run_pass(tests, load_refs()["fuzz"]))
        if args.trace:
            out["trace"] = {
                "seconds": dict(tracer.seconds),
                "calls": dict(tracer.calls),
                "counts": dict(tracer.counts),
            }
    finally:
        tracer.restore()
    print(json.dumps(out))
    return 0


# -- the benchmark side --------------------------------------------------------


def _child(*flags: str, seed: int) -> dict:
    proc = run_child([sys.executable, str(Path(__file__).resolve()), "--seed", str(seed), *flags])
    if proc.returncode != 0:
        raise RuntimeError(f"fuzz-smoke pass failed:\n{proc.stderr[-2000:]}")
    data = last_json_line(proc.stdout)
    if data.get("failed"):
        sys.stderr.write(proc.stderr[-2000:])
    return data


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer figures: counts from the plain pass, times from the traced one."""
    seconds = traced["trace"]["seconds"]
    calls = traced["trace"]["calls"]
    counts = traced["trace"]["counts"]
    out: dict = {}
    for model in MODELS:
        out[f"{model}.corpus_s"] = plain["model_s"][model]
    for model in EXPLORERS:
        c = plain["counters"][model]
        out[f"{model}.certify_s"] = seconds.get(f"{model}.certify", 0.0)
        out[f"{model}.certify_calls"] = calls.get(f"{model}.certify", 0)
        out[f"{model}.cert_memo_hit_ratio"] = _ratio(c.get("cert_memo_hits", 0), c.get("cert_calls", 0))
        out[f"{model}.intern_hit_ratio"] = _ratio(
            c.get("intern_hits", 0), c.get("intern_hits", 0) + c.get("interned_keys", 0)
        )
        out[f"{model}.step_memo_hit_ratio"] = _ratio(
            c.get("step_memo_hits", 0), c.get("step_memo_hits", 0) + c.get("step_memo_misses", 0)
        )
        out[f"{model}.states"] = c.get("promise_states", 0)
    promising = plain["counters"]["promising"]
    out["promising.accumulate_s"] = seconds.get("promising.accumulate", 0.0)
    out["promising.promise_successors_s"] = seconds.get("promising.promise_successors", 0.0)
    out["promising.completion_memo_hits"] = promising.get("completion_memo_hits", 0)
    out["promising.thread_enum_states"] = promising.get("thread_enumeration_states", 0)
    flat = plain["counters"]["flat"]
    out["flat.successors_s"] = seconds.get("flat.successors", 0.0)
    out["flat.states"] = flat.get("states", 0)
    out["flat.step_memo_hit_ratio"] = _ratio(
        flat.get("step_memo_hits", 0), flat.get("step_memo_hits", 0) + flat.get("step_memo_misses", 0)
    )
    out["axiomatic.candidates"] = plain["counters"]["axiomatic"].get("candidates", 0)
    out["compile.calls"] = calls.get("compile", 0)
    out["compile_s"] = seconds.get("compile", 0.0)
    for field in ("states", "transitions", "dedup_hits"):
        out[f"kernel.{field}"] = counts.get(f"kernel.{field}", 0)
    out["jobs.fingerprint_s"] = seconds.get("jobs.fingerprint", 0.0)
    out["outcomes.project_s"] = seconds.get("outcomes.project", 0.0)
    out["report.build_s"] = seconds.get("report.build", 0.0)
    out["litmus.generate_s"] = seconds.get("litmus.generate", 0.0)
    return out


def measure(seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    del refs  # each pass checks against the references in its own interpreter
    if trace:
        plain = _child(seed=seed)
        traced = _child("--trace", seed=seed)
        passes = [plain, traced]
        result = {"layers": layer_metrics(plain, traced)}
    else:
        setups = [_child("--setup-only", seed=seed)["setup"] for _ in range(SETUP_PROBES)]
        passes = []
        start = time.monotonic()
        while not passes or (
            time.monotonic() - start + statistics.median(p["pass"][0] for p in passes) <= seconds
        ):
            passes.append(_child(seed=seed))
        result = {
            "setup": setups + [p["setup"] for p in passes],
            "ops": [[p["pass"]] for p in passes],
        }
    result["passes"] = [p["pass"] for p in passes]
    result["attempted"] = sum(p["attempted"] for p in passes)
    result["failed"] = sum(p["failed"] for p in passes)
    result["correct"] = result["failed"] == 0 and not any(p["counterexamples"] for p in passes)
    return result


if __name__ == "__main__":
    sys.exit(main())
