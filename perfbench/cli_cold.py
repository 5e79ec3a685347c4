"""cli-cold: one-shot ``run`` jobs, each in a fresh interpreter.

A pass is one sequential ``python -m repro.tools --arch <arch> run --test
<name>`` invocation per catalogue test, with defaults otherwise; the seed
draws each test's architecture and the order.  Process start and
imports are nearly all of each invocation's time, so this is the workload
where import-time work shows.  Every invocation's verdict and final-state
listing are checked against the frozen references.

Set-up is the user's first step, ``python -m repro.tools catalogue``.
The traced pass reruns the same invocations under ``-X importtime``.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

from common import listing_digest, run_child

SETUP_PROBES = 10
#: Packages whose import time the traced pass reports by name.
IMPORT_PACKAGES = ("service", "distrib", "axiomatic", "flat", "harness", "litmus", "promising")


def draw(seed: int, refs: dict) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    tests = sorted({key.split("|")[0] for key in refs["cli"]})
    corpus = [(test, rng.choice(("arm", "riscv"))) for test in tests]
    rng.shuffle(corpus)
    return corpus


def invoke(test: str, arch: str, *, importtime: bool = False):
    """Run one CLI job; returns its (seconds, start, end) timing and process."""
    argv = [sys.executable]
    if importtime:
        argv += ["-X", "importtime"]
    argv += ["-m", "repro.tools", "--arch", arch, "run", "--test", test]
    start = time.monotonic()
    proc = run_child(argv)
    end = time.monotonic()
    return (end - start, start, end), proc


def output_ok(stdout: str, ref: dict) -> bool:
    lines = stdout.splitlines()
    verdicts = [line.split(":", 1)[1].strip() for line in lines if line.startswith("verdict")]
    if verdicts != [ref["verdict"]] or "final states:" not in lines:
        return False
    listing = lines[lines.index("final states:") + 1 :]
    return listing_digest(listing) == ref["listing"]


def import_times(stderr: str) -> dict:
    """Self import time per module (ms) from ``-X importtime`` output."""
    times: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header row
        times[fields[2].strip()] = times.get(fields[2].strip(), 0.0) + int(fields[0]) / 1000.0
    return times


def import_metrics(per_invocation: list[dict]) -> dict:
    """Medians over the traced invocations of the import-time figures."""

    def median_of(fn) -> float:
        return statistics.median(fn(times) for times in per_invocation)

    out = {
        "import.total_ms": median_of(lambda t: sum(t.values())),
        "import.repro_modules": median_of(
            lambda t: sum(1 for name in t if name == "repro" or name.startswith("repro."))
        ),
    }
    for pkg in IMPORT_PACKAGES:
        prefix = f"repro.{pkg}"
        out[f"import.{pkg}_ms"] = median_of(
            lambda t: sum(ms for name, ms in t.items() if name == prefix or name.startswith(prefix + "."))
        )
    return out


def run_pass(corpus, refs: dict, *, importtime: bool = False) -> dict:
    timings, failures, imports = [], [], []
    start = time.monotonic()
    for test, arch in corpus:
        timing, proc = invoke(test, arch, importtime=importtime)
        timings.append(timing)
        if proc.returncode != 0 or not output_ok(proc.stdout, refs[f"{test}|{arch}"]):
            failures.append(f"{test}|{arch}: exit {proc.returncode}")
        if importtime:
            imports.append(import_times(proc.stderr))
    for line in failures[:5]:
        print(f"cli-cold mismatch: {line}", file=sys.stderr)
    end = time.monotonic()
    return {
        "pass": (end - start, start, end),
        "ops": timings,
        "attempted": len(corpus),
        "failed": len(failures),
        "imports": imports,
    }


def setup_probe(refs: dict) -> tuple[float, float, float]:
    start = time.monotonic()
    proc = run_child([sys.executable, "-m", "repro.tools", "catalogue"])
    end = time.monotonic()
    listed = {line.split()[0] for line in proc.stdout.splitlines() if line.strip()}
    expected = {key.split("|")[0] for key in refs}
    if proc.returncode != 0 or listed != expected:
        raise RuntimeError(f"catalogue listing differs from the references:\n{proc.stderr[-2000:]}")
    return (end - start, start, end)


def measure(seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    cli_refs = refs["cli"]
    corpus = draw(seed, refs)
    if trace:
        plain = run_pass(corpus, cli_refs)
        traced = run_pass(corpus, cli_refs, importtime=True)
        passes = [plain, traced]
        result = {"layers": import_metrics(traced["imports"])}
    else:
        setups = [setup_probe(cli_refs) for _ in range(SETUP_PROBES)]
        passes = []
        start = time.monotonic()
        while not passes or (
            time.monotonic() - start + statistics.median(p["pass"][0] for p in passes) <= seconds
        ):
            passes.append(run_pass(corpus, cli_refs))
        result = {"setup": setups, "ops": [p["ops"] for p in passes]}
    result["passes"] = [p["pass"] for p in passes]
    result["attempted"] = sum(p["attempted"] for p in passes)
    result["failed"] = sum(p["failed"] for p in passes)
    result["correct"] = result["failed"] == 0
    return result
