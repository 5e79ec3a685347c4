"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload {fuzz-smoke,cli-cold,serve-mixed} \\
        --seed N --seconds S --trace {0,1}

Runs one workload on the default configuration (``object`` backend, no
result cache, default explorer configs) for about ``S`` seconds, checks
every output against ``perfbench/refs.json``, and prints one JSON object
as its last stdout line.  Reported times are wall times rescaled to a
reference machine speed (see ``speed.py``).  ``--trace 0`` reports the
``end_to_end`` metrics of ``BENCHMARK.json``, ``--trace 1`` the
``per_layer`` ones (a per-layer figure a workload does not exercise reads
0).  Exits 2 without a result when the checkout holds no program source.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import cli_cold
import fuzz_smoke
import serve_mixed
from common import ROOT, SetupError, load_refs, peak_child_rss_mb, percentile, require_source
from speed import SpeedSampler

WORKLOADS = {
    "fuzz-smoke": fuzz_smoke.measure,
    "cli-cold": cli_cold.measure,
    "serve-mixed": serve_mixed.measure,
}


def end_to_end(result: dict, scaled) -> dict:
    per_pass = [scaled(ops) for ops in result["ops"]]
    pooled = [seconds for ops in per_pass for seconds in ops]
    return {
        "setup_s": statistics.median(scaled(result["setup"])),
        "corpus_s": statistics.median(sum(ops) for ops in per_pass),
        "op_p50_ms": percentile(pooled, 50) * 1000.0,
        "op_p90_ms": percentile(pooled, 90) * 1000.0,
        "peak_rss_mb": peak_child_rss_mb(),
    }


def report(result: dict, trace: bool, spec: dict, speed: SpeedSampler) -> dict:
    """The result line: every metric ``BENCHMARK.json`` lists for this mode.

    Timings arrive as ``(seconds, start, end[, waited])`` on the monotonic
    clock; the working part, ``seconds - waited``, is rescaled by the
    machine speed sampled over ``[start, end]``.
    """

    def scaled(timings) -> list[float]:
        out = []
        for seconds, start, end, *waited in timings:
            idle = waited[0] if waited else 0.0
            out.append(idle + (seconds - idle) * speed.factor(start, end))
        return out

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values = dict.fromkeys((m["name"] for m in listed), 0)
        plain, traced = scaled(result["passes"])
        measured = {**result["layers"], "trace_overhead_ratio": traced / plain}
    else:
        values, measured = {}, end_to_end(result, scaled)
    unknown = set(measured) - {m["name"] for m in listed}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    values.update(measured)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_source()
        refs = load_refs()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (SetupError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    with SpeedSampler() as speed:
        result = WORKLOADS[args.workload](args.seed, args.seconds, trace, refs)
    print(json.dumps(report(result, trace, spec, speed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
