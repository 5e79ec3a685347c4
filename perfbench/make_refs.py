"""Regenerate ``perfbench/refs.json``, the frozen reference outputs.

    PYTHONPATH=src python3 perfbench/make_refs.py

Writes one outcome digest per fuzz-smoke job, one digest and verdict per
catalogue (test, architecture, model), and one verdict and final-state
listing digest per catalogue (test, architecture) for the CLI.  Every
reference is cross-checked before anything is written, so the file does
not merely freeze whatever the code under test printed:

* promise-first and naive outcome sets must equal the axiomatic oracle's
  (the paper's equivalence theorem), and Flat's must be contained in it
  (catalogue tests where it is not are left out of the Flat references);
* verdicts must equal the oracle's verdict and the catalogue's own
  expected verdict where it states one;
* the CLI's printed verdict and listing must equal those derived from
  the oracle's outcome set.

Run it only when a change is meant to alter outputs; any failed check
aborts without writing.
"""

from __future__ import annotations

import json
import sys

from common import REFS_PATH, listing_digest, outcome_digest
from cli_cold import invoke, output_ok
from fuzz_smoke import MAX_PER_FAMILY, MODELS, job_key


def _run(test, arch, model):
    from repro.harness.jobs import Job, execute_job, result_to_json

    result = execute_job(Job(test=test, model=model, arch=arch), capture_errors=False)
    if not result.ok or result.truncated:
        raise SystemExit(f"{test.name} {arch} {model}: {result.status}, truncated={result.truncated}")
    return result, outcome_digest(result_to_json(result)["outcomes"])


def checked_digests(test, arch, *, strict_flat: bool) -> tuple[dict, object]:
    """Per-model (digest, verdict) for one test, cross-checked with the oracle.

    The Flat-style model is approximate: on a few catalogue shapes it
    admits outcomes the oracle forbids.  With ``strict_flat`` that aborts;
    otherwise Flat is left out for this test, so the benchmark never asks
    for an answer no oracle vouches for.
    """
    oracle, oracle_digest = _run(test, arch, "axiomatic")
    out = {}
    for model in MODELS:
        result, digest = _run(test, arch, model)
        if model == "flat":
            if not set(result.outcomes) <= set(oracle.outcomes):
                if strict_flat:
                    raise SystemExit(f"{test.name} {arch}: flat invents outcomes the oracle forbids")
                print(f"note: {test.name} {arch}: flat exceeds the oracle; left out")
                continue
        elif digest != oracle_digest or result.verdict is not oracle.verdict:
            raise SystemExit(f"{test.name} {arch}: {model} disagrees with the axiomatic oracle")
        out[model] = (digest, result.verdict.value)
    expected = test.expected_verdict(arch)
    if expected is not None and expected is not oracle.verdict:
        raise SystemExit(f"{test.name} {arch}: oracle verdict differs from the catalogue's")
    return out, oracle


def main() -> int:
    from repro.lang.kinds import Arch
    from repro.litmus import all_tests
    from repro.litmus.synth import generate_cycle_battery

    archs = {"arm": Arch.ARM, "riscv": Arch.RISCV}
    refs: dict = {"fuzz": {}, "catalogue": {}, "cli": {}}
    for test in generate_cycle_battery(max_per_family=MAX_PER_FAMILY):
        for arch in archs.values():
            per_model, _ = checked_digests(test, arch, strict_flat=True)
            for model, (digest, _verdict) in per_model.items():
                key = job_key(test.name, arch.value, model)
                if key in refs["fuzz"]:
                    raise SystemExit(f"duplicate fuzz job key {key}")
                refs["fuzz"][key] = digest
    for test in all_tests():
        for arch_name, arch in archs.items():
            per_model, oracle = checked_digests(test, arch, strict_flat=False)
            for model, (digest, verdict) in per_model.items():
                refs["catalogue"][f"{test.name}|{arch_name}|{model}"] = {
                    "digest": digest,
                    "verdict": verdict,
                }
            listing = oracle.outcomes.describe(test.program.loc_names).splitlines()
            ref = {"verdict": oracle.verdict.value, "listing": listing_digest(listing)}
            _timing, proc = invoke(test.name, arch_name)
            if proc.returncode != 0 or not output_ok(proc.stdout, ref):
                raise SystemExit(f"{test.name} {arch_name}: CLI output differs from the oracle")
            refs["cli"][f"{test.name}|{arch_name}"] = ref
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {REFS_PATH.name}: {len(refs['fuzz'])} fuzz jobs, "
        f"{len(refs['catalogue'])} catalogue jobs, {len(refs['cli'])} CLI runs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
