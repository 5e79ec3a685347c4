"""Running one litmus test under one model.

Each runner wraps the test in a :class:`~repro.harness.jobs.Job` and
returns the :class:`~repro.harness.jobs.JobResult` of
:func:`~repro.harness.jobs.execute_job`, which projects the outcomes onto
the observables mentioned by the test condition and keeps
condition-observed locations shared when the promising explorer's
local-location optimisation is enabled.  Errors propagate instead of
becoming an ``error`` status.  Batteries — worker pools, per-job
timeouts, the persistent result cache and the cross-model comparison —
go through :func:`repro.harness.fuzz.run_fuzz`.
"""

from __future__ import annotations

from typing import Optional

from ..lang.kinds import Arch
from ..promising.exhaustive import ExploreConfig
from ..axiomatic.model import AxiomaticConfig
from ..harness.jobs import Job, JobResult, execute_job
from .test import LitmusTest


def run_promising(
    test: LitmusTest,
    arch: Arch = Arch.ARM,
    config: Optional[ExploreConfig] = None,
    naive: bool = False,
) -> JobResult:
    """Run a litmus test under the promising exhaustive explorer."""
    job = Job(
        test=test,
        model="promising-naive" if naive else "promising",
        arch=arch,
        explore_config=config,
    )
    return execute_job(job, capture_errors=False)


def run_axiomatic(
    test: LitmusTest,
    arch: Arch = Arch.ARM,
    config: Optional[AxiomaticConfig] = None,
) -> JobResult:
    """Run a litmus test under the axiomatic enumerator (the herd role)."""
    job = Job(test=test, model="axiomatic", arch=arch, axiomatic_config=config)
    return execute_job(job, capture_errors=False)


def run_flat(test: LitmusTest, arch: Arch = Arch.ARM, **kwargs) -> JobResult:
    """Run a litmus test under the Flat-style baseline model."""
    from ..flat.explorer import FlatConfig

    job = Job(test=test, model="flat", arch=arch, flat_config=FlatConfig(arch=arch, **kwargs))
    return execute_job(job, capture_errors=False)


__all__ = [
    "run_promising",
    "run_axiomatic",
    "run_flat",
]
