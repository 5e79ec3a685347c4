"""Distributed exploration: leased work queues, fleet workers, coordinator.

The litmus-job sweep is embarrassingly parallel; this package removes the
single-machine ceiling.  A :class:`~repro.distrib.backend.WorkBackend` is
the shared lease ledger (one SQLite file across processes and machines,
or the same ledger behind a ``promising-arm serve`` over HTTP),
:func:`~repro.distrib.worker.run_worker` is the stateless fleet member
(``promising-arm work``), and
:func:`~repro.distrib.coordinator.run_distributed` is the batch driver
that sweep/fuzz route through under ``--distributed`` — producing
reports bit-identical to the single-pool path.  The coordinator starts
no worker: the fleet is always external, and a batch on one machine
runs on the worker pool.
"""

from .backend import (
    DEFAULT_MAX_ATTEMPTS,
    Claim,
    ItemView,
    WorkBackend,
    WorkerInfo,
    open_backend,
)
from .coordinator import DistribConfig, DistribRun, run_distributed
from .http_backend import HttpWorkBackend, QueueHttpApi
from .sqlite import SqliteBackend
from .worker import DEFAULT_LEASE_SECONDS, WorkerStats, run_worker

__all__ = [
    "Claim",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "DistribConfig",
    "DistribRun",
    "HttpWorkBackend",
    "ItemView",
    "QueueHttpApi",
    "SqliteBackend",
    "WorkBackend",
    "WorkerInfo",
    "WorkerStats",
    "open_backend",
    "run_distributed",
    "run_worker",
]
