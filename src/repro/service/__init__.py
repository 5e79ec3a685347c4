"""Long-lived exploration service (the ``promising-arm serve`` layer).

Every CLI invocation pays interpreter start-up, imports, and cold caches
before the first transition fires — fatal under many small requests.
This package keeps all of that resident: an asyncio HTTP/JSON front-end
(:mod:`~repro.service.http`) feeds an engine (:mod:`~repro.service.core`)
that answers from a process-resident LRU over the persistent result
cache, coalesces identical in-flight requests, and runs each cold job on
the next free slot of a warm
:class:`~repro.harness.scheduler.WorkerPool`.
:mod:`~repro.service.client` is the matching blocking client.
"""

from .core import (
    SERVICE_SCHEMA_VERSION,
    ExplorationService,
    NormalizedRequest,
    ServiceConfig,
    ServiceError,
    ServiceStats,
    TokenBuckets,
    percentile,
    states_explored,
)
from .http import (
    API_PREFIX,
    MAX_BODY_BYTES,
    PROMETHEUS_CONTENT_TYPE,
    ServiceServer,
    run_server,
)
from .client import ServiceClient, ServiceClientError

__all__ = [
    "API_PREFIX",
    "SERVICE_SCHEMA_VERSION",
    "ExplorationService",
    "NormalizedRequest",
    "ServiceConfig",
    "ServiceError",
    "ServiceStats",
    "TokenBuckets",
    "percentile",
    "states_explored",
    "MAX_BODY_BYTES",
    "PROMETHEUS_CONTENT_TYPE",
    "ServiceServer",
    "run_server",
    "ServiceClient",
    "ServiceClientError",
]
