"""Multi-process query service over memory-mapped containers.

The service front end (:mod:`repro.service.server`) runs one supervisor
and N worker processes.  Every worker opens the same ``.chrono`` container
or segment-store directory read-only with ``mmap=True``, so the OS page
cache holds exactly one copy of the compressed graph no matter how many
workers (or unrelated processes) are serving it.  Workers answer the ops
of :data:`repro.service.protocol.QUERY_OPS` over that module's
length-prefixed JSON protocol, with admission control, per-tenant budgets
and deadlines handled by the :mod:`repro.runtime` governor -- a request's
``timeout_ms`` becomes the worker-side :class:`repro.runtime.QueryContext`
deadline, and breaker-skipped segments come back as ``skipped``
annotations on the response.

Use :class:`repro.service.client.ServiceClient` (or ``repro query
tcp://host:port ...``) to talk to a running service; start one with
``repro serve``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import MAX_FRAME_BYTES, ProtocolError, recv_message, send_message
from repro.service.server import GraphService, ServiceConfig

__all__ = [
    "GraphService",
    "ServiceConfig",
    "ServiceClient",
    "ServiceError",
    "ProtocolError",
    "MAX_FRAME_BYTES",
    "send_message",
    "recv_message",
]
