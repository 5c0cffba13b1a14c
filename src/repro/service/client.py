"""Blocking client for the graph service protocol.

One :class:`ServiceClient` wraps one TCP connection.  Calls are
synchronous request/response; a server-side failure raises
:class:`ServiceError` carrying the server's exception class name and its
``retry_after`` hint (populated for governor shedding and breaker skips),
so callers can back off exactly as library users of
:class:`repro.errors.RejectedError` do.  The instance is not thread-safe;
give each thread its own client (connections are cheap, the server is
multi-process).

    with ServiceClient.from_url("tcp://127.0.0.1:7421", tenant="web") as c:
        neighbors = c.neighbors(42, 0, 1000)
        answers = c.neighbors_many([(1, 0, 10), (2, 0, 10)])
        if c.last_skipped:
            ...  # subset answer: some segments were breaker-skipped
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DomainError
from repro.graph.model import Contact
from repro.service.protocol import ProtocolError, recv_message, send_message

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A request the server answered with an error frame.

    ``error_type`` is the server-side exception class name (e.g.
    ``"RejectedError"``, ``"QueryTimeout"``); ``retry_after`` is the
    structured backoff hint in seconds when the server supplied one.
    """

    def __init__(
        self,
        error_type: str,
        message: str,
        *,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.retry_after = retry_after


class ServiceClient:
    """One connection to a running :class:`repro.service.GraphService`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: Optional[str] = None,
        timeout_ms: Optional[int] = None,
        allow_partial: bool = False,
        connect_timeout: float = 10.0,
    ) -> None:
        self.tenant = tenant
        self.timeout_ms = timeout_ms
        self.allow_partial = allow_partial
        #: ``skipped`` annotations from the most recent call (subset answer
        #: markers); empty for a complete answer.
        self.last_skipped: List[Dict[str, Any]] = []
        self._next_id = 0
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.settimeout(None)

    @classmethod
    def from_url(cls, url: str, **kwargs: Any) -> "ServiceClient":
        """Connect to a ``tcp://host:port`` address."""
        if not url.startswith("tcp://"):
            raise DomainError(f"expected tcp://host:port, got {url!r}")
        hostport = url[len("tcp://"):]
        host, sep, port = hostport.rpartition(":")
        if not sep or not port.isdigit():
            raise DomainError(f"expected tcp://host:port, got {url!r}")
        return cls(host or "127.0.0.1", int(port), **kwargs)

    # -- plumbing ------------------------------------------------------

    def _call(self, op: str, params: Optional[Dict[str, Any]] = None) -> Any:
        self._next_id += 1
        request: Dict[str, Any] = {"id": self._next_id, "op": op}
        if params:
            request["params"] = params
        if self.tenant is not None:
            request["tenant"] = self.tenant
        if self.timeout_ms is not None:
            request["timeout_ms"] = self.timeout_ms
        if self.allow_partial:
            request["allow_partial"] = True
        send_message(self._sock, request)
        response = recv_message(self._sock)
        if response is None:
            raise ProtocolError("server closed the connection mid-request")
        if response.get("id") not in (self._next_id, None):
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {self._next_id}"
            )
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(
                str(error.get("type", "UnknownError")),
                str(error.get("message", "")),
                retry_after=error.get("retry_after"),
            )
        self.last_skipped = list(response.get("skipped") or [])
        return response.get("result")

    # -- ping, stats and one method per op of protocol.QUERY_OPS --------

    def ping(self) -> Dict[str, Any]:
        """Liveness probe; the response names the worker that answered."""
        return self._call("ping")

    def stats(self) -> Dict[str, Any]:
        """One worker's graph counts and governor statistics."""
        return self._call("stats")

    def neighbors(self, u: int, t_start: int, t_end: int) -> List[int]:
        """Distinct neighbors of ``u`` active in the closed window, sorted."""
        return self._call("neighbors", {"args": [u, t_start, t_end]})

    def neighbors_many(
        self, queries: Sequence[Tuple[int, int, int]]
    ) -> List[List[int]]:
        """Batch :meth:`neighbors`; answers align with the input order."""
        return self._call(
            "neighbors_many", {"queries": [list(q) for q in queries]}
        )

    def has_edge(self, u: int, v: int, t_start: int, t_end: int) -> bool:
        """Whether edge (u, v) is active anywhere in the closed window."""
        return bool(self._call("has_edge", {"args": [u, v, t_start, t_end]}))

    def snapshot(self, t_start: int, t_end: int) -> List[Tuple[int, int]]:
        """All distinct edges active within the closed window, sorted."""
        return [
            (u, v) for u, v in self._call("snapshot", {"args": [t_start, t_end]})
        ]

    def edge_timestamps(self, u: int, v: int) -> List[int]:
        """All activation timestamps of edge (u, v), ascending."""
        return self._call("edge_timestamps", {"args": [u, v]})

    def contacts_of(self, u: int) -> List[Contact]:
        """Every contact of ``u``, in (label, time) order."""
        return [Contact(*c) for c in self._call("contacts_of", {"args": [u]})]

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close the connection; further calls raise."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
