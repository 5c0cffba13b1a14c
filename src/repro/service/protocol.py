"""Length-prefixed JSON framing for the graph service.

Every message -- request or response, either direction -- is one frame:

* a 4-byte big-endian unsigned length ``n``,
* ``n`` bytes of UTF-8 JSON encoding one object.

Requests carry ``{"id": int, "op": str, "params": {...}}`` plus the
optional envelope fields ``tenant`` (admission-control budget key),
``timeout_ms`` (propagated into the worker-side deadline) and
``allow_partial`` (consent to breaker-annotated subset answers).

Responses echo the request ``id`` and carry either::

    {"id": ..., "ok": true,  "result": ..., "worker": int,
     "skipped": [{"part": str, "reason": str, "retry_after": float|null}]}

or::

    {"id": ..., "ok": false,
     "error": {"type": str, "message": str, "retry_after": float|null}}

``error.type`` is the server-side exception class name
(``RejectedError``, ``QueryTimeout``, ``GraphDomainError``, ...) so
clients can map failures back onto the library's exception taxonomy
without parsing messages.

Frames are bounded by :data:`MAX_FRAME_BYTES`; an over-long or
malformed frame raises :class:`ProtocolError` -- connections that
violate framing are torn down, never guessed at.  An answer too large
for one frame is never sent: the server replies with a ``ProtocolError``
frame instead and keeps the connection.

The query ops are listed once, in :data:`QUERY_OPS`, with each op's
arguments and its answer on a plain :class:`repro.graph.model.TemporalGraph`
-- the oracle every query surface is checked against.  A request carries
an op's integers as ``{"args": [...]}``, except ``neighbors_many``:
``{"queries": [[u, t_start, t_end], ...]}``.  An answer is the graph's
own value as JSON: an edge is ``[u, v]``, a contact ``[u, v, time,
duration]``.  ``ping`` and ``stats`` are served too, but are not queries.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.errors import DomainError
from repro.graph.model import TemporalGraph

__all__ = [
    "MAX_FRAME_BYTES", "ProtocolError", "QueryOp", "QUERY_OPS",
    "send_message", "recv_message",
]

#: Hard bound on one frame's JSON body.  Large enough for any sane batch
#: or snapshot answer; small enough that a corrupt length prefix cannot
#: trigger a multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 << 20

_LEN = struct.Struct("!I")


class ProtocolError(DomainError):
    """A frame violated the wire contract (size, framing or JSON shape)."""


class QueryOp(NamedTuple):
    """One query op: its arguments and its answer on the plain model."""

    #: Argument names in call order.  Each is an integer, except
    #: ``queries``: ``neighbors_many``'s list of ``(u, t_start, t_end)``.
    args: Tuple[str, ...]
    #: ``answer(graph, *args)``: the op's answer on a plain
    #: :class:`TemporalGraph`.
    answer: Callable[..., Any]


#: The query surface both graph views answer and the service serves,
#: keyed by method name.
QUERY_OPS: Dict[str, QueryOp] = {
    "neighbors": QueryOp(("u", "t_start", "t_end"), TemporalGraph.ref_neighbors),
    "neighbors_many": QueryOp(
        ("queries",),
        lambda graph, queries: [graph.ref_neighbors(*q) for q in queries],
    ),
    "has_edge": QueryOp(("u", "v", "t_start", "t_end"), TemporalGraph.ref_has_edge),
    "edge_timestamps": QueryOp(("u", "v"), TemporalGraph.ref_edge_timestamps),
    "contacts_of": QueryOp(("u",), TemporalGraph.contacts_of),
    "snapshot": QueryOp(("t_start", "t_end"), TemporalGraph.ref_snapshot),
}


#: The one frame encoder: ``json.dumps`` with non-default separators builds
#: a new encoder per call.  An encoder keeps no state between calls.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialise ``message`` and write it as one length-prefixed frame.

    The body is byte-identical to ``json.dumps(message,
    separators=(",", ":"))``.
    """
    body = _ENCODER.encode(message).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"outgoing frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on a clean EOF at a frame boundary."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; returns the decoded object, or None on clean EOF."""
    prefix = _recv_exact(sock, _LEN.size)
    if prefix is None:
        return None
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between prefix and body")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must decode to an object, got {type(message).__name__}"
        )
    return message
