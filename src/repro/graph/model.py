"""The temporal graph model shared by ChronoGraph and every baseline.

A :class:`TemporalGraph` is an immutable collection of :class:`Contact`
records plus the graph kind.  It provides the *reference* (uncompressed)
implementations of the paper's queries, which the test suite uses as the
oracle against which every compressed representation is checked.

Activity semantics per kind (Section III-A):

* ``POINT`` -- a contact is active exactly at its timestamp.
* ``INTERVAL`` -- a contact ``(u, v, t, dt)`` is active during ``[t, t + dt)``;
  the paper calls these *contact graphs*.
* ``INCREMENTAL`` -- a contact at ``t`` creates an edge that persists forever.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple


class GraphKind(enum.Enum):
    """The three temporal graph classes managed by the framework."""

    POINT = "point"
    INTERVAL = "interval"
    INCREMENTAL = "incremental"


class Contact(NamedTuple):
    """One timestamped (multi-)edge.

    ``duration`` is only meaningful for interval graphs; point and
    incremental graphs carry ``duration == 0``.
    """

    u: int
    v: int
    time: int
    duration: int = 0

    @property
    def end(self) -> int:
        """First instant at which the contact is no longer active."""
        return self.time + self.duration

    def is_active(self, t_start: int, t_end: int, kind: GraphKind) -> bool:
        """Whether this contact makes its edge active within [t_start, t_end].

        An inverted window (``t_end < t_start``) is empty by definition.
        """
        if t_end < t_start:
            return False
        if kind is GraphKind.POINT:
            return t_start <= self.time <= t_end
        if kind is GraphKind.INCREMENTAL:
            return self.time <= t_end
        # INTERVAL: active during [time, time + duration); closed query
        # window.  A zero-duration contact spans an empty interval and is
        # never active.
        return self.duration > 0 and self.time <= t_end and self.end > t_start


class TemporalGraph:
    """An immutable temporal graph over nodes ``0 .. num_nodes - 1``.

    Contacts are stored sorted by ``(u, v, time)`` -- the exact ordering
    contract the paper's dual representation relies on ("the order of the
    timestamps is defined by the labels of the nodes and the values of the
    timestamps", Section IV-B).
    """

    def __init__(
        self,
        kind: GraphKind,
        num_nodes: int,
        contacts: Sequence[Contact],
        *,
        name: str = "unnamed",
        granularity: str = "step",
        sort: bool = True,
    ) -> None:
        if num_nodes < 0:
            raise ValueError(f"negative node count: {num_nodes}")
        contact_list = list(contacts)
        # The time bounds are gathered in the validation pass: the graph
        # never changes, and the encoder reads them several times.
        t_min = t_max = contact_list[0].time if contact_list else 0
        for c in contact_list:
            if not (0 <= c.u < num_nodes and 0 <= c.v < num_nodes):
                raise ValueError(f"contact {c} references node >= {num_nodes}")
            if c.duration < 0:
                raise ValueError(f"negative duration in {c}")
            if kind is not GraphKind.INTERVAL and c.duration:
                raise ValueError(
                    f"{kind.value} graphs cannot carry durations: {c}"
                )
            if c.time < t_min:
                t_min = c.time
            elif c.time > t_max:
                t_max = c.time
        if sort:
            contact_list.sort()
        self.kind = kind
        self.num_nodes = num_nodes
        self.name = name
        self.granularity = granularity
        self._contacts: List[Contact] = contact_list
        self._adjacency: Dict[int, List[Contact]] | None = None
        self._t_min = t_min
        self._t_max = t_max

    # -- basic accessors ---------------------------------------------------

    @property
    def contacts(self) -> List[Contact]:
        """All contacts sorted by (u, v, time)."""
        return self._contacts

    @property
    def num_contacts(self) -> int:
        """Number of contacts -- the denominator of every bits/contact figure."""
        return len(self._contacts)

    @property
    def num_edges(self) -> int:
        """Number of distinct (u, v) pairs over the whole lifetime."""
        return len({(c.u, c.v) for c in self._contacts})

    @property
    def t_min(self) -> int:
        """Smallest timestamp; 0 for an empty graph."""
        return self._t_min

    @property
    def t_max(self) -> int:
        """Largest timestamp (start times only); 0 for an empty graph."""
        return self._t_max

    @property
    def lifetime(self) -> int:
        """Span between the first and last event, in granularity units."""
        if not self._contacts:
            return 0
        if self.kind is GraphKind.INTERVAL:
            last = max(c.end for c in self._contacts)
        else:
            last = self.t_max
        return last - self.t_min

    def __len__(self) -> int:
        return self.num_contacts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TemporalGraph({self.name!r}, kind={self.kind.value}, "
            f"nodes={self.num_nodes}, contacts={self.num_contacts})"
        )

    # -- adjacency views ----------------------------------------------------

    def _ensure_adjacency(self) -> Dict[int, List[Contact]]:
        if self._adjacency is None:
            adjacency: Dict[int, List[Contact]] = {}
            for c in self._contacts:
                adjacency.setdefault(c.u, []).append(c)
            self._adjacency = adjacency
        return self._adjacency

    def contacts_of(self, u: int) -> List[Contact]:
        """Contacts with source ``u``, sorted by (neighbor label, time).

        This is the ordering contract shared by the structure and timestamp
        representations: the i-th neighbor in the sorted multiset corresponds
        to the i-th timestamp.
        """
        self._check_node(u)
        return self._ensure_adjacency().get(u, [])

    def out_degree(self, u: int) -> int:
        """Number of contacts leaving ``u`` (multiset size, as in Fig. 5a)."""
        return len(self.contacts_of(u))

    def distinct_neighbors(self, u: int) -> List[int]:
        """Sorted distinct neighbor labels of ``u``."""
        seen: List[int] = []
        for c in self.contacts_of(u):
            if not seen or seen[-1] != c.v:
                seen.append(c.v)
        return seen

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.num_nodes:
            raise ValueError(f"node {u} outside [0, {self.num_nodes})")

    # -- reference queries (test oracle) ------------------------------------

    def ref_has_edge(self, u: int, v: int, t_start: int, t_end: int) -> bool:
        """Uncompressed reference for Algorithm 1."""
        return any(
            c.v == v and c.is_active(t_start, t_end, self.kind)
            for c in self.contacts_of(u)
        )

    def ref_neighbors(self, u: int, t_start: int, t_end: int) -> List[int]:
        """Sorted distinct neighbors of ``u`` active within [t_start, t_end]."""
        out: List[int] = []
        for c in self.contacts_of(u):
            if c.is_active(t_start, t_end, self.kind):
                if not out or out[-1] != c.v:
                    out.append(c.v)
        return out

    def ref_edge_timestamps(self, u: int, v: int) -> List[int]:
        """All activation timestamps recorded for the edge (u, v)."""
        return [c.time for c in self.contacts_of(u) if c.v == v]

    def ref_snapshot(self, t_start: int, t_end: int) -> List[Tuple[int, int]]:
        """All distinct edges active within the interval, sorted."""
        edges = {
            (c.u, c.v)
            for c in self._contacts
            if c.is_active(t_start, t_end, self.kind)
        }
        return sorted(edges)

    # -- convenience --------------------------------------------------------

    def nodes(self) -> range:
        """Iterable over node labels."""
        return range(self.num_nodes)

    def active_nodes(self) -> List[int]:
        """Nodes with at least one outgoing contact."""
        return sorted(self._ensure_adjacency())


def max_label(contacts: Iterable[Contact]) -> int:
    """Largest node label appearing in an iterable of contacts (-1 if empty)."""
    top = -1
    for c in contacts:
        if c.u > top:
            top = c.u
        if c.v > top:
            top = c.v
    return top
