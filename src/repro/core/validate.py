"""Integrity validation and salvage of compressed graphs.

``validate_compressed`` decodes every node of a compressed graph and checks
the structural invariants the codec guarantees; with a reference graph it
additionally verifies exact round-trip equality.  Exposed through the CLI's
``verify`` command so shipped ``.chrono`` artefacts can be health-checked.

``salvage_scan`` is the graceful-degradation half: it decodes nodes from
the start of a (possibly corrupt) graph until the first failure and wraps
the longest valid prefix in a :class:`SalvageReport`, which is what
``load_compressed(path, salvage=True)`` returns.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.compressed import CompressedChronoGraph
from repro.errors import FormatError
from repro.graph.model import TemporalGraph


@dataclasses.dataclass
class ValidationReport:
    """Outcome of a validation pass."""

    nodes_checked: int
    contacts_checked: int
    errors: List[str]

    @property
    def ok(self) -> bool:
        """Whether no violation was found."""
        return not self.errors


def validate_compressed(
    compressed: CompressedChronoGraph,
    reference: Optional[TemporalGraph] = None,
    *,
    max_errors: int = 20,
) -> ValidationReport:
    """Decode everything and check invariants; optionally diff a reference.

    Invariants checked per node: the multiset decodes and is label-sorted;
    the timestamp record aligns one-to-one with it; interval durations are
    non-negative.  Global: decoded contact count equals the recorded one.
    With ``reference``: per-node contacts match exactly.
    """
    errors: List[str] = []
    contacts_checked = 0

    def record(message: str) -> bool:
        errors.append(message)
        return len(errors) >= max_errors

    for u in range(compressed.num_nodes):
        try:
            multiset = compressed.decode_multiset(u)
        except Exception as exc:  # noqa: BLE001 - reporting, not handling
            if record(f"node {u}: structure decode failed: {exc!r}"):
                break
            continue
        if any(a > b for a, b in zip(multiset, multiset[1:])):
            if record(f"node {u}: neighbor multiset not label-sorted"):
                break
        try:
            contacts = compressed.contacts_of(u)
        except Exception as exc:  # noqa: BLE001
            if record(f"node {u}: timestamp decode failed: {exc!r}"):
                break
            continue
        if len(contacts) != len(multiset):
            if record(
                f"node {u}: {len(multiset)} neighbors but "
                f"{len(contacts)} timestamps"
            ):
                break
        if any(c.duration < 0 for c in contacts):
            if record(f"node {u}: negative duration decoded"):
                break
        contacts_checked += len(contacts)
        if reference is not None and len(errors) < max_errors:
            expected = reference.contacts_of(u)
            if contacts != expected:
                record(
                    f"node {u}: decoded contacts differ from reference "
                    f"({len(contacts)} vs {len(expected)} entries)"
                )

    if len(errors) < max_errors and contacts_checked != compressed.num_contacts:
        record(
            f"decoded {contacts_checked} contacts but header records "
            f"{compressed.num_contacts}"
        )
    return ValidationReport(
        nodes_checked=compressed.num_nodes,
        contacts_checked=contacts_checked,
        errors=errors,
    )


# --------------------------------------------------------------------------
# Salvage (graceful degradation)
# --------------------------------------------------------------------------

@dataclasses.dataclass
class SalvageReport:
    """Outcome of a best-effort decode of a possibly-corrupt container.

    ``graph`` holds the longest valid prefix of nodes that decoded cleanly
    (its ``num_nodes``/``num_contacts`` describe the prefix, not the
    original container), or ``None`` when not even the header survived.
    """

    graph: Optional[CompressedChronoGraph]
    nodes_declared: int
    nodes_recovered: int
    contacts_declared: int
    contacts_recovered: int
    errors: List[str]

    @property
    def ok(self) -> bool:
        """Whether the container was fully intact — nothing was lost."""
        return (
            self.graph is not None
            and not self.errors
            and self.nodes_recovered == self.nodes_declared
        )

    @property
    def partial(self) -> bool:
        """Whether something, but not everything, was recovered."""
        return self.graph is not None and not self.ok and self.nodes_recovered > 0

    def summary(self) -> str:
        """Human-readable multi-line account of the salvage outcome."""
        lines = [
            f"recovered {self.nodes_recovered}/{self.nodes_declared} nodes, "
            f"{self.contacts_recovered}/{self.contacts_declared} contacts"
        ]
        if self.ok:
            lines.append("container intact")
        elif self.graph is None:
            lines.append("container unreadable; nothing recovered")
        for error in self.errors:
            lines.append(f"  - {error}")
        return "\n".join(lines)


def _prefix_graph(
    graph: CompressedChronoGraph, nodes: int, contacts: int
) -> CompressedChronoGraph:
    """Restrict ``graph`` to its first ``nodes`` nodes."""
    return CompressedChronoGraph(
        kind=graph.kind,
        num_nodes=nodes,
        num_contacts=contacts,
        t_min=graph.t_min,
        config=graph.config,
        structure_bytes=graph._sbytes,
        structure_bits=graph._sbits,
        timestamp_bytes=graph._tbytes,
        timestamp_bits=graph._tbits,
        structure_offsets=graph._soffsets[:nodes],
        timestamp_offsets=graph._toffsets[:nodes],
        name=graph.name,
    )


def salvage_scan(
    graph: CompressedChronoGraph, *, errors: Optional[List[str]] = None
) -> SalvageReport:
    """Decode the longest valid prefix of ``graph`` into a report.

    Nodes are decoded in storage order; the scan stops at the first node
    whose structure or timestamp record fails to decode or violates a
    codec invariant (unsorted multiset, out-of-range neighbor label).  The
    function never raises on corrupt data -- that is its contract.

    A lenient loader may attach ``_declared_nodes`` to ``graph`` when it
    already had to clip the offset indexes; the report counts losses
    against that original figure.
    """
    errors = list(errors) if errors else []
    nodes_declared = getattr(graph, "_declared_nodes", graph.num_nodes)
    label_bound = max(nodes_declared, graph.num_nodes)
    contacts_declared = graph.num_contacts
    good_nodes = 0
    good_contacts = 0
    for u in range(graph.num_nodes):
        try:
            multiset = graph.decode_multiset(u)
            contacts = graph.contacts_of(u)
        except FormatError as exc:
            errors.append(f"node {u}: {exc}")
            break
        except Exception as exc:  # noqa: BLE001 - salvage must never raise
            errors.append(f"node {u}: unexpected failure: {exc!r}")
            break
        if any(a > b for a, b in zip(multiset, multiset[1:])):
            errors.append(f"node {u}: neighbor multiset not label-sorted")
            break
        if multiset and not (0 <= multiset[0] and multiset[-1] < label_bound):
            errors.append(f"node {u}: neighbor label outside [0, {label_bound})")
            break
        good_nodes += 1
        good_contacts += len(contacts)
    if (
        good_nodes == graph.num_nodes
        and nodes_declared == graph.num_nodes
        and good_contacts != contacts_declared
    ):
        errors.append(
            f"decoded {good_contacts} contacts but header records "
            f"{contacts_declared}"
        )
    if good_nodes == graph.num_nodes and good_contacts == graph.num_contacts:
        prefix = graph
    else:
        prefix = _prefix_graph(graph, good_nodes, good_contacts)
    return SalvageReport(
        graph=prefix,
        nodes_declared=nodes_declared,
        nodes_recovered=good_nodes,
        contacts_declared=contacts_declared,
        contacts_recovered=good_contacts,
        errors=errors,
    )
