"""Integrity validation and salvage of compressed graphs.

Both halves check each node with one function, :func:`_node_flaw`: the
record decodes, the neighbor multiset is label-sorted, every label lies
in ``[0, declared nodes)``, the timestamps align one-to-one with the
neighbors and no duration is negative.  After a flawless pass the
decoded contact total must match the header's.

``validate_compressed`` (the CLI's ``verify``) collects up to
``max_errors`` flaws and diffs an optional reference graph.
``salvage_scan`` stops at the first flawed node and wraps the longest
valid prefix in a :class:`SalvageReport`, which is what
``load_compressed(path, salvage=True)`` returns.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.core.compressed import CompressedChronoGraph
from repro.errors import FormatError
from repro.graph.model import Contact, TemporalGraph


def _node_flaw(
    graph: CompressedChronoGraph, u: int, label_bound: int
) -> Tuple[List[Contact], Optional[str]]:
    """Decode node ``u`` and check it: ``(contacts, None)`` or ``([], flaw)``.

    The flaw names the node once.  Never raises on corrupt data.
    """
    try:
        multiset = graph.decode_multiset(u)
        contacts = graph.contacts_of(u)
    except FormatError as exc:
        flaw = str(exc)
    except Exception as exc:  # noqa: BLE001 - checking must never raise
        flaw = f"unexpected failure: {exc!r}"
    else:
        if any(a > b for a, b in zip(multiset, multiset[1:])):
            flaw = "neighbor multiset not label-sorted"
        elif multiset and not (0 <= multiset[0] and multiset[-1] < label_bound):
            label = multiset[0] if multiset[0] < 0 else multiset[-1]
            flaw = f"neighbor label {label} outside [0, {label_bound})"
        elif len(contacts) != len(multiset):
            flaw = f"{len(multiset)} neighbors but {len(contacts)} timestamps"
        elif any(c.duration < 0 for c in contacts):
            flaw = "negative duration decoded"
        else:
            return contacts, None
    prefix = f"node {u}: "
    return [], flaw if flaw.startswith(prefix) else prefix + flaw


def _check_total(
    graph: CompressedChronoGraph, decoded: int, errors: List[str]
) -> None:
    """After a flawless node pass, the decoded contact total must match."""
    if decoded != graph.num_contacts:
        errors.append(
            f"decoded {decoded} contacts but header records {graph.num_contacts}"
        )


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
    """Check every node (see the module docstring); optionally diff a reference.

    With ``reference``, each sound node's contacts must match it exactly.
    Stops after ``max_errors`` flaws.
    """
    errors: List[str] = []
    contacts_checked = 0
    for u in range(compressed.num_nodes):
        contacts, flaw = _node_flaw(compressed, u, compressed.num_nodes)
        if flaw is None and reference is not None:
            expected = reference.contacts_of(u)
            if contacts != expected:
                flaw = (
                    f"node {u}: decoded contacts differ from reference "
                    f"({len(contacts)} vs {len(expected)} entries)"
                )
        contacts_checked += len(contacts)
        if flaw is not None:
            errors.append(flaw)
            if len(errors) >= max_errors:
                break
    if not errors:
        _check_total(compressed, contacts_checked, errors)
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
    graph: CompressedChronoGraph,
    *,
    errors: Optional[List[str]] = None,
    nodes_declared: Optional[int] = None,
) -> SalvageReport:
    """Decode the longest valid prefix of ``graph`` into a report.

    Nodes are checked in storage order (see the module docstring) up to
    the first flawed one.  Never raises on corrupt data -- that is its
    contract.  ``nodes_declared`` is the header's node count when the
    salvage walk clipped the offset indexes below it (default:
    ``graph.num_nodes``); losses count against it, and labels below it
    are in range.
    """
    errors = list(errors) if errors else []
    if nodes_declared is None:
        nodes_declared = graph.num_nodes
    label_bound = max(nodes_declared, graph.num_nodes)
    good_nodes = 0
    good_contacts = 0
    for u in range(graph.num_nodes):
        contacts, flaw = _node_flaw(graph, u, label_bound)
        if flaw is not None:
            errors.append(flaw)
            break
        good_nodes += 1
        good_contacts += len(contacts)
    if good_nodes == graph.num_nodes == nodes_declared:
        _check_total(graph, good_contacts, errors)
    if good_nodes == graph.num_nodes and good_contacts == graph.num_contacts:
        prefix = graph
    else:
        prefix = _prefix_graph(graph, good_nodes, good_contacts)
    return SalvageReport(
        graph=prefix,
        nodes_declared=nodes_declared,
        nodes_recovered=good_nodes,
        contacts_declared=graph.num_contacts,
        contacts_recovered=good_contacts,
        errors=errors,
    )
