"""The decode checkpoint hook shared by the table loops and the runtime.

Every run of codes -- the record decoders of :mod:`repro.core.structure`
and :mod:`repro.core.timestamps`, and the ``read_many_*`` bulk readers of
:mod:`repro.bits.codes` -- decodes on one inlined 16-bit table loop.
While a query context is active, each loop reads the hook installed here
and splits its run into stride-sized chunks (``codes.strides``), polling
the hook between chunks, so a single huge record still observes its
deadline, cancel flag and work budget.  The hook lives in
:mod:`repro.bits` (rather than :mod:`repro.runtime`) so the codecs carry
no upward import.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

__all__ = [
    "numpy_available",
    "plan",
    "set_kernel",
    "kernel_info",
    "CheckpointHook",
    "set_checkpoint_hook",
    "get_checkpoint_hook",
]


# Constant stubs of the retired kernel planner.  The traced ``bits_micro``
# probe of the end-to-end benchmark (benchmarks/e2e/workloads.py) still
# calls them, and that directory changes only together with the benchmark
# itself; delete them with its next change.


def numpy_available() -> bool:
    """Always ``False``: no decode kernel uses numpy."""
    return False


def plan(count: int) -> str:
    """Always ``"table"``: every run decodes on the table kernel."""
    return "table"


def set_kernel(name: Optional[str] = None) -> None:
    """Does nothing: there is one kernel to choose."""


def kernel_info() -> Dict[str, object]:
    """The retired planner's snapshot keys, with their fixed values."""
    return {"override": "table", "numpy_available": False, "numpy_min_run": None}


#: Ambient decode checkpoint installed by :mod:`repro.runtime.context`.
#:
#: Called by the table loops as ``hook(work)``: it charges ``work`` decode
#: units against the active :class:`repro.runtime.context.QueryContext` (if
#: any), raises the typed interruption errors when the deadline, cancel
#: flag or work budget says stop, and returns the preferred chunk stride in
#: codes (``> 0``) while a context is active -- or ``0`` when the calling
#: thread has no active context, telling the reader to take its zero
#: overhead path.  Living here (rather than in ``repro.runtime``) keeps
#: :mod:`repro.bits` free of upward imports: the runtime layer registers
#: itself while at least one query context is active on any thread, and
#: removes itself when the last deactivates -- so when the hook is
#: ``None`` the table loops know no thread anywhere is governed and skip
#: even the thread-local poll.
CheckpointHook = Callable[[int], int]

_checkpoint_hook: Optional[CheckpointHook] = None


def set_checkpoint_hook(hook: Optional[CheckpointHook]) -> None:
    """Install (or with ``None``, remove) the ambient decode checkpoint.

    Intended for :mod:`repro.runtime.context`, which registers its
    thread-local poll while any query context is active; tests may swap
    in their own hook to observe checkpoint cadence.
    """
    global _checkpoint_hook
    _checkpoint_hook = hook


def get_checkpoint_hook() -> Optional[CheckpointHook]:
    """The installed ambient decode checkpoint, or ``None``."""
    return _checkpoint_hook
