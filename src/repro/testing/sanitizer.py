"""reprosan: a runtime nested-lock and blocking-under-lock sanitizer.

The static engine (:mod:`repro.analysis`, rule CG002) checks lock
discipline over the *code*; this module checks it over *executions*.
While installed, every ``threading.Lock()`` / ``threading.RLock()``
created from repro code is replaced by a recording wrapper that tracks
the locks each thread holds; every bulk decode entry point and blocking
filesystem call reports when it runs with a governed lock held.  A test
run under the sanitizer reports a :class:`BlockingEvent` for:

* **nested acquisition** (``kind="lock"``) -- a thread acquired a lock
  while it already held a different lock *object*.  With no nesting
  there is no acquisition order to get wrong.  Comparing objects, not
  names, catches two instances' same-named locks, which the static rule
  cannot tell apart, while an RLock's re-entry is not nesting;
* **blocking under lock** (``kind="decode"`` or ``"fs"``) -- decode or
  filesystem work that actually ran inside a governed critical section
  (the runtime analogue of a CG002 finding; the reentrant distinct-list
  lock is exempt by the same design rule).

Locks are named by their creation site: the assignment target on the
source line that called the factory (``self._distinct_lock =
threading.RLock()`` names the lock ``_distinct_lock``), which lines the
dynamic names up with the static rule's AST-derived names.  Locks
created outside the repro tree (pytest, logging, stdlib pools) are left
unwrapped so the sanitizer only ever observes the system under test.

Typical use (see also :func:`repro.testing.races.run_sanitized_race_smoke`
and the ``sanitizer`` CI job)::

    with sanitized() as san:
        run_race_smoke()
    report = san.report()
    assert report.ok, report.summary()

The wrapper factories only affect locks created *inside* the ``with``
block; module-level locks that already exist keep their identity, so the
sanitizer can be installed mid-process without invalidating running code.
"""

from __future__ import annotations

import builtins
import dataclasses
import linecache
import os
import re
import sys
import threading
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "BlockingEvent",
    "SanitizerReport",
    "LockSanitizer",
    "sanitized",
    "run_seeded_nesting",
    "main",
]

#: Assignment target on a lock factory's source line, used to name locks.
_ASSIGN_RE = re.compile(
    r"(?:self\.)?([A-Za-z_]\w*)\s*=\s*[\w.]*R?Lock\s*\("
)

#: Keyword-argument spelling (``lock=threading.Lock()``).
_KWARG_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*[\w.]*R?Lock\s*\(")

#: The path fragment that marks first-party code for wrap decisions.
_REPRO_FRAGMENT = os.sep + "repro" + os.sep

# Real factories, captured at import so sanitizer internals and unwrapped
# locks never recurse through the patched ones.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock


def _governed(name: str) -> bool:
    """Whether a lock name is governed: no decode or I/O may run under it.

    Mirrors CG002's recogniser: ``lock`` or ``*_lock`` (the record cache's
    ``_cache_lock``, for one), with the reentrant distinct-list lock
    exempt by design.
    """
    if "distinct" in name:
        return False
    return name == "lock" or name.endswith("_lock")


@dataclasses.dataclass(frozen=True)
class BlockingEvent:
    """One call that ran while a lock was held and must not have.

    ``kind`` is ``"lock"`` when ``func`` names a second lock acquired
    while ``lock`` was held, and ``"decode"`` or ``"fs"`` when ``func`` is
    blocking work that ran under the governed lock ``lock``.
    """

    kind: str
    func: str
    lock: str
    location: str

    def render(self) -> str:
        """Human-readable one-liner for reports and CI logs."""
        return (
            f"{self.kind} call `{self.func}` ran while holding "
            f"`{self.lock}` at {self.location}"
        )


@dataclasses.dataclass
class SanitizerReport:
    """Everything one sanitized run observed."""

    locks_created: int
    acquisitions: int
    blocking: List[BlockingEvent]

    @property
    def ok(self) -> bool:
        """True when the run saw no nested lock and no blocking-under-lock."""
        return not self.blocking

    def summary(self) -> str:
        """One-line outcome for logs and assertion messages."""
        status = "PASS" if self.ok else f"FAIL ({len(self.blocking)} events)"
        return (
            f"reprosan: {status}; {self.locks_created} locks, "
            f"{self.acquisitions} acquisitions"
        )


#: Sanitizer-internal frames to skip when attributing an event to code.
_INTERNAL_FRAMES = {
    "_caller_location",
    "_note_acquired",
    "_note_blocking",
    "acquire",
    "release",
    "__enter__",
    "__exit__",
    "wrapped",
}


def _caller_location() -> str:
    """``file:line`` of the nearest frame outside the sanitizer machinery."""
    frame = sys._getframe(1)
    here = __file__
    while frame is not None:
        filename = frame.f_code.co_filename
        internal = filename == here and frame.f_code.co_name in _INTERNAL_FRAMES
        if not internal and "threading" not in os.path.basename(filename):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class _SanitizedLock:
    """A recording proxy around one real lock (or RLock).

    Supports ``acquire``, ``release``, ``locked`` and the context-manager
    protocol, and nothing else: a ``threading.Condition`` built on a
    wrapped RLock cannot wait, because the proxy lacks the RLock's private
    ownership hooks.
    """

    def __init__(
        self, sanitizer: "LockSanitizer", real: Any, name: str
    ) -> None:
        self._san = sanitizer
        self._real = real
        self._name = name

    @property
    def name(self) -> str:
        """The creation-site name the sanitizer derived for this lock."""
        return self._name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the real lock, then record it as held by this thread."""
        got = self._real.acquire(blocking, timeout)
        if got:
            self._san._note_acquired(self)
        return got

    def release(self) -> None:
        """Record the release, then release the real lock."""
        self._san._note_released(self)
        self._real.release()

    def locked(self) -> bool:
        """Whether the real lock is currently held (Lock protocol)."""
        return self._real.locked()

    def __enter__(self) -> bool:
        """Context-manager acquire."""
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        """Context-manager release."""
        self.release()

    def __repr__(self) -> str:
        """Name plus the real lock's state."""
        return f"_SanitizedLock({self._name!r}, {self._real!r})"


class LockSanitizer:
    """The installable sanitizer: lock factories plus blocking patches.

    Use :func:`sanitized` for the context-managed form.  ``install`` and
    ``uninstall`` are idempotent per instance and must be called from the
    same thread.
    """

    #: (module, attribute) pairs patched to report decode-under-lock: the
    #: record decoders, also where the query surface imports them by
    #: name, and the bulk readers.
    _DECODE_PATCHES = (
        ("repro.core.structure", "decode_node_structure"),
        ("repro.core.timestamps", "decode_node_timestamps"),
        ("repro.core.compressed", "decode_node_structure"),
        ("repro.core.compressed", "decode_node_timestamps"),
        ("repro.bits.codes", "read_many_gamma_natural"),
        ("repro.bits.codes", "read_many_zeta_natural"),
        ("repro.bits.codes", "read_many_zeta_natural_pairs"),
    )

    #: os-level filesystem calls patched to report fs-under-lock.
    _FS_PATCHES = ("fsync", "replace", "rename")

    def __init__(self, all_locks: bool = False) -> None:
        self._all_locks = all_locks
        self._meta = _REAL_LOCK()  # guards the shared tables below
        self._held = threading.local()
        self._blocking: List[BlockingEvent] = []
        self._locks_created = 0
        self._acquisitions = 0
        self._installed = False
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- lock factory ---------------------------------------------------

    def _lock_name_from_site(self) -> Optional[str]:
        """Name for a lock created now, from its creation source line.

        Walks out of the sanitizer/threading frames to the creating
        statement and pulls the assignment target off that line.  Returns
        None when the creator is not first-party repro code -- such locks
        stay unwrapped.
        """
        frame: Any = sys._getframe(2)
        while frame is not None:
            filename = frame.f_code.co_filename
            in_factory = (
                filename == __file__
                and frame.f_code.co_name
                in ("_factory", "_lock_name_from_site", "<lambda>")
            )
            if not in_factory and "threading" not in os.path.basename(filename):
                break
            frame = frame.f_back
        if frame is None:
            return None
        filename = frame.f_code.co_filename
        if _REPRO_FRAGMENT not in filename and not self._all_locks:
            return None
        line = linecache.getline(filename, frame.f_lineno)
        m = _ASSIGN_RE.search(line) or _KWARG_RE.search(line)
        if m:
            return m.group(1)
        return f"lock@{os.path.basename(filename)}:{frame.f_lineno}"

    def _factory(self, real_factory: Callable[[], Any]) -> Any:
        name = self._lock_name_from_site()
        real = real_factory()
        if name is None or not self._installed:
            return real
        with self._meta:
            self._locks_created += 1
        return _SanitizedLock(self, real, name)

    # -- per-thread bookkeeping ----------------------------------------

    def _stack(self) -> List[_SanitizedLock]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _note_acquired(self, lock: _SanitizedLock) -> None:
        stack = self._stack()
        # Identity, not name: two objects' same-named locks nest, while an
        # RLock re-entering itself does not.
        other = next((held for held in reversed(stack) if held is not lock), None)
        event = None
        if other is not None:
            event = BlockingEvent(
                kind="lock",
                func=lock._name,
                lock=other._name,
                location=_caller_location(),
            )
        with self._meta:
            self._acquisitions += 1
            if event is not None:
                self._blocking.append(event)
        stack.append(lock)

    def _note_released(self, lock: _SanitizedLock) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is lock:
                del stack[i]
                return
        # Released by a thread that never acquired it (legal for Lock):
        # nothing to unwind locally.

    def _governed_lock_held(self) -> Optional[str]:
        for lock in reversed(self._stack()):
            if _governed(lock._name):
                return lock._name
        return None

    def _note_blocking(self, kind: str, func: str) -> None:
        lock = self._governed_lock_held()
        if lock is None:
            return
        event = BlockingEvent(
            kind=kind, func=func, lock=lock, location=_caller_location()
        )
        with self._meta:
            self._blocking.append(event)

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _blocking_wrapper(
        self, kind: str, func: Callable[..., Any]
    ) -> Callable[..., Any]:
        name = getattr(func, "__name__", str(func))

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            self._note_blocking(kind, name)
            return func(*args, **kwargs)

        wrapped.__name__ = name
        return wrapped

    def install(self) -> None:
        """Patch the lock factories and blocking entry points."""
        if self._installed:
            return
        self._installed = True
        self._patch(
            threading, "Lock", lambda: self._factory(_REAL_LOCK)
        )
        self._patch(
            threading, "RLock", lambda: self._factory(_REAL_RLOCK)
        )
        self._patch(
            builtins, "open", self._blocking_wrapper("fs", builtins.open)
        )
        for attr in self._FS_PATCHES:
            self._patch(os, attr, self._blocking_wrapper("fs", getattr(os, attr)))
        import importlib

        # Import every module before patching any, so no by-name import
        # binds a wrapper that uninstall would not restore.
        modules = [
            importlib.import_module(name) for name, _ in self._DECODE_PATCHES
        ]
        for module, (_, attr) in zip(modules, self._DECODE_PATCHES):
            self._patch(
                module, attr, self._blocking_wrapper("decode", getattr(module, attr))
            )

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        if not self._installed:
            return
        self._installed = False
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------

    def report(self) -> SanitizerReport:
        """Snapshot of everything observed so far."""
        with self._meta:
            return SanitizerReport(
                locks_created=self._locks_created,
                acquisitions=self._acquisitions,
                blocking=list(self._blocking),
            )


@contextmanager
def sanitized(all_locks: bool = False) -> Iterator[LockSanitizer]:
    """Install a fresh :class:`LockSanitizer` for the block, then restore.

    ``all_locks=True`` wraps locks created from *any* file, not just the
    repro tree -- the hook test fixtures use to seed violations from a
    test module.
    """
    sanitizer = LockSanitizer(all_locks=all_locks)
    sanitizer.install()
    try:
        yield sanitizer
    finally:
        sanitizer.uninstall()


def run_seeded_nesting() -> SanitizerReport:
    """Take one lock while holding another, under the sanitizer.

    The CI proof that reprosan actually fires: one thread acquires
    ``seeded_inner`` inside ``seeded_outer``.  Returns the report, which
    must contain exactly that nested acquisition.
    """
    # The names deliberately sit outside CG002's lock-naming convention:
    # this nesting must be invisible to the static rule, so detecting it
    # proves the runtime half works on its own.
    with sanitized() as sanitizer:
        seeded_outer = threading.Lock()
        seeded_inner = threading.Lock()
        with seeded_outer:
            with seeded_inner:
                pass
    return sanitizer.report()


def main(argv: Optional[List[str]] = None) -> int:
    """CI entry point: prove the sanitizer fires, then gate the real run.

    1. The seeded nesting must be detected (else the sanitizer is broken
       and exit code is 2).
    2. The race smoke suite must pass under the sanitizer with zero
       nested acquisitions and zero blocking-under-lock events (exit 1).
    """
    from repro.testing.races import run_sanitized_race_smoke

    seeded = run_seeded_nesting()
    if not seeded.blocking:
        print("reprosan: seeded nesting was NOT detected", flush=True)
        return 2
    print("reprosan: seeded nesting detected: " + seeded.blocking[0].render())

    race, observed = run_sanitized_race_smoke()
    print(race.summary())
    print(observed.summary())
    # One line per distinct site: a nesting on a hot path repeats per call.
    for line in sorted({event.render() for event in observed.blocking}):
        print("  " + line)
    problems: List[str] = []
    if not race.ok:
        problems.extend(race.violations)
    if not observed.ok:
        problems.append("sanitizer observed nested locks/blocking (above)")
    if problems:
        print(f"reprosan: FAIL ({len(problems)} problem(s))")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI job
    raise SystemExit(main())
