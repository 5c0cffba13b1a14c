"""Fixture tests for the v2 rules: CG007, CG008, CG009, and the
interprocedural CG002 migration.

Every rule gets positive (fires), negative (stays quiet) and suppression
fixtures, written to tmp trees shaped like the real package so the
path-scoped ``applies`` filters engage.  The CG002 section is the
regression the engine v2 exists for: a lock held in one module must ban
decode/filesystem work reached only through calls into *other* modules.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.framework import get_rule, run_rules


def _write(tmp_path: Path, rel: str, body: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    return path


def _rules_of(findings):
    return sorted({f.rule for f in findings})


# -- CG002 interprocedural (cross-module) ------------------------------------


def test_cg002_cross_module_decode_under_lock(tmp_path):
    """server holds the mutate lock -> segments -> codes.decode: banned,
    even though every hop lives in a different module."""
    _write(
        tmp_path,
        "repro/service/server.py",
        """
        import threading
        from repro.storage.segments import read_segment

        class Server:
            def __init__(self):
                self._mutate_lock = threading.Lock()

            def apply(self):
                with self._mutate_lock:
                    read_segment()
        """,
    )
    _write(
        tmp_path,
        "repro/storage/segments.py",
        """
        from repro.bits.codes import decode_run

        def read_segment():
            return decode_run()
        """,
    )
    _write(
        tmp_path,
        "repro/bits/codes.py",
        """
        def decode_run():
            return 1
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG002")])
    assert len(findings) == 1
    assert findings[0].rule == "CG002"
    assert "read_segment" in findings[0].message
    assert findings[0].path.endswith("server.py")


def test_cg002_cross_module_clean_when_lock_released(tmp_path):
    _write(
        tmp_path,
        "repro/service/server.py",
        """
        import threading
        from repro.storage.segments import read_segment

        class Server:
            def __init__(self):
                self._mutate_lock = threading.Lock()

            def apply(self):
                with self._mutate_lock:
                    staged = 1
                return read_segment()
        """,
    )
    _write(
        tmp_path,
        "repro/storage/segments.py",
        """
        from repro.bits.codes import decode_run

        def read_segment():
            return decode_run()
        """,
    )
    _write(
        tmp_path,
        "repro/bits/codes.py",
        """
        def decode_run():
            return 1
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG002")])
    assert findings == []


def test_cg002_cross_module_nested_acquisition(tmp_path):
    """A lock held in one module while a call takes another in a second."""
    _write(
        tmp_path,
        "repro/service/first.py",
        """
        import threading
        from repro.storage.second import bump

        class First:
            def __init__(self):
                self._state_lock = threading.Lock()

            def update(self):
                with self._state_lock:
                    bump()
        """,
    )
    _write(
        tmp_path,
        "repro/storage/second.py",
        """
        import threading

        _count_lock = threading.Lock()

        def bump():
            with _count_lock:
                pass
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG002")])
    assert len(findings) == 1
    assert findings[0].path.endswith("first.py")
    assert findings[0].line == 11
    assert "`bump` acquires `_count_lock`" in findings[0].message
    assert "`_state_lock`" in findings[0].message


# -- CG007 checkpoint coverage -----------------------------------------------


CG007_COMMON = {
    "repro/runtime/context.py": """
        class QueryContext:
            def checkpoint(self, work=0):
                pass

        def query_scope(ctx):
            return ctx
    """,
}


def test_cg007_flags_unpolled_loop_reached_from_entry(tmp_path):
    for rel, body in CG007_COMMON.items():
        _write(tmp_path, rel, body)
    _write(
        tmp_path,
        "repro/core/compressed.py",
        """
        from repro.runtime.context import query_scope
        from repro.core.helpers import scan_all

        class CompressedChronoGraph:
            def neighbors(self, u, ctx):
                with query_scope(ctx):
                    return scan_all(u)
        """,
    )
    _write(
        tmp_path,
        "repro/core/helpers.py",
        """
        def scan_all(u):
            total = 0
            while u > 0:
                total += u
                u -= 1
            return total
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG007")])
    assert len(findings) == 1
    assert findings[0].rule == "CG007"
    assert "scan_all" in findings[0].message
    assert "neighbors" in findings[0].message
    assert findings[0].path.endswith("helpers.py")


def test_cg007_quiet_when_loop_polls(tmp_path):
    for rel, body in CG007_COMMON.items():
        _write(tmp_path, rel, body)
    _write(
        tmp_path,
        "repro/core/compressed.py",
        """
        from repro.runtime.context import query_scope

        class CompressedChronoGraph:
            def neighbors(self, u, ctx):
                with query_scope(ctx):
                    total = 0
                    while u > 0:
                        ctx.checkpoint()
                        total += u
                        u -= 1
                    return total
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG007")])
    assert findings == []


def test_cg007_quiet_below_a_polling_ancestor(tmp_path):
    """A strided caller that polls covers its un-polled kernel callees."""
    for rel, body in CG007_COMMON.items():
        _write(tmp_path, rel, body)
    _write(
        tmp_path,
        "repro/core/compressed.py",
        """
        from repro.runtime.context import query_scope
        from repro.core.kernels import bulk_read

        class CompressedChronoGraph:
            def neighbors(self, u, ctx):
                with query_scope(ctx):
                    return bulk_read(u, ctx)
        """,
    )
    _write(
        tmp_path,
        "repro/core/kernels.py",
        """
        def plain_kernel(u):
            out = []
            while u > 0:
                out.append(u)
                u -= 1
            return out

        def bulk_read(u, ctx):
            out = []
            while u > 0:
                ctx.checkpoint()
                out.extend(plain_kernel(min(u, 8)))
                u -= 8
            return out
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG007")])
    assert findings == []


def test_cg007_quiet_without_entry_point(tmp_path):
    """The same unbounded loop is fine when no query entry reaches it."""
    for rel, body in CG007_COMMON.items():
        _write(tmp_path, rel, body)
    _write(
        tmp_path,
        "repro/core/helpers.py",
        """
        def scan_all(u):
            total = 0
            while u > 0:
                total += u
                u -= 1
            return total
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG007")])
    assert findings == []


def test_cg007_suppressable_with_noqa(tmp_path):
    for rel, body in CG007_COMMON.items():
        _write(tmp_path, rel, body)
    _write(
        tmp_path,
        "repro/core/compressed.py",
        """
        from repro.runtime.context import query_scope

        class CompressedChronoGraph:
            def neighbors(self, u, ctx):
                with query_scope(ctx):
                    total = 0
                    while u > 0:  # repro: noqa[CG007]
                        total += u
                        u -= 1
                    return total
        """,
    )
    findings, _ = run_rules([str(tmp_path)])
    assert findings == []  # suppressed, and CG009 sees the directive used


# -- CG008 resource lifecycle ------------------------------------------------


def test_cg008_flags_leaked_handle(tmp_path):
    _write(
        tmp_path,
        "repro/storage/loader.py",
        """
        def load(path):
            f = open(path, "rb")
            data = f.read()
            return data
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG008")])
    assert len(findings) == 1
    assert "may never be released" in findings[0].message


def test_cg008_flags_risky_call_before_finally(tmp_path):
    _write(
        tmp_path,
        "repro/storage/loader.py",
        """
        def load(path, compute):
            f = open(path, "rb")
            head = compute(path)
            try:
                data = f.read()
            finally:
                f.close()
            return head, data
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG008")])
    assert len(findings) == 1
    assert "error path leaks the handle" in findings[0].message


def test_cg008_accepts_with_tryfinally_escape_daemon(tmp_path):
    _write(
        tmp_path,
        "repro/storage/good.py",
        """
        import threading

        def managed(path):
            with open(path, "rb") as f:
                return f.read()

        def guarded(path):
            f = open(path, "rb")
            try:
                return f.read()
            finally:
                f.close()

        class Holder:
            def adopt(self, path):
                self._f = open(path, "rb")

        def handed(path, sink):
            f = open(path, "rb")
            sink(f)

        def background(worker):
            t = threading.Thread(target=worker, daemon=True)
            t.start()
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG008")])
    assert findings == []


def test_cg008_flags_dropped_thread_handle(tmp_path):
    _write(
        tmp_path,
        "repro/runtime/spawner.py",
        """
        import threading

        def fire(worker):
            threading.Thread(target=worker).start()
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG008")])
    assert len(findings) == 1
    assert "join" in findings[0].message


def test_cg008_not_applied_to_tests_tree(tmp_path):
    _write(
        tmp_path,
        "tests/test_leaky.py",
        """
        def test_scratch(tmp_path):
            f = open(tmp_path / "x", "w")
            f.write("scratch")
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG008")])
    assert findings == []


def test_cg008_suppressable_with_noqa(tmp_path):
    _write(
        tmp_path,
        "repro/storage/loader.py",
        """
        def load(path):
            f = open(path, "rb")  # repro: noqa[CG008]
            data = f.read()
            return data
        """,
    )
    findings, _ = run_rules([str(tmp_path)])
    assert findings == []


# -- CG009 stale suppressions ------------------------------------------------


def test_cg009_flags_stale_bracketed_noqa(tmp_path):
    _write(
        tmp_path,
        "repro/clean.py",
        """
        def fine():
            return 1  # repro: noqa[CG003]
        """,
    )
    findings, _ = run_rules([str(tmp_path)])
    assert _rules_of(findings) == ["CG009"]
    assert "stale suppression" in findings[0].message


def test_cg009_flags_malformed_and_unknown(tmp_path):
    _write(
        tmp_path,
        "repro/broken.py",
        """
        def fine():
            a = 1  # repro: noqa[]
            b = 2  # repro: noqa[CG999]
            return a + b
        """,
    )
    findings, _ = run_rules([str(tmp_path)])
    assert _rules_of(findings) == ["CG009"]
    assert len(findings) == 2
    assert findings[0].line == 3
    assert findings[1].line == 4


def test_cg009_quiet_when_directive_is_used(tmp_path):
    _write(
        tmp_path,
        "repro/bits/used.py",
        """
        def decode(x):
            raise ValueError("known")  # repro: noqa[CG003]
        """,
    )
    findings, _ = run_rules([str(tmp_path)])
    assert findings == []


def test_cg009_bare_noqa_silent_under_partial_run(tmp_path):
    """A bare noqa cannot be proven stale when only some rules ran."""
    _write(
        tmp_path,
        "repro/partial.py",
        """
        def fine():
            return 1  # repro: noqa
        """,
    )
    findings, _ = run_rules(
        [str(tmp_path)], [get_rule("CG002"), get_rule("CG009")]
    )
    assert findings == []
    findings, _ = run_rules([str(tmp_path)])
    assert _rules_of(findings) == ["CG009"]


def test_cg009_cannot_be_suppressed(tmp_path):
    """A stale directive cannot hide the report of its own staleness."""
    _write(
        tmp_path,
        "repro/meta.py",
        """
        def fine():
            return 1  # repro: noqa[CG003,CG009]
        """,
    )
    findings, _ = run_rules([str(tmp_path)])
    assert _rules_of(findings) == ["CG009"]
