"""Rule framework of the repro static-analysis engine.

The engine enforces project invariants that generic linters cannot see:
lock hygiene on the concurrent query plane (CG002), the
:mod:`repro.errors` exception taxonomy (CG003), atomic artifact writes
(CG004), decode-budget pre-charging (CG005), the zero-copy buffer
discipline of the decode plane (CG006), checkpoint coverage of query loops
(CG007), resource-handle lifecycles (CG008) and suppression hygiene
(CG009).  Each rule is an AST visitor registered with :func:`register`; the
driver parses every file once and hands the tree to all selected rules.

Analysis runs in two phases.  The *file phase* calls ``Rule.check`` per
parsed file, exactly as before.  The *project phase* then calls
``Rule.finish`` once with a :class:`Project` -- the full set of parsed
sources plus a lazily built cross-module call graph
(:mod:`repro.analysis.callgraph`) -- which is how the interprocedural rules
(CG002 lock discipline, CG007 checkpoint coverage) see through module
boundaries, and how CG009 audits the suppression inventory.

Findings can be silenced per line with a trailing suppression comment of
the form ``repro: noqa[CG003]`` (or with no bracket at all, which silences
every rule) or accepted wholesale via the committed baseline file (see
:mod:`repro.analysis.baseline`).  Suppression comments are read from real
comment tokens only -- a directive spelled inside a string literal is
inert.  A malformed directive (empty or unparseable rule list) suppresses
nothing and is itself reported by CG009.  The project policy is to fix
findings, not baseline them: the committed baseline is empty.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.callgraph import CallGraph

__all__ = [
    "Finding",
    "NoqaDirective",
    "Project",
    "Rule",
    "SourceFile",
    "register",
    "all_rules",
    "get_rule",
    "run_rules",
    "collect_files",
    "parse_noqa",
    "scan_noqa",
]

#: A suppression directive: ``repro: noqa`` (all rules) or with a bracketed
#: rule list such as ``repro: noqa[CG002, CG005]``.  The bracket contents
#: are captured wholesale and validated separately so malformed lists
#: (``noqa[]``, ``noqa[bogus]``) can be *reported* instead of silently
#: widening or narrowing the suppression.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(\[([^\]]*)\])?")

#: One rule id inside a bracketed suppression list.
_RULE_TOKEN_RE = re.compile(r"\A[A-Z]+[0-9]+\Z")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """ruff/gcc-style one-line rendering: path:line:col: RULE message."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


@dataclass(frozen=True)
class NoqaDirective:
    """One parsed suppression comment.

    ``rules`` is ``None`` for a bare directive (suppress everything) and a
    frozenset of rule ids for a bracketed one.  ``malformed`` carries the
    reason when the directive could not be parsed -- such a directive
    suppresses *nothing* and is surfaced by CG009.
    """

    line: int
    rules: Optional[frozenset] = None
    malformed: Optional[str] = None

    def suppresses(self, rule_id: str) -> bool:
        """Whether this directive silences ``rule_id`` findings."""
        if self.malformed is not None:
            return False
        return self.rules is None or rule_id in self.rules


@dataclass
class SourceFile:
    """A parsed source file shared by every rule in one driver pass."""

    path: Path
    text: str
    tree: ast.Module
    #: repo-relative (or as-given) path used in findings and baselines.
    display_path: str
    #: line number -> frozenset of suppressed rule ids; empty set = all rules.
    noqa: Dict[int, frozenset] = field(default_factory=dict)
    #: line number -> full directive, including malformed ones.
    directives: Dict[int, NoqaDirective] = field(default_factory=dict)

    @property
    def parts(self) -> Tuple[str, ...]:
        """Path components, used by rules to scope themselves."""
        return Path(self.display_path).parts


class Project:
    """Everything the project phase sees: all sources plus shared indexes.

    Built once per :func:`run_rules` invocation.  ``used_noqa`` records, per
    display path, the directive lines that actually silenced at least one
    finding during either phase -- the raw material of CG009's staleness
    audit.  The cross-module call graph is built lazily on first access so
    runs that select only file-phase rules never pay for it.
    """

    def __init__(
        self, sources: Sequence[SourceFile], active_rule_ids: Iterable[str]
    ) -> None:
        self.sources: List[SourceFile] = list(sources)
        self.active_rule_ids = frozenset(active_rule_ids)
        self.used_noqa: Dict[str, Set[int]] = {}
        self._by_path: Dict[str, SourceFile] = {
            s.display_path: s for s in self.sources
        }
        self._callgraph: Optional["CallGraph"] = None

    @property
    def all_rules_active(self) -> bool:
        """Whether this run selected the complete registered rule set."""
        return self.active_rule_ids == frozenset(r.id for r in all_rules())

    def source_for(self, display_path: str) -> Optional[SourceFile]:
        """The parsed source a finding's path refers to, if in this run."""
        return self._by_path.get(display_path)

    def note_suppression(self, display_path: str, line: int) -> None:
        """Record that the directive on ``line`` silenced a finding."""
        self.used_noqa.setdefault(display_path, set()).add(line)

    @property
    def callgraph(self) -> "CallGraph":
        """The cross-module call graph, built on first use and cached."""
        if self._callgraph is None:
            from repro.analysis.callgraph import CallGraph

            self._callgraph = CallGraph(self.sources)
        return self._callgraph


class Rule:
    """Base class for one named check.

    Subclasses set ``id`` (``CGnnn``), ``name`` and ``summary`` and
    implement :meth:`check`, returning findings for one parsed file.
    ``applies`` may narrow the rule to a path subset; the driver consults
    it before calling :meth:`check`.  Whole-program rules override
    :meth:`finish`, which runs once after every file has been checked and
    may anchor findings in any of the project's files.
    """

    id: str = ""
    name: str = ""
    summary: str = ""

    def applies(self, source: SourceFile) -> bool:
        """Whether this rule runs on ``source`` (override to path-scope)."""
        return True

    def check(self, source: SourceFile) -> List[Finding]:
        """Return this rule's per-file findings (default: none)."""
        return []

    def finish(self, project: Project) -> List[Finding]:
        """Return this rule's whole-program findings (default: none)."""
        return []

    def finding(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``'s location."""
        return Finding(
            rule=self.id,
            path=source.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise RuntimeError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise RuntimeError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Registered rules in id order (imports rule modules on first use)."""
    _load_builtin_rules()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Optional[Rule]:
    """The registered rule with id ``rule_id``, or None."""
    _load_builtin_rules()
    return _REGISTRY.get(rule_id)


_loaded = False


def _load_builtin_rules() -> None:
    global _loaded
    if _loaded:
        return
    _loaded = True
    # Imported for their @register side effects.
    from repro.analysis import (  # noqa: F401
        rules_budget,
        rules_concurrency,
        rules_copies,
        rules_coverage,
        rules_lifecycle,
        rules_storage,
        rules_suppression,
        rules_taxonomy,
    )


def _parse_directive(line: int, bracket: Optional[str]) -> NoqaDirective:
    """Classify one matched suppression comment."""
    if bracket is None:
        return NoqaDirective(line=line)
    tokens = [part.strip() for part in bracket.split(",")]
    tokens = [t for t in tokens if t]
    if not tokens:
        return NoqaDirective(
            line=line,
            malformed="empty rule list (write `repro: noqa[CG002]` or drop "
            "the brackets to silence every rule)",
        )
    bad = [t for t in tokens if not _RULE_TOKEN_RE.match(t)]
    if bad:
        return NoqaDirective(
            line=line,
            malformed=f"unparseable rule id(s) {', '.join(sorted(bad))}",
        )
    return NoqaDirective(line=line, rules=frozenset(tokens))


def scan_noqa(text: str) -> Dict[int, NoqaDirective]:
    """Per-line suppression directives, read from real comment tokens.

    Tokenizing (rather than regexing every raw line) keeps directives
    spelled inside string literals -- docstrings quoting the syntax, test
    fixtures embedding analyzable code -- from registering as live
    suppressions.  Files the tokenizer cannot handle fall back to the raw
    line scan, which can only over-approximate (extra suppressions, never
    lost ones).
    """
    out: Dict[int, NoqaDirective] = {}
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(text).readline)
        )
    except (tokenize.TokenizeError, SyntaxError, ValueError):
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = _NOQA_RE.search(line)
            if m:
                out[lineno] = _parse_directive(lineno, m.group(2))
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _NOQA_RE.search(tok.string)
        if m:
            lineno = tok.start[0]
            out[lineno] = _parse_directive(lineno, m.group(2))
    return out


def parse_noqa(text: str) -> Dict[int, frozenset]:
    """Per-line suppressions: ``{lineno: frozenset(rule_ids)}``.

    An empty frozenset means "suppress every rule on this line".
    Malformed directives suppress nothing and are omitted here; they stay
    visible through :func:`scan_noqa` for CG009.
    """
    out: Dict[int, frozenset] = {}
    for lineno, directive in scan_noqa(text).items():
        if directive.malformed is not None:
            continue
        out[lineno] = (
            frozenset() if directive.rules is None else directive.rules
        )
    return out


def _suppressed(finding: Finding, noqa: Dict[int, frozenset]) -> bool:
    ids = noqa.get(finding.line)
    if ids is None:
        return False
    return not ids or finding.rule in ids


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files and directories to a sorted list of ``.py`` files."""
    seen = set()
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for f in candidates:
            if "__pycache__" in f.parts:
                continue
            key = str(f)
            if key not in seen:
                seen.add(key)
                out.append(f)
    return out


def load_sources(
    paths: Sequence[str],
) -> Tuple[List[SourceFile], List[str]]:
    """Parse every ``.py`` file under ``paths`` into :class:`SourceFile`\\ s.

    Returns ``(sources, errors)`` where ``errors`` are unreadable or
    syntactically invalid files (reported, then skipped).
    """
    sources: List[SourceFile] = []
    errors: List[str] = []
    for path in collect_files(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            errors.append(f"{path}: unreadable: {exc}")
            continue
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            errors.append(f"{path}:{exc.lineno}: syntax error: {exc.msg}")
            continue
        directives = scan_noqa(text)
        noqa = {
            line: (
                frozenset() if d.rules is None else d.rules
            )
            for line, d in directives.items()
            if d.malformed is None
        }
        sources.append(
            SourceFile(
                path=path,
                text=text,
                tree=tree,
                display_path=str(path),
                noqa=noqa,
                directives=directives,
            )
        )
    return sources, errors


def run_rules(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    on_file: Optional[Callable[[SourceFile], None]] = None,
) -> Tuple[List[Finding], List[str]]:
    """Run ``rules`` (default: all) over ``paths``.

    Returns ``(findings, errors)`` where ``errors`` are unreadable or
    syntactically invalid files.  noqa suppressions are already applied --
    and their use recorded for CG009 -- in both the per-file and the
    project phase; baseline filtering is the caller's job.  Findings are
    sorted by ``(path, line, rule, col)`` so output is deterministic
    across runs and platforms.
    """
    active = list(rules) if rules is not None else all_rules()
    sources, errors = load_sources(paths)
    project = Project(sources, (r.id for r in active))
    findings: List[Finding] = []

    def admit(finding: Finding, source: Optional[SourceFile]) -> None:
        # CG009 findings are anchored on the directive's own line; letting
        # that directive suppress them would let a stale suppression hide
        # the report of its own staleness.
        if (
            finding.rule != "CG009"
            and source is not None
            and _suppressed(finding, source.noqa)
        ):
            project.note_suppression(source.display_path, finding.line)
            return
        findings.append(finding)

    for source in sources:
        if on_file is not None:
            on_file(source)
        for rule in active:
            if not rule.applies(source):
                continue
            for finding in rule.check(source):
                admit(finding, source)
    # Project phase in id order so CG009's staleness audit runs after the
    # other whole-program rules have recorded their suppression use.
    for rule in sorted(active, key=lambda r: r.id):
        for finding in rule.finish(project):
            admit(finding, project.source_for(finding.path))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return findings, errors
