"""The ndlint engine: file discovery, allowlists, and the rule driver.

``LintEngine`` walks a set of paths, parses each ``*.py`` file once, runs
the per-module rules (ND001/ND002/ND005), then the cross-module
metrics pass (ND004) over every registration collected along the way.
Suppression happens in two layers:

* **module allowlists** (``LintConfig.rule_allow``) — whole files or
  directories where a rule does not apply by design, e.g. the obs
  tracing module *is* the sanctioned wall-clock seam (ND001) and the
  durability package *is* maintenance traffic (ND002);
* **inline markers** — ``# ndlint: allow[ND00x] -- justification`` at
  individual sites (see :mod:`repro.lint.allowlist`).

The engine also owns the ``obs/METRICS.md`` manifest: ND004 requires
every metric family to be listed there, and :meth:`LintEngine.render_manifest`
regenerates it deterministically from the registrations it collected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import ProjectIndex
from .findings import Finding
from .interproc import (
    check_conservation,
    check_exception_accounting,
    check_fencing,
)
from .rules import (
    MetricRegistration,
    ModuleContext,
    check_accounting,
    check_determinism,
    check_metric_hygiene,
    check_retry_discipline,
    collect_metric_registrations,
)

__all__ = ["LintConfig", "LintEngine", "default_config", "package_root"]

_MANIFEST_NAME = re.compile(r"^\| `(?P<name>[a-z][a-z0-9_]*)`")


@dataclass
class LintConfig:
    """Rule allowlists plus manifest wiring.

    ``rule_allow`` maps a rule ID to path patterns: a pattern ending in
    ``/`` matches any file under that directory, anything else matches
    by path suffix.  ``manifest_path`` is the METRICS.md file ND004
    checks against (``None`` disables the manifest check — fixture tests
    use that); ``manifest_scope`` restricts the membership check to
    paths containing the substring, so linting fixture trees does not
    demand their metrics appear in the package manifest.
    """

    rule_allow: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    manifest_path: Optional[Path] = None
    manifest_scope: Optional[str] = "repro/"
    #: run the interprocedural ND006/ND007/ND009 tier
    interprocedural: bool = True
    #: emit ND000 for justified markers whose rule never fires
    flag_unused_markers: bool = True

    def allows(self, rule: str, path: str) -> bool:
        posix = Path(path).as_posix()
        for pattern in self.rule_allow.get(rule, ()):
            if pattern.endswith("/"):
                if f"/{pattern}" in f"/{posix}" or posix.startswith(pattern):
                    return True
            elif posix.endswith(pattern):
                return True
        return False


def package_root() -> Path:
    """The installed ``repro`` package directory (the default lint scope)."""
    return Path(__file__).resolve().parent.parent


def default_config() -> LintConfig:
    root = package_root()
    return LintConfig(
        rule_allow={
            # the tracing module is the one sanctioned wall-clock seam
            "ND001": ("repro/obs/tracing.py",),
            # maintenance modules: durability (scrub/replication/
            # checkpoint), snapshot persistence, the store that defines
            # the API, and fault injection (which corrupts *below* the
            # workload on purpose)
            "ND002": (
                "repro/durability/",
                "repro/storage/persistence.py",
                "repro/storage/objectstore.py",
                "repro/faults/injector.py",
            ),
        },
        manifest_path=root / "obs" / "METRICS.md",
    )


def parse_manifest(path: Path) -> Optional[Set[str]]:
    """Family names listed in METRICS.md, or None if the file is absent."""
    if not path.is_file():
        return None
    names: Set[str] = set()
    for line in path.read_text().splitlines():
        match = _MANIFEST_NAME.match(line.strip())
        if match:
            names.add(match.group("name"))
    return names


class LintEngine:
    """Runs the rule catalogue over a file set."""

    def __init__(self, config: Optional[LintConfig] = None):
        self.config = config if config is not None else default_config()
        #: every registration seen by the last :meth:`run`
        self.registrations: List[MetricRegistration] = []
        self._inline_allows: Dict[str, Dict[int, Set[str]]] = {}
        self._contexts: List[ModuleContext] = []
        #: (path, line, rule) inline suppressions that actually fired
        self._marker_hits: Set[Tuple[str, int, str]] = set()

    # -- discovery ----------------------------------------------------------
    @staticmethod
    def discover(paths: Sequence[Path]) -> List[Path]:
        files: List[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.suffix == ".py":
                files.append(path)
        return files

    # -- the driver ---------------------------------------------------------
    def run(self, paths: Sequence[Path]) -> List[Finding]:
        files = self.discover(paths)
        findings: List[Finding] = []
        self.registrations = []
        self._contexts = []
        self._marker_hits = set()
        for file in files:
            findings.extend(self.lint_file(file))
        manifest_names: Optional[Set[str]] = None
        if self.config.manifest_path is not None:
            manifest_names = parse_manifest(self.config.manifest_path)
            if manifest_names is None:
                manifest_names = set()  # every family is then "missing"
        for finding in check_metric_hygiene(
                self.registrations, manifest_names=manifest_names,
                manifest_scope=self.config.manifest_scope):
            if not self._suppressed(finding):
                findings.append(finding)
        if self.config.interprocedural and self._contexts:
            findings.extend(self._run_interprocedural())
        if self.config.flag_unused_markers:
            findings.extend(self._unused_markers())
        return sorted(findings)

    def _run_interprocedural(self) -> List[Finding]:
        """The ND006/ND007/ND009 tier over every module of this run."""
        index = ProjectIndex(self._contexts)
        findings: List[Finding] = []
        for rule_findings in (
            check_conservation(index),
            check_fencing(index),
            check_exception_accounting(index),
        ):
            for finding in rule_findings:
                if not self._suppressed(finding):
                    findings.append(finding)
        return findings

    def _unused_markers(self) -> List[Finding]:
        """ND000 for justified markers whose rule never fired this run."""
        findings: List[Finding] = []
        for ctx in self._contexts:
            for marker in ctx.markers:
                for rule in marker.rules:
                    if any((ctx.path, line, rule) in self._marker_hits
                           for line in marker.covered):
                        continue
                    findings.append(Finding(
                        path=ctx.path, line=marker.line, col=marker.col,
                        rule="ND000",
                        message=f"allow marker for {rule} never fired; "
                                "delete the marker or fix the rule id so "
                                "suppressions cannot rot"))
        return findings

    def _suppressed(self, finding: Finding) -> bool:
        if self.config.allows(finding.rule, finding.path):
            return True
        allows = self._inline_allows.get(finding.path, {})
        if finding.rule in allows.get(finding.line, ()):
            self._marker_hits.add((finding.path, finding.line,
                                   finding.rule))
            return True
        return False

    def lint_file(self, file: Path) -> List[Finding]:
        """Per-module rules for one file; ND004 data is collected aside."""
        try:
            ctx = ModuleContext.parse(str(file), file.read_text())
        except SyntaxError as exc:
            return [Finding(path=str(file), line=exc.lineno or 1, col=1,
                            rule="ND000",
                            message=f"file does not parse: {exc.msg}")]
        self._inline_allows[str(file)] = ctx.allows
        self._contexts.append(ctx)
        findings = list(ctx.allow_findings)  # ND000s are never suppressed
        for rule_findings in (
            check_determinism(ctx),
            check_accounting(ctx),
            check_retry_discipline(ctx),
        ):
            for finding in rule_findings:
                if not self._suppressed(finding):
                    findings.append(finding)
        self.registrations.extend(collect_metric_registrations(ctx))
        return findings

    # -- the METRICS.md manifest -------------------------------------------
    def render_manifest(self) -> str:
        """METRICS.md content from the last run's registrations."""
        rows: List[Tuple[str, MetricRegistration]] = sorted(
            {reg.name: reg for reg in self.registrations
             if reg.name is not None}.items()
        )
        lines = [
            "# Metric family manifest",
            "",
            "Generated by `repro lint --update-manifest` — do not edit by",
            "hand.  ND004 requires every `MetricsRegistry` family to be",
            "registered at exactly one site and listed here; a missing row",
            "fails the lint gate until the manifest is regenerated.",
            "",
            "| family | type | labels | help |",
            "|---|---|---|---|",
        ]
        for name, reg in rows:
            labels = ", ".join(reg.labels) if reg.labels else "-"
            lines.append(f"| `{name}` | {reg.kind} | {labels} | {reg.help} |")
        lines.append("")
        lines.append(f"{len(rows)} families.")
        lines.append("")
        return "\n".join(lines)

    def write_manifest(self, path: Optional[Path] = None) -> Path:
        target = path if path is not None else self.config.manifest_path
        if target is None:
            raise ValueError("no manifest path configured")
        target.write_text(self.render_manifest())
        return target
