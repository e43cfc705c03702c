"""The ndlint engine: file discovery, allowlists, and the rule driver.

``LintEngine`` walks a set of paths, parses each ``*.py`` file once, runs
the per-module rules (ND001/ND002/ND005/ND011), then the project-wide
passes over those parses: ND004 over every metric registration
collected along the way, the interprocedural ND006/ND007/ND009 tier,
and — when the run covers the whole package — ND012 reachability and
the check that every ND011 sanction still covers a site.
Suppression happens in two layers:

* **module allowlists** (``LintConfig.rule_allow``) — whole files or
  directories where a rule does not apply by design, e.g. the
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
from .census import check_reachability
from .findings import Finding
from .interproc import (
    check_conservation,
    check_exception_accounting,
    check_fencing,
)
from .rules import (
    CONFINED,
    MetricRegistration,
    ModuleContext,
    check_accounting,
    check_confinement,
    check_determinism,
    check_metric_hygiene,
    check_retry_discipline,
    collect_metric_registrations,
    path_matches,
)

__all__ = ["LintConfig", "LintEngine", "default_config", "package_root"]

_MANIFEST_NAME = re.compile(r"^\| `(?P<name>[a-z][a-z0-9_]*)`")


@dataclass
class LintConfig:
    """Rule allowlists plus manifest wiring.

    ``rule_allow`` maps a rule ID to path patterns (see
    :func:`~repro.lint.rules.path_matches`).  ``manifest_path`` is the
    METRICS.md file ND004 checks against (``None`` disables the manifest
    check — fixture tests use that).
    """

    rule_allow: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    manifest_path: Optional[Path] = None

    def allows(self, rule: str, path: str) -> bool:
        return any(path_matches(pattern, path)
                   for pattern in self.rule_allow.get(rule, ()))


def package_root() -> Path:
    """The installed ``repro`` package directory (the default lint scope)."""
    return Path(__file__).resolve().parent.parent


def default_config() -> LintConfig:
    root = package_root()
    return LintConfig(
        rule_allow={
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
        #: (ND011 row, sanction) pairs that covered a site this run
        self._sanctions_used: Set[Tuple[int, str]] = set()

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
        self._sanctions_used = set()
        for file in files:
            findings.extend(self.lint_file(file))
        manifest_names: Optional[Set[str]] = None
        if self.config.manifest_path is not None:
            manifest_names = parse_manifest(self.config.manifest_path)
            if manifest_names is None:
                manifest_names = set()  # every family is then "missing"
        root = package_root()
        whole = any(path.resolve() == root or path.resolve() in root.parents
                    for path in paths)
        index = ProjectIndex(self._contexts)
        for rule_findings in (
            check_metric_hygiene(self.registrations, manifest_names),
            check_conservation(index),
            check_fencing(index),
            check_exception_accounting(index),
            check_reachability(self._contexts, root) if whole else [],
        ):
            findings.extend(f for f in rule_findings
                            if not self._suppressed(f))
        if whole:
            findings.extend(self._unused_sanctions(root))
        findings.extend(self._unused_markers(whole))
        return sorted(findings)

    def _unused_sanctions(self, root: Path) -> List[Finding]:
        """ND011 for each sanctioned site that no longer holds its
        construct: the table must not outlive the code it describes."""
        return [Finding(path=str(root / sanction.partition("::")[0]),
                        line=1, col=1, rule="ND011",
                        message=f"{row.what} is sanctioned at {sanction} "
                                "but no longer occurs there; drop the "
                                "sanction")
                for index, row in enumerate(CONFINED)
                for sanction in row.sanctioned
                if (index, sanction) not in self._sanctions_used]

    def _unused_markers(self, whole: bool) -> List[Finding]:
        """ND000 for justified markers whose rule never fired this run
        (ND012 markers only when the census ran)."""
        findings: List[Finding] = []
        for ctx in self._contexts:
            for marker in ctx.markers:
                for rule in marker.rules:
                    if rule == "ND012" and not whole:
                        continue
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
            check_confinement(ctx, self._sanctions_used),
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
