"""ndlint: invariant-enforcing static analysis + runtime sanitizer.

Two halves, one convention:

* ``repro lint`` (see :mod:`repro.cli`) runs the AST rule catalogue over
  the package and exits nonzero on unbaselined findings.  The
  intraprocedural tier — ND001 determinism, ND002 accounting, ND003
  guarded-by, ND004 metric hygiene, ND005 retry discipline — checks one
  file at a time; the interprocedural tier (:mod:`repro.lint.callgraph`
  + :mod:`repro.lint.interproc`) builds a project-wide symbol table and
  call graph to prove ND006 conservation laws
  (:func:`~repro.lint.contracts.conserves`), ND007 epoch-fence dominance
  (:func:`~repro.lint.contracts.fenced_by`), ND008 blocking-under-lock
  reachability, and ND009 exception-safe accounting.
  :mod:`repro.lint.baseline` gives the ruff-style
  ``--baseline``/``--update-baseline`` adoption workflow; and
* the :data:`SANITIZER` checks at runtime what the AST cannot: lock
  acquisition-order cycles (annotated with vector-clock happens-before
  verdicts), cross-thread writes to :func:`guarded_by`-declared state,
  and — cross-validating ND008 under the nemesis harness — fabric sends
  issued while a tracked lock is held.
"""

from .allowlist import Marker, parse_allows, parse_markers
from .baseline import diff_baseline, fingerprint, load_baseline, \
    render_baseline
from .contracts import conserves, fenced_by
from .engine import LintConfig, LintEngine, default_config, package_root
from .findings import Finding, render_json, render_text
from .guards import guard_map, guarded_by
from .sanitizer import (
    SANITIZER,
    ConcurrencySanitizer,
    SanitizerError,
    TrackedLock,
    VectorClock,
    Violation,
    sanitized,
)

__all__ = [
    "ConcurrencySanitizer",
    "Finding",
    "LintConfig",
    "LintEngine",
    "Marker",
    "SANITIZER",
    "SanitizerError",
    "TrackedLock",
    "VectorClock",
    "Violation",
    "conserves",
    "default_config",
    "diff_baseline",
    "fenced_by",
    "fingerprint",
    "guard_map",
    "guarded_by",
    "load_baseline",
    "package_root",
    "parse_allows",
    "parse_markers",
    "render_baseline",
    "render_json",
    "render_text",
    "sanitized",
]
