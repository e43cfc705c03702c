"""ndlint: invariant-enforcing static analysis.

``repro lint`` (see :mod:`repro.cli`) runs the AST rule catalogue over
the package and exits nonzero on unbaselined findings.  The
intraprocedural tier — ND001 determinism, ND002 accounting, ND004 metric
hygiene, ND005 retry discipline — checks one file at a time; the
interprocedural tier (:mod:`repro.lint.callgraph` +
:mod:`repro.lint.interproc`) builds a project-wide symbol table to prove
ND006 conservation laws (:func:`~repro.lint.contracts.conserves`), ND007
epoch-fence dominance (:func:`~repro.lint.contracts.fenced_by`) and
ND009 exception-safe accounting.  :mod:`repro.lint.baseline` gives the
ruff-style ``--baseline``/``--update-baseline`` adoption workflow.

ND003 (guarded-by) and ND008 (blocking-under-lock) are retired with the
locks they checked: nothing in the package takes a lock.  Their IDs are
not reused.
"""

from .allowlist import Marker, parse_markers
from .baseline import diff_baseline, fingerprint, load_baseline, \
    render_baseline
from .contracts import conserves, fenced_by
from .engine import LintConfig, LintEngine, default_config, package_root
from .findings import Finding, render_json, render_text

__all__ = [
    "Finding",
    "LintConfig",
    "LintEngine",
    "Marker",
    "conserves",
    "default_config",
    "diff_baseline",
    "fenced_by",
    "fingerprint",
    "load_baseline",
    "package_root",
    "parse_markers",
    "render_baseline",
    "render_json",
    "render_text",
]
