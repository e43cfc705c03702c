"""ndlint: invariant-enforcing static analysis.

``repro lint`` (see :mod:`repro.cli`) runs the AST rule catalogue
(:mod:`repro.lint.engine`) over the package and exits nonzero on any
finding.  The per-module rules — ND001 determinism, ND002 accounting,
ND004 metric hygiene, ND005 retry discipline, ND011 confined constructs
— check one file at a time; the project-wide rules
(:mod:`repro.lint.callgraph` + :mod:`repro.lint.interproc`,
:mod:`repro.lint.census`) prove ND006 conservation laws
(:func:`~repro.lint.contracts.conserves`), ND007 epoch-fence dominance
(:func:`~repro.lint.contracts.fenced_by`), ND009 exception-safe
accounting and ND012 reachability from an entry point.

ND003 (guarded-by) and ND008 (blocking-under-lock) are retired with the
locks they checked: nothing in the package takes a lock.  Their IDs are
not reused, and ND010 is reserved for a derived-state rule.

The package itself exports only the two contract decorators, so the
runtime modules that carry them never load the checker.
"""

from .contracts import conserves, fenced_by

__all__ = ["conserves", "fenced_by"]
