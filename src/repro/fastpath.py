"""Stub: the hot-path flags are gone; each path has one implementation.

Kept only because the frozen ``benchmarks/e2e/run.py`` records the
``flags`` namespace in its result header; the benchmark-unification PR
(ROADMAP item 1(b)) deletes that line and this file together.
"""

from types import SimpleNamespace


def flags() -> SimpleNamespace:
    return SimpleNamespace()
