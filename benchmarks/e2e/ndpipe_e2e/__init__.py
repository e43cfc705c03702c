"""Library behind ``benchmarks/e2e/run.py`` — see README.md beside it."""
