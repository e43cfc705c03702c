"""Inline allow markers for ``repro lint``.

A finding can be suppressed at its source line with a justified marker:

* ``# ndlint: allow[ND002] -- replication-repair donor path is maintenance``
* ``# ndlint: allow[ND001,ND005] -- reason covering both rules``
* ``# ndlint: fire-and-forget -- best-effort hint, loss is acceptable``
  (shorthand for ``allow[ND005]`` at intentional one-shot fabric sends)

The justification after ``--`` is mandatory: a bare marker still
suppresses nothing for free — it raises an ``ND000`` finding so the gate
stays red until someone writes down *why* the invariant does not apply.
A marker on a comment-only line covers the next source line, so long
statements can carry their justification above themselves.

Markers are recognised from real comment **tokens** only: a marker-shaped
string inside a docstring or multiline literal (say, documentation that
quotes the syntax) suppresses nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .findings import Finding

__all__ = ["Marker", "parse_markers"]

_MARKER = re.compile(
    r"#\s*ndlint:\s*(?:allow\[(?P<rules>[A-Z0-9,\s]+)\]|"
    r"(?P<faf>fire-and-forget))"
    r"\s*(?:--\s*(?P<why>.*\S))?"
)


def _comment_tokens(source: str) -> Iterator[Tuple[int, int, str, str]]:
    """(line, col, comment text, physical line) for each real comment.

    Tokenizing keeps marker-lookalikes inside string literals inert; on
    a tokenization error (lint also runs over deliberately broken
    fixtures) the scan degrades to trusting every line.
    """
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.start[1], tok.string, tok.line
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, text in enumerate(source.splitlines(), start=1):
            hash_at = text.find("#")
            if hash_at >= 0:
                yield lineno, hash_at, text[hash_at:], text


@dataclass(frozen=True)
class Marker:
    """One justified inline marker plus the source lines it covers."""

    line: int
    col: int
    rules: Tuple[str, ...]
    covered: Tuple[int, ...]


def parse_markers(path: str, source: str,
                  ) -> Tuple[List[Marker], List[Finding]]:
    """Justified markers in ``source`` plus ND000s for bare ones.

    Lines are 1-based.  A marker trailing a statement covers that line; a
    marker on its own line covers the following line as well.
    """
    markers: List[Marker] = []
    findings: List[Finding] = []
    for lineno, col, comment, line_text in _comment_tokens(source):
        match = _MARKER.search(comment)
        if match is None:
            continue
        if match.group("faf"):
            rules = {"ND005"}
        else:
            rules = {r.strip() for r in match.group("rules").split(",")
                     if r.strip()}
        if not match.group("why"):
            findings.append(Finding(
                path=path, line=lineno, col=col + match.start() + 1,
                rule="ND000",
                message="allow marker needs a justification: "
                        "# ndlint: ... -- <why this is safe>",
            ))
            continue
        covered = (lineno,)
        if line_text[:col].strip() == "":
            # comment-only line: the marker covers the next statement line
            covered = (lineno, lineno + 1)
        markers.append(Marker(line=lineno, col=col + 1,
                              rules=tuple(sorted(rules)), covered=covered))
    return markers, findings
