"""Perf regression gate: fresh harness results vs committed baselines.

The committed ``benchmarks/results/BENCH_*.json`` files are the perf
trajectory of record.  ``repro perf --check`` reruns the harness, then
this module compares every metric against its baseline according to
the per-result ``direction`` recorded in the schema:

* ``higher_is_better`` — fail if ``new < old * (1 - tolerance)``;
* ``lower_is_better``  — fail if ``new > old * (1 + tolerance)``;
* ``exact``            — fail on any difference (used for byte counts
  and work counters, which are deterministic for a given seed+scale);
* no direction         — informational: presence is checked, value is
  never failed on.

A metric present in the baseline but missing from the fresh run fails
(the harness lost coverage); a metric present only in the fresh run
fails too (the baseline is stale — rerun ``repro perf --bless``).
Config mismatches — different scale, seed, or scenario parameters —
raise :class:`GateError` instead of producing findings, because
comparing runs of different sizes would be meaningless, not merely a
regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs.benchjson import DIRECTIONS, load_bench_payload

__all__ = ["GateError", "GateFinding", "compare_payloads",
           "gate_directories", "render_findings"]

DEFAULT_TOLERANCE = 0.15


class GateError(RuntimeError):
    """The comparison itself is invalid (not a perf regression)."""


@dataclass(frozen=True)
class GateFinding:
    """One metric's verdict against its baseline."""

    bench: str
    metric: str
    labels: Tuple[Tuple[str, str], ...]
    direction: Optional[str]
    baseline: Optional[float]
    current: Optional[float]
    #: ok | regression | mismatch | missing | unexpected
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def label_text(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.labels) or "-"


def _index(payload: Dict) -> Dict[Tuple, Dict]:
    out = {}
    for entry in payload["results"]:
        key = (entry["metric"],
               tuple(sorted(entry.get("labels", {}).items())))
        if key in out:
            raise GateError(
                f"{payload['bench']}: duplicate metric {key[0]!r} "
                f"with labels {dict(key[1])}"
            )
        out[key] = entry
    return out


def _compare_entry(bench: str, key: Tuple, old: Dict, new: Dict,
                   tolerance: float) -> GateFinding:
    metric, labels = key
    direction = old.get("direction")
    if direction not in (None,) + DIRECTIONS:
        raise GateError(f"{bench}: baseline {metric} has unknown "
                        f"direction {direction!r}")
    if new.get("direction") != direction:
        raise GateError(
            f"{bench}: {metric} changed direction "
            f"({direction!r} -> {new.get('direction')!r}); re-bless the "
            "baseline if this is intentional"
        )
    old_v, new_v = old["value"], new["value"]
    common = dict(bench=bench, metric=metric, labels=labels,
                  direction=direction, baseline=old_v, current=new_v)
    if direction == "exact":
        if old_v != new_v:
            return GateFinding(status="mismatch",
                               detail=f"expected exactly {old_v}", **common)
    elif direction == "higher_is_better":
        if new_v < old_v * (1.0 - tolerance):
            return GateFinding(
                status="regression",
                detail=f"dropped {_pct(old_v, new_v)} (tolerance "
                       f"{tolerance:.0%})", **common)
    elif direction == "lower_is_better":
        if new_v > old_v * (1.0 + tolerance):
            return GateFinding(
                status="regression",
                detail=f"rose {_pct(old_v, new_v)} (tolerance "
                       f"{tolerance:.0%})", **common)
    return GateFinding(status="ok", **common)


def _pct(old: float, new: float) -> str:
    if old == 0:
        return f"from 0 to {new:g}"
    return f"{abs(new - old) / abs(old):.1%}"


def compare_payloads(baseline: Dict, current: Dict,
                     tolerance: float = DEFAULT_TOLERANCE,
                     ) -> List[GateFinding]:
    """Compare one fresh payload against its committed baseline."""
    if baseline["bench"] != current["bench"]:
        raise GateError(f"bench name mismatch: baseline "
                        f"{baseline['bench']!r} vs {current['bench']!r}")
    bench = baseline["bench"]
    if baseline.get("config") != current.get("config"):
        raise GateError(
            f"{bench}: config mismatch (baseline "
            f"{baseline.get('config')} vs current {current.get('config')}); "
            "runs at different scales/seeds are not comparable — rerun at "
            "the baseline scale or re-bless"
        )
    old_idx, new_idx = _index(baseline), _index(current)
    findings = []
    for key, old in old_idx.items():
        if key not in new_idx:
            findings.append(GateFinding(
                bench=bench, metric=key[0], labels=key[1],
                direction=old.get("direction"), baseline=old["value"],
                current=None, status="missing",
                detail="metric vanished from the fresh run"))
            continue
        findings.append(_compare_entry(bench, key, old, new_idx[key],
                                       tolerance))
    for key, new in new_idx.items():
        if key not in old_idx:
            findings.append(GateFinding(
                bench=bench, metric=key[0], labels=key[1],
                direction=new.get("direction"), baseline=None,
                current=new["value"], status="unexpected",
                detail="not in the baseline — rerun 'repro perf --bless'"))
    return findings


def gate_directories(baseline_dir: Union[str, Path],
                     payloads: Dict[str, Dict],
                     tolerance: float = DEFAULT_TOLERANCE,
                     ) -> List[GateFinding]:
    """Gate each fresh payload, by bench name, against its baseline
    file ``<baseline_dir>/<bench>.json``."""
    findings: List[GateFinding] = []
    for bench, payload in sorted(payloads.items()):
        baseline_path = Path(baseline_dir) / f"{bench}.json"
        if not baseline_path.exists():
            raise GateError(
                f"no committed baseline {baseline_path} — record one with "
                "'repro perf --bless'"
            )
        findings += compare_payloads(load_bench_payload(baseline_path),
                                     payload, tolerance)
    return findings


def render_findings(findings: Sequence[GateFinding]) -> str:
    """Human-readable gate report (one row per metric)."""
    from ..analysis.tables import format_table

    bad = [f for f in findings if not f.ok]
    rows = [
        [f.bench, f.metric, f.label_text, f.direction or "info",
         "-" if f.baseline is None else f"{f.baseline:g}",
         "-" if f.current is None else f"{f.current:g}",
         f.status + (f" ({f.detail})" if f.detail else "")]
        for f in findings if not f.ok
    ] or [["-", "-", "-", "-", "-", "-", "all within tolerance"]]
    title = (f"perf gate: {len(findings) - len(bad)}/{len(findings)} "
             f"metrics ok, {len(bad)} failing")
    return format_table(
        ["bench", "metric", "labels", "direction", "baseline", "current",
         "verdict"],
        rows, title=title,
    )
