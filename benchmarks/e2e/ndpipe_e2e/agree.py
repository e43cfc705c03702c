"""Fresh-process orchestration: run every workload, repeat, and agree.

``peak_rss_mb`` and cold-start effects want one process per workload, so
anything beyond a single ``--workload`` run happens here by re-invoking
``run.py``.  ``--repeat N`` prints each end-to-end metric's median and
quartiles over N runs; ``--agree`` makes two such sets and fails (exit 1)
when a metric leaves its own bound between them: host-time metrics may
differ by their stated share, ``exact`` metrics must be identical in
every run of both sets.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import DETAIL_METRICS

__all__ = ["DETAIL_TAG", "run_sets", "verdict"]

#: prefix of the stdout line that carries a run's detail metrics
DETAIL_TAG = "E2E_DETAIL "
_SPECS = {spec.name: spec for spec in DETAIL_METRICS}


def _run_child(script: Path, name: str, options: List[str],
               echo: bool) -> Optional[dict]:
    command = [sys.executable]
    for option in sys.warnoptions:
        command += ["-W", option]
    command += [str(script), "--workload", name, *options]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(done.stdout)
    if done.returncode != 0:
        return None
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_TAG):
            return json.loads(line[len(DETAIL_TAG):])
    return None


def _summary(values: List[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.6g}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(name: str, first: List[float], second: List[float]) -> str:
    """``"ok"`` or why the two sets of one metric disagree."""
    spec = _SPECS[name]
    if spec.kind == "exact":
        distinct = sorted(set(first + second))
        return "ok" if len(distinct) == 1 else f"not exact: {distinct}"
    a, b = statistics.median(first), statistics.median(second)
    gap = abs(b - a) if spec.kind == "abs" else abs(b - a) / abs(a)
    if gap <= spec.bound:
        return "ok"
    return f"medians {a:.6g} vs {b:.6g} differ by {gap:.3g} > {spec.bound:g}"


def run_sets(script: Path, names: List[str], options: List[str],
             repeat: int, agree: bool) -> int:
    """Run ``names`` with ``options`` (run.py flags) in fresh processes."""
    sets = 2 if agree else 1
    single = repeat == 1 and not agree
    failures = 0
    for name in names:
        values: List[Dict[str, List[float]]] = [{} for _ in range(sets)]
        for bucket in values:
            for _ in range(repeat):
                detail = _run_child(script, name, options, echo=single)
                if detail is None:
                    print(f"{name}: run failed", file=sys.stderr)
                    return 1
                for metric, row in detail["detail"].items():
                    bucket.setdefault(metric, []).append(row["value"])
        if single:
            continue
        print(f"== {name}: {sets} set(s) of {repeat} run(s) with "
              f"{' '.join(options)}, median [q1, q3] ==")
        for metric in values[0]:
            line = f"  {metric:28} " + "  |  ".join(
                _summary(bucket[metric]) for bucket in values)
            if agree:
                outcome = verdict(metric, values[0][metric], values[1][metric])
                failures += outcome != "ok"
                line += f"  -> {outcome}"
            print(line)
    if agree:
        print("sets agree" if not failures
              else f"{failures} metric(s) left their bound between sets")
    return 1 if failures else 0
