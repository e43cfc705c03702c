"""The label database indexing photo labels for user queries (§3.1).

Every photo's label carries the version of the model that produced it, so
the *outdated label* experiments (Table 1) can count how many records a
newer model's offline inference corrects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class LabelRecord:
    """One label assignment: which label, by which model, where stored."""

    photo_id: str
    label: int
    model_version: int
    location: str  # which PipeStore holds the photo
    confidence: float = 1.0


class PhotoDatabase:
    """Photo-id -> current label record, with version history and an index."""

    def __init__(self):
        self._records: Dict[str, LabelRecord] = {}
        self._history: Dict[str, List[LabelRecord]] = {}
        self._label_index: Dict[int, set] = {}

    # -- writes -------------------------------------------------------------
    def upsert(self, record: LabelRecord) -> bool:
        """Insert or update; returns True if the label value changed."""
        previous = self._records.get(record.photo_id)
        if previous is not None:
            if record.model_version < previous.model_version:
                raise ValueError(
                    f"stale write for {record.photo_id}: model v{record.model_version}"
                    f" < current v{previous.model_version}"
                )
            self._label_index[previous.label].discard(record.photo_id)
        self._records[record.photo_id] = record
        self._history.setdefault(record.photo_id, []).append(record)
        self._label_index.setdefault(record.label, set()).add(record.photo_id)
        return previous is None or previous.label != record.label

    # -- reads ----------------------------------------------------------------
    def lookup(self, photo_id: str) -> LabelRecord:
        try:
            return self._records[photo_id]
        except KeyError:
            raise KeyError(f"photo {photo_id!r} not in database") from None

    def __contains__(self, photo_id: str) -> bool:
        return photo_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def search(self, label: int) -> List[str]:
        """Photo ids currently carrying ``label`` (the user query path)."""
        return sorted(self._label_index.get(label, ()))

    def history(self, photo_id: str) -> List[LabelRecord]:
        return list(self._history.get(photo_id, ()))

    # -- maintenance ------------------------------------------------------
    def outdated_ids(self, current_version: int) -> List[str]:
        """Photos whose label came from a model older than ``current_version``."""
        return sorted(
            pid for pid, rec in self._records.items()
            if rec.model_version < current_version
        )

    def ids_at(self, location: str) -> List[str]:
        return sorted(
            pid for pid, rec in self._records.items() if rec.location == location
        )

    # ndlint: allow[ND012] -- test oracle over private state
    def version_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for rec in self._records.values():
            counts[rec.model_version] = counts.get(rec.model_version, 0) + 1
        return counts

    def fraction_changed_since(self, baseline: Dict[str, int]) -> float:
        """Fraction of photos whose label differs from a baseline snapshot.

        This is Table 1's '% of labels fixed' metric.
        """
        if not baseline:
            raise ValueError("baseline snapshot is empty")
        changed = sum(
            1 for pid, old_label in baseline.items()
            if pid in self._records and self._records[pid].label != old_label
        )
        return changed / len(baseline)

    def snapshot_labels(self) -> Dict[str, int]:
        return {pid: rec.label for pid, rec in self._records.items()}
