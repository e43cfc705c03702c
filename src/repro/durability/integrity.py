"""Scrub reporting: what a CRC sweep over stored objects found, and
which ``preproc/`` blobs disagree with the ``raw/`` blob they derive from.

The detection itself lives in :class:`~repro.storage.objectstore.ObjectStore`
(write-time CRC32, verified reads); this module holds the report types a
:meth:`PipeStore.scrub` pass and a cluster-wide
:meth:`NDPipeCluster.scrub_and_repair` produce.  Scrubs read through the
unaccounted ``peek`` path, so a sweep never perturbs workload IO stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class ScrubReport:
    """One CRC sweep over one PipeStore's object store."""

    store_id: str
    objects_checked: int = 0
    #: keys whose bytes no longer match their write-time CRC32
    corrupt_keys: List[str] = field(default_factory=list)
    #: CRC-clean ``preproc/`` keys whose blob is not the one the store's
    #: CRC-clean ``raw/`` blob derives
    underived_keys: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt_keys and not self.underived_keys


@dataclass
class ClusterScrubReport:
    """One scrub-and-repair pass across the whole fleet."""

    #: per-store detection sweeps, in store order (down stores excluded)
    scrubs: List[ScrubReport] = field(default_factory=list)
    #: stores that were down and could not be scrubbed this pass
    stores_skipped: List[str] = field(default_factory=list)
    #: (store_id, key) objects rewritten from a healthy replica
    repaired: List[tuple] = field(default_factory=list)
    #: (store_id, key) objects restored after being lost outright
    restored: List[tuple] = field(default_factory=list)
    #: (store_id, key) ``preproc/`` objects re-derived from the store's
    #: own ``raw/`` blob (no donor, no fabric bytes)
    rederived: List[tuple] = field(default_factory=list)
    #: (store_id, key) objects with no healthy replica anywhere
    unrecoverable: List[tuple] = field(default_factory=list)

    @property
    def objects_checked(self) -> int:
        return sum(s.objects_checked for s in self.scrubs)

    @property
    def corrupt_found(self) -> int:
        return sum(len(s.corrupt_keys) + len(s.underived_keys)
                   for s in self.scrubs)

    @property
    def clean(self) -> bool:
        return (self.corrupt_found == 0 and not self.restored
                and not self.unrecoverable)
