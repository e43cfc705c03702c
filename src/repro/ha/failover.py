"""Tuner high availability: warm standby, epoch election, failover.

The standby is kept current the only way the fabric allows — by
shipping tuner-scoped NDCP frames (:func:`pack_tuner_state`) over the
byte-accounted network at every FT-DMP run boundary.  Promotion is a
lease/epoch election: the new primary takes ``max(all known epochs)+1``,
imports the last shipped frame bit-exactly (model, optimizer moments,
RNG stream), adopts the cluster's store roster *without* resending
replicas (their models are already current), and stamps its epoch on
every subsequent update so stores fence the deposed primary if it ever
comes back (:class:`~repro.faults.errors.StaleEpochError`).
"""

from __future__ import annotations

from typing import Optional

from ..durability.checkpoint import (
    FinetuneProgress,
    pack_tuner_state,
    unpack_tuner_state,
)
from ..faults.errors import FaultError
from ..faults.retry import call_with_retry
from ..lint.contracts import fenced_by
from .metrics import HAMetrics

#: traffic kind of standby-refresh frames on the fabric
CHECKPOINT_KIND = "ha-checkpoint"


@fenced_by("_check_promotable", "primary", "standby")
class TunerFailoverManager:
    """Owns the primary/standby pair and the election that swaps them.

    The role pair is fenced state: any method that reassigns the roles
    or pushes training state into them must first pass
    :meth:`_check_promotable`, and ND007 proves the dominance on every
    path — an election can never run off a frame that never arrived or
    onto a standby that is itself down.
    """

    def __init__(self, cluster, standby, metrics: HAMetrics):
        self.cluster = cluster
        self.primary = cluster.tuner
        self.standby = standby
        self.metrics = metrics
        #: the last tuner frame the standby received; what a promotion
        #: restores from (run-boundary granularity, like ``repro resume``)
        self.last_frame: Optional[bytes] = None
        self.metrics.epoch.set(self.primary.epoch)

    def ship_checkpoint(self,
                        progress: Optional[FinetuneProgress] = None) -> int:
        """Send the primary's current training state to the standby.

        Called by ``NDPipeCluster.finetune`` after every completed run
        (with the pending :class:`FinetuneProgress`) and after the final
        distribution round (with ``None``).  Returns the frame size, or
        0 when the standby could not take the frame — a dead standby (or
        a wire every retry dropped) must not block the primary's
        training; the standby re-syncs from the next boundary that lands
        after it recovers, and promotion keeps the last frame that did.
        """
        if not self.standby.is_available:
            return 0
        blob = pack_tuner_state(self.primary.export_training_state(),
                                self.primary.epoch, progress)
        try:
            call_with_retry(
                lambda: self.cluster.network.send(
                    self.primary.name, self.standby.name, len(blob),
                    CHECKPOINT_KIND),
                self.cluster.retry)
        except FaultError:
            return 0
        # the frame is only adopted once the send was acknowledged: a
        # dropped transfer must not leave the standby ahead of the wire
        self.last_frame = blob
        self.metrics.checkpoints_shipped.inc()
        self.metrics.checkpoint_bytes.inc(len(blob))
        return len(blob)

    def can_promote(self) -> bool:
        return self.last_frame is not None and self.standby.is_available

    def _check_promotable(self) -> None:
        """The promotion fence: raises unless an election may proceed."""
        if self.last_frame is None:
            raise RuntimeError(
                "no checkpoint has reached the standby; nothing to promote")
        if not self.standby.is_available:
            raise RuntimeError(
                f"standby {self.standby.name} is itself down")

    def promote(self) -> Optional[FinetuneProgress]:
        """Elect the standby primary; returns any pending FT-DMP resume.

        The old primary is demoted to standby duty (it catches up from
        future shipped frames once it recovers) but keeps its stale
        epoch — every update it distributes before observing the new
        epoch is fenced by the stores.
        """
        self._check_promotable()
        state, frame_epoch, progress = unpack_tuner_state(self.last_frame)
        new_epoch = 1 + max(frame_epoch, self.primary.epoch,
                            self.standby.epoch)
        self.standby.import_training_state(state)
        self.standby.epoch = new_epoch
        self.standby.adopt_fleet(self.cluster.stores)
        old_primary = self.primary
        self.primary, self.standby = self.standby, old_primary
        self.cluster.adopt_tuner(self.primary)
        self.metrics.failovers.inc()
        self.metrics.epoch.set(new_epoch)
        return progress
