"""HAController — wires detector, standby, and eviction/rejoin together.

One controller per cluster (built by ``NDPipeCluster.enable_ha``).  Each
``poll()`` runs the logical clock (the attached injector's kernel, or
the controller's own) one tick, as a heartbeat round is itself observed
work, samples every member's liveness, and reacts to detector
transitions.  The store members are the cluster's roster, read live
each round: a shard that joins is watched from the round that first
sees it, one that leaves is no longer probed.

* **store suspected** — its journalled photos are re-placed onto
  survivors (``reingest_orphans``), exactly what test code used to drive
  by hand;
* **store heard again** — ``recover``/``reconcile`` bring it back and
  the Tuner resyncs the model rounds it missed;
* **primary Tuner suspected** — the warm standby is promoted under a
  fresh epoch and any mid-fine-tune progress from the last shipped
  frame becomes ``pending_resume``;
* **serving replica suspected/heard** — attached
  :class:`~repro.serving.dispatcher.ReplicaDispatcher` objects drain or
  undrain it, so serving degrades instead of erroring.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.tuner import Tuner
from ..durability.checkpoint import FinetuneProgress
from ..sim.engine import Simulation
from .config import HAConfig
from .detector import FailureDetector
from .failover import TunerFailoverManager
from .metrics import HAMetrics

#: the member id of the primary-Tuner *role* (stable across elections)
PRIMARY_MEMBER = "tuner-primary"


class HAController:
    """Failure detection + automated reaction for one cluster."""

    def __init__(self, cluster, config: HAConfig,
                 injector: Optional[Any] = None):
        self.cluster = cluster
        self.config = config.validated()
        self.metrics = HAMetrics(cluster.metrics)
        self.detector = FailureDetector(self.config)
        #: the logical clock: the injector's, so faults fire between polls
        self.sim = injector.sim if injector is not None else Simulation()
        #: non-store member id -> {"kind", "liveness"} (see members())
        self._members: Dict[str, Dict[str, Any]] = {}
        self._dispatchers: List[Any] = []
        #: FT-DMP progress recovered by the latest promotion, if any —
        #: feed it to ``cluster.finetune(resume=...)`` (or call
        #: :meth:`resume_pending`) to finish the interrupted lifecycle
        self.pending_resume: Optional[FinetuneProgress] = None

        self.failover: Optional[TunerFailoverManager] = None
        if self.config.standby:
            # provisioned from the fleet's front, like every replica
            standby = Tuner(
                cluster.tuner.model.replica(), cluster.network,
                split=cluster.tuner.split, name="tuner-standby",
                lr=cluster.config.lr, batch_size=cluster.config.batch_size,
                seed=cluster.config.seed, retry_policy=cluster.retry,
                metrics=cluster.metrics, tracer=cluster.tracer)
            self.failover = TunerFailoverManager(cluster, standby,
                                                 self.metrics)
            # fence accounting rides the single HAMetrics site: both
            # roles get the counter so a deposed ex-primary's rejected
            # rounds are visible whichever object it happens to be
            cluster.tuner.bind_fencing_counter(self.metrics.fenced_updates)
            standby.bind_fencing_counter(self.metrics.fenced_updates)
            # seed the standby so a primary that dies before the first
            # run boundary can still be failed over
            self.failover.ship_checkpoint(None)

        self._presume_alive()
        self.register_member(PRIMARY_MEMBER, self._primary_alive,
                             kind="tuner")
        if injector is not None:
            injector.register_tuner(cluster.tuner)
            if self.failover is not None:
                injector.register_tuner(self.failover.standby)

    # -- membership ----------------------------------------------------------
    def register_member(self, member_id: str,
                        liveness: Callable[[], bool],
                        kind: str = "store") -> None:
        """Put one component under heartbeat surveillance.

        ``kind`` selects the reaction on suspicion: ``"store"`` evicts
        and rejoins through the recovery control plane, ``"tuner"``
        triggers failover, ``"replica"`` drains attached dispatchers.
        """
        self._members[member_id] = {"kind": kind, "liveness": liveness}
        # bootstrap: a member is presumed alive when it registers, so a
        # component that dies before the first poll is still suspectable
        # (the detector needs a last-heard tick to measure silence from)
        self.detector.heartbeat(member_id, int(self.sim.now))

    def members(self) -> List[Tuple[str, Dict[str, Any]]]:
        """What one heartbeat round probes: the roster, then the rest."""
        stores = [(store.store_id,
                   {"kind": "store",
                    "liveness": lambda s=store: s.is_available})
                  for store in self.cluster.stores]
        return stores + list(self._members.items())

    def _presume_alive(self) -> None:
        """A store the detector has not heard of yet is presumed alive as
        of now, as a registered member is when it registers."""
        now = int(self.sim.now)
        for store in self.cluster.stores:
            if self.detector.last_heard(store.store_id) is None:
                self.detector.heartbeat(store.store_id, now)

    # ndlint: allow[ND012] -- joins serving replicas to HA drains for ROADMAP's composed run
    def attach_dispatcher(self, dispatcher: Any) -> None:
        """Drain/undrain this dispatcher's replicas on suspicion."""
        self._dispatchers.append(dispatcher)

    def _primary_alive(self) -> bool:
        if self.failover is not None:
            return self.failover.primary.is_available
        return self.cluster.tuner.is_available

    # -- checkpoint shipping (cluster.finetune hook) -------------------------
    def ship_checkpoint(self,
                        progress: Optional[FinetuneProgress] = None) -> None:
        if self.failover is not None:
            self.failover.ship_checkpoint(progress)

    # -- the heartbeat round -------------------------------------------------
    def poll(self) -> List[Tuple[str, str]]:
        """One heartbeat round; returns ``(transition, member)`` events.

        Runs the logical clock one tick, so every fault event due at
        that tick fires first, then records a heartbeat for every member
        whose liveness holds and reacts to alive->suspect and
        suspect->alive transitions.
        """
        self._presume_alive()  # shards that joined since the last round
        tick = int(self.sim.run(until=self.sim.now + 1))
        events: List[Tuple[str, str]] = []
        for member_id, info in self.members():
            if info["liveness"]():
                self.metrics.heartbeats.inc(member=member_id)
                if self.detector.heartbeat(member_id, tick):
                    self._on_rejoin(member_id, info)
                    events.append(("rejoin", member_id))
            elif self.detector.check(member_id, tick):
                self.metrics.suspicions.inc(member=member_id)
                self._on_suspect(member_id, info)
                events.append(("suspect", member_id))
        return events

    def poll_until_quiet(self, max_rounds: int = 64) -> List[Tuple[str, str]]:
        """Poll until transitions stop arriving (bounded).

        "Quiet" means more consecutive event-free rounds than the
        suspicion deadline — any member about to be suspected would have
        transitioned within that window.
        """
        seen: List[Tuple[str, str]] = []
        quiet = 0
        for _ in range(max_rounds):
            events = self.poll()
            seen.extend(events)
            quiet = 0 if events else quiet + 1
            if quiet > self.config.suspect_after_ticks:
                break
        return seen

    # -- reactions -----------------------------------------------------------
    def _on_suspect(self, member_id: str, info: Dict[str, Any]) -> None:
        kind = info["kind"]
        if kind == "store" and self.config.auto_evict:
            moved = self.cluster.reingest_orphans(member_id)
            self.metrics.store_evictions.inc(store=member_id)
            if moved:
                self.metrics.orphans_reingested.inc(len(moved),
                                                    store=member_id)
            for dispatcher in self._dispatchers:
                dispatcher.drain(member_id)
        elif kind == "tuner":
            if self.failover is not None and self.failover.can_promote():
                self.pending_resume = self.failover.promote()
        elif kind == "replica":
            for dispatcher in self._dispatchers:
                if dispatcher.drain(member_id):
                    self.metrics.replica_drains.inc(replica=member_id,
                                                    action="drain")

    def _on_rejoin(self, member_id: str, info: Dict[str, Any]) -> None:
        kind = info["kind"]
        if kind == "store" and self.config.auto_rejoin:
            self.cluster.recover(member_id)
            self.metrics.store_rejoins.inc(store=member_id)
            for dispatcher in self._dispatchers:
                dispatcher.undrain(member_id)
        elif kind == "replica":
            for dispatcher in self._dispatchers:
                if dispatcher.undrain(member_id):
                    self.metrics.replica_drains.inc(replica=member_id,
                                                    action="undrain")
        # a revived ex-primary tuner needs no reaction: it keeps its
        # stale epoch and the stores fence anything it distributes

    # -- resume --------------------------------------------------------------
    def resume_pending(self, **finetune_kwargs):
        """Finish the fine-tune interrupted by the failover, if any."""
        if self.pending_resume is None:
            return None
        progress, self.pending_resume = self.pending_resume, None
        return self.cluster.finetune(resume=progress, **finetune_kwargs)
