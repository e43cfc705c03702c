"""Nemesis — seeded chaos schedules with cross-component invariants.

The harness drives a real (tiny) cluster through a random-but-seeded
interleaving of lifecycle actions — ingest, batched serving, FT-DMP
fine-tuning, offline relabel, scrub — while a
:class:`~repro.faults.FaultInjector` replays a
:meth:`~repro.faults.FaultInjector.random_schedule` that now includes
tuner-targeted crash/recover pairs, and the
:class:`~repro.ha.HAController` reacts.  After **every** step it checks
the invariants the whole stack promises to hold under faults:

1. **no acknowledged upload lost** — every photo id a caller got back
   is still in the database, and its bytes are reachable: on the
   authoritative store if it is up, else on a healthy replica, in the
   upload journal, or parked on the downed store's surviving media;
2. **model lineage is monotonic** — the serving ``(epoch, version)``
   pair never moves backwards: the epoch only grows (elections), and
   within an epoch the version only grows (split-brain corruption would
   break exactly this);
3. **serving conservation** — every offered request is accounted:
   ``offered == completed + shed`` for each serving round;
4. **placement consistency** — the replica map's first holder always
   agrees with the database's authoritative location.

Violations raise :class:`InvariantViolation` with the step and the
offending ids; the per-step event log (:attr:`NemesisHarness.events`)
is JSON-serialisable and byte-identical across same-seed runs, which is
itself asserted by the chaos suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.controlplane import raw_copy
from ..faults import FaultInjector
from ..faults.errors import FaultError
from .config import HAConfig

#: the primary Tuner's fabric node name targeted by tuner crash events
TUNER_NODE = "tuner"


class InvariantViolation(AssertionError):
    """A cross-component invariant failed after a nemesis step."""


@dataclass
class NemesisReport:
    """Summary of one nemesis run (the event log is the full story)."""

    seed: int
    steps: int
    num_stores: int
    schedule: List[str] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    failovers: int = 0
    final_epoch: int = 0
    final_version: int = 0
    photos_acknowledged: int = 0
    invariant_checks: int = 0


class NemesisHarness:
    """Runs one seeded chaos scenario against a demo-sized cluster."""

    #: (action, weight) bands the per-step RNG draws from
    ACTIONS: Tuple[Tuple[str, float], ...] = (
        ("ingest", 0.30),
        ("serve", 0.15),
        ("finetune", 0.20),
        ("relabel", 0.10),
        ("scrub", 0.10),
        ("poll", 0.15),
    )

    def __init__(self, seed: int = 0, steps: int = 8, num_stores: int = 3,
                 photos_per_step: int = 4, horizon: Optional[int] = None,
                 config: Optional[HAConfig] = None):
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if horizon is None:
            # match the fault window to the ticks the workload actually
            # generates (~a dozen per step), so most events get to fire
            horizon = max(40, steps * 12)
        if num_stores < 2:
            raise ValueError("nemesis needs >= 2 stores to survive crashes")
        from ..core.cluster import NDPipeCluster
        from ..core.config import ClusterConfig
        from ..data.drift import DriftingPhotoWorld, WorldConfig
        from ..models.registry import tiny_model

        self.seed = seed
        self.steps = steps
        self.photos_per_step = photos_per_step
        self.world = DriftingPhotoWorld(WorldConfig(
            initial_classes=6, max_classes=8, image_size=16, noise=0.3,
            seed=seed,
        ))
        self.cluster = NDPipeCluster(
            lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=7),
            ClusterConfig(num_stores=num_stores, nominal_raw_bytes=8192,
                          replication=min(2, num_stores), seed=seed),
        )
        schedule = FaultInjector.random_schedule(
            [s.store_id for s in self.cluster.stores], horizon=horizon,
            seed=seed, tuner_id=TUNER_NODE)
        self.injector = FaultInjector(schedule).attach(self.cluster)
        self.ha = self.cluster.enable_ha(config, injector=self.injector)
        #: photo ids the caller was told are durable, in ack order
        self.acknowledged: List[str] = []
        #: JSON-able per-step log; deterministic for a given seed
        self.events: List[dict] = []
        self._rng = np.random.default_rng(seed + 1)
        self._lineage: Tuple[int, int] = (self.cluster.tuner.epoch,
                                          self.cluster.tuner.version)
        self._checks = 0
        self._schedule_desc = [e.describe() for e in schedule]

    # -- the run loop --------------------------------------------------------
    def run(self) -> NemesisReport:
        """Execute every step, checking invariants after each.

        Raises :class:`InvariantViolation` on the first broken
        invariant; :attr:`events` holds the log up to and including the
        violating step either way.
        """
        names = [name for name, _ in self.ACTIONS]
        weights = np.array([w for _, w in self.ACTIONS])
        weights = weights / weights.sum()
        for step in range(self.steps):
            # the first step always ingests so later actions have data
            action = (names[0] if step == 0 else
                      str(self._rng.choice(names, p=weights)))
            entry = {"step": step, "action": action,
                     "clock_before": self.injector.clock}
            entry.update(self._perform(step, action))
            entry["ha_events"] = [list(e) for e in
                                  self.ha.poll_until_quiet()]
            if self.ha.pending_resume is not None:
                entry["resume"] = self._resume()
            entry["clock"] = self.injector.clock
            entry["epoch"] = self.cluster.tuner.epoch
            entry["version"] = self.cluster.tuner.version
            entry["stores_down"] = self.injector.crashed_stores()
            self.events.append(entry)
            self.check_invariants(step)
        return NemesisReport(
            seed=self.seed, steps=self.steps,
            num_stores=len(self.cluster.stores),
            schedule=self._schedule_desc, events=self.events,
            failovers=(self.ha.metrics.failovers.value()
                       if self.ha.failover is not None else 0),
            final_epoch=self.cluster.tuner.epoch,
            final_version=self.cluster.tuner.version,
            photos_acknowledged=len(self.acknowledged),
            invariant_checks=self._checks,
        )

    def _perform(self, step: int, action: str) -> dict:
        from ..core.pipestore import StoreUnavailableError

        try:
            if action == "ingest":
                x, y = self.world.sample(self.photos_per_step, step,
                                         rng=self._rng)
                ids = self.cluster.ingest(x, train_labels=y)
                self.acknowledged.extend(ids)
                return {"outcome": "ok", "acknowledged": len(ids)}
            if action == "serve":
                return self._serve(step)
            if action == "finetune":
                report = self.cluster.finetune(epochs=1, num_runs=2)
                return {"outcome": "ok",
                        "images_extracted": report.images_extracted}
            if action == "relabel":
                stats = self.cluster.offline_relabel()
                return {"outcome": "ok",
                        "relabelled": stats.photos_processed,
                        "deferred": stats.photos_deferred}
            if action == "scrub":
                report = self.cluster.scrub_and_repair()
                return {"outcome": "ok",
                        "repaired": len(report.repaired),
                        "restored": len(report.restored),
                        "unrecoverable": len(report.unrecoverable)}
            if action == "poll":
                return {"outcome": "ok"}
            raise ValueError(f"unknown nemesis action {action!r}")
        except (FaultError, StoreUnavailableError) as exc:
            # an injected fault surfaced to the caller: acceptable — the
            # invariants below still must hold for everything acked
            return {"outcome": "failed",
                    "error": type(exc).__name__}

    def _serve(self, step: int) -> dict:
        from ..serving import ServeRequest

        x, y = self.world.sample(self.photos_per_step, step, rng=self._rng)
        requests = [
            ServeRequest(request_id=f"step{step}-req{i}",
                         arrival_s=i * 0.005, pixels=x[i],
                         train_label=int(y[i]))
            for i in range(len(x))
        ]
        report, ids = self.cluster.serve_uploads(requests)
        if report.offered != report.completed + report.shed_total:
            raise InvariantViolation(
                f"step {step}: serving conservation broken — offered "
                f"{report.offered} != completed {report.completed} + "
                f"shed {report.shed_total}")
        self.acknowledged.extend(ids)
        self._checks += 1
        return {"outcome": "ok", "offered": report.offered,
                "completed": report.completed,
                "shed": report.shed_total, "acknowledged": len(ids)}

    def _resume(self) -> dict:
        from ..core.pipestore import StoreUnavailableError

        try:
            report = self.ha.resume_pending()
        except (FaultError, StoreUnavailableError) as exc:
            return {"outcome": "failed", "error": type(exc).__name__}
        return {"outcome": "ok",
                "images_extracted": (0 if report is None
                                     else report.images_extracted)}

    # -- invariants -----------------------------------------------------------
    def check_invariants(self, step: int) -> None:
        self._check_no_acknowledged_loss(step)
        self._check_lineage(step)
        self._check_placement(step)
        self._checks += 3

    def _check_no_acknowledged_loss(self, step: int) -> None:
        cluster = self.cluster
        journal = cluster.control.journal
        lost: List[str] = []
        for pid in self.acknowledged:
            if pid not in cluster.database:
                lost.append(pid)
                continue
            location = cluster.database.lookup(pid).location
            store = cluster.stores[location]
            if not store.is_available:
                # an outage, not a loss: the blobs survive on the downed
                # store's media and recover/scrub restore access
                continue
            if store.objects.exists(store.objects.raw_key(pid)):
                continue
            if pid in journal:
                continue  # recoverable: re-ingest will re-place it
            if next(cluster.control.donors(pid, location, raw_copy(pid)),
                    None) is not None:
                continue  # recoverable: scrub re-fetches from the replica
            lost.append(pid)
        if lost:
            raise InvariantViolation(
                f"step {step}: acknowledged uploads lost with no "
                f"recoverable copy: {lost[:5]}{'...' if len(lost) > 5 else ''}")

    def _check_lineage(self, step: int) -> None:
        epoch = self.cluster.tuner.epoch
        version = self.cluster.tuner.version
        prev_epoch, prev_version = self._lineage
        if epoch < prev_epoch or (epoch == prev_epoch
                                  and version < prev_version):
            raise InvariantViolation(
                f"step {step}: model lineage moved backwards — "
                f"(epoch, version) ({prev_epoch}, {prev_version}) -> "
                f"({epoch}, {version})")
        self._lineage = (epoch, version)

    def _check_placement(self, step: int) -> None:
        cluster = self.cluster
        bad: List[str] = []
        for pid in self.acknowledged:
            if pid not in cluster.database:
                continue  # already reported by the loss check
            primary = cluster.replicas.primary(pid)
            if primary is not None and (
                    primary != cluster.database.lookup(pid).location):
                bad.append(pid)
        if bad:
            raise InvariantViolation(
                f"step {step}: replica map disagrees with the database "
                f"about the primary holder: {bad[:5]}")
