"""Tenant namespaces and quota ledgers for the sharded fleet.

Every upload belongs to a tenant; the tenant's :class:`QuotaLedger`
decides at admission time whether it fits the byte quota declared in
:class:`~repro.placement.config.TenantConfig`.  The ledger sits under
two checked conservation laws (ND006 proves them statically,
:meth:`QuotaLedger.check`, which ``@conserves`` compiles from the
same two laws, settles them at runtime):

* ``offered == admitted + rejected`` — every offer resolves exactly one
  way;
* ``charged == resident + released`` — every admitted object is either
  still resident or has been released; nothing is charged twice or
  freed twice.

Byte totals ride along as plain (non-conserved) fields: conservation is
counted in objects, bytes are an attribute of each object.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..lint.contracts import conserves
from .config import TenantConfig
from .metrics import PlacementMetrics

__all__ = ["QuotaLedger", "TenantNamespace", "TenantRegistry",
           "UnknownTenantError"]


class UnknownTenantError(KeyError):
    """Raised when an upload names a tenant the registry never admitted."""


@conserves("offered == admitted + rejected")
@conserves("charged == resident + released")
class QuotaLedger:
    """Object-count conservation plus byte-quota enforcement."""

    def __init__(self, byte_quota: Optional[int] = None):
        self.byte_quota = byte_quota
        # law 1: admission accounting
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        # law 2: residency accounting
        self.charged = 0
        self.resident = 0
        self.released = 0
        #: bytes behind the ``resident`` objects (plain field, not a law)
        self.resident_bytes = 0

    def offer(self, nbytes: int) -> Optional[str]:
        """Admit one upload of ``nbytes`` or return the rejection reason.

        ``None`` means admitted: the object is charged and resident.
        Otherwise ``"byte-quota"`` names the exhausted limit and the
        ledger takes no residency.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if self.byte_quota is not None \
                and self.resident_bytes + nbytes > self.byte_quota:
            self.offered += 1
            self.rejected += 1
            self.check()
            return "byte-quota"
        self.offered += 1
        self.admitted += 1
        self.charged += 1
        self.resident += 1
        self.resident_bytes += nbytes
        self.check()
        return None

    def release(self, nbytes: int) -> None:
        """Return one resident object's charge (deletion, migration off)."""
        if self.resident == 0:
            raise RuntimeError("release without a matching admitted offer")
        if nbytes < 0 or nbytes > self.resident_bytes:
            raise ValueError(
                f"cannot release {nbytes} bytes of "
                f"{self.resident_bytes} resident")
        self.resident -= 1
        self.released += 1
        self.resident_bytes -= nbytes
        self.check()

    def to_dict(self) -> Dict:
        return {
            "offered": self.offered, "admitted": self.admitted,
            "rejected": self.rejected, "charged": self.charged,
            "resident": self.resident, "released": self.released,
            "resident_bytes": self.resident_bytes,
        }


class TenantNamespace:
    """One tenant: a config and its ledger.

    Its photo keys are qualified as ``"<tenant>/<key>"`` (tenant names
    cannot contain ``/``).
    """

    def __init__(self, config: TenantConfig):
        self.config = config.validated()
        self.ledger = QuotaLedger(config.byte_quota)

    @property
    def name(self) -> str:
        return self.config.name


class TenantRegistry:
    """Admission front door over every tenant namespace.

    The registry owns the ``tenant_*`` metric incs so the ledgers stay
    pure counter objects (keeps the ND006 proof over
    :class:`QuotaLedger` free of foreign state).
    """

    def __init__(self, tenants: Iterable[TenantConfig] = (),
                 metrics: Optional[PlacementMetrics] = None):
        self._namespaces: Dict[str, TenantNamespace] = {}
        self.metrics = metrics
        for config in tenants:
            self.add(config)
        if not self._namespaces:
            self.add(TenantConfig())

    def add(self, config: TenantConfig) -> TenantNamespace:
        namespace = TenantNamespace(config)
        if namespace.name in self._namespaces:
            raise ValueError(f"tenant {namespace.name!r} already registered")
        self._namespaces[namespace.name] = namespace
        return namespace

    def __contains__(self, name: str) -> bool:
        return name in self._namespaces

    def __iter__(self):
        return iter(self._namespaces.values())

    def __len__(self) -> int:
        return len(self._namespaces)

    @property
    def names(self) -> List[str]:
        return sorted(self._namespaces)

    def get(self, name: str) -> TenantNamespace:
        try:
            return self._namespaces[name]
        except KeyError:
            raise UnknownTenantError(name) from None

    def admit(self, tenant: str, nbytes: int) -> Optional[str]:
        """Offer one upload to ``tenant``'s ledger; metric-accounted.

        Returns ``None`` when admitted, else the rejection reason.
        """
        namespace = self.get(tenant)
        reason = namespace.ledger.offer(nbytes)
        if self.metrics is not None:
            if reason is None:
                self.metrics.admitted[tenant].inc()
            else:
                self.metrics.rejected[tenant, reason].inc()
            self.metrics.resident[tenant].set(
                namespace.ledger.resident_bytes)
        return reason

    def release(self, tenant: str, nbytes: int) -> None:
        """Release one resident object's charge from ``tenant``."""
        namespace = self.get(tenant)
        namespace.ledger.release(nbytes)
        if self.metrics is not None:
            self.metrics.resident[tenant].set(
                namespace.ledger.resident_bytes)

    def check(self) -> None:
        for namespace in self._namespaces.values():
            namespace.ledger.check()

    def to_dict(self) -> Dict:
        return {name: ns.ledger.to_dict()
                for name, ns in sorted(self._namespaces.items())}
