"""Quota ledgers and tenant namespaces.

The two conservation laws (``offered == admitted + rejected``,
``charged == resident + released``) are exercised directly, then swept
with hypothesis over arbitrary offer/release interleavings — the laws
must hold after *every* step, not just at quiescence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.placement import (
    PlacementMetrics,
    QuotaLedger,
    TenantConfig,
    TenantRegistry,
    UnknownTenantError,
)


class TestQuotaLedger:
    def test_unmetered_admits_everything(self):
        ledger = QuotaLedger()
        assert all(ledger.offer(100) is None for _ in range(50))
        assert ledger.admitted == 50
        assert ledger.rejected == 0
        assert ledger.resident_bytes == 5000

    def test_byte_quota_rejection_names_the_limit(self):
        ledger = QuotaLedger(byte_quota=250)
        assert ledger.offer(100) is None
        assert ledger.offer(100) is None
        assert ledger.offer(100) == "byte-quota"
        # headroom freed by a release admits again
        ledger.release(100)
        assert ledger.offer(100) is None
        assert ledger.offered == ledger.admitted + ledger.rejected == 4

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="nbytes"):
            QuotaLedger().offer(-1)

    def test_release_without_admit_is_loud(self):
        with pytest.raises(RuntimeError, match="without a matching"):
            QuotaLedger().release(0)

    def test_release_more_bytes_than_resident_is_loud(self):
        ledger = QuotaLedger()
        ledger.offer(10)
        with pytest.raises(ValueError, match="cannot release"):
            ledger.release(11)

    def test_check_catches_tampering(self):
        ledger = QuotaLedger()
        ledger.offer(1)
        ledger.admitted += 1  # skew the books
        with pytest.raises(RuntimeError,
                           match="QuotaLedger conservation violated"):
            ledger.check()

    def test_to_dict_snapshot(self):
        ledger = QuotaLedger(byte_quota=10)
        ledger.offer(8)
        ledger.offer(8)
        snapshot = ledger.to_dict()
        assert snapshot["offered"] == 2
        assert snapshot["admitted"] == 1
        assert snapshot["rejected"] == 1
        assert snapshot["resident_bytes"] == 8

    @given(ops=st.lists(
        st.one_of(st.integers(0, 64), st.just("release")), max_size=60),
        byte_quota=st.one_of(st.none(), st.integers(1, 256)))
    @settings(max_examples=60, deadline=None)
    def test_laws_hold_under_any_interleaving(self, ops, byte_quota):
        ledger = QuotaLedger(byte_quota=byte_quota)
        resident_sizes = []
        for op in ops:
            if op == "release":
                if resident_sizes:
                    ledger.release(resident_sizes.pop())
            elif ledger.offer(op) is None:
                resident_sizes.append(op)
            # both laws settle after every step (offer/release call
            # check() themselves; this re-checks from the outside)
            ledger.check()
            assert ledger.resident == len(resident_sizes)
            assert ledger.resident_bytes == sum(resident_sizes)
            if byte_quota is not None:
                assert ledger.resident_bytes <= byte_quota


class TestTenantRegistry:
    def test_empty_registry_gets_default_tenant(self):
        registry = TenantRegistry()
        assert registry.names == ["default"]
        assert registry.admit("default", 10) is None

    def test_duplicate_tenant_rejected(self):
        registry = TenantRegistry([TenantConfig(name="acme")])
        with pytest.raises(ValueError, match="already registered"):
            registry.add(TenantConfig(name="acme"))

    def test_unknown_tenant_is_typed_error(self):
        registry = TenantRegistry([TenantConfig(name="acme")])
        with pytest.raises(UnknownTenantError):
            registry.admit("globex", 10)

    def test_admission_is_metric_accounted(self):
        metrics = PlacementMetrics(MetricsRegistry())
        registry = TenantRegistry(
            [TenantConfig(name="acme", byte_quota=100)], metrics=metrics)
        assert registry.admit("acme", 80) is None
        assert registry.admit("acme", 80) == "byte-quota"
        assert metrics.tenant_admitted.value(tenant="acme") == 1
        assert metrics.tenant_rejected.value(
            tenant="acme", reason="byte-quota") == 1
        assert metrics.tenant_bytes.value(tenant="acme") == 80
        registry.release("acme", 80)
        assert metrics.tenant_bytes.value(tenant="acme") == 0

    def test_check_settles_every_namespace(self):
        registry = TenantRegistry([TenantConfig(name="acme"),
                                   TenantConfig(name="globex")])
        registry.admit("acme", 5)
        registry.admit("globex", 7)
        registry.check()
        books = registry.to_dict()
        assert books["acme"]["resident_bytes"] == 5
        assert books["globex"]["resident_bytes"] == 7
        assert len(registry) == 2
        assert "acme" in registry
