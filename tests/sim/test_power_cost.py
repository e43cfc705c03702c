"""Power-model and cost-model tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cost import fleet_price_per_hour, run_cost
from repro.sim.power import (
    PowerDraw,
    ZERO_POWER,
    ips_per_watt,
    server_power,
    total_power,
)
from repro.sim.specs import (
    G4DN_4XLARGE,
    G4DN_4XLARGE_NOGPU,
    INF1_2XLARGE,
    P3_2XLARGE,
    P3_8XLARGE,
)


class TestPowerDraw:
    def test_total_is_sum_of_components(self):
        draw = PowerDraw(10.0, 20.0, 30.0)
        assert draw.total_watts == 60.0

    def test_add_and_scale(self):
        a = PowerDraw(1.0, 2.0, 3.0)
        b = (a + a).scaled(0.5)
        assert b.total_watts == pytest.approx(a.total_watts)

    def test_total_power_helper(self):
        draws = [PowerDraw(1, 1, 1)] * 3
        assert total_power(draws).total_watts == 9.0
        assert total_power([]).total_watts == 0.0
        assert ZERO_POWER.total_watts == 0.0


class TestServerPower:
    def test_idle_vs_active_gpu(self):
        idle = server_power(P3_8XLARGE, gpu_util=0.0)
        busy = server_power(P3_8XLARGE, gpu_util=1.0)
        assert busy.gpu_watts > idle.gpu_watts
        assert busy.gpu_watts == pytest.approx(2 * 300.0)

    def test_gpu_util_bounds(self):
        with pytest.raises(ValueError):
            server_power(P3_8XLARGE, gpu_util=1.5)
        with pytest.raises(ValueError):
            server_power(P3_8XLARGE, gpu_util=-0.1)

    def test_negative_cores_rejected(self):
        with pytest.raises(ValueError):
            server_power(P3_8XLARGE, active_cores=-1)

    def test_no_accelerator_means_no_gpu_power(self):
        draw = server_power(G4DN_4XLARGE_NOGPU, gpu_util=0.0)
        assert draw.gpu_watts == 0.0

    def test_cores_clamped(self):
        a = server_power(P3_8XLARGE, active_cores=32)
        b = server_power(P3_8XLARGE, active_cores=500)
        assert a.cpu_watts == b.cpu_watts

    def test_disk_adds_power(self):
        without = server_power(G4DN_4XLARGE)
        with_disk = server_power(G4DN_4XLARGE, disk_active=True)
        assert with_disk.other_watts > without.other_watts

    def test_pipestore_cheaper_than_host(self):
        store = server_power(G4DN_4XLARGE, gpu_util=1.0, active_cores=2,
                             disk_active=True)
        host = server_power(P3_8XLARGE, gpu_util=1.0, active_cores=8)
        assert store.total_watts < 0.5 * host.total_watts

    def test_inf1_cheaper_than_t4_store(self):
        t4 = server_power(G4DN_4XLARGE, gpu_util=1.0, disk_active=True)
        inf1 = server_power(INF1_2XLARGE, gpu_util=1.0, disk_active=True)
        assert inf1.total_watts < t4.total_watts

    @settings(max_examples=20, deadline=None)
    @given(util=st.floats(0.0, 1.0), cores=st.integers(0, 32))
    def test_property_power_monotone_in_util(self, util, cores):
        low = server_power(P3_8XLARGE, gpu_util=util * 0.5, active_cores=cores)
        high = server_power(P3_8XLARGE, gpu_util=util, active_cores=cores)
        assert high.total_watts >= low.total_watts - 1e-9


class TestEnergyMetrics:
    def test_ips_per_watt(self):
        assert ips_per_watt(100.0, PowerDraw(50, 25, 25)) == 1.0
        with pytest.raises(ValueError):
            ips_per_watt(1.0, ZERO_POWER)


class TestCost:
    def test_fleet_price(self):
        fleet = [P3_2XLARGE, G4DN_4XLARGE, G4DN_4XLARGE]
        assert fleet_price_per_hour(fleet) == pytest.approx(
            3.06 + 2 * 1.204)

    def test_run_cost_scales_with_time(self):
        assert run_cost([P3_2XLARGE], 3600) == pytest.approx(3.06)
        assert run_cost([P3_2XLARGE], 1800) == pytest.approx(1.53)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            run_cost([P3_2XLARGE], -1)

    def test_paper_prices(self):
        assert P3_8XLARGE.price_per_hour == pytest.approx(12.24)
        assert INF1_2XLARGE.price_per_hour == pytest.approx(0.362)
