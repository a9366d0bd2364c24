"""Switch control plane: slot allocation fairness, counter polling."""

import numpy as np
import pytest

from repro.switch import (
    CounterPoller,
    SlotAllocator,
    SwitchDataplane,
    UpdatePacket,
    quantize,
)


class TestSlotAllocator:
    def test_grant_full_request_single_tenant(self):
        a = SlotAllocator()
        a.register_switch(0, 100)
        lease = a.request(1, 0, 40)
        assert lease.n_slots == 40
        assert a.free_slots(0) == 60

    def test_fair_share_caps_second_tenant(self):
        a = SlotAllocator()
        a.register_switch(0, 100)
        a.request(1, 0, 100)  # tenant 1 takes the fair cap (whole pool)
        # tenant 2's fair share is pool // 2 = 50, but only 0 free -> error
        with pytest.raises(RuntimeError):
            a.request(2, 0, 10)

    def test_fair_share_with_modest_first_tenant(self):
        a = SlotAllocator()
        a.register_switch(0, 100)
        a.request(1, 0, 30)
        lease2 = a.request(2, 0, 100)
        assert lease2.n_slots == 50  # fair cap among 2 tenants

    def test_release_recycles(self):
        a = SlotAllocator()
        a.register_switch(0, 10)
        a.request(1, 0, 10)
        a.release(1, 0)
        assert a.free_slots(0) == 10
        lease = a.request(2, 0, 10)
        assert lease.n_slots == 10

    def test_duplicate_lease_rejected(self):
        a = SlotAllocator()
        a.register_switch(0, 10)
        a.request(1, 0, 2)
        with pytest.raises(ValueError):
            a.request(1, 0, 2)

    def test_duplicate_switch_rejected(self):
        a = SlotAllocator()
        a.register_switch(0, 10)
        with pytest.raises(ValueError):
            a.register_switch(0, 10)

    def test_unknown_switch_raises(self):
        with pytest.raises(KeyError):
            SlotAllocator().request(1, 42, 1)


class TestCounterPoller:
    def test_rates_from_two_polls(self):
        dp = SwitchDataplane(n_slots=4, slot_elements=8)
        poller = CounterPoller(dp)
        poller.poll(0.0)
        p = quantize(np.ones(8))
        for c in range(4):
            dp.process_update(UpdatePacket(0, c, 0, p), 1)
        rates = poller.poll(2.0)
        assert rates["packets_in_per_s"] == pytest.approx(2.0)
        assert rates["completions_per_s"] == pytest.approx(2.0)

    def test_first_poll_has_no_rates(self):
        dp = SwitchDataplane()
        rates = CounterPoller(dp).poll(1.0)
        assert "packets_in_per_s" not in rates
        assert rates["free_slots"] == dp.n_slots
