"""Link-load tracker: registration, availability floor, EWMA polling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import LinkLoadTracker, build_testbed
from repro.network.linkstate import MIN_AVAILABLE_FRACTION


@pytest.fixture
def tracker():
    return LinkLoadTracker(build_testbed().topology)


class TestRegistration:
    def test_register_reduces_available(self, tracker):
        before = tracker.available()[0]
        tracker.register([0], 1e9)
        assert tracker.available()[0] == pytest.approx(before - 1e9)

    def test_release_restores(self, tracker):
        before = tracker.available().copy()
        h = tracker.register([0, 2, 4], 5e8)
        tracker.release(h)
        assert np.allclose(tracker.available(), before)

    def test_additive_loads(self, tracker):
        tracker.register([0], 1e9)
        tracker.register([0], 2e9)
        assert tracker.load()[0] == pytest.approx(3e9)

    def test_duplicate_links_in_one_registration(self, tracker):
        tracker.register([0, 0], 1e9)
        assert tracker.load()[0] == pytest.approx(2e9)

    def test_release_unknown_handle_raises(self, tracker):
        with pytest.raises(KeyError):
            tracker.release(999)

    def test_negative_rate_rejected(self, tracker):
        with pytest.raises(ValueError):
            tracker.register([0], -1.0)

    def test_bad_link_rejected(self, tracker):
        with pytest.raises(ValueError):
            tracker.register([10**6], 1.0)

    def test_active_registrations(self, tracker):
        h = tracker.register([0], 1.0)
        assert tracker.active_registrations() == 1
        tracker.release(h)
        assert tracker.active_registrations() == 0


class TestAvailability:
    def test_floor_never_zero(self, tracker):
        cap = tracker.capacity[0]
        tracker.register([0], cap * 10)  # oversubscribe wildly
        avail = tracker.available()[0]
        assert avail == pytest.approx(MIN_AVAILABLE_FRACTION * cap)

    def test_utilization_can_exceed_one(self, tracker):
        cap = tracker.capacity[0]
        tracker.register([0], 2 * cap)
        assert tracker.utilization()[0] == pytest.approx(2.0)

    def test_path_bottleneck(self, tracker):
        tracker.register([0], tracker.capacity[0] * 0.5)
        b = tracker.path_bottleneck([0, 2])
        assert b == pytest.approx(
            min(tracker.available()[0], tracker.available()[2])
        )

    def test_path_bottleneck_empty(self, tracker):
        assert tracker.path_bottleneck([]) == float("inf")

    def test_path_max_utilization(self, tracker):
        cap = tracker.capacity
        tracker.register([0], 0.5 * cap[0])
        tracker.register([2], 0.25 * cap[2])
        assert tracker.path_max_utilization([0, 2]) == pytest.approx(0.5)

    def test_path_max_utilization_empty(self, tracker):
        assert tracker.path_max_utilization([]) == 0.0


class TestPolling:
    def test_ewma_converges_to_constant_load(self, tracker):
        cap = tracker.capacity[0]
        tracker.register([0], 0.4 * cap)
        for _ in range(50):
            tracker.poll()
        assert tracker.ewma_utilization()[0] == pytest.approx(0.4, abs=1e-3)

    def test_ewma_starts_at_zero(self, tracker):
        assert np.all(tracker.ewma_utilization() == 0.0)

    def test_reset(self, tracker):
        tracker.register([0], 1e9)
        tracker.poll()
        tracker.reset()
        assert np.all(tracker.load() == 0.0)
        assert np.all(tracker.ewma_utilization() == 0.0)
        assert tracker.active_registrations() == 0

    def test_bad_alpha_rejected(self):
        topo = build_testbed().topology
        with pytest.raises(ValueError):
            LinkLoadTracker(topo, ewma_alpha=0.0)


class TestRegisterReleaseProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.lists(st.integers(0, 20), min_size=1, max_size=5),
                st.floats(0.0, 1e9),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_all_released_returns_to_zero(self, ops):
        """Any register/release sequence fully undone leaves zero load."""
        tracker = LinkLoadTracker(build_testbed().topology)
        handles = [tracker.register(links, rate) for links, rate in ops]
        for h in handles:
            tracker.release(h)
        assert np.allclose(tracker.load(), 0.0, atol=1e-3)


class TestDoubleRelease:
    def test_strict_double_release_raises_descriptive(self, tracker):
        h = tracker.register([0], 1e9)
        tracker.release(h)
        with pytest.raises(KeyError, match="already released"):
            tracker.release(h)

    def test_tolerant_double_release_counted(self, tracker):
        h = tracker.register([0], 1e9)
        tracker.release(h)
        tracker.release(h, strict=False)
        tracker.release(h, strict=False)
        assert tracker.double_releases == 2
        assert np.allclose(tracker.load(), 0.0)

    def test_release_after_reset(self, tracker):
        h = tracker.register([0], 1e9)
        tracker.reset()
        with pytest.raises(KeyError, match="reset"):
            tracker.release(h)
        tracker.release(h, strict=False)
        assert tracker.double_releases == 1


class TestLinkDegradation:
    def test_factor_scales_capacity(self, tracker):
        base = tracker.base_capacity[3]
        tracker.set_link_factor(3, 0.5)
        assert tracker.capacity[3] == pytest.approx(0.5 * base)
        assert tracker.degraded_links() == {3: 0.5}
        # availability shrinks with the capacity
        assert tracker.available()[3] <= 0.5 * base

    def test_restore_removes_degradation(self, tracker):
        tracker.set_link_factor(3, 0.25)
        tracker.set_link_factor(3, 1.0)
        assert tracker.capacity[3] == pytest.approx(tracker.base_capacity[3])
        assert tracker.degraded_links() == {}

    def test_reset_clears_degradation(self, tracker):
        tracker.set_link_factor(3, 0.25)
        tracker.reset()
        assert tracker.degraded_links() == {}
        assert np.allclose(tracker.capacity, tracker.base_capacity)

    def test_bad_factor_rejected(self, tracker):
        with pytest.raises(ValueError):
            tracker.set_link_factor(3, 0.0)
        with pytest.raises(ValueError):
            tracker.set_link_factor(3, -1.0)

    def test_bad_link_rejected(self, tracker):
        with pytest.raises(ValueError):
            tracker.set_link_factor(10**6, 0.5)


class TestAvailableCache:
    """``available()`` is memoised on ``version``; every mutation must
    hand back a freshly computed ``B(e)``."""

    @staticmethod
    def expected(tracker):
        cap = tracker.capacity
        return np.maximum(cap - tracker.load(), MIN_AVAILABLE_FRACTION * cap)

    def check_fresh(self, tracker, mutate):
        before = tracker.available()
        mutate()
        after = tracker.available()
        assert after is not before
        assert np.array_equal(after, self.expected(tracker))

    def test_unchanged_state_shares_one_array(self, tracker):
        assert tracker.available() is tracker.available()

    def test_read_only(self, tracker):
        with pytest.raises(ValueError):
            tracker.available()[0] = 1.0

    def test_register(self, tracker):
        self.check_fresh(tracker, lambda: tracker.register([0, 2], 3e9))

    def test_release(self, tracker):
        h = tracker.register([0, 2], 3e9)
        self.check_fresh(tracker, lambda: tracker.release(h))

    def test_set_link_factor(self, tracker):
        tracker.register([3], 1e9)
        self.check_fresh(tracker, lambda: tracker.set_link_factor(3, 0.3))
        self.check_fresh(tracker, lambda: tracker.set_link_factor(3, 1.0))

    def test_scale_links(self, tracker):
        self.check_fresh(tracker, lambda: tracker.scale_links([0, 1], 2.0))

    def test_scale_class(self, tracker):
        self.check_fresh(tracker, lambda: tracker.scale_class("nvlink", 0.5))

    def test_reset(self, tracker):
        tracker.register([0], 5e9)
        tracker.set_link_factor(2, 0.5)
        self.check_fresh(tracker, tracker.reset)
        assert np.array_equal(tracker.available(), tracker.base_capacity)
