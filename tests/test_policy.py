"""Online policy cost table (Eqs. 16-18)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Policy, PolicyCostTable, table_stats
from repro.network import LinkLoadTracker, build_testbed


def mk_policies(link_sets, caps=None):
    caps = caps or [12.5e9] * len(link_sets)
    return [
        Policy(
            policy_id=i,
            name=f"p{i}",
            mode="ina",
            switch=None,
            links=tuple(ls),
            bottleneck_capacity=c,
        )
        for i, (ls, c) in enumerate(zip(link_sets, caps))
    ]


class TestSelection:
    def test_selects_cheapest(self):
        t = PolicyCostTable(mk_policies([(0,), (1,)]))
        t.b[:] = [0.5, 0.1]
        p = t.select(1000.0)
        assert p.policy_id == 1

    def test_eq16_delta(self):
        t = PolicyCostTable(mk_policies([(0,)]), window=0.1)
        d = t.delta(12.5e9 * 0.1)  # one window at line rate
        assert d[0] == pytest.approx(1.0)

    def test_selection_updates_winner_by_delta(self):
        t = PolicyCostTable(mk_policies([(0,), (1,)]), window=0.1)
        data = 12.5e8  # delta = 0.1
        t.select(data)
        assert max(t.b) == pytest.approx(1.0, abs=1e-9) or t.b[
            np.argmax(t.b)
        ] == pytest.approx(0.1)

    def test_load_balancing_alternates(self):
        """Repeated equal-size transfers spread across disjoint policies."""
        t = PolicyCostTable(mk_policies([(0,), (1,)]))
        for _ in range(10):
            t.select(1e6)
        assert t.selections[0] == 5
        assert t.selections[1] == 5

    def test_eq17_penalty_propagates_to_sharing_policy(self):
        """Policies sharing a link are penalised; disjoint ones are not."""
        t = PolicyCostTable(mk_policies([(0, 1), (1, 2), (5,)]))
        t.select(1e7)  # all b equal -> argmin = 0
        assert t.b[0] > 0
        assert t.b[1] > 0        # shares link 1 with winner
        assert t.b[2] == 0.0     # disjoint

    def test_static_sharing_matrix(self):
        t = PolicyCostTable(mk_policies([(0, 1), (1, 2)]))
        assert t.f[0, 1] == pytest.approx(0.5)  # winner 0 covers 1 of c1's 2
        assert t.f[1, 0] == pytest.approx(0.5)

    def test_negative_data_rejected(self):
        t = PolicyCostTable(mk_policies([(0,)]))
        with pytest.raises(ValueError):
            t.select(-1.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PolicyCostTable([])
        with pytest.raises(ValueError):
            PolicyCostTable(mk_policies([(0,)]), gamma=0.0)
        ps = mk_policies([(0,)])
        object.__setattr__(ps[0], "policy_id", 1)
        with pytest.raises(ValueError):
            PolicyCostTable(ps)


class TestRefresh:
    def test_refresh_utilization_from_linkstate(self):
        built = build_testbed()
        ls = LinkLoadTracker(built.topology)
        cap = ls.capacity
        ls.register([0], 0.4 * cap[0])
        t = PolicyCostTable(mk_policies([(0,), (2,)]))
        t.b[:] = [5.0, 5.0]  # drifted virtual values
        t.refresh_utilization(ls)
        assert t.b[0] == pytest.approx(0.4)
        assert t.b[1] == pytest.approx(0.0)

    def test_refresh_penalties_eq18(self):
        built = build_testbed()
        ls = LinkLoadTracker(built.topology)
        t = PolicyCostTable(
            mk_policies([(0, 1), (1, 2)]), gamma=0.5
        )
        f_before = t.f[0, 1]
        t.refresh_penalties(ls)
        # W with equal idle bandwidths: shared 1 of 2 links = 0.5.
        assert t.f[0, 1] == pytest.approx(
            0.5 * f_before + 0.5 * 0.5
        )

    def test_sharing_ratio_weighted_by_bandwidth(self):
        built = build_testbed()
        ls = LinkLoadTracker(built.topology)
        t = PolicyCostTable(mk_policies([(0, 1), (1, 2)]))
        # Congest the shared link 1: its B(e) shrinks, so W drops.
        w_idle = t.sharing_ratio(ls, 0, 1)
        ls.register([1], 0.9 * ls.capacity[1])
        w_loaded = t.sharing_ratio(ls, 0, 1)
        assert w_loaded < w_idle

    def test_stats_snapshot(self):
        t = PolicyCostTable(mk_policies([(0,), (1,)]))
        t.select(1e6)
        s = table_stats(t)
        assert s.names == ["p0", "p1"]
        assert sum(s.selections) == 1


#: links the exactness tests draw from — few, so policies overlap
POOL = 10

link_sets = st.lists(
    st.lists(st.integers(0, POOL - 1), max_size=6), min_size=1, max_size=6
)
#: one round of link-state change: registrations, degradations
load_round = st.tuples(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, POOL - 1), min_size=1, max_size=4),
            st.floats(0.0, 3e10),
        ),
        max_size=4,
    ),
    st.lists(
        st.tuples(st.integers(0, POOL - 1), st.floats(0.01, 1.0)),
        max_size=2,
    ),
)


def per_pair_sharing_ratio(table, ls, i, j):
    """Eq. 18's W written as the plain per-pair definition."""
    sel = set(table.policies[i].links)
    oth = table.policies[j].links
    if not oth:
        return 0.0
    avail = ls.available()
    denom = float(sum(avail[e] for e in oth))
    if denom <= 0:
        return 0.0
    return float(sum(avail[e] for e in oth if e in sel)) / denom


class TestRefreshExactness:
    """The hoisted refreshes give bit-equal ``f`` and ``b`` to the
    per-pair / per-policy reference loops."""

    @settings(max_examples=60, deadline=None)
    @given(
        sets=link_sets,
        gamma=st.floats(0.01, 1.0),
        rounds=st.lists(load_round, min_size=1, max_size=4),
    )
    def test_bit_equal_to_reference(self, sets, gamma, rounds):
        ls = LinkLoadTracker(build_testbed().topology)
        t = PolicyCostTable(mk_policies(sets), gamma=gamma)
        n = len(sets)
        f_ref = t.f.copy()
        for registrations, degradations in rounds:
            for links, rate in registrations:
                ls.register(links, rate)
            for lid, factor in degradations:
                ls.set_link_factor(lid, factor)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    w = t.sharing_ratio(ls, i, j)
                    assert w == per_pair_sharing_ratio(t, ls, i, j)
                    f_ref[i, j] = (1 - gamma) * f_ref[i, j] + gamma * w
            b_ref = [
                ls.path_max_utilization(list(p.links)) if p.links else 0.0
                for p in t.policies
            ]
            t.b[:] = 7.0  # drifted virtual values
            t.refresh_penalties(ls)
            t.refresh_utilization(ls)
            assert np.array_equal(t.f, f_ref)
            assert t.b.tolist() == b_ref


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.floats(1.0, 1e8), min_size=1, max_size=30),
    )
    def test_b_nonnegative_and_finite(self, sizes):
        t = PolicyCostTable(mk_policies([(0, 1), (1, 2), (3,)]))
        for d in sizes:
            t.select(d)
        assert np.all(t.b >= 0)
        assert np.all(np.isfinite(t.b))

    def test_disjoint_policies_converge_to_equal_load(self):
        """With disjoint equal-capacity policies and equal transfers, the
        table round-robins: selection counts differ by at most one."""
        t = PolicyCostTable(mk_policies([(0,), (1,), (2,)]))
        for _ in range(31):
            t.select(1e6)
        assert max(t.selections) - min(t.selections) <= 1

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_disjoint_policies_roughly_balanced_random_sizes(self, seed):
        """Random transfer sizes still spread load across disjoint
        policies — cumulative virtual utilisations stay within 2x."""
        rng = np.random.default_rng(seed)
        t = PolicyCostTable(mk_policies([(0,), (1,), (2,)]))
        for _ in range(60):
            t.select(float(rng.uniform(1e5, 1e6)))
        assert min(t.selections) > 0
        assert max(t.b) <= 2.0 * max(min(t.b), 1e-12) + 1e-6
