"""Topology graph model: construction, invariants, queries."""

import numpy as np
import pytest

from repro.network import LinkKind, NodeKind, Topology
from repro.util import units


@pytest.fixture
def small_topo():
    t = Topology(name="t")
    g0 = t.add_gpu("g0", server=0, memory_bytes=units.gib(40))
    g1 = t.add_gpu("g1", server=0, memory_bytes=units.gib(40))
    g2 = t.add_gpu("g2", server=1, memory_bytes=units.gib(32))
    s = t.add_switch("s0")
    t.add_link(g0, g1, LinkKind.NVLINK, units.gbyte_per_s(300))
    t.add_link(g0, s, LinkKind.ETHERNET, units.gbit_per_s(100))
    t.add_link(g1, s, LinkKind.ETHERNET, units.gbit_per_s(100))
    t.add_link(g2, s, LinkKind.ETHERNET, units.gbit_per_s(100))
    return t, (g0, g1, g2, s)


class TestConstruction:
    def test_node_ids_sequential(self, small_topo):
        t, (g0, g1, g2, s) = small_topo
        assert (g0, g1, g2, s) == (0, 1, 2, 3)

    def test_links_paired(self, small_topo):
        t, _ = small_topo
        for link in t.links:
            twin = t.links[link.reverse_id]
            assert (twin.src, twin.dst) == (link.dst, link.src)

    def test_full_duplex_counts(self, small_topo):
        t, _ = small_topo
        assert t.n_links == 8  # 4 physical links x 2 directions

    def test_self_loop_rejected(self, small_topo):
        t, (g0, *_ ) = small_topo
        with pytest.raises(ValueError):
            t.add_link(g0, g0, LinkKind.NVLINK, 1e9)

    def test_nonpositive_capacity_rejected(self, small_topo):
        t, (g0, g1, *_ ) = small_topo
        with pytest.raises(ValueError):
            t.add_link(g0, g1, LinkKind.ETHERNET, 0.0)

    def test_gpu_requires_memory(self):
        t = Topology()
        with pytest.raises(ValueError):
            t.add_gpu("g", server=0, memory_bytes=0)

    def test_default_hop_latency_by_kind(self, small_topo):
        t, _ = small_topo
        nv = [l for l in t.links if l.kind == LinkKind.NVLINK][0]
        eth = [l for l in t.links if l.kind == LinkKind.ETHERNET][0]
        assert nv.hop_latency < eth.hop_latency


class TestQueries:
    def test_gpu_ids(self, small_topo):
        t, (g0, g1, g2, s) = small_topo
        assert t.gpu_ids() == [g0, g1, g2]

    def test_switch_ids(self, small_topo):
        t, (_, _, _, s) = small_topo
        assert t.switch_ids() == [s]
        assert t.switch_ids(core=True) == []
        assert t.switch_ids(core=False) == [s]

    def test_servers(self, small_topo):
        t, _ = small_topo
        assert t.servers() == [0, 1]

    def test_neighbors(self, small_topo):
        t, (g0, g1, g2, s) = small_topo
        assert set(t.neighbors(s)) == {g0, g1, g2}

    def test_find_link(self, small_topo):
        t, (g0, g1, *_ ) = small_topo
        link = t.find_link(g0, g1)
        assert link is not None and link.kind == LinkKind.NVLINK
        assert t.find_link(2, 0) is None  # g2 and g0 not adjacent


class TestArrays:
    def test_capacity_array(self, small_topo):
        t, _ = small_topo
        cap = t.capacity_array()
        assert cap.shape == (t.n_links,)
        assert np.all(cap > 0)

    def test_kind_array_matches_links(self, small_topo):
        t, _ = small_topo
        kinds = t.kind_array()
        for i, link in enumerate(t.links):
            assert kinds[i] == int(link.kind)

    def test_endpoints_arrays(self, small_topo):
        t, _ = small_topo
        src, dst = t.endpoints_arrays()
        assert src[0] == t.links[0].src
        assert dst[0] == t.links[0].dst


class TestValidate:
    def test_valid_passes(self, small_topo):
        t, _ = small_topo
        t.validate()

    def test_cross_server_nvlink_rejected(self, small_topo):
        t, (g0, _, g2, _) = small_topo
        t.add_link(g0, g2, LinkKind.NVLINK, 1e9)
        with pytest.raises(ValueError, match="NVLINK crossing"):
            t.validate()

    def test_cross_server_pcie_rejected(self, small_topo):
        t, (g0, _, g2, _) = small_topo
        t.add_link(g0, g2, LinkKind.PCIE, 1e9)
        with pytest.raises(ValueError, match="PCIE crossing"):
            t.validate()

    def test_summary_mentions_counts(self, small_topo):
        t, _ = small_topo
        s = t.summary()
        assert "3 GPUs" in s and "2 servers" in s
