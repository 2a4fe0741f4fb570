"""Unit tests for universe construction (config, topology, addressing)."""

from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.bgp.asgraph import Tier
from repro.igp.spf import SpfTable, spf_to
from repro.igp.topology import Topology
from repro.net.ip import Prefix, int_to_ip, ip_to_int
from repro.sim.config import AsSpec, MplsPolicy, UniverseSpec
from repro.sim.dataplane import DataPlane
from repro.sim.network import (
    Internet,
    SegmentCache,
    destination_prefix,
    infra_block,
    loopback_address,
)
from repro.sim.scenarios import build_universe, paper_scenario

from helpers import AddressPool, make_routers


def tiny_universe():
    ases = [
        AsSpec(100, "T1", Tier.TIER1, router_count=8, border_count=3,
               ecmp_breadth=2),
        AsSpec(200, "T2", Tier.TIER1, router_count=8, border_count=3),
        AsSpec(300, "TR", Tier.TRANSIT, router_count=6, border_count=2),
        AsSpec(501, "S1", Tier.STUB, router_count=3, border_count=1,
               prefix_count=2),
        AsSpec(502, "S2", Tier.STUB, router_count=3, border_count=1,
               prefix_count=2),
    ]
    return UniverseSpec(
        ases=ases,
        c2p_edges=[(300, 100), (300, 200), (501, 300), (502, 200)],
        p2p_edges=[(100, 200)],
        monitor_ases=[501],
        seed=7,
    )


class TestConfigValidation:
    def test_policy_fraction_bounds(self):
        with pytest.raises(ValueError):
            MplsPolicy(te_pair_fraction=1.5)
        with pytest.raises(ValueError):
            MplsPolicy(mpls_pair_fraction=-0.1)

    def test_policy_negative_tunnels(self):
        with pytest.raises(ValueError):
            MplsPolicy(te_tunnels_per_pair=-1)

    def test_uses_te(self):
        assert MplsPolicy(enabled=True, te_pair_fraction=0.5,
                          te_tunnels_per_pair=2).uses_te
        assert not MplsPolicy(enabled=True).uses_te
        assert not MplsPolicy(enabled=False, te_pair_fraction=0.5,
                              te_tunnels_per_pair=2).uses_te

    def test_as_spec_bounds(self):
        with pytest.raises(ValueError):
            AsSpec(1, router_count=0)
        with pytest.raises(ValueError):
            AsSpec(1, router_count=4, border_count=5)
        with pytest.raises(ValueError):
            AsSpec(1, ecmp_breadth=0)
        with pytest.raises(ValueError):
            AsSpec(1, parallel_link_fraction=1.5)

    def test_universe_validation(self):
        spec = tiny_universe()
        spec.validate()
        spec.c2p_edges.append((999, 100))
        with pytest.raises(ValueError):
            spec.validate()

    def test_universe_duplicate_asn(self):
        spec = tiny_universe()
        spec.ases.append(AsSpec(100))
        with pytest.raises(ValueError):
            spec.validate()

    def test_spec_of(self):
        spec = tiny_universe()
        assert spec.spec_of(300).name == "TR"
        with pytest.raises(KeyError):
            spec.spec_of(12345)


class TestAddressingPlan:
    def test_blocks_disjoint(self):
        assert infra_block(0).last < infra_block(1).first
        assert destination_prefix(0, 255).last \
            < destination_prefix(1, 0).first

    def test_loopback_inside_infra_block(self):
        assert loopback_address(3, 7) in infra_block(3)

    def test_every_hop_address_resolves(self):
        internet = Internet(tiny_universe())
        for network in internet.networks.values():
            for address in network.topology.interface_addresses():
                asn = internet.ip2as.lookup_single(address)
                assert asn != -1, int_to_ip(address)

    def test_infra_addresses_map_to_owner(self):
        internet = Internet(tiny_universe())
        for network in internet.networks.values():
            if network.spec.foreign_address_fraction:
                continue
            for router in network.topology.routers.values():
                assert internet.ip2as.lookup_single(router.loopback) \
                    == network.asn


class TestInternetConstruction:
    def test_builds_and_validates(self):
        internet = Internet(tiny_universe())
        assert len(internet.networks) == 5
        internet.graph.validate()

    def test_deterministic(self):
        first = Internet(tiny_universe())
        second = Internet(tiny_universe())
        for asn in first.networks:
            links_a = first.networks[asn].topology.links
            links_b = second.networks[asn].topology.links
            assert {(l.router_a, l.router_b, l.addr_a, l.addr_b, l.cost)
                    for l in links_a.values()} == \
                   {(l.router_a, l.router_b, l.addr_a, l.addr_b, l.cost)
                    for l in links_b.values()}

    def test_interas_links_symmetric(self):
        internet = Internet(tiny_universe())
        for asn, network in internet.networks.items():
            for neighbor, links in network.interas.items():
                reverse = internet.networks[neighbor].interas[asn]
                assert len(links) == len(reverse)
                for (_, local_addr, _, _, remote_addr) in links:
                    assert any(r[1] == remote_addr and r[4] == local_addr
                               for r in reverse)

    def test_destination_addresses(self):
        internet = Internet(tiny_universe())
        dests = internet.destination_addresses()
        # 2 prefixes each for 100,200,300(? default 1) ...
        by_asn = {}
        for addr, asn in dests:
            by_asn.setdefault(asn, []).append(addr)
        assert len(by_asn[501]) == 2
        assert len(by_asn[502]) == 2

    def test_egress_towards_is_deterministic(self):
        internet = Internet(tiny_universe())
        prefix = Prefix.parse("50.3.0.0/24")
        first = internet.egress_towards(100, 200, prefix)
        second = internet.egress_towards(100, 200, prefix)
        assert first == second

    def test_egress_towards_unknown_neighbor(self):
        internet = Internet(tiny_universe())
        with pytest.raises(KeyError):
            internet.egress_towards(501, 502, Prefix.parse("50.0.0.0/24"))


class TestMplsLifecycle:
    def test_enable_builds_control_planes(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(enabled=True, ldp=True))
        assert network.ldp is not None
        assert network.ldp.established_fecs

    def test_disable_forgets_labels(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(enabled=True, ldp=True))
        network.apply_policy(MplsPolicy(enabled=False))
        assert network.labels is None
        assert network.ldp is None

    def test_te_sync_grows_and_shrinks(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=1.0, te_tunnels_per_pair=2))
        full = len(network.rsvp.sessions)
        assert full == 2 * len(network._te_pair_order)
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=0.5, te_tunnels_per_pair=2))
        assert len(network.rsvp.sessions) < full
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=0.0, te_tunnels_per_pair=0))
        assert network.rsvp.sessions == []

    def test_te_pair_set_is_monotone(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=0.3, te_tunnels_per_pair=1))
        small = set(network._te_active)
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=0.8, te_tunnels_per_pair=1))
        assert small <= set(network._te_active)

    def test_ldp_pair_active_monotone(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(enabled=True,
                                        mpls_pair_fraction=0.4))
        active_small = {
            (i, e) for i in range(3) for e in range(3) if i != e
            and network.ldp_pair_active(i, e)
        }
        network.apply_policy(MplsPolicy(enabled=True,
                                        mpls_pair_fraction=0.9))
        active_big = {
            (i, e) for i in range(3) for e in range(3) if i != e
            and network.ldp_pair_active(i, e)
        }
        assert active_small <= active_big

    def test_tick_reoptimizes_dynamic_as(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=1.0, te_tunnels_per_pair=1,
            te_reoptimize_per_cycle=True))
        before = {s.fec.instance for s in network.rsvp.sessions}
        network.tick()
        after = {s.fec.instance for s in network.rsvp.sessions}
        assert before == {0}
        assert after == {1}

    def test_churn_advances_allocators(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(enabled=True, ldp=True))
        allocator = network.labels.allocator(0)
        before = allocator.allocated_total
        network.churn_labels(10)
        assert allocator.allocated_total == before + 10


class TestPaperUniverse:
    def test_builds_and_validates(self):
        scenario = paper_scenario(scale=0.4)
        internet = Internet(scenario.universe)
        internet.graph.validate()
        for network in internet.networks.values():
            network.topology.validate()

    def test_foreign_quirk_present(self):
        scenario = paper_scenario(scale=1.0)
        internet = Internet(scenario.universe)
        quirky = internet.network(65103)
        assert quirky.foreign_links
        link = quirky.topology.links[quirky.foreign_links[0]]
        owner = internet.ip2as.lookup_single(link.addr_a)
        assert owner != 65103
        assert owner >= 64512

    def test_scale_shrinks_routers(self):
        big = build_universe(scale=1.0)
        small = build_universe(scale=0.4)
        assert small.spec_of(7018).router_count \
            < big.spec_of(7018).router_count


class TestSegmentCacheCounters:
    """The internet-wide segment cache tallies hits/misses exactly."""

    def test_base_hit_after_miss(self):
        internet = Internet(tiny_universe())
        cache = internet.segment_cache
        network = internet.network(100)
        first = cache.base_segments(network, 0, 7)
        second = cache.base_segments(network, 0, 7)
        assert first is second
        assert (cache.base_misses, cache.base_hits) == (1, 1)

    def test_degraded_entries_keyed_by_flapped_set(self):
        internet = Internet(tiny_universe())
        cache = internet.segment_cache
        network = internet.network(100)
        links = sorted(network.topology.links)
        one = frozenset(links[:1])
        two = frozenset(links[:2])
        # Two eras whose flap draws overlap on the same AS hit the
        # same entry; a different excluded set is its own entry.
        cache.degraded_segments(network, 0, 7, one)
        cache.degraded_segments(network, 0, 7, one)
        cache.degraded_segments(network, 0, 7, two)
        assert cache.degraded_misses == 2
        assert cache.degraded_hits == 1

    def test_dataplanes_of_different_eras_share_the_cache(self):
        internet = Internet(tiny_universe())
        cache = internet.segment_cache
        first_era = DataPlane(internet, era=1)
        second_era = DataPlane(internet, era=2)
        assert first_era._cache is cache
        assert second_era._cache is cache
        network = internet.network(100)
        first_era._segments(network, 0, 7)
        hits_before = cache.base_hits
        second_era._segments(network, 0, 7)
        assert cache.base_hits == hits_before + 1


WIDE_STAGES = 7


@lru_cache(maxsize=None)
def wide_network():
    """``WIDE_STAGES`` stacked diamonds from router 0 to the last joint.

    Joint ``3i`` reaches joint ``3i + 3`` through routers ``3i + 1`` and
    ``3i + 2`` (the first one over two parallel links), so the entry has
    3**WIDE_STAGES equal-cost paths — more than SEGMENT_LIMIT.  A costly
    bypass link joins the ends (the path once every diamond is cut) and
    a spur router hangs off the entry, off every shortest path.
    """
    topology = Topology(asn=64999)
    last = 3 * WIDE_STAGES
    make_routers(topology, last + 2)
    pool = AddressPool()

    def connect(left, right, cost=1):
        topology.add_link(left, right, *pool.pair(), cost=cost)

    for joint in range(0, last, 3):
        for mid in (joint + 1, joint + 2):
            connect(joint, mid)
            connect(mid, joint + 3)
        connect(joint, joint + 1)
    connect(0, last, cost=2 * WIDE_STAGES + 1)
    connect(0, last + 1)
    # Duck-types the AsNetwork attributes SegmentCache reads.
    return SimpleNamespace(asn=64999, topology=topology,
                           spf=SpfTable(topology))


@lru_cache(maxsize=None)
def tiny_network():
    return Internet(tiny_universe()).network(100)


class TestDegradedSegmentReuse:
    """Reusing the intact entry is exact: it equals the full recompute."""

    @staticmethod
    def recompute(network, entry, target, excluded):
        limit = SegmentCache.SEGMENT_LIMIT
        segments = spf_to(network.topology, target,
                          excluded_links=excluded).all_paths(entry, limit)
        return segments or network.spf.to_destination(target).all_paths(
            entry, limit)

    def test_wide_network_is_cut_at_the_segment_limit(self):
        network = wide_network()
        dag = network.spf.to_destination(3 * WIDE_STAGES)
        assert dag.path_count(0) == 3 ** WIDE_STAGES
        assert len(dag.all_paths(0, limit=10 ** 6)) \
            > SegmentCache.SEGMENT_LIMIT

    @given(st.data())
    def test_wide_network_matches_full_recompute(self, data):
        # The intact enumeration here is cut at SEGMENT_LIMIT, so the
        # draws include links that lie on the sub-DAG but on none of
        # the listed segments.
        network = wide_network()
        links = sorted(network.topology.links)
        excluded = frozenset(data.draw(st.sets(st.sampled_from(links))))
        target = 3 * WIDE_STAGES
        assert SegmentCache().degraded_segments(
            network, 0, target, excluded) \
            == self.recompute(network, 0, target, excluded)

    @given(st.data())
    def test_as_network_matches_full_recompute(self, data):
        network = tiny_network()
        routers = sorted(network.topology.routers)
        links = sorted(network.topology.links)
        entry = data.draw(st.sampled_from(routers))
        target = data.draw(st.sampled_from(routers))
        excluded = frozenset(data.draw(st.sets(st.sampled_from(links))))
        assert SegmentCache().degraded_segments(
            network, entry, target, excluded) \
            == self.recompute(network, entry, target, excluded)

    def test_shortcut_miss_tallies_and_runs_no_spf(self, monkeypatch):
        network = wide_network()
        target = 3 * WIDE_STAGES
        spur_link = max(network.topology.links)
        cache = SegmentCache()

        def no_spf(*args, **kwargs):
            raise AssertionError("the shortcut must not run an SPF")

        monkeypatch.setattr("repro.sim.network.spf_to", no_spf)
        segments = cache.degraded_segments(network, 0, target,
                                           frozenset({spur_link}))
        assert cache.degraded_misses == 1
        assert (cache.base_hits, cache.base_misses) == (0, 0)
        assert segments is cache.base_segments(network, 0, target)
