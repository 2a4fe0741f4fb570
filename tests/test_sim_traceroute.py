"""Unit tests for the Paris-traceroute engine and monitors."""

import pytest

from repro.igp.ecmp import flow_hash
from repro.sim.dataplane import DataPlane
from repro.sim.monitors import build_monitors, split_into_teams
from repro.sim.traceroute import TracerouteEngine
from repro.traces import StopReason

from test_sim_dataplane import (
    DST_AS,
    SRC_AS,
    TRANSIT,
    a_destination,
    build,
)
from repro.sim.config import MplsPolicy


def engine_and_monitor(internet, **engine_kwargs):
    monitors = build_monitors(internet, per_as=2)
    engine = TracerouteEngine(DataPlane(internet), **engine_kwargs)
    return engine, monitors[0]


class TestMonitors:
    def test_monitors_built_per_as(self):
        internet = build()
        monitors = build_monitors(internet, per_as=3)
        assert len(monitors) == 3
        assert all(m.asn == SRC_AS for m in monitors)

    def test_monitor_addresses_resolve_to_host_as(self):
        internet = build()
        for monitor in build_monitors(internet):
            assert internet.ip2as.lookup_single(monitor.src_addr) \
                == monitor.asn
            assert internet.ip2as.lookup_single(monitor.gateway_addr) \
                == monitor.asn

    def test_teams_round_robin(self):
        internet = build()
        monitors = build_monitors(internet, per_as=4)
        teams = split_into_teams(monitors, 3)
        assert [len(team) for team in teams] == [2, 1, 1]

    def test_teams_drop_empty(self):
        internet = build()
        monitors = build_monitors(internet, per_as=1)
        assert len(split_into_teams(monitors, 5)) == 1

    def test_team_count_validation(self):
        with pytest.raises(ValueError):
            split_into_teams([], 0)


class TestTraceroute:
    def test_completed_trace(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        dst = a_destination(internet)
        trace = engine.trace(monitor, dst, timestamp=5.0)
        assert trace.stop_reason is StopReason.COMPLETED
        assert trace.hops[-1].address == dst
        assert trace.timestamp == 5.0
        assert trace.monitor == monitor.name

    def test_first_hop_is_gateway(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        trace = engine.trace(monitor, a_destination(internet))
        assert trace.hops[0].address == monitor.gateway_addr
        assert trace.hops[0].probe_ttl == 1

    def test_probe_ttls_monotone(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        trace = engine.trace(monitor, a_destination(internet))
        ttls = [hop.probe_ttl for hop in trace.hops]
        assert ttls == list(range(1, len(ttls) + 1))

    def test_rtts_grow_roughly_with_ttl(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        trace = engine.trace(monitor, a_destination(internet))
        rtts = [hop.rtt_ms for hop in trace.responsive_hops]
        assert rtts[-1] > rtts[0]

    def test_mpls_hops_quote_stacks(self):
        internet = build(MplsPolicy(enabled=True, ldp=True))
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        trace = engine.trace(monitor, a_destination(internet))
        assert trace.has_mpls
        labelled = [hop for hop in trace.hops if hop.has_labels]
        for hop in labelled:
            assert hop.quoted_stack[-1].bottom
            assert hop.quoted_stack[0].ttl == 1

    def test_determinism(self):
        internet = build(MplsPolicy(enabled=True, ldp=True))
        dst = a_destination(internet)
        engine_a, monitor = engine_and_monitor(internet, seed=9)
        engine_b, _ = engine_and_monitor(internet, seed=9)
        assert engine_a.trace(monitor, dst).hops \
            == engine_b.trace(monitor, dst).hops

    def test_loss_seed_changes_anonymity(self):
        internet = build()
        dst = a_destination(internet)
        traces = []
        for seed in range(30):
            engine, monitor = engine_and_monitor(
                internet, seed=seed, loss_rate=0.3)
            traces.append(engine.trace(monitor, dst))
        anonymous = sum(
            1 for trace in traces
            for hop in trace.hops if hop.is_anonymous
        )
        assert anonymous > 0

    def test_gap_limit_stops_trace(self):
        internet = build()
        dst = a_destination(internet)
        engine, monitor = engine_and_monitor(
            internet, loss_rate=0.97, gap_limit=3, seed=1)
        trace = engine.trace(monitor, dst)
        assert trace.stop_reason in (StopReason.GAP_LIMIT,
                                     StopReason.COMPLETED)
        if trace.stop_reason is StopReason.GAP_LIMIT:
            assert all(hop.is_anonymous for hop in trace.hops[-3:])

    def test_unreachable_destination(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet)
        trace = engine.trace(monitor, 0xDEADBEEF)
        assert trace.stop_reason is StopReason.UNREACHABLE
        assert trace.hops == []

    def test_max_ttl_truncates(self):
        internet = build(transit_routers=12)
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        engine.max_ttl = 3
        trace = engine.trace(monitor, a_destination(internet))
        assert trace.stop_reason is StopReason.TTL_EXHAUSTED
        assert len(trace.hops) == 3

    def test_trace_all(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        dests = [address for address, _ in
                 internet.destination_addresses()]
        traces = engine.trace_all((monitor, d) for d in dests)
        assert len(traces) == len(dests)

    def test_invalid_loss_rate(self):
        internet = build()
        with pytest.raises(ValueError):
            TracerouteEngine(DataPlane(internet), loss_rate=1.0)

    @pytest.mark.parametrize("max_ttl", [0, -1])
    def test_invalid_max_ttl(self, max_ttl):
        internet = build()
        with pytest.raises(ValueError):
            TracerouteEngine(DataPlane(internet), max_ttl=max_ttl)

    @pytest.mark.parametrize("gap_limit", [0, -1])
    def test_invalid_gap_limit(self, gap_limit):
        internet = build()
        with pytest.raises(ValueError):
            TracerouteEngine(DataPlane(internet), gap_limit=gap_limit)

    def test_probe_noise_formula(self):
        # Loss and RTT noise are per-probe hashes of (seed, src, dst,
        # ttl); the engine folds the per-trace prefix once, and this
        # pins the result to the unfolded formula.
        internet = build(MplsPolicy(enabled=True, ldp=True),
                         transit_routers=12)
        seed, loss_rate = 5, 0.3
        engine, monitor = engine_and_monitor(
            internet, seed=seed, loss_rate=loss_rate, gap_limit=30)
        dst = a_destination(internet)
        trace = engine.trace(monitor, dst)
        src = monitor.src_addr
        path = DataPlane(internet).forward_path(
            monitor.asn, monitor.attachment_router, src, dst)
        responsive = [True] + [obs.responsive for obs in path]
        assert len(trace.hops) == len(responsive) > 5
        for hop, reachable in zip(trace.hops, responsive):
            ttl = hop.probe_ttl
            lost = flow_hash(seed, src, dst, ttl) / 2**64 < loss_rate
            assert hop.is_anonymous == (not reachable or lost)
            if not hop.is_anonymous:
                assert hop.rtt_ms == 1.0 + 1.8 * ttl + flow_hash(
                    seed, 0x277, src, dst, ttl) % 4000 / 1000.0
        assert any(hop.is_anonymous for hop in trace.hops)
        assert any(not hop.is_anonymous for hop in trace.hops)
