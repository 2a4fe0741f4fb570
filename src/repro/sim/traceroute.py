"""Paris-traceroute engine over the simulated data plane.

Produces :class:`repro.traces.Trace` objects with the exact observable
semantics of ICMP-Paris traceroute against RFC 4950 routers:

* the flow key is held constant across the TTL sweep, so the probe follows
  one consistent ECMP branch (the Paris property);
* a router whose probe TTL expires replies from its incoming interface,
  quoting the received MPLS label stack if it implements RFC 4950;
* unresponsive routers appear as anonymous hops; after ``gap_limit``
  consecutive silent hops the trace is abandoned;
* transient per-probe loss is drawn deterministically from the engine
  seed, so a cycle's dataset is reproducible yet differs between cycles.

The engine memoizes the decoded quoted label stack per ``(labels,
LSE-TTL)`` pair: the RFC 4884/4950 reply bytes depend only on the MPLS
object (the quoted probe datagram is skipped by the decoder), so every
probe expiring with the same stack decodes to the same tuple — encoding
once per distinct stack instead of once per probe is bit-identical.
Like the DataPlane's route/hop caches, it is gated on
``dataplane.memoize`` and its counters are flushed to :mod:`repro.obs`
after each ``trace_all``.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional

from ..igp.ecmp import flow_hash, flow_hash_extend
from ..mpls.lse import LabelStack, LabelStackEntry
from ..net.icmp import TimeExceeded, build_probe_quote
from ..obs import emit, get_registry, span
from ..traces import StopReason, Trace, TraceHop
from .dataplane import DataPlane, HopObs, UnreachableError
from .monitors import Monitor

_LOSS_SCALE = float(1 << 64)

_PROBES = get_registry().counter(
    "probes_total", "Traceroute probes issued (one per TTL)")
_PROBES_UNANSWERED = get_registry().counter(
    "probes_unanswered_total",
    "Probes with no reply (loss or unresponsive router)")
_TRACES = get_registry().counter(
    "traces_total", "Traceroutes completed, by stop reason")
_STACK_HITS = get_registry().counter(
    "quoted_stack_cache_hits_total",
    "ICMP quoted-stack decodes served from the engine's cache")
_STACK_MISSES = get_registry().counter(
    "quoted_stack_cache_misses_total",
    "ICMP quoted stacks encoded + decoded (first probe per stack)")


class TracerouteEngine:
    """Issues simulated Paris traceroutes over one frozen network state."""

    def __init__(self, dataplane: DataPlane, seed: int = 0,
                 loss_rate: float = 0.01, gap_limit: int = 5,
                 max_ttl: int = 30):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate out of [0,1): {loss_rate}")
        if gap_limit < 1:
            raise ValueError(f"gap_limit must be >= 1: {gap_limit}")
        if max_ttl < 1:
            raise ValueError(f"max_ttl must be >= 1: {max_ttl}")
        self.dataplane = dataplane
        self.seed = seed
        self.loss_rate = loss_rate
        self.gap_limit = gap_limit
        self.max_ttl = max_ttl
        self._stack_cache: Optional[dict] = \
            {} if dataplane.memoize else None
        self.stack_cache_hits = 0
        self.stack_cache_misses = 0
        self._flushed = [0, 0]

    def trace(self, monitor: Monitor, dst_addr: int,
              timestamp: float = 0.0) -> Trace:
        """Run one traceroute from a monitor towards a destination."""
        try:
            path = self.dataplane.forward_path(
                monitor.asn, monitor.attachment_router,
                monitor.src_addr, dst_addr,
            )
        except UnreachableError:
            _TRACES.inc(stop=StopReason.UNREACHABLE.value)
            return Trace(monitor=monitor.name, src=monitor.src_addr,
                         dst=dst_addr, timestamp=timestamp,
                         stop_reason=StopReason.UNREACHABLE, hops=[])

        first_hop = HopObs(asn=monitor.asn,
                           router_id=monitor.attachment_router,
                           address=monitor.gateway_addr)
        # Per-probe noise hashes (seed, src, dst, ttl) and
        # (seed, 0x277, src, dst, ttl): fold the per-trace prefix once,
        # leaving one mixing round per probe (DESIGN §8).
        src_addr = monitor.src_addr
        loss_prefix = flow_hash(self.seed, src_addr, dst_addr) \
            if self.loss_rate > 0.0 else None
        rtt_prefix = flow_hash(self.seed, 0x277, src_addr, dst_addr)
        hops: List[TraceHop] = []
        silent_streak = 0
        stop = StopReason.TTL_EXHAUSTED
        for ttl, obs in enumerate(chain((first_hop,), path), start=1):
            if ttl > self.max_ttl:
                break
            hop = self._reply_for(monitor, dst_addr, ttl, obs,
                                  loss_prefix, rtt_prefix)
            hops.append(hop)
            if hop.is_anonymous:
                silent_streak += 1
                if silent_streak >= self.gap_limit:
                    stop = StopReason.GAP_LIMIT
                    break
            else:
                silent_streak = 0
            if obs.router_id == -1 and not hop.is_anonymous:
                stop = StopReason.COMPLETED
                break
        _PROBES.inc(len(hops))
        _PROBES_UNANSWERED.inc(
            sum(1 for hop in hops if hop.is_anonymous))
        _TRACES.inc(stop=stop.value)
        return Trace(monitor=monitor.name, src=monitor.src_addr,
                     dst=dst_addr, timestamp=timestamp,
                     stop_reason=stop, hops=hops)

    def trace_all(self, pairs, timestamp: float = 0.0) -> List[Trace]:
        """Trace every (monitor, destination) pair of an iterable."""
        with span("sim.trace_all"):
            traces = [self.trace(monitor, dst, timestamp)
                      for monitor, dst in pairs]
            self.flush_cache_metrics()
            return traces

    def flush_cache_metrics(self) -> None:
        """Publish this engine's (and its dataplane's) cache counters.

        Deltas since the last flush; like the route/hop counters these
        are per-process observability and are stripped from persisted
        checkpoint deltas (DESIGN §8).  One combined ``cache.flush``
        event per non-empty flush goes to the flight recorder, with the
        per-layer deltas plus ``hits``/``misses`` totals — serial runs
        get their cache trajectory in the events file this way (sharded
        runs report cache totals in ``shard.done`` instead, since
        worker buses are process-local).
        """
        deltas = dict(self.dataplane.flush_cache_metrics())
        if self._stack_cache is not None:
            flushed = self._flushed
            for index, (name, counter, value) in enumerate((
                    ("stack_hits", _STACK_HITS, self.stack_cache_hits),
                    ("stack_misses", _STACK_MISSES,
                     self.stack_cache_misses))):
                delta = value - flushed[index]
                if delta:
                    counter.inc(delta)
                deltas[name] = delta
                flushed[index] = value
        hits = sum(value for name, value in deltas.items()
                   if name.endswith("_hits"))
        misses = sum(value for name, value in deltas.items()
                     if name.endswith("_misses"))
        if hits or misses:
            emit("cache.flush", hits=hits, misses=misses, **deltas)

    # -- internals -----------------------------------------------------------

    def _reply_for(self, monitor: Monitor, dst_addr: int, ttl: int,
                   obs: HopObs, loss_prefix: Optional[int],
                   rtt_prefix: int) -> TraceHop:
        """The probe's reply; the prefixes are :meth:`trace`'s folds.

        The probe is lost when ``flow_hash(seed, src, dst, ttl) / 2**64
        < loss_rate`` (never when ``loss_prefix`` is None, i.e. loss is
        off); the RTT jitter is ``flow_hash(seed, 0x277, src, dst, ttl)
        % 4000`` microseconds.
        """
        if not obs.responsive or (
                loss_prefix is not None
                and flow_hash_extend(loss_prefix, ttl) / _LOSS_SCALE
                < self.loss_rate):
            return TraceHop(probe_ttl=ttl, address=None)
        stack = ()
        if obs.labels and obs.quotes_labels:
            cache = self._stack_cache
            if cache is None:
                stack = self._decode_stack(monitor, dst_addr, ttl, obs)
            else:
                key = (obs.labels, obs.lse_ttl)
                stack = cache.get(key)
                if stack is None:
                    self.stack_cache_misses += 1
                    stack = self._decode_stack(monitor, dst_addr, ttl,
                                               obs)
                    cache[key] = stack
                else:
                    self.stack_cache_hits += 1
        return TraceHop(
            probe_ttl=ttl,
            address=obs.address,
            rtt_ms=1.0 + 1.8 * ttl
            + flow_hash_extend(rtt_prefix, ttl) % 4000 / 1000.0,
            quoted_stack=stack,
            quoted_ttl=obs.quoted_ttl,
        )

    def _decode_stack(self, monitor: Monitor, dst_addr: int, ttl: int,
                      obs: HopObs) -> tuple:
        """Encode + re-decode the ICMP time-exceeded reply.

        The RFC 4884 structure carries an RFC 4950 MPLS object; parsing
        it back is the byte path a real traceroute implementation
        takes.  The decoded stack is a pure function of ``(obs.labels,
        obs.lse_ttl)`` — the quoted probe datagram is skipped by the
        decoder — which is what makes the per-stack cache exact.
        """
        wire_stack = LabelStack([
            LabelStackEntry(
                label=label,
                tc=0,
                bottom=(index == len(obs.labels) - 1),
                ttl=obs.lse_ttl,  # LSE-TTL the expiring probe wore
            )
            for index, label in enumerate(obs.labels)
        ])
        message = TimeExceeded(
            quoted=build_probe_quote(monitor.src_addr, dst_addr, ttl),
            stack=wire_stack,
        )
        return tuple(TimeExceeded.decode(message.encode()).stack)
