"""The forwarding plane: computing the hop-by-hop path of a probe flow.

Given the current network state, :class:`DataPlane` computes the sequence
of hop observations a Paris-traceroute flow produces: for every traversed
router, the interface address it would reply from and the MPLS label stack
the probe carried when its TTL expired there (what RFC 4950 quotes).

Paris semantics make the path a pure function of (flow key, network
state), so per-AS segments are enumerated once and cached; a flow then
just selects one equal-cost segment by hash.  Segments depend only on
the immutable intra-AS topology (plus any links flapped away this era),
so the cache — a :class:`~repro.sim.network.SegmentCache` hosted on the
:class:`~repro.sim.network.Internet` — is *shared* across every
DataPlane of a study: rebuilding the DataPlane each snapshot changes the
era (the flap/churn draw) without throwing the warm path enumerations
away.

On top of the internet-scoped segment cache sit two **era-scoped**
memoizations (DESIGN §8), both exact:

* a :class:`RouteCache` memoizing the destination-based decisions —
  IP2AS origin, BGP AS-path and per-AS egress selection — per
  destination /24 (every probe of a traceroute, and every monitor pair
  aimed at the same /24, repeats them verbatim);
* a hop-materialization cache in :meth:`DataPlane._walk_as` keyed by
  ``(asn, entry, target, segment index | TE session, internal)``:
  within one era an LSP's observable hops are flow-invariant, so the
  frozen :class:`HopObs` tuples are built once and shared as flyweights
  across every trace that rides the same LSP.

Both caches die with the DataPlane because flap/churn draws are per era;
the segment cache survives because segments are era-independent modulo
the flapped-link set (which keys its degraded entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..igp.ecmp import flow_hash, flow_hash_extend
from ..mpls.fec import PrefixFec
from ..mpls.vendor import get_profile
from ..net.ip import Prefix
from ..obs import get_registry
from .network import (
    AsNetwork,
    Internet,
    SegmentCache,
    destination_prefix,
)

_ROUTE_HITS = get_registry().counter(
    "route_cache_hits_total",
    "Destination /24 route resolutions served from a RouteCache")
_ROUTE_MISSES = get_registry().counter(
    "route_cache_misses_total",
    "Route resolutions computed and memoized (first probe to a /24)")
_HOP_HITS = get_registry().counter(
    "hop_cache_hits_total",
    "Per-AS hop materializations served from the era's hop cache")
_HOP_MISSES = get_registry().counter(
    "hop_cache_misses_total",
    "Per-AS hop sequences materialized and memoized")

# Hop-cache key tags: which forwarding branch materialized the entry.
_TE, _LDP, _IP = 0, 1, 2


@dataclass(frozen=True)
class HopObs:
    """One router the probe crosses, as traceroute would observe it.

    Attributes:
        asn: AS owning the router.
        router_id: router id inside that AS (-1 for the destination host).
        address: interface address the reply carries.
        labels: label values on the probe when it arrived here (top
            first); empty outside tunnels and at PHP exit hops.
        responsive: whether the router replies to probes at all.
        quotes_labels: whether the router implements RFC 4950.
        quoted_ttl: the IP-TTL the ICMP reply quotes (qTTL).  Inside a
            ttl-propagating tunnel the IP header stops being
            decremented, so the j-th LSR quotes j+1 — the implicit-
            tunnel signature.
        lse_ttl: LSE-TTL carried when the probe expired here.  1 under
            ttl-propagate; in *opaque* tunnels (RFC 4950 without
            propagation) the single revealing hop quotes
            255 - tunnel length + 1.
    """

    asn: int
    router_id: int
    address: int
    labels: Tuple[int, ...] = ()
    responsive: bool = True
    quotes_labels: bool = True
    quoted_ttl: int = 1
    lse_ttl: int = 1


class UnreachableError(RuntimeError):
    """Raised when no valley-free route exists towards the destination."""


class RouteCache:
    """Destination-based routing decisions, memoized per /24.

    IP2AS origin lookup, the BGP AS-path and every transit AS's egress
    (plus the neighbor border's :class:`HopObs`) are functions of the
    destination /24 alone — never of the flow key — so one resolution
    serves every probe of every traceroute towards that /24 within an
    era.  ``hits``/``misses`` count once per ``forward_path`` call, so
    ``hits + misses`` reconciles exactly with the traces issued over
    this cache (including unreachable destinations, whose negative
    entries are memoized too).
    """

    __slots__ = ("hits", "misses", "routes", "egress")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        # (src_asn, dst_addr >> 8) -> (dst_origin | None, as_path | None,
        # dst_prefix); origin None = no simulated AS, path None = no route.
        self.routes: Dict[Tuple[int, int], tuple] = {}
        # (asn, next_asn, dst /24 network) -> (egress router, remote
        # router, remote border HopObs)
        self.egress: Dict[Tuple[int, int, int], tuple] = {}


class _FecLabels:
    """``label_of`` for an LDP FEC: router -> label from its LFIB.

    A tiny callable object instead of a per-probe closure: the LFIB
    accessor and FEC are bound once per LSP materialization.
    """

    __slots__ = ("_lfib", "_fec")

    def __init__(self, lfib, fec: PrefixFec):
        self._lfib = lfib
        self._fec = fec

    def __call__(self, router: int) -> Optional[int]:
        return self._lfib(router).label_for(self._fec)


class DataPlane:
    """Flow-level forwarding over one frozen network state.

    ``era`` identifies the snapshot being forwarded; together with
    ``flap_rate`` it selects a deterministic set of transiently failed
    links (withdrawn from the IGP for this era only), the routing noise
    that the paper's Persistence filter exists to remove.

    ``memoize`` enables the per-era route/hop caches (on by default —
    they are exact, so results are bit-identical either way; switching
    them off exists for benchmarking the uncached reference).  The
    DataPlane must not outlive control-plane mutations: rebuild it after
    any ``apply_policies``/``tick``/label churn, as the simulators do.
    """

    def __init__(self, internet: Internet, era: int = 0,
                 flap_rate: float = 0.0, egress_noise: float = 0.0,
                 cache: Optional[SegmentCache] = None,
                 memoize: bool = True):
        if not 0.0 <= flap_rate < 1.0:
            raise ValueError(f"flap_rate out of [0,1): {flap_rate}")
        if not 0.0 <= egress_noise < 1.0:
            raise ValueError(
                f"egress_noise out of [0,1): {egress_noise}")
        self.internet = internet
        self.era = era
        self.flap_rate = flap_rate
        # Hot-potato churn: per era, this share of (AS, neighbor,
        # destination) egress decisions shifts to another peering link,
        # rerouting everything downstream of it — the second component
        # of the routing noise the Persistence filter removes.
        self.egress_noise = egress_noise
        # Equal-cost segments: by default the internet-wide shared
        # cache (segments are era-independent modulo flapped links).
        self._cache = cache if cache is not None \
            else internet.segment_cache
        self._flapped: Dict[int, frozenset] = {}
        self.memoize = memoize
        self.route_cache: Optional[RouteCache] = \
            RouteCache() if memoize else None
        self._hop_cache: Optional[Dict[tuple, Tuple[HopObs, ...]]] = \
            {} if memoize else None
        self.hop_cache_hits = 0
        self.hop_cache_misses = 0
        self._flushed = [0, 0, 0, 0]

    def flapped_links(self, asn: int) -> frozenset:
        """Link ids of one AS that are down during this era."""
        cached = self._flapped.get(asn)
        if cached is None:
            bound = int(self.flap_rate * 10_000)
            if bound:
                # flow_hash(0xF1A9, era, asn, link_id), prefix folded
                # once per AS.
                prefix = flow_hash(0xF1A9, self.era, asn)
                cached = frozenset(
                    link_id
                    for link_id in self.internet.network(asn).topology.links
                    if flow_hash_extend(prefix, link_id) % 10_000 < bound
                )
            else:
                cached = frozenset()
            self._flapped[asn] = cached
        return cached

    # -- public API ----------------------------------------------------------

    def forward_path(self, src_asn: int, src_router: int, src_addr: int,
                     dst_addr: int, flow_id: int = 0) -> List[HopObs]:
        """All hops from (but excluding) the source attachment router.

        The first element is the hop *after* the source router inside the
        source AS (traceroute's own first hop — the attachment gateway —
        is added by the traceroute engine, which knows its LAN address).
        Raises :class:`UnreachableError` when BGP offers no route.

        ``flow_id`` models the transport fields a flow-varying prober
        (MDA) mutates: it changes per-hop ECMP choices but — like real
        port variation — neither the BGP decision nor a TE tunnel
        selection, which are destination-based.
        """
        dst_origin, as_path, dst_prefix = \
            self._resolve_route(src_asn, dst_addr)
        if dst_origin is None:
            raise UnreachableError(
                f"destination {dst_addr} maps to no simulated AS"
            )
        if as_path is None:
            raise UnreachableError(
                f"no route from AS{src_asn} to AS{dst_origin}"
            )
        flow_digest = flow_hash(src_addr, dst_addr, flow_id)

        hops: List[HopObs] = []
        entry_router = src_router
        for position, asn in enumerate(as_path):
            network = self.internet.network(asn)
            last_as = position == len(as_path) - 1
            if last_as:
                target = self._attachment_router(network, dst_addr)
                hops.extend(self._walk_as(network, entry_router, target,
                                          dst_prefix, flow_digest,
                                          internal=True))
                hops.append(HopObs(asn=asn, router_id=-1, address=dst_addr,
                                   labels=(), responsive=True,
                                   quotes_labels=False))
                break
            next_asn = as_path[position + 1]
            egress, remote_router, remote_hop = \
                self._transit_step(asn, next_asn, dst_prefix)
            hops.extend(self._walk_as(network, entry_router, egress,
                                      dst_prefix, flow_digest,
                                      internal=False))
            # The inter-AS step: the neighbor's border replies with its
            # side of the peering link.
            hops.append(remote_hop)
            entry_router = remote_router
        return hops

    def flush_cache_metrics(self) -> Dict[str, int]:
        """Publish cache hit/miss deltas to the :mod:`repro.obs` registry.

        Deltas since the last flush, so repeated flushes (one per
        ``trace_all``) never double-count.  These counters describe
        per-process cache behaviour: serial and sharded runs split the
        same probe stream over differently warmed caches, so the
        checkpoint layer strips them from persisted metrics deltas
        (DESIGN §8) — total probe/trace counters stay layout-invariant.

        Returns this flush's deltas keyed by layer/side (e.g.
        ``route_hits``) so the traceroute engine can fold them into one
        ``cache.flush`` flight-recorder event.
        """
        route = self.route_cache
        if route is None:
            return {}
        flushed = self._flushed
        deltas: Dict[str, int] = {}
        for index, (name, counter, value) in enumerate((
                ("route_hits", _ROUTE_HITS, route.hits),
                ("route_misses", _ROUTE_MISSES, route.misses),
                ("hop_hits", _HOP_HITS, self.hop_cache_hits),
                ("hop_misses", _HOP_MISSES, self.hop_cache_misses))):
            delta = value - flushed[index]
            if delta:
                counter.inc(delta)
            deltas[name] = delta
            flushed[index] = value
        return deltas

    # -- helpers -------------------------------------------------------------

    def _resolve_route(self, src_asn: int, dst_addr: int) -> tuple:
        """(origin, AS-path, /24 prefix) for a destination, memoized.

        Origin None means the address maps to no simulated AS; path
        None means BGP offers no route — callers raise the matching
        :class:`UnreachableError` with the *probed* address, so error
        text is identical whether or not the negative entry was cached.
        """
        cache = self.route_cache
        if cache is None:
            return self._compute_route(src_asn, dst_addr)
        key = (src_asn, dst_addr >> 8)
        entry = cache.routes.get(key)
        if entry is None:
            cache.misses += 1
            entry = self._compute_route(src_asn, dst_addr)
            cache.routes[key] = entry
        else:
            cache.hits += 1
        return entry

    def _compute_route(self, src_asn: int, dst_addr: int) -> tuple:
        dst_origin = self.internet.ip2as.lookup_single(dst_addr)
        if dst_origin not in self.internet.networks:
            return (None, None, None)
        as_path = self.internet.routing.as_path(src_asn, dst_origin)
        return (dst_origin, as_path, Prefix.from_host(dst_addr, 24))

    def _transit_step(self, asn: int, next_asn: int,
                      dst_prefix: Prefix) -> tuple:
        """(egress router, remote router, remote HopObs), memoized.

        The egress decision and the neighbor border's observation are
        destination-/24-based, so one resolution serves every flow.
        """
        cache = self.route_cache
        if cache is not None:
            key = (asn, next_asn, dst_prefix.network)
            step = cache.egress.get(key)
            if step is not None:
                return step
        (egress, _egress_addr, _remote_asn, remote_router,
         remote_addr) = self._egress_towards(asn, next_asn, dst_prefix)
        remote_hop = self._plain_hop(self.internet.network(next_asn),
                                     remote_router, remote_addr)
        step = (egress, remote_router, remote_hop)
        if cache is not None:
            cache.egress[key] = step
        return step

    def _egress_towards(self, asn: int, next_asn: int,
                        dst_prefix: Prefix):
        """Egress link selection, with per-era hot-potato churn."""
        links = self.internet.network(asn).interas.get(next_asn)
        if not links:
            raise UnreachableError(
                f"AS{asn} has no link to AS{next_asn}")
        index = flow_hash(dst_prefix.network, asn, next_asn) % len(links)
        if self.egress_noise and len(links) > 1:
            churned = flow_hash(0xB6, self.era, asn, next_asn,
                                dst_prefix.network) % 10_000 \
                < self.egress_noise * 10_000
            if churned:
                index = (index + 1) % len(links)
        return links[index]

    def _attachment_router(self, network: AsNetwork, dst_addr: int) -> int:
        prefix_index = (dst_addr >> 8) & 0xFF
        return network.attachment_of(prefix_index)

    def _plain_hop(self, network: AsNetwork, router_id: int,
                   address: int, labels: Tuple[int, ...] = (),
                   quoted_ttl: int = 1, lse_ttl: int = 1) -> HopObs:
        router = network.topology.routers[router_id]
        return HopObs(
            asn=network.asn,
            router_id=router_id,
            address=address,
            labels=labels,
            responsive=router.responsive,
            quotes_labels=get_profile(router.vendor).rfc4950,
            quoted_ttl=quoted_ttl,
            lse_ttl=lse_ttl,
        )

    def _segments(self, network: AsNetwork, entry: int, target: int
                  ) -> List[list]:
        """Equal-cost (router, link) step sequences from entry to target.

        When the AS has flapped links this era, the DAG is recomputed on
        the reduced topology (falling back to the intact one if the flap
        would disconnect the pair — a flap on the only path reconverges
        before traffic is affected at our observation timescale).
        """
        flapped = self.flapped_links(network.asn)
        if flapped:
            return self._cache.degraded_segments(network, entry,
                                                 target, flapped)
        return self._cache.base_segments(network, entry, target)

    def _pick_segment(self, network: AsNetwork, entry: int, target: int,
                      flow_digest: int) -> Tuple[int, list]:
        """The flow's equal-cost segment, plus its index (the flow-
        dependent part of a hop-cache key)."""
        segments = self._segments(network, entry, target)
        if not segments:
            raise UnreachableError(
                f"AS{network.asn}: router {target} unreachable "
                f"from {entry}"
            )
        index = flow_hash(flow_digest, network.asn, entry, target) \
            % len(segments)
        return index, segments[index]

    def _cached_hops(self, key: tuple) -> Optional[Tuple[HopObs, ...]]:
        cache = self._hop_cache
        if cache is None:
            return None
        hops = cache.get(key)
        if hops is not None:
            self.hop_cache_hits += 1
        return hops

    def _store_hops(self, key: tuple,
                    hops: Tuple[HopObs, ...]) -> Tuple[HopObs, ...]:
        if self._hop_cache is not None:
            self.hop_cache_misses += 1
            self._hop_cache[key] = hops
        return hops

    def _walk_as(self, network: AsNetwork, entry: int, target: int,
                 dst_prefix: Prefix, flow_digest: int,
                 internal: bool) -> Sequence[HopObs]:
        """Hops after the entry router, up to and including the target.

        Chooses between a TE tunnel, an LDP LSP, and plain IP forwarding
        according to the AS's current policy; emits label observations
        exactly as the probes would collect them.  Materialized hop
        tuples are cached per (AS pair, chosen LSP/segment): all flow
        dependence is captured by the segment index (or, for TE, the
        destination-selected session), so cached entries are exact and
        the frozen :class:`HopObs` flyweights can be shared across
        traces.  SR hops are never cached — their shrinking label
        stacks depend on the flow's ECMP walk itself.
        """
        if entry == target:
            return ()
        policy = network.policy
        if policy.enabled and (policy.ldp or policy.uses_te
                               or policy.uses_sr):
            session = network.te_tunnel_for(entry, target, dst_prefix)
            if session is not None:
                key = (network.asn, entry, target, _TE,
                       session.fec.tunnel_id, session.fec.instance,
                       internal)
                hops = self._cached_hops(key)
                if hops is None:
                    hops = self._store_hops(key, tuple(self._mpls_hops(
                        network, session.route, session.labels.get)))
                return hops
            if not internal:
                sr_policy = network.sr_policy_for(entry, target,
                                                  dst_prefix)
                if sr_policy is not None:
                    return self._sr_hops(network, sr_policy, flow_digest)
            use_ldp = policy.ldp and (
                policy.ldp_internal if internal
                else network.ldp_pair_active(entry, target)
            )
            if use_ldp:
                fec = network.transit_fec(target)
                if fec is not None:
                    index, steps = self._pick_segment(
                        network, entry, target, flow_digest)
                    key = (network.asn, entry, target, _LDP, index,
                           internal)
                    hops = self._cached_hops(key)
                    if hops is None:
                        hops = self._store_hops(key, tuple(
                            self._mpls_hops(
                                network, steps,
                                _FecLabels(network.labels.lfib, fec))))
                    return hops
        index, steps = self._pick_segment(network, entry, target,
                                          flow_digest)
        key = (network.asn, entry, target, _IP, index, internal)
        hops = self._cached_hops(key)
        if hops is None:
            hops = self._store_hops(key, tuple(
                self._plain_hop(network, router, link.address_of(router))
                for router, link in steps))
        return hops

    def _sr_hops(self, network: AsNetwork, sr_policy,
                 flow_digest: int) -> List[HopObs]:
        """Observations along one segment-routing policy.

        Unlike LDP/RSVP-TE, probes carry shrinking multi-entry stacks:
        each hop quotes whatever remained when its TTL expired.
        """
        steps = network.sr.walk(sr_policy, flow_digest)
        if not network.policy.ttl_propagate:
            router, link, _stack = steps[-1]
            return [self._plain_hop(network, router,
                                    link.address_of(router))]
        return [
            self._plain_hop(network, router, link.address_of(router),
                            labels=stack,
                            quoted_ttl=position + 2 if stack else 1)
            for position, (router, link, stack) in enumerate(steps)
        ]

    def _mpls_hops(self, network: AsNetwork, steps: Sequence[tuple],
                   label_of) -> List[HopObs]:
        """Observations along one LSP.

        ``label_of(router)`` returns the label that router allocated for
        the FEC/session (None at a PHP egress).

        Without ttl-propagate the LSRs never see the probe expire and
        only the hop past the tunnel appears.  If that router implements
        RFC 4950, the tunnel is *opaque*: the one revealing hop quotes
        the LSE with its barely-decremented TTL (255 - length + 1),
        betraying the tunnel's length; without RFC 4950 the tunnel is
        fully *invisible*.

        With ttl-propagate, the IP header stops being decremented inside
        the tunnel, so the j-th LSR's ICMP reply quotes IP-TTL j+1 — the
        qTTL signature that reveals *implicit* tunnels (labels absent)
        and is also present, redundantly, on explicit ones.
        """
        if not network.policy.ttl_propagate:
            router, link = steps[-1]
            if len(steps) >= 2:
                previous = steps[-2][0]
                label = label_of(previous)
            else:
                label = None
            if label is not None:
                return [self._plain_hop(
                    network, router, link.address_of(router),
                    labels=(label,),
                    lse_ttl=255 - (len(steps) - 1),
                )]
            return [self._plain_hop(network, router,
                                    link.address_of(router))]
        hops = []
        for position, (router, link) in enumerate(steps):
            label = label_of(router)
            labels = (label,) if label is not None else ()
            hops.append(self._plain_hop(
                network, router, link.address_of(router),
                labels=labels,
                quoted_ttl=position + 2 if labels else 1,
            ))
        return hops
