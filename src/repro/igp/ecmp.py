"""Deterministic per-flow ECMP next-hop selection.

Real routers hash selected header fields (addresses, protocol, ports) and
use the digest to pick one of the equal-cost successors.  Paris traceroute
keeps those fields constant across the TTL sweep so that one trace follows
one consistent path; different destinations hash to different branches.

Python's builtin ``hash`` is salted per process, so we implement a small
stable 64-bit mixer (splitmix64 over a running state) that gives the same
branch decisions for the same flow across runs and machines.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .spf import NextHop

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def flow_hash(*fields: int) -> int:
    """Stable 64-bit hash of integer header fields.

    >>> flow_hash(1, 2, 3) == flow_hash(1, 2, 3)
    True
    >>> flow_hash(1, 2, 3) != flow_hash(1, 2, 4)
    True
    """
    digest = 0x243F6A8885A308D3  # pi, nothing up the sleeve
    # The fold of flow_hash_extend, inlined: this is the simulator's
    # hottest call and the extra frame costs about 15% of it.
    for field in fields:
        digest = _splitmix64(digest ^ (field & _MASK64))
    return digest


def flow_hash_extend(digest: int, *fields: int) -> int:
    """Continue the fold of a :func:`flow_hash` digest over more fields.

    ``flow_hash(*a, *b) == flow_hash_extend(flow_hash(*a), *b)``, so a
    caller hashing many tuples that share a prefix folds the prefix once
    and pays one mixing round per remaining field.

    >>> flow_hash_extend(flow_hash(1, 2), 3) == flow_hash(1, 2, 3)
    True
    """
    for field in fields:
        digest = _splitmix64(digest ^ (field & _MASK64))
    return digest


class FlowKey:
    """The header fields a hash-based load balancer inspects.

    ICMP-Paris probes (what Archipelago sends) keep checksum and identifier
    constant per destination, so the per-flow key reduces to addresses plus
    protocol.  Transport probes would add ports.
    """

    __slots__ = ("src", "dst", "proto", "sport", "dport")

    def __init__(self, src: int, dst: int, proto: int = 1, sport: int = 0,
                 dport: int = 0):
        self.src = src
        self.dst = dst
        self.proto = proto
        self.sport = sport
        self.dport = dport

    def digest(self, per_router_salt: int = 0) -> int:
        """Hash the key; the salt models per-router hash seed diversity."""
        return flow_hash(
            self.src, self.dst, self.proto, self.sport, self.dport,
            per_router_salt,
        )

    def __repr__(self) -> str:
        return (
            f"FlowKey(src={self.src}, dst={self.dst}, proto={self.proto})"
        )


def select_next_hop(choices: Sequence[NextHop], key: FlowKey,
                    router_salt: int = 0) -> NextHop:
    """Pick one successor for a flow among equal-cost choices.

    The choice is a pure function of (flow key, router salt, choice count):
    the same flow always takes the same branch at the same router, which is
    exactly the invariant Paris traceroute relies on.
    """
    if not choices:
        raise ValueError("no next hops to choose from")
    if len(choices) == 1:
        return choices[0]
    index = key.digest(router_salt) % len(choices)
    return choices[index]


def branch_distribution(choices_count: int, keys: Sequence[FlowKey],
                        router_salt: int = 0) -> List[int]:
    """Histogram of branch picks for a set of flows (testing/diagnostics)."""
    counts = [0] * choices_count
    for key in keys:
        counts[key.digest(router_salt) % choices_count] += 1
    return counts
