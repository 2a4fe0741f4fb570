"""Shard checkpoints: each finished shard's
:class:`~repro.par.runner.ShardResult`, so a restarted study runs only
what is missing (DESIGN §8).

Keys are ``shard-<first>-<last>.ckpt``, plus ``-b<index>-<count>`` for
a pair block, in a :class:`~repro.par.store.Store`; a stored result
must carry cycle results or block snapshots.  Saved deltas drop the
layout-dependent counters, so a cycle range's file is byte-identical
whatever worker layout wrote it, and any layout's files can restore
another's plan.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path
from typing import Optional, Tuple

from .store import CHECKPOINT_VERSION, Store, family_counters  # noqa: F401

LAYOUT_DEPENDENT_PREFIXES = (
    "route_cache_", "hop_cache_", "quoted_stack_cache_",
    "state_snapshot_", "ip2as_lookup_cache_",
    "worker_", "par_shards_stalled")
"""Metric-name prefixes stripped from persisted deltas: they count how
work was split over caches and processes, how warm the state store
was, or per-run telemetry (resource gauges, stalls) — execution
detail, not campaign results."""


def strip_layout_dependent(delta: dict) -> dict:
    """A metrics delta without the per-process cache counters.

    Preserves the (sorted) key order of the input, so equal stripped
    deltas pickle to equal bytes.
    """
    return {name: payload for name, payload in delta.items()
            if not name.startswith(LAYOUT_DEPENDENT_PREFIXES)}


class CheckpointStore(Store):
    """Loads and saves shard results under one spec's directory."""

    version_key = "checkpoint_version"
    event = "checkpoint"
    counters = family_counters(
        "par_checkpoint",
        hit="Shards restored from a checkpoint instead of re-run",
        miss="Shard checkpoint lookups that found no file",
        write="Shard checkpoints persisted to disk",
        rejected="Checkpoint files rejected instead of reused, by reason")
    file_pattern = re.compile(
        r"^shard-(\d{4,})-(\d{4,})(?:-b(\d{4,})-(\d{4,}))?\.ckpt$")
    missing_is_miss = True

    def path_for(self, first: int, last: int,
                 block: Optional[Tuple[int, int]] = None) -> Path:
        if block is not None:
            index, count = block
            return self.directory / (
                f"shard-{first:04d}-{last:04d}"
                f"-b{index:04d}-{count:04d}.ckpt")
        return self.directory / f"shard-{first:04d}-{last:04d}.ckpt"

    def load(self, first: int, last: int,
             block: Optional[Tuple[int, int]] = None):
        """The stored ShardResult for one cycle/pair range, or None."""
        from .runner import ShardResult  # circular at module load time

        def valid(envelope) -> bool:
            result = envelope.get("result")
            return isinstance(result, ShardResult) and bool(
                result.results or result.snapshots)

        path = self.path_for(first, last, block)
        envelope = self._read(path, valid)
        if envelope is None:
            return None
        result = envelope["result"]
        self._record("hit", path=path.name, cycles=len(result.results))
        return result

    def save(self, result) -> Path:
        """Atomically persist one shard result; returns its path.

        Pair-block results are keyed by their (cycle, pair-range);
        every stored delta has the layout-dependent counters stripped.
        """
        if result.block is not None:
            cycle, index, count = result.block
            path = self.path_for(cycle, cycle, (index, count))
        else:
            path = self.path_for(result.results[0].cycle,
                                 result.results[-1].cycle)
        # Spans and the replay count are per-run schedule detail.
        stored = replace(
            result,
            metrics_delta=strip_layout_dependent(result.metrics_delta),
            replayed_cycles=0,
            spans=None)
        return self._write(path, {"result": stored},
                           cycles=len(result.results))
