"""Warm-start snapshots of the simulated control plane.

A C-cycle campaign sharded S ways makes every worker rebuild its
starting state by replaying cycles ``1..first-1``
(:meth:`~repro.sim.ark.ArkSimulator.fast_forward`) — O(C²) aggregate
replay before the first probe.  The :class:`StateStore` removes that
wall: full :meth:`~repro.sim.network.Internet.capture_state` snapshots
are persisted every ``snapshot_stride`` cycles, and anyone needing the
state *after* cycle N loads the nearest snapshot ≤ N and replays only
the tail — near-O(1) in campaign length once the store is warm
(DESIGN §10).

The runner's one state cursor (``repro.par.runner._Cursor``) is the
only reader and writer: it restores the newest usable snapshot that
skips no missing stride multiple, replays the rest, and writes each
missing snapshot it passes, whether replaying or probing.  So a pool
parent seeds the store in one pass before dispatch, workers replay only
their tail, and an interrupted ``repro study --state-dir DIR`` resumes
warm.

The store is a sibling of :class:`~repro.par.checkpoint.CheckpointStore`
and inherits its trust model: content-addressed directory
(``<state-dir>/<spec-hash>/state-<cycle>.snap``), the spec hash embedded
in every file and re-verified on load, atomic temp-file +
``os.replace`` writes, and hit/miss/write/rejected counters
(``state_snapshot_*``) plus ``snapshot.hit/miss/write/rejected``
flight-recorder events.  A corrupt, foreign-spec or wrong-version
snapshot is *rejected* — the search falls back to the next older
snapshot, and ultimately to a cold replay — never silently restored.

Snapshots are pure control-plane state (DESIGN §6: probing never
mutates the network), so a warm-started run is byte-identical to a
replayed one — results, artifacts, checkpoints and end-state
fingerprints alike (asserted in ``tests/test_statestore.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional, Tuple

from ..obs import emit, get_logger, get_registry

STATE_VERSION = 1
"""Bumped when the snapshot container shape changes; old files are then
rejected (reason ``version``) instead of mis-read."""

DEFAULT_SNAPSHOT_STRIDE = 8
"""Cycles between snapshots.  Smaller strides cut tail replay, larger
strides cut disk and capture time; 8 keeps the worst-case tail under
one stride while a 60-cycle campaign stores only 7 snapshots."""

_FILE_PATTERN = re.compile(r"^state-(\d{4})\.snap$")

_log = get_logger(__name__)
_HITS = get_registry().counter(
    "state_snapshot_hits_total",
    "Warm starts served from a state snapshot instead of full replay")
_MISSES = get_registry().counter(
    "state_snapshot_misses_total",
    "State lookups that found no usable snapshot (cold replay)")
_WRITES = get_registry().counter(
    "state_snapshot_writes_total",
    "Control-plane snapshots persisted to disk")
_REJECTED = get_registry().counter(
    "state_snapshot_rejected_total",
    "Snapshot files rejected instead of restored, by reason")


def state_spec_hash(spec) -> str:
    """Content hash naming one spec's snapshot directory.

    Same construction as the checkpoint layer's
    :func:`~repro.par.checkpoint.spec_hash`, but mixing in the *state*
    format version: snapshot and checkpoint formats evolve
    independently, so their directories must too.
    """
    payload = json.dumps(
        {"state_version": STATE_VERSION, **asdict(spec)},
        sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class StateStore:
    """Loads and saves control-plane snapshots under one spec's dir."""

    def __init__(self, root, spec):
        self.spec_hash = state_spec_hash(spec)
        self.directory = Path(root) / self.spec_hash

    def path_for(self, cycle: int) -> Path:
        return self.directory / f"state-{cycle:04d}.snap"

    def has(self, cycle: int) -> bool:
        """Whether a snapshot file exists for a cycle (unverified)."""
        return self.path_for(cycle).exists()

    def cycles(self) -> List[int]:
        """Cycles with a snapshot file on disk, ascending."""
        if not self.directory.is_dir():
            return []
        found = []
        for name in os.listdir(self.directory):
            match = _FILE_PATTERN.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def save(self, cycle: int, state) -> Path:
        """Atomically persist one snapshot; returns its path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(cycle)
        payload = {
            "version": STATE_VERSION,
            "spec_hash": self.spec_hash,
            "cycle": cycle,
            "state": state,
        }
        handle, tmp = tempfile.mkstemp(dir=self.directory,
                                       prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(payload, stream,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _WRITES.inc()
        _log.info("snapshot.written", path=str(path), cycle=cycle)
        emit("snapshot.write", path=path.name, cycle=cycle)
        return path

    def load(self, cycle: int):
        """One cycle's verified state, or None (missing or rejected)."""
        path = self.path_for(cycle)
        try:
            with open(path, "rb") as stream:
                payload = pickle.load(stream)
        except FileNotFoundError:
            return None
        except Exception as error:  # garbage pickles fail arbitrarily
            self._reject(path, "corrupt", error)
            return None
        return self._verify(path, cycle, payload)

    def load_nearest(self, target: int, after: int = 0
                     ) -> Optional[Tuple[int, object]]:
        """The newest usable snapshot in ``(after, target]``.

        Returns ``(cycle, state)``; candidates are tried newest-first,
        so a rejected file degrades the warm start instead of failing
        it.  ``after`` lets a mid-run caller skip snapshots at or
        before its current position.  A fruitless search counts one
        miss (a cold replay will follow).
        """
        for cycle in reversed(self.cycles()):
            if cycle > target or cycle <= after:
                continue
            state = self.load(cycle)
            if state is not None:
                _HITS.inc()
                saved = cycle - after
                _log.info("snapshot.hit", cycle=cycle, target=target,
                          saved=saved)
                emit("snapshot.hit", cycle=cycle, target=target,
                     saved=saved)
                return cycle, state
        _MISSES.inc()
        emit("snapshot.miss", target=target)
        return None

    # -- internals -----------------------------------------------------------

    def _verify(self, path: Path, cycle: int, payload):
        if not isinstance(payload, dict):
            return self._reject(path, "corrupt")
        if payload.get("version") != STATE_VERSION:
            return self._reject(path, "version")
        if payload.get("spec_hash") != self.spec_hash:
            return self._reject(path, "spec_mismatch")
        if payload.get("cycle") != cycle or payload.get("state") is None:
            return self._reject(path, "corrupt")
        return payload["state"]

    def _reject(self, path: Path, reason: str, error=None) -> None:
        _REJECTED.inc(reason=reason)
        _log.warning("snapshot.rejected", path=str(path), reason=reason,
                     **({"error": str(error)} if error else {}))
        emit("snapshot.rejected", path=path.name, reason=reason)
        return None
