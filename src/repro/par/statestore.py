"""Warm-start snapshots of the simulated control plane (DESIGN §10).

Full :meth:`~repro.sim.network.Internet.capture_state` snapshots every
``snapshot_stride`` cycles let a worker or a resumed run restore the
nearest one and replay only the tail, instead of every cycle from 1.
The runner's state cursor (``repro.par.runner._Cursor``) is the only
reader and writer.

Keys are ``state-<cycle>.snap`` in a :class:`~repro.par.store.Store`;
a stored envelope must name the cycle it was saved for and hold a
state.  Probing never mutates the network (DESIGN §6), so a
warm-started run is byte-identical to a replayed one.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Tuple

from .store import STATE_VERSION, Store, family_counters  # noqa: F401

DEFAULT_SNAPSHOT_STRIDE = 8
"""Cycles between snapshots.  Smaller strides cut tail replay, larger
strides cut disk and capture time; 8 keeps the worst-case tail under
one stride while a 60-cycle campaign stores only 7 snapshots."""


class StateStore(Store):
    """Loads and saves control-plane snapshots under one spec's dir."""

    version_key = "state_version"
    event = "snapshot"
    counters = family_counters(
        "state_snapshot",
        hit="Warm starts served from a state snapshot instead of full "
            "replay",
        miss="State lookups that found no usable snapshot (cold replay)",
        write="Control-plane snapshots persisted to disk",
        rejected="Snapshot files rejected instead of restored, by reason")
    file_pattern = re.compile(r"^state-(\d{4,})\.snap$")
    missing_is_miss = False

    def path_for(self, cycle: int) -> Path:
        return self.directory / f"state-{cycle:04d}.snap"

    def has(self, cycle: int) -> bool:
        """Whether a snapshot file exists for a cycle (unverified)."""
        return self.path_for(cycle).exists()

    def cycles(self) -> List[int]:
        """Cycles with a snapshot file on disk, ascending."""
        return [cycle for cycle, in self.keys()]

    def save(self, cycle: int, state) -> Path:
        """Atomically persist one snapshot; returns its path."""
        return self._write(self.path_for(cycle),
                           {"cycle": cycle, "state": state}, cycle=cycle)

    def load(self, cycle: int):
        """One cycle's verified state, or None (missing or rejected)."""
        envelope = self._read(
            self.path_for(cycle),
            lambda envelope: (envelope.get("cycle") == cycle
                              and envelope.get("state") is not None))
        return None if envelope is None else envelope["state"]

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
                self._record("hit", cycle=cycle, target=target,
                             saved=cycle - after)
                return cycle, state
        self._record("miss", target=target)
        return None
