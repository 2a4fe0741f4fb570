"""Study execution: one shard loop, in-process or over a process pool.

The longitudinal campaign (60 monthly cycles, simulate -> extract ->
filter -> classify each) is embarrassingly parallel *across* cycles as
long as every shard sees the exact network state a serial run would
have at its cycles.  This package provides that:

* :func:`shard_cycles` splits a cycle range into contiguous blocks, one
  per worker — contiguity minimises replay work; :func:`plan_shards`
  extends the split *inside* cycles when workers outnumber them
  (intra-cycle pair blocks, reassembled in pair order by the runner);
* :func:`run_study` runs every shard through one body, in this process
  (``workers=1``, one shard per cycle) or in pool workers, each of
  which reconstructs its block's starting state by control-plane
  replay (:meth:`~repro.sim.ark.ArkSimulator.fast_forward`: policies
  applied and timers ticked, no probes); results come back in cycle
  order and pool deltas merge into the parent registry via
  :meth:`repro.obs.MetricsRegistry.absorb`.

The contract — asserted in ``tests/test_par.py`` — is that a run with
``workers=N`` produces **byte-identical** tables, figures,
classifications and merged metrics to the in-process run (DESIGN §6
and §8).

Pool runs are **fault tolerant**: failed shards retry with exponential
backoff, split in halves where they can be.  Completed shards can be
checkpointed to disk and restored on restart, whatever worker layout
wrote them (:mod:`repro.par.checkpoint`, on the shared
:mod:`repro.par.store`), and :mod:`repro.par.faults` provides the
test-only hooks that stage worker deaths so the recovery paths stay
covered (``tests/test_par_faults.py``).

Replay itself is near-O(1) when a **state store** is attached
(:mod:`repro.par.statestore`): full control-plane snapshots every
``snapshot_stride`` cycles let workers and resumed runs restore the
nearest snapshot and replay only the tail, instead of the whole prefix
— still byte-identical (DESIGN §10).
"""

from .shard import Shard, plan_shards, shard_cycles
from .store import CHECKPOINT_VERSION, STATE_VERSION, spec_hash
from .checkpoint import CheckpointStore, strip_layout_dependent
from .faults import KILL, RAISE, FaultInjected, FaultPlan, ShardFault
from .statestore import DEFAULT_SNAPSHOT_STRIDE, StateStore
from .runner import (
    ShardResult,
    StudyFailure,
    StudyRun,
    StudySpec,
    build_study,
    run_study,
)

__all__ = [
    "Shard",
    "plan_shards",
    "shard_cycles",
    "strip_layout_dependent",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "spec_hash",
    "DEFAULT_SNAPSHOT_STRIDE",
    "STATE_VERSION",
    "StateStore",
    "KILL",
    "RAISE",
    "FaultInjected",
    "FaultPlan",
    "ShardFault",
    "ShardResult",
    "StudyFailure",
    "StudyRun",
    "StudySpec",
    "build_study",
    "run_study",
]
