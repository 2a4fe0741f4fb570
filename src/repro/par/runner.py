"""The study runner: one shard loop behind two executors.

A :class:`StudySpec` is the complete, picklable recipe for one
longitudinal campaign; :func:`build_study` turns it into a fresh
``(ArkSimulator, LprPipeline)`` pair.  Every simulation object is a
pure function of the spec's seed (DESIGN §6), so any process that
builds the spec and replays the control plane to a cycle holds exactly
the state a serial run holds there.

:func:`run_study` runs one sequence for every worker count (DESIGN §8):
plan shards, restore finished ones from checkpoints, run the rest
through an executor, checkpoint each result, and assemble the results
in cycle order.  ``workers <= 1`` selects the *in-process* executor:
one shard per cycle on the parent's own simulator.  More workers
select the *pool* executor: shards over a process pool, with retries,
subdivision and intra-cycle pair blocks.  Both run the same shard body
(:func:`_run_body`), and every control-plane advance goes through one
:class:`_Cursor`, which restores and writes state snapshots
(DESIGN §10).  Output is byte-identical whatever the executor.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.pipeline import CycleResult, LprPipeline
from ..obs import (
    Clock,
    EventBus,
    HealthMonitor,
    MonotonicClock,
    NullClock,
    ProgressTracker,
    Span,
    StallWatchdog,
    Tracer,
    emit,
    get_registry,
    get_tracer,
    record_resources,
    sample_resources,
    set_event_bus,
    set_tracer,
    span,
)
from ..sim import ArkSimulator
from ..sim.ark import CycleData
from ..sim.scenarios import CYCLES, paper_scenario
from .checkpoint import CheckpointStore
from .faults import FaultPlan, ShardFault
from .shard import Shard, plan_shards, shard_cycles
from .statestore import DEFAULT_SNAPSHOT_STRIDE, StateStore

_SHARDS_RUN = get_registry().counter(
    "par_shards_total", "Shards executed by parallel study runs")
_SHARD_CYCLES = get_registry().counter(
    "par_shard_cycles_total",
    "Cycles processed per shard of a parallel study run")
_PAIR_BLOCKS = get_registry().counter(
    "par_pair_blocks_total",
    "Intra-cycle pair blocks traced by parallel study runs")
_CYCLES_REPLAYED = get_registry().counter(
    "par_cycles_replayed_total",
    "Cycles fast-forwarded (control-plane replay, no probes)")
_SHARD_RETRIES = get_registry().counter(
    "par_shard_retries_total",
    "Shard re-dispatches after a worker death or shard exception")
_SHARDS_FAILED = get_registry().counter(
    "par_shards_failed_total",
    "Shards that exhausted their retry budget (aborts the study)")
_SHARDS_STALLED = get_registry().counter(
    "par_shards_stalled_total",
    "Shards flagged silent past the --stall-timeout deadline")


class StudyFailure(RuntimeError):
    """A shard kept failing after every retry; the study aborted."""


@dataclass(frozen=True)
class StudySpec:
    """Everything needed to rebuild one campaign from scratch.

    Plain numbers only, so the spec pickles cheaply into worker
    processes and two equal specs always produce byte-identical runs.
    """

    scale: float = 1.0
    seed: int = 2015
    cycles: int = CYCLES
    snapshots_per_cycle: int = 3
    persistence_window: int = 2
    reinject_threshold: float = 0.10
    php_heuristic: bool = False
    memoize: bool = True
    """Forwarding-path memoization (DESIGN §8).  The caches are exact,
    so flipping this never changes results — which is precisely what
    the differential oracle (:mod:`repro.verify`) asserts by running
    the same campaign with and without them."""
    engine: str = "object"
    """The analysis backend; ``"object"`` is the only one (DESIGN §12).
    The field stays for two reasons: callers that name the reference
    configuration explicitly (``StudySpec(..., engine="object")``)
    keep working, and :func:`~repro.par.checkpoint.spec_hash` hashes
    every field, so dropping it would rename every existing checkpoint
    and state directory.  Any other value raises ``ValueError``."""

    def __post_init__(self) -> None:
        if self.engine != "object":
            raise ValueError(f"unknown engine {self.engine!r}: "
                             f"'object' is the only analysis backend")


def build_study(spec: StudySpec) -> Tuple[ArkSimulator, LprPipeline]:
    """A fresh simulator + pipeline pair for one spec."""
    simulator = ArkSimulator(
        paper_scenario(scale=spec.scale, seed=spec.seed),
        snapshots_per_cycle=spec.snapshots_per_cycle,
        memoize=spec.memoize,
    )
    pipeline = LprPipeline(
        simulator.internet.ip2as,
        persistence_window=spec.persistence_window,
        reinject_threshold=spec.reinject_threshold,
        php_heuristic=spec.php_heuristic,
    )
    return simulator, pipeline


@dataclass
class ShardResult:
    """What one worker sends back: results plus its metrics delta.

    A cycle-range shard carries processed ``results``; an intra-cycle
    pair block instead carries the raw per-snapshot ``snapshots`` it
    traced, tagged with its ``block = (cycle, index, count)`` — the
    parent reassembles a full cycle from the blocks and runs the
    pipeline itself.
    """

    shard_id: int
    results: List[CycleResult]
    metrics_delta: Dict[str, Any]
    replayed_cycles: int
    block: Optional[Tuple[int, int, int]] = None
    snapshots: Optional[List[list]] = None
    spans: Optional[List[Span]] = None
    """The worker's tracer roots, returned only on profiled runs and
    grafted under the parent's study span (stripped from checkpoints —
    timing is per-run observability, not a campaign result)."""


@dataclass
class StudyRun:
    """One executed campaign: end-state simulator + ordered results."""

    simulator: ArkSimulator
    pipeline: LprPipeline
    results: List[CycleResult]
    shards: List[ShardResult] = field(default_factory=list)
    """Per-shard accounting, executed and restored alike: cycle-range
    results (one per cycle in-process) and raw pair blocks, in
    (cycle, pair) order."""


class _Cursor:
    """A simulator plus the last cycle whose control-plane evolution it
    holds — the one place that replays, restores and snapshots state.

    With a :class:`StateStore`, a multiple of ``stride`` that has no
    snapshot file is *missing*.  :meth:`advance` restores the newest
    usable snapshot that does not skip a missing one, and replay and
    probing alike write missing snapshots as the cursor passes them.
    Probing never mutates the control plane (DESIGN §6), so a restored
    and a replayed simulator hold the same state.
    """

    def __init__(self, simulator: ArkSimulator,
                 store: Optional[StateStore] = None,
                 stride: int = DEFAULT_SNAPSHOT_STRIDE):
        self.simulator = simulator
        self.store = store
        self.stride = stride
        self.position = 0

    def advance(self, target: int) -> int:
        """Move to the end state of cycle ``target`` without probing;
        returns the number of cycles replayed."""
        if target <= self.position:
            return 0
        if self.store is not None:
            stride_cycle = (self.position // self.stride + 1) * self.stride
            horizon = next((cycle for cycle in range(stride_cycle,
                                                     target + 1,
                                                     self.stride)
                            if not self.store.has(cycle)), target)
            found = self.store.load_nearest(horizon, after=self.position)
            if found is not None:
                self.position, state = found
                self.simulator.internet.restore_state(state)
        replayed = target - self.position
        for cycle in range(self.position + 1, target + 1):
            self.simulator.fast_forward(cycle, cycle)
            self.probed(cycle)
        return replayed

    def probed(self, cycle: int) -> None:
        """The simulator now holds ``cycle``'s end state."""
        self.position = cycle
        if (self.store is not None and cycle % self.stride == 0
                and not self.store.has(cycle)):
            self.store.save(cycle, self.simulator.internet.capture_state())


def _run_body(shard: Shard, cursor: _Cursor, pipeline: LprPipeline,
              attempt: int, fault: Optional[ShardFault],
              beat: Callable[..., None]) -> ShardResult:
    """One shard's work on ``cursor``'s simulator, plus its registry
    delta — what both executors run.

    The cursor first advances to ``first - 1``; if that moved it, one
    beat says the shard is alive after a possibly long replay.  Then
    each cycle of the range, or the one pair block, is probed and
    beaten.  Cycle ranges come back pipelined; a pair block comes back
    as raw snapshots for the parent to reassemble
    (:func:`_assemble_cycle`).
    """
    registry = get_registry()
    before = registry.snapshot()
    sim_traces = registry.counter("sim_traces_total")
    traces_start = sim_traces.value()
    start = cursor.position
    replayed = cursor.advance(shard.first - 1)
    if cursor.position != start:
        beat()
    results: List[CycleResult] = []
    data: Optional[CycleData] = None
    for index, cycle in enumerate(shard.cycles):
        if fault is not None:
            fault.maybe_fire(attempt, index)
        data = cursor.simulator.run_cycle(cycle, pair_block=shard.block)
        cursor.probed(cycle)
        if shard.block is None:
            results.append(pipeline.process_cycle(data))
            done = {"cycles_done": index + 1}
        else:
            done = {"blocks_done": 1}
        beat(traces=sim_traces.value() - traces_start, **done)
    blocked = shard.block is not None
    return ShardResult(
        shard_id=shard.shard_id,
        results=results,
        metrics_delta=registry.diff(before, registry.snapshot()),
        replayed_cycles=replayed,
        block=(shard.first,) + shard.block if blocked else None,
        snapshots=data.snapshots if blocked else None,
    )


def _beater(sink: Optional[Callable[[Dict[str, Any]], None]],
            shard_id: int, resources: bool) -> Callable[..., None]:
    """The heartbeat callable handed to a shard body: each beat names
    its shard and, with ``resources``, carries an RSS/CPU/GC sample of
    the process that beats.  No sink, no beats."""
    if sink is None:
        return lambda **fields: None

    def beat(**fields: Any) -> None:
        if resources:
            fields["resources"] = sample_resources()
        sink({"shard": shard_id, **fields})
    return beat


def _run_shard(
    args: Tuple[StudySpec, Shard, int, Optional[ShardFault], bool, Any,
                Any, int, bool]
) -> ShardResult:
    """Pool worker entry: a fresh event bus (a forked sink must never
    be written from two processes) and tracer, a liveness beat, then
    :func:`build_study` and the shard body inside a ``par.worker``
    span.  The tracer is monotonic when the parent profiles, and its
    roots travel back for grafting; ``beats`` is the manager queue
    feeding the parent's telemetry, or None.
    """
    (spec, shard, attempt, fault, profile, beats, state_dir, stride,
     resources) = args
    set_event_bus(EventBus())
    tracer = set_tracer(Tracer(MonotonicClock() if profile
                               else NullClock()))

    def put(beat: Dict[str, Any]) -> None:
        try:
            beats.put(beat)
        except Exception:
            pass  # a dying progress channel never fails work

    beat = _beater(put if beats is not None else None, shard.shard_id,
                   resources)
    beat()
    simulator, pipeline = build_study(spec)
    store = StateStore(state_dir, spec) if state_dir is not None else None
    block_attrs = ({"block": f"{shard.block[0]}/{shard.block[1]}"}
                   if shard.block is not None else {})
    with tracer.span("par.worker", first=shard.first, last=shard.last,
                     **block_attrs):
        result = _run_body(shard, _Cursor(simulator, store, stride),
                           pipeline, attempt, fault, beat)
    result.spans = tracer.roots if profile else None
    return result


def _pool_context():
    """Fork where the platform offers it (cheap, shares the warm
    imports); spawn otherwise.  Workers derive everything from the
    pickled spec either way, so the start method never affects output.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class _Telemetry:
    """The parent's live view of a run: progress tracker, stall
    watchdog and health monitor, each off unless asked for
    (DESIGN §13).  ``live`` says whether anything consumes beats."""

    def __init__(self, spec: StudySpec,
                 progress: Optional[Callable[[ProgressTracker], None]],
                 progress_clock: Optional[Clock],
                 stall_timeout: Optional[float],
                 stall_clock: Optional[Clock],
                 health: Optional[HealthMonitor], resources: bool):
        self.progress = progress
        self.tracker = (ProgressTracker(spec.cycles,
                                        clock=progress_clock
                                        or MonotonicClock())
                        if progress is not None else None)
        self.watchdog = (StallWatchdog(stall_timeout, clock=stall_clock)
                         if stall_timeout is not None else None)
        self.health = health
        self.live = (progress is not None or resources
                     or stall_timeout is not None or health is not None)

    def register(self, shard: Shard, done: bool = False) -> None:
        if self.tracker is not None:
            work = (1.0 / shard.block[1] if shard.block is not None
                    else float(len(shard)))
            self.tracker.add_shard(shard.shard_id, work,
                                   is_block=shard.block is not None,
                                   done=done)

    def dispatched(self, shard: Shard, attempt: int) -> None:
        if self.watchdog is not None:
            self.watchdog.watch(shard.shard_id)
        emit("shard.dispatch", shard=shard.shard_id, first=shard.first,
             last=shard.last, attempt=attempt + 1,
             **({"block": list(shard.block)}
                if shard.block is not None else {}))

    def beat(self, beat: Dict[str, Any]) -> None:
        sample = beat.pop("resources", None)
        shard_id = beat.get("shard", -1)
        if self.tracker is not None:
            self.tracker.heartbeat(shard_id,
                                   cycles_done=beat.get("cycles_done", 0),
                                   blocks_done=beat.get("blocks_done", 0),
                                   traces=beat.get("traces", 0))
        emit("shard.heartbeat", **beat)
        if sample is not None:
            record_resources(shard_id, sample)
        if self.watchdog is not None and self.watchdog.beat(shard_id):
            self._recovered(shard_id)
        if self.health is not None:
            self.health.beat()
        self._notify()

    def tick(self) -> None:
        """Dispatch-loop pulse: flag shards newly past the deadline."""
        if self.watchdog is None:
            return
        for shard_id in self.watchdog.check():
            _SHARDS_STALLED.inc(shard=shard_id)
            emit("shard.stalled", shard=shard_id,
                 timeout=self.watchdog.timeout)
            if self.health is not None:
                self.health.stall(shard_id)

    def settle(self, shard_id: int) -> None:
        """A shard finished or failed: stop watching it."""
        if self.watchdog is not None and self.watchdog.clear(shard_id):
            self._recovered(shard_id)

    def done(self, shard_id: int) -> None:
        if self.tracker is not None:
            self.tracker.shard_done(shard_id)

    def abandon(self, shard_id: int) -> None:
        if self.tracker is not None:
            self.tracker.abandon_shard(shard_id)

    def finish(self) -> None:
        self._notify()
        if self.health is not None:
            self.health.finish()

    def _recovered(self, shard_id: int) -> None:
        emit("shard.recovered", shard=shard_id)
        if self.health is not None:
            self.health.clear(shard_id)

    def _notify(self) -> None:
        if self.tracker is not None:
            self.progress(self.tracker)


_Collect = Callable[[ShardResult], None]
_Failures = List[Tuple[Shard, BaseException]]


class _InProcess:
    """The one-worker executor: shards run in order on the parent's
    cursor, beats reach the parent's telemetry directly, and an
    exception propagates — there is no retry.  Resource samples are
    the parent's own, taken between shards so no delta sees them."""

    def __init__(self, cursor: _Cursor, pipeline: LprPipeline,
                 fault_plan: Optional[FaultPlan],
                 telemetry: _Telemetry, resources: bool):
        self.cursor = cursor
        self.pipeline = pipeline
        self.fault_plan = fault_plan
        self.telemetry = telemetry
        self.resources = resources

    def run(self, shards: List[Shard], attempts: Dict[Shard, int],
            collect: _Collect) -> _Failures:
        telemetry = self.telemetry
        for shard in shards:
            telemetry.dispatched(shard, attempts[shard])
            beat = _beater(telemetry.beat if telemetry.live else None,
                           shard.shard_id, False)
            result = _run_body(shard, self.cursor, self.pipeline,
                               attempts[shard],
                               _fault(self.fault_plan, shard), beat)
            telemetry.settle(shard.shard_id)
            collect(result)
            if self.resources:
                record_resources("parent", sample_resources())
        return []


class _Pool:
    """The process-pool executor: one fresh pool per round (a broken
    pool is unusable), and a shard whose worker died or raised comes
    back as a failure for the caller to retry.

    With a heartbeat queue the completion wait runs on a short timeout,
    so beats drain and the watchdog ticks while shards are in flight.
    """

    def __init__(self, spec: StudySpec, workers: int,
                 fault_plan: Optional[FaultPlan],
                 telemetry: _Telemetry, beats, state_dir, stride: int,
                 resources: bool):
        self.spec = spec
        self.workers = workers
        self.fault_plan = fault_plan
        self.telemetry = telemetry
        self.beats = beats
        self.state_dir = state_dir
        self.stride = stride
        self.resources = resources
        # Workers inherit profiling from the parent's tracer clock: a
        # real clock means span durations are wanted.
        self.profile = not isinstance(get_tracer().clock, NullClock)

    def run(self, shards: List[Shard], attempts: Dict[Shard, int],
            collect: _Collect) -> _Failures:
        telemetry = self.telemetry
        failed: _Failures = []
        with ProcessPoolExecutor(max_workers=min(self.workers,
                                                 len(shards)),
                                 mp_context=_pool_context()) as pool:
            futures = {
                pool.submit(
                    _run_shard,
                    (self.spec, shard, attempts[shard],
                     _fault(self.fault_plan, shard), self.profile,
                     self.beats, self.state_dir, self.stride,
                     self.resources),
                ): shard
                for shard in shards
            }
            for shard in shards:
                telemetry.dispatched(shard, attempts[shard])
            pending = set(futures)
            while pending:
                done, pending = wait(
                    pending,
                    timeout=0.2 if self.beats is not None else None,
                    return_when=FIRST_COMPLETED)
                _drain(self.beats, telemetry.beat)
                telemetry.tick()
                for future in done:
                    shard = futures[future]
                    try:
                        result = future.result()
                    except Exception as error:  # incl. BrokenProcessPool
                        failed.append((shard, error))
                    else:
                        collect(result)
                    telemetry.settle(shard.shard_id)
            _drain(self.beats, telemetry.beat)
        return failed


def _fault(plan: Optional[FaultPlan], shard: Shard) -> Optional[ShardFault]:
    return plan.for_shard(shard) if plan is not None else None


def run_study(spec: StudySpec, workers: int = 1, *,
              max_retries: int = 2,
              backoff_base: float = 0.5,
              checkpoint_dir=None,
              state_dir=None,
              snapshot_stride: int = DEFAULT_SNAPSHOT_STRIDE,
              fault_plan: Optional[FaultPlan] = None,
              sleep: Callable[[float], None] = time.sleep,
              progress: Optional[Callable[[ProgressTracker],
                                          None]] = None,
              progress_clock: Optional[Clock] = None,
              resources: bool = False,
              stall_timeout: Optional[float] = None,
              stall_clock: Optional[Clock] = None,
              health: Optional[HealthMonitor] = None) -> StudyRun:
    """Execute a campaign; results come back in cycle order and
    byte-identical whatever ``workers`` is (DESIGN §8).

    ``workers <= 1`` runs one shard per cycle in this process; an
    exception propagates.  More workers fan shards out over a process
    pool, splitting cycles into pair blocks once workers outnumber
    them.  A pool shard whose worker dies or raises is re-dispatched
    up to ``max_retries`` times, ``backoff_base * 2^round`` seconds
    apart (``sleep`` is injectable), split in halves where it can be;
    then the study aborts with :class:`StudyFailure`.

    ``checkpoint_dir`` persists every finished shard, and a later run
    restores it instead of re-running it, whatever worker layout wrote
    it (:mod:`repro.par.checkpoint`).
    ``state_dir`` shares control-plane snapshots every
    ``snapshot_stride`` cycles (:mod:`repro.par.statestore`); a pool
    run seeds them before dispatch.  ``fault_plan`` is the test-only
    failure hook (:mod:`repro.par.faults`).

    The rest only observes (DESIGN §9, §13): lifecycle events go to
    the current event bus; ``progress`` gets a live
    :class:`~repro.obs.progress.ProgressTracker` on every heartbeat and
    once at the end (``progress_clock`` replaces its wall clock);
    ``resources`` adds an RSS/CPU/GC sample to every heartbeat;
    ``stall_timeout`` arms a heartbeat watchdog (``stall_clock`` for
    tests); ``health`` is the monitor a telemetry server shares.
    """
    if spec.cycles < 1:
        raise ValueError(f"cycles must be >= 1: {spec.cycles}")
    if max_retries < 0:
        raise ValueError(f"negative max_retries: {max_retries}")
    if backoff_base < 0:
        raise ValueError(f"negative backoff_base: {backoff_base}")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1: "
                         f"{snapshot_stride}")
    if stall_timeout is not None and stall_timeout <= 0:
        raise ValueError(f"stall_timeout must be > 0: {stall_timeout}")
    store = (CheckpointStore(checkpoint_dir, spec)
             if checkpoint_dir is not None else None)
    state_store = (StateStore(state_dir, spec)
                   if state_dir is not None else None)
    telemetry = _Telemetry(spec, progress, progress_clock, stall_timeout,
                           stall_clock, health, resources)
    in_process = workers <= 1
    shards = plan_shards(1, spec.cycles,
                         spec.cycles if in_process else workers)
    emit("study.start", cycles=spec.cycles, workers=workers)
    emit("study.plan", shards=len(shards), workers=workers)
    registry = get_registry()
    manager = None
    try:
        with span("par.study", cycles=spec.cycles, shards=len(shards)):
            simulator, pipeline = build_study(spec)
            cursor = _Cursor(simulator, state_store, snapshot_stride)
            if in_process:
                executor = _InProcess(cursor, pipeline, fault_plan,
                                      telemetry, resources)
            else:
                if telemetry.live:
                    manager = _pool_context().Manager()
                executor = _Pool(spec, workers, fault_plan, telemetry,
                                 manager.Queue() if manager else None,
                                 state_dir, snapshot_stride, resources)
                if state_store is not None:
                    # One replay pass leaves the parent at the end
                    # state and seeds the snapshots workers start from.
                    with span("par.state_seed", cycles=spec.cycles,
                              stride=snapshot_stride):
                        cursor.advance(spec.cycles)
            # Cycle-range results, executed or restored, and raw pair
            # blocks per cycle.
            whole: List[ShardResult] = []
            blocks: Dict[int, List[ShardResult]] = {}
            pending = _restore(shards, store, telemetry, whole, blocks,
                               registry)
            attempts: Dict[Shard, int] = {shard: 0 for shard in pending}

            def collect(result: ShardResult) -> None:
                _SHARDS_RUN.inc()
                if result.block is not None:
                    _PAIR_BLOCKS.inc(shard=result.shard_id)
                else:
                    _SHARD_CYCLES.inc(len(result.results),
                                      shard=result.shard_id)
                _CYCLES_REPLAYED.inc(result.replayed_cycles)
                if store is not None:
                    store.save(result)
                if result.block is not None:
                    blocks.setdefault(result.block[0], []).append(result)
                else:
                    _add_whole(whole, result, registry,
                               absorb=not in_process)
                telemetry.done(result.shard_id)
                emit("shard.done", shard=result.shard_id,
                     cycles=len(result.results),
                     replayed=result.replayed_cycles,
                     traces=_delta_total(result.metrics_delta,
                                         "sim_traces_total"),
                     cache_hits=_cache_total(result.metrics_delta,
                                             "hits"),
                     cache_misses=_cache_total(result.metrics_delta,
                                               "misses"),
                     **({"block": list(result.block)}
                        if result.block is not None else {}))

            next_id = len(shards)
            round_index = 0
            while pending:
                if round_index > 0:
                    delay = backoff_base * (2 ** (round_index - 1))
                    if delay > 0:
                        sleep(delay)
                retry: List[Shard] = []
                for shard, error in executor.run(pending, attempts,
                                                 collect):
                    attempt = attempts.pop(shard)
                    if attempt >= max_retries:
                        _SHARDS_FAILED.inc()
                        emit("shard.failed", shard=shard.shard_id,
                             first=shard.first, last=shard.last,
                             attempts=attempt + 1, error=str(error))
                        raise StudyFailure(
                            f"shard of cycles {shard.first}-"
                            f"{shard.last} failed after {attempt + 1} "
                            f"attempts: {error}"
                        ) from error
                    _SHARD_RETRIES.inc(shard=shard.shard_id)
                    emit("shard.retry", shard=shard.shard_id,
                         first=shard.first, last=shard.last,
                         attempt=attempt + 1, error=str(error))
                    children = _halves(shard, next_id)
                    next_id += len(children)
                    if children:
                        telemetry.abandon(shard.shard_id)
                        emit("shard.subdivided", parent=shard.shard_id,
                             children=[c.shard_id for c in children])
                        for child in children:
                            telemetry.register(child)
                    for unit in children or [shard]:
                        attempts[unit] = attempt + 1
                        retry.append(unit)
                pending = retry
                round_index += 1

            # Assemble in cycle order; pair-block cycles are pipelined
            # here, exactly where a serial run pipelines them.
            results: List[CycleResult] = []
            shards_out: List[ShardResult] = []
            units = [(r.results[0].cycle, r, None) for r in whole]
            units.extend((cycle, None, cycle_blocks)
                         for cycle, cycle_blocks in blocks.items())
            units.sort(key=lambda unit: unit[0])
            for cycle, result, cycle_blocks in units:
                if result is None:
                    result, ordered = _assemble_cycle(
                        spec, cycle, cycle_blocks, pipeline, registry)
                    if store is not None:
                        store.save(result)
                    shards_out.extend(ordered)
                else:
                    if result.spans:
                        get_tracer().graft(result.spans,
                                           shard=result.shard_id)
                    shards_out.append(result)
                results.extend(result.results)

            # Post-study experiments (Figs 6, 16, 17) run extra cycles
            # on top of the campaign's end state.
            if cursor.position < spec.cycles:
                with span("par.fast_forward", cycles=spec.cycles):
                    cursor.advance(spec.cycles)
    finally:
        if manager is not None:
            manager.shutdown()
    if resources:
        # The parent's own footprint, after every delta window closed.
        record_resources("parent", sample_resources())
    telemetry.finish()
    emit("study.done", cycles=len(results), shards=len(shards_out))
    return StudyRun(simulator=simulator, pipeline=pipeline,
                    results=results, shards=shards_out)


def _restore(shards: List[Shard], store: Optional[CheckpointStore],
             telemetry: _Telemetry, whole: List[ShardResult],
             blocks: Dict[int, List[ShardResult]], registry
             ) -> List[Shard]:
    """Fill ``whole``/``blocks`` from checkpoints; returns the shards
    still to run.

    A *unit* is a cycle-range shard or the pair blocks of one cycle.
    Stored whole-range files that chain from a unit's first cycle to a
    unit's last cycle (:func:`_chain`) restore every unit they span, so
    any worker layout's files serve any other's plan.  A block unit no
    chain restores falls back to its blocks' own files."""
    if store is None:
        for shard in shards:
            telemetry.register(shard)
        return list(shards)
    units = [list(unit) for _, unit in groupby(shards,
                                               key=lambda s: s.first)]
    ends = {unit[0].last for unit in units}
    spans = {key for key in store.keys() if len(key) == 2}
    pending: List[Shard] = []
    covered = 0
    for unit in units:
        head = unit[0]
        if head.last > covered:
            for cached in _chain(store, spans, head.first, head.last,
                                 ends):
                _add_whole(whole, cached, registry, absorb=True)
                covered = cached.results[-1].cycle
        if head.last <= covered:
            for shard in unit:
                telemetry.register(shard, done=True)
            emit("shard.restored", shard=head.shard_id, first=head.first,
                 last=head.last)
            continue
        for shard in unit:
            cached = (store.load(shard.first, shard.last, shard.block)
                      if shard.block is not None else None)
            if cached is None:
                pending.append(shard)
                telemetry.register(shard)
                continue
            blocks.setdefault(shard.first, []).append(cached)
            telemetry.register(shard, done=True)
            emit("shard.restored", shard=shard.shard_id,
                 first=shard.first, last=shard.last,
                 block=list(shard.block))
    return pending


def _chain(store: CheckpointStore, spans: set, first: int, last: int,
           ends: set) -> List[ShardResult]:
    """Verified whole-range results chaining from ``first`` to the
    nearest unit end the stored ``spans`` reach, or none.  The unit's
    own file ``(first, last)`` is looked up first, as a same-layout
    resume always did; a file that fails to verify leaves ``spans`` and
    the search runs again."""
    own = store.load(first, last)
    if own is not None:
        return [own]
    spans.discard((first, last))
    loaded: Dict[Tuple[int, int], Optional[ShardResult]] = {}
    while True:
        routes: Dict[int, List[Tuple[int, int]]] = {first - 1: []}
        for start, end in sorted(spans):
            if start - 1 in routes:
                routes.setdefault(end, routes[start - 1] + [(start, end)])
        reach = min((end for end in routes if end >= first and end in ends),
                    default=None)
        if reach is None:
            return []
        for key in routes[reach]:
            if key not in loaded:
                loaded[key] = store.load(*key)
            if loaded[key] is None:
                spans.discard(key)
                break
        else:
            return [loaded[key] for key in routes[reach]]


def _add_whole(whole: List[ShardResult], result: ShardResult, registry,
               absorb: bool) -> None:
    """Keep one cycle-range result, absorbing its delta unless it is
    already in the registry, and emit its cycles' metrics deltas."""
    if absorb:
        registry.absorb(result.metrics_delta)
    for cycle_result in result.results:
        emit("cycle.metrics", cycle=cycle_result.cycle,
             metrics=cycle_result.metrics)
    whole.append(result)


def _halves(shard: Shard, next_id: int) -> List[Shard]:
    """A failed shard's two retry children — half-blocks for a pair
    block, half-ranges for a cycle range — or none for one cycle."""
    if shard.block is not None:
        index, count = shard.block
        return [Shard(shard_id=next_id + offset, first=shard.first,
                      last=shard.last, block=(2 * index + offset,
                                              2 * count))
                for offset in (0, 1)]
    if len(shard) > 1:
        return [Shard(shard_id=next_id + offset, first=half.first,
                      last=half.last)
                for offset, half in enumerate(
                    shard_cycles(shard.first, shard.last, 2))]
    return []


def _delta_total(delta: Dict[str, Any], name: str) -> float:
    """Sum of one metric's values across label sets in a delta."""
    data = delta.get(name)
    if not data:
        return 0
    return sum(entry["value"] for entry in data["values"])


_CACHE_METRICS = ("route_cache", "hop_cache", "quoted_stack_cache")


def _cache_total(delta: Dict[str, Any], side: str) -> float:
    """Combined cache ``hits``/``misses`` across the memoization
    layers (the per-process counters checkpoints strip)."""
    return sum(_delta_total(delta, f"{prefix}_{side}_total")
               for prefix in _CACHE_METRICS)


def _assemble_cycle(spec: StudySpec, cycle: int,
                    cycle_blocks: List[ShardResult],
                    pipeline: LprPipeline, registry
                    ) -> Tuple[ShardResult, List[ShardResult]]:
    """One cycle reassembled from its pair blocks, then pipelined.

    Blocks sort by their fractional start (``index/count`` — retry
    subdivision can mix granularities) and must tile [0, 1) exactly;
    each snapshot's traces are concatenated in that order, which is
    pair order.  The pipeline then runs in-process over the rebuilt
    :class:`CycleData`, and the cycle's metrics delta — absorbed block
    deltas plus the pipeline stages — matches a serial cycle's
    (modulo the layout-dependent cache counters the checkpoint layer
    strips).  Returns the cycle-level ShardResult (checkpointed under
    the serial key) plus the ordered blocks for accounting.
    """
    ordered = sorted(cycle_blocks,
                     key=lambda r: Fraction(r.block[1], r.block[2]))
    position = Fraction(0)
    for block in ordered:
        _cycle, index, count = block.block
        if Fraction(index, count) != position:
            raise StudyFailure(
                f"cycle {cycle}: pair blocks do not tile: expected a "
                f"block starting at {position}, got {index}/{count}")
        position = Fraction(index + 1, count)
    if position != 1:
        raise StudyFailure(
            f"cycle {cycle}: pair blocks cover only {position} of the "
            f"pair list")
    snapshots: List[list] = []
    for snapshot_index in range(spec.snapshots_per_cycle):
        merged: list = []
        for block in ordered:
            merged.extend(block.snapshots[snapshot_index])
        snapshots.append(merged)
    before = registry.snapshot()
    for block in ordered:
        if block.spans:
            get_tracer().graft(block.spans, shard=block.shard_id)
        registry.absorb(block.metrics_delta)
    result = pipeline.process_cycle(
        CycleData(cycle=cycle, snapshots=snapshots))
    assembled = ShardResult(
        shard_id=cycle - 1,
        results=[result],
        metrics_delta=registry.diff(before, registry.snapshot()),
        replayed_cycles=0,
    )
    emit("cycle.assembled", cycle=cycle, blocks=len(ordered))
    emit("cycle.metrics", cycle=cycle, metrics=result.metrics)
    return assembled, ordered


def _drain(beats, on_beat: Callable[[Dict[str, Any]], None]) -> None:
    """Deliver every queued heartbeat to the parent-side callback."""
    if beats is None:
        return
    while True:
        try:
            beat = beats.get_nowait()
        except queue_module.Empty:
            return
        except Exception:
            # Manager connection torn down mid-run: heartbeats are
            # best-effort telemetry, never worth failing the study.
            return
        on_beat(beat)
