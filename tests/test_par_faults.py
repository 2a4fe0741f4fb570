"""Fault-injection tests for the study runner's recovery paths.

Three failure families, staged deterministically via repro.par.faults:

* **worker death / shard exceptions** — a killed worker (broken pool)
  or an exception inside a shard is retried with backoff (split in
  halves where it can be), and the finished study stays byte-identical
  to a serial run;
* **checkpoint/resume** — an interrupted campaign restarted with the
  same ``checkpoint_dir`` replays only the unfinished cycle ranges,
  whatever worker layout wrote the finished ones, and stale or corrupt
  checkpoints are rejected, never reused;
* **archive salvage** — a truncated/corrupted warts archive read
  tolerantly yields every intact record and tallies each skip.

CI runs this file as its own job step so regressions in recovery
fail the build, not a production campaign.
"""

import shutil

import pytest

from repro.obs import EventBus, get_event_bus, get_registry, set_event_bus
from repro.par import (
    CheckpointStore,
    FaultInjected,
    FaultPlan,
    KILL,
    RAISE,
    ShardFault,
    StudyFailure,
    StudySpec,
    run_study,
    spec_hash,
)
from repro.warts.format import WartsError, WartsReader, write_archive

SPEC = StudySpec(scale=0.25, seed=7, cycles=4, snapshots_per_cycle=2)


@pytest.fixture(scope="module")
def serial_run():
    return run_study(SPEC, workers=1)


def _counter_total(name, **labels):
    metric = get_registry().get(name)
    if metric is None:
        return 0
    if labels:
        return metric.value(**labels)
    return sum(value for _, value in metric.labelled_values())


def _assert_identical(serial, recovered):
    """The byte-identity contract, shard scheduling notwithstanding."""
    assert [r.cycle for r in recovered.results] == \
        [r.cycle for r in serial.results]
    for expected, actual in zip(serial.results, recovered.results):
        assert expected.stats == actual.stats
        assert expected.filter_stats == actual.filter_stats
        assert expected.classification.verdicts == \
            actual.classification.verdicts
        assert expected.iotps.keys() == actual.iotps.keys()
        assert expected.metrics == actual.metrics


class TestWorkerKill:
    def test_killed_worker_is_retried_to_identical_output(
            self, serial_run):
        # The worker running cycles 3-4 dies (os._exit) after one
        # cycle — the pool breaks, the shard retries, output matches.
        plan = FaultPlan({3: ShardFault(kind=KILL, attempts=(0,),
                                        after_cycles=1)})
        before = _counter_total("par_shard_retries_total")
        run = run_study(SPEC, workers=2, fault_plan=plan,
                        backoff_base=0.0)
        assert _counter_total("par_shard_retries_total") > before
        _assert_identical(serial_run, run)

    def test_shard_exception_is_retried(self, serial_run):
        plan = FaultPlan({3: ShardFault(kind=RAISE, attempts=(0,))})
        run = run_study(SPEC, workers=2, fault_plan=plan,
                        backoff_base=0.0)
        _assert_identical(serial_run, run)

    def test_subdivision_splits_failed_shard(self, serial_run):
        plan = FaultPlan({1: ShardFault(kind=RAISE, attempts=(0,))})
        run = run_study(SPEC, workers=2, fault_plan=plan,
                        backoff_base=0.0)
        # Shard 1-2 failed once and came back as two one-cycle halves.
        assert len(run.shards) == 3
        ranges = sorted((s.results[0].cycle, s.results[-1].cycle)
                        for s in run.shards)
        assert ranges == [(1, 1), (2, 2), (3, 4)]
        _assert_identical(serial_run, run)

    def test_exhausted_retries_abort_the_study(self):
        # The fault keys on first cycle 3: shard 3-4 fails, splits, and
        # its half 3-3 fails again on its last allowed attempt.
        plan = FaultPlan({3: ShardFault(kind=RAISE,
                                        attempts=(0, 1, 2, 3))})
        before = _counter_total("par_shards_failed_total")
        with pytest.raises(StudyFailure, match="cycles 3-3 failed "
                                                "after 2 attempts"):
            run_study(SPEC, workers=2, fault_plan=plan, max_retries=1,
                      backoff_base=0.0)
        assert _counter_total("par_shards_failed_total") == before + 1

    def test_backoff_grows_exponentially(self, serial_run):
        delays = []
        plan = FaultPlan({3: ShardFault(kind=RAISE, attempts=(0, 1))})
        run = run_study(SPEC, workers=2, fault_plan=plan,
                        max_retries=2, backoff_base=0.25,
                        sleep=delays.append)
        # Shard 3-4 fails, its half 3-3 fails once more; one cycle
        # cannot split, so it retries whole after the second delay.
        assert delays == [0.25, 0.5]
        _assert_identical(serial_run, run)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            run_study(SPEC, workers=2, max_retries=-1)


class TestCheckpointResume:
    def test_second_run_replays_from_checkpoints(self, serial_run,
                                                 tmp_path):
        before_writes = _counter_total("par_checkpoint_writes_total")
        run_study(SPEC, workers=2, checkpoint_dir=tmp_path)
        assert _counter_total("par_checkpoint_writes_total") == \
            before_writes + 2
        before_hits = _counter_total("par_checkpoint_hits_total")
        resumed = run_study(SPEC, workers=2, checkpoint_dir=tmp_path)
        assert _counter_total("par_checkpoint_hits_total") == \
            before_hits + 2
        _assert_identical(serial_run, resumed)

    def test_interrupt_then_resume_runs_only_missing_shards(
            self, serial_run, tmp_path):
        # First attempt: the shard at cycles 3-4 always fails, so the
        # study aborts — but cycles 1-2 were already checkpointed.
        plan = FaultPlan({3: ShardFault(kind=RAISE,
                                        attempts=(0, 1, 2, 3))})
        with pytest.raises(StudyFailure):
            run_study(SPEC, workers=2, checkpoint_dir=tmp_path,
                      fault_plan=plan, max_retries=0,
                      backoff_base=0.0)
        store = CheckpointStore(tmp_path, SPEC)
        assert store.path_for(1, 2).exists()
        assert not store.path_for(3, 4).exists()

        before_hits = _counter_total("par_checkpoint_hits_total")
        resumed = run_study(SPEC, workers=2, checkpoint_dir=tmp_path)
        assert _counter_total("par_checkpoint_hits_total") == \
            before_hits + 1
        _assert_identical(serial_run, resumed)

    def test_corrupt_checkpoint_is_rejected_and_rerun(
            self, serial_run, tmp_path):
        run_study(SPEC, workers=2, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path, SPEC)
        store.path_for(1, 2).write_bytes(b"not a checkpoint at all")
        before = _counter_total("par_checkpoint_rejected_total",
                                reason="corrupt")
        resumed = run_study(SPEC, workers=2, checkpoint_dir=tmp_path)
        assert _counter_total("par_checkpoint_rejected_total",
                              reason="corrupt") == before + 1
        _assert_identical(serial_run, resumed)

    def test_foreign_spec_checkpoint_is_rejected(self, tmp_path):
        run_study(SPEC, workers=2, checkpoint_dir=tmp_path)
        other_spec = StudySpec(scale=0.25, seed=8, cycles=4,
                               snapshots_per_cycle=2)
        assert spec_hash(SPEC) != spec_hash(other_spec)
        # Smuggle SPEC's checkpoint into the other spec's directory —
        # the embedded hash check must still reject it.
        source = CheckpointStore(tmp_path, SPEC)
        target = CheckpointStore(tmp_path, other_spec)
        target.directory.mkdir(parents=True, exist_ok=True)
        shutil.copy(source.path_for(1, 2), target.path_for(1, 2))
        before = _counter_total("par_checkpoint_rejected_total",
                                reason="spec_mismatch")
        assert target.load(1, 2) is None
        assert _counter_total("par_checkpoint_rejected_total",
                              reason="spec_mismatch") == before + 1

    def test_serial_interrupt_resumes_per_cycle(self, serial_run,
                                                tmp_path):
        plan = FaultPlan({3: ShardFault(kind=RAISE, attempts=(0,))})
        with pytest.raises(FaultInjected):
            run_study(SPEC, workers=1, checkpoint_dir=tmp_path,
                      fault_plan=plan)
        before_hits = _counter_total("par_checkpoint_hits_total")
        resumed = run_study(SPEC, workers=1, checkpoint_dir=tmp_path)
        # Cycles 1 and 2 replay from disk; 3 and 4 run fresh.
        assert _counter_total("par_checkpoint_hits_total") == \
            before_hits + 2
        _assert_identical(serial_run, resumed)


class TestCrossLayoutResume:
    """Any worker layout's checkpoints restore any other layout's plan:
    stored whole-range files that chain from a planned unit's first
    cycle to a unit's last cycle make those units done."""

    @pytest.mark.parametrize(
        "first_workers, second_workers",
        [(1, 2), (2, 1), (2, 3), (2, 8)],
        ids=["serial-to-pool", "pool-to-serial", "pool2-to-pool3",
             "pool2-to-blocks"])
    def test_second_run_restores_every_cycle(
            self, serial_run, tmp_path, first_workers, second_workers):
        run_study(SPEC, workers=first_workers, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path, SPEC)
        files = {path.name: path.read_bytes()
                 for path in store.directory.iterdir()}
        shards_before = _counter_total("par_shards_total")
        resumed, events = _recorded(lambda: run_study(
            SPEC, workers=second_workers, checkpoint_dir=tmp_path))
        kinds = [event.kind for event in events]
        assert "shard.dispatch" not in kinds
        assert "checkpoint.write" not in kinds
        assert _counter_total("par_shards_total") == shards_before
        assert {path.name: path.read_bytes()
                for path in store.directory.iterdir()} == files
        assert all(shard.block is None for shard in resumed.shards)
        assert sum(len(shard.results) for shard in resumed.shards) == \
            SPEC.cycles
        _assert_identical(serial_run, resumed)

    def test_rejected_file_breaks_only_its_chain(self, serial_run,
                                                 tmp_path):
        run_study(SPEC, workers=1, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path, SPEC)
        store.path_for(2, 2).write_bytes(b"damaged")
        resumed, events = _recorded(lambda: run_study(
            SPEC, workers=2, checkpoint_dir=tmp_path))
        # Cycles 3-4 chain from the serial files; 1-2 has no intact
        # chain, so only that shard runs, and its file is written.
        assert [(event.fields["first"], event.fields["last"])
                for event in events if event.kind == "shard.dispatch"] \
            == [(1, 2)]
        assert [event.fields["reason"] for event in events
                if event.kind == "checkpoint.rejected"] == ["corrupt"]
        assert store.keys() == [(1, 1), (1, 2), (2, 2), (3, 3), (4, 4)]
        _assert_identical(serial_run, resumed)


def _recorded(run):
    """``run()``'s result and the events it emitted."""
    saved = get_event_bus()
    bus = set_event_bus(EventBus())
    try:
        return run(), bus.events
    finally:
        set_event_bus(saved)


class TestTruncatedArchive:
    def test_truncated_archive_salvages_intact_records(self, tmp_path):
        snapshot = _sample_traces()
        assert len(snapshot) >= 2
        path = tmp_path / "snapshot.rwts"
        write_archive(path, snapshot)
        payload = path.read_bytes()
        path.write_bytes(payload[:len(payload) - 7])  # cut mid-record

        with pytest.raises(WartsError):
            with open(path, "rb") as stream:
                list(WartsReader(stream))
        with open(path, "rb") as stream:
            reader = WartsReader(stream, tolerant=True)
            salvaged = list(reader)
        assert len(salvaged) == len(snapshot) - 1
        assert reader.skipped == {"truncated_body": 1}

    def test_each_skip_is_one_warning_event(self, tmp_path):
        path = tmp_path / "snapshot.rwts"
        write_archive(path, _sample_traces())
        payload = path.read_bytes()
        path.write_bytes(payload[:len(payload) - 7])

        def salvage():
            with open(path, "rb") as stream:
                return list(WartsReader(stream, tolerant=True))

        _, events = _recorded(salvage)
        assert [(event.kind, event.fields) for event in events] == \
            [("warts.record.skipped", {"reason": "truncated_body"})]


def _sample_traces():
    from repro.par import build_study

    simulator, _ = build_study(SPEC)
    return simulator.run_cycle(1).snapshots[0][:5]


class TestPairBlockFaults:
    """Intra-cycle pair blocks ride the same retry machinery: a failed
    block subdivides into half-blocks and the reassembled cycle stays
    byte-identical (DESIGN §8)."""

    SPEC1 = StudySpec(scale=0.25, seed=7, cycles=1,
                      snapshots_per_cycle=2)

    def test_failed_blocks_subdivide_and_recover(self):
        serial = run_study(self.SPEC1, workers=1)
        # The fault keys on the shard's first cycle, so every block of
        # the single cycle raises on its first attempt; each comes
        # back as two half-blocks on attempt 1.
        plan = FaultPlan({1: ShardFault(kind=RAISE, attempts=(0,))})
        before = _counter_total("par_shard_retries_total")
        run = run_study(self.SPEC1, workers=4, fault_plan=plan,
                        backoff_base=0.0)
        assert _counter_total("par_shard_retries_total") == before + 4
        assert sorted(s.block for s in run.shards) == \
            [(1, index, 8) for index in range(8)]
        _assert_identical(serial, run)

    def test_block_exhaustion_aborts_the_study(self):
        plan = FaultPlan({1: ShardFault(kind=RAISE,
                                        attempts=(0, 1, 2, 3))})
        with pytest.raises(StudyFailure):
            run_study(self.SPEC1, workers=2, fault_plan=plan,
                      max_retries=1, backoff_base=0.0)
