"""The restart stores' shared core (repro.par.store, DESIGN §10).

Both key schemes — shard checkpoints (``shard-FFFF-LLLL.ckpt``) and
state snapshots (``state-CCCC.snap``) — go through one damage matrix:
a damaged, foreign or mis-shaped file reads as absent, counts exactly
one ``rejected{reason}`` and emits exactly one ``*.rejected`` event;
a missing file counts a miss for a checkpoint and nothing for a
snapshot.  Each envelope's key order is pinned, since checkpoint and
snapshot bytes must stay identical across releases (DESIGN §6).
"""

import dataclasses
import pickle

import pytest

from repro.obs import EventBus, get_event_bus, get_registry, set_event_bus
from repro.par import (
    CHECKPOINT_VERSION,
    STATE_VERSION,
    CheckpointStore,
    StateStore,
    StudySpec,
    run_study,
    spec_hash,
)

SPEC = StudySpec(scale=0.25, seed=7, cycles=1, snapshots_per_cycle=2)
FOREIGN = dataclasses.replace(SPEC, seed=8)


@pytest.fixture(scope="module")
def shard_result():
    run = run_study(SPEC, workers=1)
    return run.shards[0]


@dataclasses.dataclass
class Scheme:
    """One key scheme, as the damage matrix drives it."""

    name: str
    store: type
    counters: str
    event: str
    version_key: str
    keys: tuple

    def save(self, store, payload):
        if self.store is CheckpointStore:
            return store.save(payload)
        return store.save(1, payload)

    def load(self, store):
        if self.store is CheckpointStore:
            return store.load(1, 1)
        return store.load(1)

    def misfit(self, envelope):
        """A well-framed envelope whose payload field is wrong."""
        if self.store is CheckpointStore:
            envelope["result"] = dataclasses.replace(
                envelope["result"], results=[], snapshots=None)
        else:
            envelope["cycle"] = 2


CHECKPOINT = Scheme("checkpoint", CheckpointStore, "par_checkpoint",
                    "checkpoint", "checkpoint_version",
                    ("version", "spec_hash", "result"))
SNAPSHOT = Scheme("snapshot", StateStore, "state_snapshot", "snapshot",
                  "state_version",
                  ("version", "spec_hash", "cycle", "state"))


def _payload(scheme, shard_result):
    if scheme is CHECKPOINT:
        return shard_result
    return {"control-plane": [1, 2, 3]}


def _counts(scheme):
    registry = get_registry()
    out = {}
    for fact in ("hits", "misses", "writes", "rejected"):
        metric = registry.get(f"{scheme.counters}_{fact}_total")
        out[fact] = (0 if metric is None else
                     sum(value for _, value in metric.labelled_values()))
    return out


def _reason_count(scheme, reason):
    metric = get_registry().get(f"{scheme.counters}_rejected_total")
    return 0 if metric is None else metric.value(reason=reason)


def _rewrite(path, change):
    envelope = pickle.loads(path.read_bytes())
    change(envelope)
    path.write_bytes(pickle.dumps(envelope))


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _foreign(scheme):
    def change(envelope):
        envelope["spec_hash"] = spec_hash(FOREIGN, scheme.version_key)
    return change


def _older(envelope):
    envelope["version"] -= 1


DAMAGE = {
    "truncated": (lambda scheme, path: _truncate(path), "corrupt"),
    "garbage": (lambda scheme, path:
                path.write_bytes(b"not a stored file at all"), "corrupt"),
    "foreign-spec": (lambda scheme, path:
                     _rewrite(path, _foreign(scheme)), "spec_mismatch"),
    "other-version": (lambda scheme, path: _rewrite(path, _older),
                      "version"),
    "wrong-field": (lambda scheme, path: _rewrite(path, scheme.misfit),
                    "corrupt"),
}

SCHEMES = pytest.mark.parametrize("scheme", [CHECKPOINT, SNAPSHOT],
                                  ids=lambda scheme: scheme.name)


@pytest.fixture
def bus():
    saved = get_event_bus()
    yield set_event_bus(EventBus())
    set_event_bus(saved)


@SCHEMES
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_file_is_rejected_once(scheme, damage, shard_result,
                                       tmp_path, bus):
    store = scheme.store(tmp_path, SPEC)
    path = scheme.save(store, _payload(scheme, shard_result))
    corrupt, reason = DAMAGE[damage]
    corrupt(scheme, path)
    before, before_reason = _counts(scheme), _reason_count(scheme, reason)
    bus.reset()

    assert scheme.load(store) is None

    after = _counts(scheme)
    assert after["rejected"] == before["rejected"] + 1
    assert _reason_count(scheme, reason) == before_reason + 1
    assert {fact: after[fact] - before[fact]
            for fact in ("hits", "misses", "writes")} == \
        {"hits": 0, "misses": 0, "writes": 0}
    (event,) = bus.events
    assert event.kind == f"{scheme.event}.rejected"
    assert event.fields["path"] == path.name
    assert event.fields["reason"] == reason
    # Only an unpicklable file has an exception text to report.
    assert ("error" in event.fields) == (damage in ("truncated",
                                                    "garbage"))


@SCHEMES
def test_missing_file(scheme, tmp_path, bus):
    store = scheme.store(tmp_path, SPEC)
    before = _counts(scheme)
    assert scheme.load(store) is None
    after = _counts(scheme)
    assert after["rejected"] == before["rejected"]
    if scheme is CHECKPOINT:
        # A checkpoint lookup that finds no file is a miss ...
        assert after["misses"] == before["misses"] + 1
        assert [(e.kind, e.fields) for e in bus.events] == \
            [("checkpoint.miss", {"path": "shard-0001-0001.ckpt"})]
    else:
        # ... a missing snapshot counts nothing; only a fruitless
        # nearest-snapshot search counts one miss.
        assert after == before
        assert bus.events == []
        assert store.load_nearest(5) is None
        assert _counts(scheme)["misses"] == before["misses"] + 1
        assert [(e.kind, e.fields) for e in bus.events] == \
            [("snapshot.miss", {"target": 5})]


@SCHEMES
def test_envelope_key_order_is_pinned(scheme, shard_result, tmp_path):
    store = scheme.store(tmp_path, SPEC)
    path = scheme.save(store, _payload(scheme, shard_result))
    data = path.read_bytes()
    assert data[:2] == bytes([0x80, pickle.HIGHEST_PROTOCOL])
    envelope = pickle.loads(data)
    assert tuple(envelope) == scheme.keys
    version = (CHECKPOINT_VERSION if scheme is CHECKPOINT
               else STATE_VERSION)
    assert envelope["version"] == version
    assert envelope["spec_hash"] == store.spec_hash == \
        spec_hash(SPEC, scheme.version_key)
    assert path.parent == tmp_path / store.spec_hash


@SCHEMES
def test_round_trip_counts_one_write_and_one_hit(scheme, shard_result,
                                                 tmp_path, bus):
    store = scheme.store(tmp_path, SPEC)
    before = _counts(scheme)
    path = scheme.save(store, _payload(scheme, shard_result))
    if scheme is CHECKPOINT:
        restored = store.load(1, 1)
        assert restored.results[0].stats == \
            shard_result.results[0].stats
        expected = [("checkpoint.write",
                     {"path": path.name, "cycles": 1}),
                    ("checkpoint.hit", {"path": path.name, "cycles": 1})]
    else:
        assert store.load_nearest(3) == (1, _payload(scheme, None))
        expected = [("snapshot.write", {"path": path.name, "cycle": 1}),
                    ("snapshot.hit",
                     {"cycle": 1, "target": 3, "saved": 1})]
    assert [(e.kind, e.fields) for e in bus.events] == expected
    after = _counts(scheme)
    assert {fact: after[fact] - before[fact] for fact in after} == \
        {"hits": 1, "misses": 0, "writes": 1, "rejected": 0}


def test_keys_list_each_scheme_and_skip_temp_files(shard_result,
                                                   tmp_path):
    checkpoints = CheckpointStore(tmp_path, SPEC)
    checkpoints.save(shard_result)
    checkpoints.save(dataclasses.replace(
        shard_result, results=[], block=(1, 2, 4), snapshots=[[], []]))
    (checkpoints.directory / "shard-0001-0001.ckpt1x2y.tmp").touch()
    assert checkpoints.keys() == [(1, 1), (1, 1, 2, 4)]
    states = StateStore(tmp_path, SPEC)
    assert states.keys() == [] and states.cycles() == []
    for cycle in (4, 2):
        states.save(cycle, {"cycle": cycle})
    assert states.keys() == [(2,), (4,)]
    assert states.cycles() == [2, 4]
