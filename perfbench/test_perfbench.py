"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench`` from the repository root (the
repository's own test suite does not collect this directory).
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

from perfbench.check import (Tally, compute_reference,  # noqa: E402
                             cycle_record, judge_pass)
from perfbench.ledger import Ledger  # noqa: E402
from repro.par import StudySpec, run_study  # noqa: E402

SCALE, SEED, CYCLES = 0.3, 11, 2


@pytest.fixture(scope="module")
def study():
    run = run_study(StudySpec(scale=SCALE, seed=SEED, cycles=CYCLES))
    return run.results, compute_reference(SCALE, SEED, CYCLES)


def _judge(results, reference):
    tally = Tally()
    judge_pass([cycle_record(result) for result in results], CYCLES,
               reference, tally)
    return tally


def test_memoized_study_matches_the_reference(study):
    results, reference = study
    tally = _judge(results, reference)
    assert (tally.attempted, tally.failed) == (CYCLES, 0), tally.reasons


def test_perturbed_cycle_is_counted_failed(study):
    results, reference = study
    perturbed = copy.deepcopy(results)
    victim = perturbed[1]
    key = next(iter(victim.classification.verdicts))
    del victim.classification.verdicts[key]
    tally = _judge(perturbed, reference)
    assert (tally.attempted, tally.failed) == (CYCLES, 1)
    assert "cycle 2" in tally.reasons[0]


def test_invariant_violation_is_counted_failed(study):
    results, reference = study
    perturbed = copy.deepcopy(results)
    perturbed[0].filter_stats.after_persistence = \
        perturbed[0].filter_stats.extracted + 1
    tally = _judge(perturbed, reference)
    assert tally.failed == 1


def test_cycles_after_an_exception_are_counted_failed(study):
    results, reference = study
    tally = _judge(results[:1], reference)
    assert (tally.attempted, tally.failed) == (CYCLES, 1)
    assert "not produced" in tally.reasons[0]


class _Toy:
    def outer(self, inner_calls: int) -> None:
        time.sleep(0.01)
        for _ in range(inner_calls):
            self.inner()

    def inner(self) -> None:
        time.sleep(0.005)
        _toy_hash()


def _toy_hash() -> int:
    return 1


def test_ledger_self_times_partition_the_outer_call():
    ledger = Ledger()
    with ledger.installed():
        ledger.patch(_Toy, "outer", "toy.outer")
        ledger.patch(_Toy, "inner", "toy.inner")
        ledger.patch(sys.modules[__name__], "_toy_hash", "toy.hash",
                     count_only=True)
        _Toy().outer(3)
    layers = ledger.layers()
    outer, inner = layers["toy.outer"], layers["toy.inner"]
    assert (outer.calls, inner.calls, layers["toy.hash"].calls) == (1, 3, 3)
    assert outer.self_s + inner.self_s == pytest.approx(outer.total_s)
    assert inner.total_s >= 0.015 and outer.self_s >= 0.01
    # Only the named layers count towards the accounted self time.
    assert ledger.self_sum({"toy.inner"}) == pytest.approx(inner.self_s)
    assert _Toy.outer.__name__ == "outer"
    assert not hasattr(_Toy.outer, "__wrapped__")


def test_forked_workers_ship_their_calls_back():
    """A 2-worker study traced from outside sees every worker trace."""
    from perfbench.layers import LAYER_MAP, install, layer_metrics
    from repro.obs import (MonotonicClock, NullClock, Tracer,
                           get_registry, set_tracer)

    spec = StudySpec(scale=SCALE, seed=SEED, cycles=CYCLES)
    registry = get_registry()
    before = registry.snapshot()
    ledger = Ledger()
    tracer = set_tracer(Tracer(MonotonicClock()))
    try:
        with ledger.installed():
            install(ledger)
            run = run_study(spec, workers=2)
    finally:
        set_tracer(Tracer(NullClock()))
    delta = registry.diff(before, registry.snapshot())
    values = layer_metrics(ledger, tracer.roots, delta, 1.0,
                           [run.results], run.simulator)
    traces = sum(entry["value"]
                 for entry in delta["sim_traces_total"]["values"])
    assert values["sim.traceroute.trace.calls"] == traces > 0
    assert values["par.runner.worker_busy_s"] > 0
    assert values["par.runner.shard_imbalance"] >= 1.0
    # The driving process adds the set-up and overhead figures.
    assert set(values) | {"warts.write_archive_s",
                          "obs.tracing_overhead"} == set(LAYER_MAP)


def test_probe_samples_the_host_and_restores_the_timer():
    import signal

    from perfbench.hostspeed import PERIOD_S, REF_CHUNK_S, Probe, \
        host_factor

    previous = signal.getsignal(signal.SIGALRM)
    with Probe() as probe:
        end = time.perf_counter() + 4 * PERIOD_S
        while time.perf_counter() < end:
            pass
        child = os.fork()
        if child == 0:  # a pool worker, say: it samples on its own
            end = time.perf_counter() + 4 * PERIOD_S
            while time.perf_counter() < end:
                pass
            os._exit(0)
        os.waitpid(child, 0)
    assert probe.chunks >= 2
    assert probe.cpu_s >= probe.chunk_s > 0
    chunk_s, chunks, cpu_s = probe.children()
    assert chunks >= 2 and cpu_s >= chunk_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    # A host on which chunks take twice the reference halves the time.
    assert host_factor(4 * REF_CHUNK_S, 2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        host_factor(0.0, 0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == b""


def test_benchmark_json_names_every_metric_the_runner_prints():
    import json

    from perfbench.layers import LAYER_MAP
    from perfbench.run import END_TO_END_UNITS
    from perfbench.workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as stream:
        bench = json.load(stream)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] \
        == [(name, unit, better)
            for name, (unit, better, _moves, _on) in LAYER_MAP.items()]


def test_reference_table_matches_the_reference_configuration():
    from perfbench.check import load_table

    assert compute_reference(1.0, 1, 1) == load_table()["1/1"][:1]
