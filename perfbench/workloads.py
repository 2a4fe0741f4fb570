"""The benchmark's workloads.

Each workload is a closed loop with one campaign in flight: a
repetition starts only when the previous one has finished, and there
is no arrival rate.  A workload has

* ``setup(seed, work)`` — everything before its timed phase, which
  the driving process times in ``setup_reps`` samples of
  ``setup_batch`` set-ups each (``setup_s``, the median per set-up);
* ``prepare(work)`` — untimed per-repetition housekeeping;
* ``rep(seed, work, passes)`` — one timed repetition.  It appends one
  list per pass over cycles ``1..cycles`` to ``passes`` and fills it
  as cycles finish, so a repetition that raises still leaves the
  cycles it completed to be checked.  It returns a :class:`Rep`.

The program only ever sees the ``StudySpec`` / archives built from the
seed; ``work`` is a working directory inside the checkout.  Why each
workload was chosen is written next to its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis import run_longitudinal_study
from repro.core.pipeline import LprPipeline
from repro.net.ip2as import Ip2AsMapper
from repro.obs import get_registry
from repro.par import StudySpec, build_study
from repro.warts import format as warts_format


@dataclass
class Rep:
    """What one repetition reports besides its results."""

    traces: int
    simulator: Optional[Any] = None


def _sim_traces() -> float:
    return get_registry().counter("sim_traces_total").value()


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    cycles: int
    workers: int = 1
    passes: int = 1
    setup_reps: int = 15
    setup_batch: int = 20

    def spec(self, seed: int) -> StudySpec:
        return StudySpec(scale=self.scale, seed=seed, cycles=self.cycles)

    def setup(self, seed: int, work: Path) -> None:
        build_study(self.spec(seed))

    def prepare(self, work: Path) -> None:
        pass

    def rep(self, seed: int, work: Path, passes: List[list]) -> Rep:
        raise NotImplementedError


class StudySerial(Workload):
    """The default ``repro study`` path: serial, no stores."""

    def rep(self, seed: int, work: Path, passes: List[list]) -> Rep:
        start = _sim_traces()
        study = run_longitudinal_study(scale=self.scale, seed=seed,
                                       cycles=self.cycles, workers=1)
        passes.append(study.longitudinal.results)
        return Rep(traces=int(_sim_traces() - start),
                   simulator=study.simulator)


class ClassifyArchives(Workload):
    """``repro simulate`` in set-up, ``repro classify`` per cycle timed."""

    def setup(self, seed: int, work: Path) -> None:
        out = _fresh(work / "archives")
        simulator, _pipeline = build_study(self.spec(seed))
        with open(out / "pfx2as.txt", "w", encoding="utf-8") as stream:
            simulator.internet.ip2as.dump(stream)
        for cycle in range(1, self.cycles + 1):
            data = simulator.run_cycle(cycle)
            cycle_dir = out / f"cycle-{cycle:02d}"
            cycle_dir.mkdir()
            for index, snapshot in enumerate(data.snapshots):
                warts_format.write_archive(
                    cycle_dir / f"snapshot-{index}.rwts", snapshot)

    def rep(self, seed: int, work: Path, passes: List[list]) -> Rep:
        out = work / "archives"
        results: list = []
        passes.append(results)
        traces = 0
        for cycle in range(1, self.cycles + 1):
            with open(out / "pfx2as.txt", "r", encoding="utf-8") as stream:
                ip2as = Ip2AsMapper.load(stream)
            cycle_dir = out / f"cycle-{cycle:02d}"
            snapshots = [warts_format.read_archive(path) for path in
                         sorted(cycle_dir.glob("snapshot-*.rwts"))]
            traces += sum(len(snapshot) for snapshot in snapshots)
            results.append(
                LprPipeline(ip2as).process_snapshots(cycle, snapshots))
        return Rep(traces=traces)


class CampaignSharded(Workload):
    """A sharded run into empty stores, then a resume over them."""

    def setup(self, seed: int, work: Path) -> None:
        build_study(self.spec(seed))
        self.prepare(work)

    def prepare(self, work: Path) -> None:
        stores = _fresh(work / "stores")
        (stores / "checkpoints").mkdir()
        (stores / "state").mkdir()

    def rep(self, seed: int, work: Path, passes: List[list]) -> Rep:
        stores = work / "stores"
        options = dict(scale=self.scale, seed=seed, cycles=self.cycles,
                       workers=self.workers,
                       checkpoint_dir=stores / "checkpoints",
                       state_dir=stores / "state")
        start = _sim_traces()
        fresh = run_longitudinal_study(**options)
        passes.append(fresh.longitudinal.results)
        traces = int(_sim_traces() - start)
        resumed = run_longitudinal_study(**options)
        passes.append(resumed.longitudinal.results)
        return Rep(traces=traces, simulator=resumed.simulator)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        StudySerial(name="study-serial", scale=1.0, cycles=12),
        ClassifyArchives(name="classify-archives", scale=2.0, cycles=3,
                         setup_reps=3, setup_batch=1),
        CampaignSharded(name="campaign-sharded", scale=0.5, cycles=24,
                        workers=2, passes=2),
    )
}
