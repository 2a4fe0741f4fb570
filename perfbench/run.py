"""The repository benchmark: one workload, one seed, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study-serial --seed 1 \\
        --seconds 25 --trace 0

This process starts a fresh measuring process for the timed phase, so
``peak_rss_mb`` and ``cpu_s`` belong to that phase alone.  It times
the workload's set-up in several samples of a batch of set-ups each,
half before the timed phase and half after it (median ``setup_s``).
The measuring process runs one untimed warm-up repetition, then
repetitions until ``--seconds`` have passed (at least
``MIN_REPS``), and reports per-repetition wall time, CPU time of
itself and its children, traces and per-cycle digests.  This process
checks every cycle against the reference digests
(:mod:`perfbench.check`) and prints the medians.

Set-up samples and untraced repetitions run under a host-speed probe
(:mod:`perfbench.hostspeed`).  Each one's time, less the probe's own,
is scaled to reference seconds by the probe chunks taken during it,
so that a slow spell of the shared host does not read as a slow
program; every time metric is the median of those.  The raw medians
go to standard error.

``--trace 1`` alternates untraced and traced repetitions and reports
the ``per_layer`` metrics instead (:mod:`perfbench.layers`), plus
``obs.tracing_overhead``; the aggregated call tree and the program's
span totals go to ``.perfbench_work/trace-<workload>-<seed>.json``.

The last line of standard output is the result object; everything
else goes to standard error.  Without the program's sources next to
``perfbench/`` the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
MIN_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "traces_per_s": "traces/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def _cpu_s() -> float:
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (self_usage.ru_utime + self_usage.ru_stime
            + children.ru_utime + children.ru_stime)


def _peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


# -- measuring process ------------------------------------------------------

def _one_rep(workload, seed: int, work: Path,
             traced: bool) -> Dict[str, Any]:
    """Run and check one repetition; trace it when asked."""
    from perfbench.check import cycle_record
    from perfbench.ledger import Ledger
    from repro.obs import (MonotonicClock, NullClock, Tracer,
                           get_registry, set_tracer)

    from perfbench.hostspeed import Probe

    workload.prepare(work)
    gc.collect()
    probe = Probe()
    passes: List[list] = []
    error: Optional[str] = None
    rep = None
    ledger = Ledger()
    registry = get_registry()
    before = registry.snapshot() if traced else None
    tracer = set_tracer(Tracer(MonotonicClock() if traced
                               else NullClock()))
    try:
        with ledger.installed():
            if traced:
                from perfbench.layers import install
                install(ledger)
            with (contextlib.nullcontext() if traced else probe):
                cpu0 = _cpu_s()
                start = time.perf_counter()
                try:
                    rep = workload.rep(seed, work, passes)
                except Exception:
                    error = traceback.format_exc()
                wall = time.perf_counter() - start
                cpu = _cpu_s() - cpu0
    finally:
        set_tracer(Tracer(NullClock()))
    child_chunk_s, child_chunks, child_cpu_s = probe.children()
    out: Dict[str, Any] = {
        "traced": traced,
        "wall_s": wall - probe.cpu_s,
        "cpu_s": cpu - probe.cpu_s - child_cpu_s,
        "probe_cpu_s": probe.cpu_s,
        "chunk_s": probe.chunk_s + child_chunk_s,
        "chunks": probe.chunks + child_chunks,
        "traces": rep.traces if rep is not None else 0,
        "passes": [[cycle_record(result) for result in results]
                   for results in passes],
        "error": error,
    }
    if traced and error is None:
        from perfbench.layers import layer_metrics
        out["layers"] = layer_metrics(
            ledger, tracer.roots, registry.diff(before,
                                                registry.snapshot()),
            wall, passes, rep.simulator)
        out["call_tree"] = ledger.root.to_dict()
        out["span_totals"] = [
            {"name": t.name, "count": t.count, "total_s": t.total_s,
             "self_s": t.self_s} for t in tracer.totals()]
    return out


def measure(args) -> int:
    """The measuring process: warm-up, then the timed loop."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    reps = [_one_rep(workload, args.seed, work, traced=False)]
    reps[0]["warmup"] = True
    deadline = time.perf_counter() + args.seconds
    index = 0
    while (time.perf_counter() < deadline
           or index < MIN_REPS * (2 if args.trace else 1)):
        rep = _one_rep(workload, args.seed, work,
                       traced=bool(args.trace) and index % 2 == 1)
        reps.append(rep)
        index += 1
        if rep["error"] is not None:
            break
    print(json.dumps({"reps": reps, "peak_rss_mb": _peak_rss_mb()}))
    return 0


# -- driving process --------------------------------------------------------

def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _setup(workload, seed: int, work: Path, traced: bool, samples: int,
           times: List[float], writes: List[float],
           chunks: List[Tuple[float, int]]) -> None:
    """Time ``samples`` samples of ``setup_batch`` set-ups each and
    append the time per set-up, less the probe's, to ``times`` and each
    sample's probe chunk time and count to ``chunks``.  Traced, also append the archive
    writing it does to ``writes`` (``warts.write_archive_s``)."""
    from perfbench.hostspeed import Probe
    from perfbench.ledger import Ledger

    batch = workload.setup_batch
    for _ in range(samples):
        gc.collect()
        ledger = Ledger()
        with ledger.installed():
            if traced:
                ledger.patch(sys.modules["repro.warts.format"],
                             "write_archive", "warts.write_archive")
            with Probe() as probe:
                start = time.perf_counter()
                for _ in range(batch):
                    workload.setup(seed, work)
                elapsed = time.perf_counter() - start
            times.append((elapsed - probe.cpu_s) / batch)
            chunks.append((probe.chunk_s, probe.chunks))
        layer = ledger.layers().get("warts.write_archive")
        writes.append(layer.total_s / batch if layer else 0.0)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_child(args, work: Path) -> Dict[str, Any]:
    command = [sys.executable, str(Path(__file__).resolve()), "--measure",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work)]
    # A new process group, so a timeout takes the pool workers down too.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=2 * args.seconds + 90)
    except BaseException:
        _kill_group(child.pid)
        child.wait()
        raise
    _kill_group(child.pid)  # strays, if any
    lines = stdout.decode("utf-8").strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"measuring process exited with status "
                           f"{child.returncode}")
    return json.loads(lines[-1])


def _judge(workload, seed: int, reps: List[Dict[str, Any]]):
    from perfbench.check import Tally, judge_pass, reference

    expected = reference(workload.scale, seed, workload.cycles)
    tally = Tally()
    for number, rep in enumerate(reps):
        for index in range(workload.passes):
            records = (rep["passes"][index]
                       if index < len(rep["passes"]) else [])
            judge_pass(records, workload.cycles, expected, tally,
                       label=f"rep {number} pass {index}: ")
        if rep["error"] is not None:
            tally.reasons.append(f"rep {number} raised:\n{rep['error']}")
    return tally


def _end_to_end(setup: Dict[str, Any], timed: List[Dict[str, Any]],
                peak_rss_mb: float) -> Dict[str, float]:
    """Medians over the repetitions, in reference seconds."""
    from perfbench.hostspeed import REF_CHUNK_S, host_factor

    factors = [host_factor(rep["chunk_s"], rep["chunks"]) for rep in timed]
    setup_factors = [host_factor(*chunks) for chunks in setup["chunks"]]
    walls = [rep["wall_s"] for rep in timed]
    print(f"perfbench: raw medians setup_s={_median(setup['times']):.6g} "
          f"wall_s={_median(walls):.6g}; mean probe chunk "
          f"{REF_CHUNK_S / _median(setup_factors) * 1e3:.4g} ms in set-up, "
          f"{REF_CHUNK_S / _median(factors) * 1e3:.4g} ms timed, reference "
          f"{REF_CHUNK_S * 1e3:g} ms; the probe's CPU time was "
          f"{_median([r['probe_cpu_s'] for r in timed]) / _median(walls):.1%}"
          f" of the timed wall time", file=sys.stderr)
    return {
        "setup_s": _median([time_s * factor for time_s, factor
                            in zip(setup["times"], setup_factors)]),
        "wall_s": _median([wall * factor
                           for wall, factor in zip(walls, factors)]),
        "traces_per_s": _median([rep["traces"] / (rep["wall_s"] * factor)
                                 for rep, factor in zip(timed, factors)]),
        "cpu_s": _median([rep["cpu_s"] * factor
                          for rep, factor in zip(timed, factors)]),
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(setup: Dict[str, Any], timed: List[Dict[str, Any]]
               ) -> Dict[str, float]:
    traced = [rep for rep in timed if rep["traced"]]
    plain = [rep for rep in timed if not rep["traced"]]
    values: Dict[str, float] = {}
    for name in traced[0]["layers"] if traced else []:
        values[name] = _median([rep["layers"][name] for rep in traced])
    values["warts.write_archive_s"] = setup["warts.write_archive_s"]
    untraced_wall = _median([rep["wall_s"] for rep in plain])
    traced_wall = _median([rep["wall_s"] for rep in traced])
    values["obs.tracing_overhead"] = (traced_wall / untraced_wall - 1.0
                                      if untraced_wall else 0.0)
    return values


def _write_trace(workload, seed: int, timed: List[Dict[str, Any]]) -> None:
    """The last traced repetition's call tree and span totals."""
    traced = [rep for rep in timed if rep["traced"]]
    if not traced:
        return
    path = WORK_ROOT / f"trace-{workload.name}-{seed}.json"
    with open(path, "w", encoding="utf-8") as stream:
        json.dump({"workload": workload.name, "seed": seed,
                   "call_tree": traced[-1]["call_tree"],
                   "span_totals": traced[-1]["span_totals"]},
                  stream, indent=1)
    print(f"perfbench: trace written to {path}", file=sys.stderr)


def drive(args) -> int:
    from perfbench.layers import LAYER_MAP
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                 dir=WORK_ROOT))
    try:
        # Half the set-up samples before the timed phase, which needs
        # the set-up's output, and half after it: the host's speed
        # drifts over minutes, and this spreads the samples over the run
        # much as the repetitions are.
        times: List[float] = []
        writes: List[float] = []
        chunks: List[Tuple[float, int]] = []
        before = (workload.setup_reps + 1) // 2
        _setup(workload, args.seed, work, bool(args.trace), before, times,
               writes, chunks)
        child = _run_child(args, work)
        _setup(workload, args.seed, work, bool(args.trace),
               workload.setup_reps - before, times, writes, chunks)
        setup = {"times": times, "chunks": chunks,
                 "warts.write_archive_s": _median(writes)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reps = child["reps"]
    timed = [rep for rep in reps if not rep.get("warmup")]
    tally = _judge(workload, args.seed, reps)
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    clean = [rep for rep in timed if rep["error"] is None]
    if args.trace:
        values = _per_layer(setup, clean)
        units = {name: LAYER_MAP[name][0] for name in values}
        _write_trace(workload, args.seed, clean)
    else:
        values = _end_to_end(setup, clean, child["peak_rss_mb"])
        units = END_TO_END_UNITS
    failed_share = tally.failed / tally.attempted
    print(f"perfbench: {workload.name} seed={args.seed} "
          f"reps={len(timed)} cycles attempted={tally.attempted} "
          f"failed={tally.failed} failed_share={failed_share:.4f} ratio",
          file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}",
              file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (one of "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    return measure(args) if args.measure else drive(args)


if __name__ == "__main__":
    sys.exit(main())
