"""The benchmark's design record, and the steadiness runs behind it.

Why each workload was chosen, its loop type, scale and process count
are in ``BENCHMARK.json``.  ``python3 perfbench/design.py`` rewrites
``perfbench/design.json`` with what that file cannot hold: the layer
map (layer metric -> the end-to-end metric it should move, on which
workloads), regenerated from :data:`perfbench.layers.LAYER_MAP`, and
the measured spreads.

``python3 perfbench/design.py --measure --runs 10`` first runs every
workload ``--runs`` times, each with another seed, and appends a set to
the ``measured`` section: for each end-to-end metric the values, their
median and their spread — the distance between the first and third
quartile (``statistics.quantiles(n=4)``) as a share of the median —
with the machine it ran on.  With two or more sets, ``agreement`` gives
how much worse the last set's medians are than the first's, against
each metric's bound.  ``--new`` drops the earlier sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESIGN_FILE = HERE / "design.json"


def _spread(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def measure(bench: Dict[str, Any], runs: int, first_seed: int,
            workloads: Sequence[str]) -> Dict[str, Any]:
    """Run each workload ``runs`` times; per-metric median and spread."""
    measured: Dict[str, Any] = {}
    for name in workloads:
        samples: Dict[str, List[float]] = {}
        for seed in range(first_seed, first_seed + runs):
            command = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            started = time.perf_counter()
            completed = subprocess.run(command, cwd=ROOT, check=True,
                                       stdout=subprocess.PIPE)
            result = json.loads(completed.stdout.decode().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect output")
            for metric, data in result["metrics"].items():
                samples.setdefault(metric, []).append(data["value"])
            print(f"{name} seed={seed} "
                  f"({time.perf_counter() - started:.0f} s): "
                  + " ".join(f"{metric}={data['value']:.4g}"
                             for metric, data in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        measured[name] = {
            metric: {"median": statistics.median(values),
                     "spread": _spread(values), "values": values}
            for metric, values in samples.items()}
    return measured


def design(measured: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import LAYER_MAP

    return {
        "layer_map": {
            name: {"unit": unit, "better": better, "moves": moves,
                   "on": list(on)}
            for name, (unit, better, moves, on) in LAYER_MAP.items()},
        "measured": measured,
    }


def _agreement(bench: Dict[str, Any], sets: List[Dict[str, Any]]
               ) -> Dict[str, Any]:
    """Last set's medians against the first's, as a share of the first,
    signed so that positive is worse; ``within`` compares with the bound."""
    first, last = sets[0]["workloads"], sets[-1]["workloads"]
    out: Dict[str, Any] = {}
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower"
                                      else -1)
        for workload in first:
            if workload not in last:
                continue
            a = first[workload][name]["median"]
            b = last[workload][name]["median"]
            worse = sign * (b - a) / a
            out.setdefault(workload, {})[name] = {
                "worse_by": worse, "within": worse <= metric["bound"]}
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--measure", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--new", action="store_true",
                        help="drop the sets measured before")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as stream:
        bench = json.load(stream)
    measured: Dict[str, Any] = {}
    if DESIGN_FILE.exists() and not args.new:
        with open(DESIGN_FILE, "r", encoding="utf-8") as stream:
            measured = json.load(stream).get("measured") or {}
    if args.measure:
        names = args.workload or [w["name"] for w in bench["workloads"]]
        fresh = measure(bench, args.runs, args.first_seed, names)
        sets = measured.get("sets", []) + [{
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                       f"Python {platform.python_version()}",
            "run_seconds": bench["run_seconds"],
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "workloads": fresh}]
        measured = {"sets": sets}
        if len(sets) > 1:
            measured["agreement"] = _agreement(bench, sets)
        for name, metrics in fresh.items():
            for metric, data in metrics.items():
                print(f"{name:18s} {metric:14s} median={data['median']:.4g}"
                      f" spread={data['spread']:.3f}", file=sys.stderr)
    with open(DESIGN_FILE, "w", encoding="utf-8") as stream:
        json.dump(design(measured), stream, indent=1)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
