"""Correctness check: per-cycle digests against an independent reference.

Every cycle a workload produces is reduced to a SHA-256 digest of
:func:`repro.verify.differential.canonical_cycle` and compared with
the digest the *reference configuration* gives for the same (scale,
seed, cycle): a serial study with forwarding memoization off and the
object engine (``StudySpec(memoize=False, engine="object")``).  The
three workloads reach each cycle by different paths (memoized serial
study, warts archive round trip, sharded run and checkpoint resume),
so each run cross-checks its path against that one.  Each cycle also
goes through :func:`repro.verify.invariants.check_cycle`.

``reference.json`` holds the digests for the seeds listed in it.  A
seed missing from the table is computed at run time with the same
reference configuration.  Regenerate or extend the table with::

    python3 perfbench/check.py --seed 0 --seed 1 ...
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"


def _canon(value: Any) -> Any:
    """A repr-stable form: dict items sorted by key, since dict equality
    (what the differential oracle compares) ignores insertion order."""
    if isinstance(value, dict):
        return sorted((repr(_canon(key)), _canon(item))
                      for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def cycle_digest(result) -> str:
    """SHA-256 of one cycle's canonical artifacts."""
    from repro.verify.differential import canonical_cycle

    text = repr(_canon(canonical_cycle(result)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cycle_record(result) -> Dict[str, Any]:
    """What the measuring process reports per cycle: the cycle number,
    its digest and its invariant violations."""
    from repro.verify.invariants import check_cycle

    return {
        "cycle": result.cycle,
        "digest": cycle_digest(result),
        "violations": [str(violation)
                       for violation in check_cycle(result)],
    }


@dataclass
class Tally:
    """Cycles attempted and failed over a run, with the reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def judge_pass(records: Sequence[Dict[str, Any]], cycles: int,
               reference: Sequence[str], tally: Tally,
               label: str = "") -> None:
    """Score one pass over cycles ``1..cycles``.

    A cycle fails when its record is missing (the pass raised before
    reaching it), names another cycle, has a digest other than the
    reference's, or carries an invariant violation.
    """
    for index in range(cycles):
        cycle = index + 1
        tally.attempted += 1
        where = f"{label}cycle {cycle}"
        if index >= len(records):
            tally.fail(f"{where}: not produced")
            continue
        record = records[index]
        if record["cycle"] != cycle:
            tally.fail(f"{where}: result is for cycle {record['cycle']}")
        elif record["digest"] != reference[index]:
            tally.fail(f"{where}: digest differs from the reference")
        elif record["violations"]:
            tally.fail(f"{where}: {record['violations'][0]}")


def _key(scale: float, seed: int) -> str:
    return f"{scale:g}/{seed}"


def load_table(path: Path = REFERENCE_FILE) -> Dict[str, List[str]]:
    if not path.exists():
        return {}
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)["digests"]


def compute_reference(scale: float, seed: int, cycles: int) -> List[str]:
    """Digests of cycles ``1..cycles`` from the reference configuration."""
    from repro.par import StudySpec, run_study

    spec = StudySpec(scale=scale, seed=seed, cycles=cycles,
                     memoize=False, engine="object")
    run = run_study(spec, workers=1)
    return [cycle_digest(result) for result in run.results]


def reference(scale: float, seed: int, cycles: int,
              table: Optional[Dict[str, List[str]]] = None) -> List[str]:
    """The reference digests, from the table or computed now."""
    table = load_table() if table is None else table
    digests = table.get(_key(scale, seed), [])
    if len(digests) >= cycles:
        return digests[:cycles]
    print(f"perfbench: no reference for scale={scale:g} seed={seed} "
          f"cycles={cycles} in {REFERENCE_FILE.name}; computing it with "
          f"the reference configuration", file=sys.stderr)
    return compute_reference(scale, seed, cycles)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Extend perfbench/reference.json with the reference "
                    "configuration's digests for the given seeds.")
    parser.add_argument("--seed", type=int, action="append",
                        required=True)
    args = parser.parse_args(argv)
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root))
    from perfbench.workloads import WORKLOADS

    table = load_table()
    sizes: Dict[float, int] = {}
    for workload in WORKLOADS.values():
        sizes[workload.scale] = max(sizes.get(workload.scale, 0),
                                    workload.cycles)
    for seed in args.seed:
        for scale, cycles in sorted(sizes.items()):
            if len(table.get(_key(scale, seed), [])) >= cycles:
                continue
            table[_key(scale, seed)] = compute_reference(scale, seed,
                                                         cycles)
            print(f"scale={scale:g} seed={seed}: {cycles} cycles",
                  file=sys.stderr)
    payload = {
        "configuration": "StudySpec(scale, seed, cycles, memoize=False, "
                         "engine='object'), serial",
        "digest": "sha256 of repr(canonical_cycle(result)) with dict "
                  "items sorted by key",
        "digests": dict(sorted(table.items())),
    }
    with open(REFERENCE_FILE, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=1)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
