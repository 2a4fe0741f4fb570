"""Per-layer metrics of a traced repetition.

:func:`install` wraps the public calls of each layer into a
:class:`~perfbench.ledger.Ledger`; :func:`layer_metrics` turns one
traced repetition — the ledger tree, the program's own span tree
(grafted worker spans included) and the registry delta — into the
``per_layer`` metrics of ``BENCHMARK.json``.  ``LAYER_MAP`` records
which end-to-end metric each should move, on which workload.
"""

from __future__ import annotations

import os
import statistics
from typing import Any, Dict, Iterable, List, Tuple

from .ledger import Ledger

# name -> (unit, better, end-to-end metric it moves, on which workloads)
LAYER_MAP: Dict[str, Tuple[str, str, str, Tuple[str, ...]]] = {}

SERIAL, ARCHIVES, SHARDED = ("study-serial", "classify-archives",
                             "campaign-sharded")
ALL = (SERIAL, ARCHIVES, SHARDED)


def _declare(names: Iterable[str], unit: str, better: str, moves: str,
             workloads: Tuple[str, ...]) -> None:
    for name in names:
        LAYER_MAP[name] = (unit, better, moves, workloads)


_declare(["sim.traceroute.reply.self_s"], "s", "lower", "traces_per_s",
         (SERIAL, SHARDED))
_declare(["sim.traceroute.trace.calls"], "count", "lower",
         "traces_per_s", (SERIAL, SHARDED))
_declare(["sim.traceroute.probes_per_trace"], "ratio", "lower",
         "traces_per_s", (SERIAL, SHARDED))
_declare(["sim.traceroute.stack_cache.hit_ratio"], "ratio", "higher",
         "traces_per_s", (SERIAL, SHARDED))
_declare(["igp.ecmp.flow_hash.calls_per_trace"], "ratio", "lower",
         "traces_per_s", (SERIAL,))
_declare(["sim.ark.run_cycle.self_s"], "s", "lower", "traces_per_s",
         (SERIAL, SHARDED))
_declare(["sim.dataplane.forward_path.self_s"], "s", "lower",
         "traces_per_s", (SERIAL,))
_declare(["sim.dataplane.forward_path.calls"], "count", "lower",
         "traces_per_s", (SERIAL,))
_declare(["sim.dataplane.route_cache.hit_ratio",
          "sim.dataplane.hop_cache.hit_ratio",
          "sim.network.segment_cache.hit_ratio"], "ratio", "higher",
         "traces_per_s", (SERIAL,))
_declare(["net.icmp.codec_s"], "s", "lower", "wall_s", (SERIAL,))
_declare(["net.icmp.codec.calls"], "count", "lower", "wall_s", (SERIAL,))
_declare(["sim.ark.assignments_s", "sim.ark.fast_forward_s",
          "sim.network.control_s", "sim.network.capture_state_s",
          "sim.network.restore_state_s"], "s", "lower", "wall_s",
         (SHARDED,))
_declare(["sim.ark.fast_forward.cycles"], "count", "lower", "wall_s",
         (SHARDED,))
_declare(["core.pipeline.process_s", "core.extraction.extract_all_s",
          "core.pipeline.follow_ups_s", "core.filters.run_filters_s"],
         "s", "lower", "traces_per_s", (ARCHIVES, SERIAL))
_declare(["core.filters.survival_ratio"], "ratio", "higher",
         "traces_per_s", (ARCHIVES,))
_declare(["core.classification.classify_s",
          "core.pipeline.dataset_stats_s", "net.ip2as.lookup_s"], "s",
         "lower", "traces_per_s", (ARCHIVES, SERIAL))
_declare(["net.ip2as.memo.hit_ratio"], "ratio", "higher",
         "traces_per_s", (ARCHIVES,))
_declare(["warts.read_archive_s"], "s", "lower", "traces_per_s",
         (ARCHIVES,))
_declare(["warts.read.mb_per_s"], "MB/s", "higher", "traces_per_s",
         (ARCHIVES,))
_declare(["warts.write_archive_s"], "s", "lower", "setup_s", (ARCHIVES,))
_declare(["par.runner.state_seed_s", "par.runner.parent_wait_s",
          "par.runner.worker_busy_s"], "s", "lower", "wall_s and cpu_s",
         (SHARDED,))
_declare(["par.runner.shard_imbalance"], "ratio", "lower", "wall_s",
         (SHARDED,))
_declare(["par.checkpoint.save_s", "par.checkpoint.load_s",
          "par.statestore.save_s", "par.statestore.load_s"], "s",
         "lower", "wall_s", (SHARDED,))
_declare(["par.checkpoint.bytes", "par.statestore.bytes"], "bytes",
         "lower", "wall_s", (SHARDED,))
_declare(["obs.tracing_overhead"], "ratio", "lower",
         "none: traced wall_s / untraced wall_s - 1", ALL)
_declare(["obs.traced.wall_s", "obs.layers.self_sum_s"], "s", "lower",
         "none: self-time accounting of the traced repetition", ALL)
_declare(["obs.layers.coverage"], "ratio", "higher",
         "none: share of the traced wall_s that the ACCOUNTED layers' "
         "self times, in the measuring process, account for", ALL)

# The ledger layers behind the listed per-layer time metrics.  Their self
# times are disjoint, so their sum over the measuring process is what
# those metrics account for of a traced repetition
# (``obs.layers.self_sum_s``, ``obs.layers.coverage``).  Left out on
# purpose: ``sim.ark.run_cycle`` — its self time is the simulator work no
# listed layer covers (the ``trace_all`` loop, engine and data-plane
# construction, ``flow_hash``), reported alone as
# ``sim.ark.run_cycle.self_s`` — and ``net.ip2as.load``.
ACCOUNTED = frozenset({
    "sim.traceroute.trace", "sim.dataplane.forward_path",
    "net.icmp.codec", "sim.ark.assignments", "sim.ark.fast_forward",
    "sim.network.control", "sim.network.capture_state",
    "sim.network.restore_state", "core.pipeline.process",
    "core.pipeline.follow_ups", "core.extraction.extract_all",
    "core.filters.run_filters", "core.classification.classify",
    "core.pipeline.dataset_stats", "net.ip2as.lookup",
    "warts.read_archive", "par.runner.parent_wait",
    "par.checkpoint.save", "par.checkpoint.load", "par.statestore.save",
    "par.statestore.load",
})


def _file_bytes(_args, _kwargs, result) -> float:
    return float(os.path.getsize(result))


def _arg_bytes(args, kwargs, _result) -> float:
    return float(os.path.getsize(args[0] if args else kwargs["path"]))


def _cycles(args, kwargs, _result) -> float:
    first = args[1] if len(args) > 1 else kwargs.get("first", 1)
    last = args[2] if len(args) > 2 else kwargs.get("last", 0)
    return float(max(0, last - first + 1))


def install(ledger: Ledger) -> None:
    """Wrap every layer's public entry points."""
    import repro.bgp.routing
    import repro.igp
    import repro.igp.ecmp
    import repro.mpls.srte
    import repro.sim.monitors
    from repro import warts
    from repro.core import pipeline
    from repro.net.icmp import TimeExceeded
    from repro.net.ip2as import Ip2AsMapper
    from repro.par import runner
    from repro.par.checkpoint import CheckpointStore
    from repro.par.statestore import StateStore
    from repro.sim import ark, dataplane, network, traceroute

    patch = ledger.patch
    for module in (repro.igp.ecmp, repro.igp, dataplane, traceroute, ark,
                   network, repro.sim.monitors, repro.mpls.srte,
                   repro.bgp.routing):
        patch(module, "flow_hash", "igp.ecmp.flow_hash", count_only=True)
    patch(traceroute.TracerouteEngine, "trace", "sim.traceroute.trace")
    patch(dataplane.DataPlane, "forward_path",
          "sim.dataplane.forward_path")
    patch(TimeExceeded, "encode", "net.icmp.codec")
    patch(TimeExceeded, "decode", "net.icmp.codec")
    patch(ark.ArkSimulator, "run_cycle", "sim.ark.run_cycle")
    patch(ark.ArkSimulator, "assignments", "sim.ark.assignments")
    patch(ark.ArkSimulator, "fast_forward", "sim.ark.fast_forward",
          meter=_cycles)
    patch(network.Internet, "apply_policies", "sim.network.control")
    patch(network.Internet, "tick", "sim.network.control")
    patch(network.Internet, "capture_state", "sim.network.capture_state")
    patch(network.Internet, "restore_state", "sim.network.restore_state")
    patch(pipeline.LprPipeline, "process_snapshots",
          "core.pipeline.process")
    patch(pipeline.LprPipeline, "follow_up_signatures",
          "core.pipeline.follow_ups")
    patch(pipeline, "extract_all", "core.extraction.extract_all")
    patch(pipeline, "run_filters", "core.filters.run_filters")
    patch(pipeline, "classify", "core.classification.classify")
    patch(pipeline, "dataset_stats", "core.pipeline.dataset_stats")
    for method in ("lookup", "lookup_single", "lookup_many"):
        patch(Ip2AsMapper, method, "net.ip2as.lookup")
    patch(Ip2AsMapper, "load", "net.ip2as.load")
    for module in (warts.format, warts):
        patch(module, "read_archive", "warts.read_archive",
              meter=_arg_bytes)
        patch(module, "write_archive", "warts.write_archive")
    patch(CheckpointStore, "save", "par.checkpoint.save",
          meter=_file_bytes)
    patch(CheckpointStore, "load", "par.checkpoint.load")
    patch(StateStore, "save", "par.statestore.save", meter=_file_bytes)
    patch(StateStore, "load_nearest", "par.statestore.load")
    patch(runner, "wait", "par.runner.parent_wait")


def _counter(delta: Dict[str, Any], name: str) -> float:
    data = delta.get(name)
    if not data:
        return 0.0
    return float(sum(entry["value"] for entry in data["values"]))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(delta: Dict[str, Any], prefix: str) -> float:
    hits = _counter(delta, f"{prefix}_hits_total")
    return _ratio(hits, hits + _counter(delta, f"{prefix}_misses_total"))


def _spans(roots, name: str) -> List[float]:
    return [span.duration for root in roots
            for _depth, span in root.walk() if span.name == name]


def layer_metrics(ledger: Ledger, span_roots, delta: Dict[str, Any],
                  wall_s: float, passes: List[list],
                  simulator: Any) -> Dict[str, float]:
    """Per-layer values of one traced repetition."""
    ledger.absorb_spans(span_roots)
    layers = ledger.layers()

    def total(layer: str) -> float:
        return layers[layer].total_s if layer in layers else 0.0

    def calls(layer: str) -> float:
        return float(layers[layer].calls) if layer in layers else 0.0

    def self_s(layer: str) -> float:
        return layers[layer].self_s if layer in layers else 0.0

    def meter(layer: str) -> float:
        return layers[layer].meter if layer in layers else 0.0

    traces = calls("sim.traceroute.trace")
    segment = (0.0, 0.0)
    if simulator is not None:
        cache = simulator.internet.segment_cache
        segment = (cache.base_hits + cache.degraded_hits,
                   cache.base_misses + cache.degraded_misses)
    first_pass = passes[0] if passes else []
    extracted = sum(r.filter_stats.extracted for r in first_pass)
    survived = sum(r.filter_stats.after_persistence for r in first_pass)
    workers = _spans(span_roots, "par.worker")
    self_sum = ledger.self_sum(ACCOUNTED)
    return {
        "sim.traceroute.reply.self_s": self_s("sim.traceroute.trace"),
        "sim.traceroute.trace.calls": traces,
        "sim.traceroute.probes_per_trace": _ratio(
            _counter(delta, "probes_total"),
            _counter(delta, "traces_total")),
        "sim.traceroute.stack_cache.hit_ratio": _hit_ratio(
            delta, "quoted_stack_cache"),
        "igp.ecmp.flow_hash.calls_per_trace": _ratio(
            calls("igp.ecmp.flow_hash"), traces),
        "sim.ark.run_cycle.self_s": self_s("sim.ark.run_cycle"),
        "sim.dataplane.forward_path.self_s": self_s(
            "sim.dataplane.forward_path"),
        "sim.dataplane.forward_path.calls": calls(
            "sim.dataplane.forward_path"),
        "sim.dataplane.route_cache.hit_ratio": _hit_ratio(
            delta, "route_cache"),
        "sim.dataplane.hop_cache.hit_ratio": _hit_ratio(
            delta, "hop_cache"),
        "sim.network.segment_cache.hit_ratio": _ratio(
            segment[0], segment[0] + segment[1]),
        "net.icmp.codec_s": total("net.icmp.codec"),
        "net.icmp.codec.calls": calls("net.icmp.codec"),
        "sim.ark.assignments_s": total("sim.ark.assignments"),
        "sim.ark.fast_forward_s": total("sim.ark.fast_forward"),
        "sim.ark.fast_forward.cycles": meter("sim.ark.fast_forward"),
        "sim.network.control_s": total("sim.network.control"),
        "sim.network.capture_state_s": total("sim.network.capture_state"),
        "sim.network.restore_state_s": total("sim.network.restore_state"),
        "core.pipeline.process_s": total("core.pipeline.process"),
        "core.extraction.extract_all_s": total(
            "core.extraction.extract_all"),
        "core.pipeline.follow_ups_s": total("core.pipeline.follow_ups"),
        "core.filters.run_filters_s": total("core.filters.run_filters"),
        "core.filters.survival_ratio": _ratio(survived, extracted),
        "core.classification.classify_s": total(
            "core.classification.classify"),
        "core.pipeline.dataset_stats_s": total(
            "core.pipeline.dataset_stats"),
        "net.ip2as.lookup_s": total("net.ip2as.lookup"),
        "net.ip2as.memo.hit_ratio": _hit_ratio(
            delta, "ip2as_lookup_cache"),
        "warts.read_archive_s": total("warts.read_archive"),
        "warts.read.mb_per_s": _ratio(meter("warts.read_archive") / 1e6,
                                      total("warts.read_archive")),
        "par.runner.state_seed_s": sum(_spans(span_roots,
                                              "par.state_seed")),
        "par.runner.parent_wait_s": total("par.runner.parent_wait"),
        "par.runner.worker_busy_s": sum(workers),
        "par.runner.shard_imbalance": _ratio(
            max(workers, default=0.0),
            statistics.fmean(workers) if workers else 0.0),
        "par.checkpoint.save_s": total("par.checkpoint.save"),
        "par.checkpoint.load_s": total("par.checkpoint.load"),
        "par.checkpoint.bytes": meter("par.checkpoint.save"),
        "par.statestore.save_s": total("par.statestore.save"),
        "par.statestore.load_s": total("par.statestore.load"),
        "par.statestore.bytes": meter("par.statestore.save"),
        "obs.traced.wall_s": wall_s,
        "obs.layers.self_sum_s": self_sum,
        "obs.layers.coverage": _ratio(self_sum, wall_s),
    }
