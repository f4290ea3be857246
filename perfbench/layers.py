"""The traced run: the per-layer ledger of one workload.

A traced run first drives untraced rounds, which give the public counters
(``PipelineStats``, ``scheduler.steps``, protocol, link, mux and socket
``stats``), the timings around the public set-up calls and the untraced
wall time per item.  It then drives rounds under the stdlib profiler
(``cProfile``), whose self time and exact call counts are charged to the
``src/repro`` module each function lives in.  Self time outside
``src/repro`` -- the stdlib, builtins and the benchmark's own code -- is
charged to ``other``.  Nothing is added to the program.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
from pathlib import Path

#: The layers of the ledger, each a module of ``src/repro``.
LAYERS = (
    "mbt.scheduler", "mbt.mailbox", "mbt.thread", "mbt.message",
    "mbt.coroutine",
    "runtime.engine", "runtime.section", "runtime.bridge",
    "components.frag", "components.buffers",
    "core.styles", "core.component", "core.composition", "core.typespec",
    "core.glue",
    "media.batch", "media.codec", "media.resize", "media.frames",
    "media.arrays",
    "net.marshal", "net.protocols", "net.network", "net.netpipe",
    "net.socketlink", "net.mux",
    "fabric.session",
    # The drop-tail queue that the stream protocol's bursts overflow.
    "net.links",
)
#: Modules of ``src/repro`` outside LAYERS, charged as one more layer.
REST = "repro_rest"
OTHER = "other"

#: Share of the run's seconds spent on untraced rounds.
UNTRACED_SHARE = 0.4

_PACKAGE = (Path(__file__).resolve().parent.parent / "src" / "repro").resolve()


def module_of(filename: str) -> str:
    """``src/repro/mbt/scheduler.py`` -> ``mbt.scheduler``; anything
    outside the package -> ``other``."""
    if filename.startswith("<") or filename == "~":
        return OTHER
    path = Path(filename).resolve()
    if _PACKAGE not in path.parents:
        return OTHER
    parts = path.relative_to(_PACKAGE).with_suffix("").parts
    name = ".".join(parts)
    return name if name in LAYERS else REST


def self_time_by_module(profiler: cProfile.Profile) -> dict:
    """{module: [self seconds, calls]} from one profile."""
    grouped: dict[str, list] = {}
    for (filename, _, _), (_, calls, self_s, _, _) in pstats.Stats(
        profiler
    ).stats.items():
        entry = grouped.setdefault(module_of(filename), [0.0, 0])
        entry[0] += self_s
        entry[1] += calls
    return grouped


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _counter_metrics(rounds: list[dict]) -> dict:
    totals: dict[str, float] = {"items": 0, "rounds": len(rounds)}
    for figures in rounds:
        totals["items"] += figures["delivered"]
        for key, value in figures["counters"].items():
            totals[key] = totals.get(key, 0) + value
    ratios = {  # metric: (numerator, denominator, unit)
        "mbt.steps_per_item": ("steps", "items", "count"),
        "runtime.context_switches_per_item": (
            "context_switches", "items", "count"
        ),
        "runtime.coroutine_switches_per_item": (
            "coroutine_switches", "items", "count"
        ),
        "runtime.items_per_batch": ("batch_items", "batches", "count"),
        "net.packets_per_item": ("packets", "items", "count"),
        "net.retransmits_per_packet": ("retransmits", "packets", "count"),
        "net.link_delivered_ratio": ("link_delivered", "link_sent", "ratio"),
        "net.wire_bytes_per_item": ("wire_bytes", "items", "B"),
        "net.stream_virtual_s": ("stream_virtual_s", "rounds", "s"),
        "net.mux_frames_per_item": ("mux_frames", "items", "count"),
        "net.mux_credit_frames_per_item": (
            "mux_credit_frames", "items", "count"
        ),
        "net.mux_stalls_per_item": ("mux_stalls", "items", "count"),
    }
    return {
        name: (_ratio(totals.get(num, 0), totals.get(den, 0)), unit)
        for name, (num, den, unit) in ratios.items()
    }


def _setup_metrics(rounds: list[dict]) -> dict:
    times = [figures["times"] for figures in rounds]
    pipelines = sum(t.pipelines for t in times)
    metrics = {
        "setup.build_us_per_pipeline": (
            _ratio(sum(t.build_ns for t in times), pipelines) / 1e3, "us"
        ),
        "setup.engine_us_per_pipeline": (
            _ratio(sum(t.engine_ns for t in times), pipelines) / 1e3, "us"
        ),
    }
    opens = sorted(ns for t in times for ns in t.open_ns)
    if opens:
        def growth(open_ns):
            tenth = max(1, len(open_ns) // 10)
            return statistics.median(open_ns[-tenth:]) / statistics.median(
                open_ns[:tenth]
            )

        p50 = opens[len(opens) // 2] / 1e3
        p99 = opens[min(len(opens) - 1, len(opens) * 99 // 100)] / 1e3
        open_growth = statistics.median(growth(t.open_ns) for t in times)
    else:
        p50 = p99 = open_growth = 0.0
    metrics["fabric.open_us_p50"] = (p50, "us")
    metrics["fabric.open_us_p99"] = (p99, "us")
    metrics["fabric.open_us_growth"] = (open_growth, "ratio")
    return metrics


def traced_metrics(measure, seconds: float) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` for one workload."""
    plain = measure.for_seconds(seconds * UNTRACED_SHARE, keep_counters=True)
    profiler = cProfile.Profile()
    traced = measure.for_seconds(
        seconds * (1.0 - UNTRACED_SHARE), profiler=profiler
    )

    metrics = _counter_metrics(plain)
    metrics.update(_setup_metrics(plain))

    items = sum(figures["delivered"] for figures in traced)
    grouped = self_time_by_module(profiler)
    for layer in LAYERS + (REST,):
        self_s, calls = grouped.get(layer, (0.0, 0))
        metrics[f"{layer}.self_us_per_item"] = (self_s / items * 1e6, "us")
        metrics[f"{layer}.calls_per_item"] = (calls / items, "count")
    other_s = grouped.get(OTHER, (0.0, 0))[0]
    metrics[f"{OTHER}.self_us_per_item"] = (other_s / items * 1e6, "us")

    def wall_per_item(rounds):
        return _ratio(
            sum(r["run_s"] for r in rounds), sum(r["delivered"] for r in rounds)
        )

    metrics["trace.overhead_x"] = (
        _ratio(wall_per_item(traced), wall_per_item(plain)), "x"
    )
    traced_cpu = sum(r["setup_cpu_s"] + r["cpu_s"] for r in traced)
    covered = sum(self_s for self_s, _ in grouped.values())
    metrics["trace.residual_pct"] = (
        _ratio(traced_cpu - covered, traced_cpu) * 100.0, "%"
    )
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in sorted(metrics.items())
    }
