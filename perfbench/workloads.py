"""The four closed-loop workloads of the Infopipes performance ledger.

Every workload runs in *rounds*.  A round is a fixed list of operations
(one operation = one pipeline, clip or tenant flow run to its end), so
every run attempts whole rounds of the same operations and the share of
failed operations is the same in every run.  A round has three phases:

``setup()``
    build, compose, allocate and compile every pipeline and open every
    session, up to the first ``run`` -- the timed set-up phase;
``run(rnd)``
    drive every pipeline to its end -- the timed run phase;
``finish(rnd)``
    check the outputs and turn the stamps into latencies (untimed).

Latency stamps come from the benchmark's own source hand-over and sink
arrival hooks (:func:`stamped`, :class:`StampSink`, :class:`StampedClip`,
:class:`StampedDisplay`), never from the program's own instrumentation.
Inputs are drawn from ``random.Random(seed)``; the program only ever sees
the generated values.
"""

from __future__ import annotations

import random
from time import perf_counter_ns

from repro import (
    ActiveDefragmenter,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    Pipeline,
    PullDefragmenter,
    PushDefragmenter,
    connect,
    pipeline,
)
from repro.components.sinks import Sink
from repro.core.events import EOS
from repro.core.typespec import Typespec
from repro.errors import RemoteError
from repro.fabric import SessionFabric
from repro.mbt import Scheduler, VirtualClock
from repro.media import (
    GopStructure,
    MpegDecoder,
    MpegFileSource,
    PriorityDropFilter,
    Resizer,
    VideoDisplay,
)
from repro.net import Network, Node, RemoteBinder, SocketLink
from repro.net.marshal import MarshalFilter, UnmarshalFilter
from repro.net.mux import StreamMux
from repro.net.netpipe import NetpipeSender, make_netpipe_over


class CheckFailed(Exception):
    """A workload's output differs from what the method must deliver."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Stamping source and sink hooks
# ---------------------------------------------------------------------------


def stamped(values, stamps: list):
    """Yield ``values``, appending the hand-over time of each to ``stamps``."""
    clock = perf_counter_ns
    append = stamps.append
    for value in values:
        append(clock())
        yield value


class StampSink(Sink):
    """The benchmark's sink: every item with its arrival time."""

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self.items: list = []
        self.times: list[int] = []

    def push(self, item) -> None:
        self.times.append(perf_counter_ns())
        self.items.append(item)


class StampedClip(MpegFileSource):
    """MPEG file source recording when each frame is handed over."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stamps: list[int] = []

    def pull(self):
        frame = super().pull()
        if frame is not EOS:
            self.stamps.append(perf_counter_ns())
        return frame

    def pull_many(self, n: int):
        run = super().pull_many(n)
        count = len(run)
        if count and (getattr(run, "columnar", False) or run[-1] is not EOS):
            self.stamps.extend([perf_counter_ns()] * count)
        return run


class StampedDisplay(VideoDisplay):
    """Video display recording when each frame arrives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.times: list[int] = []

    def push(self, frame) -> None:
        self.times.append(perf_counter_ns())
        super().push(frame)


class Outcome:
    """What one round delivered: the counts and per-item latencies (ns)."""

    __slots__ = ("attempted", "failed", "delivered", "latencies_ns")

    def __init__(self, attempted, failed, delivered, latencies_ns):
        self.attempted = attempted
        self.failed = failed
        self.delivered = delivered
        self.latencies_ns = latencies_ns


class SetupTimes:
    """Per-pipeline set-up timings around the public build/engine calls."""

    __slots__ = ("pipelines", "build_ns", "engine_ns", "open_ns")

    def __init__(self):
        self.pipelines = 0
        self.build_ns = 0
        self.engine_ns = 0
        #: Per-session ``open_session`` times, in open order (fabric only).
        self.open_ns: list[int] = []


def _engine_counters(engines) -> dict:
    counters = dict(
        steps=0, context_switches=0, coroutine_switches=0,
        batches=0, batch_items=0,
    )
    schedulers = {}
    for engine in engines:
        schedulers[id(engine.scheduler)] = engine.scheduler
        stats = engine.stats
        counters["coroutine_switches"] += stats.coroutine_switches
        for batch in stats.batching.values():
            counters["batches"] += batch["batches"]
            counters["batch_items"] += batch["items"]
    for scheduler in schedulers.values():
        counters["steps"] += scheduler.steps
        counters["context_switches"] += scheduler.context_switches
    return counters


# ---------------------------------------------------------------------------
# fig9_item / fig9_batch
# ---------------------------------------------------------------------------

#: Figure 9's eight configurations: (first stage, second stage, pump place).
FIG9_CONFIGS = {
    "a": ("producer", "consumer", "mid"),
    "b": ("function", "function", "mid"),
    "c": ("consumer", "consumer", "head"),
    "d": ("main", "function", "mid"),
    "e": ("consumer", "producer", "mid"),
    "f": ("main", "main", "mid"),
    "g": ("consumer", "main", "head"),
    "h": ("consumer", "producer", "head"),
}
#: The paper's coroutine count per configuration.
FIG9_COROUTINES = {
    "a": 1, "b": 1, "c": 1, "d": 2, "e": 3, "f": 3, "g": 2, "h": 2,
}
FIG9_COPIES = 8       # pipelines per configuration per round
FIG9_ITEMS = 512      # integers fed to each pipeline (a multiple of 4)


def _fig9_stage(style: str):
    if style == "function":
        return MapFilter(lambda x: x)
    return {
        "producer": PullDefragmenter,
        "consumer": PushDefragmenter,
        "main": ActiveDefragmenter,
    }[style]()


def fig9_expected(key: str, values: list) -> list:
    """The stream a configuration must deliver, computed from the stage
    kinds alone: each defragmenter merges adjacent pairs, so two of them
    deliver ``tuple(values[4k:4k+4])`` and a function stage is 1:1."""
    first, second, _ = FIG9_CONFIGS[key]
    group = 2 ** sum(style != "function" for style in (first, second))
    if group == 1:
        return list(values)
    return [tuple(values[i:i + group]) for i in range(0, len(values), group)]


def _first_input(item):
    while type(item) is tuple:
        item = item[0]
    return item


class Fig9:
    """Figure 9's eight configurations, integers through two stages."""

    def __init__(self, seed: int, batch_max: int):
        self.rng = random.Random(seed)
        self.batch_max = batch_max

    def setup(self):
        rng = self.rng
        keys = sorted(FIG9_CONFIGS) * FIG9_COPIES
        rng.shuffle(keys)
        bases = [4 * rng.randrange(1 << 20) for _ in keys]
        times = SetupTimes()
        ops = []
        for key, base in zip(keys, bases):
            started = perf_counter_ns()
            first, second, position = FIG9_CONFIGS[key]
            stamps: list[int] = []
            source = IterSource(stamped(range(base, base + FIG9_ITEMS), stamps))
            sink, pump = StampSink(), GreedyPump()
            one, two = _fig9_stage(first), _fig9_stage(second)
            if position == "mid":
                pipe = pipeline(source, one, pump, two, sink)
            else:
                pipe = pipeline(source, pump, one, two, sink)
            built = perf_counter_ns()
            engine = Engine(pipe, batch_max=self.batch_max).start()
            times.build_ns += built - started
            times.engine_ns += perf_counter_ns() - built
            times.pipelines += 1
            ops.append((key, base, engine, sink, stamps))
        return ops, times

    def run(self, rnd) -> None:
        for _, _, engine, _, _ in rnd[0]:
            engine.run()

    def finish(self, rnd) -> Outcome:
        latencies = []
        delivered = 0
        for key, base, engine, sink, stamps in rnd[0]:
            values = list(range(base, base + FIG9_ITEMS))
            check(
                sink.items == fig9_expected(key, values),
                f"fig9 config {key}: sink stream differs from the expected "
                "grouping of its inputs",
            )
            coroutines = engine.plan.sections[0].coroutine_count
            check(
                coroutines == FIG9_COROUTINES[key],
                f"fig9 config {key}: {coroutines} coroutines, the paper "
                f"needs {FIG9_COROUTINES[key]}",
            )
            delivered += len(sink.items)
            latencies.extend(
                arrived - stamps[_first_input(item) - base]
                for item, arrived in zip(sink.items, sink.times)
            )
        return Outcome(len(rnd[0]), 0, delivered, latencies)

    def counters(self, rnd) -> dict:
        return _engine_counters(op[2] for op in rnd[0])

    def close(self, rnd) -> None:
        pass


# ---------------------------------------------------------------------------
# video_netpipe
# ---------------------------------------------------------------------------

CLIP_FRAMES = 480         # frames per clip streamed at batch_max=32
CLIPS = 8                 # such clips per round
CLIP_SEEDS = 2            # distinct clips per run (each checked by a twin)
BULK_FRAMES = 1440        # the bulk clip, at the default batch_max=1
BULK_GOP_SEED = 11        # the bulk clip does not depend on --seed
GOP_SIZE = (160, 120)     # encoded frame geometry
DISPLAY_SIZE = (120, 90)  # resized geometry at the display
MTU = 65536
LINK_BPS = 1_000_000_000
LINK_DELAY = 0.001


def _frame_signature(frames) -> list:
    return [(f.seq, f.kind, f.size, bytes(f.payload)) for f in frames]


def _clip_twin(frames: int, gop_seed: int) -> list:
    """The same clip run per item, in process, without a netpipe: the
    stream a networked, batched run must reproduce."""
    gop = GopStructure(seed=gop_seed, width=GOP_SIZE[0], height=GOP_SIZE[1])
    source = MpegFileSource("clip.mpg", frames=frames, gop=gop, payloads=True)
    display = VideoDisplay(input_spec=Typespec())
    pipe = (
        source >> GreedyPump() >> PriorityDropFilter(level=0)
        >> MpegDecoder(share_references=False)
        >> Resizer(width=DISPLAY_SIZE[0], height=DISPLAY_SIZE[1])
        >> display
    )
    Engine(pipe).start().run()
    return _frame_signature(display.frames)


class Clip:
    """One clip streamed over the simulated stream-protocol netpipe."""

    __slots__ = (
        "frames", "gop_seed", "engine", "source", "display", "sender",
        "link", "error",
    )

    def __init__(self, frames, gop_seed, batch_max, net_seed, times):
        started = perf_counter_ns()
        self.frames = frames
        self.gop_seed = gop_seed
        self.error = None
        scheduler = Scheduler(clock=VirtualClock())
        network = Network(scheduler, seed=net_seed)
        network.add_link(
            "p", "c", bandwidth_bps=LINK_BPS, delay=LINK_DELAY
        )
        producer, consumer = Node("p", network), Node("c", network)
        gop = GopStructure(
            seed=gop_seed, width=GOP_SIZE[0], height=GOP_SIZE[1]
        )
        self.source = producer.place(
            StampedClip("clip.mpg", frames=frames, gop=gop, payloads=True)
        )
        producer_side = (
            self.source >> GreedyPump() >> PriorityDropFilter(level=0)
        )
        feeder = GreedyPump()
        decoder = MpegDecoder(share_references=False)
        resizer = Resizer(width=DISPLAY_SIZE[0], height=DISPLAY_SIZE[1])
        self.display = consumer.place(StampedDisplay(input_spec=Typespec()))
        consumer_side = Pipeline([feeder, decoder, resizer, self.display])
        connect(feeder.out_port, decoder.in_port)
        connect(decoder.out_port, resizer.in_port)
        connect(resizer.out_port, self.display.in_port)
        pipe = RemoteBinder(network).bind(
            producer_side, consumer_side, "p", "c",
            flow="video", protocol="stream", mtu=MTU,
        )
        self.sender = next(
            c for c in pipe.components if isinstance(c, NetpipeSender)
        )
        self.link = network.link("p", "c")
        built = perf_counter_ns()
        self.engine = Engine(
            pipe, scheduler=scheduler, batch_max=batch_max
        ).attach_network(network)
        self.engine.start()
        times.build_ns += built - started
        times.engine_ns += perf_counter_ns() - built
        times.pipelines += 1

    def run(self) -> None:
        engine = self.engine
        try:
            engine.run(until=300.0)
            engine.stop()
            engine.run(max_steps=1_000_000)
        except RemoteError as error:
            self.error = error


class VideoNetpipe:
    """Figure-1 video with real payloads over a stream-protocol netpipe.

    Each round streams ``CLIPS`` clips at ``batch_max=32`` and one bulk
    clip of ``BULK_FRAMES`` frames at the default ``batch_max=1``.  The
    bulk clip fails today (``StreamProtocol`` has no send window, so the
    retransmit timers of a burst fire in lockstep and packet 1,344 runs
    out of retries): it is counted as failed, and counts as delivered
    the frames that reached the display before the abort.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.clip_seeds = [self.rng.randrange(1 << 30) for _ in range(CLIP_SEEDS)]
        self.twins = {
            (CLIP_FRAMES, s): _clip_twin(CLIP_FRAMES, s)
            for s in self.clip_seeds
        }
        self.twins[(BULK_FRAMES, BULK_GOP_SEED)] = _clip_twin(
            BULK_FRAMES, BULK_GOP_SEED
        )

    def setup(self):
        rng = self.rng
        times = SetupTimes()
        specs = [
            (CLIP_FRAMES, self.clip_seeds[i % CLIP_SEEDS], 32)
            for i in range(CLIPS)
        ]
        specs.append((BULK_FRAMES, BULK_GOP_SEED, 1))
        rng.shuffle(specs)
        clips = [
            Clip(frames, gop_seed, batch_max, rng.randrange(1 << 30), times)
            for frames, gop_seed, batch_max in specs
        ]
        return clips, times

    def run(self, rnd) -> None:
        for clip in rnd[0]:
            clip.run()

    def finish(self, rnd) -> Outcome:
        latencies = []
        delivered = failed = 0
        for clip in rnd[0]:
            shown = clip.display.frames
            twin = self.twins[(clip.frames, clip.gop_seed)]
            if clip.error is None:
                check(
                    len(shown) == clip.frames,
                    f"clip of {clip.frames} frames displayed {len(shown)}",
                )
            else:
                failed += 1
            check(
                [f.seq for f in shown] == list(range(len(shown))),
                "frames not displayed once each, in order",
            )
            check(
                all(
                    (f.width, f.height) == DISPLAY_SIZE for f in shown
                ),
                "a displayed frame does not have the resized geometry",
            )
            check(
                _frame_signature(shown) == twin[:len(shown)],
                "displayed stream differs from the per-item in-process twin",
            )
            stamps = clip.source.stamps
            delivered += len(shown)
            latencies.extend(
                arrived - stamps[frame.seq]
                for frame, arrived in zip(shown, clip.display.times)
            )
        return Outcome(len(rnd[0]), failed, delivered, latencies)

    def counters(self, rnd) -> dict:
        clips = rnd[0]
        counters = _engine_counters(clip.engine for clip in clips)
        protocol = [clip.sender.protocol.stats for clip in clips]
        links = [clip.link.stats for clip in clips]
        counters.update(
            packets=sum(s["sent"] for s in protocol),
            retransmits=sum(s["retransmits"] for s in protocol),
            link_sent=sum(s.sent for s in links),
            link_delivered=sum(s.delivered for s in links),
            wire_bytes=sum(s.bytes_delivered for s in links),
            stream_virtual_s=sum(clip.engine.now() for clip in clips),
        )
        return counters

    def close(self, rnd) -> None:
        pass


# ---------------------------------------------------------------------------
# fabric_mux
# ---------------------------------------------------------------------------

FLEET = 1000          # tenant flows per round (2 sessions each)
TENANT_ITEMS = 16     # items per tenant flow
CREDITS = 8           # per-stream credit window, items
DRIVE_STEPS = 500     # scheduler steps per fabric between link pumps
SOCKET_BUFFER = 1 << 22


class FabricMux:
    """A fleet of tenant flows: a producer session in one SessionFabric and
    a consumer session in another, each pair joined by its own credit-
    windowed StreamMux stream over ONE SocketLink socketpair."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self):
        sids = self.rng.sample(range(1 << 24), FLEET)
        times = SetupTimes()
        tx_link, rx_link = SocketLink.pair(bufsize=SOCKET_BUFFER)
        tx_mux, rx_mux = StreamMux(tx_link), StreamMux(rx_link)
        txfab, rxfab = SessionFabric(), SessionFabric()
        sinks, stamps = {}, {}

        def timed_build(build):
            def builder():
                started = perf_counter_ns()
                pipe = build()
                times.build_ns += perf_counter_ns() - started
                return pipe
            return builder

        for sid in sids:
            tx_stream = tx_mux.open_stream(sid, credits=CREDITS)
            rx_stream = rx_mux.open_stream(sid, credits=CREDITS)
            sent = stamps[sid] = []

            def build_tx(stream=tx_stream, sid=sid, sent=sent):
                sender, _ = make_netpipe_over(stream)
                items = stamped(range(sid, sid + TENANT_ITEMS), sent)
                return pipeline(
                    IterSource(items), MarshalFilter(), GreedyPump(), sender
                )

            def build_rx(stream=rx_stream, sid=sid):
                _, receiver = make_netpipe_over(stream)
                sink = sinks[sid] = StampSink(name="sink")
                return pipeline(receiver, UnmarshalFilter(), GreedyPump(), sink)

            for fabric, name, build in (
                (txfab, f"tx{sid}", build_tx), (rxfab, f"rx{sid}", build_rx)
            ):
                started = perf_counter_ns()
                fabric.open_session(timed_build(build), name=name)
                times.open_ns.append(perf_counter_ns() - started)
                times.pipelines += 1
        times.engine_ns = sum(times.open_ns) - times.build_ns
        state = dict(
            sids=sids, links=(tx_link, rx_link), muxes=(tx_mux, rx_mux),
            fabrics=(txfab, rxfab), sinks=sinks, stamps=stamps,
        )
        return state, times

    def run(self, rnd) -> None:
        state = rnd[0]
        txfab, rxfab = state["fabrics"]
        tx_mux, rx_mux = state["muxes"]
        tx_scheduler, rx_scheduler = txfab.scheduler, rxfab.scheduler
        while not rxfab.completed:
            txfab.run(max_steps=tx_scheduler.steps + DRIVE_STEPS)
            tx_mux.pump()  # returned credits
            rx_mux.pump()
            rxfab.run(max_steps=rx_scheduler.steps + DRIVE_STEPS)

    def finish(self, rnd) -> Outcome:
        state = rnd[0]
        latencies = []
        delivered = 0
        for sid in state["sids"]:
            sink, sent = state["sinks"][sid], state["stamps"][sid]
            check(
                sink.items == list(range(sid, sid + TENANT_ITEMS)),
                f"tenant {sid}: sink differs from range(sid, sid+items)",
            )
            delivered += len(sink.items)
            latencies.extend(
                arrived - sent[item - sid]
                for item, arrived in zip(sink.items, sink.times)
            )
        drops = state["muxes"][1].stats["unknown_stream_drops"]
        check(drops == 0, f"{drops} frames for unknown streams")
        return Outcome(len(state["sids"]), 0, delivered, latencies)

    def counters(self, rnd) -> dict:
        state = rnd[0]
        txfab, rxfab = state["fabrics"]
        tx_mux, rx_mux = state["muxes"]
        tx_link, rx_link = state["links"]
        counters = _engine_counters(
            session.engine
            for fabric in (txfab, rxfab)
            for session in fabric.sessions.values()
        )
        counters.update(
            packets=tx_link.stats["sent"] + rx_link.stats["sent"],
            wire_bytes=tx_link.stats["bytes_sent"] + rx_link.stats["bytes_sent"],
            mux_frames=tx_mux.stats["frames_sent"] + rx_mux.stats["frames_sent"],
            mux_credit_frames=rx_mux.stats["credits_sent"],
            mux_stalls=sum(
                stream.stats["stalled"] for stream in tx_mux.streams.values()
            ),
        )
        return counters

    def close(self, rnd) -> None:
        for link in rnd[0]["links"]:
            link.close()


WORKLOADS = {
    "fig9_item": lambda seed: Fig9(seed, batch_max=1),
    "fig9_batch": lambda seed: Fig9(seed, batch_max=32),
    "video_netpipe": VideoNetpipe,
    "fabric_mux": FabricMux,
}
