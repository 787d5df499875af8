"""Layer spans recorded by wrappers around the VCE's layer entry points.

The wrappers live here, in the benchmark, and nothing under ``src/``
changes: :meth:`Tracer.install` replaces each entry point on its class
with a timing wrapper and :meth:`Tracer.uninstall` puts the original
back, so untraced runs in the same process execute the unmodified code.

A span is ``(name, start_ns, end_ns, parent)`` where *parent* is the
index of the enclosing span (``-1`` for a root).  Synchronous entry
points nest on one call stack, so a layer's self time is its spans'
durations minus the parts covered by their child spans.  Coroutine
entry points (``NetworkVCE.asubmit``/``adrive``) interleave on the event
loop; they are recorded as stand-alone spans (parent ``-2``), used for
latencies, and left out of self time.  Spans stay in memory until
:meth:`Tracer.write` saves them once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: parent value of a coroutine span (not on the synchronous stack)
ASYNC_PARENT = -2


def entry_points() -> list[tuple[str, type, str]]:
    """``(layer, owner class, method)`` for every wrapped entry point."""
    from repro.isis.member import IsisMember
    from repro.migration.failover import FailoverManager
    from repro.netexec.supervisor import NetworkVCE
    from repro.netexec.transport import FrameRouter
    from repro.netsim.kernel import Simulator
    from repro.netsim.network import Network
    from repro.runtime.instance import TaskInstance
    from repro.runtime.manager import RuntimeManager
    from repro.scheduler.daemon import SchedulerDaemon
    from repro.scheduler.execution_program import ExecutionProgram
    from repro.telemetry.sampler import ClusterSampler

    points = [
        ("netsim", Simulator, "run"),
        ("netsim", Network, "send"),
        ("runtime", RuntimeManager, "submit"),
        ("runtime", RuntimeManager, "dispatch_instance"),
        ("migration", FailoverManager, "host_lost"),
        ("netexec", NetworkVCE, "asubmit"),
        ("netexec", NetworkVCE, "adrive"),
        ("netexec", FrameRouter, "send"),
        ("netexec", FrameRouter, "route"),
    ]
    for layer, owner in (
        ("isis", IsisMember),
        ("scheduler", SchedulerDaemon),
        ("scheduler", ExecutionProgram),
        ("runtime", TaskInstance),
        ("telemetry", ClusterSampler),
    ):
        points.append((layer, owner, "on_message"))
        points.append((layer, owner, "on_timer"))
    return points


class Tracer:
    """Records layer spans and per-boundary counts (see module docstring)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[Any] = []
        #: simulated-network sends by payload class (``Network.send``)
        self.messages: Counter[type] = Counter()
        #: netexec frames encoded or decoded in this process, and their bytes
        self.frames = 0
        self.frame_bytes = 0
        self._stack: list[int] = []
        self._saved: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------ installing

    def install(self) -> "Tracer":
        from repro.netsim.network import Network

        for layer, owner, method in entry_points():
            original = owner.__dict__.get(method)
            if original is None:  # inherited: wrap what lookup would find
                wrapped = getattr(owner, method)
            else:
                wrapped = original
            name = f"{owner.__name__}.{method}"
            count = self._count_payload if owner is Network else None
            setattr(owner, method, self._wrap(wrapped, name, layer, count))
            self._saved.append((owner, method, original))
        self._count_frames()
        return self

    def _count_frames(self) -> None:
        """Count frames at the codec, the one place every frame passes."""
        from repro.netexec import codec

        encode = codec.encode
        feed = codec.FrameDecoder.feed

        def counted_encode(message: Any) -> bytes:
            frame = encode(message)
            self.frames += 1
            self.frame_bytes += len(frame)
            return frame

        def counted_feed(decoder: Any, data: bytes) -> Any:
            messages = feed(decoder, data)
            self.frames += len(messages)
            self.frame_bytes += len(data)
            return messages

        codec.encode = counted_encode
        codec.FrameDecoder.feed = counted_feed
        self._saved.append((codec, "encode", encode))
        self._saved.append((codec.FrameDecoder, "feed", feed))

    def uninstall(self) -> None:
        for owner, method, original in reversed(self._saved):
            if original is None:
                delattr(owner, method)
            else:
                setattr(owner, method, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _count_payload(self, args: tuple) -> None:
        # Network.send(self, src, dst, payload, size=256)
        self.messages[type(args[3])] += 1

    def _wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        count: Callable[[tuple], None] | None,
    ) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                index = len(spans)
                spans.append(None)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans[index] = (name_id, start, clock(), ASYNC_PARENT)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                count(args)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    # ------------------------------------------------------------- reporting

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s`` (synchronous span time not covered by a
        child span) and ``calls`` (spans of every kind)."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        totals: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            layer = self.layer_of[span[0]]
            entry = totals.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["calls"] += 1
            if span[3] != ASYNC_PARENT:
                entry["self_s"] += (span[2] - span[1] - covered[index]) / 1e9
        return totals

    def write(self, path: Path) -> None:
        """Save the spans as gzipped JSON: entry-point names plus one
        ``[name, start_ns, end_ns, parent]`` row per span (``null`` for a
        span still open, so that parent indices stay valid)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(
                {
                    "names": self.names,
                    "layers": self.layer_of,
                    "spans": self.spans,
                },
                out,
                separators=(",", ":"),
            )
