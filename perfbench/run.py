"""Run one workload of the VCE benchmark and print its metrics.

    python3 perfbench/run.py --workload dag-local --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The workload's inputs are made
from ``--seed``; they are executed in turn, each execution checked, until
``--seconds`` have passed and every input ran once.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced executions and prints the per-layer
metrics, including the tracing overhead.  Every metric is printed as
``name value unit``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Details (per-layer
totals, message counts by type, digests) and the spans of the last traced
execution are written under ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(".perfbench_out")
#: host seconds after which a run starts no more executions, even before
#: every input ran, so that a slow host cannot push it past 180 s
CUTOFF_S = 120.0
#: codec round trips timed per batch, and batches (the median is reported)
CODEC_FRAMES, CODEC_BATCHES = 2000, 5


def spec_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` lists; the run prints exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dag-local", "soak", "soak-chaos", "net-apps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_iterations(inputs: list, seconds: float, trace: bool):
    """Execute the run's inputs in turn until *seconds* pass.

    Untraced runs cycle through every input at least once, unless the
    host is so slow that ``CUTOFF_S`` pass first.  Traced runs alternate
    an untraced and a traced execution of the first input only, so the
    per-layer numbers describe one input and the overhead compares like
    with like.  Returns ``(untraced, traced, tracer)``; the iterations
    are ``(input index, Iteration)`` pairs and *tracer* holds the spans of
    the last traced execution.
    """
    from workloads import traced

    untraced: list = []
    traced_its: list = []
    tracer = None
    deadline = time.perf_counter() + seconds
    cutoff = time.perf_counter() + CUTOFF_S
    while True:
        gc.collect()
        if trace and len(untraced) > len(traced_its):
            tracer = None  # drop the previous spans before recording more
            iteration, tracer = traced(inputs[0])
            traced_its.append((0, iteration))
        else:
            k = 0 if trace else len(untraced) % len(inputs)
            untraced.append((k, inputs[k].iterate()))
        done = len(traced_its) >= 1 if trace else len(untraced) >= len(inputs)
        now = time.perf_counter()
        if (done and now >= deadline) or now >= cutoff:
            if not done:
                print(f"warning: stopped after {len(untraced)} of {len(inputs)} "
                      f"inputs at the {CUTOFF_S:.0f}-s cutoff", file=sys.stderr)
            break
    return untraced, traced_its, tracer


def check(iterations) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every iteration.  The first
    execution of each input records its digest and layer counts; a later
    one that differs (replay nondeterminism) fails all of its apps."""
    first: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    for n, (k, it) in enumerate(iterations):
        ref = first.setdefault(k, it)
        attempted += it.apps
        bad = it.failed
        problems.extend(f"iteration {n}: {p}" for p in it.problems)
        if it.digest != ref.digest or it.counts != ref.counts:
            problems.append(f"iteration {n}: digest or counts differ from input {k}'s first run")
            bad = it.apps
        failed += bad
    return attempted, failed, problems


def end_to_end(
    untraced, attempted: int, failed: int, scale: bool = True
) -> dict[str, float]:
    """The end-to-end metrics of an untraced run.

    Simulated workloads: host times are divided by the host's slowdown
    over their execution (unless *scale* is false) and taken as medians
    over each input's executions, and every execution replays the
    first, so apps are pooled over the run's inputs.  net-apps: each
    boot is measured on its own and every figure is the median over the
    boots, so that contention during a boot or two does not move it.
    """
    from workloads import median, percentile

    common = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - failed / attempted,
    }
    if not untraced[0][1].counts:  # net-apps
        boots = [it for _, it in untraced]
        per_boot = {
            "tasks_per_s": [it.tasks / it.wall_s for it in boots],
            "setup_s": [it.setup_s for it in boots],
            "sim_makespan_s": [it.sim_makespan_s for it in boots],
            "sim_app_latency_p50_s": [median(it.sim_latencies_s) for it in boots],
            "sim_app_latency_p90_s": [percentile(it.sim_latencies_s, 90) for it in boots],
            "app_latency_p50_ms": [median(it.host_latencies_ms) for it in boots],
            "app_latency_p90_ms": [percentile(it.host_latencies_ms, 90) for it in boots],
        }
        return common | {name: median(values) for name, values in per_boot.items()}

    by_input: dict[int, list] = {}
    for k, it in untraced:
        by_input.setdefault(k, []).append(it)
    firsts = [its[0] for its in by_input.values()]

    def host(it, seconds: float) -> float:
        return seconds / it.slowdown if scale else seconds

    tasks = sum(it.tasks for it in firsts)
    work = sum(median([host(it, it.wall_s) for it in its]) for its in by_input.values())
    sim_lat = [x for it in firsts for x in it.sim_latencies_s]
    # an app's host latency is its median over the input's executions
    host_lat = [
        median(list(per_app))
        for its in by_input.values()
        for per_app in zip(*([host(it, ms) for ms in it.host_latencies_ms] for it in its))
    ]
    return common | {
        "tasks_per_s": tasks / work,
        "setup_s": median([host(it, it.setup_s) for _, it in untraced]),
        "sim_makespan_s": median([it.sim_makespan_s for it in firsts]),
        "sim_app_latency_p50_s": median(sim_lat),
        "sim_app_latency_p90_s": percentile(sim_lat, 90),
        "app_latency_p50_ms": median(host_lat),
        "app_latency_p90_ms": percentile(host_lat, 90),
    }


def codec_roundtrip_us() -> float:
    """Median microseconds to ``encode`` one ``TaskAssignment`` envelope and
    decode it back through ``FrameDecoder.feed``."""
    from repro.netexec import codec
    from repro.netexec.frames import EXEC_ADDR, Envelope, TaskAssignment
    from repro.netsim.host import Address

    envelope = Envelope(
        EXEC_ADDR,
        Address("ws1", "daemon"),
        TaskAssignment(
            app="app-0", task="L0T0", rank=0, epoch=0, work=2.5,
            trace=(("trace_id", "trace-0"), ("span_id", "span-1")),
        ),
    )
    decoder = codec.FrameDecoder()
    per_frame = []
    for _ in range(CODEC_BATCHES):
        start = time.perf_counter()
        for _ in range(CODEC_FRAMES):
            (decoded,) = decoder.feed(codec.encode(envelope))
        per_frame.append((time.perf_counter() - start) / CODEC_FRAMES * 1e6)
        if decoded != envelope:
            raise AssertionError("codec round trip changed the envelope")
    return statistics.median(per_frame)


def per_layer(
    untraced, traced_its, tracer, units: dict[str, str]
) -> tuple[dict[str, float], dict]:
    """The per-layer metrics that *units* (from ``BENCHMARK.json``) names;
    its ``netsim.msgs.<Type>`` and ``<layer>.self_s`` names choose the
    payload types and the layers reported."""
    from repro.bench import pump_rate
    from workloads import SIM_COUNTS, median

    message_types = [name.removeprefix("netsim.msgs.") for name in units
                     if name.startswith("netsim.msgs.")]
    layers = [name.removesuffix(".self_s") for name in units
              if name.endswith(".self_s")]
    metrics: dict[str, float] = {}
    counts = dict(traced_its[0][1].counts)
    wall = median([it.wall_s for _, it in untraced])
    events = counts.get("netsim.events", 0)
    metrics["netsim.events"] = events
    metrics["netsim.events_per_s"] = events / wall
    metrics["netsim.pump_events_per_s"] = pump_rate(200_000)
    by_type = {cls.__name__: n for cls, n in tracer.messages.items()}
    sent = counts.get("netsim.messages", 0)
    metrics["netsim.messages"] = sent
    for name in message_types:
        metrics[f"netsim.msgs.{name}"] = by_type.get(name, 0)
    isis = sum(n for cls, n in tracer.messages.items()
               if cls.__module__.startswith("repro.isis"))
    metrics["isis.messages"] = isis
    beats = by_type.get("Heartbeat", 0) + by_type.get("CoordBeat", 0)
    metrics["isis.heartbeat_share"] = beats / sent if sent else 0.0
    for key in SIM_COUNTS:  # zero where the workload runs no simulator
        metrics.setdefault(key, counts.get(key, 0))

    totals = tracer.layer_totals()
    for layer in layers:
        entry = totals.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
    dispatches = counts.get("runtime.dispatches", 0)
    metrics["runtime.us_per_dispatch"] = (
        metrics["runtime.self_s"] / dispatches * 1e6 if dispatches else 0.0
    )

    metrics["netexec.frames"] = tracer.frames
    metrics["netexec.bytes_per_frame"] = (
        tracer.frame_bytes / tracer.frames if tracer.frames else 0.0
    )
    metrics["netexec.codec_roundtrip_us"] = codec_roundtrip_us()
    for key in ("netexec.submit_ms_p50", "netexec.supervisor_cpu_frac",
                "netexec.daemon_cpu_s"):
        metrics[key] = median([it.host.get(key, 0.0) for _, it in untraced])

    metrics["host.slowdown"] = median([it.slowdown for _, it in untraced])
    traced_wall = median([it.wall_s for _, it in traced_its])
    metrics["trace.overhead_s"] = traced_wall - wall
    metrics["trace.overhead_frac"] = (traced_wall - wall) / wall
    metrics["trace.spans"] = len(tracer.spans)
    detail = {
        "messages_by_type": dict(sorted(by_type.items())),
        "layers": totals,
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no VCE sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import make_inputs

    trace = args.trace == 1
    try:
        inputs = make_inputs(args.workload, args.seed)
        inputs[0].warm_up()
        untraced, traced_its, tracer = run_iterations(inputs, args.seconds, trace)
    except Exception:
        traceback.print_exc()
        return 1
    attempted, failed, problems = check(untraced + traced_its)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if trace:
        units = spec_units("per_layer")
        metrics, detail = per_layer(untraced, traced_its, tracer, units)
    else:
        units = spec_units("end_to_end")
        metrics = end_to_end(untraced, attempted, failed)
        detail = {"unscaled": end_to_end(untraced, attempted, failed, scale=False)}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are computed "
              f"but not in BENCHMARK.json, or listed there but not computed",
              file=sys.stderr)
        return 1
    firsts: dict = {}
    for k, it in untraced:
        firsts.setdefault(k, it)
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        input_seeds=[inputs[k].seed for k in firsts],
        digests=[it.digest for it in firsts.values()],
        input_counts=[it.counts for it in firsts.values()],
        executions=[k for k, _ in untraced], traced_executions=len(traced_its),
        slowdowns=[it.slowdown for _, it in untraced],
        problems=problems,
    )
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.json.gz")

    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
