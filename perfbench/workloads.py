"""The benchmark's workloads: seeded inputs, executed and checked.

Each workload turns ``--seed`` into a few inputs (:func:`make_inputs`),
and the run executes them in turn as often as its time allows.  One
execution is an :class:`Iteration`: set-up (constructing and booting the VCE, or
spawning the network daemons) is timed apart from the work, the outputs
are checked, and the deterministic per-layer counts are read from the
event log.  Only the public API is called: ``VirtualComputingEnvironment``,
``repro.soak.run_soak``/``SoakDriver``, ``repro.netexec.NetworkVCE`` and
the quickstart's serial reference.  See README.md for why each workload
was chosen.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from tracer import Tracer

#: the ``bench --suite scale`` quick flat soak, spelled out so the input
#: stays fixed whatever the library's own bench presets become
SOAK_CONFIG = dict(
    tenants=8, apps=120, machines=48, fanout=1,
    instances=(16, 32), work=(8.0, 16.0), arrival_span=90.0,
    telemetry_interval=300.0, settle=30.0,
)
#: randomdag-1k size: 40 layers of 1..50 tasks
DAG_LAYERS, DAG_WIDTH = 40, 50
#: net-apps: simulated seconds per wall second, so that compute sleeps
#: stay a minority of an app's latency
NET_RATE = 5000.0
#: daemon processes, clients, and chain length (the cores of the 2-core
#: host the benchmark was sized on; fixed so the input never depends on
#: the machine)
NET_PROCESSES = 2
#: apps the clients finish between one daemon boot and its shutdown
NET_APPS_PER_BOOT = 500
NET_APP_TIMEOUT_S = 30.0
#: apps of the untimed boot that warms the supervisor up
NET_WARM_UP_APPS = 20
#: host-speed probe: a second thread times PROBE_ITEMS heap and dict
#: operations every PROBE_PERIOD_S while a simulated execution runs;
#: the probe's mean time over PROBE_REFERENCE_S is the host's slowdown
PROBE_PERIOD_S = 0.025
PROBE_REFERENCE_S = 400e-6
PROBE_ITEMS = [(i * 7919 % 1009, i) for i in range(600)]


@dataclass
class Iteration:
    """One checked execution of a workload's input."""

    setup_s: float
    wall_s: float  # host seconds of work, set-up excluded
    tasks: int  # task instances committed DONE
    apps: int  # applications attempted
    failed: int  # applications that failed or failed a check
    problems: list[str]
    digest: str  # sim replay digest (net-apps: per-app results digest)
    sim_makespan_s: float
    sim_latencies_s: list[float]
    host_latencies_ms: list[float]
    #: deterministic per-layer counts read from the event log
    counts: dict[str, float] = field(default_factory=dict)
    #: host-dependent per-layer figures (CPU, submit latency)
    host: dict[str, float] = field(default_factory=dict)
    #: how much slower than the reference the host ran meanwhile
    #: (:class:`HostSpeed`); 1.0 where it is not measured (net-apps)
    slowdown: float = 1.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], pct: int) -> float:
    """The *pct*-th percentile, interpolated between the two nearest
    samples, so that on a few samples (one per DAG on dag-local) it does
    not fall on the largest alone."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _probe_work() -> None:
    """A fixed piece of interpreter work like the simulator's: heap pushes
    and pops and dict updates.  It allocates no tracked objects, so it
    never triggers a collection of the simulator's heap."""
    heap: list = []
    table: dict = {}
    for item in PROBE_ITEMS:
        heapq.heappush(heap, item)
        key = item[1] & 127
        table[key] = table.get(key, 0) + 1
    while heap:
        heapq.heappop(heap)


class HostSpeed:
    """Sample the host's speed while a simulated execution runs.

    A shared host's effective CPU speed swings by half within seconds
    (other tenants on the same cores), and the simulator's time follows
    it.  A daemon thread runs :func:`_probe_work` every
    ``PROBE_PERIOD_S``; as it needs the interpreter lock, it runs between
    the simulator's own steps and sees the same host.  The simulated
    workloads divide their host times by :attr:`slowdown`, so that those
    times describe the program on a host of the reference speed.
    """

    def __enter__(self) -> "HostSpeed":
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - start)

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def slowdown(self) -> float:
        if not self.samples:  # an execution shorter than one period
            start = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - start)
        return statistics.fmean(self.samples) / PROBE_REFERENCE_S


# ----------------------------------------------------------- sim workloads


@contextmanager
def _timed_setup() -> Iterator[list[float]]:
    """Accumulate host seconds spent constructing and booting VCEs:
    ``[seconds spent, host time the last of them ended]``."""
    from repro.core.environment import VirtualComputingEnvironment as VCE

    spent = [0.0, 0.0]
    saved = {name: VCE.__dict__[name] for name in ("__init__", "boot")}

    def timing(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[1] = time.perf_counter()
                spent[0] += spent[1] - start

        return wrapper

    for name, fn in saved.items():
        setattr(VCE, name, timing(fn))
    try:
        yield spent
    finally:
        for name, fn in saved.items():
            setattr(VCE, name, fn)


def _done_instances(vce: Any) -> int:
    from repro.runtime.instance import InstanceState

    return sum(
        1
        for app in vce.runtime.apps.values()
        for record in app.records.values()
        if record.state is InstanceState.DONE
    )


#: the keys of :func:`sim_counts`
SIM_COUNTS = (
    "netsim.events", "netsim.messages", "netsim.retransmits", "netsim.drops",
    "isis.failure_detections", "isis.view_changes", "scheduler.requests",
    "scheduler.members_polled", "scheduler.alloc_ratio", "scheduler.retries",
    "scheduler.alloc_wait_p50_s", "runtime.dispatches", "migration.redispatches",
    "migration.lease_expiries", "migration.recovery_p50_s",
)


def sim_counts(vce: Any) -> dict[str, float]:
    """Deterministic per-layer counts of one simulated run, from its event
    log and the daemons' counters."""
    log = vce.sim.log
    n = log.count
    requests = n("sched.request")
    asked = {r.data["req_id"]: r.time for r in log.records(category="exec.request")}
    waits = [
        r.time - asked[r.data["req_id"]]
        for r in log.records(category="exec.reply")
        if r.data.get("req_id") in asked
    ]
    recoveries = [r.data["latency"] for r in log.records(category="recovery.redispatch")]
    return {
        "netsim.events": vce.sim.events_processed,
        "netsim.messages": vce.network.messages_sent,
        "netsim.retransmits": vce.network.retransmissions,
        "netsim.drops": n("net.drop") + n("net.partition_drop"),
        "isis.failure_detections": n("isis.failure_detected"),
        "isis.view_changes": n("isis.view"),
        "scheduler.requests": requests,
        "scheduler.members_polled": sum(
            d.members_polled for d in vce.daemons.values()
        ),
        "scheduler.alloc_ratio": n("sched.alloc") / requests if requests else 0.0,
        "scheduler.retries": n("sched.retry") + n("exec.retry_request"),
        "scheduler.alloc_wait_p50_s": median(waits),
        "runtime.dispatches": n("runtime.dispatch"),
        "migration.redispatches": n("recovery.redispatch"),
        "migration.lease_expiries": n("recovery.lease_expired"),
        "migration.recovery_p50_s": median(recoveries),
    }


class DagLocal:
    """One seeded layered random DAG, local placement, on ``ws:4``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        """Import and exercise every module an execution uses, untimed."""
        self._run(layers=3, width=3)

    def _run(self, layers: int, width: int) -> tuple[Any, Any, float, float, float]:
        from repro.core import VCEConfig, VirtualComputingEnvironment
        from repro.core import workstation_cluster
        from repro.workloads import build_random_dag

        graph = build_random_dag(layers=layers, width=width, seed=self.seed)
        class_map = {node.name: None for node in graph}
        start = time.perf_counter()
        vce = VirtualComputingEnvironment(
            workstation_cluster(4), VCEConfig(seed=self.seed)
        ).boot()
        booted = time.perf_counter()
        run = vce.submit(graph, class_map=class_map)
        vce.run_to_completion(run, timeout=1_000_000.0)
        return vce, run, start, booted, time.perf_counter()

    def iterate(self) -> Iteration:
        from repro.scheduler.execution_program import RunState
        from repro.trace.replay import event_log_digest

        with HostSpeed() as speed:
            vce, run, start, booted, finished = self._run(DAG_LAYERS, DAG_WIDTH)

        problems = []
        if run.state is not RunState.DONE:
            problems.append(f"run ended {run.state.name}: {run.error}")
        log = vce.sim.log
        submitted = log.first("exec.submit").time
        done = log.last("app.done")
        latency = done.time - submitted if done is not None else 0.0
        return Iteration(
            setup_s=booted - start,
            wall_s=finished - booted,
            tasks=_done_instances(vce),
            apps=1,
            failed=1 if problems else 0,
            problems=problems,
            digest=event_log_digest(log),
            sim_makespan_s=latency,
            sim_latencies_s=[latency],
            host_latencies_ms=[(finished - booted) * 1000.0],
            counts=sim_counts(vce),
            slowdown=speed.slowdown,
        )


class Soak:
    """The flat (``fanout=1``) multi-tenant soak, optionally under the
    ``chaos-mix`` recipe with reliable transport and failover leases."""

    def __init__(self, seed: int, chaos: str | None = None) -> None:
        self.seed = seed
        self.chaos = chaos

    def warm_up(self) -> None:
        """A small soak, untimed: imports and exercises the modules."""
        from repro.soak import SoakConfig, run_soak

        small = dict(SOAK_CONFIG, tenants=2, apps=6, machines=8, instances=(2, 4))
        run_soak(SoakConfig(**small, seed=self.seed))

    def iterate(self) -> Iteration:
        """One ``run_soak``, stopped when its last app completes.  Its work
        time runs from the end of the boot to that completion, as
        dag-local's does; the report ``run_soak`` then builds is not the
        apps' work."""
        from repro.soak import SoakConfig, SoakDriver, run_soak

        config = SoakConfig(**SOAK_CONFIG, seed=self.seed, chaos=self.chaos)
        arrived: dict[str, float] = {}
        finished: dict[str, float] = {}
        with (
            HostSpeed() as speed,
            _timed_setup() as setup,
            _host_app_clock(SoakDriver, arrived, finished),
            _stop_when_all_finished(finished, config.apps),
        ):
            vce, driver, report = run_soak(config)
            returned = time.perf_counter()
        # no app finished: the run failed, and its work time is all of it
        wall = max(finished.values(), default=returned) - setup[1]
        iteration = soak_iteration(vce, driver, report, setup[0], wall, arrived, finished)
        iteration.slowdown = speed.slowdown
        return iteration


@contextmanager
def _host_app_clock(
    driver_cls: type, arrived: dict[str, float], finished: dict[str, float]
) -> Iterator[None]:
    """Stamp each soak app's host arrival and completion time, keyed by
    its graph name (``<tenant>-a<index>``)."""
    from repro.core.environment import VirtualComputingEnvironment as VCE

    on_timer = driver_cls.__dict__["on_timer"]
    submit = VCE.__dict__["submit"]

    @functools.wraps(on_timer)
    def stamped_timer(self: Any, key: str) -> None:
        if key.startswith("arr:"):
            _, tenant, index = self.arrivals[int(key[4:])]
            arrived[f"{tenant}-a{index}"] = time.perf_counter()
        on_timer(self, key)

    @functools.wraps(submit)
    def stamped_submit(self: Any, graph: Any, *args: Any, **kwargs: Any) -> Any:
        then = kwargs.get("on_finished")
        if then is not None:

            def on_finished(run: Any) -> None:
                finished.setdefault(graph.name, time.perf_counter())
                then(run)

            kwargs["on_finished"] = on_finished
        return submit(self, graph, *args, **kwargs)

    driver_cls.on_timer = stamped_timer
    VCE.submit = stamped_submit
    try:
        yield
    finally:
        driver_cls.on_timer = on_timer
        VCE.submit = submit


@contextmanager
def _stop_when_all_finished(finished: dict[str, float], apps: int) -> Iterator[None]:
    """End each of ``run_soak``'s 500-s slices once all *apps* have
    finished, instead of simulating heartbeats to the slice's end, which
    would add up to 500 sim-s of idle work to every execution."""
    from repro.core.environment import VirtualComputingEnvironment as VCE

    run = VCE.__dict__["run"]

    @functools.wraps(run)
    def stopping_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        kwargs.setdefault("stop_when", lambda: len(finished) >= apps)
        return run(self, *args, **kwargs)

    VCE.run = stopping_run
    try:
        yield
    finally:
        VCE.run = run


def soak_latencies(vce: Any, driver: Any) -> tuple[float, list[float]]:
    """``(makespan, per-app latencies)`` in sim seconds, from the records:
    makespan runs from the first ``exec.submit`` to the last ``app.done``,
    latency from the app's arrival at the soak driver to its ``app.done``.
    ``SoakReport.makespan`` is not used: ``run_soak`` advances in 500-s
    slices, so it reads as a slice boundary."""
    arrival = {f"{tenant}-a{i}": t for (t, tenant, i) in driver.arrivals}
    done: dict[str, float] = {}
    for record in vce.sim.log.records(category="app.done"):
        done.setdefault(vce.runtime.apps[record.source].graph.name, record.time)
    latencies = [t - arrival[name] for name, t in done.items()]
    first = vce.sim.log.first("exec.submit")
    makespan = max(done.values()) - first.time if done and first else 0.0
    return makespan, latencies


def soak_iteration(
    vce: Any,
    driver: Any,
    report: Any,
    setup_s: float,
    wall_s: float,
    arrived: dict[str, float],
    finished: dict[str, float],
) -> Iteration:
    apps = report.config_apps
    problems = []
    if not report.submitted == report.admitted == report.completed == apps:
        problems.append(
            f"submitted {report.submitted}, admitted {report.admitted}, "
            f"completed {report.completed} of {apps} apps"
        )
    if report.failed:
        problems.append(f"{report.failed} apps failed")
    makespan, latencies = soak_latencies(vce, driver)
    if len(latencies) != apps:
        problems.append(f"{len(latencies)} app.done records for {apps} apps")
    # apps that did not complete failed; a failed check with every app
    # completed fails the whole execution
    failed = (apps - report.completed or apps) if problems else 0
    return Iteration(
        setup_s=setup_s,
        wall_s=wall_s,
        tasks=_done_instances(vce),
        apps=apps,
        failed=failed,
        problems=problems,
        digest=report.digest,
        sim_makespan_s=makespan,
        sim_latencies_s=latencies,
        host_latencies_ms=[
            (finished[name] - arrived[name]) * 1000.0
            for name in finished
            if name in arrived
        ],
        counts=sim_counts(vce),
    )


# ------------------------------------------------------------ network apps


class NetApps:
    """A closed loop of ``NET_PROCESSES`` clients over as many daemon
    processes: each client submits a chain of as many tasks, waits for
    it, and repeats."""

    def __init__(self, seed: int) -> None:
        from repro.netexec.quickstart import default_workload, run_sim_reference

        self.seed = seed
        # a width-1 chain: the allocator needs one machine per instance,
        # so a graph stays at most NET_PROCESSES tasks
        self.spec = default_workload(seed, NET_PROCESSES)
        self.ref_done, self.ref_digest = run_sim_reference(
            self.spec, NET_PROCESSES, seed
        )

    def warm_up(self) -> None:
        """A short boot, untimed: imports the supervisor's modules."""
        asyncio.run(self._iterate(NET_WARM_UP_APPS))

    def iterate(self) -> Iteration:
        return asyncio.run(self._iterate(NET_APPS_PER_BOOT))

    async def _iterate(self, apps: int) -> Iteration:
        from repro.analysis.protocol import check_records
        from repro.analysis.report import Severity
        from repro.core import VCEConfig, workstation_cluster
        from repro.netexec.supervisor import NetworkVCE

        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        vce = NetworkVCE(
            workstation_cluster(NET_PROCESSES),
            VCEConfig(seed=self.seed, backend="network"),
            rate=NET_RATE,
        )
        start = time.perf_counter()
        await vce.aboot(self.spec)
        booted = time.perf_counter()
        cpu = time.process_time()
        remaining = [apps]
        host_ms: list[float] = []
        submit_ms: list[float] = []
        submitted: dict[str, float] = {}  # app id -> sim time of asubmit
        problems: list[str] = []
        failed = 0

        async def client() -> None:
            nonlocal failed
            while remaining[0] > 0:
                remaining[0] -= 1
                t0 = time.perf_counter()
                sim_t0 = vce.sim.now
                try:
                    app = await vce.asubmit(self.spec)
                    t1 = time.perf_counter()
                    submitted[app.id] = sim_t0
                    await vce.adrive(app, timeout=NET_APP_TIMEOUT_S)
                except Exception as exc:  # counted as a failed app; the loop goes on
                    failed += 1
                    problems.append(f"app did not finish: {exc!r}")
                    continue
                host_ms.append((time.perf_counter() - t0) * 1000.0)
                submit_ms.append((t1 - t0) * 1000.0)
                if app.failed or not app.done:
                    failed += 1
                    problems.append(f"{app.id} failed")
                elif (
                    app.done_set() != self.ref_done
                    or app.results_digest() != self.ref_digest
                ):
                    failed += 1
                    problems.append(f"{app.id} results differ from the simulator's")

        try:
            await asyncio.gather(*(client() for _ in range(NET_PROCESSES)))
            finished = time.perf_counter()
            cpu = time.process_time() - cpu
        finally:
            await vce.ashutdown()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        errors = [
            f for f in check_records(vce.sim.log.records())
            if f.severity is Severity.ERROR
        ]
        if errors:
            problems.append(f"{len(errors)} protocol errors, first: {errors[0]}")
        if vce.orphan_pids():
            problems.append(f"orphan daemons {vce.orphan_pids()}")
        if errors or vce.orphan_pids():
            failed = apps
        done = {
            r.source: r.time
            for r in vce.sim.log.records(category="app.done")
            if r.source in submitted
        }
        sim_latencies = [t - submitted[app_id] for app_id, t in done.items()]
        wall = finished - booted
        return Iteration(
            setup_s=booted - start,
            wall_s=wall,
            tasks=sum(len(app.done_set()) for app in vce.apps.values()),
            apps=apps,
            failed=failed,
            problems=problems,
            digest=self.ref_digest,
            sim_makespan_s=(
                max(done.values()) - min(submitted.values()) if done else 0.0
            ),
            sim_latencies_s=sim_latencies,
            host_latencies_ms=host_ms,
            counts={},
            host={
                "netexec.submit_ms_p50": median(submit_ms),
                "netexec.supervisor_cpu_frac": cpu / wall,
                "netexec.daemon_cpu_s": (after.ru_utime + after.ru_stime)
                - (children.ru_utime + children.ru_stime),
            },
        )


#: name -> (input factory, inputs per run).  A run pools several inputs
#: so a metric's spread across ``--seed`` values reflects the program, not
#: one draw of tenants, faults, DAG shape or chain work.  K is chosen so
#: one pass over the inputs takes 25-40 s on a 2-core VM whose host
#: slowdown is 1.3-1.5 (about 4 s a DAG, 6 s a soak, 9 s a chaos soak and
#: 3 s a net-apps boot there); a faster host repeats inputs.
WORKLOADS: dict[str, tuple[Callable[[int], Any], int]] = {
    "dag-local": (DagLocal, 8),
    "soak": (Soak, 4),
    "soak-chaos": (lambda seed: Soak(seed, chaos="chaos-mix"), 4),
    "net-apps": (NetApps, 8),
}


def make_inputs(name: str, seed: int) -> list:
    """The run's inputs: input seeds ``seed*K .. seed*K+K-1``."""
    factory, k = WORKLOADS[name]
    return [factory(seed * k + i) for i in range(k)]


def traced(workload: Any) -> tuple[Iteration, Tracer]:
    """One iteration of *workload* with the layer wrappers installed."""
    with Tracer() as tracer:
        iteration = workload.iterate()
    return iteration, tracer
