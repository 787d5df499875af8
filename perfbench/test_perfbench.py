"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import ASYNC_PARENT, Tracer, entry_points  # noqa: E402


@pytest.mark.parametrize("name", ["dag-local", "soak", "soak-chaos"])
def test_same_seed_same_counts(name):
    """Two executions of one input give identical digests and counts, so
    the counts can be cited by later changes."""
    (first_input, *_) = workloads.make_inputs(name, 0)
    first = first_input.iterate()
    again = workloads.make_inputs(name, 0)[0].iterate()
    assert first.failed == 0, first.problems
    assert first.digest == again.digest
    assert first.counts == again.counts
    assert first.sim_latencies_s == again.sim_latencies_s
    assert first.counts["netsim.events"] > 0


def test_traced_execution_matches_and_restores():
    from repro.netexec import codec
    from repro.netsim.network import Network

    send, encode = Network.send, codec.encode
    dag = workloads.DagLocal(0)
    plain = dag.iterate()
    iteration, tracer = workloads.traced(dag)
    assert Network.send is send and codec.encode is encode
    assert iteration.digest == plain.digest
    assert iteration.counts == plain.counts
    totals = tracer.layer_totals()
    for layer in ("netsim", "isis", "scheduler", "runtime", "telemetry"):
        assert totals[layer]["calls"] > 0 and totals[layer]["self_s"] > 0
    assert sum(tracer.messages.values()) == plain.counts["netsim.messages"]


def test_soak_times_come_from_records():
    """run_soak advances in 500-s slices, so SoakReport.makespan is a slice
    boundary; the benchmark's makespan and latencies must not be."""
    from repro.soak import SoakConfig, run_soak

    vce, driver, report = run_soak(SoakConfig(**workloads.SOAK_CONFIG, seed=0))
    makespan, latencies = workloads.soak_latencies(vce, driver)
    assert len(latencies) == report.completed == 120
    assert makespan != report.makespan
    assert makespan % 500.0 != 0.0 and makespan % 10.0 != 0.0
    assert 0.0 < max(latencies) <= makespan
    assert len(set(latencies)) > 100  # per-app values, not one boundary


def test_soak_work_ends_at_last_completion(monkeypatch):
    """The soak stops simulating at its last app's completion, and its
    work time stops there too: the report run_soak builds after it is
    not timed."""
    import repro.soak

    build_report = repro.soak.build_report
    at_report = {}

    def slow_report(vce, driver):
        at_report["now"] = vce.sim.now
        at_report["last_done"] = vce.sim.log.last("app.done").time
        time.sleep(2.0)
        return build_report(vce, driver)

    monkeypatch.setattr(repro.soak, "build_report", slow_report)
    start = time.perf_counter()
    iteration = workloads.Soak(0).iterate()
    total = time.perf_counter() - start
    assert iteration.failed == 0, iteration.problems
    assert max(iteration.host_latencies_ms) / 1000.0 <= iteration.wall_s
    assert iteration.setup_s + iteration.wall_s < total - 2.0
    assert at_report["now"] == at_report["last_done"]


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.names = ["Simulator.run", "IsisMember.on_message", "NetworkVCE.asubmit"]
    tracer.layer_of = ["netsim", "isis", "netexec"]
    tracer.spans = [
        (0, 0, 10_000_000_000, -1),  # 10 s root
        (1, 1_000_000_000, 4_000_000_000, 0),  # 3 s child
        (0, 2_000_000_000, 3_000_000_000, 1),  # 1 s grandchild
        (2, 0, 5_000_000_000, ASYNC_PARENT),  # coroutine: calls only
    ]
    totals = tracer.layer_totals()
    assert totals["netsim"] == {"self_s": 8.0, "calls": 2}
    assert totals["isis"] == {"self_s": 2.0, "calls": 1}
    assert totals["netexec"] == {"self_s": 0.0, "calls": 1}


def test_every_entry_point_exists():
    for _layer, owner, method in entry_points():
        assert callable(getattr(owner, method)), f"{owner.__name__}.{method}"


def test_net_apps_checks_outputs(monkeypatch):
    monkeypatch.setattr(workloads, "NET_APPS_PER_BOOT", 20)
    net = workloads.NetApps(5)
    iteration = net.iterate()
    assert iteration.failed == 0, iteration.problems
    assert iteration.apps == 20 and len(iteration.host_latencies_ms) == 20
    assert iteration.tasks == 20 * workloads.NET_PROCESSES
    assert iteration.host["netexec.daemon_cpu_s"] > 0


def test_host_speed_probe_stops_and_scales():
    """The probe thread ends with its block, and the end-to-end host times
    are the measured ones divided by the execution's slowdown."""
    import run

    with workloads.HostSpeed() as speed:
        time.sleep(0.2)
    assert not speed._thread.is_alive()
    assert len(speed.samples) >= 3 and speed.slowdown > 0

    def iteration(slowdown):
        return workloads.Iteration(
            setup_s=0.5, wall_s=2.0, tasks=100, apps=1, failed=0, problems=[],
            digest="d", sim_makespan_s=10.0, sim_latencies_s=[10.0],
            host_latencies_ms=[2000.0], counts={"netsim.events": 1},
            slowdown=slowdown,
        )

    slow = run.end_to_end([(0, iteration(2.0))], 1, 0)
    unscaled = run.end_to_end([(0, iteration(2.0))], 1, 0, scale=False)
    assert unscaled["tasks_per_s"] == 50.0 and slow["tasks_per_s"] == 100.0
    assert slow["setup_s"] == 0.25 and slow["app_latency_p90_ms"] == 1000.0
    assert slow["sim_makespan_s"] == unscaled["sim_makespan_s"] == 10.0


def test_net_apps_figures_are_medians_over_boots():
    """A boot hit by contention does not move net-apps' figures."""
    import run

    def boot(wall_s, latency_ms):
        return workloads.Iteration(
            setup_s=0.5, wall_s=wall_s, tasks=100, apps=50, failed=0, problems=[],
            digest="d", sim_makespan_s=wall_s * 5000, sim_latencies_s=[1.0] * 50,
            host_latencies_ms=[latency_ms] * 50,
        )

    boots = [(k, boot(1.0, 5.0)) for k in range(4)] + [(4, boot(3.0, 20.0))]
    metrics = run.end_to_end(boots, 250, 0)
    assert metrics["tasks_per_s"] == 100.0
    assert metrics["app_latency_p90_ms"] == 5.0
    assert metrics["sim_makespan_s"] == 5000.0


def test_percentile_interpolates():
    values = list(range(1, 101))
    assert workloads.percentile(values, 50) == 50.5
    assert workloads.percentile(values, 90) == 90.1
    assert workloads.percentile([3.0], 90) == 3.0
    assert workloads.percentile([1, 2, 3, 4, 5, 6], 90) == 5.5


def test_result_line_and_missing_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dag-local",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["attempted"] == workloads.WORKLOADS["dag-local"][1]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units

    # run.py exits 1 when the per-layer metrics it computes and those
    # BENCHMARK.json lists differ
    traced = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dag-local",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.strip().splitlines()[-1])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units

    # a directory holding only the benchmark: no result, non-zero exit
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dag-local",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert bare.returncode != 0 and bare.stdout == ""
