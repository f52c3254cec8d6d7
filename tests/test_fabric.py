"""Distributed sweep fabric: protocol, determinism, failure handling.

The load-bearing pins:

* **byte-identical output** — a fabric run (any worker count, hedging
  as aggressive as it gets) equals the serial sweep exactly; hedging's
  first-result-wins can never change a value because points are pure;
* **crash safety** — a worker killed mid-point loses nothing: the task
  is re-queued (bounded), the fabric respawns, and no partial value is
  ever cached;
* **one cache** — ``run_sweep``'s store is the only cache: it stores
  each computed key once, and a warm store dispatches nothing.
"""

import io
import json
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.experiments import SMOKE, executor, fig06_segsize
from repro.experiments.base import ExperimentScale
from repro.experiments.executor import (Point, SweepCache, SweepSpec,
                                        point_key, run_sweep)
from repro.experiments.fabric import Fabric, FabricError, coordinator
from repro.experiments.fabric.protocol import (FrameBuffer, FrameError,
                                               WorkerSpec, parse_address,
                                               parse_spec, recv_msg,
                                               send_msg)
from repro.experiments.fabric.worker import resolve_point_fn

TINY = ExperimentScale("tiny", duration=0.1, warmup=0.02)


# ---------------------------------------------------------------------------
# Point functions the spawned workers import as tests.test_fabric:<name>
# ---------------------------------------------------------------------------

def _cheap_point(scale, params):
    return float(params["x"]) * 2.0 + scale.duration


def _slow_point(scale, params):
    time.sleep(0.25)
    return float(params["x"]) + 0.5


def _nan_point(scale, params):
    return float("nan")


def _die_once_point(scale, params):
    """Kills its worker process on first execution, succeeds on retry."""
    sentinel = params["sentinel"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("died")
        os._exit(3)
    return 42.0


def _sleep_point(scale, params):
    """A wait-dominated point: a tiny simulation, then a fixed sleep
    standing in for the off-CPU service time of a real point."""
    from repro.sim import Simulator

    sim = Simulator()
    sim.run(until=float(params["x"]))
    time.sleep(0.05)
    return sim.now + scale.duration


# ---------------------------------------------------------------------------
# Protocol units (no processes)
# ---------------------------------------------------------------------------

def test_frame_roundtrip_over_socketpair():
    left, right = socket.socketpair()
    try:
        message = {"type": "task", "params": {"x": 1.5}, "blob": "y" * 999}
        send_msg(left, message)
        assert recv_msg(right) == message
        left.close()
        assert recv_msg(right) is None  # clean EOF at a frame boundary
    finally:
        right.close()


def test_frame_buffer_reassembles_byte_dribble():
    left, right = socket.socketpair()
    try:
        send_msg(left, {"type": "a"})
        send_msg(left, {"type": "b", "n": 2})
        wire = right.recv(1 << 16)
    finally:
        left.close()
        right.close()
    buffer = FrameBuffer()
    seen = []
    for index in range(len(wire)):
        seen.extend(buffer.feed(wire[index:index + 1]))
    assert [m["type"] for m in seen] == ["a", "b"]


def test_frame_buffer_rejects_oversized_header():
    import struct
    buffer = FrameBuffer()
    with pytest.raises(FrameError):
        buffer.feed(struct.pack("!I", (1 << 31)))


def test_parse_spec_and_address():
    assert parse_spec("4") == WorkerSpec(spawn=4)
    with pytest.raises(ValueError):
        parse_spec("0")
    with pytest.raises(ValueError):
        parse_spec("  ")
    dialed = parse_spec("hostA:7070,hostB:7071")
    assert dialed.spawn == 0
    assert dialed.addresses == (("tcp", ("hostA", 7070)),
                                ("tcp", ("hostB", 7071)))
    assert parse_address("/run/fab.sock") == ("unix", "/run/fab.sock")
    assert parse_address("10.0.0.9:9090") == ("tcp", ("10.0.0.9", 9090))
    with pytest.raises(ValueError):
        parse_address("no-port")


def test_resolve_point_fn_roundtrip():
    spec = f"{_cheap_point.__module__}:{_cheap_point.__qualname__}"
    assert resolve_point_fn(spec) is _cheap_point
    with pytest.raises(ValueError):
        resolve_point_fn("no-colon")
    with pytest.raises(TypeError):
        resolve_point_fn("math:pi")


def test_fabric_resolution_order(monkeypatch):
    monkeypatch.setattr(executor, "_FABRICS", {})
    monkeypatch.delenv("REPRO_FABRIC", raising=False)
    assert executor.resolve_fabric(None, jobs=1) is None
    local = executor.resolve_fabric(None, jobs=3)
    assert local.spec == WorkerSpec(spawn=3)
    assert executor.resolve_fabric(None, jobs=3) is local  # shared
    sentinel = object()
    assert executor.resolve_fabric(sentinel, jobs=3) is sentinel
    monkeypatch.setenv("REPRO_FABRIC", "hostA:7070")
    remote = executor.resolve_fabric(None, jobs=3)
    assert remote.spec.addresses == (("tcp", ("hostA", 7070)),)
    previous = executor.set_default_fabric(sentinel)
    try:
        # The default (the runner's --workers) beats the environment.
        assert executor.resolve_fabric(None, jobs=3) is sentinel
    finally:
        executor.set_default_fabric(previous)
    # Nothing above started a worker: fabrics spawn on first use.
    assert all(not fabric._workers
               for fabric in executor._FABRICS.values())


@pytest.mark.parametrize("spec", ["4", " 2 "])
def test_worker_count_spec_points_to_jobs(monkeypatch, spec):
    """--workers and REPRO_FABRIC take addresses; local worker counts
    come from --jobs."""
    monkeypatch.setenv("REPRO_FABRIC", spec)
    with pytest.raises(ValueError, match="--jobs"):
        executor.resolve_fabric(None, jobs=2)
    from repro.experiments.runner import main
    with pytest.raises(SystemExit):
        main(["fig06", "--scale", "smoke", "--workers", spec])


class _RemoteDouble:
    """Stands in for a Fabric of dialed workers."""

    spec = parse_spec("localhost:7070")


def test_run_sweep_falls_back_when_fabric_breaks():
    class BrokenFabric(_RemoteDouble):
        calls = 0

        def run_tasks(self, tasks, trace=None, obs_context=None):
            BrokenFabric.calls += 1
            raise FabricError("fabric unreachable")

    spec = fig06_segsize.sweep()
    serial = run_sweep(spec, TINY, jobs=1, cache=False)
    degraded = run_sweep(spec, TINY, jobs=1, cache=False,
                         fabric=BrokenFabric())
    assert BrokenFabric.calls == 1
    assert serial.as_dict() == degraded.as_dict()


def _spec(point_fn, params):
    return SweepSpec(
        experiment_id="test", title="t", x_label="x", y_label="y",
        point_fn=point_fn,
        points=tuple(Point(series="y", x=x, params=p)
                     for x, p in enumerate(params)))


def _cheap_spec(count):
    return _spec(_cheap_point, [{"x": x} for x in range(count)])


def _count_puts(monkeypatch):
    """Record the key of every ``SweepCache.put``; returns the list."""
    keys = []
    put = SweepCache.put

    def counting_put(self, key, value):
        keys.append(key)
        put(self, key, value)

    monkeypatch.setattr(SweepCache, "put", counting_put)
    return keys


def test_mixed_mode_small_sweeps_skip_the_fabric():
    """Sweeps under the FABRIC_MIN_POINTS floor run in-process even
    with a fabric configured."""

    class CountingFabric(_RemoteDouble):
        def __init__(self):
            self.calls = 0

        def run_tasks(self, tasks, trace=None, obs_context=None):
            self.calls += 1
            return [fn(scale, params) for fn, scale, params in tasks]

    counting = CountingFabric()
    small = run_sweep(_cheap_spec(2), TINY, jobs=1, cache=False,
                      fabric=counting)
    assert counting.calls == 0  # 2 pending points < floor of 4
    assert small.get("y").ys == [_cheap_point(TINY, {"x": x})
                                 for x in range(2)]


def test_sweep_below_floor_spawns_no_workers(monkeypatch):
    monkeypatch.setattr(executor, "_FABRICS", {})
    monkeypatch.delenv("REPRO_FABRIC", raising=False)
    count = executor.FABRIC_MIN_POINTS - 1
    result = run_sweep(_cheap_spec(count), TINY, jobs=2, cache=False)
    assert executor._FABRICS == {}
    assert result.get("y").ys == [_cheap_point(TINY, {"x": x})
                                  for x in range(count)]


def test_consecutive_sweeps_reuse_one_spawned_fabric(monkeypatch):
    monkeypatch.setattr(executor, "_FABRICS", {})
    monkeypatch.delenv("REPRO_FABRIC", raising=False)
    spec = _cheap_spec(6)
    serial = run_sweep(spec, TINY, jobs=1, cache=False)
    first = run_sweep(spec, TINY, jobs=2, cache=False)
    fabric = executor._FABRICS["2"]
    try:
        pids = sorted(worker.pid for worker in fabric._workers.values())
        second = run_sweep(spec, TINY, jobs=2, cache=False)
        assert list(executor._FABRICS) == ["2"]
        assert len(pids) == 2
        assert sorted(worker.pid
                      for worker in fabric._workers.values()) == pids
        assert fabric.completed == 2 * len(spec.points)
    finally:
        fabric.close()
    assert first.as_dict() == second.as_dict() == serial.as_dict()


# ---------------------------------------------------------------------------
# End-to-end: spawned workers
# ---------------------------------------------------------------------------

def _identical(first, second):
    assert first.labels == second.labels
    assert first.as_dict() == second.as_dict()
    for series_a, series_b in zip(first.series, second.series):
        assert series_a.xs == series_b.xs
        assert series_a.ys == series_b.ys  # exact ==, not approx


@pytest.fixture
def eager_fabric(monkeypatch):
    """Builds spawned fabrics that hedge every in-flight point as soon
    as a worker idles: the most duplicate-heavy schedule possible."""
    monkeypatch.setattr(coordinator, "_HEDGE_K", 0.0)
    monkeypatch.setattr(coordinator, "_HEDGE_MIN_S", 0.0)

    def build(spec):
        fabric = Fabric(spec)
        fabric.hedging = True
        return fabric

    return build


def test_fabric_matches_serial_bit_identical_smoke(eager_fabric):
    """serial == fabric(1) == fabric(4, hedging maximally eager) on a
    SMOKE figure — the determinism pin."""
    spec = fig06_segsize.sweep()
    serial = run_sweep(spec, SMOKE, jobs=1, cache=False)
    with Fabric("1") as single:
        one = run_sweep(spec, SMOKE, jobs=1, cache=False, fabric=single)
    with eager_fabric("4") as hedged:
        four = run_sweep(spec, SMOKE, jobs=1, cache=False, fabric=hedged)
        assert hedged.duplicate_mismatches == 0
    _identical(serial, one)
    _identical(serial, four)


@pytest.fixture
def listen_worker(tmp_path):
    """One ``worker --listen`` process on a Unix socket under
    ``tmp_path``; yields the socket path."""
    path = tmp_path / "w.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(entry for entry in sys.path
                                        if entry)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.fabric", "worker",
         "--listen", str(path)], env=env, stdin=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30.0
        while not path.exists():
            assert process.poll() is None, "listen worker exited"
            assert time.monotonic() < deadline, "listen worker never bound"
            time.sleep(0.02)
        yield str(path)
    finally:
        process.kill()
        process.wait()


def test_dialed_worker_matches_serial_and_stores_each_key_once(
        listen_worker, tmp_path, monkeypatch):
    """A dialed ``--listen`` worker gives the serial bits; the
    coordinator's store gets one ``put`` per computed key, and a warm
    store sends the worker nothing."""
    monkeypatch.setattr(executor, "_FABRICS", {})
    spec = fig06_segsize.sweep()
    serial = run_sweep(spec, SMOKE, jobs=1, cache=False)
    keys = {point_key(point.fn or spec.point_fn, SMOKE, point.params)
            for point in spec.points}
    puts = _count_puts(monkeypatch)
    root = tmp_path / "store"
    cold = run_sweep(spec, SMOKE, jobs=1, cache_root=root,
                     fabric=listen_worker)
    fabric = executor._FABRICS[listen_worker]
    try:
        assert fabric.spec.addresses == (("unix", listen_worker),)
        _identical(serial, cold)
        assert sorted(puts) == sorted(keys)
        assert fabric.completed == len(keys)
        warm = run_sweep(spec, SMOKE, jobs=1, cache_root=root,
                         fabric=listen_worker)
        _identical(serial, warm)
        assert fabric.completed == len(keys)  # nothing dispatched
        assert len(puts) == len(keys)
    finally:
        fabric.close()


def test_worker_killed_mid_point_requeues_and_never_caches_partial(
        tmp_path):
    root = tmp_path / "coord"
    spec = _spec(_die_once_point,
                 [{"sentinel": str(tmp_path / f"sentinel-{i}")}
                  for i in range(executor.FABRIC_MIN_POINTS)])
    with Fabric("2") as fabric:
        result = run_sweep(spec, TINY, jobs=1, cache_root=root,
                           fabric=fabric)
        assert result.get("y").ys == [42.0] * len(spec.points)
        assert fabric.requeued == len(spec.points)
        assert fabric.workers_lost >= len(spec.points)
    # The kill happened mid-point: only the completed retry may be
    # cached, and it must be the full value.
    store = SweepCache(str(root))
    for point in spec.points:
        key = point_key(_die_once_point, TINY, point.params)
        assert store.get(key) == (True, 42.0)
    # Every file under the store is a complete JSON document — no
    # half-written temp garbage survived the crashes.
    files = [path for path in root.rglob("*") if path.is_file()]
    assert len(files) == len(spec.points)
    for path in files:
        assert json.loads(path.read_text())["value"] == 42.0


def test_cacheless_and_nan_results_are_not_written_back(tmp_path):
    """Over a fabric, a ``cache=False`` sweep stores nothing, and NaN
    (the timed-out-point sentinel) is never stored."""
    root = tmp_path / "coord"
    count = executor.FABRIC_MIN_POINTS
    with Fabric("1") as fabric:
        run_sweep(_cheap_spec(count), TINY, jobs=1, cache=False,
                  cache_root=root, fabric=fabric)
        nan = run_sweep(_spec(_nan_point, [{"x": x} for x in range(count)]),
                        TINY, jobs=1, cache_root=root, fabric=fabric)
        assert fabric.completed == 2 * count
    assert all(value != value for value in nan.get("y").ys)
    assert not any(path.is_file() for path in root.rglob("*"))


def test_spawned_workers_pair_with_their_processes():
    """Each spawned worker holds its own process, whatever order the
    processes connected in, so a worker that dies between runs is the
    one replaced: the next run loses nothing and requeues nothing."""
    tasks = [(_cheap_point, TINY, {"x": x}) for x in range(8)]
    serial = [_cheap_point(TINY, {"x": x}) for x in range(8)]
    with Fabric("4") as fabric:
        assert fabric.run_tasks(tasks) == serial
        workers = list(fabric._workers.values())
        assert [worker.process.pid for worker in workers] \
            == [worker.pid for worker in workers]
        victim = workers[0].process
        victim.kill()
        victim.wait(timeout=10)
        assert fabric.run_tasks(tasks) == serial
        assert (fabric.requeued, fabric.workers_lost) == (0, 0)
        assert len(fabric._workers) == 4
        assert all(worker.process.pid == worker.pid
                   for worker in fabric._workers.values())


def test_authenticated_fabric_runs_points(monkeypatch):
    """Matched secrets: the mutual handshake completes and the fabric
    serves points exactly as an open fabric would."""
    monkeypatch.setenv("REPRO_FABRIC_SECRET", "tail-latency-pr-secret")
    with Fabric("2") as fabric:
        values = fabric.run_tasks([(_cheap_point, TINY, {"x": i})
                                   for i in range(4)])
    assert values == [_cheap_point(TINY, {"x": i}) for i in range(4)]


def _refused_start(monkeypatch, coordinator_secret, worker_secret):
    """Build a fabric under one secret, spawn its worker under another
    (workers inherit the environment at spawn), and expect refusal."""
    monkeypatch.setenv("REPRO_FABRIC_SECRET", coordinator_secret)
    fabric = Fabric("1")
    monkeypatch.setenv("REPRO_FABRIC_SECRET", worker_secret)
    try:
        with pytest.raises(FabricError):
            fabric.start()
        assert fabric.completed == 0
    finally:
        fabric.close()


def test_secret_mismatch_refuses_workers_before_tasks_flow(monkeypatch):
    """Coordinator and worker with different secrets never exchange a
    task: every worker is refused at the handshake and start() fails."""
    _refused_start(monkeypatch, "right-secret", "wrong-secret")


def test_unauthenticated_worker_refused_by_secret_coordinator(
        monkeypatch):
    """A worker with no secret cannot join a secret-holding
    coordinator's fabric (empty env value means auth off)."""
    _refused_start(monkeypatch, "right-secret", "")


def test_secretless_coordinator_refuses_auth_demanding_worker(
        monkeypatch):
    """The refusal is symmetric: a worker that demands auth is turned
    away by a coordinator that cannot provide it."""
    _refused_start(monkeypatch, "", "worker-secret")


def test_auth_proof_binds_role_and_nonce():
    from repro.experiments.fabric import auth_proof
    proof = auth_proof("s", "coordinator", "n")
    assert proof != auth_proof("s", "worker", "n")  # role-tagged
    assert proof != auth_proof("s", "coordinator", "m")  # nonce-bound
    assert proof != auth_proof("t", "coordinator", "n")  # keyed
    assert proof == auth_proof("s", "coordinator", "n")  # deterministic


def test_backend_mismatched_worker_is_refused(monkeypatch):
    """Cache keys embed the coordinator's event-core token, so a worker
    on a different backend must not serve points. The coordinator's
    token is patched: the spawned worker reports its real one."""
    monkeypatch.setattr(coordinator, "backend_token",
                        lambda: "another-core")
    fabric = Fabric("1")
    try:
        with pytest.raises(FabricError):
            fabric.start()
    finally:
        fabric.close()


def test_spawned_fabric_hedges_only_when_asked(eager_fabric):
    """Spawned workers are copies of one interpreter: a long task is a
    long point, so they issue no hedges, even at a zero threshold.
    Dialed workers hedge."""
    with Fabric("2") as fabric:
        assert not fabric.hedging
        assert fabric.run_tasks([(_slow_point, TINY, {"x": 7})]) == [7.5]
        assert fabric.hedges_issued == 0
    with eager_fabric("2") as eager:
        assert eager.run_tasks([(_slow_point, TINY, {"x": 7})]) == [7.5]
        assert eager.hedges_issued >= 1
    assert Fabric("localhost:7070").hedging


def test_eager_hedging_first_result_wins_and_telemetry_exports(
        tmp_path, eager_fabric):
    with eager_fabric("2") as fabric:
        # One slow task, two workers: the idle worker immediately gets
        # a hedge copy; whichever finishes first wins.
        assert fabric.run_tasks([(_slow_point, TINY, {"x": 7})]) == [7.5]
        assert fabric.hedges_issued >= 1
        assert fabric.duplicate_mismatches == 0
        # A second run on the same fabric: the losing copy's late
        # result (stale run id) must not leak into these values.
        values = fabric.run_tasks([(_cheap_point, TINY, {"x": i})
                                   for i in range(4)])
        assert values == [_cheap_point(TINY, {"x": i}) for i in range(4)]

        trace = tmp_path / "fabric.jsonl"
        fabric.export_telemetry(str(trace), meta={"suite": "unit"})
    from repro.obs.export import read_jsonl
    from repro.obs.report import render
    meta, spans, series = read_jsonl(str(trace))
    assert meta["suite"] == "unit"
    assert spans == []
    names = {record["name"] for record in series}
    assert "fabric.queue_depth" in names
    assert "fabric.hedges_issued" in names
    assert any(name.startswith("fabric.w") and name.endswith(".inflight")
               for name in names)
    out = io.StringIO()
    render(meta, spans, series, out=out)  # span-less log renders fine
    text = out.getvalue()
    assert "telemetry" in text
    assert "fabric.queue_depth" in text


def test_four_workers_overlap_sleep_paced_points():
    """Dispatch overlap: 16 cache-cold points that each sleep 50 ms run
    at least twice as fast through 4 workers as through 1, and give the
    serial values. Sleep-paced points measure what the coordinator
    controls, so the ratio holds on a one-core machine too. Each fabric
    runs the sweep once untimed first, so worker spawn and the workers'
    first import of this module are not timed."""
    tasks = [(_sleep_point, TINY, {"x": i}) for i in range(16)]
    serial = [_sleep_point(TINY, params) for _, _, params in tasks]
    rates = {}
    for workers in (1, 4):
        with Fabric(str(workers)) as fabric:
            assert fabric.run_tasks(tasks) == serial
            started = time.perf_counter()
            values = fabric.run_tasks(tasks)
            rates[workers] = len(tasks) / (time.perf_counter() - started)
        assert values == serial
    assert rates[4] >= 2.0 * rates[1], rates
