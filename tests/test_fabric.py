"""Distributed sweep fabric: protocol, determinism, failure handling.

The load-bearing pins (ISSUE 7):

* **byte-identical output** — a fabric run (any worker count, hedging
  as aggressive as it gets) equals the serial sweep exactly; hedging's
  first-result-wins can never change a value because points are pure;
* **crash safety** — a worker killed mid-point loses nothing: the task
  is re-queued (bounded), the fabric respawns, and no partial value is
  ever cached;
* **shared cache** — a cache-cold worker reuses a cache-warm peer's
  result through the coordinator instead of recomputing.
"""

import io
import json
import os
import socket
import time

import pytest

from repro.experiments import SMOKE, executor, fig06_segsize
from repro.experiments.base import ExperimentScale
from repro.experiments.executor import SweepCache, point_key, run_sweep
from repro.experiments.fabric import Fabric, FabricError
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
    monkeypatch.delenv("REPRO_FABRIC", raising=False)
    assert executor._resolve_fabric(None) is None
    assert executor._resolve_fabric(executor.FABRIC_OFF) is None
    sentinel = object()
    assert executor._resolve_fabric(sentinel) is sentinel
    previous = executor.set_default_fabric(sentinel)
    try:
        assert executor._resolve_fabric(None) is sentinel
        # FABRIC_OFF beats both the default and the environment.
        monkeypatch.setenv("REPRO_FABRIC", "4")
        assert executor._resolve_fabric(executor.FABRIC_OFF) is None
    finally:
        executor.set_default_fabric(previous)


def test_run_sweep_falls_back_when_fabric_breaks():
    class BrokenFabric:
        calls = 0

        def run_tasks(self, tasks, keys=None, use_cache=False,
                      trace=None, obs_context=None):
            BrokenFabric.calls += 1
            raise FabricError("fabric unreachable")

    spec = fig06_segsize.sweep()
    serial = run_sweep(spec, TINY, jobs=1, cache=False)
    degraded = run_sweep(spec, TINY, jobs=1, cache=False,
                         fabric=BrokenFabric())
    assert BrokenFabric.calls == 1
    assert serial.as_dict() == degraded.as_dict()


def test_mixed_mode_small_sweeps_skip_the_fabric(monkeypatch):
    """Sweeps under the FABRIC_MIN_POINTS floor run in-process even
    with a fabric configured; REPRO_FABRIC_MIN_POINTS=0 forces the
    fabric for everything."""
    from repro.experiments.executor import Point, SweepSpec

    class CountingFabric:
        def __init__(self):
            self.calls = 0

        def run_tasks(self, tasks, keys=None, use_cache=False,
                      trace=None, obs_context=None):
            self.calls += 1
            return [fn(scale, params) for fn, scale, params in tasks]

    spec = SweepSpec(
        experiment_id="mixed-mode-tiny", title="t", x_label="x",
        y_label="y", point_fn=_cheap_point,
        points=(Point(series="y", x=1, params={"x": 1}),
                Point(series="y", x=2, params={"x": 2})))
    counting = CountingFabric()
    small = run_sweep(spec, TINY, jobs=1, cache=False, fabric=counting)
    assert counting.calls == 0  # 2 pending points < floor of 4
    monkeypatch.setenv("REPRO_FABRIC_MIN_POINTS", "0")
    forced = run_sweep(spec, TINY, jobs=1, cache=False, fabric=counting)
    assert counting.calls == 1
    assert small.as_dict() == forced.as_dict()  # route never changes bits
    # A malformed override is ignored, not fatal: back to the default
    # floor, so the 2-point sweep stays local again.
    monkeypatch.setenv("REPRO_FABRIC_MIN_POINTS", "many")
    run_sweep(spec, TINY, jobs=1, cache=False, fabric=counting)
    assert counting.calls == 1


# ---------------------------------------------------------------------------
# End-to-end: spawned workers
# ---------------------------------------------------------------------------

def _identical(first, second):
    assert first.labels == second.labels
    assert first.as_dict() == second.as_dict()
    for series_a, series_b in zip(first.series, second.series):
        assert series_a.xs == series_b.xs
        assert series_a.ys == series_b.ys  # exact ==, not approx


def test_fabric_matches_serial_bit_identical_smoke():
    """serial == fabric(1) == fabric(4, hedging maximally eager) on a
    SMOKE figure — the ISSUE 7 determinism pin."""
    spec = fig06_segsize.sweep()
    serial = run_sweep(spec, SMOKE, jobs=1, cache=False)
    with Fabric("1") as single:
        one = run_sweep(spec, SMOKE, jobs=1, cache=False, fabric=single)
    # hedge_min_s=0/hedge_k=0 hedges every in-flight point as soon as
    # a worker idles: the most duplicate-heavy schedule possible.
    with Fabric("4", hedge_k=0.0, hedge_min_s=0.0) as hedged:
        four = run_sweep(spec, SMOKE, jobs=1, cache=False, fabric=hedged)
        assert hedged.duplicate_mismatches == 0
    _identical(serial, one)
    _identical(serial, four)


def test_worker_killed_mid_point_requeues_and_never_caches_partial(
        tmp_path):
    coord_root = tmp_path / "coord"
    worker_root = tmp_path / "workers"
    tasks = [(_die_once_point, TINY,
              {"sentinel": str(tmp_path / f"sentinel-{i}")})
             for i in range(2)]
    keys = [point_key(fn, scale, params)
            for fn, scale, params in tasks]
    with Fabric("2", cache_root=str(coord_root),
                worker_env={"REPRO_SWEEP_CACHE": str(worker_root)}
                ) as fabric:
        values = fabric.run_tasks(tasks, keys=keys, use_cache=True)
        assert values == [42.0, 42.0]
        assert fabric.requeued == 2
        assert fabric.workers_lost >= 2
    # The kill happened mid-point: only the completed retry may be
    # cached, and it must be the full value.
    store = SweepCache(str(worker_root))
    for key in keys:
        assert store.get(key) == (True, 42.0)
    # Every file under the shared root is a complete JSON document —
    # no half-written temp garbage survived the crashes.
    for path in worker_root.rglob("*"):
        if path.is_file():
            payload = json.loads(path.read_text())
            assert payload["value"] == 42.0


def test_cold_worker_reuses_warm_peer_result_via_coordinator(tmp_path):
    coord_root = tmp_path / "coord"
    worker_root = tmp_path / "worker"
    task = (_cheap_point, TINY, {"x": 3})
    key = point_key(*task)
    # Another worker's past result lives in the coordinator's store.
    SweepCache(str(coord_root)).put(key, 123.5)
    with Fabric("1", cache_root=str(coord_root),
                worker_env={"REPRO_SWEEP_CACHE": str(worker_root)}
                ) as fabric:
        assert fabric.run_tasks([task], keys=[key],
                                use_cache=True) == [123.5]
        assert fabric.cache_peer_hits == 1
        # The peer hit was copied into the worker's local tier: the
        # second sweep answers without a coordinator round-trip.
        assert fabric.run_tasks([task], keys=[key],
                                use_cache=True) == [123.5]
        assert fabric.cache_local_hits == 1
    assert SweepCache(str(worker_root)).get(key) == (True, 123.5)


def test_computed_result_written_back_to_coordinator_store(tmp_path):
    coord_root = tmp_path / "coord"
    task = (_cheap_point, TINY, {"x": 9})
    key = point_key(*task)
    expected = _cheap_point(TINY, {"x": 9})
    # The worker caches on a *different* disk than the coordinator — the
    # dial-out shape where, without write-back, the coordinator's store
    # never learns computed values.
    with Fabric("1", cache_root=str(coord_root),
                worker_env={"REPRO_SWEEP_CACHE": str(tmp_path / "w1")}
                ) as fabric:
        assert fabric.run_tasks([task], keys=[key],
                                use_cache=True) == [expected]
        assert fabric.cache_writebacks == 1
        assert fabric.stats()["cache_writebacks"] == 1
    # The computed value landed in the coordinator's store...
    assert SweepCache(str(coord_root)).get(key) == (True, expected)
    # ...so a fresh, cache-cold worker peer-hits instead of recomputing.
    with Fabric("1", cache_root=str(coord_root),
                worker_env={"REPRO_SWEEP_CACHE": str(tmp_path / "w2")}
                ) as fabric:
        assert fabric.run_tasks([task], keys=[key],
                                use_cache=True) == [expected]
        assert fabric.cache_peer_hits == 1
        assert fabric.cache_writebacks == 0  # peer hits are not computes


def test_cacheless_and_nan_results_are_not_written_back(tmp_path):
    coord_root = tmp_path / "coord"
    task = (_cheap_point, TINY, {"x": 1})
    with Fabric("1", cache_root=str(coord_root),
                worker_env={"REPRO_SWEEP_CACHE": str(tmp_path / "w")}
                ) as fabric:
        # No keys / cache disabled: nothing may touch the store.
        fabric.run_tasks([task])
        assert fabric.cache_writebacks == 0
        # NaN (the timed-out-point sentinel) is never cached anywhere.
        nan_task = (_nan_point, TINY, {})
        values = fabric.run_tasks([nan_task],
                                  keys=[point_key(*nan_task)],
                                  use_cache=True)
        assert len(values) == 1 and values[0] != values[0]
        assert fabric.cache_writebacks == 0
    assert not (coord_root / "").exists() or not any(
        path.is_file() for path in coord_root.rglob("*"))


def test_authenticated_fabric_runs_points(monkeypatch):
    """Matched secrets: the mutual handshake completes and the fabric
    serves points exactly as an open fabric would."""
    monkeypatch.delenv("REPRO_FABRIC_SECRET", raising=False)
    secret = "tail-latency-pr-secret"
    with Fabric("2", secret=secret) as fabric:
        values = fabric.run_tasks([(_cheap_point, TINY, {"x": i})
                                   for i in range(4)])
    assert values == [_cheap_point(TINY, {"x": i}) for i in range(4)]


def test_secret_mismatch_refuses_workers_before_tasks_flow(monkeypatch):
    """Coordinator and worker with different secrets never exchange a
    task: every worker is refused at the handshake and start() fails."""
    monkeypatch.delenv("REPRO_FABRIC_SECRET", raising=False)
    fabric = Fabric("1", secret="right-secret",
                    worker_env={"REPRO_FABRIC_SECRET": "wrong-secret"})
    try:
        with pytest.raises(FabricError):
            fabric.start()
        assert fabric.completed == 0
    finally:
        fabric.close()


def test_unauthenticated_worker_refused_by_secret_coordinator(
        monkeypatch):
    """A worker with no secret cannot join a secret-holding
    coordinator's fabric (empty env value means auth off)."""
    monkeypatch.delenv("REPRO_FABRIC_SECRET", raising=False)
    fabric = Fabric("1", secret="right-secret",
                    worker_env={"REPRO_FABRIC_SECRET": ""})
    try:
        with pytest.raises(FabricError):
            fabric.start()
    finally:
        fabric.close()


def test_secretless_coordinator_refuses_auth_demanding_worker(
        monkeypatch):
    """The refusal is symmetric: a worker that demands auth is turned
    away by a coordinator that cannot provide it."""
    monkeypatch.delenv("REPRO_FABRIC_SECRET", raising=False)
    fabric = Fabric("1", secret="",
                    worker_env={"REPRO_FABRIC_SECRET": "worker-secret"})
    try:
        with pytest.raises(FabricError):
            fabric.start()
    finally:
        fabric.close()


def test_auth_proof_binds_role_and_nonce():
    from repro.experiments.fabric import auth_proof
    proof = auth_proof("s", "coordinator", "n")
    assert proof != auth_proof("s", "worker", "n")  # role-tagged
    assert proof != auth_proof("s", "coordinator", "m")  # nonce-bound
    assert proof != auth_proof("t", "coordinator", "n")  # keyed
    assert proof == auth_proof("s", "coordinator", "n")  # deterministic


def test_backend_mismatched_worker_is_refused():
    """Cache keys embed the coordinator's event-core token, so a worker
    on a different backend must not serve points."""
    from repro.sim.eventcore import available_backends, resolve_backend
    active = resolve_backend(None)
    others = [b for b in available_backends() if b != active]
    if not others:
        pytest.skip("only one event-core backend available")
    fabric = Fabric("1", worker_env={"REPRO_EVENTCORE": others[0]})
    try:
        with pytest.raises(FabricError):
            fabric.start()
    finally:
        fabric.close()


def test_eager_hedging_first_result_wins_and_telemetry_exports(tmp_path):
    with Fabric("2", hedge_k=0.0, hedge_min_s=0.0) as fabric:
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
            assert fabric.run_tasks(tasks, use_cache=False) == serial
            started = time.perf_counter()
            values = fabric.run_tasks(tasks, use_cache=False)
            rates[workers] = len(tasks) / (time.perf_counter() - started)
        assert values == serial
    assert rates[4] >= 2.0 * rates[1], rates
