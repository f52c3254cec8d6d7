"""Cross-process trace collection: pack/ingest, merge, fleet exports.

DESIGN.md §10's wire path: a worker runs its points under a local obs
context, packs spans + telemetry into a JSON-safe payload, and the
coordinator ingests every payload into the session context — remapping
ids, tagging spans with the worker ident, prefixing remote series. The
pins here: the pack/ingest round trip preserves tree structure exactly,
ingestion is deterministic, the merged Chrome trace passes schema
validation with one pid lane per worker, and the end-to-end fabric
traced run returns byte-identical values to serial.
"""

import json

import pytest

from repro import obs
from repro.experiments.base import ExperimentScale
from repro.experiments.fabric import Fabric
from repro.obs.export import (export_chrome_trace, export_prometheus,
                              read_jsonl, validate_chrome_trace)
from repro.obs.spans import SpanRecorder, span_trees

TINY = ExperimentScale("tiny", duration=0.1, warmup=0.02)


def _traced_point(scale, params):
    """Point fn that records spans into whatever obs context is active."""
    context = obs.current()
    if getattr(context, "enabled", False):
        recorder = context.spans
        root = recorder.begin("request", "client", 0.0)
        child = recorder.begin("fetch", "server", 0.001,
                               trace_id=root.trace_id,
                               parent_id=root.span_id)
        recorder.end(child, 0.004)
        recorder.end(root, 0.010)
    return float(params["x"]) * 2.0


# ---------------------------------------------------------------------------
# pack / ingest round trip (no processes)
# ---------------------------------------------------------------------------

def _sample_recorder():
    recorder = SpanRecorder(capacity=None)
    root = recorder.begin("request", "client", 1.0)
    child = recorder.begin("phase", "server", 1.1,
                           trace_id=root.trace_id, parent_id=root.span_id)
    child.set_arg("disk", 3)
    recorder.end(child, 1.4)
    recorder.end(root, 1.5)
    other = recorder.begin("request", "client", 2.0)
    recorder.end(other, 2.2)
    return recorder


def test_pack_ingest_preserves_structure_and_tags_worker():
    source = _sample_recorder()
    packed = json.loads(json.dumps(source.pack()))  # wire-safe
    target = SpanRecorder(capacity=None)
    local = target.begin("local", "client", 0.0)    # pre-existing span
    target.end(local, 0.5)
    kept = target.ingest(packed, worker=7)
    assert kept == 3
    ingested = target.spans[1:]
    # Same names/categories/times, fresh non-colliding ids.
    assert [(s.name, s.category, s.start, s.end) for s in ingested] == \
        [(s.name, s.category, s.start, s.end) for s in source.spans]
    assert all(span.args.get("worker") == 7 for span in ingested)
    assert len({span.span_id for span in target.spans}) == 4
    # Parent/child relation survives the id remap.
    trees = span_trees(ingested)
    roots = [root for root, _children in trees.values()]
    assert {root.name for root in roots} == {"request"}
    preserved = ingested[1]
    assert preserved.parent_id == ingested[0].span_id
    assert preserved.args["disk"] == 3


def test_ingest_respects_capacity_quotas():
    source = SpanRecorder(capacity=None)
    for index in range(10):
        span = source.begin("request", "client", float(index))
        source.end(span, float(index) + 0.1)
    target = SpanRecorder(capacity=4)
    kept = target.ingest(source.pack(), worker=1)
    assert kept == 4
    assert target.dropped == 6


def test_context_payload_round_trip_with_series():
    context = obs.ObsContext(telemetry_interval=None)
    recorder = context.spans
    span = recorder.begin("request", "client", 0.0)
    recorder.end(span, 0.25)
    payload = json.loads(json.dumps(context.pack_payload()))
    assert payload["spans"] and payload["dropped"] == 0

    session = obs.ObsContext(telemetry_interval=None)
    session.ingest_payload(payload, worker=2)
    assert len(session.spans) == 1
    assert session.spans.spans[0].args["worker"] == 2


def test_ingest_payload_prefixes_remote_series():
    payload = {"spans": [], "dropped": 0, "dropped_by_category": {},
               "series": [{"name": "server.queue", "kind": "gauge",
                           "samples": [[0.0, 1.0], [1.0, 3.0]]}]}
    session = obs.ObsContext(telemetry_interval=None)
    session.ingest_payload(payload, worker=4)
    assert session.remote_series[0]["name"] == "w4.server.queue"


# ---------------------------------------------------------------------------
# merged exports
# ---------------------------------------------------------------------------

def test_chrome_export_gives_workers_their_own_pid_lane(tmp_path):
    session = obs.ObsContext(telemetry_interval=None)
    local = session.spans.begin("local", "client", 0.0)
    session.spans.end(local, 0.1)
    worker_payload = _payload_with_one_span()
    session.ingest_payload(worker_payload, worker=1)
    session.ingest_payload(worker_payload, worker=2)
    path = tmp_path / "trace.json"
    export_chrome_trace(session, str(path), meta={"fabric": "2"})
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    assert validate_chrome_trace(document) == []
    pids = {event["pid"] for event in document["traceEvents"]
            if event["ph"] == "X"}
    assert pids == {1, 2, 3}  # local lane + one per worker ident


def _payload_with_one_span():
    context = obs.ObsContext(telemetry_interval=None)
    span = context.spans.begin("request", "client", 0.0)
    context.spans.end(span, 0.02)
    return context.pack_payload()


def test_prometheus_export_with_fabric_extra_rows(tmp_path):
    session = obs.ObsContext(telemetry_interval=None)
    session.ingest_payload(
        {"spans": [], "dropped": 0, "dropped_by_category": {},
         "series": [{"name": "shed", "kind": "counter",
                     "samples": [[0.0, 0.0], [1.0, 4.0]]}]},
        worker=1)
    path = tmp_path / "fleet.prom"
    export_prometheus(session, str(path),
                      extra=[("fabric.w1.completed", "counter", 9.0)])
    text = path.read_text(encoding="utf-8")
    assert "# TYPE repro_w1_shed counter\nrepro_w1_shed 4" in text
    assert "repro_fabric_w1_completed 9" in text
    # context=None still works: the fabric-only dump path.
    export_prometheus(None, str(path),
                      extra=[("fabric.workers", "gauge", 2.0)])
    assert "repro_fabric_workers" in path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# end to end through real worker processes
# ---------------------------------------------------------------------------

def test_fabric_traced_run_merges_spans_and_matches_serial(tmp_path):
    tasks = [(_traced_point, TINY, {"x": float(index)})
             for index in range(6)]
    serial = [_traced_point(TINY, {"x": float(index)})
              for index in range(6)]
    session = obs.ObsContext(telemetry_interval=None)
    with Fabric("2") as fabric:
        values = fabric.run_tasks(
            tasks, trace={"span_capacity": 10_000},
            obs_context=session)
        stats = fabric.stats()
        metrics = dict()
        for name, kind, value in fabric.prometheus_metrics():
            metrics[name] = (kind, value)
    assert values == serial
    # Every task contributed its 2-span tree, tagged by a real worker.
    assert len(session.spans) == 12
    workers = {span.args.get("worker") for span in session.spans.spans}
    assert workers and all(isinstance(w, int) for w in workers)
    assert stats["completed"] == 6
    # Per-worker counter rows made it into the fleet metric dump.
    per_worker = [name for name in metrics if ".w" in name]
    assert any(name.endswith(".completed") for name in per_worker)
    assert sum(metrics[name][1] for name in per_worker
               if name.endswith(".completed")) == 6
    # The merged context exports a schema-valid worker-tagged trace.
    path = tmp_path / "merged.json"
    export_chrome_trace(session, str(path), meta={"fabric": "2"})
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    assert validate_chrome_trace(document) == []


def test_fabric_traced_ingest_is_deterministic():
    tasks = [(_traced_point, TINY, {"x": float(index)})
             for index in range(5)]

    def run_once():
        session = obs.ObsContext(telemetry_interval=None)
        with Fabric("2") as fabric:
            fabric.run_tasks(tasks, trace={"span_capacity": 10_000},
                             obs_context=session)
        return [(s.name, s.category, s.start, s.end, s.span_id,
                 s.trace_id, s.parent_id) for s in session.spans.spans]

    first = run_once()
    second = run_once()
    # Worker tags may differ run to run (who won which task), but the
    # span structure and id assignment are a pure function of the task
    # list because payloads ingest in task-index order.
    assert first == second
