"""Distributed sweep fabric: a work queue for sweep points.

``repro.experiments.fabric`` is how the sweep executor runs points in
parallel, on one host or several: a coordinator/worker fabric
(push-based dispatch in the spirit of arXiv 1905.07113). A coordinator
serializes ``(point_fn, scale, params)`` tasks onto a length-prefixed
TCP or Unix-socket work queue; N worker processes — spawned locally or
listening on remote hosts — pull points, compute them and stream the
values back. The workers keep no state: ``run_sweep``'s
:class:`~repro.experiments.executor.SweepCache` is looked up before
dispatch and written after, and is the only cache. Several
coordinators share results by pointing ``REPRO_SWEEP_CACHE`` at one
root. Dispatch to dialed workers is straggler-aware: slow points are
hedged onto idle workers and the first result wins (see
:mod:`repro.experiments.fabric.coordinator` for the policy and the
determinism argument).

Entry points:

* ``run_sweep(..., jobs=4)`` — a shared fabric of four spawned local
  workers (``runner --jobs 4``);
* ``run_sweep(..., fabric=...)`` / ``REPRO_FABRIC`` / ``runner
  --workers hostA:7070,hostB:7070`` — remote workers;
* ``python -m repro.experiments.fabric worker --listen 0.0.0.0:7070``
  — a remote worker; ``--connect`` is used by spawned local workers.
"""

from __future__ import annotations

from repro.experiments.fabric.coordinator import Fabric, FabricError
from repro.experiments.fabric.protocol import (AUTH_ENV, WorkerSpec,
                                               auth_proof, fabric_secret,
                                               parse_address, parse_spec)

__all__ = [
    "AUTH_ENV",
    "Fabric",
    "FabricError",
    "WorkerSpec",
    "auth_proof",
    "fabric_secret",
    "parse_address",
    "parse_spec",
]
