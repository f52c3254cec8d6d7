"""Event-core FIFO property and backend-selection tests.

Two pins on :mod:`repro.sim.eventcore`:

1. **Same-timestamp FIFO is permutation-safe on every backend.** The
   kernel's determinism contract is (when, push-sequence) ordering;
   the backends implement it with two different structures (a C heap
   of structs and heapq tuples). Mirroring
   ``tests/test_drive_metamorphic.py``, every arrival permutation of a
   timestamp multiset must pop back in stable-sorted order — equal
   timestamps strictly in arrival order, on every backend, both
   through raw core ``push``/``pop`` and through the driven ``run()``
   loop.

2. **Selection is explicit and never degrades silently.** The
   ``REPRO_EVENTCORE`` override and ``Simulator(backend=...)`` must
   select exactly what they name: unknown names raise ``ValueError``,
   requesting the compiled core in an interpreter that could not
   import it raises ``RuntimeError`` — a forced backend is a
   correctness/benchmark pin, so a quiet fallback would invalidate
   whatever the caller was pinning.
"""

import itertools

import pytest

from repro.sim import Simulator
from repro.sim import eventcore
from repro.sim.eventcore import available_backends, backend_token, \
    compiled_available, resolve_backend
from repro.sim.events import Event

BACKENDS = available_backends()

#: Timestamp multiset with heavy duplication: three same-instant
#: groups, including the head timestamp, so batching paths engage.
WHENS = (1.0, 0.0, 1.0, 0.5, 0.0, 1.0)


# -- FIFO property ----------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_same_timestamp_pops_fifo_under_all_permutations(backend):
    """Every arrival permutation pops back stable-sorted by (when, arrival)."""
    for order in itertools.permutations(range(len(WHENS))):
        sim = Simulator(backend=backend)
        arrivals = [(WHENS[index], index) for index in order]
        for when, ident in arrivals:
            sim._push(when, Event(sim, name=str(ident)))
        # sorted() is stable: equal whens keep arrival order — exactly
        # the kernel's FIFO contract.
        expected = [ident for _when, ident in
                    sorted(arrivals, key=lambda pair: pair[0])]
        popped = []
        while sim.queue_length:
            when, event = sim._core.pop()
            popped.append((when, int(event.name)))
        assert [ident for _when, ident in popped] == expected, \
            f"backend {backend} broke FIFO for arrival order {order}"
        assert [when for when, _ident in popped] == sorted(WHENS)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pop_from_empty_core_raises(backend):
    sim = Simulator(backend=backend)
    with pytest.raises(IndexError):
        sim._core.pop()


@pytest.mark.parametrize("backend", BACKENDS)
def test_driven_same_instant_processes_run_in_spawn_order(backend):
    """Through run(): same-instant wakeups dispatch in creation order."""
    for order in itertools.permutations(range(4)):
        log = []
        sim = Simulator(backend=backend)

        def worker(sim, ident, delay):
            yield sim.timeout(delay)
            log.append(ident)

        # Everybody fires at t=1.0 via different schedule shapes, but
        # creation order (push order at t=1.0 is resolved by the
        # bootstrap order at t=0) must win within the instant.
        for ident in order:
            sim.process(worker(sim, ident, 1.0))
        sim.run()
        assert log == list(order), \
            f"backend {backend} reordered a same-instant batch"


def test_interleaved_push_pop_keeps_global_order():
    """Pops between pushes never disturb FIFO."""
    for backend in BACKENDS:
        sim = Simulator(backend=backend)
        for step in range(8):
            sim._push(float(step % 3), Event(sim, name=f"a{step}"))
        drained = [sim._core.pop() for _ in range(4)]
        for step in range(8, 12):
            sim._push(float(step % 3), Event(sim, name=f"a{step}"))
        while sim.queue_length:
            drained.append(sim._core.pop())
        whens = [when for when, _event in drained]
        # Each drain phase is internally sorted; a later push may only
        # precede survivors if strictly earlier, never reorder equals.
        assert whens[:4] == sorted(whens[:4])
        assert whens[4:] == sorted(whens[4:])
        names = [event.name for _when, event in drained]
        assert len(set(names)) == 12  # nothing lost, nothing duplicated


# -- forced selection -------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_env_override_selects_backend(monkeypatch, backend):
    monkeypatch.setenv(eventcore.ENV_VAR, backend)
    sim = Simulator()
    assert sim.backend == backend
    assert sim._core.backend == backend


def test_explicit_argument_beats_environment(monkeypatch):
    monkeypatch.setenv(eventcore.ENV_VAR, "quantum")
    assert Simulator(backend="heapq").backend == "heapq"


def test_unknown_backend_raises_value_error(monkeypatch):
    """Unknown names, including the retired ``calendar``, fail loudly."""
    for name in ("quantum", "calendar"):
        with pytest.raises(ValueError, match="unknown event-core backend"):
            Simulator(backend=name)
        monkeypatch.setenv(eventcore.ENV_VAR, name)
        with pytest.raises(ValueError,
                           match=r"pick one of compiled/heapq \(via "
                                 r"REPRO_EVENTCORE"):
            Simulator()


def test_unavailable_compiled_raises_runtime_error(monkeypatch):
    """Forcing the compiled core without the extension fails loudly."""
    monkeypatch.setattr(eventcore, "_compiled", None)
    assert not compiled_available()
    assert "compiled" not in available_backends()
    with pytest.raises(RuntimeError, match="not importable"):
        Simulator(backend="compiled")
    monkeypatch.setenv(eventcore.ENV_VAR, "compiled")
    with pytest.raises(RuntimeError, match="C compiler"):
        Simulator()


def test_auto_selection_prefers_compiled_then_heapq(monkeypatch):
    monkeypatch.delenv(eventcore.ENV_VAR, raising=False)
    if compiled_available():
        assert resolve_backend(None) == "compiled"
        assert backend_token(None).startswith("compiled/")
    monkeypatch.setattr(eventcore, "_compiled", None)
    assert resolve_backend(None) == "heapq"
    assert backend_token(None) == "heapq"
