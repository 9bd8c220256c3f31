"""Discrete-event simulation substrate for asynchronous message-passing protocols.

The paper's computational model (Section 1.1) assumes:

* peers communicate by placing messages into unbounded channels,
* messages are never lost or duplicated but may be delivered out of order
  (non-FIFO) with unbounded but finite delay (*fair message receipt*),
* every node has a ``Timeout`` action that is executed infinitely often
  (*weakly fair action execution*), and
* the initial state is arbitrary (corrupted variables and channels).

:mod:`repro.sim` provides a seeded, deterministic discrete-event simulator that
realises exactly this model: :class:`~repro.sim.engine.Simulator` drives
periodic timeouts and delivers messages with randomised delays drawn from a
seeded RNG, :class:`~repro.sim.network.Network` tracks crashes, message
accounting and the in-flight views, :class:`~repro.sim.node.ProtocolNode` is the base class for
protocol participants, and :mod:`repro.sim.failure` adds crash injection plus
the supervisor-side oracle failure detector used in Section 3.3 of the paper.
"""

from repro.sim.arena import NodeArena
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.network import Message, Network, ChannelStats
from repro.sim.node import ProtocolNode, NodeRef
from repro.sim.failure import FailureDetector, CrashSchedule
from repro.sim.scheduler import (
    EventScheduler,
    HeapScheduler,
    TimeoutWheelScheduler,
    auto_bucket_width,
    make_scheduler,
)
from repro.sim.tracing import Tracer, TraceEvent
from repro.sim.rng import BatchedUniform, derive_rng, derive_seed, spawn_seeds


def core_build_info() -> dict:
    """Which build of the simulator core this interpreter imported.

    The hot modules (:mod:`repro.sim.engine`, :mod:`repro.sim.scheduler`)
    can optionally be compiled with mypyc (``scripts/build_compiled_core.py``
    or ``REPRO_BUILD_MYPYC=1 pip install -e .``).  Compiled extension modules
    shadow the pure-Python sources at import time; this helper reports which
    one actually loaded, so benchmarks and bug reports can state their mode.
    """
    import repro.sim.engine as _engine
    import repro.sim.scheduler as _scheduler

    def mode(module) -> str:
        filename = getattr(module, "__file__", "") or ""
        return ("compiled" if filename.endswith((".so", ".pyd"))
                else "pure-python")

    engine_mode = mode(_engine)
    scheduler_mode = mode(_scheduler)
    return {
        "engine": engine_mode,
        "scheduler": scheduler_mode,
        "compiled": engine_mode == "compiled" and scheduler_mode == "compiled",
    }


__all__ = [
    "core_build_info",
    "NodeArena",
    "Simulator",
    "SimulatorConfig",
    "EventScheduler",
    "HeapScheduler",
    "TimeoutWheelScheduler",
    "auto_bucket_width",
    "make_scheduler",
    "Message",
    "Network",
    "ChannelStats",
    "ProtocolNode",
    "NodeRef",
    "FailureDetector",
    "CrashSchedule",
    "Tracer",
    "TraceEvent",
    "BatchedUniform",
    "derive_rng",
    "derive_seed",
    "spawn_seeds",
]
