"""One drain loop against its per-event reference.

:meth:`Simulator.run_until_time` drains every run through the block drain —
adversarial, telemetry-on and custom-scheduler runs included — while a
``max_steps`` drive processes the same events one :meth:`Simulator.step` at
a time.  The two must agree on everything observable: the handler event log,
the message statistics (with the latency histogram when telemetry is on) and
the in-flight views, which include adversarial duplicates and injected
corruption.  The delay-spike cases pin the block window: a spike with a
factor below 1 shortens delays below ``min_delay``, so a window that ignored
it would deliver in-window sends out of order.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios.adversary import LinkAdversary
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.node import ProtocolNode
from repro.sim.scheduler import HeapScheduler

NODES = 10
CHECKPOINTS = (2.5, 6.0, 11.0, 18.0)


class _SubHeap(HeapScheduler):
    """Not exactly a built-in scheduler: drained through the base
    ``pop_block_into`` and the generic ``push``."""

    __slots__ = ()


SCHEDULERS = ("wheel", "heap", "subclass")


class _Logger(ProtocolNode):
    """Logs every handled event and fans each Timeout out to one or two
    peers, carrying a node reference (an implicit edge)."""

    __slots__ = ("log",)

    def __init__(self, node_id, log):
        super().__init__(node_id)
        self.log = log

    def on_timeout(self):
        self.log.append((self.now, "timeout", self.node_id))
        self.send(self.node_id % NODES + 1, "Ping", sender=self.node_id,
                  node=self.node_id)
        if self.node_id % 3 == 0:
            self.send((self.node_id * 7) % NODES + 1, "Ping",
                      sender=self.node_id, node=self.node_id)

    def on_Ping(self, sender, node=None, topic=None):
        self.log.append((self.now, "ping", self.node_id, sender, node))


def _run(config, scheduler, telemetry, stepwise):
    """One seeded run; returns everything the two drives must agree on."""
    sim = Simulator(SimulatorConfig(seed=config["seed"], telemetry=telemetry,
                                    scheduler="wheel" if scheduler == "wheel"
                                    else "heap"))
    if scheduler == "subclass":
        sim.scheduler = _SubHeap()
    log = []
    adversary = LinkAdversary(sim.adversary_rng(), loss_rate=config["loss"],
                              duplicate_rate=config["dup"])
    start, length, factor = config["spike"]
    adversary.add_delay_spike(start, start + length, factor)
    part_start, part_length = config["partition"]
    adversary.add_partition("cut", [set(range(1, NODES // 2 + 1))],
                            start=part_start,
                            heal_time=part_start + part_length)
    sim.install_adversary(adversary)
    for i in range(NODES):
        sim.add_node(_Logger(i + 1, log))
    for k in range(config["injected"]):
        sim.inject_message(k % NODES + 1, "Ping", {"sender": 0, "node": 40 + k},
                           delay=0.03 * k)
    call_time, call_factor = config["late_spike"]

    def _late_spike():
        log.append((sim.now, "callback"))
        adversary.add_delay_spike(call_time, call_time + 3.0, call_factor)

    sim.call_at(call_time, _late_spike)
    sim.crash_node(NODES, at=config["crash_at"])
    views = []
    for stop in CHECKPOINTS:
        sim.run_until_time(stop, max_steps=10 ** 9 if stepwise else None)
        network = sim.network
        # Backlog iteration order is arbitrary by contract: compare multisets.
        views.append((
            network.in_flight(),
            sorted(network.implicit_edges()),
            sorted((m.action, m.sender, m.dest, m.send_time, m.deliver_time,
                    m.corrupted) for m in network.channel_of(3)),
        ))
    stats = sim.network.stats
    latency = stats.delivery_latency
    return {
        "log": log,
        "summary": stats.to_summary_dict(),
        "latency": None if latency is None else latency.to_dict(),
        "views": views,
        "steps": sim.steps_executed,
        "now": sim.now,
    }


_configs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=10 ** 6),
    "loss": st.sampled_from([0.0, 0.05, 0.2]),
    "dup": st.sampled_from([0.0, 0.1, 0.3]),
    # (start, length, factor): may start in the future, may shorten delays
    "spike": st.tuples(st.floats(min_value=0.0, max_value=8.0),
                       st.floats(min_value=0.5, max_value=6.0),
                       st.floats(min_value=0.05, max_value=8.0)),
    "late_spike": st.tuples(st.floats(min_value=1.0, max_value=12.0),
                            st.floats(min_value=0.05, max_value=8.0)),
    # starts while messages are in flight, heals before the run ends
    "partition": st.tuples(st.floats(min_value=0.5, max_value=8.0),
                           st.floats(min_value=0.5, max_value=6.0)),
    "injected": st.integers(min_value=0, max_value=6),
    "crash_at": st.floats(min_value=1.0, max_value=15.0),
})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_configs)
def test_block_drain_matches_step_reference(config):
    for scheduler in SCHEDULERS:
        for telemetry in (False, True):
            drained = _run(config, scheduler, telemetry, stepwise=False)
            stepped = _run(config, scheduler, telemetry, stepwise=True)
            assert drained == stepped, (scheduler, telemetry)
            assert (drained["latency"] is not None) == telemetry


def test_schedulers_agree_under_adversary():
    config = {"seed": 17, "loss": 0.1, "dup": 0.3, "spike": (1.0, 4.0, 0.2),
              "late_spike": (6.5, 0.5), "partition": (3.0, 5.0),
              "injected": 4, "crash_at": 9.0}
    runs = [_run(config, scheduler, True, stepwise=False)
            for scheduler in SCHEDULERS]
    assert runs[0] == runs[1] == runs[2]
    summary = runs[0]["summary"]
    assert summary["duplicated"] > 0
    assert summary["drops_by_reason"]["partition"] > 0
    assert any(view[0] for view in runs[0]["views"])


def test_window_honours_a_shrinking_spike():
    """Factor 0.05 cuts delays to [0.005, 0.05] — far inside the
    ``min_delay`` window of 0.1.  A window that ignored spikes would drain
    in-window sends after later events of the same block."""
    config = {"seed": 3, "loss": 0.0, "dup": 0.0, "spike": (0.0, 20.0, 0.05),
              "late_spike": (12.0, 1.0), "partition": (30.0, 1.0),
              "injected": 0, "crash_at": 19.0}
    for scheduler in SCHEDULERS:
        drained = _run(config, scheduler, False, stepwise=False)
        stepped = _run(config, scheduler, False, stepwise=True)
        assert drained["log"] == stepped["log"], scheduler
        assert drained == stepped, scheduler
        times = [entry[0] for entry in drained["log"]]
        assert times == sorted(times)  # the clock never ran backward
