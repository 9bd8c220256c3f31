"""The three workloads of the protocol benchmark.

Each workload drives the system only through its public API
(``repro.api``, ``repro.workloads``, ``repro.scenarios.adversary`` and the
facades) and has three parts:

* ``setup(seed)`` builds the initial state (timed as ``setup_s``);
* ``run(state, phase)`` is the timed phase (``run_s``); work that only the
  benchmark needs, such as delivery sampling, runs inside
  ``phase.excluded()`` so that it is not counted;
* ``verify(state)`` checks the result with the ``repro.analysis`` oracle and
  returns an :class:`Outcome` whose ``sim`` part is the run's deterministic
  signature: it must repeat exactly for a seed.

Sizes are class attributes so that tests can build scaled-down copies.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.convergence import count_correct_labels
from repro.api import SystemSpec, build_stable, build_system
from repro.core.config import DEFAULT_CHECK_EVERY_ROUNDS
from repro.core.messages import SUPERVISOR_REQUEST_ACTIONS
from repro.scenarios.adversary import LinkAdversary
from repro.workloads import (
    AdversarialConfig,
    apply_churn,
    build_adversarial_system,
    generate_churn,
    generate_payloads,
    publish_stream,
    scatter_publications,
)


#: wall time between two samples of the reference loop in a timed phase
REFERENCE_INTERVAL_S = 0.1


def reference_loop() -> float:
    """Wall time of a fixed piece of pure-Python work (dict, list, str and
    sort operations; about 2 ms on the 2-vCPU VM this was built on).  Timed
    alongside a workload, it tells how fast the host runs the interpreter at
    that moment."""
    t0 = time.perf_counter()
    table = {}
    for i in range(3000):
        table[(i * 7919) % 3001] = [i, str(i)]
    sorted(table.items())
    return time.perf_counter() - t0


class Phase:
    """Host-time accounting of one timed phase.

    ``excluded()`` brackets benchmark-only work (sampling); its wall time is
    not counted in ``timed_s``.  ``mark()`` is an empty excluded block at a
    driving step.  At these points, at most every REFERENCE_INTERVAL_S, and
    at the end, the phase times :func:`reference_loop` and adds the timed
    stretch since the previous one, divided by the loop's time, to
    ``relative``: the phase's host time in units of the host's speed at
    that moment.  The optional ``on_pause``/``on_resume`` callbacks let a
    tracer step aside while an excluded block runs.
    """

    def __init__(self, on_pause=None, on_resume=None) -> None:
        self.timed_s = 0.0
        self.relative = 0.0
        self._stretch = 0.0
        self._on_pause = on_pause
        self._on_resume = on_resume
        self._t0 = self._last_reference = time.perf_counter()

    def start(self) -> None:
        self._t0 = self._last_reference = time.perf_counter()

    def mark(self) -> None:
        with self.excluded():
            pass

    def stop(self) -> float:
        """End the phase; returns its timed wall time."""
        self._count(time.perf_counter())
        self._reference()
        return self.timed_s

    def _count(self, now: float) -> None:
        self.timed_s += now - self._t0
        self._stretch += now - self._t0

    def _reference(self) -> None:
        self.relative += self._stretch / reference_loop()
        self._stretch = 0.0
        self._last_reference = time.perf_counter()

    @contextlib.contextmanager
    def excluded(self) -> Iterator[None]:
        now = time.perf_counter()
        self._count(now)
        if self._on_pause is not None:
            self._on_pause()
        if now - self._last_reference >= REFERENCE_INTERVAL_S:
            self._reference()
        try:
            yield
        finally:
            if self._on_resume is not None:
                self._on_resume()
            self._t0 = time.perf_counter()


@dataclass
class Outcome:
    """What one execution of a workload produced."""

    #: deterministic simulated quantities; identical for every repeat of a seed
    sim: Dict[str, object]
    #: operations attempted and not completed when the round budget ended
    ops: int
    ops_failed: int
    #: steady-churn publications lost with their crashed publisher (not operations)
    excluded: int = 0
    problems: List[str] = field(default_factory=list)


class _Baseline:
    """Message statistics and engine clock at the start of a timed phase."""

    def __init__(self, system) -> None:
        self.stats = system.snapshot_message_stats()
        self.now = system.sim.now
        self.steps = system.sim.steps_executed

    def delta(self, system) -> Dict[str, object]:
        """Simulated counts of the phase since this baseline."""
        stats = system.message_stats().delta(self.stats)
        rounds = (system.sim.now - self.now) / system.sim.config.timeout_period
        supervisors = system.supervisor_node_ids()
        live = sum(1 for s in system.subscribers.values() if not s.crashed)
        return {
            "rounds": rounds,
            "events": system.sim.steps_executed - self.steps,
            "msgs_sent": stats.total_sent,
            "msgs_delivered": stats.total_delivered,
            "msgs_dropped": stats.total_dropped,
            "sent_by_action": dict(stats.sent_by_action),
            "subscriber_msgs": sum(count for node, count in stats.sent_by_node.items()
                                   if node not in supervisors),
            "supervisor_requests": sum(stats.received_by(node, action)
                                       for node in supervisors
                                       for action in SUPERVISOR_REQUEST_ACTIONS),
            # live subscribers at the end times rounds: the per-node denominator
            "node_rounds": live * rounds,
        }


def _combine(deltas: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum phase deltas of several systems and derive the per-round rates."""
    total: Dict[str, object] = {}
    by_action: Dict[str, int] = {}
    for delta in deltas:
        for key, value in delta.items():
            if key == "sent_by_action":
                for action, count in value.items():
                    by_action[action] = by_action.get(action, 0) + count
            else:
                total[key] = total.get(key, 0) + value
    total["sent_by_action"] = dict(sorted(by_action.items()))
    total["supervisor_msgs_per_round"] = total["supervisor_requests"] / total["rounds"]
    total["msgs_per_node_round"] = total["subscriber_msgs"] / total["node_rounds"]
    return total


def _unrepaired(system) -> int:
    """Members of the default topic not holding their database label (at
    least 1 while the topic is not legitimate)."""
    if system.is_legitimate():
        return 0
    topic = system.params.default_topic
    members = system.members(topic)
    correct = count_correct_labels(system.supervisor_of(topic), system.subscribers,
                                   members, topic)
    return max(1, len(members) - correct)


def _step_until(system, predicate, phase: Phase, step: float, budget_rounds: int,
                check_every_rounds: int = DEFAULT_CHECK_EVERY_ROUNDS,
                sample=None) -> bool:
    """Drive ``system`` in ``step``-round stretches until ``predicate()``
    holds; returns whether it did within ``budget_rounds``.

    ``predicate`` is checked at the start and every ``check_every_rounds``,
    as the facade's ``run_until_*`` drivers check it, so the events, messages
    and oracle calls are those of the public driver.  Each step ends at a
    phase boundary, where the reference loop may be timed; ``sample`` runs
    there, outside the timing.
    """
    period = system.sim.config.timeout_period
    steps_per_check = round(check_every_rounds / step)
    budget_steps = round(budget_rounds / step)
    for index in range(budget_steps + 1):
        if index % steps_per_check == 0 and predicate():
            return True
        if index == budget_steps:
            break
        system.run_for(step * period)
        if sample is None:
            phase.mark()
        else:
            with phase.excluded():
                sample()
    return False


def _missing(system, keys: Set[str]) -> int:
    """Keys of ``keys`` that some live member of the default topic lacks."""
    members = [system.subscribers[m] for m in system.members()]
    return sum(1 for key in keys if not all(s.has_publication(key) for s in members))


# --------------------------------------------------------------- join-burst
@dataclass(frozen=True)
class JoinBurst:
    """N peers subscribe at once into an empty single-supervisor system."""

    name: str = "join-burst"
    n: int = 384
    maintenance_rounds: int = 20
    budget_rounds: int = 200
    #: driving step in rounds; ``None`` drives with one run_until_legitimate
    #: and one run_rounds call
    step_rounds: Optional[float] = 0.25

    def scaled(self) -> "JoinBurst":
        return replace(self, n=48, maintenance_rounds=5)

    def setup(self, seed: int):
        system = build_system(SystemSpec(seed=seed))
        peers = [system.add_peer() for _ in range(self.n)]
        return {"system": system, "peers": peers}

    def run(self, state, phase: Phase) -> None:
        system = state["system"]
        with phase.excluded():
            base = _Baseline(system)
        for peer in state["peers"]:
            system.subscribe(peer)
        if self.step_rounds is None:
            system.run_until_legitimate(max_rounds=self.budget_rounds)
        else:
            _step_until(system, system.is_legitimate, phase, self.step_rounds,
                        self.budget_rounds)
        with phase.excluded():
            state["rounds_to_legit"] = ((system.sim.now - base.now)
                                        / system.sim.config.timeout_period)
        if self.step_rounds is None:
            system.run_rounds(self.maintenance_rounds)
        else:
            for _ in range(round(self.maintenance_rounds / self.step_rounds)):
                system.run_for(self.step_rounds * system.sim.config.timeout_period)
                phase.mark()
        with phase.excluded():
            state["timed"] = base.delta(system)

    def verify(self, state) -> Outcome:
        system = state["system"]
        sim = _combine([state["timed"]])
        sim["rounds_to_legit"] = state["rounds_to_legit"]
        failed = _unrepaired(system)
        problems = [] if failed == 0 else [f"topic not legitimate: {failed} unplaced"]
        return Outcome(sim=sim, ops=self.n, ops_failed=failed, problems=problems)


# ---------------------------------------------------------- corrupt-recover
@dataclass(frozen=True)
class CorruptRecover:
    """Recovery from the adversarial start with scattered publications.

    One run recovers ``instances`` independent systems, seeded
    ``seed * instances + j``: the recovery time of a single adversarial
    state varies too much between seeds for one to be a steady measure.
    """

    name: str = "corrupt-recover"
    n: int = 32
    instances: int = 6
    components: int = 2
    publications_per_member: int = 4
    budget_rounds: int = 600
    #: driving step in rounds; ``None`` drives with one run_until_legitimate
    #: and one run_until_publications_converged call per system
    step_rounds: Optional[float] = 0.25

    def scaled(self) -> "CorruptRecover":
        return replace(self, n=12, instances=2)

    def setup(self, seed: int):
        instances = []
        for j in range(self.instances):
            sub_seed = seed * self.instances + j
            config = AdversarialConfig(n=self.n, seed=sub_seed, database_mode="corrupted",
                                       components=self.components,
                                       corrupted_messages=self.n)
            system, subscribers = build_adversarial_system(config)
            keys = scatter_publications(system, subscribers,
                                        self.publications_per_member * self.n,
                                        seed=sub_seed)
            instances.append((system, keys))
        return {"instances": instances}

    def run(self, state, phase: Phase) -> None:
        state["results"] = results = []
        for system, keys in state["instances"]:
            with phase.excluded():
                base = _Baseline(system)
            period = system.sim.config.timeout_period
            if self.step_rounds is None:
                system.run_until_legitimate(max_rounds=self.budget_rounds)
            else:
                _step_until(system, system.is_legitimate, phase, self.step_rounds,
                            self.budget_rounds)
            with phase.excluded():
                rounds_to_legit = (system.sim.now - base.now) / period
            if self.step_rounds is None:
                system.run_until_publications_converged(expected_keys=keys,
                                                        max_rounds=self.budget_rounds)
            else:
                _step_until(system,
                            lambda: system.publications_converged(expected_keys=keys),
                            phase, self.step_rounds, self.budget_rounds)
            with phase.excluded():
                results.append({"rounds_to_legit": rounds_to_legit,
                                "rounds_to_deliver": (system.sim.now - base.now) / period,
                                "timed": base.delta(system)})

    def verify(self, state) -> Outcome:
        results = state["results"]
        sim = _combine([r["timed"] for r in results])
        sim["rounds_to_legit"] = statistics.median(r["rounds_to_legit"] for r in results)
        sim["rounds_to_deliver"] = statistics.median(r["rounds_to_deliver"]
                                                     for r in results)
        unrepaired = missing = 0
        for system, keys in state["instances"]:
            # Checked when the budget ends, not at the oracle's first
            # confirmation inside run_until_legitimate: the topic must still
            # be legitimate after the publications converged.
            unrepaired += _unrepaired(system)
            missing += _missing(system, keys)
        problems = []
        if unrepaired:
            problems.append(f"topic not legitimate: {unrepaired} members unrepaired")
        if missing:
            problems.append(f"{missing} scattered publications not everywhere")
        ops = self.instances * self.n * (1 + self.publications_per_member)
        return Outcome(sim=sim, ops=ops, ops_failed=unrepaired + missing,
                       problems=problems)


# ------------------------------------------------------------- steady-churn
@dataclass(frozen=True)
class SteadyChurn:
    """Publications and churn on a legitimate sharded cluster under loss."""

    name: str = "steady-churn"
    shards: int = 4
    topics: int = 8
    per_topic: int = 32
    rounds: int = 80
    loss_rate: float = 0.02
    #: publications per topic, one every ``rounds / publications`` rounds
    publications: int = 40
    #: expected churn events per topic per round
    join_rate: float = 0.05
    leave_rate: float = 0.05
    crash_rate: float = 0.025
    #: sub-round driving step; ``None`` drives the traffic phase in one call
    step_rounds: Optional[float] = 0.25
    #: timed rounds after the traffic; legitimacy is checked at the public
    #: drivers' cadence while draining
    drain_rounds: int = 40
    check_every_rounds: int = DEFAULT_CHECK_EVERY_ROUNDS
    budget_rounds: int = 400

    def scaled(self) -> "SteadyChurn":
        return replace(self, topics=2, per_topic=8, rounds=20, publications=5)

    def topic_names(self) -> List[str]:
        return [f"topic-{i}" for i in range(self.topics)]

    def setup(self, seed: int):
        spec = SystemSpec(topology="sharded", shards=self.shards, seed=seed)
        system, subscribers = build_stable(spec, topics=self.topic_names(),
                                           subscribers_per_topic=self.per_topic)
        return {"system": system, "subscribers": subscribers, "seed": seed}

    def run(self, state, phase: Phase) -> None:
        system = state["system"]
        sim = system.sim
        period = sim.config.timeout_period
        with phase.excluded():
            base = _Baseline(system)
        sim.install_adversary(LinkAdversary(sim.adversary_rng(), loss_rate=self.loss_rate))
        spacing = self.rounds / self.publications
        streams = {}
        churn = {"join": 0, "leave": 0, "crash": 0}
        churn_ops = {}
        for i, topic in enumerate(self.topic_names()):
            topic_seed = state["seed"] * 1000 + i
            members = [s for s in state["subscribers"]
                       if s.view(topic, create=False) is not None]
            published = publish_stream(system, members, self.publications,
                                       seed=topic_seed, topic=topic,
                                       spacing_rounds=spacing)
            payloads = generate_payloads(self.publications, seed=topic_seed,
                                         prefix="stream")
            # publish_stream fires payload i at (i + 1) * spacing rounds
            due = {p: base.now + (j + 1) * spacing * period
                   for j, p in enumerate(payloads)}
            streams[topic] = (published, due)
            schedule = generate_churn(self.rounds * period, self.join_rate,
                                      self.leave_rate, self.crash_rate, seed=topic_seed)
            counts = schedule.counts()
            for kind, count in counts.items():
                churn[kind] += count
            churn_ops[topic] = counts["join"] + counts["leave"]
            apply_churn(system, schedule, topic=topic, seed=topic_seed)
        state["churn"] = churn
        state["churn_ops"] = churn_ops
        tracker = _DeliveryTracker(system, streams)
        state["tracker"] = tracker

        if self.step_rounds is None:
            system.run_rounds(self.rounds)
        else:
            for _ in range(round(self.rounds / self.step_rounds)):
                system.run_for(self.step_rounds * period)
                with phase.excluded():
                    tracker.sample()
        with phase.excluded():
            state["traffic"] = base.delta(system)
        traffic_end = sim.now
        sim.network.adversary.quiesce(traffic_end)

        # Drain (timed): a window of ``drain_rounds`` after the traffic, the
        # same simulated span on every seed.  Legitimacy is checked at the
        # public drivers' cadence until it is found.
        step = self.step_rounds or 1.0

        def all_legitimate() -> bool:
            return all(system.is_legitimate(t) for t in self.topic_names())

        legit = _step_until(system, all_legitimate, phase, step, self.drain_rounds,
                            self.check_every_rounds, sample=tracker.sample)
        legit_at = sim.now if legit else None
        window_end = traffic_end + self.drain_rounds * period
        for _ in range(round((window_end - sim.now) / (step * period))):
            system.run_for(step * period)
            with phase.excluded():
                tracker.sample()
        with phase.excluded():
            state["timed"] = base.delta(system)
        # Past the window (not timed): a topic not yet legitimate gets the
        # rest of the round budget, and the anti-entropy tail that brings the
        # last publications to the last members, heavy-tailed across seeds,
        # is stepped through and reported as rounds_to_deliver.
        with phase.excluded():
            if not legit and _step_until(system, all_legitimate, Phase(), step,
                                         self.budget_rounds - self.drain_rounds,
                                         self.check_every_rounds, sample=tracker.sample):
                legit_at = sim.now
            for _ in range(round(self.budget_rounds / step)):
                tracker.sample()
                if tracker.settled():
                    break
                system.run_for(step * period)
        state["rounds_to_legit"] = (None if legit_at is None
                                    else (legit_at - traffic_end) / period)
        state["rounds_to_deliver"] = (max(tracker.last_delivery or traffic_end, traffic_end)
                                      - traffic_end) / period

    def verify(self, state) -> Outcome:
        system = state["system"]
        tracker: _DeliveryTracker = state["tracker"]
        sim = _combine([state["timed"]])
        sim["traffic"] = state["traffic"]
        sim["rounds_to_legit"] = state["rounds_to_legit"]
        sim["rounds_to_deliver"] = state["rounds_to_deliver"]
        delays = sorted(tracker.delays.values())
        sim["deliveries"] = len(delays)
        if delays:
            percentiles = statistics.quantiles(delays, n=100, method="inclusive")
            sim["delivery_rounds_p50"] = statistics.median(delays)
            sim["delivery_rounds_p95"] = percentiles[94]
        sim["churn"] = state["churn"]
        lost = tracker.lost_with_crashed_publisher()
        undelivered = tracker.undelivered() - lost
        problems = []
        failed = len(undelivered)
        if undelivered:
            problems.append(f"{len(undelivered)} publications not delivered")
        for topic in self.topic_names():
            if not system.is_legitimate(topic):
                failed += state["churn_ops"][topic]
                problems.append(f"{topic} not legitimate")
        ops = tracker.published() - len(lost) + state["churn"]["join"] + state["churn"]["leave"]
        return Outcome(sim=sim, ops=ops, ops_failed=failed, excluded=len(lost),
                       problems=problems)


class _DeliveryTracker:
    """Samples, between driving steps, when each stream publication has
    reached every live member of its topic."""

    def __init__(self, system, streams) -> None:
        self.system = system
        self.streams = streams
        self.period = system.sim.config.timeout_period
        #: (topic, key) -> publish time, for publications not yet everywhere
        self.pending: Dict[Tuple[str, str], float] = {}
        self.seen: Set[Tuple[str, str]] = set()
        #: (topic, key) -> rounds from publish to the last live member storing it
        self.delays: Dict[Tuple[str, str], float] = {}
        #: simulated time of the sample that found the last publication everywhere
        self.last_delivery: Optional[float] = None

    def _publication(self, topic: str, key: str):
        publisher = self.system.subscribers[self.streams[topic][0][key]]
        return publisher.view(topic, create=False).trie.get(key)

    def sample(self) -> None:
        system = self.system
        now = system.sim.now
        for topic, (published, due) in self.streams.items():
            for key in published:
                if (topic, key) not in self.seen:
                    self.seen.add((topic, key))
                    self.pending[(topic, key)] = due[self._publication(topic, key).payload]
        by_topic: Dict[str, list] = {}
        for (topic, key), at in list(self.pending.items()):
            members = by_topic.get(topic)
            if members is None:
                members = by_topic[topic] = [system.subscribers[m]
                                             for m in system.members(topic)]
            if all(s.has_publication(key, topic) for s in members):
                del self.pending[(topic, key)]
                self.delays[(topic, key)] = (now - at) / self.period
                self.last_delivery = now

    def published(self) -> int:
        return len(self.seen)

    def undelivered(self) -> Set[Tuple[str, str]]:
        return set(self.pending)

    def lost_with_crashed_publisher(self) -> Set[Tuple[str, str]]:
        """Pending publications whose publisher crashed and that no live
        member stores, two rounds (twice the maximum delay) after they were
        published: the publisher took them along.  A publisher that left
        gracefully is not excluded; what it loses counts as undelivered."""
        system = self.system
        now = system.sim.now
        lost = set()
        for (topic, key), at in self.pending.items():
            publisher = system.subscribers[self.streams[topic][0][key]]
            members = system.members(topic)
            if (now - at >= 2 * self.period and publisher.crashed
                    and not any(system.subscribers[m].has_publication(key, topic)
                                for m in members)):
                lost.add((topic, key))
        return lost

    def settled(self) -> bool:
        return len(self.pending) == len(self.lost_with_crashed_publisher())


WORKLOADS = {w.name: w for w in (JoinBurst(), CorruptRecover(), SteadyChurn())}
