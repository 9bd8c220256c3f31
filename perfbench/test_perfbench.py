"""Tests of the protocol benchmark itself, on scaled-down workloads.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402

SCALED = {name: w.scaled() for name, w in workloads.WORKLOADS.items()}

#: the workload each layer is heaviest on (README.md prediction table)
HEAVY = {
    "sim": "steady-churn",
    "core.supervisor": "join-burst",
    "core.subscriber": "corrupt-recover",
    "core.labels": "join-burst",
    "pubsub": "corrupt-recover",
    "analysis": "join-burst",
    "scenarios": "steady-churn",
    "cluster": "steady-churn",
}


@pytest.mark.parametrize("name", sorted(SCALED))
def test_repeats_of_a_seed_are_identical(name):
    first = run._execute(SCALED[name], 3)[2]
    second = run._execute(SCALED[name], 3)[2]
    assert run._signature(first) == run._signature(second)
    assert first.ops_failed == 0 and not first.problems


@pytest.mark.parametrize("name", sorted(SCALED))
def test_traced_run_matches_plain_run(name):
    plain = run._execute(SCALED[name], 2)[2]
    tracer = LayerTracer()
    traced = run._execute(SCALED[name], 2, tracer)[2]
    assert run._signature(plain) == run._signature(traced)
    assert not tracer.installed


def test_chunked_driving_matches_unchunked():
    chunked = SCALED["steady-churn"]
    unchunked = dataclasses.replace(chunked, step_rounds=None)
    a = run._execute(chunked, 5)[2].sim["traffic"]
    b = run._execute(unchunked, 5)[2].sim["traffic"]
    assert a["events"] > 0
    assert a == b


@pytest.mark.parametrize("name", ["join-burst", "corrupt-recover"])
def test_chunked_driving_matches_the_public_drivers(name):
    chunked = SCALED[name]
    unchunked = dataclasses.replace(chunked, step_rounds=None)
    a = run._execute(chunked, 5)[2]
    b = run._execute(unchunked, 5)[2]
    assert a.sim["events"] > 0
    assert run._signature(a) == run._signature(b)


def test_phase_excludes_sampling_and_divides_by_the_reference_loop(monkeypatch):
    monkeypatch.setattr(workloads, "REFERENCE_INTERVAL_S", 2.0)
    monkeypatch.setattr(workloads, "reference_loop", iter([0.25, 2.0]).__next__)
    clock = iter([0.0, 0.0, 1.0, 3.0, 3.5, 3.5, 3.5, 5.5, 5.5])
    monkeypatch.setattr(workloads.time, "perf_counter", clock.__next__)
    phase = workloads.Phase()
    phase.start()            # t=0
    with phase.excluded():   # timed 0-1; 1 s since the last loop: none yet
        pass                 # excluded 1-3
    phase.mark()             # timed 3-3.5; loop takes 0.25 for the 1.5 s stretch
    assert phase.stop() == 3.5   # timed 3.5-5.5; loop takes 2.0 for it
    assert phase.relative == 1.5 / 0.25 + 2.0 / 2.0


def test_a_different_seed_gives_different_inputs():
    a = run._execute(SCALED["join-burst"], 1)[2]
    b = run._execute(SCALED["join-burst"], 2)[2]
    assert run._signature(a) != run._signature(b)


def test_corrupt_recover_fails_a_topic_not_legitimate_at_the_end(monkeypatch):
    workload = SCALED["corrupt-recover"]
    state = workload.setup(4)
    workload.run(state, workloads.Phase())
    assert workload.verify(state).ops_failed == 0
    # The oracle confirmed legitimacy inside run_until_legitimate; a topic
    # that is no longer legitimate when the budget ends still fails.
    system = state["instances"][0][0]
    monkeypatch.setattr(system, "is_legitimate", lambda topic=None: False)
    outcome = workload.verify(state)
    assert outcome.ops_failed >= 1
    assert any("not legitimate" in p for p in outcome.problems)


def test_only_a_crashed_publisher_excludes_its_publication():
    def node(crashed, has):
        return SimpleNamespace(crashed=crashed, has_publication=lambda key, topic: has)

    subscribers = {1: node(True, False), 2: node(False, False), 3: node(False, False)}
    system = SimpleNamespace(
        sim=SimpleNamespace(now=10.0, config=SimpleNamespace(timeout_period=1.0)),
        subscribers=subscribers, members=lambda topic: [3])
    streams = {"t": ({"crashed": 1, "left": 2}, {})}
    tracker = workloads._DeliveryTracker(system, streams)
    tracker.pending = {("t", "crashed"): 5.0, ("t", "left"): 5.0}
    assert tracker.lost_with_crashed_publisher() == {("t", "crashed")}
    assert not tracker.settled()


def _repro_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def test_tracer_rebinds_every_importer():
    tracer = LayerTracer()
    bindings = tracer.bindings()
    originals = {id(original): original for _ns, _name, original in bindings}
    tracer.install()
    try:
        for module in _repro_modules():
            for name, value in vars(module).items():
                assert originals.get(id(value)) is not value, (
                    f"{module.__name__}.{name} still holds the unwrapped function")
        # label/shortcut helpers are imported by name into these modules
        from repro.analysis import convergence
        from repro.core import shortcuts, skip_ring, subscriber, supervisor
        for module, name in [(supervisor, "r_value"), (supervisor, "index_of"),
                             (subscriber, "r_value"), (subscriber, "shortcut_labels"),
                             (shortcuts, "r_value"), (skip_ring, "labels_up_to"),
                             (convergence, "label_of"), (convergence, "index_of")]:
            assert hasattr(getattr(module, name), "__wrapped__"), (module, name)
    finally:
        tracer.remove()
    for namespace, name, original in bindings:
        assert vars(namespace)[name] is original, (namespace, name)


def test_renamed_function_fails_loudly(monkeypatch):
    monkeypatch.setitem(layers.LAYER_TARGETS, "analysis",
                        [("repro.analysis.convergence", None, ["no_such_oracle"])])
    with pytest.raises(AttributeError):
        LayerTracer()


@pytest.fixture
def scaled_registry(monkeypatch):
    for name, workload in SCALED.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)


def test_each_layer_records_calls_on_its_heavy_workload(scaled_registry, capsys):
    results = {name: run.run_one(name, seed=1, seconds=0, traced=True)
               for name in SCALED}
    capsys.readouterr()
    for layer, name in HEAVY.items():
        assert results[name]["metrics"][f"{layer}.calls"]["value"] > 0, (layer, name)
    # every layer is measured on a workload of record, not only on corrupt-recover
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for layer in LAYERS:
        assert any(results[w["name"]]["metrics"][f"{layer}.calls"]["value"] > 0
                   for w in spec["workloads"]), layer
    for name, result in results.items():
        shares = sum(v["value"] for k, v in result["metrics"].items()
                     if k.endswith(".self_share"))
        assert 0.8 < shares <= 1.0 + 1e-9, (name, shares)


def test_results_follow_benchmark_json(scaled_registry, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_one("steady-churn", seed=1, seconds=0, traced=traced)
        lines = capsys.readouterr().out.splitlines()
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for metric in result["metrics"].values():
            assert math.isfinite(metric["value"])
        assert lines, "a readable table precedes the JSON line"


def test_per_layer_names_cover_every_layer():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_share", f"{layer}.calls"} <= names


def test_missing_program_exits_nonzero(monkeypatch):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-src")
    with pytest.raises(SystemExit) as excinfo:
        run._load_program()
    assert excinfo.value.code != 0
