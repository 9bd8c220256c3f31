"""Protocol benchmark: join-burst, corrupt-recover, steady-churn.

join-burst and steady-churn are the workloads of record (BENCHMARK.json).
corrupt-recover runs the same way but is not gated: the program does not yet
keep its topics legitimate after an adversarial start (README.md, "Known
defect"), and the run reports that as failed operations.

Run one workload (the form the benchmark contract uses)::

    python3 perfbench/run.py --workload join-burst --seed 1 --seconds 50 --trace 0

or all three, each in a fresh interpreter, with a readable table::

    python3 perfbench/run.py --workload all --seed 1 --seconds 50

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see README.md in this directory).  The exit code is 0 when a
result was printed, even if the result reports failures; it is 2 when the
program under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: after each iteration the workload is set up again, for at least
#: SETUP_SECONDS and at most MAX_SETUPS times, so that the samples of
#: ``setup_s`` spread over the whole run; a run takes at least MIN_SETUPS
MIN_SETUPS = 5
SETUP_SECONDS = 0.2
MAX_SETUPS = 20
#: the seed runs use by default, and the one held out to confirm claims
DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def _load_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'} not found)",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _signature(outcome) -> str:
    """Canonical form of everything that must repeat exactly for a seed."""
    return json.dumps({"sim": outcome.sim, "ops": outcome.ops,
                       "ops_failed": outcome.ops_failed,
                       "excluded": outcome.excluded}, sort_keys=True)


def _execute(workload, seed, tracer=None):
    """One set-up plus one timed phase; returns (setup_s, phase, outcome)."""
    from workloads import Phase

    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    t1 = time.perf_counter()
    if tracer is None:
        phase = Phase()
        phase.start()
        workload.run(state, phase)
        phase.stop()
    else:
        phase = Phase(on_pause=tracer.remove, on_resume=tracer.install)
        tracer.install()
        try:
            phase.start()
            workload.run(state, phase)
            phase.stop()
        finally:
            tracer.remove()
    outcome = workload.verify(state)
    del state
    gc.collect()
    return t1 - t0, phase, outcome


def _setups(workload, seed: int) -> list:
    """Set the workload up again, at least once and until SETUP_SECONDS of
    set-up time or MAX_SETUPS set-ups; returns the set-up times."""
    times = []
    while not times or (sum(times) < SETUP_SECONDS and len(times) < MAX_SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return times


def _another(done: int, elapsed: float, seconds: float) -> bool:
    """Whether one more iteration of the mean length so far fits in
    ``seconds``; the first always runs."""
    return done == 0 or elapsed + elapsed / done <= seconds


def _measure(workload, seed: int, seconds: float, traced: bool):
    """Warm up, then repeat the workload until ``seconds`` of measuring.

    Returns a dict with the per-iteration samples, the first outcome, the
    determinism mismatches found and, for a traced run, the tracer readings.
    """
    from layers import LayerTracer

    _execute(workload.scaled(), seed)  # warm-up: imports, caches, lazy set-up
    setups, runs, mismatches = [], [], []
    first = None
    start = time.perf_counter()

    def check(outcome, what):
        nonlocal first
        if first is None:
            first = outcome
        elif _signature(outcome) != _signature(first):
            mismatches.append(what)

    tracer = None
    traced_runs = []
    if traced:
        # One plain iteration gives run_s for the overhead ratio and the
        # reference the traced iterations must reproduce exactly.
        setup_s, phase, outcome = _execute(workload, seed)
        setups += [setup_s] + _setups(workload, seed)
        runs.append(phase)
        check(outcome, "plain vs traced")
        tracer = LayerTracer()
        start = time.perf_counter()
        while _another(len(traced_runs), time.perf_counter() - start, seconds):
            setup_s, phase, outcome = _execute(workload, seed, tracer)
            setups.append(setup_s)
            traced_runs.append(phase.timed_s)
            check(outcome, f"traced repeat {len(traced_runs)}")
    else:
        while _another(len(runs), time.perf_counter() - start, seconds):
            setup_s, phase, outcome = _execute(workload, seed)
            setups += [setup_s] + _setups(workload, seed)
            runs.append(phase)
            check(outcome, f"repeat {len(runs)}")
    while len(setups) < MIN_SETUPS:
        setups += _setups(workload, seed)
    return {"setups": setups, "runs": runs, "traced_runs": traced_runs,
            "outcome": first, "mismatches": mismatches, "tracer": tracer}


def end_to_end_metrics(m) -> dict:
    outcome = m["outcome"]
    sim = outcome.sim
    return {
        "setup_s": {"value": statistics.median(m["setups"]), "unit": "s"},
        "run_rel": {"value": statistics.median(p.relative for p in m["runs"]),
                    "unit": "ratio"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        "supervisor_msgs_per_round": {"value": sim["supervisor_msgs_per_round"],
                                      "unit": "msgs/round"},
        "msgs_per_node_round": {"value": sim["msgs_per_node_round"],
                                "unit": "msgs/node/round"},
    }


def informational_metrics(m) -> dict:
    """Every end-to-end quantity of the benchmark doc, ``None`` where the
    workload has no such phase (printed, not gated)."""
    outcome = m["outcome"]
    sim = outcome.sim
    return {
        # Minimum over iterations: the host's noise only ever slows one down.
        "run_s": (min(p.timed_s for p in m["runs"]), "s"),
        "ops_failed_ratio": (outcome.ops_failed / outcome.ops, "ratio"),
        "rounds_to_legit": (sim.get("rounds_to_legit"), "timeout periods"),
        "rounds_to_deliver": (sim.get("rounds_to_deliver"), "timeout periods"),
        "delivery_rounds_p50": (sim.get("delivery_rounds_p50"), "timeout periods"),
        "delivery_rounds_p95": (sim.get("delivery_rounds_p95"), "timeout periods"),
    }


def per_layer_metrics(m) -> dict:
    from layers import LAYERS

    tracer = m["tracer"]
    sim = m["outcome"].sim
    iterations = len(m["traced_runs"])
    wall = sum(m["traced_runs"])
    by_action = sim["sent_by_action"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = {"value": tracer.self_s[layer] / wall, "unit": "ratio"}
        out[f"{layer}.calls"] = {"value": tracer.calls[layer] // iterations,
                                 "unit": "count"}
    run_s = m["runs"][0].timed_s
    out.update({
        "sim.events": {"value": sim["events"], "unit": "count"},
        "sim.events_per_s": {"value": sim["events"] / run_s, "unit": "1/s"},
        "sim.msgs_delivered": {"value": sim["msgs_delivered"], "unit": "count"},
        "sim.msgs_dropped": {"value": sim["msgs_dropped"], "unit": "count"},
        "core.supervisor.msgs_in": {"value": sim["supervisor_requests"], "unit": "count"},
        "core.subscriber.msgs_out": {"value": sim["subscriber_msgs"], "unit": "count"},
        "pubsub.insert_new_ratio": {
            "value": tracer.inserts_new / tracer.inserts if tracer.inserts else 0.0,
            "unit": "ratio"},
        "pubsub.antientropy_useful_ratio": {
            "value": (by_action.get("Publish", 0) / by_action["CheckTrie"]
                      if by_action.get("CheckTrie") else 0.0),
            "unit": "ratio"},
        "trace.overhead_ratio": {"value": (wall / iterations) / run_s, "unit": "ratio"},
    })
    return dict(sorted(out.items()))


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    m = _measure(workload, seed, seconds, traced)
    outcome = m["outcome"]
    problems = list(outcome.problems)
    problems += [f"determinism mismatch: {what}" for what in m["mismatches"]]
    metrics = per_layer_metrics(m) if traced else end_to_end_metrics(m)
    for line in _describe(name, seed, m, metrics, problems):
        print(line)
    return {"correct": not problems, "attempted": outcome.ops,
            "failed": outcome.ops_failed, "metrics": metrics}


def _describe(name, seed, m, metrics, problems):
    outcome = m["outcome"]
    sim = outcome.sim
    yield (f"# {name} seed={seed}: {len(m['runs'])} plain + {len(m['traced_runs'])} "
           f"traced iterations, {sim['events']} events, {sim['rounds']:g} rounds")
    yield "# run_s per iteration: " + " ".join(f"{p.timed_s:.3f}" for p in m["runs"])
    yield "# run_rel per iteration: " + " ".join(f"{p.relative:.1f}" for p in m["runs"])
    if m["traced_runs"]:
        yield "# traced run_s per iteration: " + " ".join(f"{t:.3f}" for t in m["traced_runs"])
    for key, entry in metrics.items():
        yield f"{key:<36} {entry['value']:>14.6g} {entry['unit']}"
    if "run_rel" in metrics:
        for key, (value, unit) in informational_metrics(m).items():
            shown = "null" if value is None else f"{value:.6g}"
            yield f"{key:<36} {shown:>14} {unit}"
    else:
        shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_share"))
        yield f"{'(sum of self shares)':<36} {shares:>14.6g} ratio"
    yield f"ops={outcome.ops} failed={outcome.ops_failed} excluded={outcome.excluded}"
    for problem in problems:
        yield f"PROBLEM: {problem}"


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if traced else "0"],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["join-burst", "corrupt-recover", "steady-churn", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (held-out seed for confirming claims: "
                             f"{HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
