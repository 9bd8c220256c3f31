"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each layer and times every call
into them; nothing inside ``src/repro`` is changed.  A wrapped function is
rebound everywhere the program can reach it: in the class that defines it,
or under every name that any ``repro`` module bound it to (label helpers are
imported by name into several modules).  Building a :class:`LayerTracer`
fails loudly when a listed name no longer exists, so a rename cannot
silently read as zero calls.

Self time of a layer is the time spent in its spans minus the time of the
wrapped calls made from inside them (children of any layer).  The ``sim``
layer is the facade driver calls (``run_*``), so its self time is the
engine: scheduler, network and dispatch.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: layer -> (module, class or None, names) targets; a ``None`` names list
#: means every public function (or, for a class, every method defined in it
#: that is public or ``__init__``), and ``"handlers"`` means ``on_timeout``
#: and every ``on_<Action>`` message handler.
LAYER_TARGETS: Dict[str, List[Tuple[str, object, object]]] = {
    "sim": [
        ("repro.core.facade", "PubSubFacadeBase",
         ["run_rounds", "run_for", "run_until_legitimate",
          "run_until_publications_converged"]),
    ],
    "core.supervisor": [
        ("repro.core.supervisor", "Supervisor", "handlers"),
    ],
    "core.subscriber": [
        ("repro.core.subscriber", "Subscriber", "handlers"),
    ],
    "core.labels": [
        ("repro.core.labels", None, None),
        ("repro.core.shortcuts", None, None),
        ("repro.core.skip_ring", "SkipRingTopology", None),
    ],
    "pubsub": [
        ("repro.pubsub.patricia", "PatriciaTrie", None),
        ("repro.pubsub.antientropy", None, None),
        ("repro.pubsub.flooding", None, None),
    ],
    "analysis": [
        ("repro.analysis.convergence", None,
         ["ring_legitimate", "publications_converged"]),
    ],
    "scenarios": [
        ("repro.scenarios.adversary", "LinkAdversary", ["on_submit", "on_deliver"]),
    ],
    "cluster": [
        ("repro.cluster.sharded", "ShardedPubSub", ["supervisor_of"]),
        ("repro.cluster.sharding", "ConsistentHashRing", None),
        ("repro.cluster.sharding", None, None),
    ],
}

LAYERS = tuple(LAYER_TARGETS)

#: functions whose boolean result is counted as useful / attempted
_INSERT = ("repro.pubsub.patricia", "PatriciaTrie", "insert")


def _is_function(obj) -> bool:
    return isinstance(obj, type(_is_function))


def _module_functions(module) -> List[str]:
    """Public functions defined in ``module`` itself."""
    return sorted(name for name, obj in vars(module).items()
                  if not name.startswith("_") and _is_function(obj)
                  and obj.__module__ == module.__name__)


def _class_methods(cls, names) -> List[str]:
    if names == "handlers":
        return sorted(name for name in vars(cls)
                      if name == "on_timeout" or name.startswith("on_"))
    if names is not None:
        return list(names)
    return sorted(name for name, obj in vars(cls).items()
                  if (name == "__init__" or not name.startswith("_"))
                  and (_is_function(obj) or isinstance(obj, staticmethod)))


class LayerTracer:
    """Times calls into each layer's public functions while installed."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Counter = Counter()
        self.inserts = 0
        self.inserts_new = 0
        self._stack: List[float] = []
        self._plan = self._build_plan()
        self.installed = False

    # -------------------------------------------------------------- planning
    def _build_plan(self) -> List[Tuple[object, str, object, object]]:
        """(namespace, name, original, wrapper) for every rebinding."""
        plan = []
        function_wrappers: Dict[int, Tuple[object, object]] = {}
        for layer, targets in LAYER_TARGETS.items():
            for module_name, class_name, names in targets:
                module = importlib.import_module(module_name)
                if class_name is None:
                    wanted = names if names is not None else _module_functions(module)
                    for name in wanted:
                        original = getattr(module, name)  # AttributeError: renamed
                        if not _is_function(original):
                            raise TypeError(f"{module_name}.{name} is not a function")
                        function_wrappers[id(original)] = (
                            original, self._wrap(layer, original))
                    continue
                cls = getattr(module, class_name)
                for name in _class_methods(cls, names):
                    if name not in vars(cls):
                        raise AttributeError(f"{class_name}.{name} is not defined "
                                             f"in {module_name}")
                    raw = vars(cls)[name]
                    if isinstance(raw, staticmethod):
                        wrapper = staticmethod(self._wrap(layer, raw.__func__))
                    elif (module_name, class_name, name) == _INSERT:
                        wrapper = self._wrap_insert(layer, raw)
                    else:
                        wrapper = self._wrap(layer, raw)
                    plan.append((cls, name, raw, wrapper))
        # A module-level function is rebound under every name any repro
        # module holds it by (``from repro.core.labels import r_value``).
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                entry = function_wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    plan.append((module, name, value, entry[1]))
        return plan

    def bindings(self) -> List[Tuple[object, str, object]]:
        """(namespace, name, original) of every rebinding the tracer makes."""
        return [(namespace, name, original) for namespace, name, original, _ in self._plan]

    # -------------------------------------------------------------- wrappers
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[layer] += 1

        return wrapper

    def _wrap_insert(self, layer: str, fn: Callable) -> Callable:
        timed = self._wrap(layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            added = timed(*args, **kwargs)
            self.inserts += 1
            self.inserts_new += bool(added)
            return added

        return wrapper

    # -------------------------------------------------------- install/remove
    def _recompile_handlers(self) -> None:
        from repro.core.subscriber import Subscriber
        from repro.core.supervisor import Supervisor
        for cls in (Subscriber, Supervisor):
            cls._compile_action_handlers()

    def install(self) -> None:
        for namespace, name, _original, wrapper in self._plan:
            setattr(namespace, name, wrapper)
        self._recompile_handlers()
        self.installed = True

    def remove(self) -> None:
        for namespace, name, original, _wrapper in self._plan:
            setattr(namespace, name, original)
        self._recompile_handlers()
        self.installed = False
