"""Columnar node-state arena: flat buffers behind the object facade.

BENCH_5 showed the block-drain engine (PR 6) cache-bound past ~20k nodes:
per-event cost tripled between 2k and 50k nodes because the hot loop chased
pointers through per-node Python objects and one channel dict per
destination.  The arena is the memory-layout answer: node identifiers are
interned to dense integer indices at registration time, and the hot per-node
simulator state lives in flat parallel buffers —

* ``nodes``        — dense ``node_id -> ProtocolNode`` list (one pointer
                     array instead of a hash table; the engine's delivery and
                     timeout branches index it directly),
* ``timeout_count``— ``array('q')`` int64 column, the authoritative store
                     behind :attr:`ProtocolNode.timeout_count` (the object
                     attribute is a thin property view over this buffer),
* ``crashed``      — one byte per node (vectorizable liveness column,
                     mirrored from the object flags by the crash path).

The arena only accelerates **dense** ids: non-negative ints within a growth
cap (every id the facades allocate — supervisors from 0, subscribers from 1).
Ids outside that window (negative, huge, non-int — e.g. corrupted refs a
fuzz scenario forges) take the classic dict path: :meth:`add` leaves their
``_arena_index`` at ``-1``, the engine's dense lookups miss and fall back to
``Simulator.nodes``, and their timeout counter lives in the node's private
slot.  Correctness never depends on density; only the constant factor does.

Buffers are grown strictly **in place** (``list.append`` /
``array.extend``): the engine's fused loops capture ``nodes`` and
``timeout_count`` once per drain, so rebinding either would silently split
the state.  :meth:`rebuild` re-derives every column from the attached
simulator's live objects (used after cluster rebalancing and by the
equivalence tests) and is the one operation allowed to reset buffers — it
must never run concurrently with a drain.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.node import NodeRef, ProtocolNode

#: Ids below this always get a dense slot (covers every normal facade run
#: without any ratio test).
_DENSE_FLOOR = 1024
#: Above the floor, an id only gets a dense slot while the buffers stay
#: within this factor of the registered-node count (guards against a single
#: forged id of 10**9 ballooning the arrays).
_DENSE_GROWTH = 4


class NodeArena:
    """Interned node identifiers + flat hot-state columns.

    One arena per :class:`~repro.sim.engine.Simulator`; the simulator
    registers every node through :meth:`add` and mirrors crashes through
    :meth:`mark_crashed`.  All columns are indexed by **node id** (identity
    interning — the dense case needs no id→slot hash on the hot path);
    sparse ids are tracked in :attr:`extra` and excluded from the columns.
    """

    __slots__ = ("nodes", "timeout_count", "crashed", "extra", "_sim",
                 "count")

    def __init__(self) -> None:
        #: dense node_id -> node (None-padded); the engine hot loops index it
        self.nodes: List[Optional["ProtocolNode"]] = []
        #: int64 Timeout-firing counters, index-aligned with :attr:`nodes`
        self.timeout_count = array("q")
        #: liveness column: 1 = crashed, index-aligned with :attr:`nodes`
        self.crashed = bytearray()
        #: sparse-id nodes excluded from the columns (fallback dict)
        self.extra: Dict["NodeRef", "ProtocolNode"] = {}
        #: registered node count (dense + sparse)
        self.count = 0
        self._sim: Optional["Simulator"] = None

    def attach(self, sim: "Simulator") -> None:
        self._sim = sim

    # ------------------------------------------------------------ node columns
    def _dense_eligible(self, node_id: object) -> bool:
        if type(node_id) is not int or node_id < 0:
            return False
        if node_id < _DENSE_FLOOR:
            return True
        return node_id < _DENSE_GROWTH * (self.count + 1) + _DENSE_FLOOR

    def add(self, node: "ProtocolNode") -> None:
        """Register ``node``, interning its id and assigning its column row.

        Dense ids become their own index (identity interning: the engine
        needs no id→slot lookup); the buffers are padded in place up to the
        id.  Sparse ids keep ``_arena_index = -1`` and live in :attr:`extra`
        — every consumer falls back to the object attributes for them.
        """
        node_id = node.node_id
        self.count += 1
        if not self._dense_eligible(node_id):
            node._arena = self
            node._arena_index = -1
            self.extra[node_id] = node
            return
        nodes = self.nodes
        if node_id >= len(nodes):
            # In-place growth only: the engine captures these buffers once
            # per drain (see the module docstring).  Geometric (doubling)
            # growth amortises the 50k-node registration loop to O(log n)
            # extend calls; the over-allocation is None/zero padding that
            # every consumer already skips.
            grow = max(node_id + 1, 2 * len(nodes)) - len(nodes)
            nodes.extend([None] * grow)
            # frombytes, not extend: extend(bytes) appends one item per BYTE
            self.timeout_count.frombytes(bytes(8 * grow))
            self.crashed.extend(bytes(grow))
        nodes[node_id] = node
        self.timeout_count[node_id] = node._timeout_count
        self.crashed[node_id] = 1 if node.crashed else 0
        node._arena = self
        node._arena_index = node_id

    def get(self, node_id: "NodeRef") -> Optional["ProtocolNode"]:
        """Node for ``node_id`` (dense or sparse), or ``None``."""
        if type(node_id) is int and 0 <= node_id < len(self.nodes):
            node = self.nodes[node_id]
            if node is not None:
                return node
        return self.extra.get(node_id)

    def mark_crashed(self, node_id: "NodeRef") -> None:
        """Mirror a crash into the liveness column (idempotent)."""
        if type(node_id) is int and 0 <= node_id < len(self.crashed):
            self.crashed[node_id] = 1

    def live_count(self) -> int:
        """Number of registered, non-crashed nodes (column-level count)."""
        dense = sum(1 for node in self.nodes if node is not None)
        dense -= sum(self.crashed)
        return dense + sum(1 for node in self.extra.values()
                           if not node.crashed)

    # ------------------------------------------------------------- lifecycle
    def rebuild(self) -> None:
        """Re-derive every column from the attached simulator's live nodes.

        The recovery path for states the incremental mirrors cannot see —
        cluster rebalancing that crashed a supervisor through a side door, a
        test that flipped ``node.crashed`` directly — and the reference
        implementation the equivalence tests compare the mirrors against.
        Buffers are reset in place (cleared, then regrown), so engine
        closures bound between drains stay valid; never call mid-drain.
        """
        sim = self._sim
        if sim is None:
            raise RuntimeError("arena is not attached to a simulator")
        # Fold column values back into the private slots BEFORE clearing the
        # buffers: ``node.timeout_count`` reads through ``_arena_index``, so
        # snapshotting after the clear would read a dead column.
        for node in sim.nodes.values():
            node._timeout_count = node.timeout_count
            node._arena = None
            node._arena_index = -1
        del self.nodes[:]
        del self.timeout_count[:]
        del self.crashed[:]
        self.extra.clear()
        self.count = 0
        for node in sim.nodes.values():
            self.add(node)
