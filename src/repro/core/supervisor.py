"""The supervisor's part of the BuildSR protocol (paper Sections 3.1, 3.3, 4.1).

The supervisor is the commonly known gateway of the system.  Per topic it
maintains a *database* mapping labels to subscriber references plus a
round-robin counter ``next``.  Its responsibilities are deliberately tiny:

* hand out labels and configurations on ``Subscribe`` / ``Unsubscribe`` /
  ``GetConfiguration`` requests (a constant number of messages each,
  Theorem 7),
* periodically repair its own database (the four corruption conditions of
  Section 3.1 plus removal of crashed subscribers, Section 3.3) — all local
  work, no messages, and
* periodically send one subscriber its correct configuration, chosen in a
  round-robin fashion (Algorithm 3, Timeout).

The supervisor never participates in publication dissemination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import messages as msg
from repro.core.config import ProtocolParams
from repro.core.labels import (
    Label,
    index_of,
    is_canonical_label,
    is_valid_label,
    label_of,
    ring_key,
)
from repro.sim.node import NodeRef, ProtocolNode

#: A configuration entry as sent to subscribers: (label, node reference).
Entry = Tuple[Label, NodeRef]


@dataclass
class TopicDatabase:
    """Per-topic supervisor state: the label → subscriber map and the
    round-robin pointer used by the periodic Timeout."""

    entries: Dict[Label, Optional[NodeRef]] = field(default_factory=dict)
    next_index: int = 0

    # ------------------------------------------------------------------ views
    @property
    def n(self) -> int:
        return len(self.entries)

    def members(self) -> List[NodeRef]:
        return [ref for ref in self.entries.values() if ref is not None]

    def label_for(self, node: NodeRef) -> Optional[Label]:
        for label, ref in self.entries.items():
            if ref == node:
                return label
        return None

    def sorted_entries(self) -> List[Entry]:
        """Entries sorted by ring position ``r(label)`` (corrupted labels that
        are not valid bit strings sort last, in stable order)."""
        def key(item: Tuple[Label, Optional[NodeRef]]):
            label = item[0]
            if is_valid_label(label):
                return (0, ring_key(label))
            return (1, "")

        return [(label, ref) for label, ref in sorted(self.entries.items(), key=key)
                if ref is not None]

    # --------------------------------------------------------------- mutation
    def is_corrupted(self) -> bool:
        """True if any of the four corruption conditions of Section 3.1 holds."""
        if any(ref is None for ref in self.entries.values()):
            return True  # (i) tuple without a subscriber
        refs = [ref for ref in self.entries.values() if ref is not None]
        if len(refs) != len(set(refs)):
            return True  # (ii) one subscriber under several labels
        wanted = {label_of(i) for i in range(self.n)}
        present = set(self.entries)
        if wanted - present:
            return True  # (iii) labels missing
        if present - wanted:
            return True  # (iv) labels out of range / non-canonical
        return False

    def check_multiple_copies(self, node: NodeRef) -> None:
        """Remove duplicate tuples for ``node``, keeping the lowest label
        (Algorithm 3, CheckMultipleCopies)."""
        owned = [label for label, ref in self.entries.items() if ref == node]
        if len(owned) <= 1:
            return
        owned.sort(key=_label_sort_key)
        for label in owned[1:]:
            del self.entries[label]

    def repair_labels(self, crashed: Optional[List[NodeRef]] = None) -> None:
        """CheckLabels (Algorithm 3) extended with crash removal (Section 3.3).

        Restores the invariant that the database contains exactly the labels
        ``l(0), ..., l(n-1)``, each held by a distinct live subscriber.
        """
        # (i) drop tuples without a subscriber, and crashed subscribers.
        crashed_set = set(crashed or [])
        for label in [lbl for lbl, ref in self.entries.items()
                      if ref is None or ref in crashed_set]:
            del self.entries[label]
        # (ii) drop duplicate subscribers (keep lowest label per subscriber).
        seen: Dict[NodeRef, Label] = {}
        for label in sorted(self.entries, key=_label_sort_key):
            ref = self.entries[label]
            assert ref is not None
            if ref in seen:
                del self.entries[label]
            else:
                seen[ref] = label
        # (iii)/(iv) move out-of-range labels into the holes 0..n-1.
        n = len(self.entries)
        wanted = [label_of(i) for i in range(n)]
        missing = [w for w in wanted if w not in self.entries]
        wanted_set = set(wanted)
        extras = sorted((label for label in self.entries if label not in wanted_set),
                        key=_label_sort_key, reverse=True)
        for hole, extra in zip(missing, extras):
            ref = self.entries.pop(extra)
            self.entries[hole] = ref

    def configuration_for(self, label: Label) -> Tuple[Optional[Entry], Optional[Entry]]:
        """(pred, succ) of the entry holding ``label`` on the cyclic ring
        induced by the database ordering.  ``None`` values are returned for a
        single-entry database."""
        ordered = self.sorted_entries()
        if len(ordered) <= 1:
            return None, None
        labels = [entry[0] for entry in ordered]
        pos = labels.index(label)
        pred = ordered[pos - 1]
        succ = ordered[(pos + 1) % len(ordered)]
        return pred, succ

    def next_label(self) -> Label:
        """The label the next joining subscriber receives: ``l(n)``."""
        return label_of(self.n)

    def round_robin_label(self) -> Optional[Label]:
        """Advance the round-robin pointer and return the label to refresh."""
        if self.n == 0:
            return None
        self.next_index = (self.next_index + 1) % self.n
        return label_of(self.next_index)


def _label_sort_key(label: Label):
    """Sort canonical labels by join index; non-canonical (corrupted) labels
    sort after all canonical ones (so repairs reassign them first)."""
    if is_canonical_label(label):
        return (0, index_of(label))
    return (1, label)


class Supervisor(ProtocolNode):
    """Protocol node implementing Algorithm 3 for every topic."""

    def __init__(self, node_id: NodeRef, params: Optional[ProtocolParams] = None) -> None:
        super().__init__(node_id)
        self.params = params or ProtocolParams()
        self.databases: Dict[str, TopicDatabase] = {}
        #: counts of configuration-bearing messages sent, for Theorem 7 checks
        self.config_messages_sent = 0
        #: subscribe/unsubscribe operations handled and the messages sent while
        #: handling them (the quantity bounded by Theorem 7)
        self.ops_handled = 0
        self.op_response_messages = 0

    # ------------------------------------------------------------------ state
    def database(self, topic: Optional[str] = None) -> TopicDatabase:
        topic = topic or self.params.default_topic
        return self.databases.setdefault(topic, TopicDatabase())

    def topics(self) -> List[str]:
        return sorted(self.databases)

    def is_database_legitimate(self, expected_members: List[NodeRef],
                               topic: Optional[str] = None) -> bool:
        """True if the topic database is uncorrupted and contains exactly
        ``expected_members`` (used by legitimacy checks)."""
        db = self.database(topic)
        if db.is_corrupted():
            return False
        return sorted(db.members()) == sorted(expected_members)

    # --------------------------------------------------------------- timeout
    def on_timeout(self) -> None:
        """Repair every database and refresh one subscriber per topic."""
        for topic, db in self.databases.items():
            crashed = self._crashed_members(db)
            db.repair_labels(crashed=crashed)
            label = db.round_robin_label()
            if label is None:
                continue
            ref = db.entries.get(label)
            if ref is None:
                continue
            self._send_configuration(ref, label, db, topic)

    def _crashed_members(self, db: TopicDatabase) -> List[NodeRef]:
        detector = self.sim.failure_detector
        return [ref for ref in db.members() if detector.suspects(ref)]

    def failure_suspects(self, node: NodeRef) -> bool:
        """True if the supervisor's failure detector suspects ``node``.

        Requests from (or on behalf of) suspected subscribers are ignored so
        that references to crashed nodes are never re-integrated (Section 3.3).
        """
        if self._sim is None:
            return False
        return self.sim.failure_detector.suspects(node)

    # ---------------------------------------------------------------- actions
    def on_Subscribe(self, node: NodeRef, topic: Optional[str] = None) -> None:
        """Integrate a new subscriber (Section 4.1): insert ``(l(n), node)``
        and send the node its configuration."""
        if self.failure_suspects(node):
            return
        topic = topic or self.params.default_topic
        db = self.database(topic)
        db.check_multiple_copies(node)
        existing = db.label_for(node)
        before_sent = self.config_messages_sent
        if existing is not None:
            self._send_configuration(node, existing, db, topic)
        else:
            label = db.next_label()
            db.entries[label] = node
            self._send_configuration(node, label, db, topic)
        self.ops_handled += 1
        self.op_response_messages += self.config_messages_sent - before_sent

    def on_Unsubscribe(self, node: NodeRef, topic: Optional[str] = None) -> None:
        """Remove a subscriber (Section 4.1): the holder of the last label
        ``l(n-1)`` takes over the departing subscriber's label, and the
        departing subscriber is granted permission to drop its connections."""
        topic = topic or self.params.default_topic
        db = self.database(topic)
        db.check_multiple_copies(node)
        before_sent = self.config_messages_sent
        label = db.label_for(node)
        if label is not None:
            n = db.n
            last_label = label_of(n - 1)
            if n > 1 and label != last_label:
                mover = db.entries.get(last_label)
                del db.entries[last_label]
                del db.entries[label]
                if mover is not None:
                    db.entries[label] = mover
                    pred, succ = db.configuration_for(label)
                    self._send_set_data(mover, pred, label, succ, topic)
            else:
                del db.entries[label]
        # Permission for the departing subscriber to clear its state.
        self._send_set_data(node, None, None, None, topic)
        self.ops_handled += 1
        self.op_response_messages += self.config_messages_sent - before_sent

    def on_GetConfiguration(self, node: NodeRef, topic: Optional[str] = None) -> None:
        """Send ``node`` its configuration.

        If ``node`` is unknown, either integrate it (paper prose,
        ``integrate_unknown_requesters=True``) or reply with an empty
        configuration (Algorithm 3 pseudocode), which makes the subscriber
        clear its label and re-subscribe on its next Timeout.
        """
        if self.failure_suspects(node):
            return
        topic = topic or self.params.default_topic
        db = self.database(topic)
        db.check_multiple_copies(node)
        label = db.label_for(node)
        if label is None:
            if self.params.integrate_unknown_requesters:
                self.on_Subscribe(node, topic)
            else:
                self._send_set_data(node, None, None, None, topic)
            return
        self._send_configuration(node, label, db, topic)

    # ----------------------------------------------------------------- helpers
    def _send_configuration(self, node: NodeRef, label: Label, db: TopicDatabase,
                            topic: str) -> None:
        pred, succ = db.configuration_for(label)
        self._send_set_data(node, pred, label, succ, topic)

    def _send_set_data(self, node: NodeRef, pred: Optional[Entry], label: Optional[Label],
                       succ: Optional[Entry], topic: str) -> None:
        self.config_messages_sent += 1
        self.send(node, msg.SET_DATA, topic=topic,
                  pred=tuple(pred) if pred else None,
                  label=label,
                  succ=tuple(succ) if succ else None)
