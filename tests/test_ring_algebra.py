"""The exact integer/string ring algebra against a ``Fraction`` oracle.

The protocol orders ring positions with :func:`ring_key` and computes
reflections, shortcut targets and distances on fixed-point integers.  The
reference formulas below are the paper's, written with exact
:class:`fractions.Fraction` values; every property draws arbitrary valid
labels, including non-canonical ones with trailing zeros, whose ``r`` value
equals that of a shorter label.
"""

from fractions import Fraction
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import (
    closer_to,
    compare,
    fixed_point,
    index_of,
    label_from_fixed,
    label_from_r,
    label_length,
    level_of_edge,
    linear_distance,
    r_float,
    r_value,
    ring_distance,
    ring_key,
    sort_by_r,
)
from repro.core.shortcuts import _reflect, shortcut_labels, shortcut_labels_closed_form
from repro.core.skip_ring import SkipRingTopology

labels = st.text(alphabet="01", min_size=1, max_size=200)
short_labels = st.text(alphabet="01", min_size=1, max_size=14)
trailing_zeros = st.integers(min_value=0, max_value=8)


# ------------------------------------------------------------------ oracle
def reference_reflect(neighbor: str, own: str) -> str:
    return label_from_r((2 * r_value(neighbor) - r_value(own)) % 1)


def reference_closed_form(own: str, top_level: int) -> set:
    own_r = r_value(own)
    targets = set()
    for level in range(len(own), top_level):
        step = Fraction(1, 2 ** level)
        for direction in (+1, -1):
            targets.add(label_from_r((own_r + direction * step) % 1))
    targets.discard(own)
    return targets


def reference_closer(own: str, label_a: str, label_b: str) -> bool:
    own_r = r_value(own)
    return abs(r_value(label_a) - own_r) < abs(r_value(label_b) - own_r)


# -------------------------------------------------------------- properties
@settings(max_examples=300, deadline=None)
@given(labels, labels)
def test_ring_key_order_and_equality_match_r(label_a, label_b):
    r_a, r_b = r_value(label_a), r_value(label_b)
    key_a, key_b = ring_key(label_a), ring_key(label_b)
    assert (key_a < key_b) == (r_a < r_b)
    assert (key_a == key_b) == (r_a == r_b)
    assert compare(label_a, label_b) == (r_a > r_b) - (r_a < r_b)


@given(labels, trailing_zeros)
def test_trailing_zeros_keep_the_ring_position(label, zeros):
    padded = label + "0" * zeros
    assert ring_key(padded) == ring_key(label)
    assert compare(padded, label) == 0
    assert not closer_to(label, padded, label)


def test_equal_r_pairs():
    assert ring_key("01") == ring_key("010")
    assert ring_key("0") == ring_key("000") == ""
    assert compare("01", "010") == 0
    assert sort_by_r(["010", "1", "01", "0"]) == ["0", "010", "01", "1"]


@settings(max_examples=200, deadline=None)
@given(st.lists(labels, min_size=0, max_size=30))
def test_sort_by_r_matches_a_fraction_sort(values):
    assert sort_by_r(values) == sorted(values, key=r_value)


@given(labels, st.integers(min_value=0, max_value=8))
def test_fixed_point_round_trips_through_r(label, extra_bits):
    width = len(label) + extra_bits
    value = fixed_point(label, width)
    assert Fraction(value, 2 ** width) == r_value(label)
    assert label_from_fixed(value, width) == label_from_r(r_value(label))


@settings(max_examples=300, deadline=None)
@given(labels, labels)
def test_reflect_matches_the_fraction_formula(neighbor, own):
    assert _reflect(neighbor, own) == reference_reflect(neighbor, own)


@given(labels, trailing_zeros, trailing_zeros)
def test_reflect_of_equal_r_labels(label, zeros_a, zeros_b):
    # r(nb) = r(own): the reflection is the position itself.
    reflected = _reflect(label + "0" * zeros_a, label + "0" * zeros_b)
    assert reflected == reference_reflect(label, label) == label_from_r(r_value(label))


@settings(max_examples=300, deadline=None)
@given(st.one_of(short_labels, labels), st.integers(min_value=0, max_value=12))
def test_closed_form_matches_the_fraction_formula(own, top_level):
    assert shortcut_labels_closed_form(own, top_level) == \
        reference_closed_form(own, top_level)


@settings(max_examples=300, deadline=None)
@given(st.one_of(short_labels, labels), st.one_of(short_labels, labels),
       st.one_of(short_labels, labels))
def test_closer_to_matches_fraction_distances(own, label_a, label_b):
    assert closer_to(own, label_a, label_b) == reference_closer(own, label_a, label_b)
    # SetData's action (iii) asks "is the stored one at least as close?"
    assert (not closer_to(own, label_a, label_b)) == \
        (linear_distance(label_b, own) <= linear_distance(label_a, own))


@given(short_labels, short_labels, short_labels)
def test_shortcut_recursion_matches_the_fraction_recursion(own, left, right):
    def reference_chain(neighbor: str) -> List[str]:
        chain: List[str] = []
        current = neighbor
        while len(current) > len(own) and len(chain) < 64:
            current = reference_reflect(current, own)
            chain.append(current)
        return chain

    expected = set(reference_chain(left)) | set(reference_chain(right))
    expected.discard(own)
    assert shortcut_labels(own, left, right) == expected


# ----------------------------------------------------------- invalid input
RAISING = [
    ("index_of", lambda bad: index_of(bad)),
    ("r_value", lambda bad: r_value(bad)),
    ("r_float", lambda bad: r_float(bad)),
    ("label_length", lambda bad: label_length(bad)),
    ("level_of_edge", lambda bad: level_of_edge("01", bad)),
    ("sort_by_r", lambda bad: sort_by_r(["01", bad])),
    ("compare", lambda bad: compare(bad, "01")),
    ("ring_distance", lambda bad: ring_distance("01", bad)),
    ("linear_distance", lambda bad: linear_distance(bad, "01")),
]


@pytest.mark.parametrize("bad", ["", "012", None, 5])
@pytest.mark.parametrize("name,call", RAISING, ids=[name for name, _ in RAISING])
def test_public_label_functions_reject_invalid_labels(name, call, bad):
    with pytest.raises(ValueError):
        call(bad)


# --------------------------------------------------- sort-once skip ring
def reference_order(topo: SkipRingTopology, level: Optional[int] = None) -> List[int]:
    members = [i for i in range(topo.n)
               if level is None or len(topo.labels[i]) <= level]
    return sorted(members, key=lambda i: r_value(topo.labels[i]))


def reference_state(topo: SkipRingTopology, order: List[int], node: int) -> Dict[str, object]:
    pos = order.index(node)
    pred = order[pos - 1] if pos > 0 else None
    succ = order[pos + 1] if pos + 1 < len(order) else None
    ring = None
    if topo.n >= 2 and pos in (0, len(order) - 1):
        ring = order[-1] if pos == 0 else order[0]
    pred_label = topo.labels[pred] if pred is not None else (
        topo.labels[ring] if ring is not None else None)
    succ_label = topo.labels[succ] if succ is not None else (
        topo.labels[ring] if ring is not None else None)
    targets = shortcut_labels(topo.labels[node], pred_label, succ_label)
    return {
        "label": topo.labels[node],
        "left": pred,
        "right": succ,
        "ring": ring,
        "shortcuts": {lbl: topo.index_by_label[lbl] for lbl in targets
                      if lbl in topo.index_by_label},
    }


@pytest.mark.parametrize("n", range(1, 131))
def test_sort_once_topology_matches_a_resorting_reference(n):
    topo = SkipRingTopology(n)
    order = reference_order(topo)
    assert topo.ring_order() == order
    assert topo.ring_order(None) == order
    for level in range(0, topo.top_level + 2):
        assert topo.ring_order(level) == reference_order(topo, level)
    edges = set()
    for u, v in zip(order, order[1:] + order[:1]):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    for node in range(n):
        assert topo.ring_neighbors(node) == (order[order.index(node) - 1],
                                             order[(order.index(node) + 1) % n])
        spec = reference_state(topo, order, node)
        assert topo.expected_subscriber_state(node) == spec
        for target in spec["shortcuts"].values():  # type: ignore[union-attr]
            edges.add((min(node, target), max(node, target)))
    assert topo.expected_edge_set() == frozenset(edges)
