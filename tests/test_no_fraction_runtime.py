"""Guard: the protocol's runtime builds no ``fractions.Fraction``.

Ring positions are compared with string keys and computed on fixed-point
integers (see :mod:`repro.core.labels`).  ``Fraction`` stays behind the
public ``r_value``/``label_from_r`` accessors for reports and tests.  These
tests count every ``Fraction`` constructed while whole protocol runs reach
legitimacy, so a slow path cannot creep back in unnoticed.
"""

import ast
import fractions
from pathlib import Path

import pytest

from repro.api import SystemSpec, build_system
from repro.core.labels import r_value
from repro.workloads import AdversarialConfig, build_adversarial_system

CORE = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"


@pytest.fixture
def fraction_count(monkeypatch):
    """A list that grows by one for every ``Fraction`` constructed."""
    made = []
    original = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting_new))
    return made


def test_the_counter_sees_the_fraction_accessors(fraction_count):
    assert r_value("101") == fractions.Fraction(5, 8)
    assert len(fraction_count) >= 2


def test_join_burst_to_legitimacy_builds_no_fraction(fraction_count):
    system = build_system(SystemSpec(seed=1))
    peers = [system.add_peer() for _ in range(48)]
    for peer in peers:
        system.subscribe(peer)
    assert system.run_until_legitimate(max_rounds=200)
    system.run_rounds(5)
    assert system.is_legitimate()
    assert len(fraction_count) == 0


def test_adversarial_start_to_legitimacy_builds_no_fraction(fraction_count):
    config = AdversarialConfig(n=12, seed=3, database_mode="corrupted")
    system, _ = build_adversarial_system(config)
    assert system.run_until_legitimate(max_rounds=1500)
    assert len(fraction_count) == 0


@pytest.mark.parametrize("module", ["shortcuts", "subscriber", "supervisor", "skip_ring"])
def test_runtime_modules_do_not_import_fractions(module):
    tree = ast.parse((CORE / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert "fractions" not in imported
