"""Smoke runs of the shipped examples (each is self-checking).

Every script under ``examples/`` runs here; the two tours whose output
carries a claim worth pinning get their own test with output asserts.
"""

from __future__ import annotations

import pathlib
import runpy
import tempfile

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
#: Examples with a dedicated test below.
PINNED = {"operations_tour.py", "wire_protocol_tour.py"}


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in EXAMPLES.glob("*.py") if p.name not in PINNED),
)
def test_example_runs(name, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


def test_operations_tour_recovers_a_seat_from_its_store(
    tmp_path, monkeypatch, capsys
):
    # The tour keeps its seat stores under a fresh temp directory; point
    # that at this test's own directory so nothing outlives the run.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(EXAMPLES / "operations_tour.py"), run_name="__main__")
    out = capsys.readouterr().out
    recovery = [
        line for line in out.splitlines() if "replacement recovered" in line
    ]
    assert len(recovery) == 1
    assert recovery[0].endswith("from the seat store (match: True)")
    assert "all three operational drills passed." in out


def test_wire_protocol_tour_matches_over_tcp(capsys):
    runpy.run_path(
        str(EXAMPLES / "wire_protocol_tour.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    assert "byte-identical over TCP:" in out
    assert "pod 0 dead, still byte-identical" in out
    assert "metrics dump over TCP:" in out
    assert "pod0: 0 live / 3 dead seats" in out
