"""Scaling of end-to-end times by the host reference.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import ast
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def child(wall, cpu=None, rss_mb=20.0):
    return run.Child(0, b"", wall, wall if cpu is None else cpu, rss_mb)


def fake_children(monkeypatch, walls):
    """Make run_child hand out children with these wall times, in order."""
    queue = iter(walls)
    monkeypatch.setattr(run, "run_child", lambda args, stdin=None: child(next(queue)))


def test_scale_uses_the_reference_runs_on_both_sides(monkeypatch):
    # reference 0.4, child 2.0, reference 0.8, child 1.0, reference 0.8
    fake_children(monkeypatch, [0.4, 2.0, 0.8, 1.0, 0.8])
    host = run.HostScale(run.Tally())
    first = host.run(("first",))
    second = host.run(("second",))
    assert first.scale == pytest.approx(2 * run.HOST_REF_S / (0.4 + 0.8))
    assert second.scale == pytest.approx(run.HOST_REF_S / 0.8)
    assert host.latest() == pytest.approx(run.HOST_REF_S / 0.8)


def test_pass_sums_scaled_children_and_keeps_raw_walls():
    a, b = child(2.0, cpu=1.5, rss_mb=30.0), child(1.0, rss_mb=50.0)
    a.scale, b.scale = 0.5, 0.25
    p = run.make_pass([a, b], [1000.0, 250.0])
    assert p.wall == pytest.approx(2.0 * 0.5 + 1.0 * 0.25)
    assert p.cpu == pytest.approx(1.5 * 0.5 + 1.0 * 0.25)
    assert p.rss_mb == 50.0
    assert p.raw_wall == pytest.approx(3.0)
    assert p.scales == [0.5, 0.25]
    metrics = run.pass_metrics(p)
    assert metrics["req_per_s"] == pytest.approx(2 / p.wall)
    assert metrics["req_p99_ms"] == 1000.0


def test_failed_reference_run_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(run, "run_child", lambda args, stdin=None: run.Child(1, b"", 0.4, 0.4, 20.0))
    tally = run.Tally()
    run.HostScale(tally)
    assert tally.reasons == ["host reference exited 1"]


def test_host_reference_shares_no_code_with_the_package():
    tree = ast.parse((BENCH / "host_ref.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported <= {"dataclasses"}
