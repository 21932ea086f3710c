"""Arithmetic of the traced run, its exact counts, and the metric list.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import map_child  # noqa: E402
import mapgen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def synthetic(spans):
    """A tracer holding the given (name, start, end, parent) spans."""
    tr = tracer.Tracer()
    for name, start, end, parent in spans:
        tr.name.append(tr.name_id(name))
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
    return tr


# a pass that runs the chain (alpha, one construction, beta) and then
# constructs one more matrix directly
CHAIN_TREE = [
    ("bench.pass", 0, 100, -1),
    ("bijections.selfdual_to_signed_rm", 10, 60, 0),
    ("bijections.alpha", 15, 35, 1),
    ("matrices.TriMatrix.__post_init__", 20, 25, 2),
    ("bijections.beta", 40, 55, 1),
    ("matrices.TriMatrix.__post_init__", 70, 80, 0),
]


def test_self_time_is_duration_minus_child_cover():
    tr = synthetic(CHAIN_TREE)
    assert tracer.self_times(tr.parent, tr.start, tr.end) == [40, 15, 15, 5, 15, 10]


def test_overlapping_children_count_once_and_are_clipped():
    parent = [-1, 0, 0, 0]
    start = [0, 1, 3, 8]
    end = [10, 5, 8, 12]
    # children cover [1, 8] and [8, 10] of the parent's [0, 10]
    assert tracer.self_times(parent, start, end)[0] == 1


def test_nested_wrappers_do_not_count_twice():
    summary = tracer.summarize(synthetic(CHAIN_TREE))
    ns = 1e-9
    assert summary["bijections.chain_calls"] == 1
    assert summary["bijections.chain_s"] == pytest.approx(15 * ns)
    assert summary["bijections.alpha_s"] == pytest.approx(15 * ns)
    assert summary["bijections.beta_s"] == pytest.approx(15 * ns)
    assert summary["matrices.construct_calls"] == 2
    assert summary["matrices.construct_s"] == pytest.approx(15 * ns)
    assert summary["layer.bijections.self_s"] == pytest.approx(45 * ns)
    assert summary["layer.bench.self_s"] == pytest.approx(40 * ns)
    layers = sum(v for k, v in summary.items() if k.startswith("layer."))
    assert layers == pytest.approx(100 * ns)


def _traced_counts():
    from fishburn import cli, enumeration

    cached = enumeration.enumerate_family
    requests = mapgen.generate(2, 30)

    def work():
        for args in (["verify", "--identity", "all", "--max-size", "4"],
                     ["count", "--family", "sm", "--size", "4"]):
            cached.cache_clear()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(args) == 0
        return map_child.serve(requests)

    tr = tracer.Tracer()
    with tr.patched(extra_modules=(map_child,)):
        answers = tr.run(tracer.ROOT_SPAN, work)
    for (mix, text), (_, answer) in zip(requests, answers):
        assert mapgen.check_answer(mix, text, answer) is None
    summary = tracer.summarize(tr)
    return {name: summary[name] for name in tracer.EXACT_COUNTS if name in summary}


def test_exact_counts_repeat_across_traced_runs():
    first = _traced_counts()
    assert first == _traced_counts()
    for name in ("matrices.construct_calls", "matrices.stats_calls",
                 "bijections.chain_calls", "bijections.alpha_inv_calls",
                 "enumeration.members.self_dual", "enumeration.members.sm"):
        assert first[name] > 0, name


def test_patching_restores_every_binding():
    import fishburn
    from fishburn import bijections, cli, matrices

    before = (fishburn.alpha, bijections.alpha, cli.alpha, matrices.TriMatrix.__post_init__,
              map_child.bijections.selfdual_to_signed_rm)
    with tracer.Tracer().patched(extra_modules=(map_child,)):
        assert cli.verify_identity is not fishburn.enumeration.verify_identity.__wrapped__
        assert fishburn.alpha is not before[0]
    after = (fishburn.alpha, bijections.alpha, cli.alpha, matrices.TriMatrix.__post_init__,
             map_child.bijections.selfdual_to_signed_rm)
    assert after == before


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert all(m["unit"] == tracer.metric_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
