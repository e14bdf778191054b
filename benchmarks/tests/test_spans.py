"""Tests of the benchmark's own tracing and round checks.

Run from the repository root: ``python3 -m pytest benchmarks/tests``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gebs.cli as cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Workload  # noqa: E402

TINY_AR1 = Workload("ar1-tiny", "ar1", sims=1, boots=10,
                    methods=("rb", "wb", "gbs-multinomial", "gbs-uniform"),
                    trace_rounds=1, extra=("--n", "50"))


def snapshot():
    return {(owner, attr): vars(owner)[attr]
            for owner, attr, _ in spans.patch_targets()}


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 7]; b holds d [2, 3]
    names = ["a", "b", "c", "d"]
    totals = spans.layer_totals(names, name_id=[0, 1, 3, 2],
                                parent=[-1, 0, 1, 0],
                                start=[0.0, 1.0, 2.0, 5.0],
                                end=[10.0, 4.0, 3.0, 7.0])
    assert totals == {"a": (1, 10.0, 5.0), "b": (1, 3.0, 2.0),
                      "c": (1, 2.0, 2.0), "d": (1, 1.0, 1.0)}


def test_wrapped_calls_record_parent_links():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    calls = {name: t[0] for name, t in tracer.totals().items()}
    assert calls["outer"] == 1 and calls["inner"] == 2
    assert list(tracer.parent) == [-1, 0, 0]
    _, outer_s, outer_self = tracer.totals()["outer"]
    assert outer_self == pytest.approx(outer_s - tracer.totals()["inner"][1])


def test_traced_round_restores_every_patch(tmp_path):
    before = snapshot()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert all(hasattr(vars(o)[a], "__wrapped__") for o, a in before)
        played = run.judged(cli, TINY_AR1, 7, tmp_path / "r.csv")
    assert played.problem is None
    after = snapshot()
    assert all(after[key] is fn for key, fn in before.items())
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["solver.iters_per_solve"][0] == 1.0
    assert metrics["engine.draws"][0] == TINY_AR1.draws


def test_traced_round_restores_patches_after_an_error():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError("boom")
    assert snapshot() == before


def test_untraced_run_patches_nothing(monkeypatch, tmp_path):
    def no_tracer():
        raise AssertionError("untraced run built a tracer")

    monkeypatch.setattr(spans, "Tracer", no_tracer)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    before = snapshot()
    rounds, _ = run.measure(cli, __import__("numpy"), TINY_AR1, 3, 0.0, [])
    assert [r.problem for r in rounds] == [None]
    after = snapshot()
    assert all(after[key] is fn for key, fn in before.items())


def test_report_check_rejects_a_damaged_report(tmp_path):
    out = tmp_path / "r.csv"
    assert run.judged(cli, TINY_AR1, 5, out).problem is None
    text = out.read_text()
    assert "seed line missing" in str(
        run.check_report(TINY_AR1, 6, text))
    first = text.splitlines()[1]
    damaged = text.replace(first, first.rsplit(",", 1)[0] + ",nan")
    assert run.check_report(TINY_AR1, 5, damaged) is not None


def test_tail_keeps_ten_rounds_beyond_it():
    values = list(range(1, 41))
    assert run.tail(values) == (30, 75.0, 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)
