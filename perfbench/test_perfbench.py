"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

from perfbench import run
from perfbench.trace import LayerProfile, Spans
from perfbench.workloads import (
    PAPER_ACTIVITIES,
    ClusterWorkload,
    LitmusWorkload,
    PaperTablesWorkload,
)
from repro.analysis.dynamic import measure
from repro.kernel.simtime import msec
from repro.memmodel.litmus import enumerate_litmus
from repro.workload import run_workload

SEED = 7


def tiny(name: str):
    if name in ("flash-crowd", "cache-stampede"):
        return ClusterWorkload(name, duration=msec(60))
    if name == "paper-tables":
        return PaperTablesWorkload(
            warmup=msec(100), window=msec(200),
            activities=[PAPER_ACTIVITIES[1], PAPER_ACTIVITIES[-1]],
        )
    return LitmusWorkload(pairs=[("sb", "sc"), ("mp", "tso"), ("lb", "pso")])


ALL = ("flash-crowd", "cache-stampede", "paper-tables", "litmus")


@pytest.mark.parametrize("name", ALL)
def test_workload_completes_clean_at_tiny_size(name):
    outcome = run.run_pass(tiny(name), SEED, None, None).outcome
    assert outcome.failures == {}
    assert outcome.operations >= 1
    assert len(outcome.digest) == 64


@pytest.mark.parametrize("name", ("flash-crowd", "cache-stampede"))
def test_sliced_cluster_run_matches_one_run_for(name):
    workload = tiny(name)
    sliced = run.run_pass(workload, SEED, None, None).outcome.digest
    whole = run_workload(scenario=name, seed=SEED, duration=workload.duration)
    assert sliced == whole.digest


def test_sliced_paper_tables_match_dynamic_measure():
    workload = tiny("paper-tables")
    worlds = workload.setup(SEED)
    for _ in workload.steps(worlds):
        pass
    rows = {
        (entry["system"], entry["activity"]): entry["window"] for entry in worlds
    }
    workload.finish(worlds)
    for (system, activity), window in rows.items():
        ref = measure(
            system, activity, warmup=workload.warmup, window=workload.window,
            seed=SEED,
        )
        assert window.rate("forks") == ref.forks_per_sec
        assert window.rate("switches") == ref.switches_per_sec
        assert window.rate("ml_enters") == ref.ml_enters_per_sec
        assert window.rate("cv_waits") == ref.waits_per_sec
        assert window.counts["cvs_used"] == ref.distinct_cvs
        assert window.counts["monitors_used"] == ref.distinct_mls


def test_litmus_steps_match_enumerate_litmus():
    workload = tiny("litmus")
    searches = workload.setup(SEED)
    for _ in workload.steps(searches):
        pass
    for search in searches:
        ref = enumerate_litmus(
            search.test, search.model, budget=search.budget, seed=SEED
        )
        assert search.witnesses == set(ref.reached)
        assert search.runs == ref.runs
        assert search.exhausted == ref.exhausted
    workload.finish(searches)


@pytest.mark.parametrize("name", ALL)
def test_traced_pass_gives_the_untraced_digest(name):
    workload = tiny(name)
    plain = run.run_pass(workload, SEED, None, None)
    traced = run.run_pass(workload, SEED, LayerProfile(), Spans())
    assert traced.outcome.digest == plain.outcome.digest


def _declared(kind: str) -> list[str]:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        return [metric["name"] for metric in json.load(handle)[kind]]


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("trace,kind", ((False, "end_to_end"), (True, "per_layer")))
def test_printed_metrics_match_benchmark_json(
    name, trace, kind, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    result, lines = run.bench(tiny(name), SEED, 0.0, trace)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _declared(kind)
    if trace:
        layers = result["metrics"]
        total = sum(layers[metric]["value"] for metric in run.SELF_TIMES)
        assert total == pytest.approx(layers["trace.run_s"]["value"])
        assert layers["other.self_s"]["value"] >= 0
        assert (tmp_path / ".perfbench" / f"trace-{name}-seed{SEED}.json").exists()
