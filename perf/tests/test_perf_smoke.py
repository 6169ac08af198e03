"""Smoke test of the benchmark itself, at ``--quick`` sizes.

Run explicitly (``perf/`` is not in ``testpaths``):

    PYTHONPATH=src python -m pytest perf/tests -q
"""

import copy
import json
import os
import sys

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERF)

import layers  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402

BENCH = run.load_benchmark()
NAMES = [cls.name for cls in suite.WORKLOADS]


def quick_suite(names, traced):
    return run.run_suite(names, seed=1, seconds=0, traced=traced, quick=True, bench=BENCH)


@pytest.fixture(scope="module")
def untraced():
    return quick_suite(NAMES, traced=False)


@pytest.fixture(scope="module")
def traced():
    return quick_suite(NAMES, traced=True)


def test_benchmark_json_lists_what_the_code_measures():
    assert BENCH["paths"] == ["perf"]
    assert [w["name"] for w in BENCH["workloads"]] == NAMES
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        name: unit for name, (unit, _exact) in layers.LAYER_METRICS.items()
    }
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}


def test_every_workload_reports_every_end_to_end_metric(untraced):
    assert sorted(untraced["workloads"]) == sorted(NAMES)
    for name, result in untraced["workloads"].items():
        assert result["failed"] == 0 and not result["failures"], (name, result["failures"])
        for metric in BENCH["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, (name, metric["name"])
        # host times are what the clock read over the slowdown reference.py showed
        host = result["host"]
        assert result["metrics"]["wall_s"]["value"] == pytest.approx(
            host["wall_raw_s"]["value"] / host["slowdown_x"]["value"])
    assert "step_ms_p95" in untraced["workloads"]["ls-flap40"]["metrics"]
    assert "cells_per_s" in untraced["workloads"]["grid2w"]["metrics"]
    assert untraced["workloads"]["grid2w"]["attempted"] == 20
    # Theorem 1 across workloads: the replay reproduces rb-flap40's execution
    assert (untraced["workloads"]["ls-flap40"]["fingerprint"]
            == untraced["workloads"]["rb-flap40"]["fingerprint"])


def test_driver_line_has_exactly_the_listed_metrics(untraced, traced):
    for document, listed in ((untraced, "end_to_end"), (traced, "per_layer")):
        single = {**document, "workloads": {"rb-flap40": document["workloads"]["rb-flap40"]}}
        line = json.loads(run.driver_line(single, BENCH))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["attempted"] >= 1
        assert sorted(line["metrics"]) == sorted(m["name"] for m in BENCH[listed])


def test_every_hook_resolves_and_every_layer_metric_is_measured(traced):
    for hook in layers.CELL_HOOKS + layers.GRID_HOOKS:
        assert layers.resolve(hook.target) is not None, hook
    measured = set()
    for name, result in traced["workloads"].items():
        assert result["failed"] == 0 and not result["failures"], (name, result["failures"])
        assert set(result["hooks"].values()) == {"ok"}, (name, result["hooks"])
        assert {"trace.overhead_x", "trace.unattributed_share"} <= set(result["metrics"])
        measured |= set(result["metrics"])
    assert set(layers.LAYER_METRICS) <= measured
    assert os.path.exists(os.path.join(run.OUT, "trace-rb-flap40.json"))


def test_missing_hook_is_absent_not_a_crash():
    tracer = layers.Tracer()
    gone = [
        layers.Hook("harness.gone", "repro.harness:no_such_function", "span"),
        layers.Hook("nowhere.gone", "repro.no_such_module:f", "count"),
        layers.Hook("core.shim.gone", "repro.core.shim:DefinedShim.no_such_method", "span"),
    ]
    with tracer.installed(gone + [layers.CELL_HOOKS[0]]):
        pass
    assert tracer.status == {
        "harness.gone": "absent", "nowhere.gone": "absent", "core.shim.gone": "absent",
        layers.CELL_HOOKS[0].name: "ok",
    }
    import repro.harness
    assert not hasattr(repro.harness.run_production, "__wrapped__")  # uninstalled


def test_grid_leaves_no_process_behind():
    import multiprocessing
    from multiprocessing import resource_tracker

    result = run.run_one("grid2w", seed=1, seconds=0, traced=False, quick=True, bench=BENCH)
    assert result["failed"] == 0, result["failures"]
    # the resource tracker the result ring started is stopped and waited for
    assert resource_tracker._resource_tracker._pid is None
    assert multiprocessing.active_children() == []


def test_perturbed_fingerprint_fails_the_command(monkeypatch, capsys):
    real = suite.harness.run_production
    calls = []

    def perturbed(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        if len(calls) == 2:  # the first timed repetition, after the warm-up
            result.fingerprint = "0" * 64
        return result

    monkeypatch.setattr(suite.harness, "run_production", perturbed)
    assert run.main(["--quick", "--workload", "rb-flap40"]) == 1
    line = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_agree_on_two_quick_runs(untraced, traced):
    for first, is_traced in ((untraced, False), (traced, True)):
        first = {**first, "workloads": {"ls-flap40": first["workloads"]["ls-flap40"]}}
        second = quick_suite(["ls-flap40"], traced=is_traced)
        # quick repetitions are too short for host times to be steady;
        # everything the seed determines must agree exactly
        exact = [text for text in run.disagreements(first, second, BENCH)
                 if "is beyond" not in text]
        assert exact == []

        broken = copy.deepcopy(second)
        result = broken["workloads"]["ls-flap40"]
        result["fingerprint"] = "f" * 64
        if is_traced:
            result["metrics"]["core.lockstep.cycles"]["value"] += 1
        else:
            result["sim"]["sim_step_ms_p50"] += 1
            result["metrics"]["wall_s"]["value"] *= 10
        problems = run.disagreements(first, broken, BENCH)
        assert any("fingerprint" in text for text in problems)
        assert len(problems) >= (2 if is_traced else 3)
