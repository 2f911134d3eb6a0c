"""Tests of the benchmark's own code: self time, order statistics, the gate.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import stats  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------- self time


def test_self_time_subtracts_children():
    spans = [
        ["bench.pass", 0.0, 10.0, -1],
        ["experiments.run", 1.0, 9.0, 0],
        ["simulate.path", 2.0, 5.0, 1],
        ["estimators.solve", 6.0, 7.0, 1],
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 4.0, 3.0, 1.0])
    # self times of a tree add up to the root's duration
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["a.x", 0.0, 10.0, -1],
        ["b.y", 1.0, 4.0, 0],
        ["b.z", 3.0, 6.0, 0],   # overlaps b.y: covered time is 1..6
        ["b.w", 8.0, 12.0, 0],  # runs past the parent: only 8..10 counts
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_busy_merges_nested_spans_of_one_name():
    spans = [
        ["simulate.path", 0.0, 4.0, -1],
        ["simulate.path", 1.0, 2.0, 0],   # recursion: already covered
        ["simulate.path", 6.0, 7.0, -1],
        ["rng.generator", 0.5, 0.6, 0],
    ]
    assert tracer.busy(spans, "simulate.path") == pytest.approx(5.0)
    assert tracer.busy(spans, "missing") == 0.0


def test_layer_self_times_group_by_module():
    spans = [
        ["bench.pass", 0.0, 10.0, -1],
        ["simulate.path", 1.0, 4.0, 0],
        ["simulate.ensemble", 5.0, 6.0, 0],
        ["rng.generator", 1.5, 2.0, 1],
    ]
    got = tracer.layer_self_times(spans)
    assert got == pytest.approx({"bench": 6.0, "simulate": 3.5, "rng": 0.5})


def test_tracer_records_nesting_and_writes_once(tmp_path):
    clock = FakeClock()
    tr = tracer.Tracer(clock)
    outer = tr.open("a.outer")
    clock.now = 1.0
    inner = tr.open("b.inner")
    clock.now = 3.0
    tr.close(inner)
    clock.now = 4.0
    tr.close(outer)
    assert tr.spans == [["a.outer", 0.0, 4.0, -1], ["b.inner", 1.0, 3.0, 0]]
    with pytest.raises(RuntimeError):
        tr.close(outer)
    out = tmp_path / "spans.jsonl"
    tr.write(out)
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[1] == {"name": "b.inner", "start": 1.0, "end": 3.0, "parent": 0}


def test_install_wraps_every_reference_and_uninstall_restores():
    from affine2f import cli, experiments, limit_laws, simulate
    from affine2f.model import InitialLaw, make_spec
    from affine2f.rng import RngStream

    original = simulate.simulate_path
    tr = tracer.Tracer()
    installed = tracer.install(tr)
    try:
        # bound by name into other modules with `from .simulate import ...`
        assert experiments.simulate_path is simulate.simulate_path is cli.simulate_path
        assert limit_laws.simulate_path is not original
        spec = make_spec(1.0, 1.0, 0.5, 0.3, 0.6, 0.5, 0.3, 0.4, 0.3,
                         init=InitialLaw("point", y0=1.0, x0=0.2))
        path = simulate.simulate_path(spec, 0.1, 0.01, rng=RngStream(8, 0))
    finally:
        installed.uninstall()
    assert simulate.simulate_path is original and experiments.simulate_path is original
    assert tr.counts["simulate.path.calls"] == 1
    assert tr.counts["simulate.path.steps"] == len(path) - 1 == 10
    assert tr.counts["rng.generator.calls"] == 3
    names = [s[0] for s in tr.spans]
    assert names[0] == "simulate.path" and "rng.generator" in names


# -------------------------------------------------------- order statistics


def test_percentile_matches_numpy_linear():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    for p in (0, 10, 50, 75, 90, 100):
        assert stats.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(20) is None     # 75th has only 5 beyond
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9


def test_summarize_reports_count_median_and_tail():
    values = list(range(1, 101))
    got = stats.summarize(values)
    assert got["n"] == 100
    assert got["p50"] == pytest.approx(50.5)
    assert got["tail_p"] == 90.0 and got["tail"] == pytest.approx(np.percentile(values, 90))
    assert stats.summarize([3.0]) == {"n": 1, "p50": 3.0}
    with pytest.raises(ValueError):
        stats.median([])


# -------------------------------------------------------------------- gate


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(os.path.dirname(HERE), "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["subcritical-batched", "sample-based-per-path"])
def test_gate_passes_on_the_recorded_seed(name, golden):
    import workloads

    assert workloads.LIBRARY[name].golden_check(golden[name]) == []


@pytest.mark.parametrize("name", ["subcritical-batched", "sample-based-per-path"])
def test_gate_fails_on_another_seed(name, golden):
    import workloads

    w = workloads.LIBRARY[name]
    other = w.golden_record(seed=workloads.GOLDEN_SEED + 2)
    problems = workloads.compare_golden(other, golden[name])
    assert any("scaled_errors differ" in p for p in problems)


def test_gate_tolerates_reordered_sums_but_not_a_changed_draw(golden):
    import workloads

    rec = golden["subcritical-batched"]
    nudged = json.loads(json.dumps(rec))
    rows = np.array(nudged["subcritical"]["scaled_errors"])
    nudged["subcritical"]["scaled_errors"] = (rows * (1.0 + 1e-12)).tolist()
    assert workloads.compare_golden(nudged, rec) == []
    rows[2, 3] += 0.01
    nudged["subcritical"]["scaled_errors"] = rows.tolist()
    assert workloads.compare_golden(nudged, rec) != []


def test_replay_catches_a_row_from_another_stream():
    import workloads
    from affine2f import experiments

    w = workloads.LIBRARY["sample-based-per-path"]
    plan, kwargs = w.jobs(workloads.GOLDEN_SEED + 4, golden=True)[1]
    rep = experiments.run_experiment(plan, **kwargs)
    assert w.replay(plan, kwargs, rep) == []
    swapped = rep.scaled_errors.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]
    forged = experiments.LimitLawReport(**{**rep.__dict__, "scaled_errors": swapped})
    assert len(w.replay(plan, kwargs, forged)) == 2


def test_cli_gate_fails_on_files_from_another_seed(tmp_path):
    import contextlib
    import io

    import workloads
    from affine2f import cli

    w = workloads.CliRoundtrip(str(tmp_path))
    seed = workloads.GOLDEN_SEED
    for argv in w.commands(seed, "t")[:2]:  # the two simulate commands
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert not [p for p in w.check(seed, "t") if "library path" in p]
    assert len([p for p in w.check(seed + 2, "t") if "library path" in p]) == 6
