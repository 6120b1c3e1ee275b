"""Tests of the benchmark's own arithmetic and generators.

    python3 -m pytest perfbench/tests
"""

import filecmp
import json
import os

import pytest

import run
import stats
import workloads
from probe import Probe


def span(name, start, end, parent=-1):
    return (name, start, end, parent)


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 4.0, 0),
                 span("a.inner", 2.0, 3.0, 1),
                 span("b", 5.0, 9.0, 0)]
        assert stats.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0)]
        assert stats.self_times(spans)[0] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 2.0, 6.0), span("a", 0.0, 3.0, 0), span("b", 5.0, 9.0, 0)]
        assert stats.self_times(spans)[0] == pytest.approx(2.0)

    def test_totals_by_name_and_root_time(self):
        spans = [span("cmd", 0.0, 4.0), span("tok", 0.5, 1.0, 0), span("tok", 2.0, 3.0, 0),
                 span("cmd", 5.0, 6.0)]
        assert stats.self_time_by_name(spans) == pytest.approx({"cmd": 3.5, "tok": 1.5})
        assert stats.root_time(spans) == pytest.approx(5.0)


class TestTail:
    def test_too_few_samples_for_a_tail_above_the_median(self):
        assert stats.tail([float(i) for i in range(20)]) is None

    def test_ten_samples_lie_beyond_the_tail(self):
        samples = [float(i) for i in range(21)]
        value, percentile, n = stats.tail(list(reversed(samples)))
        assert sum(s > value for s in samples) == 10
        assert value == 10.0 and n == 21
        assert percentile == pytest.approx(100.0 * 11 / 21)

    def test_paper_sized_run(self):
        value, percentile, n = stats.tail([float(i) for i in range(720)])
        assert (value, n) == (709.0, 720)
        assert percentile == pytest.approx(98.611, abs=1e-3)


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_same_seed_gives_identical_inputs(self, name, tmp_path):
        workload = workloads.WORKLOADS[name]
        dirs = [tmp_path / label for label in ("a", "b", "other")]
        for path, seed in zip(dirs, (5, 5, 6)):
            path.mkdir()
            workload.generate(seed, str(path))
        files = sorted(os.listdir(dirs[0]))
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
        assert (mismatch, errors) == ([], []) and match == files
        _, changed, _ = filecmp.cmpfiles(dirs[0], dirs[2], files, shallow=False)
        assert changed, "another seed must give other inputs"

    def test_prepare_long_work_does_not_depend_on_the_seed(self, tmp_path):
        sizes = []
        for seed in (1, 2):
            path = tmp_path / str(seed)
            path.mkdir()
            workloads.WORKLOADS["prepare-long"].generate(seed, str(path))
            with open(path / "corpus.jsonl", encoding="utf-8") as fh:
                sizes.append(sorted(len(json.loads(line)["body_text"]) for line in fh))
        # the same length ladder, up to the overshoot of the last sentence
        assert all(abs(a - b) < 400 for a, b in zip(*sizes))


class TestChecks:
    def test_floats_within_relative_tolerance(self):
        assert run.same({"loss": [0.5, 1.0]}, {"loss": [0.5 * (1 + 1e-9), 1.0]})
        assert not run.same({"loss": [0.5]}, {"loss": [0.5 * (1 + 1e-5)]})

    def test_strings_and_keys_exact(self):
        assert not run.same({"classes": "0101"}, {"classes": "0100"})
        assert not run.same({"a": 1}, {"a": 1, "b": 2})
        assert not run.same(True, 1.0)

    def test_op_fails_when_it_differs_from_the_reference(self):
        units = [{"ops": {"train": {"n": 2, "ok": True}, "predict": {"n": 1, "ok": True}},
                  "fingerprint": {"train": {"loss": 0.7}, "predict": {"classes": "01"}}}]
        reference = {"train": {"loss": 0.7}, "predict": {"classes": "00"}}
        attempted, failed, reasons = run.check_ops(units, reference)
        assert (attempted, failed) == (3, 1) and "predict" in reasons[0]


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.LAYERS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_unit_reports_every_layer_metric():
    names = set(Probe(tracing=True).layers(1.0)) | {"trace.overhead_s"}
    assert names == {name for name, _, _ in run.LAYERS}
