"""Tests for the bench regression gate (repro.obs.regress + bench CLI)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.regress import (
    append_record,
    compare,
    extract_metrics,
    load_records,
    make_record,
    metrics_from_history,
    noise_floor,
)

HISTORY = Path(__file__).resolve().parent.parent / "benchmarks" / "history"


def _rate(value, samples=None):
    metric = {"value": value, "kind": "rate", "direction": "higher"}
    if samples:
        metric["samples"] = samples
    return metric


def _record(label, **metrics):
    return {"label": label, "metrics": metrics}


class TestExtraction:
    def test_pr3_shape(self):
        payload = {
            "sa_reducer": {"100": {"incremental_steps_per_sec": 1000.0}},
            "lightcone": {"plan_points_per_sec": 200.0},
        }
        metrics = extract_metrics(payload)
        assert metrics["sa_steps_per_sec_n100"]["value"] == 1000.0
        assert metrics["sa_steps_per_sec_n100"]["kind"] == "rate"
        assert metrics["lightcone_points_per_sec"]["value"] == 200.0

    def test_pr4_shape_is_quality(self):
        payload = {
            "mis": {"and_ratio_sa": 0.99, "depths": {"1": {"sampled_ratio": 1.0}}},
            "sk": {"and_ratio_sa": 0.77, "depths": {"1": {"sampled_ratio": 0.9}}},
        }
        metrics = extract_metrics(payload)
        assert metrics["mis_and_ratio"]["kind"] == "quality"
        assert metrics["sk_sampled_ratio_p1"]["value"] == 0.9

    def test_pr5_shape_has_exact_flags(self):
        payload = {
            "speedup": 3.0,
            "bit_identical_batched_vs_sequential": True,
            "bit_identical_resumed_vs_batched": True,
        }
        metrics = extract_metrics(payload)
        assert metrics["batch_speedup"]["kind"] == "rate"
        assert metrics["bit_identical_batched_vs_sequential"] == {
            "value": 1.0, "kind": "exact", "direction": "higher",
        }

    def test_pr6_excludes_oversubscribed_rows(self):
        payload = {
            "daemon": [
                {"workers": 1, "jobs_per_sec": 10.0, "oversubscribed": False},
                {"workers": 4, "jobs_per_sec": 2.0, "oversubscribed": True},
            ],
            "bit_identical_all_worker_counts_vs_sequential": True,
        }
        metrics = extract_metrics(payload)
        assert "serve_jobs_per_sec_w1" in metrics
        assert "serve_jobs_per_sec_w4" not in metrics
        assert metrics["serve_bit_identical"]["value"] == 1.0

    def test_unrecognised_payload_yields_nothing(self):
        assert extract_metrics({"mystery": 1}) == {}
        assert extract_metrics([1, 2]) == {}

    def test_all_checked_in_bench_files_are_recognised(self):
        for name in ("BENCH_pr3", "BENCH_pr4", "BENCH_pr5", "BENCH_pr6"):
            payload = json.loads((HISTORY / f"{name}.json").read_text())
            assert extract_metrics(payload), f"{name} extracted no metrics"

    def test_history_snapshots_become_throughput_with_samples(self):
        def snap(seq, unix, total):
            return {
                "schema": 1, "kind": "snapshot", "seq": seq, "unix": unix,
                "pid": 1, "started_unix": 0.0,
                "snapshot": {"counters": {"redqaoa_jobs_completed_total": total},
                             "gauges": {}, "histograms": {}},
            }

        metrics = metrics_from_history(
            [snap(1, 0.0, 0), snap(2, 10.0, 100), snap(3, 20.0, 190)]
        )
        metric = metrics["serve_jobs_per_sec"]
        assert metric["value"] == pytest.approx(9.5)
        assert metric["samples"] == [10.0, 9.0]


class TestNoiseFloors:
    def test_static_floors_by_kind(self):
        assert noise_floor({"kind": "rate", "value": 1.0}) == 0.25
        assert noise_floor({"kind": "quality", "value": 1.0}) == 0.05
        assert noise_floor({"kind": "exact", "value": 1.0}) == 0.0

    def test_dispersion_floor_from_samples(self):
        jittery = _rate(100.0, samples=[60.0, 100.0, 140.0])
        assert noise_floor(jittery) > 0.25
        steady = _rate(100.0, samples=[99.0, 100.0, 101.0])
        assert noise_floor(steady) == pytest.approx(0.05)  # clamped at 5%

    def test_caller_floor_only_widens(self):
        metric = _rate(100.0)
        assert noise_floor(metric, default_floor=0.5) == 0.5
        assert noise_floor(metric, default_floor=0.01) == 0.25
        assert noise_floor({"kind": "exact", "value": 1.0}, default_floor=0.5) == 0.0


class TestCompare:
    def test_regression_beyond_floor_is_flagged(self):
        outcome = compare([
            _record("base", m=_rate(100.0)),
            _record("next", m=_rate(50.0)),
        ])
        assert not outcome["ok"]
        [row] = outcome["regressions"]
        assert row["metric"] == "m" and row["change"] == pytest.approx(-0.5)

    def test_drop_within_floor_passes(self):
        outcome = compare([
            _record("base", m=_rate(100.0)),
            _record("next", m=_rate(85.0)),  # -15% < 25% rate floor
        ])
        assert outcome["ok"] and len(outcome["rows"]) == 1

    def test_exact_metric_gates_any_drop(self):
        exact = {"value": 1.0, "kind": "exact", "direction": "higher"}
        broken = {"value": 0.0, "kind": "exact", "direction": "higher"}
        assert compare([_record("a", flag=exact), _record("b", flag=exact)])["ok"]
        assert not compare([_record("a", flag=exact), _record("b", flag=broken)])["ok"]

    def test_lower_is_better_direction(self):
        fast = {"value": 1.0, "kind": "rate", "direction": "lower"}
        slow = {"value": 2.0, "kind": "rate", "direction": "lower"}
        assert not compare([_record("a", lat=fast), _record("b", lat=slow)])["ok"]
        assert compare([_record("a", lat=slow), _record("b", lat=fast)])["ok"]

    def test_sparse_trajectory_uses_last_seen_baseline(self):
        outcome = compare([
            _record("pr3", m=_rate(100.0)),
            _record("pr4", other=_rate(1.0)),  # does not measure m
            _record("pr6", m=_rate(40.0)),  # compared against pr3, not pr4
        ])
        [row] = outcome["regressions"]
        assert row["baseline_label"] == "pr3"

    def test_disjoint_records_make_no_comparisons(self):
        outcome = compare([
            _record("pr3", a=_rate(1.0)),
            _record("pr4", b=_rate(2.0)),
        ])
        assert outcome["ok"] and outcome["rows"] == []

    def test_recorded_repo_trajectory_is_clean(self):
        trajectory = HISTORY / "trajectory.jsonl"
        records = load_records([trajectory])
        assert len(records) >= 4
        assert compare(records)["ok"]


class TestBenchCli:
    def _write_pair(self, tmp_path):
        base = {"daemon": [{"workers": 1, "jobs_per_sec": 100.0,
                            "oversubscribed": False}],
                "bit_identical_all_worker_counts_vs_sequential": True}
        regressed = {"daemon": [{"workers": 1, "jobs_per_sec": 30.0,
                                 "oversubscribed": False}],
                     "bit_identical_all_worker_counts_vs_sequential": True}
        (tmp_path / "base.json").write_text(json.dumps(base))
        (tmp_path / "regressed.json").write_text(json.dumps(regressed))
        return tmp_path / "base.json", tmp_path / "regressed.json"

    def test_compare_exits_nonzero_on_synthetic_regression(self, tmp_path, capsys):
        base, regressed = self._write_pair(tmp_path)
        assert main(["bench", "compare", str(base), str(regressed)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "serve_jobs_per_sec_w1" in out

    def test_compare_advisory_reports_but_exits_zero(self, tmp_path, capsys):
        base, regressed = self._write_pair(tmp_path)
        assert main(["bench", "compare", "--advisory", str(base), str(regressed)]) == 0
        assert "ADVISORY" in capsys.readouterr().out

    def test_compare_exits_zero_on_recorded_trajectory(self, capsys):
        trajectory = HISTORY / "trajectory.jsonl"
        assert main(["bench", "compare", str(trajectory)]) == 0

    def test_compare_real_bench_files_against_trajectory(self, capsys):
        # CI's advisory gate: BENCH emissions vs the recorded history
        trajectory = HISTORY / "trajectory.jsonl"
        code = main([
            "bench", "compare", "--advisory", str(trajectory),
            str(HISTORY / "BENCH_pr3.json"), str(HISTORY / "BENCH_pr5.json"),
        ])
        assert code == 0

    def test_compare_json_output(self, tmp_path, capsys):
        base, regressed = self._write_pair(tmp_path)
        main(["bench", "compare", "--json", str(base), str(regressed)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["regressions"][0]["metric"] == "serve_jobs_per_sec_w1"

    def test_record_appends_normalised_trajectory_entry(self, tmp_path, capsys):
        base, _ = self._write_pair(tmp_path)
        out = tmp_path / "trajectory.jsonl"
        assert main(["bench", "record", "--label", "ci", "--out", str(out),
                     str(base)]) == 0
        [line] = out.read_text().splitlines()
        record = json.loads(line)
        assert record["label"] == "ci" and record["kind"] == "bench"
        assert "serve_jobs_per_sec_w1" in record["metrics"]
        # and the trajectory it builds round-trips through the gate
        assert main(["bench", "compare", str(out), str(base)]) == 0

    def test_round_trip_record_then_regress(self, tmp_path):
        base, regressed = self._write_pair(tmp_path)
        out = tmp_path / "trajectory.jsonl"
        append_record(out, make_record("baseline", [base]))
        assert main(["bench", "compare", str(out), str(regressed)]) == 1
