"""Tests for the bench regression gate (repro.obs.regress + bench CLI)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.regress import (
    DEFAULT_FLOOR,
    REGRESS_SCHEMA,
    append_record,
    compare,
    extract_metrics,
    load_records,
    make_record,
    metrics_from_history,
    noise_floor,
)

HISTORY = Path(__file__).resolve().parent.parent / "benchmarks" / "history"

DECLARED = [
    {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.25},
    {"name": "job_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "success_ratio", "unit": "ok/attempted", "better": "higher", "bound": 0.01},
]
HOST = ("Test CPU @ 2.0GHz", 2)


@pytest.fixture
def root(tmp_path):
    """A checkout-like directory: ``BENCHMARK.json`` above ``.jobbench/records``."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": DECLARED,
        "per_layer": [{"name": "reduce.ms", "unit": "ms", "better": "lower"}],
    }))
    return tmp_path


def _jobbench(root, workload="small-mix", seed=0, trace=0, host=HOST, problems=(), **values):
    """Write one record in jobbench's schema; return its path."""
    values = {"jobs_per_s": 10.0, "job_ms_p50": 100.0, "success_ratio": 1.0, **values}
    declared = {spec["name"]: spec for spec in DECLARED}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "stamp": {"host": "box", "cpu": host[0], "nproc": host[1], "seed": seed},
        "metrics": {
            name: {"value": value, "unit": declared[name]["unit"],
                   "better": declared[name]["better"], "detail": ""}
            for name, value in values.items()
        },
        "checks": {"passed": ["4 jobs"], "problems": list(problems)},
    }
    path = root / ".jobbench" / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record))
    return path


def _rate(value, samples=None, better="higher", **extra):
    metric = {"value": value, "better": better, **extra}
    if samples:
        metric["samples"] = samples
    return metric


def _record(label, host=None, **metrics):
    return {"label": label, "host": host, "metrics": metrics}


class TestExtraction:
    def test_metric_naming_direction_and_bound(self, root):
        host, metrics = extract_metrics(_jobbench(root, workload="dense-20", job_ms_p50=80.0))
        assert host == HOST
        assert sorted(metrics) == [
            "dense-20/job_ms_p50", "dense-20/jobs_per_s", "dense-20/success_ratio",
        ]
        assert metrics["dense-20/job_ms_p50"] == {
            "value": 80.0, "unit": "ms", "better": "lower", "bound": 0.25,
        }
        assert metrics["dense-20/success_ratio"]["bound"] == 0.01

    def test_refuses_traced_record(self, root):
        path = _jobbench(root, trace=1)
        with pytest.raises(ValueError, match="traced record") as exc:
            extract_metrics(path)
        assert str(path) in str(exc.value) and "\n" not in str(exc.value)

    def test_refuses_record_whose_checks_failed(self, root):
        path = _jobbench(root, problems=["job 3: traced result differs from untraced"])
        with pytest.raises(ValueError, match="broken program: job 3") as exc:
            extract_metrics(path)
        assert str(path) in str(exc.value)

    def test_refuses_record_without_declaration(self, tmp_path_factory):
        path = _jobbench(tmp_path_factory.mktemp("undeclared"))
        with pytest.raises(ValueError, match="no BENCHMARK.json") as exc:
            extract_metrics(path)
        assert str(path) in str(exc.value)

    def test_refuses_record_missing_a_declared_metric(self, root):
        path = _jobbench(root, success_ratio=None)
        with pytest.raises(ValueError, match="success_ratio has no finite value"):
            extract_metrics(path)

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
        assert metric["better"] == "higher"
        assert metric["samples"] == [10.0, 9.0]


class TestNoiseFloors:
    def test_declared_bound_or_default_floor(self):
        assert noise_floor(_rate(1.0, bound=0.01)) == 0.01
        assert noise_floor(_rate(1.0)) == DEFAULT_FLOOR == 0.25

    def test_dispersion_floor_from_samples(self):
        jittery = _rate(100.0, samples=[60.0, 100.0, 140.0])
        assert noise_floor(jittery) > 0.25
        steady = _rate(100.0, samples=[99.0, 100.0, 101.0])
        assert noise_floor(steady) == pytest.approx(0.05)  # clamped at 5%

    def test_caller_floor_only_widens(self):
        metric = _rate(100.0)
        assert noise_floor(metric, default_floor=0.5) == 0.5
        assert noise_floor(metric, default_floor=0.01) == 0.25
        assert noise_floor(_rate(1.0, bound=0.01), default_floor=0.5) == 0.5


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
            _record("next", m=_rate(85.0)),  # -15% < 25% default floor
        ])
        assert outcome["ok"] and len(outcome["rows"]) == 1

    def test_declared_bound_gates_the_drop(self, root):
        records = load_records([
            _jobbench(root, seed=1, success_ratio=1.0, jobs_per_s=10.0),
            _jobbench(root, seed=2, success_ratio=0.95, jobs_per_s=8.0),
        ])
        outcome = compare(records)
        [row] = outcome["regressions"]  # -5% beyond 1%; -20% within 25%
        assert row["metric"] == "small-mix/success_ratio" and row["floor"] == 0.01

    def test_lower_is_better_direction(self):
        fast = _rate(1.0, better="lower")
        slow = _rate(2.0, better="lower")
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

    def test_other_host_baseline_is_ignored(self):
        outcome = compare([
            _record("vm", host=HOST, m=_rate(100.0)),
            _record("ci", host=("Other CPU", 4), m=_rate(10.0)),  # no baseline
            _record("ci-2", host=("Other CPU", 4), m=_rate(9.0)),
            _record("vm-2", host=HOST, m=_rate(95.0)),  # against vm, not ci-2
            _record("legacy", m=_rate(1.0)),  # hostless: compares with no one
        ])
        assert outcome["ok"]
        assert [(row["baseline_label"], row["label"]) for row in outcome["rows"]] == [
            ("ci", "ci-2"), ("vm", "vm-2"),
        ]

    def test_recorded_repo_trajectory_is_clean(self):
        trajectory = HISTORY / "trajectory.jsonl"
        records = load_records([trajectory])
        assert len(records) >= 4
        assert compare(records)["ok"]


class TestRecords:
    def test_record_carries_host_and_schema(self, root):
        record = make_record("pr", [
            _jobbench(root, workload="small-mix"), _jobbench(root, workload="dense-20"),
        ])
        assert record["schema"] == REGRESS_SCHEMA == 2
        assert record["host"] == list(HOST)
        assert record["sources"] == ["small-mix-seed0-trace0.json", "dense-20-seed0-trace0.json"]
        assert len(record["metrics"]) == 2 * len(DECLARED)
        assert all("kind" not in metric for metric in record["metrics"].values())

    def test_record_refuses_two_hosts(self, root):
        paths = [_jobbench(root, seed=1), _jobbench(root, seed=2, host=("Other CPU", 8))]
        with pytest.raises(ValueError, match="2 hosts"):
            make_record("mixed", paths)

    def test_trajectory_line_keeps_its_host(self, root, tmp_path):
        out = tmp_path / "trajectory.jsonl"
        append_record(out, make_record("vm", [_jobbench(root)]))
        [record] = load_records([out])
        assert record["host"] == HOST
        assert record["metrics"]["small-mix/jobs_per_s"]["value"] == 10.0

    def test_append_after_torn_tail_survives(self, root, tmp_path):
        out = tmp_path / "trajectory.jsonl"
        append_record(out, make_record("first", [_jobbench(root, seed=1)]))
        raw = out.read_bytes()
        out.write_bytes(raw[: len(raw) - 30])  # killed mid-append
        append_record(out, make_record("second", [_jobbench(root, seed=2)]))
        assert [record["label"] for record in load_records([out])] == ["second"]


class TestBenchCli:
    def _write_pair(self, root):
        base = _jobbench(root, workload="serve-mix", seed=1, jobs_per_s=100.0)
        regressed = _jobbench(root, workload="serve-mix", seed=2, jobs_per_s=30.0)
        return base, regressed

    def test_compare_exits_nonzero_on_synthetic_regression(self, root, capsys):
        base, regressed = self._write_pair(root)
        assert main(["bench", "compare", str(base), str(regressed)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "serve-mix/jobs_per_s" in out

    def test_compare_advisory_reports_but_exits_zero(self, root, capsys):
        base, regressed = self._write_pair(root)
        assert main(["bench", "compare", "--advisory", str(base), str(regressed)]) == 0
        assert "ADVISORY" in capsys.readouterr().out

    def test_compare_exits_zero_on_recorded_trajectory(self, capsys):
        trajectory = HISTORY / "trajectory.jsonl"
        assert main(["bench", "compare", str(trajectory)]) == 0

    def test_compare_jobbench_records_against_trajectory(self, root, capsys):
        # CI's advisory gate: fresh records vs the recorded history
        trajectory = HISTORY / "trajectory.jsonl"
        records = [_jobbench(root, workload=name) for name in ("small-mix", "dense-20")]
        code = main(["bench", "compare", "--advisory", str(trajectory), *map(str, records)])
        assert code == 0

    @pytest.mark.parametrize("refused", ["traced", "checks", "undeclared"])
    def test_refused_input_exits_one_with_one_error_line(self, root, tmp_path_factory, refused):
        path = {
            "traced": lambda: _jobbench(root, trace=1),
            "checks": lambda: _jobbench(root, problems=["job 0: no result"]),
            "undeclared": lambda: _jobbench(tmp_path_factory.mktemp("undeclared")),
        }[refused]()
        for argv in (["bench", "compare", str(path)],
                     ["bench", "record", "--label", "x", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            message = exc.value.code
            assert isinstance(message, str)  # SystemExit(str) exits 1
            assert message.startswith("error reading benchmark files: ")
            assert str(path) in message and "\n" not in message

    def test_compare_json_output(self, root, capsys):
        base, regressed = self._write_pair(root)
        main(["bench", "compare", "--json", str(base), str(regressed)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["regressions"][0]["metric"] == "serve-mix/jobs_per_s"
        assert payload["regressions"][0]["better"] == "higher"

    def test_record_appends_normalised_trajectory_entry(self, root, tmp_path, capsys):
        base, _ = self._write_pair(root)
        out = tmp_path / "trajectory.jsonl"
        assert main(["bench", "record", "--label", "ci", "--out", str(out),
                     str(base)]) == 0
        [line] = out.read_text().splitlines()
        record = json.loads(line)
        assert record["label"] == "ci" and record["kind"] == "bench"
        assert record["host"] == list(HOST)
        assert "serve-mix/jobs_per_s" in record["metrics"]
        # and the trajectory it builds round-trips through the gate
        assert main(["bench", "compare", str(out), str(base)]) == 0

    def test_round_trip_record_then_regress(self, root, tmp_path):
        base, regressed = self._write_pair(root)
        out = tmp_path / "trajectory.jsonl"
        append_record(out, make_record("baseline", [base]))
        assert main(["bench", "compare", str(out), str(regressed)]) == 1
