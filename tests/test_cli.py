"""Tests for the repro.cli artifact-style entry points."""

import json

import pytest

from repro.cli import main


class TestMseNoisy:
    def test_runs_and_reports(self, capsys):
        code = main([
            "mse-noisy", "-n", "7", "--width", "6", "--shots", "256",
            "--trajectories", "2", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "MSE noisy baseline" in out
        assert "MSE noisy Red-QAOA" in out

    def test_device_selection(self, capsys):
        code = main([
            "mse-noisy", "-n", "6", "--width", "5", "--shots", "128",
            "--trajectories", "2", "--device", "kolkata",
        ])
        assert code == 0
        assert "kolkata" in capsys.readouterr().out

    def test_device_too_small_fails_before_any_landscape(self, monkeypatch):
        import repro.qaoa.landscape as landscape

        def no_landscape(*args, **kwargs):
            raise AssertionError("a landscape was computed")

        monkeypatch.setattr(landscape, "compute_landscape", no_landscape)
        monkeypatch.setattr(landscape, "compute_noisy_landscape", no_landscape)
        with pytest.raises(SystemExit) as exc:
            main(["mse-noisy", "--device", "melbourne", "-n", "16"])
        message = str(exc.value.code)
        assert message == "error: a 16-node graph needs 16 qubits but device 'melbourne' has 14"

    def test_unknown_device_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mse-noisy", "--device", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err


class TestMseIdeal:
    def test_aids(self, capsys):
        code = main([
            "mse-ideal", "--graph-set", "aids", "--num-graphs", "3",
            "--p", "1", "--num-points", "64",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "node reduction" in out
        assert "mean MSE" in out

    def test_p2(self, capsys):
        code = main([
            "mse-ideal", "--graph-set", "linux", "--num-graphs", "2",
            "--p", "2", "--num-points", "32", "--min-nodes", "6",
        ])
        assert code == 0


class TestEndToEnd:
    def test_reports_ratios(self, capsys):
        code = main([
            "end-to-end", "--p", "1", "--num-graphs", "2", "--num-nodes", "8",
            "--restarts", "2", "--maxiter", "15",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "best result" in out
        assert "average result" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    @pytest.mark.parametrize("argv", [
        ["--suite", "mis", "--count", "3", "-n", "9", "--edge-prob", "0.5",
         "--penalty", "3.0", "--p", "2", "--restarts", "2", "--maxiter", "7",
         "--finetune-maxiter", "3", "--shots", "64", "--seed", "5"],
        ["--suite", "qubo", "--qubo-density", "0.3"],
        ["--suite", "maxcut", "--weight-dist", "gaussian"],
    ])
    def test_batch_and_submit_resolve_one_manifest(self, argv):
        from repro.cli import _build_parser, _manifest_from_args

        parser = _build_parser()
        batch = parser.parse_args(["batch", *argv])
        submit = parser.parse_args(["submit", "--socket", "s.sock", *argv])
        assert _manifest_from_args(batch) == _manifest_from_args(submit)


class TestVersion:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestJsonOutput:
    def test_solve_json_is_machine_readable(self, capsys):
        code = main([
            "solve", "--problem", "mis", "-n", "10",
            "--restarts", "1", "--maxiter", "8", "--seed", "0", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"]["name"] == "mis"
        assert payload["reduction"]["qubits"] <= 10
        assert isinstance(payload["expectation"], float)
        assert payload["sampled_best"] is not None

    def test_sweep_json_is_machine_readable(self, capsys):
        code = main([
            "sweep", "-n", "24", "--p", "2", "--num-points", "16", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["edges"] == 36
        assert payload["num_points"] == 16
        assert payload["energy"]["min"] <= payload["energy"]["max"]


class TestBatch:
    def test_requires_manifest_or_suite(self):
        with pytest.raises(SystemExit):
            main(["batch"])
        with pytest.raises(SystemExit):
            main(["batch", "manifest.json", "--suite", "mis"])

    def test_failed_job_is_a_one_line_error(self):
        # SK n=30 at p=2: lightcones span the graph and n exceeds the dense cap.
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--suite", "sk", "-n", "30", "--p", "2", "--count", "1"])
        message = str(exc.value.code)
        assert message.startswith("error: job sk-n30-s0 failed: EngineLimitError: ")
        assert "\n" not in message

    def test_unrelated_errors_are_not_swallowed(self, monkeypatch):
        from repro.service import BatchScheduler

        def broken(self, specs, on_result=None):
            raise RuntimeError("not a job failure")

        monkeypatch.setattr(BatchScheduler, "run", broken)
        with pytest.raises(RuntimeError, match="not a job failure"):
            main(["batch", "--suite", "mis", "--count", "1", "-n", "8"])

    def test_suite_end_to_end_with_store_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        args = [
            "batch", "--suite", "maxcut", "--count", "2", "-n", "8",
            "--restarts", "1", "--maxiter", "8",
            "--store", store, "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["computed"] == first["unique_jobs"] == 2
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["computed"] == 0
        assert second["store_hits"] == 2
        assert [job["expectation"] for job in first["per_job"]] == [
            job["expectation"] for job in second["per_job"]
        ]

    def test_manifest_file_with_report(self, tmp_path, capsys):
        manifest = {
            "schema": 1,
            "defaults": {"restarts": 1, "maxiter": 8},
            "jobs": [{"kind": "mis", "nodes": 8, "seed": 0, "repeat": 2}],
        }
        manifest_path = tmp_path / "jobs.json"
        manifest_path.write_text(json.dumps(manifest))
        report_path = tmp_path / "report.json"
        code = main(["batch", str(manifest_path), "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 unique" in out
        report = json.loads(report_path.read_text())
        assert report["jobs"] == 2
        assert report["deduped"] == 1

    def test_bad_manifest_is_a_clean_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"jobs\": []}")
        with pytest.raises(SystemExit, match="campaign|jobs"):
            main(["batch", str(path)])

    def test_workers_flag_is_result_neutral(self, capsys):
        args = [
            "batch", "--suite", "maxcut", "--count", "3", "-n", "8",
            "--restarts", "1", "--maxiter", "8", "--json",
        ]
        assert main(args) == 0
        solo = json.loads(capsys.readouterr().out)
        assert main(args + ["--workers", "2"]) == 0
        pooled = json.loads(capsys.readouterr().out)
        solo.pop("seconds"), pooled.pop("seconds")
        for job in solo["per_job"] + pooled["per_job"]:
            job.pop("source", None)  # timing-dependent labels only
        assert solo == pooled


class TestServeSubmit:
    def test_serve_submit_round_trip(self, tmp_path, capsys):
        import threading

        from repro.serve import ServeClient, wait_for_socket

        sock = str(tmp_path / "serve.sock")
        store = str(tmp_path / "store.jsonl")
        server = threading.Thread(
            target=main,
            args=(["serve", "--socket", sock, "--store", store],),
            daemon=True,
        )
        server.start()
        wait_for_socket(sock)
        submit = [
            "submit", "--socket", sock, "--suite", "maxcut",
            "--count", "2", "-n", "8", "--restarts", "1", "--maxiter", "6",
        ]
        code = main(submit + ["--json"])
        out = capsys.readouterr().out  # the serve banner precedes the JSON
        payload = json.loads(out[out.index("{"):])
        assert code == 0
        assert payload["done"] and payload["counts"] == {"done": 2}
        # the daemon's per-job result fields are the batch report's, byte
        # for byte and in the same key order (plus the canonical bits)
        assert main(["batch", *submit[3:], "--json"]) == 0
        batch = json.loads(capsys.readouterr().out)
        for job, view in zip(payload["jobs"], batch["per_job"]):
            assert list(job["result"]) == [
                "source", "expectation", "best_value", "gammas", "betas",
                "bits", "reduced_qubits", "and_ratio", "assignment",
            ]
            served = {key: job[key] for key in ("index", "label", "kind", "fingerprint")}
            served.update((k, v) for k, v in job["result"].items() if k != "bits")
            assert json.dumps(served) == json.dumps(view)
        # second submission: everything cached, text output says so
        assert main(submit) == 0
        out = capsys.readouterr().out
        assert "2 already cached" in out
        assert "2 done, 0 dead" in out
        ServeClient(sock).shutdown()
        server.join(timeout=30)
        assert not server.is_alive()

    def test_submit_refuses_dead_socket(self, tmp_path):
        with pytest.raises(SystemExit, match="submit failed"):
            main([
                "submit", "--socket", str(tmp_path / "nope.sock"),
                "--suite", "maxcut", "--count", "1",
            ])


class TestWeightedFlags:
    def test_mse_noisy_weighted(self, capsys):
        code = main([
            "mse-noisy", "-n", "7", "--width", "5", "--shots", "128",
            "--trajectories", "2", "--seed", "0", "--weighted",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "uniform-weighted" in out

    def test_mse_ideal_spinglass_dataset(self, capsys):
        code = main([
            "mse-ideal", "--graph-set", "spinglass", "--num-graphs", "2",
            "--p", "1", "--num-points", "32", "--min-nodes", "5",
            "--max-nodes", "8",
        ])
        assert code == 0
        assert "mean MSE" in capsys.readouterr().out

    def test_end_to_end_weighted(self, capsys):
        code = main([
            "end-to-end", "--p", "1", "--num-graphs", "1", "--num-nodes", "7",
            "--restarts", "2", "--maxiter", "10",
            "--weighted", "--weight-dist", "gaussian",
        ])
        assert code == 0
        assert "best result" in capsys.readouterr().out

    def test_weight_dist_validated(self):
        with pytest.raises(SystemExit):
            main(["end-to-end", "--weighted", "--weight-dist", "exponential"])
