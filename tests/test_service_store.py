"""Tests for repro.service.store: the persistent JSONL result store."""

import json
import math

import pytest

from repro.service.jobs import JobResult
from repro.service.store import STORE_SCHEMA, ResultStore


def _result(tag: str, best: float = 3.5) -> JobResult:
    return JobResult(
        fingerprint=f"fp-{tag}",
        instance_fingerprint=f"inst-{tag}",
        gammas=[0.1234567890123456, -2.7182818284590451],
        betas=[0.3333333333333333, 1e-17],
        expectation=1.0000000000000002,
        best_value=best,
        bits=[0, 1, 1, 0],
        reduced_qubits=3,
        and_ratio=0.87,
        reduced_evaluations=42,
        original_evaluations=7,
    )


class TestRoundTrip:
    def test_put_get_exact(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        original = _result("a")
        store.put(original)
        found = store.get("fp-a")
        assert found is not None
        assert found.source == "store"
        found.source = "computed"
        assert found == original

    def test_floats_survive_bit_exactly_across_processes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).put(_result("a"))
        reloaded = ResultStore(path).get("fp-a")
        assert reloaded.gammas == [0.1234567890123456, -2.7182818284590451]
        assert reloaded.betas[1] == 1e-17
        assert reloaded.expectation == 1.0000000000000002

    def test_nan_best_value_round_trips(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).put(_result("big", best=float("nan")))
        reloaded = ResultStore(path).get("fp-big")
        assert math.isnan(reloaded.best_value)

    def test_latest_record_wins(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put(_result("a", best=1.0))
        store.put(_result("a", best=2.0))
        assert ResultStore(path).get("fp-a").best_value == 2.0
        assert len(ResultStore(path)) == 1


class TestCounters:
    def test_hits_and_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.get("fp-a") is None
        store.put(_result("a"))
        assert store.get("fp-a") is not None
        assert (store.hits, store.misses) == (1, 1)
        assert "fp-a" in store
        assert "fp-b" not in store

    def test_contains_does_not_count(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put(_result("a"))
        _ = "fp-a" in store
        assert (store.hits, store.misses) == (0, 0)


class TestDurabilityAndTolerance:
    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put(_result("a"))
        store.put(_result("b"))
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # kill mid-append
        survivor = ResultStore(path)
        assert survivor.corrupt_lines == 1
        assert "fp-a" in survivor
        assert "fp-b" not in survivor

    def test_put_after_torn_tail_survives_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put(_result("a"))
        store.put(_result("b"))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])  # killed mid-append of "b"
        resumed = ResultStore(path)
        resumed.put(_result("c"))
        survivor = ResultStore(path)
        assert survivor.corrupt_lines == 1  # only the torn "b" is lost
        assert "fp-a" in survivor and "fp-c" in survivor
        assert "fp-b" not in survivor

    def test_unknown_schema_lines_are_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).put(_result("a"))
        with path.open("a") as handle:
            handle.write(json.dumps({"schema": STORE_SCHEMA + 1, "fingerprint": "fp-x"}) + "\n")
        survivor = ResultStore(path)
        assert survivor.skipped_schema == 1
        assert "fp-x" not in survivor
        assert "fp-a" in survivor

    def test_garbage_lines_are_counted_not_fatal(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('not json at all\n{"schema": 1}\n')
        store = ResultStore(path)
        assert store.corrupt_lines == 2  # undecodable + missing fingerprint
        assert len(store) == 0

    def test_missing_file_is_an_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "nested" / "store.jsonl")
        assert len(store) == 0
        store.put(_result("a"))  # creates parents
        assert (tmp_path / "nested" / "store.jsonl").exists()

    def test_fingerprints_listing(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put(_result("a"))
        store.put(_result("b"))
        assert sorted(store.fingerprints()) == ["fp-a", "fp-b"]


class TestDeadLetters:
    def test_park_round_trips_across_processes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.park("fp-bad", "inst-bad", "EngineLimitError: too big", attempts=3)
        assert store.dead_letters() == {
            "fp-bad": {
                "error": "EngineLimitError: too big",
                "attempts": 3,
                "instance": "inst-bad",
            }
        }
        reloaded = ResultStore(path)
        assert reloaded.dead_letters() == store.dead_letters()
        assert "fp-bad" not in reloaded  # a dead letter is not a result
        assert len(reloaded) == 0

    def test_result_retires_dead_letter_in_any_order(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        # park then succeed: the success wins live and on reload
        store.park("fp-a", "inst-a", "flaky", attempts=2)
        store.put(_result("a"))
        assert store.dead_letters() == {}
        assert "fp-a" in store
        reloaded = ResultStore(path)
        assert reloaded.dead_letters() == {}
        assert reloaded.get("fp-a") is not None
        # succeed then park (a later failed retry): the result still wins
        store.park("fp-a", "inst-a", "flaky again", attempts=3)
        assert store.dead_letters() == {}
        assert ResultStore(path).dead_letters() == {}

    def test_truncated_dead_letter_line_is_tolerated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put(_result("a"))
        store.park("fp-bad", "inst-bad", "boom", attempts=3)
        text = path.read_text()
        path.write_text(text[: len(text) - 10])  # kill mid-append
        survivor = ResultStore(path)
        assert survivor.corrupt_lines == 1
        assert "fp-a" in survivor
        assert survivor.dead_letters() == {}


class TestConcurrentAppend:
    def test_flock_serializes_multi_process_appends(self, tmp_path):
        """N processes hammering one store leave only whole JSONL lines."""
        import multiprocessing

        path = tmp_path / "store.jsonl"
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_append_many, args=(str(path), worker, 25))
            for worker in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        merged = ResultStore(path)
        assert merged.corrupt_lines == 0
        assert merged.skipped_schema == 0
        assert len(merged) == 4 * 25
        for worker in range(4):
            found = merged.get(f"fp-w{worker}-0")
            assert found is not None and found.best_value == float(worker)


    def test_sibling_put_survives_a_writer_killed_mid_line(self, tmp_path):
        """Two stores share one file; one dies mid-append, the other's put
        (fsync'd) must still be there on reload."""
        path = tmp_path / "store.jsonl"
        daemon, batch = ResultStore(path), ResultStore(path)
        daemon.put(_result("a"))
        line = path.read_text().splitlines()[0].replace("fp-a", "fp-x")
        with path.open("a") as handle:
            handle.write(line[: len(line) // 2])  # the daemon's torn append
        batch.put(_result("b"))
        survivor = ResultStore(path)
        assert survivor.corrupt_lines == 1
        assert sorted(survivor.fingerprints()) == ["fp-a", "fp-b"]


def _append_many(path: str, worker: int, count: int) -> None:
    store = ResultStore(path, fsync=False)
    for index in range(count):
        store.put(_result(f"w{worker}-{index}", best=float(worker)))


@pytest.mark.parametrize("fsync", [True, False])
def test_fsync_flag_smoke(tmp_path, fsync):
    store = ResultStore(tmp_path / "store.jsonl", fsync=fsync)
    store.put(_result("a"))
    assert ResultStore(tmp_path / "store.jsonl").get("fp-a") is not None
