"""Tests for the EventLog file sink, rotation, and recent-events ring."""

import io
import json

import pytest

from repro.obs.log import EventLog, NullLog


class TestFileSink:
    def test_file_sink_writes_ndjson(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(level="info", path=path)
        log.info("daemon_started", workers=2)
        log.warning("dead_letter", job="abc")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["event"] for l in lines] == ["daemon_started", "dead_letter"]
        assert lines[0]["workers"] == 2
        assert all("uptime" in l for l in lines)

    def test_threshold_still_filters_file_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(level="warning", path=path)
        log.info("quiet")
        log.warning("loud")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and "loud" in lines[0]

    def test_event_after_torn_tail_survives(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventLog(level="info", path=path).info("before", index=0)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])  # daemon killed mid-line
        EventLog(level="info", path=path).info("after", index=1)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["event"] == "after"

    def test_rotation_bounds_the_live_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(level="info", path=path, max_bytes=600, backups=1)
        for index in range(40):
            log.info("tick", index=index)
        assert path.stat().st_size <= 600
        backup = tmp_path / "events.jsonl.1"
        assert backup.exists() and backup.stat().st_size <= 600
        # nothing shifted past the backup count
        assert not (tmp_path / "events.jsonl.2").exists()
        # the live tail is intact NDJSON carrying the newest events
        last = json.loads(path.read_text().splitlines()[-1])
        assert last["index"] == 39

    def test_backups_shift_oldest_off_the_end(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(level="info", path=path, max_bytes=300, backups=2)
        for index in range(60):
            log.info("tick", index=index)
        assert (tmp_path / "events.jsonl.1").exists()
        assert (tmp_path / "events.jsonl.2").exists()
        assert not (tmp_path / "events.jsonl.3").exists()
        # ordering: .2 is older than .1 is older than the live file
        def first_index(p):
            return json.loads(p.read_text().splitlines()[0])["index"]
        assert (
            first_index(tmp_path / "events.jsonl.2")
            < first_index(tmp_path / "events.jsonl.1")
            < first_index(path)
        )

    def test_zero_backups_truncates_instead_of_rotating(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(level="info", path=path, max_bytes=300, backups=0)
        for index in range(40):
            log.info("tick", index=index)
        assert path.stat().st_size <= 300
        assert not (tmp_path / "events.jsonl.1").exists()

    def test_validates_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(path=tmp_path / "x", max_bytes=0)
        with pytest.raises(ValueError):
            EventLog(path=tmp_path / "x", backups=-1)
        with pytest.raises(ValueError):
            EventLog(level="noisy")


class TestRecentRing:
    def test_ring_keeps_info_events_below_emit_threshold(self):
        log = EventLog(level="error", stream=io.StringIO())
        log.info("worker_respawned", worker=1)
        log.debug("invisible")
        [event] = log.recent()
        assert event["event"] == "worker_respawned" and event["worker"] == 1

    def test_recent_returns_newest_oldest_first(self):
        log = EventLog(level="error", stream=io.StringIO(), ring=8)
        for index in range(12):
            log.info("tick", index=index)
        events = log.recent(3)
        assert [e["index"] for e in events] == [9, 10, 11]

    def test_ring_capacity_drops_oldest(self):
        log = EventLog(level="error", stream=io.StringIO(), ring=4)
        for index in range(10):
            log.info("tick", index=index)
        assert [e["index"] for e in log.recent(100)] == [6, 7, 8, 9]

    def test_null_log_recent_is_empty(self):
        log = NullLog()
        log.error("ignored")
        assert log.recent() == []
