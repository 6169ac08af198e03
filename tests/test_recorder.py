"""Unit tests for partial recordings."""

import json

import pytest

from repro.core.recorder import NET_EVENTS_NODE, RecordedEvent, Recorder, Recording
from repro.simnet.events import ExternalEvent


def sample_recorder():
    recorder = Recorder()
    recorder.record_event(
        "r1",
        ExternalEvent(time_us=100, kind="link_down", target=("r1", "r2")),
        group=2,
        seq=0,
        time_us=100,
    )
    recorder.record_event(
        "r2",
        ExternalEvent(
            time_us=200, kind="announce", target="r2", data={"prefix": "10/8"}
        ),
        group=3,
        seq=1,
        time_us=200,
    )
    recorder.record_send(("r1", "r1", 4, 0, 2, "r2", "ospf_lsa"), False)
    recorder.note_group(7)
    return recorder


class TestRecorder:
    def test_event_count(self):
        assert sample_recorder().event_count == 2

    def test_horizon_tracks_max_group(self):
        recorder = sample_recorder()
        recorder.note_group(3)
        assert recorder.recording().horizon_group == 7

    def test_topology_events_use_net_node(self):
        recorder = Recorder()
        recorder.group_provider = lambda: 5
        recorder.record_topology(
            ExternalEvent(time_us=10, kind="node_down", target="r3")
        )
        rec = recorder.recording()
        assert rec.events[0].node == NET_EVENTS_NODE
        assert rec.events[0].group == 5

    def test_topology_seq_increments(self):
        recorder = Recorder()
        for i in range(3):
            recorder.record_topology(
                ExternalEvent(time_us=i, kind="node_down", target="r"), group=0
            )
        assert [e.seq for e in recorder.recording().events] == [0, 1, 2]


class TestRecording:
    def test_by_group_buckets_and_orders(self):
        rec = sample_recorder().recording()
        groups = rec.by_group()
        assert set(groups) == {2, 3}
        assert groups[2][0].node == "r1"

    def test_by_group_orders_within_group_by_node_then_seq(self):
        events = [
            RecordedEvent("b", 0, "announce", "b", None, 1, 0),
            RecordedEvent("a", 0, "announce", "a", None, 1, 5),
            RecordedEvent("a", 0, "announce", "a", None, 1, 2),
        ]
        rec = Recording(events=events)
        assert [(e.node, e.seq) for e in rec.by_group()[1]] == [
            ("a", 2), ("a", 5), ("b", 0),
        ]

    def test_size_bytes_positive_and_monotone(self):
        rec = sample_recorder().recording()
        assert rec.size_bytes() > 0
        bigger = Recording(events=rec.events * 2, drops=rec.drops)
        assert bigger.size_bytes() > rec.size_bytes()

    def test_recorded_event_roundtrips_to_external_event(self):
        rec = sample_recorder().recording()
        ev = rec.events[0].to_external_event()
        assert ev.kind == "link_down"
        assert ev.target == ("r1", "r2")


class TestSerialization:
    def test_json_roundtrip_preserves_everything(self):
        rec = sample_recorder().recording()
        restored = Recording.from_json(rec.to_json())
        assert restored.events == rec.events
        assert restored.drops == rec.drops
        assert restored.horizon_group == rec.horizon_group

    def test_tuples_survive_roundtrip(self):
        rec = sample_recorder().recording()
        restored = Recording.from_json(rec.to_json())
        assert restored.events[0].target == ("r1", "r2")
        assert isinstance(restored.events[0].target, tuple)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            Recording.from_json('{"format": "something-else"}')

    @pytest.mark.parametrize(
        "key", ["hop_cost_us", "spill_bound_us", "delay_estimates", "offset_us"]
    )
    def test_missing_replay_input_is_rejected(self, key):
        # a default would rebuild the replay on different d_i estimates
        doc = json.loads(sample_recorder().recording().to_json())
        if key == "offset_us":
            del doc["events"][0][key]
        else:
            del doc[key]
        with pytest.raises(ValueError, match=key):
            Recording.from_json(json.dumps(doc))

    def test_file_roundtrip(self, tmp_path):
        rec = sample_recorder().recording()
        path = str(tmp_path / "run.recording.json")
        rec.save(path)
        assert Recording.load(path).events == rec.events
